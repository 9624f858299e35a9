"""Exception types shared across the package, and the key check of its JSON inputs."""


class SpaceValidationError(ValueError):
    """Raised when an input fails to define a finite metric measure space."""


class DomainError(ValueError):
    """Raised when an argument is outside an operation's stated domain."""


class EvaluationError(RuntimeError):
    """Raised when a numerical evaluation cannot converge."""


class SymbolicAnalysisError(ValueError):
    """Raised when a weight / fundamental function has no supported closed form."""


class PreconditionError(RuntimeError):
    """Raised when a check's mathematical precondition fails (refusal, not a bug)."""


class SolverError(RuntimeError):
    """Raised when an LP solve fails; carries a path to the dumped instance."""


def require_keys(obj, keys, what: str, error: type[Exception]) -> dict:
    """obj, once it is checked to be a JSON object holding every key of keys."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise error(f"{what} has no {key!r} key")
    return obj
