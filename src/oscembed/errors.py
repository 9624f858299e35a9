"""Exception types shared across the package, and the checks of its JSON inputs."""


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


def read_key(obj: dict, key: str, convert, what: str, error: type[Exception], default=None):
    """convert(obj[key]), or convert(default) when obj has no key; error names the key
    when convert refuses the value."""
    try:
        return convert(obj.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} key {key!r} is malformed: {exc}") from exc
