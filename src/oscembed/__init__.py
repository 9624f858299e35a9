"""Rearrangement calculus, quasi-norms, and embedding checks on finite
doubling metric measure spaces."""

from .space import (Space, SpaceDiagnostics, load_space, space_from_matrix,
                    space_from_points, space_from_graph, path_space, grid_space,
                    random_geometric_space, doubling_constant,
                    noncollapsing_constant, diagnostics)
from .rearrange import StepDecreasing, rearrangement, sum_plus_linf_norm
from .rispace import (RISpaceSpec, lp, lorentz, lorentz_zygmund, lambda_w,
                      marcinkiewicz, marcinkiewicz_tilde, orlicz, convexify,
                      quasi_norm, fundamental_powerlog, spec_from_json)
from .smoothness import (GradientField, ModulusProfile, KBounds, modulus_profile,
                         besov_seminorm, hajlasz_seminorm_l1, k_functional_l1, k_bounds)
from .corpus import tent_function
from .embed import (EmbeddingReport, Regime, oscillation_functional, embedding_report,
                    oscillation_gradient_constant, measure_growth_constant,
                    reciprocal_weight_integral, reciprocal_weight_finite, regime_classify,
                    choose_alpha, sup_norm_embedding_check, target_norm_check,
                    log_lorentz_embedding_check, collapse_sweep, weighted_step_norm)
from .weights import PowerLog, OrliczFunction
from .errors import (SpaceValidationError, DomainError, EvaluationError,
                     SymbolicAnalysisError, PreconditionError, SolverError)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
