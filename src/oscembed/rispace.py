"""Rearrangement-invariant quasi-norm families and fundamental functions.

Supported families (all evaluated exactly on step functions, with 1-D
quadrature only where a log weight appears):

  lp(p)                      (int (f*)^p dt)^(1/p); p = inf gives the sup
  lorentz(p, q)              (int (t^(1/p) f*)^q dt/t)^(1/q); q = inf sup form
  lorentz_zygmund(p, r, b)   adds the (1 + ln+ 1/t)^b factor
  lambda_w(q, w)             (int (f*)^q w(t) dt)^(1/q), w a power-log preset
  marcinkiewicz(phi)         sup (phi(t)/t) int_0^t f*
  marcinkiewicz_tilde(phi)   sup phi(t) f*(t)
  orlicz(Phi)                inf {lam : int Phi(|f|/lam) dmu <= 1}

A spec may carry a convexification power r, denoting the space of f with
|f|^r in the base family, quasi-normed by the base norm of |f|^r to the 1/r.
Families with exact power algebra (lp, lorentz, lorentz_zygmund, lambda_w,
marcinkiewicz_tilde) normalize the power into their parameters; the others
keep it symbolic and apply it at evaluation time.

Suprema of infinite-exponent norms live on step breakpoints plus interior
critical points of the weight; each evaluator enumerates exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import (DomainError, EvaluationError, PreconditionError, SymbolicAnalysisError,
                     read_key, require_keys)
from .rearrange import StepDecreasing, StepRows
from .weights import OrliczFunction, PowerLog, bounded_max_search, power_roots


@dataclass(frozen=True)
class RISpaceSpec:
    family: str
    p: float | None = None
    q: float | None = None
    beta: float | None = None
    weight: PowerLog | None = None
    orlicz_fn: OrliczFunction | None = None
    convexify_power: float = 1.0

    def __post_init__(self):
        if not self.convexify_power > 0.0:
            raise DomainError("convexification power must be positive")

    def label(self) -> str:
        base = {
            "lp": lambda: f"L^{_fmt(self.p)}",
            "lorentz": lambda: f"L^{{{_fmt(self.p)},{_fmt(self.q)}}}",
            "lorentz_zygmund": lambda: f"L^{{{_fmt(self.p)},{_fmt(self.q)}}}(log)^{_fmt(self.beta)}",
            "lambda_w": lambda: f"Lambda^{_fmt(self.q)}(w)",
            "marcinkiewicz": lambda: "M_phi",
            "marcinkiewicz_tilde": lambda: "Mt_phi",
            "orlicz": lambda: f"Orlicz[{self.orlicz_fn.kind},{_fmt(self.orlicz_fn.p)}]",
        }[self.family]()
        if self.convexify_power != 1.0:
            base += f"^({_fmt(self.convexify_power)})"
        return base


def _fmt(x) -> str:
    if x is None:
        return "?"
    if math.isinf(x):
        return "inf"
    return f"{x:g}"


def _num_in(x) -> float:
    return math.inf if x in ("inf", None) else float(x)


_FAMILY_KEYS = {"lp": ("p",), "lorentz": ("p", "q"), "lorentz_zygmund": ("p", "r", "beta"),
                "lambda_w": ("q", "w"), "marcinkiewicz": ("phi",),
                "marcinkiewicz_tilde": ("phi",), "orlicz": ("Phi",)}


def spec_from_json(obj: dict) -> RISpaceSpec:
    fam = require_keys(obj, ("family",), "norm spec", DomainError)["family"]
    require_keys(obj, _FAMILY_KEYS.get(fam, ()), f"norm spec of family {fam!r}", DomainError)

    def num(key, convert=float, default=None):
        return read_key(obj, key, convert, "norm spec", DomainError, default)

    conv = num("convexify", default=1.0)
    if fam == "lp":
        spec = lp(num("p", _num_in))
    elif fam == "lorentz":
        spec = lorentz(num("p"), num("q", _num_in))
    elif fam == "lorentz_zygmund":
        spec = lorentz_zygmund(num("p"), num("r", _num_in), num("beta"))
    elif fam == "lambda_w":
        spec = lambda_w(num("q"), PowerLog.from_json(obj["w"]))
    elif fam == "marcinkiewicz":
        spec = marcinkiewicz(PowerLog.from_json(obj["phi"]))
    elif fam == "marcinkiewicz_tilde":
        spec = marcinkiewicz_tilde(PowerLog.from_json(obj["phi"]))
    elif fam == "orlicz":
        spec = orlicz(OrliczFunction.from_json(obj["Phi"]))
    else:
        raise DomainError(f"unknown family {fam!r}")
    return spec if conv == 1.0 else convexify(spec, conv)


# -- constructors ----------------------------------------------------------------


def lp(p: float) -> RISpaceSpec:
    if not p > 0.0:
        raise DomainError("lp exponent must be positive")
    return RISpaceSpec("lp", p=p)


def lorentz(p: float, q: float) -> RISpaceSpec:
    if not (p > 0.0 and q > 0.0):
        raise DomainError("lorentz exponents must be positive")
    return RISpaceSpec("lorentz", p=p, q=q)


def lorentz_zygmund(p: float, r: float, beta: float) -> RISpaceSpec:
    if not (p > 0.0 and r > 0.0):
        raise DomainError("lorentz_zygmund exponents must be positive")
    return RISpaceSpec("lorentz_zygmund", p=p, q=r, beta=float(beta))


def lambda_w(q: float, w: PowerLog) -> RISpaceSpec:
    if not (q > 0.0 and math.isfinite(q)):
        raise DomainError("lambda_w exponent must be positive finite")
    if not (w * PowerLog(1.0)).integrable_at_zero_dt_over_t():  # int_0 w dt = int_0 t w dt/t
        raise PreconditionError("lambda_w weight is not integrable at 0, so the norm of "
                                "every f != 0 is infinite")
    return RISpaceSpec("lambda_w", q=q, weight=w)


def _check_phi(phi: PowerLog) -> PowerLog:
    # phi must vanish at 0+, increase, and have phi(t)/t decreasing
    if not phi.bounded_at_zero() or phi.limit_at_zero() != 0.0:
        raise DomainError("Marcinkiewicz phi must vanish at 0+")
    ts = np.geomspace(1e-10, 1e4, 120)
    vals = np.asarray(phi(ts))
    if np.any(np.diff(vals) < -1e-13 * vals[:-1]):
        raise DomainError("Marcinkiewicz phi must be nondecreasing")
    ratio = vals / ts
    if np.any(np.diff(ratio) > 1e-13 * ratio[:-1]):
        raise DomainError("Marcinkiewicz phi/t must be nonincreasing (quasi-concavity)")
    return phi


def marcinkiewicz(phi: PowerLog) -> RISpaceSpec:
    return RISpaceSpec("marcinkiewicz", weight=_check_phi(phi))


def marcinkiewicz_tilde(phi: PowerLog) -> RISpaceSpec:
    return RISpaceSpec("marcinkiewicz_tilde", weight=_check_phi(phi))


def orlicz(phi_fn: OrliczFunction) -> RISpaceSpec:
    return RISpaceSpec("orlicz", orlicz_fn=phi_fn)


# -- convexification ---------------------------------------------------------------


def convexify(spec: RISpaceSpec, r: float) -> RISpaceSpec:
    """The r-convexification: |f|^r measured in the base space, to the 1/r.

    Exact exponent algebra folds r into the parameters of the lp / lorentz /
    lorentz_zygmund / lambda_w / marcinkiewicz_tilde families; the remaining
    families compose the power multiplicatively.
    """
    if not r > 0.0:
        raise DomainError("convexification power must be positive")
    if r == 1.0:
        return spec
    fam = spec.family
    if fam == "lp":
        return lp(spec.p * r) if math.isfinite(spec.p) else spec
    if fam == "lorentz":
        return lorentz(spec.p * r, spec.q * r if math.isfinite(spec.q) else math.inf)
    if fam == "lorentz_zygmund":
        return lorentz_zygmund(spec.p * r,
                               spec.q * r if math.isfinite(spec.q) else math.inf,
                               spec.beta / r)
    if fam == "lambda_w":
        return lambda_w(spec.q * r, spec.weight)
    if fam == "marcinkiewicz_tilde":
        return marcinkiewicz_tilde(spec.weight ** (1.0 / r))
    return replace(spec, convexify_power=spec.convexify_power * r)


# -- norm evaluation ---------------------------------------------------------------


def _norm_lp(p: float, fstar: StepDecreasing) -> float:
    if math.isinf(p):
        return float(fstar.values[0])
    return power_roots([(fstar.values, np.diff(fstar.edges))], p)[0]


def _norm_lorentz(p: float, q: float, fstar: StepDecreasing) -> float:
    """(p/q sum_i v_i^q (e_{i+1}^(q/p) - e_i^(q/p)))^(1/q), e the edges of f*, by power_roots
    with bases v_i e_{i+1}^(1/p) and factors (1 - (e_i / e_{i+1})^(q/p)) p/q."""
    if math.isinf(q):
        return float(np.max(fstar.values * fstar.breakpoints ** (1.0 / p)))
    with np.errstate(divide="ignore"):  # ln 0 = -inf at e_0 = 0
        factor = -np.expm1(q / p * np.log(fstar.edges[:-1] / fstar.breakpoints)) * (p / q)
    return power_roots([(fstar.values * fstar.breakpoints ** (1.0 / p), factor)], q)[0]


def _panel_norms(spec: RISpaceSpec, rows: StepRows) -> list[float]:
    """The finite-exponent Lorentz-Zygmund or Lambda_w norms of the rows, from one kernel call.

    Lorentz-Zygmund: (int (t^(1/p) (1 + ln+ 1/t)^beta f*)^r dt/t)^(1/r).
    Lambda_w: int (f*)^q w(t) dt = int (f*)^q t w(t) dt/t, to the 1/q.
    """
    if spec.family == "lorentz_zygmund":
        weight = PowerLog(1.0 / spec.p, spec.beta) ** spec.q
    else:
        weight = spec.weight * PowerLog(1.0)
    return weight.panel_norms(rows.edges[:, :-1], rows.edges[:, 1:], rows.values, spec.q)


def _norm_marcinkiewicz(phi, fstar: StepDecreasing) -> float:
    """sup over (0, mass] of (phi(t)/t) int_0^t f*; interior maxima per panel."""
    edges, prefix = fstar.edges, fstar.prefix
    best = 0.0
    pure_power = isinstance(phi, PowerLog) and phi.is_pure_power()
    for i, v in enumerate(fstar.values):
        lo, hi = edges[i], edges[i + 1]
        intercept = prefix[i] - v * lo  # int_0^t f* = intercept + v t on the panel
        fn = lambda t: float(phi(t)) / t * (intercept + v * t)
        best = max(best, fn(hi))
        if pure_power:
            gamma = phi.a
            if 0.0 < gamma < 1.0 and v > 0.0 and intercept > 0.0:
                t_star = (1.0 - gamma) * intercept / (gamma * v)
                if lo < t_star < hi:
                    best = max(best, fn(t_star))
        else:
            best = max(best, bounded_max_search(fn, max(lo, hi * 1e-12), hi))
    return float(best)


def _norm_marcinkiewicz_tilde(phi, fstar: StepDecreasing) -> float:
    return float(max(v * float(phi(t)) for v, t in zip(fstar.values, fstar.breakpoints)))


def _norm_orlicz(fn: OrliczFunction, fstar: StepDecreasing) -> float:
    widths = np.diff(fstar.edges)

    def budget(lam: float) -> float:
        return float(np.sum(fn(fstar.values / lam) * widths))

    hi = float(fstar.values[0])
    for _ in range(400):
        if budget(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise EvaluationError("Orlicz norm: bracket expansion failed (upper)")
    lo = hi
    for _ in range(400):
        if budget(lo) >= 1.0:
            break
        lo *= 0.5
    else:
        raise EvaluationError("Orlicz norm: bracket expansion failed (lower)")
    if lo == hi:
        return lo
    return brentq(lambda lam: budget(lam) - 1.0, lo, hi, rtol=1e-12, maxiter=300)


def _norm(spec: RISpaceSpec, fstar: StepDecreasing) -> float:
    """The base family's norm of one step function, for the families _panel_norms leaves."""
    fam = spec.family
    if fam == "lp":
        return _norm_lp(spec.p, fstar)
    if fam == "lorentz":
        return _norm_lorentz(spec.p, spec.q, fstar)
    if fam == "lorentz_zygmund":  # r = inf
        base = PowerLog(1.0 / spec.p, spec.beta)
        return base.panel_max(fstar.edges[:-1], fstar.edges[1:], fstar.values)
    if fam == "marcinkiewicz":
        return _norm_marcinkiewicz(spec.weight, fstar)
    if fam == "marcinkiewicz_tilde":
        return _norm_marcinkiewicz_tilde(spec.weight, fstar)
    if fam == "orlicz":
        return _norm_orlicz(spec.orlicz_fn, fstar)
    raise DomainError(f"unknown family {fam!r}")


def quasi_norms(spec: RISpaceSpec, rows: StepRows) -> list[float]:
    """The spec's quasi-norm of each rearranged step function of rows (rearrange.StepRows).

    The finite-exponent Lorentz-Zygmund and Lambda_w norms of all of them come
    from one call of the panel kernel on the padded matrices, whose panels do
    not see each other, so each value is bitwise the one quasi_norm gives
    alone; a row of zeros has no live panel, and norm 0.  The other families
    are evaluated one step function at a time, and 0 on a row of zeros.
    """
    r = spec.convexify_power
    powered = rows if r == 1.0 else rows.power(r)
    if spec.family == "lambda_w" or (spec.family == "lorentz_zygmund"
                                     and math.isfinite(spec.q)):
        vals = _panel_norms(spec, powered)
    else:
        nonzero = (rows.values[:, 0] != 0.0).tolist()
        vals = [_norm(spec, fs) if live else 0.0 for fs, live in zip(powered.steps(), nonzero)]
    return vals if r == 1.0 else [val ** (1.0 / r) for val in vals]


def quasi_norm(spec: RISpaceSpec, fstar: StepDecreasing) -> float:
    """Evaluate the spec's quasi-norm on a rearranged step function: a batch of one."""
    return quasi_norms(spec, fstar.rows())[0]


# -- fundamental functions -----------------------------------------------------------


def fundamental_powerlog(spec: RISpaceSpec) -> PowerLog:
    """Symbolic power-log form of the fundamental function.

    Exact for lp / lorentz / marcinkiewicz / lambda_w(power) / orlicz(power);
    the equivalent closed form (constants dropped) for lorentz_zygmund and
    log-weighted lambda_w.  Raises SymbolicAnalysisError for shapes with no
    supported form.
    """
    fam = spec.family
    if fam == "lp":
        base = PowerLog(0.0) if math.isinf(spec.p) else PowerLog(1.0 / spec.p)
    elif fam == "lorentz":
        const = 1.0 if math.isinf(spec.q) else (spec.p / spec.q) ** (1.0 / spec.q)
        base = PowerLog(1.0 / spec.p, const=const)
    elif fam == "lorentz_zygmund":
        base = PowerLog(1.0 / spec.p, spec.beta)
    elif fam in ("marcinkiewicz", "marcinkiewicz_tilde"):
        base = spec.weight
    elif fam == "lambda_w":
        w = spec.weight
        if w.a + 1.0 > 0.0:
            base = PowerLog((w.a + 1.0) / spec.q, w.b / spec.q, w.g / spec.q,
                            (w.const / (w.a + 1.0)) ** (1.0 / spec.q))
        elif w.a + 1.0 == 0.0 and w.b < -1.0 and w.g == 0.0:
            base = PowerLog(0.0, (w.b + 1.0) / spec.q, 0.0,
                            (w.const / (-w.b - 1.0)) ** (1.0 / spec.q))
        else:
            raise SymbolicAnalysisError("lambda_w weight has no power-log fundamental form")
    elif fam == "orlicz":
        if spec.orlicz_fn.kind == "power":
            base = PowerLog(1.0 / spec.orlicz_fn.p)
        else:
            raise SymbolicAnalysisError("Orlicz preset has no power-log fundamental form")
    else:
        raise DomainError(f"unknown family {fam!r}")
    return base ** (1.0 / spec.convexify_power)
