"""Power-log weight functions on (0, infinity).

Everything in the norm and embedding machinery that needs a symbolic weight
(fundamental functions, oscillation weights, rearranged-target weights) is of
the form

    p(t) = const * t^a * (1 + ln+ (1/t))^b * (1 + ln(1 + ln+ (1/t)))^g

where ln+ x = max(0, ln x), so the log factors equal 1 for t >= 1.  This
module provides exact-or-quadrature evaluation of the integrals

    int p(t) dt/t   and   int p(t) dt

over subintervals of (0, infinity), symbolic decisions about integrability and
boundedness near t = 0, and suprema over intervals (endpoints plus interior
critical points).  On [1, infinity) the log factors equal 1 and the integral
is a closed-form power.  Integrals on (0, 1] are computed in the variable
u = ln(1/t), where the integrand becomes exp(-a*u) (1+u)^b (1+ln(1+u))^g.
Only a = 0 has closed forms there: (1+u)^b, and (1+u)^-1 (1+ln(1+u))^g by
the substitution v = 1 + ln(1+u).  Every a != 0, pure powers t^a included,
goes to scipy.integrate.quad over the (possibly infinite) range.

The panel kernel, PowerLog.panel_sum and PowerLog.panel_max, evaluates the
norms of a decreasing step function: sums of coef_i * int p dt/t, or maxima
of coef_i * sup p, over its panels (lo_i, hi_i).

Orlicz generator functions (for Orlicz-space norms) live here too since they
share the preset-validation style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from .errors import DomainError, EvaluationError

_QUAD_OPTS = {"limit": 200, "epsabs": 1e-13, "epsrel": 1e-11}


def _lfac(t):
    """1 + ln+(1/t), vectorized."""
    t = np.asarray(t, dtype=float)
    return 1.0 + np.log(np.maximum(1.0 / np.maximum(t, 1e-320), 1.0))


@dataclass(frozen=True)
class PowerLog:
    """const * t^a * (1+ln+(1/t))^b * (1+ln(1+ln+(1/t)))^g."""

    a: float
    b: float = 0.0
    g: float = 0.0
    const: float = 1.0

    def __post_init__(self):
        if not (self.const > 0.0) or not math.isfinite(self.const):
            raise DomainError(f"PowerLog constant must be positive finite, got {self.const}")

    # -- pointwise -----------------------------------------------------------

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0):
            raise DomainError("PowerLog is defined on t > 0")
        out = self.const * t_arr**self.a
        if self.b != 0.0 or self.g != 0.0:
            ell = _lfac(t_arr)
            if self.b != 0.0:
                out = out * ell**self.b
            if self.g != 0.0:
                out = out * (1.0 + np.log(ell)) ** self.g
        return out if out.shape else float(out)

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "PowerLog") -> "PowerLog":
        return PowerLog(self.a + other.a, self.b + other.b, self.g + other.g,
                        self.const * other.const)

    def __pow__(self, k: float) -> "PowerLog":
        return PowerLog(self.a * k, self.b * k, self.g * k, self.const**k)

    def reciprocal(self) -> "PowerLog":
        return self**-1.0

    def scaled(self, factor: float) -> "PowerLog":
        return replace(self, const=self.const * factor)

    def is_pure_power(self) -> bool:
        return self.b == 0.0 and self.g == 0.0

    # -- symbolic behaviour near t = 0 ----------------------------------------

    def integrable_at_zero_dt_over_t(self) -> bool:
        """Whether int_0 p(t) dt/t converges at the lower endpoint."""
        if self.a > 0.0:
            return True
        if self.a < 0.0:
            return False
        if self.b < -1.0:
            return True
        if self.b > -1.0:
            return False
        return self.g < -1.0

    def bounded_at_zero(self) -> bool:
        # t^a -> 0 for a > 0; the log factors blow up iff their exponent is positive
        if self.a > 0.0:
            return True
        if self.a < 0.0:
            return False
        if self.b < 0.0:
            return True
        if self.b > 0.0:
            return False
        return self.g <= 0.0

    def limit_at_zero(self) -> float:
        if not self.bounded_at_zero():
            return math.inf
        if self.a > 0.0 or self.b < 0.0 or self.g < 0.0:
            return 0.0
        return self.const

    # -- integrals -------------------------------------------------------------

    def _u_integral(self, u_lo: float, u_hi: float) -> float:
        """int_{u_lo}^{u_hi} e^{-a u} (1+u)^b (1+ln(1+u))^g du (u_hi may be inf)."""
        a, b, g = self.a, self.b, self.g
        if u_hi <= u_lo:
            return 0.0
        if math.isinf(u_hi):
            # caller must have verified convergence
            if a < 0.0 or (a == 0.0 and not self.integrable_at_zero_dt_over_t()):
                raise EvaluationError("divergent power-log integral")
        if a == 0.0 and g == 0.0:
            if b == -1.0:
                if math.isinf(u_hi):
                    raise EvaluationError("divergent power-log integral")
                return math.log1p(u_hi) - math.log1p(u_lo)
            hi = 0.0 if (math.isinf(u_hi) and b < -1.0) else (1.0 + u_hi) ** (b + 1.0)
            return (hi - (1.0 + u_lo) ** (b + 1.0)) / (b + 1.0)
        if a == 0.0 and b == -1.0:
            # substitute v = 1 + ln(1+u)
            v_lo = 1.0 + math.log1p(u_lo)
            v_hi = math.inf if math.isinf(u_hi) else 1.0 + math.log1p(u_hi)
            return PowerLog(0.0, g)._u_integral(v_lo - 1.0, math.inf if math.isinf(v_hi) else v_hi - 1.0)
        def fn(u):
            # log-stable product; saturates instead of overflowing in extreme
            # parameter corners (the symbolic finiteness decision is separate)
            expo = -a * u + b * math.log1p(u) + g * math.log(1.0 + math.log1p(u))
            return math.exp(min(expo, 700.0))

        val, _ = quad(fn, u_lo, u_hi, **_QUAD_OPTS)
        return val

    def integral_dt_over_t(self, lo: float, hi: float) -> float:
        """int_lo^hi p(t) dt/t, exact where closed forms exist, quad otherwise.

        lo may be 0 (improper); raises EvaluationError if symbolically divergent.
        """
        if hi < lo or lo < 0.0:
            raise DomainError(f"bad integration range ({lo}, {hi})")
        if hi == lo:
            return 0.0
        if lo == 0.0 and not self.integrable_at_zero_dt_over_t():
            raise EvaluationError("power-log integral diverges at 0")
        total = 0.0
        # piece on (0,1]: log factors active
        p_lo, p_hi = lo, min(hi, 1.0)
        if p_hi > p_lo:
            u_hi = math.inf if p_lo == 0.0 else math.log(1.0 / p_lo)
            u_lo = math.log(1.0 / p_hi)
            total += self.const * self._u_integral(u_lo, u_hi)
        # piece on (1, hi): plain power
        if hi > 1.0:
            p_lo = max(lo, 1.0)
            if self.a == 0.0:
                total += self.const * math.log(hi / p_lo)
            else:
                total += self.const * (hi**self.a - p_lo**self.a) / self.a
        return total

    def integral_dt(self, lo: float, hi: float) -> float:
        """int_lo^hi p(t) dt  (= integral of t*p(t) dt/t)."""
        shifted = PowerLog(self.a + 1.0, self.b, self.g, self.const)
        return shifted.integral_dt_over_t(lo, hi)

    # -- suprema ---------------------------------------------------------------

    def _critical_points(self, lo: float, hi: float) -> list[float]:
        """Interior stationary points of p on (lo, hi) intersect (0, 1)."""
        a, b, g = self.a, self.b, self.g
        lo_u = math.log(1.0 / min(hi, 1.0))
        hi_u = math.log(1.0 / max(lo, 1e-300)) if lo > 0 else 700.0
        if hi_u <= lo_u:
            return []
        # d/du log p = -a + b/(1+u) + g/((1+u)(1+log(1+u)))
        if g == 0.0:
            if a == 0.0 or b == 0.0:
                return []
            u = b / a - 1.0
            return [math.exp(-u)] if lo_u < u < hi_u else []
        dlog = lambda u: -a + b / (1.0 + u) + g / ((1.0 + u) * (1.0 + math.log1p(u)))
        us = np.linspace(lo_u, min(hi_u, 700.0), 65)
        vals = [dlog(u) for u in us]
        roots = []
        for i in range(len(us) - 1):
            if vals[i] == 0.0:
                roots.append(us[i])
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(brentq(dlog, us[i], us[i + 1]))
        return [math.exp(-u) for u in roots]

    def sup_on(self, lo: float, hi: float) -> float:
        """sup of p over [lo, hi] (lo may be 0, then the t->0 limit counts)."""
        if hi < lo or lo < 0.0:
            raise DomainError(f"bad interval ({lo}, {hi})")
        cands = []
        if lo == 0.0:
            limit = self.limit_at_zero()
            if math.isinf(limit):
                return math.inf
            cands.append(limit)
            lo_eval = min(hi, 1e-300)
        else:
            lo_eval = lo
            cands.append(float(self(lo)))
        if hi > lo_eval:
            cands.append(float(self(hi)))
        cands.extend(float(self(t)) for t in self._critical_points(max(lo, 1e-300), hi))
        if hi > 1.0 > max(lo, 0.0):
            cands.append(float(self(1.0)))
        return max(cands)

    # -- panel kernel ------------------------------------------------------------

    def panel_sum(self, lo, hi, coef) -> float:
        """sum_i coef_i * int_{lo_i}^{hi_i} p(t) dt/t over panels with coef_i > 0, hi_i > lo_i."""
        total = 0.0
        for c, p_lo, p_hi in _live_panels(lo, hi, coef):
            total += c * self.integral_dt_over_t(p_lo, p_hi)
        return total

    def panel_max(self, lo, hi, coef) -> float:
        """max(0, max_i coef_i * sup of p over [lo_i, hi_i]) over the panel_sum panels."""
        best = 0.0
        for c, p_lo, p_hi in _live_panels(lo, hi, coef):
            best = max(best, c * self.sup_on(p_lo, p_hi))
        return best

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "g": self.g, "const": self.const}

    @staticmethod
    def from_json(obj: dict) -> "PowerLog":
        return PowerLog(float(obj["a"]), float(obj.get("b", 0.0)),
                        float(obj.get("g", 0.0)), float(obj.get("const", 1.0)))


def _live_panels(lo, hi, coef):
    """(coef_i, lo_i, hi_i) as floats, in panel order, where coef_i > 0 and hi_i > lo_i."""
    lo, hi, coef = (np.asarray(x, dtype=float) for x in (lo, hi, coef))
    keep = (coef > 0.0) & (hi > lo)
    return zip(coef[keep].tolist(), lo[keep].tolist(), hi[keep].tolist())


@dataclass(frozen=True)
class OrliczFunction:
    """Orlicz generator: strictly increasing, vanishing at 0, doubling growth.

    Presets: kind="power" gives x^p; kind="power_log" gives x^p * ln(e + x)^b.
    Validated on a log grid at construction: strict increase and a finite
    doubling ratio sup Phi(2x)/Phi(x).
    """

    kind: str
    p: float
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("power", "power_log"):
            raise DomainError(f"unknown Orlicz preset {self.kind!r}")
        if not self.p > 0.0:
            raise DomainError("Orlicz exponent p must be positive")
        xs = np.logspace(-8, 8, 200)
        vals = self(xs)
        if not np.all(np.diff(vals) > 0.0):
            raise DomainError("Orlicz preset is not strictly increasing on the test grid")
        ratio = self(2.0 * xs) / vals
        if not np.all(np.isfinite(ratio)):
            raise DomainError("Orlicz preset fails the doubling-growth check")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            out = x**self.p
        else:
            out = x**self.p * np.log(np.e + x) ** self.b
        return out if out.shape else float(out)

    def inverse(self, y: float) -> float:
        """Phi^{-1}(y) by bracketing + brentq."""
        if y <= 0.0:
            raise DomainError("Orlicz inverse needs y > 0")
        if self.kind == "power" and self.b == 0.0:
            return y ** (1.0 / self.p)
        lo, hi = 1e-12, 1.0
        for _ in range(200):
            if self(hi) >= y:
                break
            hi *= 2.0
        else:
            raise EvaluationError("Orlicz inverse bracket expansion failed")
        for _ in range(200):
            if self(lo) <= y:
                break
            lo *= 0.5
        else:
            raise EvaluationError("Orlicz inverse bracket expansion failed")
        return brentq(lambda x: self(x) - y, lo, hi, xtol=1e-300, rtol=1e-13)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "b": self.b}

    @staticmethod
    def from_json(obj: dict) -> "OrliczFunction":
        return OrliczFunction(obj["kind"], float(obj["p"]), float(obj.get("b", 0.0)))


def bounded_max_search(fn, lo: float, hi: float) -> float:
    """Max of a continuous fn over [lo, hi]: 48-point log-grid scan + local refinement."""
    if hi <= lo:
        return fn(lo)
    ts = np.geomspace(max(lo, 1e-300), hi, 48) if lo > 0 else np.linspace(lo, hi, 48)
    vals = np.array([fn(t) for t in ts])
    k = int(np.argmax(vals))
    best = float(vals[k])
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, ts.size - 1)]
    if b > a:
        res = minimize_scalar(lambda t: -fn(t), bounds=(a, b), method="bounded",
                              options={"xatol": 1e-12 * max(1.0, b)})
        best = max(best, float(-res.fun))
    return best
