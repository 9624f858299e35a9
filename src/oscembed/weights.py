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
PowerLog._u_integrals evaluates all panels of a call at once, and each panel
takes the first of these paths that applies:

  1. a = 0 and g = 0, or a = 0 and b = -1: closed forms in (1+u) and, by the
     substitution v = ln(1+u), in (1 + ln(1+u)).
  2. a > 0, g = 0 and s = b + 1 > 0: with x = a(1+u) the integral is
     e^a a^-s Gamma(s) [Q(s, x_lo) - Q(s, x_hi)], Q = scipy.special.gammaincc
     the regularized upper incomplete gamma function (DLMF 8.2), or the same
     with P(s, x_hi) - P(s, x_lo) when the lower tail P is the smaller.  It is
     taken where that tail exceeds 1e-290, x_lo is a normal float and the
     difference keeps at least a quarter of the tail: P and Q carry relative
     errors up to about 1e-13, so cancellation may cost no more than 4x that.
  3. Panels of case 2 where the difference cancels: those narrow against both
     scales of the integrand, width <= (1+u_lo)/2 and width <= 2/a, take a
     16-point Gauss-Legendre rule, vectorized.
  4. Everything else, notably g != 0, a < 0 and s <= 0: one
     scipy.integrate.quad call per panel with a relative tolerance only, in u
     on finite panels and in w = ln(1+u) on improper ones, where power-law
     tails decay exponentially.

Which path a panel takes depends only on (a, b, g) and the panel's ends.

The panel kernel, PowerLog.panel_sum and PowerLog.panel_max, evaluates the
norms of a decreasing step function: sums of coef_i * int p dt/t, or maxima
of coef_i * sup p, over its panels (lo_i, hi_i).

Orlicz generator functions (for Orlicz-space norms) live here too since they
share the preset-validation style.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import exprel, gamma, gammainc, gammaincc

from .errors import DomainError, EvaluationError

# relative tolerance only: an absolute one would cut short tiny improper integrals
_QUAD_OPTS = {"limit": 200, "epsabs": 0.0, "epsrel": 1e-11}
# incomplete-gamma panels (path 2 above)
_TAIL_UNDERFLOW = 1e-290
_NORMAL_MIN = np.finfo(float).tiny  # a subnormal x = a(1+u) has lost its digits
_MAX_CANCEL = 4.0


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

    def _u_integrals(self, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
        """int_{u_lo_i}^{u_hi_i} e^{-a u} (1+u)^b (1+ln(1+u))^g du per panel.

        u_hi_i may be inf where the caller has checked that the integral converges.
        """
        a, b, g, s = self.a, self.b, self.g, self.b + 1.0
        out = np.zeros(u_lo.shape)
        live = u_hi > u_lo
        u_lo, u_hi = u_lo[live], u_hi[live]
        if a == 0.0 and g == 0.0:
            # ((1+u_hi)^s - (1+u_lo)^s) / s, written to stay exact as s -> 0
            span = np.log1p(u_hi) - np.log1p(u_lo)
            out[live] = span if s == 0.0 else (1.0 + u_lo) ** s * np.expm1(s * span) / s
            return out
        if a == 0.0 and b == -1.0:
            # substitute v = ln(1+u)
            out[live] = PowerLog(0.0, g)._u_integrals(np.log1p(u_lo), np.log1p(u_hi))
            return out
        vals = np.zeros(u_lo.shape)
        done = np.zeros(u_lo.shape, dtype=bool)
        if a > 0.0 and g == 0.0 and s > 0.0:
            done = _gamma_panels(a, s, u_lo, u_hi, vals)

        # log-stable integrands; they saturate instead of overflowing in extreme
        # parameter corners (the symbolic finiteness decision is separate)
        def in_u(u):
            expo = -a * u + b * math.log1p(u) + g * math.log(1.0 + math.log1p(u))
            return math.exp(min(expo, 700.0))

        log_a = math.log(a) if a > 0.0 else -math.inf

        def in_w(w):
            # w = ln(1+u), where the power-law tails of improper panels decay exponentially
            expo = a - math.exp(min(w + log_a, 700.0)) + s * w + g * math.log1p(w)
            return math.exp(min(expo, 700.0))

        for i in np.flatnonzero(~done).tolist():
            if math.isinf(u_hi[i]):
                # the cut-off e^(-a e^w) sets in at w = ln(1/a): one finite piece up to there
                w_lo = math.log1p(u_lo[i])
                w_cut = max(w_lo, -log_a + 1.0) if a > 0.0 else w_lo
                head = quad(in_w, w_lo, w_cut, **_QUAD_OPTS)[0] if w_cut > w_lo else 0.0
                vals[i] = head + quad(in_w, w_cut, math.inf, **_QUAD_OPTS)[0]
            else:
                vals[i] = quad(in_u, float(u_lo[i]), float(u_hi[i]), **_QUAD_OPTS)[0]
        out[live] = vals
        return out

    def _integrals_dt_over_t(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """int_{lo_i}^{hi_i} p(t) dt/t per panel, for 0 <= lo_i < hi_i."""
        if not self.integrable_at_zero_dt_over_t() and (lo == 0.0).any():
            raise EvaluationError("power-log integral diverges at 0")
        total = np.zeros(lo.shape)
        # piece on (0,1]: log factors active, in u = ln(1/t)
        low = lo < 1.0
        if low.any():
            with np.errstate(divide="ignore"):
                u_hi = -np.log(lo[low])
            total[low] = self._u_integrals(-np.log(np.minimum(hi[low], 1.0)), u_hi)
        # piece on (1, hi): plain power
        high = hi > 1.0
        if high.any():
            # (hi^a - p_lo^a) / a, written to stay exact as a -> 0
            p_lo = np.maximum(lo[high], 1.0)
            span = np.log(hi[high] / p_lo)
            total[high] += p_lo**self.a * span * exprel(self.a * span)
        return self.const * total

    def integral_dt_over_t(self, lo: float, hi: float) -> float:
        """int_lo^hi p(t) dt/t, by the paths of the module docstring.

        lo may be 0 (improper); raises EvaluationError if symbolically divergent.
        """
        if hi < lo or lo < 0.0:
            raise DomainError(f"bad integration range ({lo}, {hi})")
        if hi == lo:
            return 0.0
        return float(self._integrals_dt_over_t(np.array([lo], dtype=float),
                                               np.array([hi], dtype=float))[0])

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
        c, p_lo, p_hi = _live_panels(lo, hi, coef)
        return float(c @ self._integrals_dt_over_t(p_lo, p_hi))

    def panel_max(self, lo, hi, coef) -> float:
        """max(0, max_i coef_i * sup of p over [lo_i, hi_i]) over the panel_sum panels."""
        c, p_lo, p_hi = _live_panels(lo, hi, coef)
        best = 0.0
        for c_i, lo_i, hi_i in zip(c.tolist(), p_lo.tolist(), p_hi.tolist()):
            best = max(best, c_i * self.sup_on(lo_i, hi_i))
        return best

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "g": self.g, "const": self.const}

    @staticmethod
    def from_json(obj: dict) -> "PowerLog":
        return PowerLog(float(obj["a"]), float(obj.get("b", 0.0)),
                        float(obj.get("g", 0.0)), float(obj.get("const", 1.0)))


def _live_panels(lo, hi, coef):
    """Arrays coef, lo, hi, in panel order, of the panels where coef_i > 0 and hi_i > lo_i."""
    lo, hi, coef = (np.asarray(x, dtype=float) for x in (lo, hi, coef))
    keep = (coef > 0.0) & (hi > lo)
    return coef[keep], lo[keep], hi[keep]


def _gamma_panels(a: float, s: float, u_lo, u_hi, vals) -> np.ndarray:
    """int e^{-a u} (1+u)^(s-1) du for a, s > 0 into vals; returns the panels it filled.

    With x = a(1+u) the integral is e^a a^-s Gamma(s) times the difference of
    the regularized incomplete gamma functions at x_lo and x_hi: Q(s, x_lo) -
    Q(s, x_hi), or P(s, x_hi) - P(s, x_lo) where P(s, x_hi) is the smaller
    tail.  A panel takes it where that tail does not underflow and the
    difference keeps at least 1/_MAX_CANCEL of it.  A difference cancels on
    panels narrow against the integrand's scales 1 + u and 1/a; those with
    width <= (1 + u_lo)/2 and a * width <= 2 take a 16-point Gauss-Legendre
    rule instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(a) * np.float64(a) ** -s * gamma(s)
    x_lo, x_hi = a * (1.0 + u_lo), a * (1.0 + u_hi)
    q_lo, q_hi = gammaincc(s, x_lo), gammaincc(s, x_hi)
    p_lo, p_hi = gammainc(s, x_lo), gammainc(s, x_hi)
    upper = q_lo <= p_hi
    tail = np.where(upper, q_lo, p_hi)
    diff = np.where(upper, q_lo - q_hi, p_hi - p_lo)
    closed = ((x_lo >= _NORMAL_MIN) & (tail > _TAIL_UNDERFLOW) & (diff * _MAX_CANCEL >= tail)
              & np.isfinite(factor))
    vals[closed] = factor * diff[closed]
    width = u_hi - u_lo
    narrow = ~closed & (width * 2.0 <= 1.0 + u_lo) & (a * width <= 2.0)
    if narrow.any():
        nodes, weights = _gauss_legendre_16()
        half = width[narrow, None] / 2.0
        u = u_lo[narrow, None] + half * (1.0 + nodes)
        vals[narrow] = (np.exp(-a * u) * (1.0 + u) ** (s - 1.0) * half) @ weights
    return closed | narrow


@functools.cache
def _gauss_legendre_16():
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1] (path 3 above).

    Built on first use: the eigenvalue solve behind it loads LAPACK, which
    costs runs that never need the rule about 1 MB of memory.
    """
    return np.polynomial.legendre.leggauss(16)


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
