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
     The share kept is diff/tail = 1 - exp(-int h dx) over (x_lo, x_hi),
     with h = x^(s-1) e^-x / Gamma(s, x) <= 1 at s >= 1 (as Gamma(s, x) >=
     x^(s-1) e^-x) on the upper tail, and h = x^(s-1) e^-x / gamma(s, x) <=
     s / x for every s > 0 (as gamma(s, x) >= e^-x x^s / s) on the lower one.
     So at s >= 1 a panel with (x_hi - x_lo) max(1, s / x_lo) < 0.2 keeps at
     most 1 - e^-0.2 < 0.19 of its tail, far below a quarter even at those
     relative errors: its three incomplete gammas are not evaluated.  At
     s < 1 every panel evaluates them.
  3. Every other finite panel with g = 0 that is narrow against the scales
     of the integrand: 2 width <= 1 + u_lo, |a| width <= 2 and
     |b| width <= 2 (1 + u_lo), so that neither e^(-a u) nor (1+u)^b changes
     by more than about e^2 across it.  It takes a 16-point Gauss-Legendre
     rule, vectorized, where the rule's value is finite.  These are the
     panels of case 2 whose difference cancels, and the panels with a < 0 or
     s <= 0, such as those of the oscillation functional's weight.
  4. Everything else, notably g != 0 and wide or improper panels: one
     scipy.integrate.quad call per panel with a relative tolerance only, in u
     on finite panels and in w = ln(1+u) on improper ones, where power-law
     tails decay exponentially.  Where the integrand changes at a rate r with
     r * width > 64 from an end of a finite panel, the panel gets breakpoints
     at 2^k / r from that end; an improper tail that decays at a rate r > 64
     is integrated in z = r (w - w0).  Either way a sharp peak at an end (a or
     |b| large) spans a unit of the variable.  An integrand past e^700 raises
     FloatingPointError, which names the weight and the panel in t.

Which path a panel takes, and the value it gets, depend only on (a, b, g,
const) and the panel's ends, not on the other panels of the call: every path
works elementwise or one panel at a time, and the Gauss-Legendre rule sums
each panel's nodes on their own.  So a batch of panels gives each panel the
bits it gets alone.

The panel kernel, PowerLog.panel_norms and PowerLog.panel_max, evaluates the
norms of decreasing step functions over their panels (lo_i, hi_i): the sums
(sum_i base_i^q int p dt/t)^(1/q), or the maxima of base_i * sup p.
panel_norms takes the panels of many step functions as the rows of padded
matrices (rearrange.StepRows), integrates the live panels of all rows in one
kernel call and roots each row's sum with power_roots, which takes every
finite-exponent sum of the package: directly unless a power saturates, else
in logs.

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

from .errors import DomainError, EvaluationError, read_key, require_keys

# relative tolerance only: an absolute one would cut short tiny improper integrals
_QUAD_OPTS = {"limit": 200, "epsabs": 0.0, "epsrel": 1e-11}
# a quad panel whose integrand changes by e^64 within it from an end is split there (path 4)
_SHARP = 64.0
# incomplete-gamma panels (path 2 above)
_TAIL_UNDERFLOW = 1e-290
_NORMAL_MIN = np.finfo(float).tiny  # a subnormal x = a(1+u) has lost its digits
_MAX_CANCEL = 4.0
# at s >= 1, a panel with (x_hi - x_lo) max(1, s / x_lo) below this keeps at most
# 1 - e^-0.2 < 0.19 of its tail, short of 1/_MAX_CANCEL (path 2 above)
_GAMMA_WIDTH = 0.2
_DOT_FLOOR = 2.0**53 * _NORMAL_MIN  # the least sum that power_roots trusts from a dot product


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
        if g == 0.0:
            done |= _gauss_legendre_panels(a, s, u_lo, u_hi, ~done, vals)

        # integrands in logs; one past e^700 is refused (_exp), while the cut-off
        # e^(-a e^w) may saturate toward 0
        def in_u(u):
            return _exp(-a * u + b * math.log1p(u) + g * math.log(1.0 + math.log1p(u)))

        log_a = math.log(a) if a > 0.0 else -math.inf

        def in_w(w):
            # w = ln(1+u), where the power-law tails of improper panels decay exponentially
            return _exp(a - math.exp(min(w + log_a, 700.0)) + s * w + g * math.log1p(w))

        def in_w_sharp(w):
            # in_w, with a - a e^w as -a expm1(w) where that keeps the digits of a large a
            if w >= 1.0:
                return in_w(w)
            return _exp(-a * math.expm1(w) + s * w + g * math.log1p(w))

        def rate_u(u):
            # -d/du log in_u
            return a - b / (1.0 + u) - g / ((1.0 + u) * (1.0 + math.log1p(u)))

        def rate_w(w):
            # -d/dw log in_w
            return math.exp(min(w + log_a, 700.0)) - s - g / (1.0 + w)

        def tail(w0):
            # int_{w0}^inf in_w; a sharp decay at w0, at rate r, is integrated in
            # z = r (w - w0), where it spans a unit of the variable
            r = rate_w(w0)
            if r > _SHARP:
                return quad(lambda z: in_w_sharp(w0 + z / r), 0.0, math.inf, **_QUAD_OPTS)[0] / r
            return quad(in_w, w0, math.inf, **_QUAD_OPTS)[0]

        def sharp_ends(lo, hi):
            # breakpoints at distances 2^k / r < (hi - lo) / 2 from an end where in_u changes
            # at rate r, r (hi - lo) > _SHARP: the first one holds the end's peak.  At most
            # 60 a side keep quad's subinterval count within its limit of 200.
            pts = set()
            for end, r, side in ((lo, rate_u(lo), 1.0), (hi, -rate_u(hi), -1.0)):
                if r * (hi - lo) > _SHARP:
                    n = int(min(math.log2(r * (hi - lo)), 60.0))
                    pts.update(end + side * 2.0**k / r for k in range(n))
            return sorted(pts) or None

        for i in np.flatnonzero(~done).tolist():
            lo, hi = float(u_lo[i]), float(u_hi[i])
            try:
                if math.isinf(hi):
                    w_lo = math.log1p(lo)
                    if rate_w(w_lo) > _SHARP:
                        vals[i] = tail(w_lo)
                        continue
                    # the cut-off e^(-a e^w) sets in at w = ln(1/a): one finite piece up to there
                    w_cut = max(w_lo, -log_a + 1.0) if a > 0.0 else w_lo
                    head = quad(in_w, w_lo, w_cut, **_QUAD_OPTS)[0] if w_cut > w_lo else 0.0
                    vals[i] = head + tail(w_cut)
                else:
                    vals[i] = quad(in_u, lo, hi, points=sharp_ends(lo, hi), **_QUAD_OPTS)[0]
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"overflow: the integrand of PowerLog(a={a!r}, b={b!r}, g={g!r}) passes "
                    f"e^700 on the panel t in ({math.exp(-hi):g}, {math.exp(-lo):g})") from exc
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
            piece = p_lo**self.a * span * exprel(self.a * span)
            if np.isinf(piece).any():  # scipy's exprel saturates without numpy's overflow flag
                raise FloatingPointError("overflow encountered in the integral of t^a dt/t "
                                         "past t = 1")
            total[high] += piece
        return self.const * total

    def integral_dt_over_t(self, lo, hi):
        """int_lo^hi p(t) dt/t, by the paths of the module docstring.

        lo and hi may be arrays: one kernel call gives each element its scalar call's bits.
        lo may be 0 (improper); raises EvaluationError if symbolically divergent,
        and FloatingPointError if the part past t = 1 overflows.
        """
        lo_a, hi_a = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        if (hi_a < lo_a).any() or (lo_a < 0.0).any():
            raise DomainError(f"bad integration range ({lo}, {hi})")
        out = np.zeros(lo_a.shape)
        live = hi_a > lo_a
        out[live] = self._integrals_dt_over_t(lo_a[live], hi_a[live])
        return out if out.shape else float(out)

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

    def panel_norms(self, lo, hi, base, q: float) -> list[float]:
        """(sum_j base_ij^q int_{lo_ij}^{hi_ij} p(t) dt/t)^(1/q) for each row i of the matrices.

        Panel (i, j) is live where base_ij > 0 and hi_ij > lo_ij; padding
        panels are not.  One kernel call integrates the live panels of all
        rows, read in row-major order, and power_roots roots each row's sum
        alone: each value is bitwise its row's alone."""
        live = (base > 0.0) & (hi > lo)
        vals = self._integrals_dt_over_t(lo[live], hi[live])
        ends = np.cumsum(live.sum(axis=1))  # splitting at every row's end leaves one empty piece
        return power_roots(zip(np.split(base[live], ends)[:-1], np.split(vals, ends)[:-1]), q)

    def panel_max(self, lo, hi, coef) -> float:
        """max(0, max_i coef_i * sup of p over [lo_i, hi_i]) over the panels with coef_i > 0 and
        hi_i > lo_i."""
        lo, hi, coef = (np.asarray(x, dtype=float) for x in (lo, hi, coef))
        best = 0.0
        for i in np.flatnonzero((coef > 0.0) & (hi > lo)).tolist():
            best = max(best, float(coef[i]) * self.sup_on(float(lo[i]), float(hi[i])))
        return best

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "g": self.g, "const": self.const}

    @staticmethod
    def from_json(obj: dict) -> "PowerLog":
        require_keys(obj, ("a",), "power-log weight", DomainError)
        keys = (("a", None), ("b", 0.0), ("g", 0.0), ("const", 1.0))
        return PowerLog(*(read_key(obj, key, float, "power-log weight", DomainError, default)
                          for key, default in keys))


def _exp(expo: float) -> float:
    """e^expo for a quad integrand, refused past e^700: quad would integrate a wrong value."""
    if expo > 700.0:
        raise FloatingPointError("a power-log integrand passes e^700")
    return math.exp(expo)


def power_roots(pairs, q: float) -> list[float]:
    """(sum_i base_i^q factor_i)^(1/q) for each (base, factor) array pair of pairs, 0 < q < inf.

    Each pair, of nonnegative arrays, is taken alone, so its value is bitwise
    the one it gets alone.  The direct sum (base^q) @ factor is kept unless a
    power or product saturates, the sum is not finite, or it lies below 2^53
    normal minima, where a product may have underflowed unflagged in the dot.
    Else, with l_i = ln base_i + ln(factor_i) / q and M = max l_i, the value
    is exp(M + ln(sum exp(q (l_i - M))) / q).  A pair with no term (none with
    base_i > 0 and factor_i > 0, an empty pair too) is 0.0 without the logs.
    A base that is not finite, or a positive base whose factor is not finite,
    raises FloatingPointError.
    """
    out = []
    with np.errstate(over="raise", under="raise", invalid="raise"):
        for base, factor in pairs:
            try:
                total = float(base**q @ factor)
            except FloatingPointError:
                total = math.nan
            if total == 0.0 and not ((base > 0.0) & (factor > 0.0)).any():
                out.append(0.0)  # no term: nothing underflowed, the sum is 0
            else:
                out.append(total ** (1.0 / q) if _DOT_FLOOR <= total < math.inf
                           else _power_root_in_logs(base, factor, q))
    return out


def _power_root_in_logs(base: np.ndarray, factor: np.ndarray, q: float) -> float:
    """power_roots' value of one pair from the logs of its terms (log-sum-exp)."""
    pos = base > 0.0
    if not (np.isfinite(base).all() and np.isfinite(factor[pos]).all()):
        raise FloatingPointError(f"a q-th power sum at q = {q!r} has a term that is not finite")
    pos &= factor > 0.0  # the terms that add something
    with np.errstate(divide="ignore", under="ignore"):  # no term: ln 0 = -inf, e^-inf = 0
        logs = np.log(base[pos]) + np.log(factor[pos]) / q
        top = logs.max(initial=-math.inf)
        return float(np.exp(top + np.log(np.exp(q * (logs - top)).sum()) / q))


def _gamma_panels(a: float, s: float, u_lo, u_hi, vals) -> np.ndarray:
    """int e^{-a u} (1+u)^(s-1) du for a, s > 0 into vals; returns the panels it filled.

    With x = a(1+u) the integral is e^a a^-s Gamma(s) times the difference of
    the regularized incomplete gamma functions at x_lo and x_hi: Q(s, x_lo) -
    Q(s, x_hi), or P(s, x_hi) - P(s, x_lo) where P(s, x_hi) is the smaller
    tail.  A panel takes it where that tail does not underflow and the
    difference keeps at least 1/_MAX_CANCEL of it.  A difference cancels on
    panels narrow against the integrand's scales 1 + u and 1/a; those are left
    to _gauss_legendre_panels.  At s >= 1 the panels with
    (x_hi - x_lo) max(1, s / x_lo) < _GAMMA_WIDTH keep less than that share
    (path 2 above), and their three incomplete gammas are not evaluated.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(a) * np.float64(a) ** -s * gamma(s)
    x_lo, x_hi = a * (1.0 + u_lo), a * (1.0 + u_hi)
    idx = np.arange(x_lo.size)
    if s >= 1.0:
        with np.errstate(over="ignore", invalid="ignore"):  # s / x_lo past the float range
            idx = np.flatnonzero((x_hi - x_lo) * np.maximum(1.0, s / x_lo) >= _GAMMA_WIDTH)
    x_lo, x_hi = x_lo[idx], x_hi[idx]
    q_lo, p_hi = gammaincc(s, x_lo), gammainc(s, x_hi)
    upper = q_lo <= p_hi
    tail = np.where(upper, q_lo, p_hi)
    diff = np.empty_like(tail)  # Q(s, x_hi) only where upper holds, P(s, x_lo) only elsewhere
    diff[upper] = q_lo[upper] - gammaincc(s, x_hi[upper])
    diff[~upper] = p_hi[~upper] - gammainc(s, x_lo[~upper])
    kept = ((x_lo >= _NORMAL_MIN) & (tail > _TAIL_UNDERFLOW) & (diff * _MAX_CANCEL >= tail)
            & np.isfinite(factor))
    vals[idx[kept]] = factor * diff[kept]
    closed = np.zeros(u_lo.shape, dtype=bool)
    closed[idx[kept]] = True
    return closed


def _gauss_legendre_panels(a: float, s: float, u_lo, u_hi, todo, vals) -> np.ndarray:
    """int e^{-a u} (1+u)^(s-1) du into vals for the narrow panels of todo; returns them.

    A panel is narrow when 2 width <= 1 + u_lo, |a| width <= 2 and
    |b| width <= 2 (1 + u_lo), with b = s - 1 as the integrand has it (path 3
    above).  It takes the 16-point Gauss-Legendre rule where the rule's value
    is finite.
    """
    width = u_hi - u_lo
    narrow = todo & (width * 2.0 <= 1.0 + u_lo)  # improper panels, of width inf, are not
    narrow[narrow] = ((abs(a) * width[narrow] <= 2.0)
                      & (abs(s - 1.0) * width[narrow] <= 2.0 * (1.0 + u_lo[narrow])))
    idx = np.flatnonzero(narrow)
    if idx.size:
        nodes, weights = _gauss_legendre_16()
        half = width[idx, None] / 2.0
        # e^(-a u) (1+u)^(s-1) half w at the nodes u, in place: two (panels x 16) arrays
        u = half * (1.0 + nodes)
        u += u_lo[idx, None]
        with np.errstate(over="ignore", invalid="ignore"):  # e^(-a u) past the float range
            rule = np.exp(np.multiply(u, -a))
            u += 1.0
            u **= s - 1.0
            rule *= u
        rule *= half
        rule *= weights
        # a row sum, not a matrix product: BLAS may order a product's sums by the
        # number of rows, and a panel's value must not depend on the other panels
        rule = rule.sum(axis=1)
        finite = np.isfinite(rule)
        vals[idx[finite]] = rule[finite]
        narrow[idx[~finite]] = False
    return narrow


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

    Presets: kind="power" gives x^p (and takes no b); kind="power_log" gives
    x^p * ln(e + x)^b.
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
        if self.kind == "power" and self.b != 0.0:
            raise DomainError("the Orlicz preset power takes no log exponent b")
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

    @staticmethod
    def from_json(obj: dict) -> "OrliczFunction":
        require_keys(obj, ("kind", "p"), "Orlicz function", DomainError)
        what = "Orlicz function"
        return OrliczFunction(obj["kind"], read_key(obj, "p", float, what, DomainError),
                              read_key(obj, "b", float, what, DomainError, 0.0))


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
