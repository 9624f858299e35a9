"""Exact rearrangement calculus on decreasing step functions.

For a function f on a finite weighted space, the decreasing rearrangement of
|f| is a right-continuous decreasing step function on [0, total mass): sort
|f| descending and accumulate weights.  Everything downstream (running
averages, oscillation gaps, weighted norms) is evaluated exactly from the step
representation; callers form the first two from eval and integral directly:

  * eval(t) is the step value, 0 beyond the represented mass;
  * integral(t) = int_0^t, hence the running average avg(t) = integral(t) / t,
    is exact piecewise, for a scalar or an array t;
  * on any breakpoint-free interval the gap avg - eval equals D/t for a
    per-panel constant D >= 0, which is what makes dt/t integrals of the
    oscillation exact.

Each step function builds its panel table once: edges = [0, *breakpoints]
and prefix[i] = int_0^{edges[i]}.  Its r.i. norms are sums (or maxima) over
the panels (edges[i], edges[i+1]) of a coefficient times a power-log weight
integral (or supremum), which weights.PowerLog.panel_sum / panel_max evaluate.

Powers commute with rearrangement ((|f|^a)* = (f*)^a), so the a-oscillation
is computed from the powered step function directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .space import Space


@dataclass(frozen=True)
class StepDecreasing:
    """Decreasing step function: value values[i] on [edges[i], edges[i+1]).

    edges = [0, *breakpoints] and the prefix integrals prefix[i] =
    int_0^{edges[i]} are derived at construction.
    """

    breakpoints: np.ndarray  # strictly increasing, last entry = represented mass
    values: np.ndarray       # strictly decreasing, nonnegative

    def __post_init__(self):
        bp = np.ascontiguousarray(np.asarray(self.breakpoints, dtype=float))
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if bp.size == 0 or bp.size != vals.size:
            raise DomainError("breakpoints and values must be nonempty and aligned")
        if bp[0] <= 0.0 or np.any(np.diff(bp) <= 0.0):
            raise DomainError("breakpoints must be strictly increasing and positive")
        if np.any(vals < 0.0) or np.any(np.diff(vals) >= 0.0):
            raise DomainError("values must be strictly decreasing and nonnegative")
        edges = np.concatenate([[0.0], bp])
        prefix = np.concatenate([[0.0], np.cumsum(vals * np.diff(edges))])
        for name, arr in (("breakpoints", bp), ("values", vals), ("edges", edges),
                          ("prefix", prefix)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mass(self) -> float:
        return float(self.breakpoints[-1])

    def eval(self, t):
        """Step value at t >= 0 (0 for t >= mass)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise DomainError("rearrangements live on t >= 0")
        idx = np.searchsorted(self.breakpoints, t_arr, side="right")
        padded = np.concatenate([self.values, [0.0]])
        out = padded[idx]
        return out if out.shape else float(out)

    def integral(self, t):
        """int_0^t of the step function at t >= 0, exact; saturates beyond the mass."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise DomainError("integral needs t >= 0")
        j = np.searchsorted(self.breakpoints, t_arr, side="right")
        inside = j < self.values.size
        jj = np.where(inside, j, 0)
        out = np.where(inside, self.prefix[jj] + self.values[jj] * (t_arr - self.edges[jj]),
                       self.prefix[-1])
        return out if out.shape else float(out)

    def _mapped(self, vals: np.ndarray) -> "StepDecreasing":
        """Same breakpoints with new values from an increasing map of the old ones.

        In floating point the map may send neighbouring steps to one value
        (tiny values underflow to 0 under a power); such runs merge into one step.
        """
        keep = np.concatenate([vals[:-1] != vals[1:], [True]])
        return StepDecreasing(self.breakpoints[keep], vals[keep])

    def power(self, alpha: float) -> "StepDecreasing":
        """Step function of the pointwise alpha-th power (exact for rearrangements)."""
        if not alpha > 0.0:
            raise DomainError("power exponent must be positive")
        return self._mapped(self.values**alpha)

    def scaled(self, factor: float) -> "StepDecreasing":
        if not factor > 0.0:
            raise DomainError("scale factor must be positive")
        return self._mapped(self.values * factor)

    def panels(self, upper: float):
        """(lo, hi, value, gap_const) per breakpoint-free panel of (0, upper].

        On each panel the running average minus the step value equals
        gap_const / t.  A trailing panel with value 0 covers (mass, upper]
        when upper exceeds the represented mass.
        """
        k = min(int(np.searchsorted(self.edges, upper)), self.values.size)  # lo < upper
        lo = self.edges[:k]
        hi = np.minimum(self.edges[1:k + 1], upper)
        vals = self.values[:k]
        out = list(zip(lo.tolist(), hi.tolist(), vals.tolist(),
                       (self.prefix[:k] - vals * lo).tolist()))
        if upper > self.mass:
            out.append((self.mass, upper, 0.0, float(self.prefix[-1])))
        return out


def rearrangement_from_weights(f, weights) -> StepDecreasing:
    """Decreasing rearrangement of |f| under atomic weights (ties merged)."""
    f = np.abs(np.asarray(f, dtype=float))
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-f, kind="stable")
    fv = f[order]
    fw = w[order]
    # merge equal values into single steps
    starts = np.concatenate([[0], np.flatnonzero(np.diff(fv)) + 1])
    merged_vals = fv[starts]
    merged_w = np.add.reduceat(fw, starts)
    return StepDecreasing(np.cumsum(merged_w), merged_vals)


def rearrangement(space: Space, f) -> StepDecreasing:
    """Decreasing rearrangement of |f| on the space's measure."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise DomainError(f"function has shape {f.shape}, expected ({space.n},)")
    return rearrangement_from_weights(f, space.weight)


def sum_plus_linf_norm(fstar: StepDecreasing, alpha: float) -> float:
    """(int_0^{min(1, mass)} (f*)^alpha)^(1/alpha): the L^alpha + L^inf size of f.

    This is the t = 1 value of the standard split-norm equivalence; the
    equivalence constant is absorbed into the empirical constants reported by
    the embedding checks.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    powered = fstar.power(alpha)
    return powered.integral(min(1.0, fstar.mass)) ** (1.0 / alpha)
