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
integral (or supremum), which weights.PowerLog.panel_norms / panel_max evaluate.

rearrangement_rows rearranges every row of a matrix in one batch: one stable
argsort, one add.reduceat for the tie groups of all rows, and the breakpoints,
edges and prefix integrals as cumulative sums along rows padded past their
last step.  The argsort and the tie groups depend on the values alone, so a
Ranking keeps them and rearranges the same rows under another measure with
only the add.reduceat and the cumulative sums.  Input is checked where it
enters, by Ranking: f finite, and every run of tied values and every row of
positive, finite mass.
What it builds from such input is a valid step function by construction (|f|
sorted, ties merged, steps of width 0 dropped) and is not checked again.
Each row's step function is bitwise the one it gets alone; a single function
is a batch of one.

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
            raise DomainError(_EMPTY)
        if not (bp[0] > 0.0 and np.all(np.diff(bp) > 0.0)):  # NaN fails too
            raise DomainError(_BAD_BREAKPOINTS)
        if not (vals[-1] >= 0.0 and np.all(np.diff(vals) < 0.0)):
            raise DomainError(_BAD_VALUES)
        self._set(bp, vals, *_tabulated(bp, vals))

    @classmethod
    def _rows(cls, breakpoints, values, counts) -> list["StepDecreasing"]:
        """The step function of each padded row, unchecked: its first counts[i] columns."""
        edges, prefix = _tabulated(breakpoints, values)
        steps = []
        for k, bp, vals, e, pre in zip(counts.tolist(), breakpoints, values, edges, prefix):
            step = object.__new__(cls)
            step._set(bp[:k], vals[:k], e[:k + 1], pre[:k + 1])
            steps.append(step)
        return steps

    def _set(self, bp, vals, edges, prefix) -> None:
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

    def power(self, alpha: float) -> "StepDecreasing":
        """Step function of the pointwise alpha-th power (exact for rearrangements).

        In floating point neighbouring steps may reach one value (tiny values
        underflow to 0); such runs merge into one step.
        """
        if not alpha > 0.0:
            raise DomainError("power exponent must be positive")
        vals = self.values**alpha
        keep = np.concatenate([vals[:-1] != vals[1:], [True]])
        bp, vals = self.breakpoints[keep], vals[keep]
        return StepDecreasing._rows(bp[None], vals[None], np.array([bp.size]))[0]

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


_EMPTY = "breakpoints and values must be nonempty and aligned"
_BAD_BREAKPOINTS = "breakpoints must be strictly increasing and positive"
_BAD_VALUES = "values must be strictly decreasing and nonnegative"


def _tabulated(breakpoints, values):
    """edges = [0, *breakpoints] and prefix[i] = int_0^{edges[i]}, along the last axis.

    A row padded past its last step keeps the edges and prefix of its steps
    in front, since prefix is a cumulative sum along the row.
    """
    zero = np.zeros(breakpoints.shape[:-1] + (1,))
    edges = np.concatenate([zero, breakpoints], axis=-1)
    prefix = np.concatenate([zero, np.cumsum(values * np.diff(edges, axis=-1), axis=-1)], axis=-1)
    return edges, prefix


class Ranking:
    """The half of rearrangement_rows that the weights leave alone: each row's order and ties.

    One stable argsort of |f| by decreasing value, and the runs of equal
    values that merge into single steps, depend on the values only.
    steps(weights) does the rest under one set of atomic weights: one
    add.reduceat of the weights in that order over all rows' runs, and the
    breakpoints as cumulative sums along rows padded with zero weights.  So a
    family of measures, such as the multiples of one, ranks each matrix once.
    Where weights span more than 2^53, a light run's mass can vanish in a
    cumulative sum; its step then has width 0, and steps drops it from that row.
    The input rule: f finite, with at least one column, and weights that give
    every run a positive mass and every row a finite one (steps refuses NaN
    too).  The step functions built from input that keeps it are valid by
    construction, and unchecked.
    """

    def __init__(self, f):
        f = np.abs(np.asarray(f, dtype=float))
        if not np.isfinite(f).all():
            raise DomainError("a function to rearrange must be finite, and f takes the value "
                              f"{f[~np.isfinite(f)][0]}")
        self.order = np.argsort(-f, axis=1, kind="stable")
        fv = np.take_along_axis(f, self.order, axis=1)
        new = np.ones(f.shape, dtype=bool)  # where a run of equal values starts
        new[:, 1:] = np.diff(fv, axis=1) != 0.0
        self.counts = new.sum(axis=1)
        if not self.counts.all():
            raise DomainError(_EMPTY)
        rows, cols = np.nonzero(new)
        self.slots = rows, (np.cumsum(new, axis=1) - 1)[rows, cols]  # each run's step in its row
        self.starts = np.flatnonzero(new)
        self.values = np.zeros((f.shape[0], self.counts.max(initial=0)))
        self.values[self.slots] = fv[new]
        self.values.setflags(write=False)

    def steps(self, weights) -> list[StepDecreasing]:
        """The decreasing rearrangement of every row under the weights, each bitwise its own."""
        fw = np.asarray(weights, dtype=float)[self.order]
        with np.errstate(over="ignore"):  # a mass that is not finite is refused below
            runs = np.add.reduceat(fw.ravel(), self.starts)
            masses = np.zeros(self.values.shape)
            masses[self.slots] = runs
            breakpoints = np.cumsum(masses, axis=1)
        if not np.all(runs > 0.0):  # NaN fails too
            raise DomainError(_BAD_BREAKPOINTS)
        if not np.isfinite(breakpoints[:, -1]).all():  # an infinite run's row total is inf too
            raise DomainError("a row's mass is not finite: " + (
                "a run of tied values has mass inf" if np.isinf(runs).any() else "it overflows"))
        lost = (np.diff(breakpoints, axis=1) == 0.0) & (masses[:, 1:] > 0.0)  # padding has mass 0
        if not lost.any():
            return StepDecreasing._rows(breakpoints, self.values, self.counts)
        values, counts = self.values.copy(), self.counts.copy()
        for i in np.flatnonzero(lost.any(axis=1)).tolist():
            kept = np.flatnonzero(~lost[i, :counts[i] - 1]) + 1  # the steps after the first
            k = counts[i] = kept.size + 1
            breakpoints[i, 1:k], values[i, 1:k] = breakpoints[i, kept], values[i, kept]
        return StepDecreasing._rows(breakpoints, values, counts)


def rearrangement_rows(f, weights) -> list[StepDecreasing]:
    """Decreasing rearrangement of |f[i]| for every row f[i] of f, under one set of atomic weights.

    All rows at once, by one Ranking of f (ties merge into single steps),
    which refuses a non-finite f and a run of mass that is not positive.
    Each row's step function is bitwise the one the row gets alone.
    """
    return Ranking(f).steps(weights)


def rearrangement_from_weights(f, weights) -> StepDecreasing:
    """Decreasing rearrangement of |f| under atomic weights (ties merged): a batch of one."""
    return rearrangement_rows(np.asarray(f, dtype=float)[None], weights)[0]


def _on(space: Space, f) -> np.ndarray:
    """f as a float array, refused unless it has one value per point of the space."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise DomainError(f"function has shape {f.shape}, expected ({space.n},)")
    return f


def rearrangement(space: Space, f) -> StepDecreasing:
    """Decreasing rearrangement of |f| on the space's measure."""
    return rearrangement_from_weights(_on(space, f), space.weight)


def ranking(space: Space, f) -> Ranking:
    """The Ranking of f, a function on the space, to rearrange it under any weights there."""
    return Ranking(_on(space, f)[None])


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
