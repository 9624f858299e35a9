"""Ball-average smoothness, gradient seminorms, and two-sided K-bounds.

The local roughness of f at scale r is the ball average

    grad_[r,a] f(x) = ( mean_{y in B(x,r)} |f(x) - f(y)|^a )^(1/a),

and the modulus at scale r is the chosen quasi-norm of its rearrangement.
Every modulus, in a profile or in a K-bound, comes from one object,
_Moduli, that takes all radii of one function as a batch, in two steps.  The
first does not depend on the scale of the measure: it forms |f(x) - f(y)|^a
once, takes the ball averages at every radius, in increasing order, from the
space's one ball index (one cumulative sum along its sorted rows, read at
each radius's ball sizes), and ranks the distinct rows of that (radii x
points) matrix.  The second, at(weight, spec), rearranges those rows in one
pass under the weights and evaluates all their quasi-norms together, the
Lorentz-Zygmund and Lambda_w ones in one call of the panel kernel.  A profile
keeps its _Moduli (ProfileAverages), so the collapse sweep redoes only the
second step per weight scale; a K-bound takes one _Moduli of the radii of all
its t.  The batch gives every radius the bits it gets alone.  On a finite
space the modulus is piecewise constant in r (balls only change at pairwise
distances), is identically 0 for r <= the smallest positive distance (balls
are singletons), and is constant once r exceeds the diameter (every ball is
the whole space).  The scale integral defining the Besov seminorm is
therefore evaluated on a geometric radius grid with an exact closed-form
tail; the grid ratio is the only quadrature knob.  For the same reason the
rows of averages at consecutive radii are often bitwise equal: only the
distinct rows are ranked and normed, and each gives its modulus to every
radius of that row.

Gradient seminorms come from the pairwise relaxation

    |f(x) - f(y)| <= d(x, y) (g(x) + g(y)),   g >= 0,

whose feasible fields form a polytope.  The weighted-L1 infimum over that
polytope, and the split-infimum K(f, t) against the L1 error term, are linear
programs, both built by _PairLP alone on one layout: a block of n columns for
g, and for K blocks for h and the slack of |f - h|; then costs, rows per point
and rows per pair from its three emitters.  Few pair rows are ever
binding, so the LPs are solved by row generation on one persistent HiGHS model
per (space, f): run with an active set of pairs, check every pair, add the
violated ones as new rows, and re-run from the last basis.  K(f, t) along a
t-grid stays on the same model; a new t only changes the costs.  Every optimum
is certified by a two-sided enclosure: U is the objective at the solution
repaired to exact feasibility for every pair, L a safe dual bound over a box
known to hold an optimum, and U - L must be at most 1e-9 relative.  K never
exceeds its plateau, the value at a constant h, and a t whose dual bound from
the last certified solve already reaches the plateau is answered there with no
run.  Failed or uncertified solves dump the instance to a text file for
inspection.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, vstack

try:  # HiGHS's own bindings, which scipy ships privately
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs, kHighsInf
except ImportError as exc:
    raise ImportError("oscembed needs scipy >= 1.17.1, whose scipy.optimize._highspy._core "
                      "provides the HiGHS models its LPs run on") from exc

from .errors import DomainError, SolverError
from .rearrange import Ranking
from .rispace import RISpaceSpec, convexify, lp, quasi_norms
from .space import Space
from .weights import power_roots

DEFAULT_GRID_RATIO = 2.0 ** 0.25
_LP_TOL = 1e-9  # HiGHS's feasibility tolerances, the violation rule, the enclosure's width
_LP_RETRY_TOL = 1e-10  # the tolerances of the one re-run of a solve left uncertified
_FEAS_TOL = 1e-7
_SEED_PAIRS = 3  # per point: its steepest pairs and its nearest neighbours seed the active set


# -- ball averages ------------------------------------------------------------------


def _ball_averages(space: Space, values: np.ndarray, radii, alpha: float) -> np.ndarray:
    """(R x n) ball means of values[x, y] over y in B(x, r), to the power 1/alpha."""
    return space.balls.means(values, radii) ** (1.0 / alpha)


def _check_ball_args(r: float, alpha: float) -> None:
    if not r > 0.0:
        raise DomainError("radius must be positive")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")


def _averages(space: Space, f, radii, alpha: float) -> np.ndarray:
    """(R x n) ball averages grad_[r, a] f, one row per r of radii, in one pass."""
    _check_ball_args(min(radii), alpha)
    f = np.asarray(f, dtype=float)
    return _ball_averages(space, np.abs(f[:, None] - f[None, :]) ** alpha, radii, alpha)


class _Moduli:
    """The moduli of one f at given radii, under any weights: averages and ranks taken once.

    The ball averages at every radius, taken in increasing order, come from
    one cumulative sum along the space's sorted rows, as the rows of an
    (R x n) matrix.  A row that equals the row before it, bitwise, is not
    kept again: rows at consecutive radii whose balls hold the same points
    are equal, and so are all rows past the diameter.  Comparing each row
    with the one before it is O(R n).  The distinct rows are ranked once, and
    at(weight, spec) rearranges them under weight and takes all their
    quasi-norms in one quasi_norms call (one panel-kernel call for the
    panel-kernel families).  Each modulus is bitwise the one its radius gets
    alone, and comes back in the order of radii.
    """

    def __init__(self, space: Space, f, radii, alpha: float):
        self.alpha = alpha
        order = np.argsort(radii, kind="stable")
        averages = _averages(space, f, np.asarray(radii, dtype=float)[order], alpha)
        new = np.ones(averages.shape[0], dtype=bool)
        new[1:] = (averages[1:] != averages[:-1]).any(axis=1)
        self.index = np.empty(order.size, dtype=int)
        self.index[order] = np.cumsum(new) - 1  # the distinct row of each radius
        self.ranking = Ranking(averages[new])

    def at(self, weight: np.ndarray, spec: RISpaceSpec) -> list[float]:
        """The modulus at each radius under weight: the spec's quasi-norm of its rearranged row."""
        moduli = quasi_norms(convexify(spec, self.alpha), self.ranking.steps(weight))
        return np.asarray(moduli)[self.index].tolist()


def _moduli(space: Space, f, radii, spec: RISpaceSpec, alpha: float) -> list:
    """The modulus at each radius, all radii in one batch (see _Moduli)."""
    return _Moduli(space, f, radii, alpha).at(space.weight, spec)


# -- modulus profiles and the scale integral -------------------------------------------


@dataclass(frozen=True)
class ModulusProfile:
    """Modulus sampled on a geometric radius grid, plus its large-r constant."""

    radii: np.ndarray
    values: np.ndarray
    tail_value: float

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.radii, dtype=float))
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if r.size != v.size or r.size == 0:
            raise DomainError("radii and values must be nonempty and aligned")
        if np.any(np.diff(r) <= 0.0) or r[0] <= 0.0:
            raise DomainError("radii must be strictly increasing and positive")
        if np.any(v < 0.0) or self.tail_value < 0.0:
            raise DomainError("modulus values must be nonnegative")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def to_json(self) -> dict:
        return {"radii": self.radii.tolist(), "values": self.values.tolist(),
                "tail_value": self.tail_value}


def radius_grid(space: Space, ratio: float = DEFAULT_GRID_RATIO) -> np.ndarray:
    """Geometric grid from the smallest positive distance to past 2 * diameter."""
    if not ratio > 1.0:
        raise DomainError("grid ratio must exceed 1")
    r0, top = space.r_min, 2.0 * space.diameter
    if not math.isfinite(r0) or top <= 0.0:
        return np.array([1.0])
    n_steps = max(1, math.ceil(math.log(top / r0) / math.log(ratio)))
    return r0 * ratio ** np.arange(n_steps + 1)


class ProfileAverages:
    """The _Moduli of one f on modulus_profile's radius grid and past the diameter.

    A ball average is the same under every multiple of the measure, which
    scales each ball's sum and its mass alike; so is the order of each row.
    So the _Moduli of f on the grid is made once per function, and
    profile(weight) does only what depends on the weights: it rearranges each
    distinct row in its stored order under the weights and takes the
    quasi-norms.
    """

    def __init__(self, space: Space, f, alpha: float, ratio: float):
        self.radii = radius_grid(space, ratio)
        self.moduli = _Moduli(space, f, [*self.radii, 2.0 * space.diameter + 1.0], alpha)

    def profile(self, weight: np.ndarray, spec: RISpaceSpec) -> ModulusProfile:
        """The modulus profile under weight, the space's weights times some eps > 0.

        It is modulus_profile's on the scaled space, bitwise when eps is a
        power of 2 (or 1) and to rounding otherwise, since the averages were
        taken under the unscaled weights.
        """
        *vals, tail = self.moduli.at(weight, spec)
        return ModulusProfile(self.radii, np.asarray(vals), tail)


def modulus_profile(space: Space, f, spec: RISpaceSpec, alpha: float,
                    ratio: float = DEFAULT_GRID_RATIO) -> ModulusProfile:
    return ProfileAverages(space, f, alpha, ratio).profile(space.weight, spec)


def besov_from_profile(profile: ModulusProfile, s: float, q: float) -> float:
    """Scale integral (int (r^-s E(r))^q dr/r)^(1/q) of a sampled profile.

    The profile value at a grid point is taken as constant on the cell to its
    right; the region below the first radius contributes nothing (singleton
    balls) and the region past the last radius uses the exact power-law tail.
    At finite q, power_roots takes the sum with bases v_i r_i^-s and T r_last^-s,
    whose factors (1 - (r_i / r_{i+1})^sq) / sq and 1/sq cannot saturate.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("smoothness s must lie in (0, 1)")
    r, v = profile.radii, profile.values
    if math.isinf(q):
        best = float(np.max(v * r ** (-s))) if v.size else 0.0
        return float(max(best, profile.tail_value * r[-1] ** (-s)))
    sq = s * q
    bases = np.append(v[:-1], profile.tail_value) * r ** (-s)
    factors = np.append(-np.expm1(sq * np.log(r[:-1] / r[1:])), 1.0) / sq
    return power_roots([(bases, factors)], q)[0]


def besov_seminorm(space: Space, f, s: float, q: float, spec: RISpaceSpec, alpha: float,
                   ratio: float = DEFAULT_GRID_RATIO) -> float:
    """Hajlasz-style smoothness seminorm: scale integral of the modulus."""
    if not 0.0 < q:
        raise DomainError("q must be positive")
    return besov_from_profile(modulus_profile(space, f, spec, alpha, ratio), s, q)


# -- gradient fields --------------------------------------------------------------------


@dataclass(frozen=True)
class GradientField:
    """Nonnegative field certifying |f(x)-f(y)| <= d(x,y)(g(x)+g(y)) for all pairs."""

    g: np.ndarray
    max_violation: float

    @staticmethod
    def certify(space: Space, f, g) -> "GradientField":
        g = np.asarray(g, dtype=float)
        f = np.asarray(f, dtype=float)
        if np.any(g < -_FEAS_TOL):
            raise DomainError("gradient field must be nonnegative")
        g = np.maximum(g, 0.0)
        gap = np.abs(f[:, None] - f[None, :]) - space.dist * (g[:, None] + g[None, :])
        np.fill_diagonal(gap, -np.inf)
        violation = float(gap.max())
        scale = max(1.0, float(np.abs(f).max()))
        if violation > _FEAS_TOL * scale:
            i, j = np.unravel_index(int(gap.argmax()), gap.shape)
            raise DomainError(f"gradient constraint violated at pair ({i}, {j}) by {violation:g}")
        arr = np.ascontiguousarray(g)
        arr.setflags(write=False)
        return GradientField(arr, max(violation, 0.0))


def _slopes(space: Space, f) -> np.ndarray:
    """The n x n matrix |f(x) - f(y)| / d(x, y), with 0 on the diagonal."""
    f = np.asarray(f, dtype=float)
    return np.abs(f[:, None] - f[None, :]) / np.where(space.dist > 0.0, space.dist, np.inf)


# -- linear programs ----------------------------------------------------------------------


@dataclass
class _Run:
    """One HiGHS run: status 0 when optimal, then the column values and the row duals."""

    status: int
    message: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None  # <= 0 on binding rows of a_ub x <= b_ub


def _run(highs: _Highs) -> _Run:
    """Run a model from its current basis: every HiGHS run of this module goes through here.

    Each _PairLP keeps one model per (space, f) across its rounds and t-grid;
    this seam only runs it and reads the solution.  _PairLP.optimum certifies
    what comes back by _PairLP._bracket, and dumps the instance when a run fails
    or the bracket stays open.
    """
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        return _Run(int(status), highs.modelStatusToString(status))
    sol = highs.getSolution()
    return _Run(0, "optimal", np.array(sol.col_value), np.array(sol.row_dual))


def _dual_part(a_ub, b_ub, duals) -> tuple[np.ndarray, float]:
    """(a_ub^T lam, lam.b_ub) with lam = max(-duals, 0): the t-free part of _PairLP._bracket."""
    lam = np.maximum(-duals, 0.0)
    return a_ub.T @ lam, float(lam @ b_ub)


def _closed(lower: float, upper: float) -> bool:
    """Whether the enclosure [lower, upper] certifies its optimum: U - L <= 1e-9 max(1, |U|)."""
    return upper - lower <= _LP_TOL * max(1.0, abs(upper))


def _seed_pairs(space: Space, slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seed pairs (x, y) of row generation, as two index arrays.

    Per point x: its _SEED_PAIRS pairs of largest slopes[x, y] = |f(x) - f(y)| / d(x, y)
    and its _SEED_PAIRS nearest neighbours, fewer when n - 1 is smaller.  slopes
    is left as it is.  The ball index's stable order would seed other tied pairs and
    move certified optima at rounding (on a 12 x 12 grid), so argpartition stays.
    """
    n = space.n
    k = min(_SEED_PAIRS, n - 1)
    dist = space.dist + np.diag(np.full(n, np.inf))
    steep = slopes.copy()
    np.fill_diagonal(steep, -np.inf)
    near = np.argpartition(dist, k - 1, axis=1)[:, :k]
    top = np.argpartition(-steep, k - 1, axis=1)[:, :k]
    return np.repeat(np.arange(n), 2 * k), np.concatenate([top, near], axis=1).ravel()


class _PairLP:
    """One HiGHS model of a pair LP for one (space, f): the gradient LP, or K(f, t).

    family is "gradient" or "k".  The columns come in blocks of n, one column
    per point: g in the gradient LP; h, g and e in the K-LP.  g >= 0 is a
    gradient field, of f or of the free h, and e >= |f - h| is a slack.  This
    class alone builds the LP: the column bounds, the costs (_costs), and
    every row, all <=, from _point_rows and _pair_rows.  The point rows go in
    once, then the pair rows of _seed_pairs; more pair rows come in by addRows
    and none is ever removed, so the active set carries over from one t to the
    next.  set_t changes only the costs, and every run starts from the basis
    of the last.

    The box [lo, hi] holds an optimal point, as the enclosure needs.  In the
    gradient LP, 0 <= g <= the canonical gradient max_y |f(x) - f(y)| / d(x, y),
    since lowering g to it keeps every pair.  In the K-LP, h lies in
    [min f, max f]: clipping h there shrinks |h(x) - h(y)| and |f - h|.  Then
    e <= the width of that interval, and g(x) <= width / space.metric.nearest[x]
    (x's nearest distance).

    K never exceeds its value at the plateau point (_plateau): M = min over
    constants c of ||f - c||_1, whatever t is.  So optimum keeps the t-free
    part of each certified run's dual bound (_dual_part), and before a run at
    a new t it first bounds the optimum below from those duals under the new
    costs, in O(columns).  When that bound closes the bracket around M, the
    plateau point is the answer and HiGHS is not run; no row is added.  A
    larger t raises only the costs of g, whose lower bounds are 0, so a
    bracket closed at t stays closed at every larger t; at a smaller t the
    bound is as valid, and only closes less often.
    """

    def __init__(self, space: Space, f: np.ndarray, family: str, t: float = 1.0):
        if not np.all(np.isfinite(f)):
            raise DomainError("the function of a pair LP must be finite")
        n = space.n
        # HiGHS's tolerances are absolute.  So where max |f| < 1 the model holds
        # f / unit instead, unit the power of 2 that lifts max |f| into [0.5, 1),
        # and its optima are scaled back exactly.
        self.unit = math.ldexp(1.0, min(0, math.frexp(float(np.abs(f).max()))[1]))
        f = f / self.unit
        self.space, self.f = space, f
        self.is_k = {"gradient": False, "k": True}[family]
        self.scale = max(1.0, float(np.abs(f).max()))
        blocks = ("h", "g", "e") if self.is_k else ("g",)
        self.cols = {name: slice(k * n, (k + 1) * n) for k, name in enumerate(blocks)}
        self.c = self._costs(t)
        size = self.c.size
        slopes = _slopes(space, f)
        self.slopes = None if self.is_k else slopes
        if self.is_k:
            f_lo, f_hi = float(f.min()), float(f.max())
            width = f_hi - f_lo
            self.lo = np.concatenate([np.full(n, f_lo), np.zeros(size - n)])
            self.hi = np.full(size, width)
            self.hi[self.cols["h"]] = f_hi
            self.hi[self.cols["g"]] = width / space.metric.nearest
        else:
            self.lo, self.hi = np.zeros(n), self.slopes.max(axis=1)
        # an empty first block, so that a failed setup call can dump the instance
        self.a_blocks, self.b_blocks = [csr_matrix((0, size))], [np.zeros(0)]
        self.highs = _Highs()
        for option, value in (("output_flag", False), ("solver", "simplex"), ("presolve", "off"),
                              ("primal_feasibility_tolerance", _LP_TOL),
                              ("dual_feasibility_tolerance", _LP_TOL)):
            self.highs.setOptionValue(option, value)
        lower = np.zeros(size)  # the column bounds: h free, every other column >= 0
        if self.is_k:
            lower[self.cols["h"]] = -kHighsInf
        self._check(self.highs.addVars(size, lower, np.full(size, kHighsInf)), "addVars")
        self._check(self.highs.changeColsCost(size, np.arange(size, dtype=np.int32), self.c),
                    "changeColsCost")
        if self.is_k:
            self._add_rows(*self._point_rows())
        self.ii, self.jj = np.triu_indices(n, k=1)
        self.active = np.zeros(self.ii.size, dtype=bool)
        seeded = np.zeros((n, n), dtype=bool)
        seeded[_seed_pairs(space, slopes)] = True
        self._add_pairs((seeded | seeded.T)[self.ii, self.jj])
        self.dual = None  # _dual_part of the last certified run of a K-LP

    def _costs(self, t: float) -> np.ndarray:
        """w on g in the gradient LP; 0 on h, t w on g and w on e in the K-LP."""
        w = self.space.weight
        if not self.is_k:
            return w
        return np.concatenate([np.zeros(self.space.n), t * w, w])

    def _rows(self, cols: np.ndarray, vals: np.ndarray, b: np.ndarray):
        """(a_ub, b_ub): row k holds vals[k] in the columns cols[k], which ascend."""
        m, k = cols.shape
        return csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, m * k + 1, k)),
                          shape=(m, self.c.size)), b

    def _point_rows(self):
        """The K-LP's rows per point x, consecutive: -h(x) - e(x) <= -f(x) and
        h(x) - e(x) <= f(x)."""
        n = self.space.n
        x = np.arange(n).repeat(2)
        cols = np.stack([x, self.cols["e"].start + x], axis=1)
        vals = np.tile([[-1.0, -1.0], [1.0, -1.0]], (n, 1))
        return self._rows(cols, vals, np.stack([-self.f, self.f], axis=1).ravel())

    def _pair_rows(self, ii: np.ndarray, jj: np.ndarray):
        """The rows of the pairs (ii[k], jj[k]), ii < jj, in the order of the pairs.

        Gradient LP: the one row -g(x) - g(y) <= -|f(x) - f(y)| / d(x, y) per
        pair, and none where f(x) = f(y).  K-LP: the two rows
        +-(h(x) - h(y)) / d(x, y) - g(x) - g(y) <= 0 per pair.
        """
        g = self.cols["g"].start
        if not self.is_k:
            rhs = self.slopes[ii, jj]
            keep = rhs > 0.0
            cols = g + np.stack([ii[keep], jj[keep]], axis=1)
            return self._rows(cols, np.full(cols.shape, -1.0), -rhs[keep])
        h = self.cols["h"].start
        inv = 1.0 / self.space.dist[ii, jj]
        neg = -np.ones(ii.size)
        cols = np.stack([h + ii, h + jj, g + ii, g + jj], axis=1).repeat(2, axis=0)
        vals = np.stack([inv, -inv, neg, neg, -inv, inv, neg, neg], axis=1).reshape(-1, 4)
        return self._rows(cols, vals, np.zeros(2 * ii.size))

    def _check(self, status, call: str) -> None:
        """Dump the instance and raise SolverError when a HiGHS call returned kError."""
        if status == HighsStatus.kError:
            path = self._dump(f"HiGHS {call} failed")
            raise SolverError(f"HiGHS {call} failed; instance dumped to {path}")

    def _add_rows(self, a: csr_matrix, b: np.ndarray) -> None:
        self.a_blocks.append(a)
        self.b_blocks.append(b)
        if b.size:
            self._check(self.highs.addRows(b.size, np.full(b.size, -kHighsInf), b, a.nnz,
                                           a.indptr[:-1].astype(np.int32),
                                           a.indices.astype(np.int32), a.data), "addRows")

    def _add_pairs(self, new: np.ndarray) -> None:
        self._add_rows(*self._pair_rows(self.ii[new], self.jj[new]))
        self.active |= new

    def _fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slope matrix of u and the field g of a solution x."""
        g = np.maximum(x[self.cols["g"]], 0.0)
        if self.is_k:
            return _slopes(self.space, x[self.cols["h"]]), g
        return self.slopes, g

    def _repaired(self, x: np.ndarray) -> np.ndarray:
        """x made feasible for every pair and every point row, inside the box.

        x is clipped into the box, then repaired by raising g.  In the K-LP a
        second repair first lowers h to the largest h' <= h that the field g
        allows, h'(x) <= h'(y) + d(x, y) (g(x) + g(y)) for all pairs (by
        Bellman-Ford rounds), and the cheaper of the two is kept: at large t a
        pair violated by v costs t w v through g but only about w v d through h.
        """
        x = np.clip(x, self.lo, self.hi)
        if not self.is_k:
            return self._raise_g(x)
        g, h_cols = x[self.cols["g"]], self.cols["h"]
        reach = self.space.dist * (g[:, None] + g[None, :])
        lowered = x.copy()
        for _ in range(self.space.n):
            h = lowered[h_cols]
            below = (h[None, :] + reach).min(axis=1)
            if not np.any(below < h):
                break
            lowered[h_cols] = np.minimum(h, below)
        return min((self._raise_g(x), self._raise_g(lowered)), key=lambda y: float(self.c @ y))

    def _raise_g(self, x: np.ndarray) -> np.ndarray:
        """x with e = |f - h| in the K-LP, and g(x) raised by half the largest
        remaining violation of a pair at x."""
        x = x.copy()
        if self.is_k:
            x[self.cols["e"]] = np.abs(self.f - x[self.cols["h"]])
        slopes, g = self._fields(x)
        violation = slopes - g[:, None] - g[None, :]
        np.fill_diagonal(violation, 0.0)
        x[self.cols["g"]] = g + 0.5 * np.maximum(violation.max(axis=1), 0.0)
        return x

    @cached_property
    def _plateau(self) -> np.ndarray:
        """The K-LP's plateau point: h = m constant, g = 0 and e = |f - m|.

        m is a weighted median of f, where ||f - m||_1 is least over constants.
        The point lies in the box and satisfies every row at every t.
        """
        order = np.argsort(self.f, kind="stable")
        mass = np.cumsum(self.space.weight[order])
        m = float(self.f[order[np.searchsorted(mass, 0.5 * mass[-1])]])
        x = np.zeros(self.c.size)
        x[self.cols["h"]] = m
        x[self.cols["e"]] = np.abs(self.f - m)
        return x

    def _bracket(self, x: np.ndarray, dual) -> tuple[float, float]:
        """[L, U] around the optimum over all pairs at the current t, for a feasible x.

        U = c.x.  L is the safe dual bound of Neumaier and Shcherbina: with
        dual = (a_ub^T lam, lam.b_ub) for some lam >= 0 on the model's rows,
        every feasible x' in the box [lo, hi] has
        c.x' >= (c + a_ub^T lam).x' - lam.b_ub >= L, the sum of each term's
        minimum over the box.  So L bounds the optimum from below whenever the
        box holds an optimal point, whatever lam and t are; rows missing from
        a_ub count as lam = 0.  Rounding in the two sums is far below the widths
        compared.
        """
        r = self.c + dual[0]
        lower = float(np.minimum(r * self.lo, r * self.hi).sum() - dual[1])
        return lower, float(self.c @ x)

    def set_t(self, t: float) -> None:
        """Move the K-LP to parameter t: new costs on the columns whose cost changes."""
        c = self._costs(t)
        cols = np.flatnonzero(c != self.c).astype(np.int32)
        self.c = c
        self._check(self.highs.changeColsCost(cols.size, cols, c[cols]), "changeColsCost")

    def _lp(self):
        return self.c, vstack(self.a_blocks, format="csr"), np.concatenate(self.b_blocks)

    def _dump(self, note: str) -> str:
        """Write min c.x s.t. a_ub x <= b_ub to a new temporary file, a_ub as sparse triplets."""
        if self.unit != 1.0:
            note = f"{note}, f scaled by 1/{self.unit!r}"
        c, a_ub, b_ub = self._lp()
        a = a_ub.tocoo()
        fd, path = tempfile.mkstemp(prefix="oscembed_lp_", suffix=".txt")
        with os.fdopen(fd, "w") as fh:
            fh.write(f"# {note}\nminimize {list(map(float, c))}\nb_ub {list(map(float, b_ub))}\n"
                     f"# a_ub {a.shape}: row col value\n")
            for i, j, v in zip(a.row.tolist(), a.col.tolist(), a.data.tolist()):
                fh.write(f"{i} {j} {v!r}\n")
        return path

    def optimum(self, note: str) -> tuple[float, float, np.ndarray]:
        """The enclosure [L, U] of the optimum over all pairs, and a feasible point of value U.

        Row generation: run, check all n(n-1)/2 pairs at once, add the violated
        inactive ones, and run again from the last basis, until no inactive pair
        is violated beyond 1e-9 relative.  (Not beyond 0: where the optimal u is
        constant and g = 0, as for K at large t, every pair is tight, and
        rounding in u alone would pull them all in.)  An active pair violated
        beyond _FEAS_TOL relative means the solver broke its tolerance: the
        instance is dumped and SolverError raised.

        Certificate: the repaired point gives U and the row duals give L (see
        _bracket).  If U - L > 1e-9 max(1, |U|), the model's tolerances go to
        1e-10 and row generation runs once more, warm, now taking in every
        violated pair: pairs left out below 1e-9 can open the bracket once t w
        is large.  A bracket still open, or a failed run, dumps the instance and
        raises SolverError.  L, U and the point come back in units of f.

        A K-LP keeps the certified run's _dual_part in self.dual.  At the next
        call, before any run, the plateau point is tried against it: if that
        bracket closes by the same rule, it comes back with U = M and no run.
        """
        if self.dual is not None:
            x = self._plateau
            lower, upper = self._bracket(x, self.dual)
            if _closed(lower, upper):
                return lower * self.unit, upper * self.unit, x * self.unit
        for attempt, (tol, joins) in enumerate(((_LP_TOL, _LP_TOL * self.scale),
                                                (_LP_RETRY_TOL, 0.0))):
            if attempt:
                for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
                    self.highs.setOptionValue(option, tol)
            while True:
                run = _run(self.highs)
                if run.status != 0:
                    path = self._dump(note)
                    raise SolverError(f"LP solve failed ({run.message.strip()}); "
                                      f"instance dumped to {path}")
                slopes, g = self._fields(run.x)
                violation = slopes[self.ii, self.jj] - g[self.ii] - g[self.jj]
                new = (violation > joins) & ~self.active
                if not new.any():
                    break
                self._add_pairs(new)
            worst = float(violation.max(initial=0.0))
            if worst > _FEAS_TOL * self.scale:
                path = self._dump(f"{note} pair constraint violated")
                raise SolverError(f"pair constraint violated by {worst:g}; "
                                  f"instance dumped to {path}")
            x = self._repaired(run.x)
            _, a_ub, b_ub = self._lp()
            dual = _dual_part(a_ub, b_ub, run.duals)
            lower, upper = self._bracket(x, dual)
            if _closed(lower, upper):
                if self.is_k:
                    self.dual = dual
                return lower * self.unit, upper * self.unit, x * self.unit
        path = self._dump(f"{note} duality gap")
        raise SolverError(f"duality gap {upper - lower:g} too large ([{lower!r}, {upper!r}]); "
                          f"instance dumped to {path}")


def hajlasz_seminorm_l1(space: Space, f) -> tuple[float, GradientField]:
    """Weighted-L1 infimum over feasible gradient fields, by exact certified LP."""
    f = np.asarray(f, dtype=float)
    if space.n < 2 or float(np.ptp(f)) == 0.0:
        return 0.0, GradientField.certify(space, f, np.zeros(space.n))
    _, value, g = _PairLP(space, f, "gradient").optimum("gradient-seminorm")
    return value, GradientField.certify(space, f, g)


def k_functional_path(space: Space, f, ts) -> list[float]:
    """K(f, t) at each t of ts, all on one HiGHS model of the joint LP.

    K(f, t) = min over h of ||f - h||_L1 + t * (L1 gradient seminorm of h).
    Pairs found binding at one t stay in the model for the next, and each solve
    starts from the last basis, so a t-grid costs far fewer simplex iterations
    than separate solves.  Once K reaches its plateau (M = min over constants c
    of ||f - c||_1), the last certified solve's duals prove K = M at every
    larger t, which then takes no HiGHS run (see _PairLP).  ts may come in any
    order, with repeats; the shortcut fires most often on an ascending grid,
    where a skipped t means every larger t is skipped.
    """
    ts = _checked_ts(ts)
    f = np.asarray(f, dtype=float)
    if not ts:
        return []
    if space.n < 2 or float(np.abs(f - f[0]).max()) == 0.0:
        return [0.0] * len(ts)
    model = _PairLP(space, f, "k", ts[0])
    values = []
    for t in ts:
        model.set_t(t)
        values.append(model.optimum(f"k-functional t={t}")[1])
    return values


def _checked_ts(ts) -> list[float]:
    """ts as floats, each positive and finite: at t = inf the K-LP's costs are not numbers."""
    ts = [float(t) for t in ts]
    if not all(0.0 < t < math.inf for t in ts):
        raise DomainError("K-functional parameter t must be positive and finite")
    return ts


# -- two-sided K bounds -------------------------------------------------------------------


@dataclass(frozen=True)
class KBounds:
    t: float
    lower: float
    upper: float
    exact: float | None = None


def k_bounds_path(space: Space, f, ts, spec: RISpaceSpec, alpha: float) -> list[KBounds]:
    """Modulus lower bound and truncated dyadic-sum upper bound at each parameter t of ts.

    The dyadic sum over scales 2^j t is truncated once the scale covers the
    space (2^J t >= 2 * diameter); beyond that the modulus is constant and the
    remaining geometric tail is folded in exactly.  The lower bound is the
    j = 0 term, or the tail when J = 0 (every ball at t is then the whole
    space).  The distinct radii of all t go to one _moduli call, which reads each
    one's ball averages once.  For the weighted-L1 spec at alpha = 1 the exact
    split infimum is attached for calibration, from one k_functional_path call.
    """
    ts = _checked_ts(ts)
    if not ts:
        return []
    plans = [_dyadic_radii(space, t) for t in ts]
    distinct = list(dict.fromkeys(r for radii in plans for r in radii))
    moduli = dict(zip(distinct, _moduli(space, f, distinct, spec, alpha)))
    bounds = [_modulus_bounds([moduli[r] for r in radii], alpha) for radii in plans]
    exact = [None] * len(ts)
    if spec == lp(1.0) and alpha == 1.0:
        exact = k_functional_path(space, f, ts)
    return [KBounds(t=t, lower=lower, upper=upper, exact=e)
            for t, (lower, upper), e in zip(ts, bounds, exact)]


def _dyadic_radii(space: Space, t: float) -> list[float]:
    """The radii 2^j t, j < J, of k_bounds_path's dyadic sum at t, then its tail radius."""
    top = 2.0 * space.diameter
    j_cut = max(0, math.ceil(math.log2(top / t))) if t < top else 0
    return [(2.0**j) * t for j in range(j_cut)] + [max(top, t) + 1.0]


def _modulus_bounds(moduli: list, alpha: float):
    """The (lower, upper) modulus bounds of k_bounds_path from the moduli at _dyadic_radii."""
    *scales, tail_e = moduli
    lower = scales[0] if scales else tail_e
    total = 0.0
    for j, e in enumerate(scales):
        total += 2.0 ** (-j * alpha) * e**alpha
    total += 2.0 ** (-len(scales) * alpha) * tail_e**alpha / (1.0 - 2.0 ** (-alpha))
    return lower, total ** (1.0 / alpha)
