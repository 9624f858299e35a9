"""Ball-average smoothness, gradient seminorms, and two-sided K-bounds.

The local roughness of f at scale r is the ball average

    grad_[r,a] f(x) = ( mean_{y in B(x,r)} |f(x) - f(y)|^a )^(1/a),

and the modulus at scale r is the chosen quasi-norm of its rearrangement.
Every modulus, in a profile or in a K-bound, comes from one routine
that forms |f(x) - f(y)|^a once and makes one ball-average pass per radius.
On a finite space the modulus is piecewise constant in r (balls only change
at pairwise distances), is identically 0 for r <= the smallest positive
distance (balls are singletons), and is constant once r exceeds the diameter
(every ball is the whole space).  The scale integral defining the Besov
seminorm is therefore evaluated on a geometric radius grid with an exact
closed-form tail; the grid ratio is the only quadrature knob.

Gradient seminorms come from the pairwise relaxation

    |f(x) - f(y)| <= d(x, y) (g(x) + g(y)),   g >= 0,

whose feasible fields form a polytope.  The weighted-L1 infimum over that
polytope, and the split-infimum K(f, t) against the L1 error term, are plain
linear programs solved with HiGHS.  They carry one block of rows per pair of
points, of which only a few are ever binding, so they are solved by row
generation: solve with an active set of pairs, check every pair, add the
violated ones, and repeat.  The optimum is exact: a relaxed optimum that
satisfies every pair is feasible for the full LP, and the relaxed dual padded
with zeros is feasible for the full dual, so the same duality gap certifies
it.  Failed or uncertified solves dump the instance to a text file for
inspection.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .errors import DomainError, SolverError
from .rearrange import rearrangement
from .rispace import RISpaceSpec, convexify, quasi_norm
from .space import Space

DEFAULT_GRID_RATIO = 2.0 ** 0.25
_LP_GAP_TOL = 1e-9
_FEAS_TOL = 1e-7
_SEED_PAIRS = 3  # per point: its steepest pairs and its nearest neighbours seed the active set


# -- ball averages ------------------------------------------------------------------


def _ball_average(space: Space, values_sq: np.ndarray, r: float, alpha: float) -> np.ndarray:
    """Per-point ball average of values_sq[x, y] to the power 1/alpha."""
    mask = space.dist < r
    den = mask @ space.weight
    num = (mask * values_sq) @ space.weight
    return (num / den) ** (1.0 / alpha)


def _check_ball_args(r: float, alpha: float) -> None:
    if not r > 0.0:
        raise DomainError("radius must be positive")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")


def _moduli(space: Space, f, radii, spec: RISpaceSpec, alpha: float) -> list:
    """The modulus at each radius: one ball average pass and one quasi-norm per radius."""
    _check_ball_args(min(radii), alpha)
    conv = convexify(spec, alpha)
    f = np.asarray(f, dtype=float)
    diffs = np.abs(f[:, None] - f[None, :]) ** alpha
    return [quasi_norm(conv, rearrangement(space, _ball_average(space, diffs, float(r), alpha)))
            for r in radii]


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


def modulus_profile(space: Space, f, spec: RISpaceSpec, alpha: float,
                    ratio: float = DEFAULT_GRID_RATIO) -> ModulusProfile:
    radii = radius_grid(space, ratio)
    *vals, tail = _moduli(space, f, [*radii, 2.0 * space.diameter + 1.0], spec, alpha)
    return ModulusProfile(radii, np.asarray(vals), tail)


def besov_from_profile(profile: ModulusProfile, s: float, q: float) -> float:
    """Scale integral (int (r^-s E(r))^q dr/r)^(1/q) of a sampled profile.

    The profile value at a grid point is taken as constant on the cell to its
    right; the region below the first radius contributes nothing (singleton
    balls) and the region past the last radius uses the exact power-law tail.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("smoothness s must lie in (0, 1)")
    r, v = profile.radii, profile.values
    if math.isinf(q):
        best = float(np.max(v * r ** (-s))) if v.size else 0.0
        return max(best, profile.tail_value * r[-1] ** (-s))
    sq = s * q
    inner = float(np.sum(v[:-1] ** q * (r[:-1] ** (-sq) - r[1:] ** (-sq)))) / sq
    tail = profile.tail_value ** q * r[-1] ** (-sq) / sq
    return (inner + tail) ** (1.0 / q)


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


def _dump_lp(c, a_ub, b_ub, note: str) -> str:
    """Write min c.x s.t. a_ub x <= b_ub to a new temporary file, a_ub as sparse triplets."""
    a = coo_matrix(a_ub)
    fd, path = tempfile.mkstemp(prefix="oscembed_lp_", suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write(f"# {note}\nminimize {list(map(float, c))}\nb_ub {list(map(float, b_ub))}\n"
                 f"# a_ub {a.shape}: row col value\n")
        for i, j, v in zip(a.row.tolist(), a.col.tolist(), a.data.tolist()):
            fh.write(f"{i} {j} {v!r}\n")
    return path


def _solve_lp(c, a_ub, b_ub, bounds, note: str):
    """Solve min c.x s.t. a_ub x <= b_ub with HiGHS and certify the optimum.

    The certificate is the duality gap |c.x - b_ub.y| <= 1e-9 relative, with y
    the inequality marginals.  That b_ub.y is the whole dual objective assumes
    every finite variable bound is 0, as in all the LPs of this module.  A
    failed solve or an open gap dumps the instance and raises SolverError.
    HiGHS is held to feasibility tolerances of 1e-9 as well: at its default of
    1e-7, a pair with |f(x) - f(y)| / d = 6e-8 is taken as met by g = 0, and
    the returned optimum is off by that much with the gap closed.

    Under row generation the instance holds the active pairs only.  Dropping
    rows leaves the dual constraints (one per column) as they are, so y padded
    with zeros is dual-feasible for the full LP with the same objective b_ub.y:
    once x also satisfies every pair, the gap certifies x for the full LP.
    """
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": _LP_GAP_TOL,
                           "dual_feasibility_tolerance": _LP_GAP_TOL})
    if res.status != 0:
        path = _dump_lp(c, a_ub, b_ub, note)
        raise SolverError(f"LP solve failed ({res.message.strip()}); instance dumped to {path}")
    gap = abs(res.fun - float(b_ub @ res.ineqlin.marginals))
    if gap > _LP_GAP_TOL * max(1.0, abs(res.fun)):
        path = _dump_lp(c, a_ub, b_ub, f"{note} duality gap")
        raise SolverError(f"duality gap {gap:g} too large; instance dumped to {path}")
    return res


def _seed_pairs(space: Space, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seed pairs (x, y) of row generation, as two index arrays.

    Per point x: its _SEED_PAIRS pairs of largest |f(x) - f(y)| / d(x, y) and
    its _SEED_PAIRS nearest neighbours, fewer when n - 1 is smaller.
    """
    n = space.n
    k = min(_SEED_PAIRS, n - 1)
    dist = space.dist + np.diag(np.full(n, np.inf))
    steep = _slopes(space, f)
    np.fill_diagonal(steep, -np.inf)
    near = np.argpartition(dist, k - 1, axis=1)[:, :k]
    top = np.argpartition(-steep, k - 1, axis=1)[:, :k]
    return np.repeat(np.arange(n), 2 * k), np.concatenate([top, near], axis=1).ravel()


def _row_generation(space: Space, f: np.ndarray, lp_of, fields_of, note: str):
    """Certified optimum of an LP with one block of rows per pair, by row generation.

    The pair rows say |u(x) - u(y)| / d(x, y) <= g(x) + g(y).  lp_of(ii, jj)
    builds the LP (c, a_ub, b_ub, bounds) with the rows of the pairs (ii, jj)
    only, and fields_of(x) reads (_slopes(space, u), g) off a solution; where u
    is fixed (u = f in the gradient LP) it returns one precomputed matrix.
    Starting from the pairs of _seed_pairs, each round solves the relaxed LP
    through _solve_lp, checks all n(n-1)/2 pairs at once and adds the violated
    inactive ones.  It stops when no inactive pair is violated; each round adds
    one pair at least, so it always stops.  An active pair may still be
    violated beyond the solver's tolerance: then the instance is dumped and
    SolverError raised.

    A pair counts as violated beyond 1e-9 relative, not beyond 0: where the
    optimal u is constant and g = 0 (K at large t) every pair is tight, and
    rounding in u alone would otherwise pull them all in.
    """
    n = space.n
    ii, jj = np.triu_indices(n, k=1)
    seeded = np.zeros((n, n), dtype=bool)
    seeded[_seed_pairs(space, f)] = True
    active = (seeded | seeded.T)[ii, jj]
    scale = max(1.0, float(np.abs(f).max()))
    while True:
        lp = lp_of(ii[active], jj[active])
        res = _solve_lp(*lp, note)
        slopes, g = fields_of(res.x)
        g = np.maximum(g, 0.0)
        violation = slopes[ii, jj] - g[ii] - g[jj]
        new = (violation > _LP_GAP_TOL * scale) & ~active
        if not new.any():
            break
        active |= new
    worst = float(violation.max(initial=0.0))
    if worst > _FEAS_TOL * scale:
        path = _dump_lp(*lp[:3], f"{note} pair constraint violated")
        raise SolverError(f"pair constraint violated by {worst:g}; instance dumped to {path}")
    return res


def _gradient_lp(space: Space, slopes: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """Gradient LP over the pairs (ii, jj): min w.g s.t. -g_i - g_j <= -slopes[i, j], g >= 0.

    slopes is _slopes(space, f).  Pairs with f_i = f_j, of slope 0, give no row.
    """
    rhs = slopes[ii, jj]
    keep = rhs > 0.0
    ii, jj, rhs = ii[keep], jj[keep], rhs[keep]
    m = ii.size
    rows = np.repeat(np.arange(m), 2)
    cols = np.stack([ii, jj], axis=1).ravel()
    a_ub = coo_matrix((-np.ones(2 * m), (rows, cols)), shape=(m, space.n))
    return space.weight, a_ub, -rhs, [(0.0, None)] * space.n


def hajlasz_seminorm_l1(space: Space, f) -> tuple[float, GradientField]:
    """Weighted-L1 infimum over feasible gradient fields, by exact certified LP."""
    f = np.asarray(f, dtype=float)
    if space.n < 2 or float(np.ptp(f)) == 0.0:
        return 0.0, GradientField.certify(space, f, np.zeros(space.n))
    slopes = _slopes(space, f)
    res = _row_generation(space, f, lambda ii, jj: _gradient_lp(space, slopes, ii, jj),
                          lambda x: (slopes, x), "gradient-seminorm")
    return float(res.fun), GradientField.certify(space, f, res.x)


def _k_functional_lp(space: Space, f: np.ndarray, t: float, inhomogeneous: bool,
                     pairs: tuple[np.ndarray, np.ndarray] | None = None):
    """Joint LP of K(f, t) over (h, g, e), plus a when inhomogeneous, as (c, a_ub, b_ub, bounds).

    h is free; g is the gradient field of h; e >= |f - h| and a >= |h| are
    absolute-value slacks.  Pair k (i < j; all pairs in triu order, or the
    pairs (ii, jj) given) gives rows 2k and 2k+1:
    +-(h_i - h_j)/d - g_i - g_j <= 0.  Then each point x gives consecutive rows
    -e_x -+ h_x <= -+f_x, followed when inhomogeneous by -a_x +- h_x <= 0.
    """
    n, w = space.n, space.weight
    ii, jj = np.triu_indices(n, k=1) if pairs is None else pairs
    inv = 1.0 / space.dist[ii, jj]
    neg = -np.ones(ii.size)
    pair_cols = np.stack([ii, jj, n + ii, n + jj], axis=1).repeat(2, axis=0)
    pair_data = np.stack([inv, -inv, neg, neg, -inv, inv, neg, neg], axis=1)
    # per point x: row r is -(slack block slack[r])_x + h_sign[r] * h_x <= rhs[r]_x
    slack, h_sign, rhs = [2, 2], [-1.0, 1.0], [-f, f]
    c = [np.zeros(n), t * w, w]
    if inhomogeneous:
        slack, h_sign, rhs = slack + [3, 3], h_sign + [1.0, -1.0], rhs + [np.zeros(n)] * 2
        c.append(t * w)
    x = np.arange(n)[:, None]
    k = len(slack)
    point_cols = np.stack([n * np.array(slack) + x, x.repeat(k, axis=1)], axis=2)
    point_data = np.stack([np.full((n, k), -1.0), np.tile(h_sign, (n, 1))], axis=2)
    n_pair_rows = 2 * ii.size
    rows = np.concatenate([np.repeat(np.arange(n_pair_rows), 4),
                           np.repeat(n_pair_rows + np.arange(n * k), 2)])
    cols = np.concatenate([pair_cols.ravel(), point_cols.ravel()])
    data = np.concatenate([pair_data.ravel(), point_data.ravel()])
    a_ub = coo_matrix((data, (rows, cols)), shape=(n_pair_rows + n * k, len(c) * n))
    b_ub = np.concatenate([np.zeros(n_pair_rows), np.stack(rhs, axis=1).ravel()])
    bounds = [(None, None)] * n + [(0.0, None)] * ((len(c) - 1) * n)
    return np.concatenate(c), a_ub, b_ub, bounds


def k_functional_l1(space: Space, f, t: float) -> float:
    """Exact split infimum: min over h of ||f - h||_L1 + t * (L1 gradient seminorm of h).

    Joint LP in (h, g, e): e absolute-value slacks for f - h, g the gradient
    field of h, pairwise constraints linearized two-sided.
    """
    if not t > 0.0:
        raise DomainError("K-functional parameter t must be positive")
    f = np.asarray(f, dtype=float)
    if space.n < 2 or float(np.abs(f - f[0]).max()) == 0.0:
        return 0.0
    return _k_functional(space, f, t, False, f"k-functional t={t}")


def k_functional_l1_nonhomogeneous(space: Space, f, t: float) -> float:
    """Split infimum against the inhomogeneous gradient norm ||h||_L1 + seminorm."""
    if not t > 0.0:
        raise DomainError("K-functional parameter t must be positive")
    f = np.asarray(f, dtype=float)
    return _k_functional(space, f, t, True, f"k-functional-inhomogeneous t={t}")


def _k_functional(space: Space, f: np.ndarray, t: float, inhomogeneous: bool, note: str) -> float:
    """K(f, t) by row generation over the pairs of _k_functional_lp; u = h, g its field."""
    n = space.n
    res = _row_generation(space, f,
                          lambda ii, jj: _k_functional_lp(space, f, t, inhomogeneous, (ii, jj)),
                          lambda x: (_slopes(space, x[:n]), x[n:2 * n]), note)
    return float(res.fun)


# -- two-sided K bounds -------------------------------------------------------------------


@dataclass(frozen=True)
class KBounds:
    t: float
    lower: float
    upper: float
    exact: float | None = None


def k_bounds(space: Space, f, t: float, spec: RISpaceSpec, alpha: float) -> KBounds:
    """Modulus lower bound and truncated dyadic-sum upper bound at parameter t.

    The dyadic sum over scales 2^j t is truncated once the scale covers the
    space (2^J t >= 2 * diameter); beyond that the modulus is constant and the
    remaining geometric tail is folded in exactly.  One pass per radius: the
    lower bound is the j = 0 term, or the tail when J = 0 (every ball at t is
    then the whole space).  For the weighted-L1 spec at alpha = 1 the exact
    split infimum is attached for calibration.
    """
    _check_ball_args(t, alpha)
    top = 2.0 * space.diameter
    j_cut = max(0, math.ceil(math.log2(top / t))) if t < top else 0
    radii = [(2.0**j) * t for j in range(j_cut)] + [max(top, t) + 1.0]
    *scales, tail_e = _moduli(space, f, radii, spec, alpha)
    lower = scales[0] if scales else tail_e
    total = 0.0
    for j, e in enumerate(scales):
        total += 2.0 ** (-j * alpha) * e**alpha
    total += 2.0 ** (-j_cut * alpha) * tail_e**alpha / (1.0 - 2.0 ** (-alpha))
    upper = total ** (1.0 / alpha)
    exact = None
    if spec.family == "lp" and spec.p == 1.0 and spec.convexify_power == 1.0 and alpha == 1.0:
        exact = k_functional_l1(space, f, t)
    return KBounds(t=t, lower=lower, upper=upper, exact=exact)
