"""Independent brute-force oracles used to freeze expected test values.

Nothing here may call the evaluation paths it is used to check: rearrangement
values come from the inf-formula on a grid, norms from dense-grid sups or
generic quadrature, power-log integrals from mpmath quadrature at 30 digits,
Besov scale sums in 50-digit mpmath, ball-scan constants from global radius
tables or from masses summed over a mask d(x, .) < r, never from the space's
ball index, LP optima from
exhaustive vertex enumeration or from one HiGHS solve over every pair, LP
instances row by row, derivatives from central differences, the power-log
norms of step functions one panel at a time in a hand-written loop,
rearrangements one function at a time, moduli one radius at a time, from
nabla or one single-radius call of the package's ball average per radius, and
the gradient-bound sup from running integrals summed one atom at a time, at
every breakpoint and on a dense grid, and the collapse sweep from one full
embedding report per weight scale on a freshly built space.

The last sections hold the helpers that the command line never runs, moved
here from the package: critical radii, running averages and oscillation gaps
of step functions, fundamental functions and endpoint norms, ball averages,
canonical and upper-bound gradient fields, tent gradients and the target
weight.  Unlike the oracles above, several of them call the package's own
paths (modulus calls smoothness._moduli, and nabla and t_r_operator take the
one-radius ball average of smoothness._ball_averages), so the tests check
them rather than check with them; nabla stays the moduli oracles' primitive.
"""

import itertools
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from oscembed.corpus import tent_function
from oscembed.embed import (_oscillation_weight, embedding_report, reciprocal_weight_finite,
                            reciprocal_weight_integral, weighted_step_norm)
from oscembed.errors import DomainError
from oscembed.rearrange import StepDecreasing, rearrangement
from oscembed.rispace import RISpaceSpec, _norm_marcinkiewicz, convexify, quasi_norm
from oscembed.smoothness import (DEFAULT_GRID_RATIO, GradientField, KBounds, ModulusProfile,
                                 _ball_averages, _check_ball_args, _moduli, _slopes,
                                 hajlasz_seminorm_l1, k_functional_path, radius_grid)
from oscembed.space import Space, doubling_constant, noncollapsing_constant
from oscembed.weights import PowerLog


def distribution_mass(f, weights, level):
    """mu{|f| > level} directly from the definition."""
    f = np.abs(np.asarray(f, dtype=float))
    return float(np.asarray(weights)[f > level].sum())


def rearrangement_inf_formula(f, weights, t):
    """f*(t) = inf{s >= 0 : mu{|f| > s} <= t}, evaluated by scanning levels."""
    f = np.abs(np.asarray(f, dtype=float))
    levels = np.unique(np.concatenate([[0.0], f]))
    for s in levels:
        if distribution_mass(f, weights, s) <= t:
            return float(s)
    return float(levels[-1])


def step_eval(breakpoints, values, t):
    idx = np.searchsorted(breakpoints, t, side="right")
    return 0.0 if idx >= len(values) else float(values[idx])


def quad_average(fn, t, pieces):
    """(1/t) int_0^t fn by piecewise quadrature with given internal nodes."""
    nodes = [0.0] + sorted(x for x in pieces if 0.0 < x < t) + [t]
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        val, _ = quad(fn, a, b, limit=200)
        total += val
    return total / t


def product_step_integral(bp1, v1, bp2, v2):
    """int of the product of two step functions over [0, min mass]."""
    edges = np.unique(np.concatenate([[0.0], bp1, bp2]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2.0
        total += step_eval(bp1, v1, mid) * step_eval(bp2, v2, mid) * (b - a)
    return total


def mask_masses(space, r):
    """mu(B(x, r)) for every x, as the weights summed over the mask d(x, .) < r."""
    return (space.dist < r) @ space.weight


def dense_grid_doubling(space, n_grid=10_000):
    """Doubling-constant lower bound from a dense radius grid."""
    top = space.diameter * 1.05 + 1e-9
    best = 1.0
    for r in np.linspace(top / n_grid, top, n_grid):
        m1 = mask_masses(space, float(r))
        m2 = mask_masses(space, 2.0 * float(r))
        best = max(best, float((m2 / m1).max()))
    return best


def table_doubling_constant(space):
    """Doubling sup as the max ratio over one global table of critical radii.

    Every row's masses at every radius of critical_radii (all pairwise
    distances, their halves and the gap midpoints) come from that row's
    sorted cumulative weights.  Costs n x |radii|: small spaces only.
    """
    if space.n < 2:
        return 1.0
    radii = critical_radii(space)
    best = 1.0
    for i in range(space.n):
        order = np.argsort(space.dist[i], kind="stable")
        sd = space.dist[i][order]
        prefix = np.concatenate([[0.0], np.cumsum(space.weight[order])])
        m1 = prefix[np.searchsorted(sd, radii, side="left")]
        m2 = prefix[np.searchsorted(sd, 2.0 * radii, side="left")]
        best = max(best, float((m2 / m1).max()))
    return best


def brute_force_growth_constant(space, q_dim):
    """min of mu(B(x, r)) / r^Q over every distance r <= 1 of the space and r = 1."""
    cands = np.unique(space.dist[space.dist > 0.0])
    cands = np.concatenate([cands[cands <= 1.0], [1.0]])
    best = math.inf
    for r in cands:
        best = min(best, float((mask_masses(space, float(r)) / r**q_dim).min()))
    return best


def iterated_doubling_margin(space, q_dim, n_radii=12):
    """Worst slack of mu(B(x,r)) >= (r/4R)^Q mu(B(y,R)) over sampled nested balls.

    Positive return means the bound holds on every sampled configuration with
    B(x, r) contained in B(y, R) and 0 < r <= R.
    """
    n = space.n
    if n < 2:
        return float("inf")
    radii = np.geomspace(space.r_min / 2.0, 1.5 * space.diameter, n_radii)
    inside = space.dist[:, :, None] < radii[None, None, :]  # inside[x, y, k]
    masses = np.einsum("xyk,y->xk", inside, space.weight)
    worst = float("inf")
    for xi in range(n):
        for ki, r in enumerate(radii):
            bx = inside[xi, :, ki]
            for yi in range(n):
                for kj in range(ki, n_radii):
                    if not np.all(~bx | inside[yi, :, kj]):
                        continue
                    lower = (r / (4.0 * radii[kj])) ** q_dim * masses[yi, kj]
                    worst = min(worst, float(masses[xi, ki] - lower))
    return worst


def rowwise_k_functional_lp(space, f, t):
    """K(f, t) LP instance (c, a_ub, b_ub, bounds), built one row at a time.

    Variables h (free), g and e.  Per pair i < j two rows
    +-(h_i - h_j)/d - g_i - g_j <= 0; per point e >= |f - h| as two rows.
    """
    f = np.asarray(f, dtype=float)
    n = space.n
    ii, jj = np.triu_indices(n, k=1)
    d = space.dist[ii, jj]
    rows, cols, data, rhs = [], [], [], []

    def add_row(idx, entries, b):
        for col, val in entries:
            rows.append(idx)
            cols.append(col)
            data.append(val)
        rhs.append(b)

    row = 0
    for k in range(ii.size):
        i, j = int(ii[k]), int(jj[k])
        add_row(row, [(i, 1.0 / d[k]), (j, -1.0 / d[k]), (n + i, -1.0), (n + j, -1.0)], 0.0)
        row += 1
        add_row(row, [(i, -1.0 / d[k]), (j, 1.0 / d[k]), (n + i, -1.0), (n + j, -1.0)], 0.0)
        row += 1
    for x in range(n):
        add_row(row, [(2 * n + x, -1.0), (x, -1.0)], -float(f[x]))
        row += 1
        add_row(row, [(2 * n + x, -1.0), (x, 1.0)], float(f[x]))
        row += 1
    a_ub = coo_matrix((data, (rows, cols)), shape=(row, 3 * n))
    c = np.concatenate([np.zeros(n), t * space.weight, space.weight])
    bounds = [(None, None)] * n + [(0.0, None)] * (2 * n)
    return c, a_ub, np.asarray(rhs), bounds


# HiGHS feasibility tolerances 1000 times below its defaults of 1e-7.  At the
# defaults, K(f, 1) on path_space(8) with f = (1, 0, 0, 0, 0, 0, 1, 1e-6) came
# out 2.1e-8 below its optimum.
TIGHT_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def rowwise_gradient_lp(space, f):
    """Gradient LP instance (c, a_ub, b_ub, bounds), built one row at a time.

    Variables g >= 0.  Per pair i < j with f_i != f_j one row
    -g_i - g_j <= -|f_i - f_j| / d; a pair with f_i = f_j gives no row.
    """
    f = np.asarray(f, dtype=float)
    n = space.n
    rows, cols, data, rhs = [], [], [], []
    for i, j in zip(*np.triu_indices(n, k=1)):
        slope = abs(float(f[i]) - float(f[j])) / float(space.dist[i, j])
        if slope > 0.0:
            rows += [len(rhs)] * 2
            cols += [int(i), int(j)]
            data += [-1.0, -1.0]
            rhs.append(-slope)
    a_ub = coo_matrix((data, (rows, cols)), shape=(len(rhs), n))
    return space.weight, a_ub, np.asarray(rhs, dtype=float), [(0.0, None)] * n


def full_pair_gradient_seminorm(space, f):
    """Gradient-seminorm optimum from one HiGHS solve with a row for every pair.

    The rows of rowwise_gradient_lp, all at once; no rows means the optimum
    g = 0.  The solve runs on f / lp_unit(f) and its optimum is scaled back,
    which is exact.
    """
    unit = lp_unit(f)
    c, a_ub, b_ub, bounds = rowwise_gradient_lp(space, np.asarray(f, dtype=float) / unit)
    if not b_ub.size:
        return 0.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=TIGHT_HIGHS)
    assert res.status == 0, res.message
    return float(res.fun) * unit


def full_pair_k_functional(space, f, t):
    """K(f, t) from one HiGHS solve of the row-by-row LP, which holds every pair.

    The solve runs on f / lp_unit(f) and its optimum is scaled back, which is exact.
    """
    unit = lp_unit(f)
    c, a_ub, b_ub, bounds = rowwise_k_functional_lp(space, np.asarray(f, dtype=float) / unit, t)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=TIGHT_HIGHS)
    assert res.status == 0, res.message
    return float(res.fun) * unit


def k_plateau(space, f):
    """The value K(f, t) tends to as t grows: min over constants c of sum w |f - c|, by trying
    every value of f as c (the sum is convex and piecewise linear, with kinks there)."""
    f = np.asarray(f, dtype=float)
    return min(float(np.sum(space.weight * np.abs(f - c))) for c in f)


def lp_unit(f):
    """The power of 2 that lifts max |f| < 1 into [0.5, 1), else 1.

    HiGHS's tolerances are absolute, so a tiny f would leave pair violations
    below them.  The gradient seminorm and K(f, t) are positively homogeneous
    in f, so solving for f / unit and scaling the optimum by unit is exact.
    """
    return math.ldexp(1.0, min(0, math.frexp(float(np.abs(f).max(initial=0.0)))[1]))


def lp_vertex_minimum(c, a_ub, b_ub, n_nonneg):
    """Exhaustive vertex enumeration for min c.x s.t. a_ub x >= b_ub, x >= 0.

    All variables nonnegative; constraint rows are 'greater-equal'.  Returns
    the optimal value (objective is bounded below by 0 for c >= 0).
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.size
    rows = [(a_ub[k], b_ub[k]) for k in range(a_ub.shape[0])]
    rows += [(np.eye(n)[j], 0.0) for j in range(n_nonneg)]
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.stack([rows[k][0] for k in combo])
        rhs = np.array([rows[k][1] for k in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        if np.any(x < -1e-9):
            continue
        if np.all(a_ub @ x >= b_ub - 1e-9):
            best = min(best, float(c @ x))
    return best


def hajlasz_vertex_oracle(space, f):
    """Gradient-seminorm optimum by vertex enumeration (n <= 4 instances)."""
    f = np.asarray(f, dtype=float)
    n = space.n
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            target = abs(f[i] - f[j]) / space.dist[i, j]
            if target > 0.0:
                row = np.zeros(n)
                row[i] = row[j] = 1.0
                rows.append(row)
                rhs.append(target)
    if not rows:
        return 0.0
    return lp_vertex_minimum(space.weight, np.stack(rows), np.array(rhs), n)


def numeric_derivative(fn, t, h_rel=1e-5):
    h = t * h_rel
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def dense_sup(fn, lo, hi, n=200_000):
    ts = np.geomspace(lo, hi, n)
    return float(max(fn(t) for t in ts))


# -- power-log integrals at 30 digits ---------------------------------------------------------


def mp_power_log_integral(a, b, g, lo, hi):
    """int_lo^hi t^a (1 + ln+(1/t))^b (1 + ln(1 + ln+(1/t)))^g dt/t by mpmath quadrature.

    On (0, 1] it integrates in w = ln(1 + ln(1/t)), where the log powers become
    exponentials, split at the scales of the factor e^(-a u) (u = ln(1/t)) and
    at doublings of 1 + u.  lo = 0 is allowed where the integral converges.
    """
    with mp.workdps(30):
        a, b, g = mp.mpf(a), mp.mpf(b), mp.mpf(g)
        total = mp.mpf(0)
        if hi > 1.0:
            p = mp.mpf(max(lo, 1.0))
            span = mp.log(hi / p)
            total += span if a == 0 else p**a * mp.expm1(a * span) / a
        if lo < 1.0:
            u_lo = -mp.log(mp.mpf(min(hi, 1.0)))
            u_hi = mp.inf if lo == 0.0 else -mp.log(mp.mpf(lo))
            # past u_lo + 2^9/a the factor e^(-a u) has fallen by e^(-512): stop there
            top = u_hi if a <= 0 else min(u_hi, u_lo + 2**9 / a)
            us = {u_lo}
            for k in range(-2, 65, 2):
                if a != 0:
                    us.update((u_lo + 2**k / abs(a), u_hi - 2**k / abs(a)))
                us.add((1 + u_lo) * 2**k - 1)
            ws = sorted(mp.log1p(u) for u in us if u_lo <= u < top) + [mp.log1p(top)]
            f = lambda w: mp.exp(-a * mp.expm1(w) + (b + 1) * w) * (1 + w) ** g
            # mpmath's quad stops on an absolute error estimate: integrate f / max f
            scale = max(f(w) for w in ws if w != mp.inf)
            val, err = mp.quad(lambda w: f(w) / scale, ws, error=True)
            assert err < mp.mpf(10) ** -20 * val, (a, b, g, lo, hi, val, err)
            total += val * scale
        return float(total)


# The Besov scale sum of a profile's cells, in mpmath.


def mp_scale_sum(profile, s, q):
    """besov_from_profile's cells and tail, summed in 50-digit arithmetic."""
    with mp.workdps(50):
        r = [mp.mpf(x) for x in profile.radii.tolist()]
        v = [mp.mpf(x) for x in profile.values.tolist()]
        s, q = mp.mpf(s), mp.mpf(q)
        total = sum(v[i] ** q * (r[i] ** (-s * q) - r[i + 1] ** (-s * q))
                    for i in range(len(r) - 1))
        total += mp.mpf(profile.tail_value) ** q * r[-1] ** (-s * q)
        return (total / (s * q)) ** (1 / q)


def mp_power_root(base, factor, q):
    """(sum_i base_i^q factor_i)^(1/q) over the positive bases, in 50-digit arithmetic."""
    with mp.workdps(50):
        q = mp.mpf(q)
        total = sum(mp.mpf(b) ** q * mp.mpf(f)
                    for b, f in zip(base.tolist(), factor.tolist()) if b > 0.0)
        return total ** (1 / q)


# -- power-log norms of step functions, one hand-written loop per norm ---------------------
#
# Each loop integrates (or maximises over) the same panels as the panel kernel
# PowerLog.panel_norms / panel_max, skipping panels with a nonpositive
# value or an empty range.


def loop_lorentz_zygmund_norm(p, r, beta, fstar):
    """Lorentz-Zygmund L^{p,r}(log L)^beta quasi-norm of a step function."""
    edges = np.concatenate([[0.0], fstar.breakpoints])
    base = PowerLog(1.0 / p, beta)
    if math.isinf(r):
        best = 0.0
        for i, v in enumerate(fstar.values):
            if v > 0.0:
                best = max(best, v * base.sup_on(edges[i], edges[i + 1]))
        return best
    powered = base**r
    total = 0.0
    for i, v in enumerate(fstar.values):
        if v > 0.0:
            total += v**r * powered.integral_dt_over_t(edges[i], edges[i + 1])
    return total ** (1.0 / r)


def loop_lambda_w_norm(q, w, fstar):
    """(int (f*)^q w dt)^(1/q) of a step function."""
    edges = np.concatenate([[0.0], fstar.breakpoints])
    tw = PowerLog(w.a + 1.0, w.b, w.g, w.const)  # int w dt = int t w(t) dt/t
    total = 0.0
    for i, v in enumerate(fstar.values):
        if v > 0.0:
            total += v**q * tw.integral_dt_over_t(edges[i], edges[i + 1])
    return total ** (1.0 / q)


def loop_oscillation_functional(space, f, spec, alpha, s, q, q_dim):
    """Weighted dt/t norm of the oscillation gap over (0, min(1, mass))."""
    fstar = rearrangement(space, f)
    w_pl = _oscillation_weight(spec, alpha, s, q_dim)
    powered = fstar.power(alpha)
    upper = min(1.0, fstar.mass)
    panels = powered.panels(upper)
    if math.isinf(q):
        best = 0.0
        pl = PowerLog(-1.0 / alpha) * w_pl
        for lo, hi, _v, gap in panels:
            if gap > 0.0:
                best = max(best, gap ** (1.0 / alpha) * pl.sup_on(lo, hi))
        return best
    total = 0.0
    pl = (w_pl**q) * PowerLog(-q / alpha)
    for lo, hi, _v, gap in panels:
        if gap > 0.0:
            total += gap ** (q / alpha) * pl.integral_dt_over_t(lo, hi)
    return total ** (1.0 / q)


def _running_integral(h, weights, alpha, t):
    """int_0^t ((h*)^alpha), one atom at a time in decreasing order of |h|."""
    h = np.abs(np.asarray(h, dtype=float))
    total, used = 0.0, 0.0
    for i in np.argsort(-h, kind="stable").tolist():
        take = min(float(weights[i]), t - used)
        if take <= 0.0:
            break
        total += h[i] ** alpha * take
        used += take
    return total


def loop_gradient_constant(space, f, alpha, q_dim, n_dense=400):
    """sup over t in (0, mass/2] of gap(|f|^a, t) / (t^(a/Q) avg(g^a, t)), by brute force.

    The ratio is taken at every breakpoint mu{|f| > v} <= mass/2 of (f*)^a, v
    over the values of |f|, and on a dense grid of (0, mass/2]; running
    integrals come from the atoms one at a time and f* from the inf formula.
    g is hajlasz_seminorm_l1's field, the one the package reads.
    """
    f = np.asarray(f, dtype=float)
    if float(np.ptp(f)) == 0.0:
        return 0.0
    g = hajlasz_seminorm_l1(space, f)[1].g
    w = space.weight
    half = float(w.sum()) / 2.0
    cuts = {distribution_mass(f, w, v) for v in np.abs(f).tolist()}
    ts = sorted(t for t in cuts if 0.0 < t <= half) + np.linspace(
        half / n_dense, half, n_dense).tolist()
    best = 0.0
    for t in ts:
        gap = (_running_integral(f, w, alpha, t) / t
               - rearrangement_inf_formula(f, w, t) ** alpha)
        denom = t ** (alpha / q_dim) * _running_integral(g, w, alpha, t) / t
        if denom > 0.0:
            best = max(best, gap / denom)
    return best


def loop_weighted_step_norm(fstar, w, q):
    """(int_0^1 (f*(t) w(t))^q dt/t)^(1/q); the sup form for q = inf."""
    edges = np.concatenate([[0.0], fstar.breakpoints])
    if math.isinf(q):
        best = 0.0
        for i, v in enumerate(fstar.values):
            lo, hi = float(edges[i]), float(min(edges[i + 1], 1.0))
            if hi > lo and v > 0.0:
                best = max(best, v * w.sup_on(lo, hi))
        return best
    wq = w**q
    total = 0.0
    for i, v in enumerate(fstar.values):
        lo, hi = float(edges[i]), float(min(edges[i + 1], 1.0))
        if hi > lo and v > 0.0:
            total += v**q * wq.integral_dt_over_t(lo, hi)
    return total ** (1.0 / q)


# The rearrangement of one function, as written before rearrange.rearrangement_rows.


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
    breakpoints = np.cumsum(merged_w)
    # a run of positive mass that the sum loses to rounding would make a step of width 0
    lost = (np.diff(breakpoints) == 0.0) & (merged_w[1:] > 0.0)
    keep = np.concatenate([[True], ~lost])
    return StepDecreasing(breakpoints[keep], merged_vals[keep])


# The modulus, the modulus profile and the K-bounds one radius at a time, as
# written before smoothness._moduli: k_bounds evaluates the j = 0 scale twice.


def loop_modulus(space, f, r, spec, alpha):
    """Quasi-norm (in the alpha-convexified spec) of the scale-r ball roughness."""
    grad = nabla(space, f, r, alpha)
    return quasi_norm(convexify(spec, alpha), rearrangement(space, grad))


def loop_modulus_profile(space, f, spec, alpha, ratio=DEFAULT_GRID_RATIO):
    radii = radius_grid(space, ratio)
    conv = convexify(spec, alpha)
    f = np.asarray(f, dtype=float)
    diffs = np.abs(f[:, None] - f[None, :]) ** alpha
    vals = []
    for r in radii:
        grad = _ball_averages(space, diffs, [float(r)], alpha)[0]
        vals.append(quasi_norm(conv, rearrangement(space, grad)))
    full = _ball_averages(space, diffs, [2.0 * space.diameter + 1.0], alpha)[0]
    tail = quasi_norm(conv, rearrangement(space, full))
    return ModulusProfile(radii, np.asarray(vals), tail)


def loop_k_bounds(space, f, t, spec, alpha):
    """Modulus lower bound and truncated dyadic-sum upper bound at parameter t."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    lower = loop_modulus(space, f, t, spec, alpha)
    top = 2.0 * space.diameter
    j_cut = max(0, math.ceil(math.log2(top / t))) if t < top else 0
    total = 0.0
    for j in range(j_cut):
        total += 2.0 ** (-j * alpha) * loop_modulus(space, f, (2.0**j) * t, spec, alpha) ** alpha
    tail_e = loop_modulus(space, f, max(top, t) + 1.0, spec, alpha)
    total += 2.0 ** (-j_cut * alpha) * tail_e**alpha / (1.0 - 2.0 ** (-alpha))
    upper = total ** (1.0 / alpha)
    exact = None
    if spec.family == "lp" and spec.p == 1.0 and spec.convexify_power == 1.0 and alpha == 1.0:
        exact = k_functional_path(space, f, [t])[0]
    return KBounds(t=t, lower=lower, upper=upper, exact=exact)


# The collapse sweep as written before it shared work across eps: a fresh space
# per eps, with its own sorted rows, ball averages and rearrangements, and one
# full embedding report on it.


def per_eps_collapse_sweep(space, corpus, spec, alpha, s, q, eps_list, q_dim):
    """(eps, b, report) per eps, from embedding_report on a freshly built scaled space."""
    out = []
    for eps in eps_list:
        scaled = Space(space.dist, space.scale_weights(float(eps)).weight)
        out.append((float(eps), noncollapsing_constant(scaled),
                    embedding_report(scaled, corpus, spec, alpha, s, q, q_dim)))
    return out


# -- moved from oscembed.space ----------------------------------------------------------------


def critical_radii(space: Space) -> np.ndarray:
    """Radii where some ball B(x, r) or B(x, 2r) changes content, plus gap midpoints."""
    n = space.n
    if n < 2:
        return np.array([1.0])
    off = space.dist[np.triu_indices(n, k=1)]
    base = np.unique(np.concatenate([off, off / 2.0]))
    mids = (base[:-1] + base[1:]) / 2.0
    return np.unique(np.concatenate([base, mids]))


def upper_dimension(space: Space, c_mu: float | None = None) -> float:
    """log2 of the doubling constant."""
    c = doubling_constant(space) if c_mu is None else c_mu
    return float(np.log2(c))


# -- moved from oscembed.rearrange ------------------------------------------------------------


def maximal_average(fstar: StepDecreasing, t: float) -> float:
    """Running average (1/t) int_0^t of the step function; decreasing in t."""
    if not t > 0.0:
        raise DomainError(f"running average needs t > 0, got {t}")
    return fstar.integral(t) / t


def oscillation(fstar: StepDecreasing, alpha: float, t: float) -> float:
    """Gap (|f|^alpha running average - |f|^alpha value) at time t; always >= 0."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    powered = fstar.power(alpha)
    return maximal_average(powered, t) - float(powered.eval(t))


@dataclass(frozen=True)
class OscillationProfile:
    """Evaluator bundling the powered running average and its gap at one alpha."""

    fstar: StepDecreasing
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        object.__setattr__(self, "_powered", self.fstar.power(self.alpha))

    def eval(self, t: float) -> tuple[float, float]:
        """(powered running average, oscillation gap) at time t."""
        avg = maximal_average(self._powered, t)
        return avg, avg - float(self._powered.eval(t))


# -- moved from oscembed.rispace --------------------------------------------------------------


def indicator_step(mass: float) -> StepDecreasing:
    if not mass > 0.0:
        raise DomainError("indicator mass must be positive")
    return StepDecreasing(np.array([mass]), np.array([1.0]))


def fundamental_function(spec: RISpaceSpec, t: float) -> float:
    """Quasi-norm of an indicator of mass t (closed forms where they exist)."""
    if not t > 0.0:
        raise DomainError(f"fundamental function needs t > 0, got {t}")
    r = spec.convexify_power
    fam = spec.family
    if fam == "lp":
        val = 1.0 if math.isinf(spec.p) else t ** (1.0 / spec.p)
    elif fam == "lorentz":
        if math.isinf(spec.q):
            val = t ** (1.0 / spec.p)
        else:
            val = (spec.p / spec.q) ** (1.0 / spec.q) * t ** (1.0 / spec.p)
    elif fam in ("marcinkiewicz", "marcinkiewicz_tilde"):
        val = float(spec.weight(t))
    elif fam == "lambda_w":
        w = spec.weight
        val = PowerLog(w.a + 1.0, w.b, w.g, w.const).integral_dt_over_t(0.0, t) ** (1.0 / spec.q)
    else:
        val = quasi_norm(replace(spec, convexify_power=1.0), indicator_step(t))
    return val ** (1.0 / r) if r != 1.0 else val


def fundamental_dual(spec: RISpaceSpec, t: float) -> float:
    """t / phi(t): the fundamental function of the associate space."""
    return t / fundamental_function(spec, t)


def lambda_endpoint_norm(spec: RISpaceSpec, fstar: StepDecreasing) -> float:
    """int f* d(phi_X): the Lorentz endpoint built from the fundamental function."""
    phis = np.array([0.0] + [fundamental_function(spec, t) for t in fstar.breakpoints])
    return float(np.sum(fstar.values * np.diff(phis)))


def marcinkiewicz_endpoint_norm(spec: RISpaceSpec, fstar: StepDecreasing) -> float:
    """sup (phi_X(t)/t) int_0^t f*: the Marcinkiewicz endpoint of the space."""
    if float(fstar.values.max()) == 0.0:
        return 0.0
    return _norm_marcinkiewicz(lambda t: fundamental_function(spec, float(t)), fstar)


def alpha_convexity_defect(spec: RISpaceSpec, alpha: float, samples, space: Space) -> float:
    """Empirical lower bound for the alpha-convexity constant.

    samples is a sequence of tuples of function vectors; for each tuple the
    ratio || (sum |f_j|^alpha)^(1/alpha) || / (sum ||f_j||^alpha)^(1/alpha)
    is computed and the max is returned.  Values above 1 witness failure of
    the triangle-type inequality at this alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if not samples:
        raise DomainError("need at least one sample tuple")
    worst = 0.0
    for tup in samples:
        stack = np.stack([np.abs(np.asarray(f, dtype=float)) for f in tup])
        combined = (np.sum(stack**alpha, axis=0)) ** (1.0 / alpha)
        num = quasi_norm(spec, rearrangement(space, combined))
        den = sum(quasi_norm(spec, rearrangement(space, f)) ** alpha for f in tup) ** (1.0 / alpha)
        if den > 0.0:
            worst = max(worst, num / den)
    return worst


# -- moved from oscembed.smoothness -----------------------------------------------------------


def nabla(space: Space, f, r: float, alpha: float) -> np.ndarray:
    """Ball average of |f(x) - f(y)|^alpha over y in B(x, r), to the 1/alpha."""
    _check_ball_args(r, alpha)
    f = np.asarray(f, dtype=float)
    return _ball_averages(space, np.abs(f[:, None] - f[None, :]) ** alpha, [r], alpha)[0]


def t_r_operator(space: Space, f, r: float, alpha: float) -> np.ndarray:
    """Ball average of |f(y)|^alpha over y in B(x, r), to the 1/alpha."""
    _check_ball_args(r, alpha)
    f = np.abs(np.asarray(f, dtype=float)) ** alpha
    vals = np.broadcast_to(f[None, :], (space.n, space.n))
    return _ball_averages(space, vals, [r], alpha)[0]


def modulus(space: Space, f, r: float, spec: RISpaceSpec, alpha: float) -> float:
    """Quasi-norm (in the alpha-convexified spec) of the rearranged nabla at scale r."""
    return _moduli(space, f, [r], spec, alpha)[0]


def canonical_gradient(space: Space, f) -> GradientField:
    """g(x) = max_y |f(x)-f(y)| / d(x,y): always feasible, usually not optimal."""
    f = np.asarray(f, dtype=float)
    if space.n < 2:
        return GradientField.certify(space, f, np.zeros(space.n))
    return GradientField.certify(space, f, _slopes(space, f).max(axis=1))


def _coordinate_descent(space: Space, f, g0: np.ndarray) -> np.ndarray:
    """Lower each g(x) to its minimal feasible value given the others, in three cyclic sweeps.

    Every update preserves feasibility and is pointwise monotone, so any
    lattice quasi-norm of the field can only decrease.
    """
    ratio = _slopes(space, f)
    g = g0.copy()
    for _ in range(3):
        for x in range(space.n):
            need = ratio[x] - g
            need[x] = 0.0
            g[x] = max(0.0, float(need.max()))
    return g


def hajlasz_seminorm_upper(space: Space, f, spec: RISpaceSpec, alpha: float
                           ) -> tuple[float, GradientField]:
    """Best feasible-field upper bound for the gradient seminorm in spec^(alpha).

    Candidates: the canonical field, the L1-optimal field, and their
    coordinate-descent improvements.  Always an upper bound for the true
    infimum; exact when the L1-optimal field is optimal for the target norm.
    A failed or uncertified L1 solve raises its SolverError, which names the
    dump of the instance.
    """
    conv = convexify(spec, alpha)
    cands = [canonical_gradient(space, f).g, hajlasz_seminorm_l1(space, f)[1].g]
    cands.extend(_coordinate_descent(space, f, g) for g in list(cands))
    best_val, best_g = math.inf, None
    for g in cands:
        val = quasi_norm(conv, rearrangement(space, g))
        if val < best_val:
            best_val, best_g = val, g
    return best_val, GradientField.certify(space, f, best_g)


# -- moved from oscembed.embed ----------------------------------------------------------------


def tent_gradient(space: Space, x0: int) -> GradientField:
    """Indicator of B(x0, 2), certified feasible for the tent at x0."""
    g = (space.dist[x0] < 2.0).astype(float)
    return GradientField.certify(space, tent_function(space, x0), g)


def target_weight(spec: RISpaceSpec, alpha: float, s: float, q: float,
                  q_dim: float, t: float) -> float:
    """Closed-form weight w(t) with w^q(t)/t = d/dt (1 + m(t))^(1 - q/a).

    Only defined in the a < q < inf case with m(0) infinite; other parameter
    ranges are served by the sup form (q = inf) or a supplied u-weight
    (q <= a), and raise a domain error pointing there.
    """
    if not alpha < q or math.isinf(q):
        raise DomainError("target_weight covers alpha < q < inf only; "
                          "use the sup form for q = inf or a u-weight for q <= alpha")
    if not 0.0 < t <= 1.0:
        raise DomainError("weight defined on (0, 1]")
    if reciprocal_weight_finite(spec, alpha, s, q, q_dim):
        raise DomainError("m(0) is finite: the sup-norm embedding applies, no weight needed")
    v = _oscillation_weight(spec, alpha, s, q_dim).reciprocal()
    m_t = reciprocal_weight_integral(spec, alpha, s, q, q_dim, t) if t < 1.0 else 0.0
    return ((q / alpha - 1.0) ** (1.0 / q)
            * (1.0 + m_t) ** (-1.0 / alpha)
            * float(v(t)) ** (alpha / (q - alpha)))


def target_norm_lhs(space: Space, f, spec: RISpaceSpec, alpha: float, s: float, q: float,
                    q_dim: float) -> float:
    """target_norm_check's lhs of f, with the gauge m from one scalar call per t.

    The derivative form sums the primitive (1 + m(t))^(1 - q/a) over the
    edges of f*, the sup form takes the sup of (avg(t)/(1 + m(t)))^(1/a) over
    a fixed grid and the breakpoints of f*, and the u-weight form (q <= a)
    never evaluates m: it is weighted_step_norm with the norm weight.
    """
    fstar = rearrangement(space, f)
    if q <= alpha:
        return weighted_step_norm(fstar, _oscillation_weight(spec, alpha, s, q_dim), q)

    def m(t: float) -> float:
        return reciprocal_weight_integral(spec, alpha, s, q, q_dim, t) if t < 1.0 else 0.0

    if math.isinf(q):
        ts = np.unique(np.concatenate([np.geomspace(1e-10, 1.0, 200),
                                       fstar.breakpoints[fstar.breakpoints <= 1.0]]))
        avgs = fstar.power(alpha).integral(ts) / ts
        best = 0.0
        for t, avg in zip(ts.tolist(), avgs.tolist()):
            best = max(best, (avg / (1.0 + m(t))) ** (1.0 / alpha))
        return best

    def primitive(t: float) -> float:
        return 0.0 if t <= 0.0 else (1.0 + m(t)) ** (1.0 - q / alpha)  # m(0) = inf

    psi = np.array([primitive(float(t)) for t in np.minimum(fstar.edges, 1.0)])
    return float(fstar.values**q @ np.diff(psi)) ** (1.0 / q)
