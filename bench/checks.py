"""Independent computations and the correctness checks built on them.

Every check compares a program output with a quantity the benchmark computes
itself (an LP in dual form, ball masses from sorted distance rows, a direct
quadrature of a defining integral) or with a property the method must have.
No check compares with a stored copy of an earlier output.

A check returns a list of problems ``(item, message)``; ``item`` is the index
of the failed item in the workload's output, or ``None`` when the problem
concerns the whole output and so fails every item.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, hstack, vstack

# HiGHS stops at relative optimality/feasibility tolerances of about 1e-7;
# two exact LPs for the same optimum agree far closer than LP_RTOL.
LP_RTOL = 1e-6
# Quantities the program and the benchmark both compute from sums of the same
# weights; only the order of summation differs.
SUM_RTOL = 1e-12
QUAD_RTOL = 1e-8


# -- independent geometry ----------------------------------------------------------


def grid_coords(rows: int, cols: int, spacing: float) -> np.ndarray:
    return np.array([(i * spacing, j * spacing) for i in range(rows) for j in range(cols)],
                    dtype=float)


def euclidean_distances(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def tent(dist: np.ndarray, x0: int) -> np.ndarray:
    """1 on B(x0, 1), 2 - d on B(x0, 2) minus B(x0, 1), 0 outside."""
    d = dist[x0]
    return np.where(d < 1.0, 1.0, np.where(d < 2.0, 2.0 - d, 0.0))


def unit_ball_masses(dist: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """mu(B(x, 1)) = sum of weights at distance < 1, summed in sorted-row order."""
    order = np.argsort(dist, axis=1, kind="stable")
    inside = np.take_along_axis(dist, order, axis=1) < 1.0
    return np.where(inside, weight[order], 0.0).sum(axis=1)


def _sorted_rows(dist: np.ndarray, weight: np.ndarray):
    """Each row of dist sorted, with prefix sums of the weights in that order."""
    order = np.argsort(dist, axis=1, kind="stable")
    sd = np.take_along_axis(dist, order, axis=1)
    prefix = np.concatenate([np.zeros((dist.shape[0], 1)), np.cumsum(weight[order], axis=1)],
                            axis=1)
    return sd, prefix


def doubling_constant(dist: np.ndarray, weight: np.ndarray) -> float:
    """sup over x, r of mu(B(x, 2r)) / mu(B(x, r)), by one sorted-row scan.

    For r in (e_k, e_{k+1}], with e_k the distinct distances of row x, the
    ball B(x, r) is {d <= e_k}; B(x, 2r) grows with r, so the sup on that
    interval is W(d < 2 e_{k+1}) / W(d <= e_k).
    """
    sd, prefix = _sorted_rows(dist, weight)
    best = 1.0
    for x in range(dist.shape[0]):
        row = sd[x]
        e_next = row[1:]  # row[0] is the point itself at distance 0
        inner = prefix[x, np.searchsorted(row, e_next, side="left")]
        outer = prefix[x, np.searchsorted(row, 2.0 * e_next, side="left")]
        best = max(best, float((outer / inner).max()))
    return best


def growth_constant(dist: np.ndarray, weight: np.ndarray, q_dim: float) -> float:
    """min over x and r in (0, 1] of mu(B(x, r)) / r^Q.

    The ball mass is constant on (e_k, e_{k+1}] and r^Q increases, so the
    minimum sits at a distance e_{k+1} <= 1 of the row or at r = 1.
    """
    sd, prefix = _sorted_rows(dist, weight)
    best = math.inf
    for x in range(dist.shape[0]):
        row = sd[x]
        radii = np.append(row[(row > 0.0) & (row <= 1.0)], 1.0)
        masses = prefix[x, np.searchsorted(row, radii, side="left")]
        best = min(best, float((masses / radii ** q_dim).min()))
    return best


# -- independent LPs ------------------------------------------------------------------


def _pair_operators(dist: np.ndarray):
    """Pair list, the d-weighted divergence (n x m) and the incidence (n x m)."""
    n = dist.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    m = ii.size
    d = dist[ii, jj]
    cols = np.concatenate([np.arange(m), np.arange(m)])
    rows = np.concatenate([ii, jj])
    div = coo_matrix((np.concatenate([1.0 / d, -1.0 / d]), (rows, cols)), shape=(n, m)).tocsr()
    inc = coo_matrix((np.ones(2 * m), (rows, cols)), shape=(n, m)).tocsr()
    return ii, jj, div, inc


def canonical_gradient_l1(dist: np.ndarray, weight: np.ndarray, f: np.ndarray) -> float:
    """||g_can||_L1 for g_can(x) = max_y |f(x) - f(y)| / d(x, y)."""
    n = f.size
    off = ~np.eye(n, dtype=bool)
    ratio = np.zeros((n, n))
    ratio[off] = np.abs(f[:, None] - f[None, :])[off] / dist[off]
    return float(weight @ ratio.max(axis=1))


def k_functional_dual(dist: np.ndarray, weight: np.ndarray, f: np.ndarray, t: float) -> float:
    """K(f, t) for the L1 pair from the dual of the split LP, as a flow problem.

    max  sum_x f(x) div(rho)(x)
    s.t. |div(rho)(x)| <= w(x),  sum_y |rho(x, y)| <= t w(x),
    with div(rho)(x) = sum_y rho(x, y) / d(x, y) over pairs; rho = p - q, p, q >= 0.
    """
    _ii, _jj, div, inc = _pair_operators(dist)
    score = div.T @ f
    c = np.concatenate([-score, score])
    a_ub = vstack([
        hstack([div, -div]),
        hstack([-div, div]),
        hstack([inc, inc]),
    ]).tocsr()
    b_ub = np.concatenate([weight, weight, t * weight])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"dual K LP failed: {res.message}")
    return -float(res.fun)


def hajlasz_dual(dist: np.ndarray, weight: np.ndarray, f: np.ndarray) -> float:
    """Weighted-L1 gradient seminorm from the dual LP (a fractional matching).

    max sum_{x<y} lam(x, y) |f(x) - f(y)| / d(x, y)
    s.t. sum_y lam(x, y) <= w(x), lam >= 0.
    """
    ii, jj, _div, inc = _pair_operators(dist)
    c = -np.abs(f[ii] - f[jj]) / dist[ii, jj]
    res = linprog(c, A_ub=inc, b_ub=weight, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"dual gradient LP failed: {res.message}")
    return -float(res.fun)


# -- independent rearrangement and Lorentz-Zygmund quadrature ---------------------------


def lorentz_zygmund_norm(f: np.ndarray, weight: np.ndarray, p: float, r: float,
                         beta: float) -> float:
    """(int_0^mass (t^(1/p) (1 + ln+(1/t))^beta f*(t))^r dt/t)^(1/r), by quad per panel."""
    a = np.abs(np.asarray(f, dtype=float))
    order = np.argsort(-a, kind="stable")
    values = a[order]
    edges = np.concatenate([[0.0], np.cumsum(weight[order])])

    def kernel(t: float) -> float:
        return (t ** (1.0 / p) * (1.0 + max(0.0, math.log(1.0 / t))) ** beta) ** r / t

    total = 0.0
    for k, v in enumerate(values):
        lo, hi = float(edges[k]), float(edges[k + 1])
        if v == 0.0 or hi <= lo:
            continue
        points = [1.0] if lo < 1.0 < hi else None
        val, _err = quad(kernel, lo, hi, points=points, limit=400,
                         epsabs=0.0, epsrel=1e-12)
        total += v ** r * val
    return total ** (1.0 / r)


# -- checks on parsed outputs -------------------------------------------------------------


class Problem(NamedTuple):
    """A failed check: the item index (a list of indices, or None for every item)."""

    item: int | list | None
    message: str
    wrong: bool = True  # False: the output is malformed, not known to be wrong


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


def parse_number(text: str) -> tuple[float, bool]:
    """(value, is_float_literal) of a number the CLI wrote with repr().

    The CLI promises shortest round-trip float literals; numpy scalars print
    as ``np.float64(...)`` instead, which is read here but reported.
    """
    match = _NUMPY_REPR.fullmatch(text)
    if match:
        return float(match.group(1)), False
    return float(text), True


_NUMPY_REPR = re.compile(r"np\.float(?:64|32)\((.*)\)")


def check_kfun(payload: dict, dist: np.ndarray, weight: np.ndarray, funcs: list,
               t_count: int, sample: list[int]) -> list[Problem]:
    """K-sandwich rows of ``verify --theorem teointerpol``.

    Rows come function-major, t_count per function.  Checks: bounds
    0 <= K <= min(||f||_1, t ||g_can||_1); K nondecreasing and concave in t;
    K equal to the dual LP on the sampled rows; C1, C2 derived from the rows.
    """
    rows = payload["rows"]
    if len(rows) != len(funcs) * t_count:
        return [Problem(None, f"{len(rows)} rows, expected {len(funcs) * t_count}")]
    problems = []
    ks = np.array([float(row["exact"]) for row in rows]).reshape(len(funcs), t_count)
    ts = np.array([float(row["t"]) for row in rows]).reshape(len(funcs), t_count)
    for i, f in enumerate(funcs):
        l1 = float(weight @ np.abs(f))
        g1 = canonical_gradient_l1(dist, weight, f)
        tol = LP_RTOL * max(1.0, float(np.abs(ks[i]).max()))
        for j in range(t_count):
            k, t = ks[i, j], ts[i, j]
            cap = min(l1, t * g1)
            if not (math.isfinite(k) and -tol <= k <= cap + tol):
                problems.append(Problem(i * t_count + j,
                                        f"K={k!r} outside [0, {cap!r}] at t={t!r}"))
        for j in np.flatnonzero(np.diff(ks[i]) < -tol):
            problems.append(Problem(i * t_count + j + 1, f"K decreases in t after t={ts[i, j]!r}"))
        for j in range(1, t_count - 1):
            t0, t1, t2 = ts[i, j - 1:j + 2]
            chord = ks[i, j - 1] + (ks[i, j + 1] - ks[i, j - 1]) * (t1 - t0) / (t2 - t0)
            if ks[i, j] < chord - tol:
                problems.append(Problem(i * t_count + j, f"K not concave in t at t={t1!r}"))
    for idx in sample:
        i, j = divmod(idx, t_count)
        dual = k_functional_dual(dist, weight, funcs[i], float(ts[i, j]))
        if not _close(ks[i, j], dual, LP_RTOL):
            problems.append(Problem(idx, f"K={ks[i, j]!r} but dual LP gives {dual!r}"))
    c1, c2 = 0.0, 0.0
    for row in rows:
        lower, exact, upper = (float(row[key]) for key in ("lower", "exact", "upper"))
        if exact > 0.0:
            c1 = max(c1, lower / exact)
            c2 = max(c2, exact / upper)
    if payload["C1"] != c1 or payload["C2"] != c2 * c1:
        problems.append(Problem(None, f"C1={payload['C1']!r}, C2={payload['C2']!r} do not "
                                      f"follow from the rows ({c1!r}, {c2 * c1!r})"))
    return problems


def check_collapse(payload: dict, dist: np.ndarray, weight: np.ndarray,
                   eps_list: list[float]) -> list[Problem]:
    """collapse-sweep rows: row k is eps_list[k]; b = eps * min_x mu(B(x, 1))."""
    rows = payload["rows"]
    if [row["eps"] for row in rows] != eps_list:
        return [Problem(None, f"eps column {[row['eps'] for row in rows]} != {eps_list}")]
    b_unit = float(unit_ball_masses(dist, weight).min())
    problems = []
    for k, row in enumerate(rows):
        expect = row["eps"] * b_unit
        if not abs(row["b"] - expect) <= SUM_RTOL * expect:
            problems.append(Problem(k, f"b={row['b']!r} at eps={row['eps']!r}, "
                                       f"expected {expect!r}"))
        c = row["empirical_constant"]
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c >= 0.0):
            problems.append(Problem(k, f"constant {c!r} at eps={row['eps']!r} "
                                       "not finite and >= 0"))
    return problems


def check_quasi_norms(program_norms: list[float], funcs: list, weights: list,
                      p: float, r: float, beta: float) -> list[Problem]:
    """Program LZ quasi-norms against the benchmark's own quadrature, pairwise."""
    problems = []
    for k, (got, f, w) in enumerate(zip(program_norms, funcs, weights)):
        own = lorentz_zygmund_norm(f, w, p, r, beta)
        if not _close(got, own, QUAD_RTOL):
            problems.append(Problem(k, f"quasi_norm={got!r} but own quadrature gives {own!r}"))
    return problems


def check_teomo1(payload: dict, dist: np.ndarray, weight: np.ndarray,
                 n_funcs: int) -> list[Problem]:
    """teomo1 payload: growth constant recomputed, every constant finite and >= 0.

    Items 0..n_funcs-1 are the function rows; item n_funcs is the format of
    the rows, which must be float literals.
    """
    rows = payload["rows"]
    if len(rows) != n_funcs:
        return [Problem(None, f"{len(rows)} rows, expected {n_funcs}")]
    problems = []
    q_dim = math.log2(doubling_constant(dist, weight))
    expect = growth_constant(dist, weight, q_dim)
    got = payload["growth_constant"]
    if not _close(got, expect, 1e-9):
        problems.append(Problem(None, f"growth_constant={got!r}, expected {expect!r} "
                                      f"(Q={q_dim!r})"))
    parsed = [parse_number(row["constant"]) for row in rows]
    for k, (c, _literal) in enumerate(parsed):
        if not (math.isfinite(c) and c >= 0.0):
            problems.append(Problem(k, f"constant {c!r} not finite and >= 0"))
    malformed = [rows[k]["constant"] for k, (_c, literal) in enumerate(parsed) if not literal]
    if malformed:
        problems.append(Problem(n_funcs, f"{len(malformed)} constants are not float literals, "
                                         f"e.g. {malformed[0]!r}", wrong=False))
    worst = max(c for c, _literal in parsed)
    if payload["max_constant"] != worst:
        problems.append(Problem(None, f"max_constant={payload['max_constant']!r} != {worst!r}"))
    return problems


def check_hajlasz(program_values: list[float], funcs: list, dist: np.ndarray,
                  weight: np.ndarray, items: list[int]) -> list[Problem]:
    """Program L1 gradient seminorms against the benchmark's dual LP."""
    problems = []
    for got, f, item in zip(program_values, funcs, items):
        dual = hajlasz_dual(dist, weight, f)
        if not _close(got, dual, LP_RTOL):
            problems.append(Problem(item, f"hajlasz_seminorm_l1={got!r} but dual LP "
                                          f"gives {dual!r}"))
    return problems
