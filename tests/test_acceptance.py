"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing defers to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from oscembed import (collapse_sweep, diagnostics, embedding_report, grid_space,
                      hajlasz_seminorm_l1, k_bounds, load_space, lorentz,
                      lorentz_zygmund, lp, oscillation_gradient_constant,
                      path_space, random_geometric_space,
                      reciprocal_weight_finite, reciprocal_weight_integral,
                      regime_classify, space_from_matrix, tent_function)
from oscembed.cli import main as cli_main
from oscembed.embed import lz_base_spec
from oscembed.rearrange import rearrangement_from_weights

from _oracles import (distribution_mass, hajlasz_vertex_oracle, maximal_average,
                      numeric_derivative, product_step_integral, target_weight)


def _report(name: str, runtime: float, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({runtime:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def fine_grid_space(rows=8, cols=8, h=0.4):
    """Euclidean grid, weights scaled so the unit-ball mass infimum is 1."""
    coords = np.array([(i * h, j * h) for i in range(rows) for j in range(cols)])
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    sp = space_from_matrix(dist, np.ones(rows * cols))
    return sp.scale_weights(1.0 / float(sp.ball_masses(1.0).min()))


def tent_mix_corpus(space, n_diff=12, n_tent=8, row=8):
    """Tents at spread-out centers plus near/far tent differences.

    Pure tents have zero oscillation below the unit-ball mass, so on a
    non-collapsed space the differences carry the informative ratios.
    """
    out = [tent_function(space, x) for x in range(0, space.n, max(1, space.n // n_tent))]
    for x in range(min(n_diff, space.n - 1)):
        out.append(tent_function(space, x) - tent_function(space, x + 1))
        if x + row < space.n:
            out.append(tent_function(space, x) - tent_function(space, x + row))
    return [f for f in out if np.ptp(f) > 0.0]


# -- 1: rearrangement exactness ------------------------------------------------------------


def test_criterion_1_rearrangement_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    sizes = [5, 23, 64, 117, 200]
    weight_sets = [rng.uniform(0.05, 3.0, n) for n in sizes]
    worst = 0.0
    for k in range(1000):
        w = weight_sets[k % len(sizes)]
        n = w.size
        f = rng.normal(size=n)
        if k % 3 == 0:
            f = f.round(1)  # force ties
        fs = rearrangement_from_weights(f, w)
        levels = np.concatenate([np.unique(np.abs(f)), [0.0]])
        mids = (levels[:-1] + levels[1:]) / 2.0 if levels.size > 1 else []
        for s in np.concatenate([levels, mids]):
            mu_f = distribution_mass(f, w, s)
            above = fs.values > s
            mu_star = float(fs.breakpoints[above][-1]) if above.any() else 0.0
            worst = max(worst, abs(mu_f - mu_star))
    runtime = time.time() - t0
    _report("criterion 1: rearrangement exactness", runtime,
            worst <= 1e-12 and runtime < 10.0, f"max level-set gap {worst:.2e}")


# -- 2: rearrangement inequality suite -----------------------------------------------------


def _gauss_panel_integral(fs_pow, q, t_lo):
    """q * int_{t_lo}^1 F^{q-1} gap(s) ds/s by per-panel 24-point Gauss.

    On each breakpoint-free panel the running average is val + gap/s and the
    gap term is gap/s, so the integrand is smooth and Gauss nodes suffice.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for lo, hi, val, gap in fs_pow.panels(1.0):
        a, b = max(lo, t_lo), min(hi, 1.0)
        if b <= a or gap == 0.0:
            continue
        ss = (nodes + 1.0) * (b - a) / 2.0 + a
        favg = val + gap / ss
        total += (b - a) / 2.0 * float(np.sum(weights * favg ** (q - 1.0) * gap / ss**2))
    return q * total


def test_criterion_2_inequality_suite():
    t0 = time.time()
    rng = np.random.default_rng(102)
    hl_ok = xxx_ok = dbl_ok = pow_ok = rec_ok = True
    worst_rec = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 24))
        w = rng.uniform(0.05, 0.4, n)
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        fs = rearrangement_from_weights(f, w)
        gs = rearrangement_from_weights(g, w)
        hs = rearrangement_from_weights(f + g, w)
        # Hardy-Littlewood pairing
        lhs = float(np.sum(np.abs(f * g) * w))
        rhs = product_step_integral(fs.breakpoints, fs.values, gs.breakpoints, gs.values)
        hl_ok &= lhs <= rhs + 1e-10
        # subadditivity at doubled time and for averages
        for t in np.linspace(hs.mass * 0.05, hs.mass * 0.45, 5):
            xxx_ok &= hs.eval(2.0 * t) <= fs.eval(t) + gs.eval(t) + 1e-12
            dbl_ok &= (maximal_average(hs, t)
                       <= maximal_average(fs, t) + maximal_average(gs, t) + 1e-12)
        # power rule
        alpha = float(rng.uniform(0.2, 1.0))
        powered = rearrangement_from_weights(np.abs(f) ** alpha, w)
        direct = fs.power(alpha)
        for t in np.linspace(0.0, fs.mass * 0.99, 7):
            pow_ok &= abs(float(powered.eval(t)) - float(direct.eval(t))) <= 1e-12
        # average-power reconstruction, q in {0.5, 1, 2}
        if fs.mass > 0.3 and fs.values[0] > 0.0:
            alpha_r = float(rng.uniform(0.3, 1.0))
            fpow = fs.power(alpha_r)
            boundary = fpow.integral(min(1.0, fpow.mass))
            for q in (0.5, 1.0, 2.0):
                for t in (0.05 * fs.mass, 0.25):
                    if not 0.0 < t < 1.0:
                        continue
                    lhs_r = maximal_average(fpow, t) ** q
                    rhs_r = _gauss_panel_integral(fpow, q, t) + boundary**q
                    err = abs(lhs_r - rhs_r) / max(lhs_r, 1e-300)
                    worst_rec = max(worst_rec, err)
                    rec_ok &= err < 1e-6
    runtime = time.time() - t0
    ok = hl_ok and xxx_ok and dbl_ok and pow_ok and rec_ok and runtime < 30.0
    _report("criterion 2: rearrangement inequality suite", runtime, ok,
            f"reconstruction worst rel err {worst_rec:.2e}")


# -- 3: averaging-operator bounds ---------------------------------------------------------


def _check_t_r_bounds(space, n_funcs, rng, alpha):
    """Exact (a1)/(a2) checks at every distinct radius via an incremental scan."""
    n = space.n
    f_mat = rng.normal(size=(n, n_funcs))
    g_mat = np.abs(f_mat) ** alpha * space.weight[:, None]  # per-point contributions
    sup_f = np.abs(f_mat).max(axis=0) ** alpha
    total = float(0.0) + np.sum(np.abs(f_mat) ** alpha * space.weight[:, None], axis=0)
    c_mu = diagnostics(space).c_mu
    order = np.argsort(space.dist, axis=1, kind="stable")
    radii = np.unique(space.dist[space.dist > 0.0])
    radii = np.concatenate([radii, [space.diameter + 1.0]])
    num = np.zeros((n, n_funcs))
    den = np.zeros(n)
    ptr = np.zeros(n, dtype=int)
    viol_a1 = viol_a2 = 0
    for r in radii:
        for x in range(n):
            row = space.dist[x]
            while ptr[x] < n and row[order[x, ptr[x]]] < r:
                y = order[x, ptr[x]]
                num[x] += g_mat[y]
                den[x] += space.weight[y]
                ptr[x] += 1
        avg = num / den[:, None]            # T_r f ^ alpha per point/function
        viol_a1 += int(np.any(avg.max(axis=0) > sup_f + 1e-9 * (1.0 + sup_f)))
        lhs = space.weight @ avg            # ||T_r f||_alpha^alpha
        viol_a2 += int(np.any(lhs > c_mu * total + 1e-9 * (1.0 + total)))
    return viol_a1, viol_a2, len(radii)


def test_criterion_3_averaging_bounds():
    t0 = time.time()
    rng = np.random.default_rng(103)
    spaces = [path_space(16), grid_space(8, 8),
              random_geometric_space(100, 0.18, seed=7)]
    total_viol = 0
    total_radii = 0
    for sp in spaces:
        v1, v2, nr = _check_t_r_bounds(sp, 200, rng, alpha=0.7)
        total_viol += v1 + v2
        total_radii += nr
    runtime = time.time() - t0
    _report("criterion 3: averaging-operator bounds", runtime,
            total_viol == 0 and runtime < 60.0,
            f"{total_radii} radii scanned, {total_viol} violations")


# -- 4: LP vs vertex enumeration ------------------------------------------------------------


def test_criterion_4_lp_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        pts = rng.random((n, 2))
        sp = load_space({"coords": pts.tolist(), "metric": "euclidean",
                         "weights": list(rng.uniform(0.2, 2.0, n))})
        f = rng.normal(size=n)
        val, _ = hajlasz_seminorm_l1(sp, f)
        oracle = hajlasz_vertex_oracle(sp, f)
        worst = max(worst, abs(val - oracle) / max(1.0, abs(oracle)))
    runtime = time.time() - t0
    _report("criterion 4: LP vertex-oracle agreement", runtime,
            worst < 1e-8 and runtime < 20.0, f"max rel err {worst:.2e}")


# -- 5: two-sided K sandwich ------------------------------------------------------------------


def _sandwich_constants(space, corpus, ts):
    spec = lp(1.0)
    c1 = c2 = 0.0
    for f in corpus:
        for t in ts:
            kb = k_bounds(space, f, float(t), spec, 1.0)
            if kb.exact and kb.exact > 1e-12:
                c1 = max(c1, kb.lower / kb.exact)
                c2 = max(c2, kb.exact / kb.upper)
    return c1, c2


def test_criterion_5_k_sandwich():
    t0 = time.time()
    sp = grid_space(8, 8)
    rng = np.random.default_rng(105)
    corpus = [tent_function(sp, x) for x in range(0, 64, 4)]
    corpus += [rng.normal(size=64) for _ in range(40 - len(corpus))]
    ts = np.geomspace(0.2, 25.0, 20)
    c1, c2 = _sandwich_constants(sp, corpus, ts)
    drift = 0.0
    for lam in (0.1, 10.0):
        c1s, c2s = _sandwich_constants(sp.scale_weights(lam), corpus, ts)
        drift = max(drift, abs(c1s - c1) / c1, abs(c2s - c2) / c2)
    runtime = time.time() - t0
    ok = (0.0 < c1 < math.inf and 0.0 < c2 < math.inf and drift < 0.01
          and runtime < 300.0)
    _report("criterion 5: two-sided K sandwich", runtime, ok,
            f"C1={c1:.3f} scale-gap={c2:.3f} drift={drift:.2e}")


# -- 6: norm-family independence ------------------------------------------------------------------


def test_criterion_6_family_independence():
    t0 = time.time()
    sp = fine_grid_space(8, 8, 0.4)
    diag = diagnostics(sp)
    assert diag.b >= 1.0 - 1e-9
    corpus = tent_mix_corpus(sp)
    specs = [lp(1.0), lp(2.0), lorentz(2.0, math.inf), lorentz_zygmund(1.5, 2.0, 0.5)]
    consts = []
    for spec in specs:
        rep = embedding_report(sp, corpus, spec, 1.0, 0.5, 2.0, diag.q_dim)
        consts.append(rep.empirical_constant)
    runtime = time.time() - t0
    spread = max(consts) / min(consts)
    ok = all(0.0 < c < math.inf for c in consts) and spread < 3.0 and runtime < 120.0
    _report("criterion 6: norm-family independence", runtime, ok,
            "constants " + ", ".join(f"{c:.3f}" for c in consts)
            + f" spread x{spread:.2f}")


# -- 7: collapse sensitivity --------------------------------------------------------------------------


def test_criterion_7_collapse_sensitivity():
    t0 = time.time()
    sp = fine_grid_space(8, 8, 0.4)
    diag = diagnostics(sp)
    corpus = tent_mix_corpus(sp)
    rows = collapse_sweep(sp, corpus, lp(1.0), 1.0, 0.9, 1.0,
                          [1.0, 1e-1, 1e-2, 1e-3, 1e-4], diag.q_dim)
    consts = [row["empirical_constant"] for row in rows]
    monotone = all(a <= b * (1.0 + 1e-9) for a, b in zip(consts[:-1], consts[1:]))
    growth = consts[-1] / consts[0] if consts[0] > 0.0 else math.inf
    runtime = time.time() - t0
    ok = monotone and growth >= 10.0 and runtime < 120.0
    _report("criterion 7: collapse sensitivity", runtime, ok,
            "constants " + ", ".join(f"{c:.3g}" for c in consts)
            + f" growth x{growth:.3g}")


# -- 8: pointwise gradient-bound stability ----------------------------------------------------------------


def test_criterion_8_gradient_bound_stability():
    t0 = time.time()
    sp = path_space(8)
    diag = diagnostics(sp)
    ok = True
    detail = []
    for x0 in (1, 3, 5):
        f = tent_function(sp, x0)
        c200 = oscillation_gradient_constant(sp, f, 1.0, diag.q_dim, n_grid=200)
        c400 = oscillation_gradient_constant(sp, f, 1.0, diag.q_dim, n_grid=400)
        scaled = oscillation_gradient_constant(sp, 7.0 * f, 1.0, diag.q_dim, n_grid=200)
        ok &= abs(c400 - c200) / c200 < 0.10
        ok &= abs(scaled - c200) / c200 < 1e-9
        detail.append(f"{c200:.3f}")
    runtime = time.time() - t0
    _report("criterion 8: gradient-bound stability", runtime, ok and runtime < 60.0,
            "constants " + ", ".join(detail))


# -- 9: weight machinery --------------------------------------------------------------------------------------


def _linf_conditions(p, r, beta, s, q, q_dim):
    """The case conditions for the sup-norm regime, straight from the table."""
    mpr = min(1.0, p, r)
    one_over_q = 0.0 if math.isinf(q) else 1.0 / q
    if s > q_dim / p:
        return True
    if s == q_dim / p:
        if mpr < q:
            return beta > 1.0 / mpr - one_over_q
        return beta >= 0.0
    return False


def test_criterion_9_weight_machinery():
    t0 = time.time()
    rng = np.random.default_rng(109)
    # (a) gauge finiteness matches the case conditions on a random grid
    mismatches = 0
    for _ in range(10_000):
        p = float(rng.uniform(0.2, 3.0))
        r = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.2, 3.0)) if rng.random() > 0.15 else math.inf
        q_dim = float(rng.uniform(0.5, 3.0))
        reg = regime_classify(p, r, beta, s, q, q_dim)
        spec = lz_base_spec(p, r, beta, reg.alpha_used)
        finite = reciprocal_weight_finite(spec, reg.alpha_used, s, q, q_dim)
        cond = _linf_conditions(p, r, beta, s, q, q_dim)
        mismatches += ((reg.case_id == "Linf") != cond) + (finite != cond)
    # (b) derivative-weight closed form vs numeric differentiation, power-law case
    spec, alpha, s, q, q_dim = lp(1.0), 1.0, 0.5, 2.0, 2.0

    def primitive(t):
        return (1.0 + reciprocal_weight_integral(spec, alpha, s, q, q_dim, t)) \
            ** (1.0 - q / alpha)

    worst_w = 0.0
    for t in np.geomspace(1e-6, 0.9, 25):
        w = target_weight(spec, alpha, s, q, q_dim, float(t))
        deriv = numeric_derivative(primitive, float(t))
        worst_w = max(worst_w, abs(w**q / t - deriv) / deriv)
    # (c) golden case rows of the final classification table
    golden = [
        ((2.0, 2.0, 0.0, 0.8, 2.0, 1.0), ("Linf", "1_linf")),
        ((2.0, 2.0, 2.0, 0.5, 2.0, 1.0), ("Linf", "2_linf")),
        ((0.5, 2.0, 1.9, 0.5, 8.0, 0.25), ("Linf", "2_linf")),
        ((2.0, 2.0, 0.5, 0.5, 2.0, 1.0), ("loglog_target", "2a_i")),
        ((2.0, 2.0, 1.0, 0.5, math.inf, 1.0), ("loglog_target", "2a_i")),
        ((2.0, 2.0, 0.0, 0.5, 2.0, 1.0), ("log_target", "2a_ii")),
        ((2.0, 2.0, -1.0, 0.5, 0.5, 1.0), ("log_target", "2a_iii")),
        ((0.5, 2.0, 0.0, 0.5, 1.0, 0.25), ("log_target", "2b_i")),
        ((0.5, 2.0, -1.0, 0.5, 0.25, 0.25), ("log_target", "2b_ii")),
        ((2.0, 2.0, 0.0, 0.3, 2.0, 1.0), ("lorentz_target", "1")),
        ((2.0, 0.5, 0.0, 0.5, 2.0, 1.0), ("log_target", "2a_ii")),
        ((1.5, 2.0, 0.0, 1.0 / 1.5, 2.0, 1.0), ("log_target", "2a_ii")),
        ((0.5, 2.0, 0.0, 0.5, 2.0, 0.25), ("log_target", "2b_i")),
        ((2.0, 2.0, 0.0, 0.5, 0.4, 1.0), ("Linf", "2_linf")),
    ]
    golden_bad = sum((regime_classify(*args).case_id,
                      regime_classify(*args).subcase) != expect
                     for args, expect in golden)
    runtime = time.time() - t0
    ok = (mismatches == 0 and worst_w < 1e-6 and golden_bad == 0 and runtime < 60.0)
    _report("criterion 9: weight machinery", runtime, ok,
            f"gauge mismatches {mismatches}, weight err {worst_w:.2e}, "
            f"golden misses {golden_bad}")


# -- 10: CLI determinism -------------------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    import json

    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({
        "metric": "graph", "edges": [[i, i + 1] for i in range(7)],
        "weights": [1.0] * 8}))
    args = ["verify", "--theorem", "k1", "--space", str(space_path),
            "--corpus", '{"generator": "lipschitz-noise", "count": 6}',
            "--seed", "11", "--s", "0.4", "--q", "1.0"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(args + ["--out", str(out1)])
    rc2 = cli_main(args + ["--out", str(out2)])
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in ("verify-k1.csv", "verify-k1.json"))
    runtime = time.time() - t0
    _report("criterion 10: CLI determinism", runtime,
            rc1 == 0 and rc2 == 0 and identical and runtime < 10.0,
            "byte-identical artifacts")
