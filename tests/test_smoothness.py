"""Ball averages, moduli, Besov seminorms, gradient LPs, and K bounds."""

import math
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscembed import (DomainError, GradientField, ModulusProfile, besov_seminorm,
                      convexify, grid_space, hajlasz_seminorm_l1, k_bounds, k_functional_l1,
                      lp, modulus_profile, path_space, quasi_norm, rearrangement,
                      space_from_matrix)
from oscembed import SolverError, smoothness, space_from_graph, space_from_points
from oscembed.embed import oscillation_gradient_constant
from oscembed.smoothness import besov_from_profile, k_functional_l1_nonhomogeneous
from oscembed.space import diagnostics

from _oracles import (canonical_gradient, critical_radii, full_pair_gradient_seminorm,
                      full_pair_k_functional, hajlasz_seminorm_upper, hajlasz_vertex_oracle,
                      modulus, nabla, rowwise_k_functional_lp, t_r_operator)

TWO = space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])


# -- ball averages --------------------------------------------------------------------


def test_nabla_constant_zero():
    sp = path_space(6)
    for r in (0.5, 1.5, 10.0):
        assert np.allclose(nabla(sp, np.full(6, 3.3), r, 0.7), 0.0)


def test_nabla_two_points_strict_ball():
    assert np.allclose(nabla(TWO, [0.0, 1.0], 1.0, 1.0), [0.0, 0.0])


def test_nabla_two_points_enumeration():
    # each ball holds both atoms; mean of |f(x)-f(y)| over y is 1/2
    got = nabla(TWO, [0.0, 1.0], 1.5, 1.0)
    assert np.allclose(got, [0.5, 0.5])


def test_nabla_matches_bruteforce_random():
    rng = np.random.default_rng(41)
    sp = grid_space(3, 4, weights=rng.uniform(0.5, 2.0, 12))
    f = rng.normal(size=12)
    for r in (0.9, 1.4, 2.7):
        for alpha in (0.5, 1.0):
            got = nabla(sp, f, r, alpha)
            for x in range(12):
                idx = sp.ball(x, r)
                w = sp.weight[idx]
                expect = (np.sum(np.abs(f[x] - f[idx]) ** alpha * w) / w.sum()) ** (1 / alpha)
                assert got[x] == pytest.approx(expect, rel=1e-12)


def test_t_r_operator_constant_fixed_point():
    sp = path_space(5)
    for r in (0.5, 2.0, 9.0):
        assert np.allclose(t_r_operator(sp, np.full(5, 2.2), r, 0.6), 2.2)


def test_t_r_bounds_sup_and_alpha():
    rng = np.random.default_rng(42)
    sp = grid_space(3, 3)
    diag = diagnostics(sp)
    for _ in range(25):
        f = rng.normal(size=9)
        alpha = float(rng.uniform(0.2, 1.0))
        for r in critical_radii(sp):
            tf = t_r_operator(sp, f, float(r), alpha)
            assert tf.max() <= np.abs(f).max() + 1e-12
            lhs = float(np.sum(tf**alpha * sp.weight))
            rhs = diag.c_mu * float(np.sum(np.abs(f) ** alpha * sp.weight))
            assert lhs <= rhs + 1e-9


# -- modulus -----------------------------------------------------------------------------


def test_modulus_constant_zero():
    sp = path_space(4)
    assert modulus(sp, np.full(4, 1.0), 1.5, lp(1.0), 1.0) == 0.0


def test_modulus_two_point_example():
    assert modulus(TWO, [0.0, 1.0], 1.5, lp(1.0), 1.0) == pytest.approx(1.0)


def test_modulus_matches_independent_recomputation():
    rng = np.random.default_rng(43)
    sp = path_space(3)
    f = np.array([1.0, 0.0, 0.0])  # indicator on P3
    spec = lp(2.0)
    for r in rng.uniform(0.3, 5.0, 10):
        got = modulus(sp, f, float(r), spec, 1.0)
        grad = nabla(sp, f, float(r), 1.0)
        expect = quasi_norm(convexify(spec, 1.0), rearrangement(sp, grad))
        assert got == pytest.approx(expect, rel=1e-12)


def test_modulus_profile_structure():
    sp = path_space(5)
    prof = modulus_profile(sp, [0.0, 1.0, 3.0, 0.5, 2.0], lp(1.0), 1.0)
    assert prof.values[0] == 0.0  # balls are singletons at the smallest gap
    assert prof.radii[-1] >= 2.0 * sp.diameter
    full = modulus(sp, [0.0, 1.0, 3.0, 0.5, 2.0], 3.0 * sp.diameter, lp(1.0), 1.0)
    assert prof.tail_value == pytest.approx(full)


@pytest.mark.parametrize("alpha", [2.0, 0.0, -0.5, math.nan])
def test_moduli_refuse_alpha_outside_unit_interval(alpha):
    sp, f = path_space(4), [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(DomainError, match="alpha must lie in"):
        modulus(sp, f, 1.5, lp(1.0), alpha)
    with pytest.raises(DomainError, match="alpha must lie in"):
        modulus_profile(sp, f, lp(1.0), alpha)
    with pytest.raises(DomainError, match="alpha must lie in"):
        besov_seminorm(sp, f, 0.5, 1.0, lp(1.0), alpha)


# -- Besov seminorm -------------------------------------------------------------------------


def test_besov_constant_zero():
    sp = path_space(5)
    for s, q in ((0.3, 1.0), (0.7, 2.0), (0.5, math.inf)):
        assert besov_seminorm(sp, np.full(5, 2.0), s, q, lp(1.0), 1.0) == 0.0


def test_besov_synthetic_profile_closed_form():
    # E = 0 below r0, = c at and past r0: seminorm^q = c^q r0^{-sq} / (sq)
    r0, c = 0.7, 1.9
    radii = np.array([0.3, 0.5, r0, 1.1, 2.0])
    values = np.where(radii >= r0, c, 0.0)
    prof = ModulusProfile(radii, values, c)
    for s, q in ((0.25, 1.0), (0.6, 2.0), (0.4, 0.7)):
        expect = (c**q * r0 ** (-s * q) / (s * q)) ** (1.0 / q)
        assert besov_from_profile(prof, s, q) == pytest.approx(expect, rel=1e-8)
    assert besov_from_profile(prof, 0.5, math.inf) == pytest.approx(c * r0 ** -0.5)


def test_besov_weight_doubling_homogeneity_l1():
    sp = path_space(6)
    f = np.array([0.0, 1.0, 1.0, 0.5, 0.2, 0.0])
    a = besov_seminorm(sp, f, 0.5, 1.0, lp(1.0), 1.0)
    b = besov_seminorm(sp.scale_weights(2.0), f, 0.5, 1.0, lp(1.0), 1.0)
    assert b == pytest.approx(2.0 * a, rel=1e-12)
    assert a > 0.0


def test_besov_grid_refinement_stable():
    sp = grid_space(3, 3)
    f = np.arange(9.0)
    coarse = besov_seminorm(sp, f, 0.4, 1.0, lp(1.0), 1.0, ratio=2.0 ** 0.25)
    fine = besov_seminorm(sp, f, 0.4, 1.0, lp(1.0), 1.0, ratio=2.0 ** 0.0625)
    assert coarse == pytest.approx(fine, rel=0.15)


def test_holder_comparison_of_moduli():
    # mean of |df| is dominated by the p-mean: plain modulus <= power modulus in L^p
    rng = np.random.default_rng(44)
    sp = grid_space(3, 3)
    p = 2.0
    for _ in range(10):
        f = rng.normal(size=9)
        for r in (1.2, 2.5):
            plain = quasi_norm(lp(p), rearrangement(sp, nabla(sp, f, r, 1.0)))
            strong = quasi_norm(lp(p), rearrangement(sp, _e_p_field(sp, f, r, p)))
            assert plain <= strong + 1e-10


def _e_p_field(sp, f, r, p):
    mask = sp.dist < r
    den = mask @ sp.weight
    num = (mask * np.abs(np.asarray(f)[:, None] - np.asarray(f)[None, :]) ** p) @ sp.weight
    return (num / den) ** (1.0 / p)


# -- gradient fields --------------------------------------------------------------------------


def test_canonical_gradient_constant():
    sp = path_space(5)
    assert np.allclose(canonical_gradient(sp, np.full(5, 1.0)).g, 0.0)


def test_canonical_gradient_single_pair():
    sp = space_from_matrix([[0.0, 2.0], [2.0, 0.0]], [1.0, 1.0])
    assert np.allclose(canonical_gradient(sp, [0.0, 1.0]).g, [0.5, 0.5])


def test_canonical_gradient_feasible_random():
    rng = np.random.default_rng(45)
    sp = grid_space(3, 4)
    for _ in range(20):
        f = rng.normal(size=12)
        gf = canonical_gradient(sp, f)  # certify() raises on infeasibility
        assert gf.max_violation <= 1e-9


def test_gradient_field_rejects_infeasible():
    with pytest.raises(DomainError, match="violated"):
        GradientField.certify(TWO, [0.0, 5.0], [0.1, 0.1])


# -- gradient seminorm LP -----------------------------------------------------------------------


def test_hajlasz_constant_zero():
    sp = path_space(5)
    val, gf = hajlasz_seminorm_l1(sp, np.full(5, 7.0))
    assert val == 0.0
    assert np.allclose(gf.g, 0.0)


def test_hajlasz_two_point_closed_form():
    rng = np.random.default_rng(46)
    for _ in range(25):
        d = float(rng.uniform(0.2, 3.0))
        w = rng.uniform(0.1, 2.0, 2)
        a, b = rng.normal(size=2)
        sp = space_from_matrix([[0.0, d], [d, 0.0]], w)
        val, _ = hajlasz_seminorm_l1(sp, [a, b])
        oracle = hajlasz_vertex_oracle(sp, np.array([a, b]))
        assert val == pytest.approx(abs(a - b) / d * min(w[0], w[1]), rel=1e-9)
        assert val == pytest.approx(oracle, rel=1e-9)


def test_hajlasz_vertex_oracle_small_instances():
    rng = np.random.default_rng(47)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        pts = rng.random((n, 2))
        from oscembed import load_space
        sp = load_space({"coords": pts.tolist(), "metric": "euclidean",
                         "weights": list(rng.uniform(0.2, 2.0, n))})
        f = rng.normal(size=n)
        val, gf = hajlasz_seminorm_l1(sp, f)
        assert val == pytest.approx(hajlasz_vertex_oracle(sp, f), rel=1e-8, abs=1e-10)
        assert gf.max_violation <= 1e-7


def test_hajlasz_keeps_differences_below_default_highs_tolerance():
    # HiGHS at its default feasibility tolerance 1e-7 took g = 0 as optimal here
    val, gf = hajlasz_seminorm_l1(TWO, [0.0, 6e-8])
    assert val == pytest.approx(6e-8, rel=1e-9)
    assert gf.g.sum() == pytest.approx(6e-8, rel=1e-9)


def test_hajlasz_below_canonical():
    rng = np.random.default_rng(48)
    sp = path_space(5)
    for _ in range(10):
        f = rng.normal(size=5)
        val, _ = hajlasz_seminorm_l1(sp, f)
        canon = float(np.sum(canonical_gradient(sp, f).g * sp.weight))
        assert val <= canon + 1e-10


def test_failed_lp_is_dumped_as_sparse_triplets(monkeypatch):
    failed = types.SimpleNamespace(status=2, message="The problem is infeasible. ")
    monkeypatch.setattr(smoothness, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SolverError, match="instance dumped to ") as info:
        hajlasz_seminorm_l1(path_space(4), [0.0, 1.0, 3.0, 2.0])
    path = Path(str(info.value).rsplit("instance dumped to ", 1)[1])
    try:
        lines = path.read_text().splitlines()
        triplets = [line.split() for line in lines if line[:1].isdigit()]
        assert len(triplets) == 12  # 6 pair rows, -g(x) - g(y) <= -rhs
        for i, j, v in triplets:
            assert 0 <= int(i) < 6 and 0 <= int(j) < 4 and float(v) == -1.0
    finally:
        path.unlink()


def test_hajlasz_upper_equals_l1_for_l1_spec():
    rng = np.random.default_rng(49)
    sp = grid_space(2, 3)
    for _ in range(8):
        f = rng.normal(size=6)
        val, _ = hajlasz_seminorm_l1(sp, f)
        upper, gf = hajlasz_seminorm_upper(sp, f, lp(1.0), 1.0)
        assert upper == pytest.approx(val, rel=1e-8)
        assert gf.max_violation <= 1e-7


def test_hajlasz_upper_is_upper_bound_l2():
    rng = np.random.default_rng(50)
    sp = grid_space(2, 3)
    for _ in range(8):
        f = rng.normal(size=6)
        upper, gf = hajlasz_seminorm_upper(sp, f, lp(2.0), 1.0)
        # any feasible field's norm is an upper bound; the reported field attains it
        attained = quasi_norm(lp(2.0), rearrangement(sp, gf.g))
        assert upper == pytest.approx(attained, rel=1e-10)


# -- K functional ------------------------------------------------------------------------------


def test_k_below_l1_norm():
    rng = np.random.default_rng(51)
    sp = path_space(5)
    for _ in range(10):
        f = rng.normal(size=5)
        for t in (0.1, 1.0, 10.0):
            k = k_functional_l1(sp, f, t)
            assert k <= float(np.sum(np.abs(f) * sp.weight)) + 1e-9


def test_k_constant_zero():
    sp = path_space(4)
    for t in (0.5, 2.0):
        assert k_functional_l1(sp, np.full(4, 3.0), t) == 0.0


def test_k_two_point_vertex_candidates():
    # optimum sits at h-components in {f0, f1}: K = min(t |f0-f1|/d min(w),
    # w0|f0-f1|, w1|f0-f1|) for the 2-point space
    rng = np.random.default_rng(52)
    for _ in range(25):
        d = float(rng.uniform(0.2, 3.0))
        w = rng.uniform(0.1, 2.0, 2)
        f = rng.normal(size=2)
        sp = space_from_matrix([[0.0, d], [d, 0.0]], w)
        k = k_functional_l1(sp, f, 1.0)
        gap = abs(f[0] - f[1])
        candidates = [1.0 * gap / d * min(w), w[0] * gap, w[1] * gap]
        assert k == pytest.approx(min(candidates), rel=1e-9)


def test_k_monotone_and_concave_in_t():
    rng = np.random.default_rng(53)
    sp = path_space(6)
    f = rng.normal(size=6)
    ts = np.geomspace(0.05, 20.0, 12)
    ks = [k_functional_l1(sp, f, float(t)) for t in ts]
    assert all(a <= b + 1e-9 for a, b in zip(ks[:-1], ks[1:]))
    # K(f, t)/t decreasing
    ratios = [k / t for k, t in zip(ks, ts)]
    assert all(a >= b - 1e-9 for a, b in zip(ratios[:-1], ratios[1:]))


def test_k_bounds_sandwich_on_path():
    rng = np.random.default_rng(54)
    sp = path_space(8)
    spec = lp(1.0)
    for _ in range(5):
        f = rng.normal(size=8)
        for t in (0.3, 1.0, 4.0):
            kb = k_bounds(sp, f, t, spec, 1.0)
            assert kb.exact is not None
            assert kb.lower <= kb.upper + 1e-9
            # two-sided with finite constants
            if kb.exact > 0.0:
                assert kb.lower / kb.exact < 50.0
                assert kb.exact / kb.upper < 50.0


def test_k_bounds_constant():
    sp = path_space(4)
    kb = k_bounds(sp, np.full(4, 1.0), 1.0, lp(1.0), 1.0)
    assert (kb.lower, kb.upper, kb.exact) == (0.0, 0.0, 0.0)


def test_k_bounds_upper_dominates_j0_term():
    rng = np.random.default_rng(55)
    sp = path_space(7)
    f = rng.normal(size=7)
    for t in (0.4, 1.3):
        kb = k_bounds(sp, f, t, lp(1.0), 1.0)
        assert kb.upper >= modulus(sp, f, t, lp(1.0), 1.0) - 1e-12


def test_nonhomogeneous_k_structure():
    # K against the inhomogeneous norm is comparable to homogeneous K + min(1,t)||f||_L1
    rng = np.random.default_rng(56)
    sp = path_space(5)
    for _ in range(6):
        f = rng.normal(size=5)
        l1 = float(np.sum(np.abs(f) * sp.weight))
        for t in (0.2, 1.0, 5.0):
            k_in = k_functional_l1_nonhomogeneous(sp, f, t)
            k_hom = k_functional_l1(sp, f, t)
            combo = k_hom + min(1.0, t) * l1
            assert k_in <= combo + 1e-9
            assert combo <= 3.0 * k_in + 1e-9


def test_k_scales_with_measure():
    rng = np.random.default_rng(57)
    sp = path_space(6)
    f = rng.normal(size=6)
    for lam in (0.1, 10.0):
        a = k_functional_l1(sp.scale_weights(lam), f, 0.7)
        b = lam * k_functional_l1(sp, f, 0.7)
        assert a == pytest.approx(b, rel=1e-8)


# -- the K-functional LP builder and the certified solve ----------------------------------------


@st.composite
def k_instances(draw):
    """A small weighted lattice point set or tree, a function on it, and t > 0."""
    n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    scale = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        coords = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                               min_size=n, max_size=n, unique=True))
        sp = space_from_points(scale * np.array(coords, dtype=float).reshape(n, 2), weights)
    else:
        edges = [(i, draw(st.integers(0, i - 1)), scale * draw(st.floats(0.1, 3.0)))
                 for i in range(1, n)]
        sp = space_from_graph(n, edges, weights)
    f = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return sp, np.array(f), draw(st.floats(0.01, 100.0))


@settings(max_examples=150, deadline=None)
@given(k_instances(), st.booleans())
def test_k_lp_builder_matches_rowwise_oracle(instance, inhomogeneous):
    sp, f, t = instance
    c, a_ub, b_ub, bounds = smoothness._k_functional_lp(sp, f, t, inhomogeneous)
    c_o, a_o, b_o, bounds_o = rowwise_k_functional_lp(sp, f, t, inhomogeneous)
    a_ub, a_o = a_ub.tocsr(), a_o.tocsr()
    assert a_ub.shape == a_o.shape
    for got, want in ((a_ub.data, a_o.data), (a_ub.indices, a_o.indices),
                      (a_ub.indptr, a_o.indptr), (b_ub, b_o), (c, c_o)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert bounds == bounds_o


def test_uncertified_optimum_is_dumped(monkeypatch):
    solve = smoothness.linprog

    def halved_duals(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.ineqlin.marginals = 0.5 * res.ineqlin.marginals
        return res

    monkeypatch.setattr(smoothness, "linprog", halved_duals)
    f = [0.0, 1.0, 3.0, 2.0]
    for lp_call in (lambda: k_functional_l1(path_space(4), f, 1.0),
                    lambda: hajlasz_seminorm_l1(path_space(4), f)):
        with pytest.raises(SolverError, match="duality gap") as info:
            lp_call()
        path = Path(str(info.value).rsplit("instance dumped to ", 1)[1])
        assert path.is_file()
        path.unlink()


def _dump_path(error: SolverError) -> Path:
    return Path(str(error).rsplit("instance dumped to ", 1)[1])


def test_solver_failures_propagate_with_dump(monkeypatch):
    solve = smoothness.linprog

    def halved_duals(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.ineqlin.marginals = 0.5 * res.ineqlin.marginals
        return res

    monkeypatch.setattr(smoothness, "linprog", halved_duals)
    sp, f = path_space(4), [0.0, 1.0, 3.0, 2.0]
    for call in (lambda: hajlasz_seminorm_upper(sp, f, lp(1.0), 1.0),
                 lambda: oscillation_gradient_constant(sp, f, 1.0)):
        with pytest.raises(SolverError, match="duality gap") as info:
            call()
        path = _dump_path(info.value)
        assert path.is_file()
        path.unlink()


# -- row generation against the full-pair solves -------------------------------------------


@st.composite
def long_trees(draw):
    """A weighted tree that is mostly one path, so geodesics are long, a function and t > 0."""
    n = draw(st.integers(2, 9))
    edges = [(i, max(0, i - 1 - draw(st.integers(0, 1))), draw(st.floats(0.1, 3.0)))
             for i in range(1, n)]
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    f = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return space_from_graph(n, edges, weights), np.array(f), draw(st.floats(0.01, 100.0))


def _assert_row_generation_exact(sp, f, t):
    val, gf = hajlasz_seminorm_l1(sp, f)
    assert abs(val - full_pair_gradient_seminorm(sp, f)) <= 1e-9 * max(1.0, abs(val))
    gap = np.abs(f[:, None] - f[None, :]) - sp.dist * (gf.g[:, None] + gf.g[None, :])
    np.fill_diagonal(gap, 0.0)
    assert gap.max() <= smoothness._FEAS_TOL * max(1.0, float(np.abs(f).max()))
    for inhomogeneous, k_fn in ((False, k_functional_l1), (True, k_functional_l1_nonhomogeneous)):
        k = k_fn(sp, f, t)
        assert abs(k - full_pair_k_functional(sp, f, t, inhomogeneous)) <= 1e-9 * max(1.0, abs(k))


@settings(max_examples=150, deadline=None)
@given(st.one_of(k_instances(), long_trees()), st.booleans())
def test_row_generation_matches_full_pair_oracle(instance, one_seed_pair):
    n = instance[0].n
    seed = (lambda space, f: ([0], [n - 1])) if one_seed_pair else smoothness._seed_pairs
    with mock.patch.object(smoothness, "_seed_pairs", seed):
        _assert_row_generation_exact(*instance)


def test_row_generation_from_a_single_seed_pair(monkeypatch):
    monkeypatch.setattr(smoothness, "_seed_pairs", lambda space, f: ([0], [1]))
    solve, rows = smoothness.linprog, []

    def counted(*args, **kwargs):
        rows.append(kwargs["A_ub"].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(smoothness, "linprog", counted)
    rng = np.random.default_rng(58)
    n = 10
    sp = space_from_graph(n, [(i, i - 1, float(rng.uniform(0.2, 2.0))) for i in range(1, n)],
                          rng.uniform(0.5, 2.0, n))
    for _ in range(3):
        rows.clear()
        _assert_row_generation_exact(sp, rng.normal(size=n), float(rng.uniform(0.1, 10.0)))
        assert rows[0] == 1  # the gradient LP started from the seed pair alone


def test_gradient_lp_forms_the_slope_matrix_once(monkeypatch):
    monkeypatch.setattr(smoothness, "_seed_pairs", lambda space, f: ([0], [1]))
    slopes, solve, calls, solves = smoothness._slopes, smoothness.linprog, [], []
    monkeypatch.setattr(smoothness, "_slopes",
                        lambda space, f: calls.append(1) or slopes(space, f))
    monkeypatch.setattr(smoothness, "linprog",
                        lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    rng = np.random.default_rng(58)
    n = 10
    sp = space_from_graph(n, [(i, i - 1, float(rng.uniform(0.2, 2.0))) for i in range(1, n)],
                          rng.uniform(0.5, 2.0, n))
    hajlasz_seminorm_l1(sp, rng.normal(size=n))
    assert len(solves) > 1  # several rounds of row generation
    assert len(calls) == 1


def test_violated_active_pair_stops_with_dump(monkeypatch):
    solve, calls = smoothness.linprog, []
    n = 4

    def violating(c, **kwargs):
        # g = 0, and h = 0, 1, 2, 3 in the K-LPs: every pair is violated, and all are active
        res = solve(c, **kwargs)
        calls.append(1)
        res.x = np.zeros_like(res.x)
        if res.x.size > n:
            res.x[:n] = np.arange(n)
        return res

    monkeypatch.setattr(smoothness, "linprog", violating)
    sp, f = path_space(n), [0.0, 1.0, 3.0, 2.0]
    for lp_call in (lambda: hajlasz_seminorm_l1(sp, f),
                    lambda: k_functional_l1(sp, f, 1.0),
                    lambda: k_functional_l1_nonhomogeneous(sp, f, 1.0)):
        calls.clear()
        with pytest.raises(SolverError, match="pair constraint violated") as info:
            lp_call()
        assert len(calls) == 1
        path = _dump_path(info.value)
        assert path.is_file()
        path.unlink()
