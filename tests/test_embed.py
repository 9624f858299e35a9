"""Oscillation functional, weight machinery, regimes, and embedding checks."""

import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscembed import (DomainError, PowerLog, PreconditionError, convexify, collapse_sweep,
                      choose_alpha, embedding_report, grid_space, lorentz,
                      lorentz_zygmund, lp, marcinkiewicz, measure_growth_constant,
                      oscillation_functional, oscillation_gradient_constant,
                      path_space, rearrangement, reciprocal_weight_integral,
                      regime_classify, space_from_graph, space_from_matrix,
                      sup_norm_embedding_check, target_norm_check, tent_function,
                      weighted_step_norm)
from oscembed.embed import (_finish_report, _u_condition_check, lz_base_spec,
                             log_lorentz_embedding_check)
from oscembed.space import diagnostics

from _oracles import (loop_gradient_constant, numeric_derivative, per_eps_collapse_sweep,
                      target_norm_lhs, target_weight, tent_gradient)


def fine_grid_space(rows=8, cols=8, h=0.4):
    """Euclidean grid with spacing h, weights normalized so min unit-ball mass = 1."""
    coords = [(i * h, j * h) for i in range(rows) for j in range(cols)]
    sp = space_from_matrix(
        np.sqrt(((np.asarray(coords)[:, None, :] - np.asarray(coords)[None, :, :]) ** 2
                 ).sum(-1)), np.ones(rows * cols))
    b = float(sp.ball_masses(1.0).min())
    return sp.scale_weights(1.0 / b)


def tent_differences(space, count=12):
    """Tent differences at nearby centers: nonzero oscillation below unit mass."""
    out = []
    for x in range(min(count, space.n - 1)):
        out.append(tent_function(space, x) - tent_function(space, x + 1))
    return out


# -- tent functions ------------------------------------------------------------------


def test_tent_isolated_point():
    sp = space_from_matrix([[0.0, 5.0], [5.0, 0.0]], [1.0, 1.0])
    assert tent_function(sp, 0).tolist() == [1.0, 0.0]


def test_tent_p5_values():
    sp = path_space(5)
    assert tent_function(sp, 2).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_tent_gradient_certified():
    for sp in (path_space(5), grid_space(3, 4), fine_grid_space(4, 4, 0.3)):
        for x0 in range(0, sp.n, 3):
            gf = tent_gradient(sp, x0)
            assert gf.max_violation <= 1e-12
            assert set(np.unique(gf.g)) <= {0.0, 1.0}


# -- oscillation functional ------------------------------------------------------------


def test_oscillation_functional_constant_zero():
    sp = path_space(4)
    fstar = rearrangement(sp, np.full(4, 2.0))
    assert oscillation_functional(fstar, lp(1.0), 1.0, 0.5, 1.0, 1.0) == 0.0


def test_oscillation_functional_indicator_closed_form():
    # indicator of mass m0 < 1 on total mass 1, L^1 base, alpha = q = 1:
    # gap = m0/t on (m0, 1), weight phi/t^{s/Q} = t^{1 - s/Q}:
    # integral = m0 int_{m0}^1 t^{-s/Q - 1} dt... assembled below in closed form
    w = [0.2, 0.8]
    sp = space_from_matrix([[0.0, 1.0], [1.0, 0.0]], w)
    f = np.array([1.0, 0.0])
    s, q_dim = 0.5, 2.0
    got = oscillation_functional(rearrangement(sp, f), lp(1.0), 1.0, s, 1.0, q_dim)
    m0 = 0.2
    # integrand (m0/t) * t^{1 - s/Q} dt/t = m0 t^{-1 - s/Q} dt on (m0, 1)
    expect = m0 * (q_dim / s) * (m0 ** (-s / q_dim) - 1.0)
    assert got == pytest.approx(expect, rel=1e-10)
    # and the sup form
    got_inf = oscillation_functional(rearrangement(sp, f), lp(1.0), 1.0, s, math.inf, q_dim)
    expect_inf = max(m0 * t ** (-s / q_dim) for t in (m0, 1.0))
    assert got_inf == pytest.approx(expect_inf, rel=1e-10)


def test_oscillation_functional_homogeneous():
    sp = fine_grid_space(5, 5, 0.4)
    f = tent_function(sp, 5) - tent_function(sp, 6)
    base = oscillation_functional(rearrangement(sp, f), lp(2.0), 1.0, 0.4, 2.0, 1.8)
    assert base > 0.0
    for lam in (0.2, 7.0):
        scaled = oscillation_functional(rearrangement(sp, lam * f), lp(2.0), 1.0, 0.4, 2.0, 1.8)
        assert scaled == pytest.approx(lam * base, rel=1e-9)


def test_oscillation_functional_zero_on_noncollapsed_tents():
    # with unit-ball mass >= 1 the tent plateau fills (0, 1): the gap vanishes
    sp = fine_grid_space(5, 5, 0.4)
    assert float(sp.ball_masses(1.0).min()) >= 1.0 - 1e-12
    f = tent_function(sp, 12)
    assert oscillation_functional(rearrangement(sp, f), lp(1.0), 1.0, 0.5, 1.0, 2.0) == 0.0


# -- embedding report -------------------------------------------------------------------


def test_embedding_report_constants_corpus():
    sp = path_space(5)
    rep = embedding_report(sp, [np.full(5, c) for c in (1.0, 2.0, 5.0)],
                           lp(1.0), 1.0, 0.5, 1.0, 1.585)
    assert rep.empirical_constant == 0.0
    assert all(row[3] == 0.0 for row in rep.per_function)


def test_embedding_report_finite_and_scale_invariant():
    sp = fine_grid_space(5, 5, 0.4)
    diag = diagnostics(sp)
    corpus = tent_differences(sp, 6)
    rep = embedding_report(sp, corpus, lp(1.0), 1.0, 0.5, 1.0, diag.q_dim)
    assert 0.0 < rep.empirical_constant < math.inf
    rep_scaled = embedding_report(sp, [3.0 * f for f in corpus], lp(1.0), 1.0,
                                  0.5, 1.0, diag.q_dim)
    assert rep_scaled.empirical_constant == pytest.approx(rep.empirical_constant, rel=1e-8)


# -- pointwise gradient bound ----------------------------------------------------------------


def test_gradient_bound_constant_zero():
    sp = path_space(6)
    assert oscillation_gradient_constant(sp, np.full(6, 1.0), 1.0, 1.585) == 0.0


def test_gradient_bound_scale_invariant():
    sp = path_space(8)
    diag = diagnostics(sp)
    f = tent_function(sp, 3)
    c1 = oscillation_gradient_constant(sp, f, 0.7, diag.q_dim)
    c2 = oscillation_gradient_constant(sp, 5.0 * f, 0.7, diag.q_dim)
    assert c1 > 0.0
    assert c2 == pytest.approx(c1, rel=1e-9)


def test_gradient_bound_exact_on_path_tents():
    # a 200-point log grid of t read 1.1685, 0.7954 and 0.8116 here
    sp = path_space(8)
    q_dim = diagnostics(sp).q_dim
    for x0, exact in ((1, 6.0 / 5.0), (3, 9.0 / 11.0), (5, 5.0 / 6.0)):
        f = tent_function(sp, x0)
        c = oscillation_gradient_constant(sp, f, 1.0, q_dim)
        assert c == pytest.approx(exact, rel=1e-14)
        assert c == pytest.approx(loop_gradient_constant(sp, f, 1.0, q_dim), rel=1e-12)
        assert oscillation_gradient_constant(sp, 7.0 * f, 1.0, q_dim) == pytest.approx(
            c, rel=1e-14)


@st.composite
def gradient_instances(draw):
    """A weighted graph of 2-7 points and f on it, with values of a few levels."""
    n = draw(st.integers(2, 7))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    edges = [(i, draw(st.integers(0, i - 1)), draw(st.floats(0.1, 3.0))) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.floats(0.1, 3.0)).filter(lambda e: e[0] != e[1]),
                           max_size=3))
    sp = space_from_graph(n, edges, weights)
    f = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)), dtype=float) / 4.0
    return sp, f


@settings(max_examples=100, deadline=None)
@given(gradient_instances(), st.one_of(st.just(1.0), st.floats(0.2, 1.0)))
def test_gradient_bound_equals_the_brute_force_sup(instance, alpha):
    sp, f = instance
    q_dim = diagnostics(sp).q_dim
    want = loop_gradient_constant(sp, f, alpha, q_dim)
    assert oscillation_gradient_constant(sp, f, alpha, q_dim) == pytest.approx(
        want, rel=1e-9, abs=1e-12)


def test_measure_growth_constant_positive():
    sp = path_space(5)
    c = measure_growth_constant(sp, 1.585)
    assert c > 0.0
    # direct check at a few radii
    for r in (0.5, 1.0):
        assert np.all(sp.ball_masses(r) >= c * r**1.585 - 1e-12)


# -- finiteness gauge --------------------------------------------------------------------------


def test_gauge_supercritical_finite():
    # s > Q/p: reciprocal weight has positive power, gauge finite at 0
    spec = lz_base_spec(2.0, 2.0, 0.5, alpha=1.0)
    assert math.isfinite(reciprocal_weight_integral(spec, 1.0, 0.9, 2.0, 1.5, 0.0))


def test_gauge_critical_beta_zero_infinite():
    # s = Q/p, beta = 0, q > min(1,p,r): gauge diverges
    p, r, beta = 2.0, 2.0, 0.0
    q_dim = 1.0
    s = q_dim / p
    spec = lz_base_spec(p, r, beta, alpha=1.0)
    assert reciprocal_weight_integral(spec, 1.0, s, 2.0, q_dim, 0.0) == math.inf


def test_gauge_subcritical_infinite():
    spec = lz_base_spec(2.0, 2.0, 0.0, alpha=1.0)
    # s < Q/p: negative power in the integrand
    assert reciprocal_weight_integral(spec, 1.0, 0.3, 2.0, 1.0, 0.0) == math.inf
    # quadrature on (t, 1) still finite for t > 0 and grows as t -> 0
    a = reciprocal_weight_integral(spec, 1.0, 0.3, 2.0, 1.0, 0.1)
    b = reciprocal_weight_integral(spec, 1.0, 0.3, 2.0, 1.0, 0.01)
    assert b > a > 0.0


def test_gauge_sup_case():
    spec = lz_base_spec(2.0, 2.0, 0.5, alpha=1.0)
    # q <= alpha uses the sup of the reciprocal weight
    val = reciprocal_weight_integral(spec, 1.0, 0.5, 0.5, 1.0, 0.0)
    assert math.isfinite(val)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.5, 4.0), beta=st.floats(-1.0, 1.0), alpha=st.floats(0.3, 1.0),
       s=st.floats(0.05, 0.95), q=st.sampled_from([0.2, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf]),
       q_dim=st.floats(0.5, 3.0), ts=st.lists(st.floats(1e-12, 0.999), max_size=8))
@example(p=2.0, beta=0.0, alpha=1.0, s=0.5, q=2.0, q_dim=1.0, ts=[0.1, 0.01])  # m(0) = inf
@example(p=2.0, beta=0.5, alpha=1.0, s=0.5, q=0.5, q_dim=1.0, ts=[0.3])  # q <= alpha: a sup
@example(p=2.0, beta=0.5, alpha=1.0, s=0.9, q=math.inf, q_dim=1.5, ts=[1e-6, 0.5])
@example(p=2.0, beta=1.0, alpha=0.99999, s=0.75, q=1.0, q_dim=1.0, ts=[])  # a sharp tail in w
@example(p=1.0, beta=1.0, alpha=0.99999, s=0.5, q=1.0, q_dim=1.0, ts=[0.25])  # a sharp panel in u
@example(p=1.0, beta=0.0, alpha=0.99999, s=0.5, q=1.0, q_dim=1.0, ts=[0.5])  # past e^700
def test_gauge_on_an_array_equals_its_scalar_calls(p, beta, alpha, s, q, q_dim, ts):
    spec = lz_base_spec(p, 2.0, beta, alpha)
    t = np.array([0.0, *ts])
    try:
        got = reciprocal_weight_integral(spec, alpha, s, q, q_dim, t)
    except FloatingPointError:  # refused: so is one of its scalar calls
        with pytest.raises(FloatingPointError):
            for t_i in t.tolist():
                reciprocal_weight_integral(spec, alpha, s, q, q_dim, t_i)
        return
    want = [reciprocal_weight_integral(spec, alpha, s, q, q_dim, t_i) for t_i in t.tolist()]
    assert got.tobytes() == np.array(want).tobytes()


def test_gauge_refuses_an_integrand_past_e700():
    # kappa = aq/(q - a) is about 1e5 at alpha = 0.99999: m(0.5) is far past the float
    # range, and its integrand was once clamped at e^700 to a finite, wrong value
    spec = lz_base_spec(1.0, 2.0, 0.0, 0.99999)
    with pytest.raises(FloatingPointError, match=r"passes e\^700 on the panel t in \(0\.5, 1\)"):
        reciprocal_weight_integral(spec, 0.99999, 0.5, 1.0, 1.0, 0.5)


# -- target weight: closed form vs numeric differentiation -------------------------------------


def test_target_weight_matches_numeric_derivative_power_law():
    # power-law reciprocal weight: w^q(t)/t = d/dt (1 + m(t))^(1 - q/alpha)
    spec, alpha, s, q, q_dim = lp(1.0), 1.0, 0.5, 2.0, 2.0
    assert reciprocal_weight_integral(spec, alpha, s, q, q_dim, 0.0) == math.inf

    def primitive(t):
        m = reciprocal_weight_integral(spec, alpha, s, q, q_dim, t)
        return (1.0 + m) ** (1.0 - q / alpha)

    for t in (1e-6, 1e-3, 0.1, 0.5, 0.9):
        w = target_weight(spec, alpha, s, q, q_dim, t)
        deriv = numeric_derivative(primitive, t)
        assert w**q / t == pytest.approx(deriv, rel=1e-6)


def test_target_weight_nonnegative_and_guarded():
    spec = lp(1.0)
    for t in np.geomspace(1e-8, 1.0, 40):
        assert target_weight(spec, 1.0, 0.5, 2.0, 2.0, float(t)) >= 0.0
    with pytest.raises(Exception):
        target_weight(spec, 1.0, 0.5, 0.5, 2.0, 0.5)  # q <= alpha not this case
    with pytest.raises(Exception):
        target_weight(lz_base_spec(2.0, 2.0, 3.0, 1.0), 1.0, 0.9, 2.0, 1.0, 0.5)  # m(0) finite


def test_target_weight_critical_loglog_shape():
    # s = Q/p, beta = 1/alpha - 1/q: w ~ (1+ln 1/t)^{-1/q} (1+ln(1+ln 1/t))^{-1/alpha}
    p, r, q = 2.0, 2.0, 2.0
    alpha = 1.0
    beta = 1.0 / alpha - 1.0 / q
    q_dim = 1.0
    s = q_dim / p
    spec = lz_base_spec(p, r, beta, alpha)
    shape = PowerLog(0.0, -1.0 / q, -1.0 / alpha)
    ratios = [target_weight(spec, alpha, s, q, q_dim, t) / float(shape(t))
              for t in np.geomspace(1e-12, 0.5, 30)]
    assert max(ratios) / min(ratios) < 3.0


# -- regime classification ------------------------------------------------------------------------


GOLDEN_ROWS = [
    # (p, r, beta, s, q, Q) -> (case_id, subcase)
    ((2.0, 2.0, 0.0, 0.8, 2.0, 1.0), ("Linf", "1_linf")),          # s > Q/p
    ((2.0, 2.0, 2.0, 0.5, 2.0, 1.0), ("Linf", "2_linf")),          # s = Q/p, beta large
    ((2.0, 2.0, 0.0, 0.5, 2.0, 1.0), ("log_target", "2a_ii")),     # critical, beta 0
    ((2.0, 2.0, 0.5, 0.5, 2.0, 1.0), ("loglog_target", "2a_i")),   # beta = 1/min(1,r) - 1/q
    ((2.0, 2.0, -1.0, 0.5, 0.5, 1.0), ("log_target", "2a_iii")),   # q <= alpha, beta < 0
    ((0.5, 2.0, 0.0, 0.5, 1.0, 0.25), ("log_target", "2b_i")),     # p < min(1,r), q >= p
    ((0.5, 2.0, -1.0, 0.5, 0.25, 0.25), ("log_target", "2b_ii")),  # q < p, beta < 0
    ((2.0, 2.0, 0.0, 0.3, 2.0, 1.0), ("lorentz_target", "1")),     # s < Q/p
    ((2.0, 2.0, 0.0, 0.5, math.inf, 1.0), ("log_target", "2a_ii")),
    ((2.0, 2.0, 1.0, 0.5, math.inf, 1.0), ("loglog_target", "2a_i")),
    ((0.5, 2.0, 0.31, 0.5, 8.0, 0.25), ("Linf", "2_linf")),        # beta > 1/p - 1/q = 1.875? no
]


def test_regime_golden_rows():
    # fix the last row: for p = 0.5, 1/p - 1/q = 2 - 0.125 = 1.875
    rows = list(GOLDEN_ROWS)
    rows[-1] = ((0.5, 2.0, 1.9, 0.5, 8.0, 0.25), ("Linf", "2_linf"))
    for (p, r, beta, s, q, q_dim), (case_id, subcase) in rows:
        reg = regime_classify(p, r, beta, s, q, q_dim)
        assert (reg.case_id, reg.subcase) == (case_id, subcase), (p, r, beta, s, q, q_dim)


def test_regime_corollary_beta_zero_rows():
    # the beta = 0 case list: subcritical Lorentz, critical log targets, sup-norm
    q_dim = 1.0
    # s < Q/p
    reg = regime_classify(2.0, 1.5, 0.0, 0.3, 2.0, q_dim)
    assert reg.case_id == "lorentz_target"
    assert reg.target_weight.a == pytest.approx(1.0 / 2.0 - 0.3)
    # s = Q/p, 0 < r < p: weight (1+ln 1/t)^{-1/min(1,r)}
    reg = regime_classify(2.0, 1.5, 0.0, 0.5, 2.0, q_dim)
    assert reg.case_id == "log_target"
    assert reg.alpha_used == 1.0
    assert reg.target_weight.b == pytest.approx(-1.0)
    reg = regime_classify(2.0, 0.5, 0.0, 0.5, 2.0, q_dim)
    assert reg.target_weight.b == pytest.approx(-2.0)  # 1/min(1,r) = 2
    # 1 < p <= r: weight (1+ln 1/t)^{-1}
    reg = regime_classify(1.5, 2.0, 0.0, q_dim / 1.5, 2.0, q_dim)
    assert reg.case_id == "log_target"
    assert reg.target_weight.b == pytest.approx(-1.0)
    # 0 < p <= r, p <= 1: any alpha < p, weight (1+ln 1/t)^{-1/alpha}
    reg = regime_classify(0.5, 2.0, 0.0, 0.5, 2.0, 0.25)
    assert reg.case_id == "log_target"
    assert reg.alpha_rule == "below p"
    assert reg.alpha_used < 0.5
    assert reg.target_weight.b == pytest.approx(-1.0 / reg.alpha_used)
    # s > Q/p or s = Q/p with q < p ... -> sup-norm
    assert regime_classify(2.0, 2.0, 0.0, 0.8, 2.0, q_dim).case_id == "Linf"
    assert regime_classify(2.0, 2.0, 0.0, 0.5, 0.4, q_dim).case_id == "Linf"


def test_regime_total_on_random_grid_and_matches_gauge():
    rng = np.random.default_rng(61)
    agree = 0
    total = 300
    for _ in range(total):
        p = float(rng.uniform(0.2, 3.0))
        r = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.2, 3.0))
        q_dim = float(rng.uniform(0.5, 3.0))
        reg = regime_classify(p, r, beta, s, q, q_dim)
        assert reg.case_id in ("Linf", "lorentz_target", "log_target", "loglog_target")
        spec = lz_base_spec(p, r, beta, reg.alpha_used)
        m0 = reciprocal_weight_integral(spec, reg.alpha_used, s, q, q_dim, 0.0)
        agree += (reg.case_id == "Linf") == math.isfinite(m0)
    assert agree == total


def test_choose_alpha_rule():
    assert choose_alpha(2.0, 1.5, 0.0) == ("min(1,r)", 1.0)
    assert choose_alpha(0.5, 2.0, 0.0) == ("below p", 0.5)
    assert choose_alpha(0.5, 0.5, -1.0) == ("below p", 0.5)
    assert choose_alpha(0.5, 0.5, 0.0) == ("min(1,r)", 0.5)


# -- sup-norm and target checks ---------------------------------------------------------------------


def test_sup_norm_check_constants_ratio_one():
    sp = path_space(4)
    spec = lz_base_spec(2.0, 2.0, 0.5, 1.0)
    rep = sup_norm_embedding_check(sp, [np.full(4, 3.0)], spec, 1.0, 0.9, 2.0, 1.5)
    # constant c: lhs = c, rhs = 0 + c
    assert rep.per_function[0][3] == pytest.approx(1.0)


def test_sup_norm_check_refuses_infinite_gauge():
    sp = path_space(4)
    with pytest.raises(PreconditionError, match="m\\(0\\)"):
        sup_norm_embedding_check(sp, [np.ones(4)], lp(2.0), 1.0, 0.3, 2.0, 1.0)


def test_sup_norm_check_bounded_on_tents():
    sp = fine_grid_space(5, 5, 0.4)
    diag = diagnostics(sp)
    p = 2.0 * diag.q_dim  # supercritical needs s > Q/p, so take p above Q
    spec = lz_base_spec(p, 2.0, 0.5, 1.0)
    corpus = [tent_function(sp, x) for x in range(0, sp.n, 5)]
    rep = sup_norm_embedding_check(sp, corpus, spec, 1.0, 0.7, 2.0, diag.q_dim)
    assert 0.0 < rep.empirical_constant < math.inf


def test_target_check_requires_infinite_gauge():
    sp = path_space(4)
    spec = lz_base_spec(2.0, 2.0, 3.0, 1.0)
    with pytest.raises(PreconditionError, match="finite"):
        target_norm_check(sp, [np.ones(4)], spec, 1.0, 0.9, 2.0, 1.0)


def test_target_check_derivative_case():
    sp = fine_grid_space(5, 5, 0.4)
    diag = diagnostics(sp)
    corpus = tent_differences(sp, 6) + [tent_function(sp, 7)]
    rep = target_norm_check(sp, corpus, lp(1.0), 1.0, 0.4, 2.0, diag.q_dim)
    assert rep.params["mode"] == "derivative"
    assert 0.0 < rep.empirical_constant < math.inf


def test_target_check_sup_case():
    sp = fine_grid_space(4, 4, 0.4)
    diag = diagnostics(sp)
    corpus = tent_differences(sp, 4)
    rep = target_norm_check(sp, corpus, lp(1.0), 1.0, 0.4, math.inf, diag.q_dim)
    assert rep.params["mode"] == "sup"
    assert rep.empirical_constant < math.inf


def test_target_check_norm_weight_case():
    sp = fine_grid_space(4, 4, 0.4)
    diag = diagnostics(sp)
    corpus = tent_differences(sp, 4)
    rep = target_norm_check(sp, corpus, lp(1.0), 1.0, 0.4, 0.8, diag.q_dim)
    assert rep.params["mode"] == "u-weight"
    assert rep.empirical_constant < math.inf


@pytest.mark.parametrize("q", [2.0, math.inf, 0.5])
@pytest.mark.parametrize("spec, alpha", [(lp(1.0), 1.0), (lorentz_zygmund(2.0, 2.0, 0.5), 0.7)])
def test_target_check_equals_the_per_t_gauge_loops(spec, alpha, q):
    sp = fine_grid_space(4, 4, 0.4)
    q_dim = diagnostics(sp).q_dim
    corpus = tent_differences(sp, 4) + [tent_function(sp, 5), np.linspace(-1.0, 2.0, sp.n)]
    rep = target_norm_check(sp, corpus, spec, alpha, 0.4, q, q_dim)
    assert rep.params["mode"] == {2.0: "derivative", math.inf: "sup", 0.5: "u-weight"}[q]
    want = [target_norm_lhs(sp, f, spec, alpha, 0.4, q, q_dim) for f in corpus]
    assert np.array([row[1] for row in rep.per_function]).tobytes() == np.array(want).tobytes()


def test_target_check_refuses_a_norm_weight_that_fails_the_integral_condition():
    """At q <= alpha the weight is t^(-s/Q) phi(t).  With phi(t) = t^(s/Q) (1 + ln(1/t))^(-1/2)
    it is (1 + ln(1/t))^(-1/2), whose q-th power is not dt/t-integrable at 0 for q = 0.8."""
    sp = grid_space(4, 4)
    q_dim = diagnostics(sp).q_dim
    spec = marcinkiewicz(PowerLog(0.4 / q_dim, -0.5))
    with pytest.raises(PreconditionError, match="integral condition at t -> 0"):
        target_norm_check(sp, [tent_function(sp, 0)], spec, 1.0, 0.4, 0.8, q_dim)



def test_target_check_refuses_a_norm_weight_whose_power_of_t_is_zero():
    """phi(t) = t^(s/Q) (1 + ln(1/t))^(-3) gives v = (1 + ln(1/t))^(-3): its primitive
    converges, but the ratio of int_0^t v^q dz/z to v(t)^q grows like ln(1/t)."""
    sp = grid_space(4, 4)
    q_dim = diagnostics(sp).q_dim
    spec = lorentz_zygmund(q_dim / 0.4, 2.0, -3.0)
    with pytest.raises(PreconditionError, match=r"integral condition at t -> 0 \(its power of t, "
                                                r"a = 0\.0, is not positive\)"):
        target_norm_check(sp, [tent_function(sp, 0)], spec, 1.0, 0.4, 0.8, q_dim)

@settings(max_examples=200, deadline=None)
@given(st.floats(1e-300, 2.0), st.floats(-6.0, 0.0), st.floats(-6.0, 0.0), st.floats(0.05, 1.0))
@example(1e-300, -0.95, -6.0, 1.0)  # climbs 59 times over the scan
@example(1e-9, 0.0, -5.0, 1.0)
@example(2.0, 0.0, 0.0, 0.05)
def test_integral_condition_ratio_stays_below_one_over_aq(a, b, g, q):
    """Why _u_condition_check refuses only a divergent primitive: for a > 0 the integral
    condition holds. With b, g <= 0, (l(z)/l(t))^b <= 1 for z <= t, and likewise for the
    double log, so int_0^t v^q dz/z <= v(t)^q int_0^t (z/t)^(aq) dz/z = v(t)^q / (aq)."""
    vq = PowerLog(a, b, g) ** q
    ts = np.geomspace(1e-10, 1.0, 64)
    ratios = vq.integral_dt_over_t(0.0, ts) / vq(ts)
    assert ratios.max() * (a * q) <= 1.0 + 1e-12


def test_u_condition_check_passes_a_weight_a_scan_cap_of_50_would_refuse():
    # The ratio of int_0^t v dz/z to v(t) is at most 1/a, so the condition holds, yet on
    # t in [1e-10, 1] it climbs past 50 times its largest value on [1e-2, 1].
    v = PowerLog(1e-300, -0.95, -6.0)
    ts = np.geomspace(1e-10, 1.0, 64)
    ratios = v.integral_dt_over_t(0.0, ts) / v(ts)
    assert ratios.max() > 50.0 * ratios[ts >= 1e-2].max()
    assert ratios.max() * 1e-300 <= 1.0
    _u_condition_check(v, 1.0)


def test_weighted_step_norm_closed_form():
    from _oracles import indicator_step

    fs = indicator_step(0.5)
    w = PowerLog(1.0)  # weight t
    # int_0^{1/2} t^{2} dt/t = (1/2)^2/2
    assert weighted_step_norm(fs, w, 2.0) == pytest.approx(math.sqrt(0.125 / 1.0), rel=1e-12)
    assert weighted_step_norm(fs, w, math.inf) == pytest.approx(0.5)


# -- log-Lorentz end-to-end ---------------------------------------------------------------------------


def test_log_lorentz_check_linf_and_target():
    sp = fine_grid_space(5, 5, 0.4)
    diag = diagnostics(sp)
    corpus = tent_differences(sp, 5)
    p = 2.0 * diag.q_dim  # Q/p = 1/2
    regime, rep = log_lorentz_embedding_check(sp, corpus, p, 2.0, 0.5, 0.7, 2.0,
                                              diag.q_dim)
    assert regime.case_id == "Linf"
    assert rep.empirical_constant < math.inf
    regime2, rep2 = log_lorentz_embedding_check(sp, corpus, p, 2.0, 0.0, 0.3, 2.0,
                                                diag.q_dim)
    assert regime2.case_id == "lorentz_target"
    assert 0.0 < rep2.empirical_constant < math.inf


# -- collapse sensitivity -------------------------------------------------------------------------------


def test_collapse_sweep_monotone_growth():
    sp = fine_grid_space(5, 5, 0.4)
    diag = diagnostics(sp)
    corpus = [tent_function(sp, x) for x in range(0, sp.n, 4)]
    rows = collapse_sweep(sp, corpus, lp(1.0), 1.0, 0.6, 1.0,
                          [1.0, 0.1, 0.01], diag.q_dim)
    consts = [report.empirical_constant for _eps, _b, report in rows]
    assert all(a <= b + 1e-12 for a, b in zip(consts[:-1], consts[1:]))
    assert consts[-1] > 0.0
    assert rows[0][1] == pytest.approx(1.0)
    assert rows[-1][1] == pytest.approx(0.01)


@st.composite
def sweep_instances(draw):
    """A weighted graph of 2-7 points, 1-3 functions on it and 1-4 weight scales."""
    sp, f = draw(gradient_instances())
    corpus = [f] + [tent_function(sp, x) for x in draw(st.lists(st.integers(0, sp.n - 1),
                                                                  max_size=2))]
    power_of_2 = st.integers(-12, 3).map(lambda k: 2.0**k)
    eps_list = draw(st.lists(st.one_of(power_of_2, st.floats(1e-4, 8.0)), min_size=1,
                             max_size=4))
    return sp, corpus, eps_list


@settings(max_examples=100, deadline=None)
@given(sweep_instances(), st.sampled_from([lp(1.0), lp(2.0), lorentz_zygmund(1.5, 2.0, 0.5)]),
       st.sampled_from([1.0, 0.5]), st.sampled_from([0.3, 0.7]), st.sampled_from([1.0, 2.0]))
@example((path_space(4, weights=[0.5, 1.0, 1.5, 1.0]),
          [np.array([0.0, 1.0, 0.0, -1.0]), np.array([1.0, 1.0, 0.0, 0.0])],
          [1.0, 0.1, 0.25, 1e-3]), lp(1.0), 1.0, 0.5, 1.0)
def test_collapse_sweep_equals_one_report_per_eps(instance, spec, alpha, s, q):
    sp, corpus, eps_list = instance
    q_dim = diagnostics(sp).q_dim
    got = collapse_sweep(sp, corpus, spec, alpha, s, q, eps_list, q_dim)
    want = per_eps_collapse_sweep(sp, corpus, spec, alpha, s, q, eps_list, q_dim)
    assert len(got) == len(want)
    for (eps, b, report), (want_eps, want_b, want_report) in zip(got, want):
        assert eps == want_eps and b == want_b  # b reads the same prefix sums, bitwise
        assert report.params == want_report.params
        if math.frexp(eps)[0] == 0.5:  # eps a power of 2: the same averages, bitwise
            assert report.per_function == want_report.per_function
            assert report.empirical_constant == want_report.empirical_constant
        else:  # the averages under mu and under eps mu differ at rounding
            for row, want_row in zip(report.per_function, want_report.per_function):
                assert row[:2] == want_row[:2]  # label, and lhs from the same f*
                assert row[2:] == pytest.approx(want_row[2:], rel=1e-12, abs=0.0)
            assert report.empirical_constant == pytest.approx(want_report.empirical_constant,
                                                              rel=1e-12, abs=0.0)


def test_finish_report_default_labels():
    rep = _finish_report("k1", [1.0, 2.0, 0.0], None, lambda f: (f, 2.0), {})
    assert [row[0] for row in rep.per_function] == ["f0", "f1", "f2"]
    assert [row[3] for row in rep.per_function] == [0.5, 1.0, 0.0]
    assert rep.empirical_constant == 1.0
    rep = _finish_report("k1", [1.0], ["tent"], lambda f: (f, 2.0), {})
    assert rep.per_function == [("tent", 1.0, 2.0, 0.5)]


def test_reports_refuse_labels_not_matching_the_corpus():
    sp = path_space(4)
    corpus = [np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0, 1.0]),
              np.array([0.0, 0.0, 0.0, 2.0])]
    q_dim = diagnostics(sp).q_dim
    for labels in (["a"], ["a", "b", "c", "d"], []):
        with pytest.raises(DomainError, match="labels for a corpus of 3"):
            embedding_report(sp, corpus, lp(1.0), 1.0, 0.5, 1.0, q_dim, labels=labels)
    rep = embedding_report(sp, corpus, lp(1.0), 1.0, 0.5, 1.0, q_dim, labels=["a", "b", "c"])
    assert [row[0] for row in rep.per_function] == ["a", "b", "c"]


def test_finish_report_runs_each_function_once_on_the_calling_thread():
    calls = []

    def one(f):
        calls.append((f, threading.get_ident()))
        return f, 1.0

    rep = _finish_report("k1", [3.0, 1.0, 2.0], None, one, {})
    assert calls == [(f, threading.get_ident()) for f in (3.0, 1.0, 2.0)]
    assert rep.empirical_constant == 3.0


def test_finish_report_refuses_positive_lhs_over_zero_rhs():
    assert _finish_report("k1", [0.0], None, lambda f: (f, 0.0), {}).empirical_constant == 0.0
    with pytest.raises(DomainError, match="inconsistent report row 'f1'"):
        _finish_report("k1", [0.0, 1.0], None, lambda f: (f, 0.0), {})
