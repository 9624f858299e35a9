"""Power-log integrals against mpmath quadrature, and the quadrature they avoid."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscembed import (PowerLog, StepDecreasing, collapse_sweep, diagnostics, embed,
                      grid_space, lorentz_zygmund, lp, modulus_profile, quasi_norm,
                      rearrangement, space_from_points, target_norm_check, tent_function,
                      weights)
from oscembed.weights import power_roots

from _oracles import full_gamma_panels, mp_power_log_integral, mp_power_root, nabla


def _exponents(draw):
    return (draw(st.floats(-3.0, 50.0)), draw(st.floats(-5.0, 5.0)),
            draw(st.sampled_from([0.0, 1.0, -1.0])))


def _panel(draw, a, b, g):
    e = draw(st.floats(-300.0 if a == 0.0 else max(-300.0, -280.0 / abs(a)), 0.5))
    hi = 10.0**e * 10.0 ** draw(st.floats(0.3, 3.0))
    improper = draw(st.booleans()) and PowerLog(a, b, g).integrable_at_zero_dt_over_t()
    return 0.0 if improper else 10.0**e, hi


@st.composite
def integrals(draw):
    """(a, b, g, lo, hi) with lo = 0 or as small as 1e-300 and hi / lo >= 2.

    A narrower panel near t = 1e-300 loses up to ln(1/t) * eps / ln(hi/lo) of
    its digits to the rounding of u = ln(1/t) before any integration.  The
    range of lo keeps t^a within [1e-280, 1e280].
    """
    a, b, g = _exponents(draw)
    return (a, b, g, *_panel(draw, a, b, g))


@st.composite
def integral_batches(draw):
    """(a, b, g, panels): up to 8 panels of integrals(), some of them empty (lo = hi)."""
    a, b, g = _exponents(draw)
    panels = [_panel(draw, a, b, g) for _ in range(draw(st.integers(1, 8)))]
    return a, b, g, [(hi, hi) if draw(st.booleans()) and k else (lo, hi)
                     for k, (lo, hi) in enumerate(panels)]


@settings(max_examples=200, deadline=None)
@given(integrals())
@example((2.0, 0.0, 0.0, 0.0, 1e-5))
@example((2.0, 0.0, 1.0, 0.0, 1e-5))
@example((1.0, -3.0, 0.0, 0.0, 1e-6))
@example((5e-324, -0.5, 1.0, 0.0, 30.0))
@example((1e-300, -0.2, 1.0, 0.0, 1e-72))
@example((0.0, -0.999999, 0.0, 1e-22, 3e-21))
@example((0.0022376107698098943, -0.5854587356045071, 0.0, 9.45431332654384e-274,
          3.2563118053683656e-273))
@example((24999.750000113774, -99999.0000004551, 0.0, 0.0, 1.0))
@example((0.5972774691746657, -92647.30954303808, 1.0, 0.0, 1.0))
@example((963886.6237587115, -160488.0, 1.0, 0.0, 1.0))
@example((736849.972336865, 1.4606907670077875, 1.0, 0.0, 1.0))
@example((-49999.50000022755, -99999.0000004551, 0.0, 0.25, 1.0))
# a narrow panel of the collapse sweep's oscillation weight (Gauss-Legendre, path 3)
@example((-0.91, 1.0, 0.0, 0.01, 0.011))
# either side of each edge of the narrow rule, at u_lo = ln 100: 2 width <= 1 + u_lo, ...
@example((-0.5, 1.0, 0.0, 0.01 * math.exp(-2.80), 0.01))
@example((-0.5, 1.0, 0.0, 0.01 * math.exp(-2.81), 0.01))
# ... |a| width <= 2, ...
@example((-4.0, 1.0, 0.0, 0.01 * math.exp(-0.4999), 0.01))
@example((-4.0, 1.0, 0.0, 0.01 * math.exp(-0.5001), 0.01))
# ... and |b| width <= 2 (1 + u_lo), which sends the |b| > 4 panel past it to quad
@example((-0.5, -8.0, 0.0, 0.01 * math.exp(-1.40), 0.01))
@example((-0.5, -8.0, 0.0, 0.01 * math.exp(-1.41), 0.01))
def test_integral_dt_over_t_matches_mpmath(case):
    a, b, g, lo, hi = case
    want = mp_power_log_integral(a, b, g, lo, hi)
    assume(1e-300 < want < 1e300)
    assert PowerLog(a, b, g).integral_dt_over_t(lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(integral_batches())
@example((-0.5, 1.0, 1.0, [(1e-3, 0.5), (0.5, 0.5), (0.2, 3.0)]))
@example((1.0, -3.0, 0.0, [(0.0, 1e-6), (0.0, 0.0), (1e-9, 1e-6)]))
@example((2.2250738585072014e-308, 0.0, 1.0, [(0.0, 10.0)]))  # an integrand past e^700
def test_integral_dt_over_t_on_arrays_equals_its_scalar_calls(case):
    a, b, g, panels = case
    lo, hi = np.array(panels).T
    try:
        got = PowerLog(a, b, g).integral_dt_over_t(lo, hi)
    except FloatingPointError:  # refused: so is one of its scalar calls
        with pytest.raises(FloatingPointError):
            for lo_i, hi_i in panels:
                PowerLog(a, b, g).integral_dt_over_t(lo_i, hi_i)
        return
    want = [PowerLog(a, b, g).integral_dt_over_t(lo_i, hi_i) for lo_i, hi_i in panels]
    assert got.tobytes() == np.array(want).tobytes()


# -- q-th power sums -----------------------------------------------------------------------


@st.composite
def power_pairs(draw, max_pairs=1):
    """(pairs, q): bases spanning 1e-300 to 1e300 (some 0), factors 1e-3 to 1e3, q to 1e4.

    Every root lies within 1e-306 to 1e306, so none leaves the float range.
    """
    q = draw(st.floats(0.5, 1e4))
    pairs = []
    for _ in range(draw(st.integers(1, max_pairs))):
        n = draw(st.integers(1, 8))
        base = [0.0 if draw(st.integers(0, 5)) == 0 else 10.0 ** draw(st.floats(-300.0, 300.0))
                for _ in range(n)]
        factor = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(n)]
        pairs.append((np.array(base), np.array(factor)))
    return pairs, q


@settings(max_examples=200, deadline=None)
@given(power_pairs(max_pairs=6))
@example(([(np.array([0.1, 0.05]), np.array([1.0, 1.0])), (np.array([2.0]), np.array([1.0]))],
          400.0))  # a pair in logs beside a direct one
def test_power_roots_gives_each_pair_its_value_alone_bitwise(case):
    pairs, q = case
    together = power_roots(pairs, q)
    alone = [power_roots([pair], q)[0] for pair in pairs]
    assert np.array(together).tobytes() == np.array(alone).tobytes()


@settings(max_examples=200, deadline=None)
@given(power_pairs())
@example(([(np.array([1e-300, 1e300, 0.0]), np.array([1e3, 1e-3, 1.0]))], 1e4))
@example(([(np.array([0.0, 0.0]), np.array([1.0, 2.0]))], 3.0))  # every term 0
def test_power_roots_match_mpmath(case):
    (pair,), q = case
    (got,) = power_roots([pair], q)
    assert got == pytest.approx(float(mp_power_root(*pair, q)), rel=1e-12, abs=0.0)


def test_power_roots_gives_0_for_a_pair_with_no_terms(monkeypatch):
    """Empty pairs and pairs with no positive base of positive factor skip the logs."""
    in_logs, logs = [], weights._power_root_in_logs
    monkeypatch.setattr(weights, "_power_root_in_logs",
                        lambda *args: in_logs.append(args) or logs(*args))
    empty = (np.zeros(0), np.zeros(0))
    zero_factors = (np.array([1.0, 2.0, 0.0]), np.zeros(3))
    zero_bases = (np.zeros(2), np.array([1.0, 3.0]))
    live = (np.array([3.0, 4.0]), np.ones(2))
    for q in (0.5, 2.0, 400.0):
        for pair in (empty, zero_factors, zero_bases):
            assert power_roots([pair], q) == [0.0]
        (alone,) = power_roots([live], q)
        assert power_roots([empty, live, zero_factors, zero_bases], q) == [0.0, alone, 0.0, 0.0]
    assert in_logs == []
    # a term that underflows in the dot is a term: its pair still sums in logs
    assert power_roots([(np.array([1e-200]), np.ones(1))], 2.0) == [pytest.approx(1e-200, rel=1e-12)]
    assert len(in_logs) == 1


def test_power_roots_refuses_a_positive_base_with_an_infinite_factor():
    with pytest.raises(FloatingPointError, match="at q = 2.0 has a term"):
        power_roots([(np.array([1.0, 0.5]), np.array([1.0, math.inf]))], 2.0)
    # a zero base adds nothing, whatever its factor
    assert power_roots([(np.array([1.0, 0.0]), np.array([4.0, math.inf]))], 2.0) == [2.0]


def test_lorentz_zygmund_norm_of_a_tiny_panel_is_exact():
    # int_0^1e-5 t^2 dt/t = 5e-11
    got = quasi_norm(lorentz_zygmund(1.0, 2.0, 0.0), StepDecreasing([1e-5], [1.0]))
    assert got == pytest.approx(math.sqrt(5e-11), rel=1e-15, abs=0.0)


def _count_quad_calls(monkeypatch):
    calls, real = [], weights.quad
    monkeypatch.setattr(weights, "quad", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def _count_integral_weights(monkeypatch):
    seen, real = [], PowerLog._integrals_dt_over_t
    monkeypatch.setattr(PowerLog, "_integrals_dt_over_t",
                        lambda self, lo, hi: seen.append(self) or real(self, lo, hi))
    return seen


def _collapse_grid(eps):
    """6x6 grid with spacing 0.4 and unit weights scaled by eps."""
    coords = [(0.4 * i, 0.4 * j) for i in range(6) for j in range(6)]
    return space_from_points(np.array(coords), np.full(36, eps))


@pytest.mark.parametrize("eps", [1.0, 1e-4])
def test_collapse_lorentz_zygmund_norm_makes_no_quad_call(monkeypatch, eps):
    sp = _collapse_grid(eps)
    fstar = rearrangement(sp, nabla(sp, tent_function(sp, 14), 0.9, 1.0))
    spec = lorentz_zygmund(1.5, 2.0, 0.5)
    calls = _count_quad_calls(monkeypatch)
    got = quasi_norm(spec, fstar)
    assert calls == []
    # the same norm, one mpmath integral per panel
    edges, w = fstar.edges, PowerLog(1.0 / 1.5, 0.5) ** 2.0
    want = sum(v**2 * mp_power_log_integral(w.a, w.b, w.g, lo, hi)
               for v, lo, hi in zip(fstar.values, edges[:-1], edges[1:]) if v > 0.0)
    assert got == pytest.approx(math.sqrt(want), rel=1e-12, abs=0.0)


def test_collapse_modulus_profile_makes_no_quad_call(monkeypatch):
    sp = _collapse_grid(0.01)
    f = tent_function(sp, 14) - tent_function(sp, 21)
    calls = _count_quad_calls(monkeypatch)
    modulus_profile(sp, f, lorentz_zygmund(1.5, 2.0, 0.5), 1.0)
    assert calls == []


def test_collapse_sweep_takes_quad_on_no_narrow_finite_panel(monkeypatch):
    # the oscillation weight has a < 0 and g = 0: its narrow panels take the
    # Gauss-Legendre rule (path 3), and only wide ones may take quad in u
    sp = _collapse_grid(1.0)
    corpus = [tent_function(sp, 14), tent_function(sp, 14) - tent_function(sp, 21),
              tent_function(sp, 0) - tent_function(sp, 35)]
    q_dim = diagnostics(sp).q_dim
    seen = _count_integral_weights(monkeypatch)
    panels, real = [], weights.quad
    monkeypatch.setattr(weights, "quad", lambda fn, lo, hi, **kw: (
        fn.__name__ == "in_u" and panels.append((seen[-1], lo, hi))) or real(fn, lo, hi, **kw))
    collapse_sweep(sp, corpus, lorentz_zygmund(1.5, 2.0, 0.5), 1.0, 0.5, 2.0,
                   [1.0, 0.1, 0.01, 1e-3, 1e-4], q_dim)
    assert any(w.a < 0.0 and w.g == 0.0 for w in seen)
    for w, u_lo, u_hi in panels:
        width = u_hi - u_lo
        assert w.g != 0.0 or (2.0 * width > 1.0 + u_lo or abs(w.a) * width > 2.0
                              or abs(w.b) * width > 2.0 * (1.0 + u_lo))
    assert len(panels) <= 2


def test_sup_target_check_integrates_the_gauge_once_per_report(monkeypatch):
    # unit weights put every breakpoint at 1 or above: the report's 199 grid
    # points below 1 are the only gauge integrals, shared by all 144 tents
    sp = grid_space(12, 12)
    corpus = [tent_function(sp, x) for x in range(sp.n)]
    q_dim = diagnostics(sp).q_dim
    calls = _count_quad_calls(monkeypatch)
    rep = target_norm_check(sp, corpus, lp(1.0), 1.0, 0.4, math.inf, q_dim)
    assert rep.params["mode"] == "sup"
    assert 0 < len(calls) <= 199


@pytest.mark.parametrize("q, mode, most", [(2.0, "derivative", 5), (math.inf, "sup", 199 + 5)])
def test_target_check_evaluates_the_gauge_once_per_report(monkeypatch, q, mode, most):
    # weight 0.05 puts the 144 tents' breakpoints below 1 at 5 distinct t
    sp = grid_space(12, 12, np.full(144, 0.05))
    corpus = [tent_function(sp, x) for x in range(sp.n)]
    q_dim = diagnostics(sp).q_dim
    gauge_calls, real_gauge = [], embed.reciprocal_weight_integral
    monkeypatch.setattr(embed, "reciprocal_weight_integral",
                        lambda *args: gauge_calls.append(args) or real_gauge(*args))
    calls = _count_quad_calls(monkeypatch)
    rep = target_norm_check(sp, corpus, lp(1.0), 1.0, 0.4, q, q_dim)
    assert rep.params["mode"] == mode
    assert len(gauge_calls) == 1
    assert 0 < len(calls) <= most


# -- the incomplete-gamma filter ------------------------------------------------------------


def _at_width(a, s, u_lo, width):
    """The u_hi of the panel from u_lo with (x_hi - x_lo) max(1, s / x_lo) = width, x = a(1+u)."""
    x_lo = a * (1.0 + u_lo)
    return (x_lo + width / max(1.0, s / x_lo)) / a - 1.0


@st.composite
def gamma_batches(draw):
    """a in [1e-3, 1e3], s in [1, 50] and 1-20 panels from u_lo in [0, 1e3], of widths from
    1e-8 (1 + u_lo) up."""
    a = 10.0 ** draw(st.floats(-3.0, 3.0))
    s = draw(st.floats(1.0, 50.0))
    u_lo = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20)))
    rel = np.array([10.0 ** draw(st.floats(-8.0, 1.0)) for _ in range(u_lo.size)])
    return a, s, u_lo, u_lo + rel * (1.0 + u_lo)


def _boundary_batch(a, s, u_lo):
    """Panels at (x_hi - x_lo) max(1, s / x_lo) = 0.2, just either side of it, and wider.

    At s = 1 the upper tail is e^-x, so a panel keeps 1 - e^-(x_hi - x_lo) of it:
    a quarter from the width ln(4/3) = 0.2877 on, which the width 0.29 passes.
    """
    widths = (0.2 * (1.0 - 1e-12), 0.2, 0.2 * (1.0 + 1e-12), 0.25, 0.29, 0.5)
    return a, s, np.full(len(widths), u_lo), np.array([_at_width(a, s, u_lo, w) for w in widths])


@settings(max_examples=300, deadline=None)
@given(gamma_batches())
@example(_boundary_batch(1.0, 1.0, 0.0))
@example(_boundary_batch(1.0, 1.0, 1.0))  # x_lo = 2: the upper tail, where 0.29 is kept
@example(_boundary_batch(0.01, 50.0, 0.0))  # s / x_lo = 5000 sets the width
@example(_boundary_batch(1e3, 2.0, 10.0))
@example(_boundary_batch(1e-3, 1.0, 1e3))
@example(_boundary_batch(4.0 / 3.0, 2.0, 0.5))  # the collapse sweep's LZ weight
def test_gamma_filter_drops_no_panel_that_the_full_test_keeps(batch):
    a, s, u_lo, u_hi = batch
    vals = np.zeros(u_lo.size)
    kept = weights._gamma_panels(a, s, u_lo, u_hi, vals)
    want_kept, want_vals = full_gamma_panels(a, s, u_lo, u_hi)
    assert kept.tolist() == want_kept.tolist()
    assert vals.tobytes() == want_vals.tobytes()
