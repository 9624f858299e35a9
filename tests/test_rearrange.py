"""Rearrangement, running averages, oscillation, and the split norm."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscembed import (DomainError, StepDecreasing, path_space, rearrangement,
                      space_from_matrix, sum_plus_linf_norm)
from oscembed.rearrange import rearrangement_from_weights, rearrangement_rows

from _oracles import (OscillationProfile, distribution_mass, maximal_average, oscillation,
                      product_step_integral, quad_average, rearrangement_inf_formula, step_eval)
from _oracles import rearrangement_from_weights as one_row_rearrangement


def unit_space(n):
    return path_space(n)


SP3 = space_from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                        [1.0, 1.0, 1.0])


# -- construction -------------------------------------------------------------------


def test_constant_function_single_step():
    fs = rearrangement(SP3, [2.5, 2.5, 2.5])
    assert fs.breakpoints.tolist() == [3.0]
    assert fs.values.tolist() == [2.5]


def test_indicator_two_steps():
    fs = rearrangement(SP3, [1.0, 0.0, 1.0])
    assert fs.breakpoints.tolist() == [2.0, 3.0]
    assert fs.values.tolist() == [1.0, 0.0]


def test_rearrangement_matches_inf_formula_oracle():
    f = np.array([3.0, 1.0, 2.0])
    fs = rearrangement(SP3, f)
    assert fs.values.tolist() == [3.0, 2.0, 1.0]
    assert fs.breakpoints.tolist() == [1.0, 2.0, 3.0]
    for t in np.linspace(0.0, 3.5, 43):
        assert fs.eval(t) == rearrangement_inf_formula(f, SP3.weight, t)


def test_equimeasurability_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        w = rng.uniform(0.1, 3.0, n)
        f = rng.normal(size=n).round(1)  # rounding forces ties
        fs = rearrangement_from_weights(f, w)
        for s in np.concatenate([np.abs(f), [0.0, np.abs(f).max() + 1.0]]):
            lhs = distribution_mass(f, w, s)
            # |{t : f*(t) > s}| for a step function
            rhs = float(fs.breakpoints[fs.values > s][-1]) if np.any(fs.values > s) else 0.0
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mass_identity():
    rng = np.random.default_rng(3)
    f = rng.normal(size=9)
    sp = unit_space(9)
    fs = rearrangement(sp, f)
    assert fs.integral(fs.mass) == pytest.approx(float(np.abs(f).sum()), rel=1e-13)


def test_invalid_steps_rejected():
    with pytest.raises(DomainError):
        StepDecreasing(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(DomainError):
        StepDecreasing(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_power_and_scale_merge_steps_that_underflow_together():
    fs = StepDecreasing(np.array([1.0, 3.0, 4.0]), np.array([1.0, 1e-200, 0.0]))
    sq = fs.power(2.0)  # 1e-400 underflows to 0 and joins the zero step
    assert sq.breakpoints.tolist() == [1.0, 4.0] and sq.values.tolist() == [1.0, 0.0]
    assert sq.integral(4.0) == 1.0



def test_a_function_that_is_not_finite_is_refused():
    with pytest.raises(DomainError, match="a function to rearrange must be finite"):
        rearrangement(path_space(3), [math.nan, 1.0, 0.0])
    with pytest.raises(DomainError, match="must be finite, and f takes the value inf"):
        rearrangement_rows(np.array([[1.0, 2.0], [-math.inf, 0.0]]), np.ones(2))


def test_a_weight_that_is_not_a_number_is_refused():
    with pytest.raises(DomainError, match="breakpoints must be strictly increasing and positive"):
        rearrangement_from_weights([1.0, 2.0], [math.nan, 1.0])


@pytest.mark.parametrize("f, weights, message", [
    ([2.0, 1.0], [1.0, math.inf], "a row's mass is not finite: a run of tied values has mass inf"),
    ([1.0, 1.0], [1e308, 1e308], "a row's mass is not finite: a run of tied values has mass inf"),
    ([2.0, 1.0], [1e308, 1e308], "a row's mass is not finite: it overflows"),
], ids=["infinite weight", "tied run overflows", "row total overflows"])
def test_a_mass_that_is_not_finite_is_refused(f, weights, message):
    with pytest.raises(DomainError, match=message):
        rearrangement_from_weights(f, weights)


@pytest.mark.parametrize("breakpoints, values, message", [
    ([math.nan, 2.0], [2.0, 1.0], "breakpoints must be strictly increasing and positive"),
    ([1.0, math.nan], [2.0, 1.0], "breakpoints must be strictly increasing and positive"),
    ([1.0, 2.0], [math.nan, 1.0], "values must be strictly decreasing and nonnegative"),
    ([1.0, 2.0], [2.0, math.nan], "values must be strictly decreasing and nonnegative"),
    ([], [], "breakpoints and values must be nonempty and aligned"),
])
def test_step_function_refuses_nan_breakpoints_and_values(breakpoints, values, message):
    with pytest.raises(DomainError, match=message):
        StepDecreasing(np.array(breakpoints), np.array(values))

# -- running average ------------------------------------------------------------------


def test_maximal_average_constant():
    fs = rearrangement(SP3, [2.0, 2.0, 2.0])
    for t in (0.5, 1.0, 3.0):
        assert maximal_average(fs, t) == 2.0


def test_maximal_average_indicator_closed_form():
    fs = rearrangement(SP3, [1.0, 1.0, 0.0])  # mass 2 indicator
    assert maximal_average(fs, 1.5) == 1.0
    assert maximal_average(fs, 2.5) == pytest.approx(2.0 / 2.5)


def test_maximal_average_example_f312():
    fs = rearrangement(SP3, [3.0, 1.0, 2.0])
    assert maximal_average(fs, 2.5) == pytest.approx((3.0 + 2.0 + 0.5 * 1.0) / 2.5)


def test_maximal_average_domain_error():
    fs = rearrangement(SP3, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        maximal_average(fs, 0.0)


def test_maximal_average_decreasing_and_dominates():
    rng = np.random.default_rng(5)
    f = rng.uniform(0.0, 4.0, 12)
    fs = rearrangement(unit_space(12), f)
    ts = np.linspace(0.05, fs.mass, 60)
    avgs = [maximal_average(fs, t) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(avgs[:-1], avgs[1:]))
    assert all(a >= fs.eval(t) - 1e-12 for a, t in zip(avgs, ts))


# -- oscillation ------------------------------------------------------------------------


def test_oscillation_constant_zero():
    fs = rearrangement(SP3, [1.5, 1.5, 1.5])
    for alpha in (0.3, 1.0):
        for t in (0.5, 2.0):
            assert oscillation(fs, alpha, t) == 0.0


def test_oscillation_indicator_closed_form():
    fs = rearrangement(SP3, [1.0, 0.0, 0.0])  # indicator, mass 1
    assert oscillation(fs, 1.0, 2.0) == pytest.approx(1.0 / 2.0)


def test_oscillation_alpha_half_example():
    # steps are right-continuous: at the breakpoint t = 2 the value is 1,
    # while the left limit is sqrt(2)
    fs = rearrangement(SP3, [3.0, 1.0, 2.0])
    avg2 = (math.sqrt(3.0) + math.sqrt(2.0)) / 2.0
    assert oscillation(fs, 0.5, 2.0) == pytest.approx(avg2 - 1.0, rel=1e-13)
    left = oscillation(fs, 0.5, 2.0 - 1e-9)
    assert left == pytest.approx(avg2 - math.sqrt(2.0), rel=1e-6)
    # independent quadrature of the powered running average
    fn = lambda s: step_eval(fs.breakpoints, fs.values, s) ** 0.5
    avg = quad_average(fn, 2.0, fs.breakpoints)
    assert oscillation(fs, 0.5, 2.0) == pytest.approx(avg - 1.0, rel=1e-9)


def test_oscillation_profile_eval():
    fs = rearrangement(SP3, [3.0, 1.0, 2.0])
    prof = OscillationProfile(fs, 0.5)
    avg, gap = prof.eval(2.0)
    assert gap == pytest.approx(oscillation(fs, 0.5, 2.0))
    assert avg >= gap >= 0.0


def test_power_rule_pointwise():
    rng = np.random.default_rng(9)
    f = rng.uniform(0.0, 5.0, 10)
    sp = unit_space(10)
    fs = rearrangement(sp, f)
    for alpha in (0.25, 0.5, 1.0):
        powered = rearrangement(sp, np.abs(f) ** alpha)
        direct = fs.power(alpha)
        for t in np.linspace(0.1, fs.mass - 0.1, 25):
            assert powered.eval(t) == pytest.approx(direct.eval(t), rel=1e-12)


# -- split norm ----------------------------------------------------------------------------


def test_sum_plus_linf_constant():
    fs = rearrangement(SP3, [4.0, 4.0, 4.0])
    for alpha in (0.5, 1.0):
        assert sum_plus_linf_norm(fs, alpha) == pytest.approx(4.0)


def test_sum_plus_linf_small_indicator():
    sp = space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [0.25, 2.0])
    fs = rearrangement(sp, [1.0, 0.0])
    assert sum_plus_linf_norm(fs, 1.0) == pytest.approx(0.25)


def test_sum_plus_linf_example_f312():
    fs = rearrangement(SP3, [3.0, 1.0, 2.0])
    assert sum_plus_linf_norm(fs, 1.0) == pytest.approx(3.0)


# -- inequality suite ------------------------------------------------------------------------


def test_hardy_littlewood_pairing():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        w = rng.uniform(0.1, 2.0, n)
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = float(np.sum(np.abs(f * g) * w))
        fs, gs = rearrangement_from_weights(f, w), rearrangement_from_weights(g, w)
        rhs = product_step_integral(fs.breakpoints, fs.values, gs.breakpoints, gs.values)
        assert lhs <= rhs + 1e-10


def test_subadditivity_double_time():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        w = rng.uniform(0.1, 2.0, n)
        f, g = rng.normal(size=n), rng.normal(size=n)
        fs = rearrangement_from_weights(f, w)
        gs = rearrangement_from_weights(g, w)
        hs = rearrangement_from_weights(f + g, w)
        for t in np.linspace(1e-3, hs.mass / 2.0, 17):
            assert hs.eval(2.0 * t) <= fs.eval(t) + gs.eval(t) + 1e-12


def test_subadditivity_averages():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        w = rng.uniform(0.1, 2.0, n)
        f, g = rng.normal(size=n), rng.normal(size=n)
        fs = rearrangement_from_weights(f, w)
        gs = rearrangement_from_weights(g, w)
        hs = rearrangement_from_weights(f + g, w)
        for t in np.linspace(1e-3, hs.mass, 17):
            assert (maximal_average(hs, t)
                    <= maximal_average(fs, t) + maximal_average(gs, t) + 1e-12)


def test_average_derivative_identity_integrated():
    # on any interval, avg(t2) - avg(t1) = -int (avg - val)/s ds, exactly
    fs = rearrangement(unit_space(7), [4.0, 1.0, 3.0, 0.5, 2.0, 5.0, 1.5])
    pairs = [(0.3, 0.9), (0.5, 2.7), (1.0, 6.5), (2.2, 6.9)]
    for t1, t2 in pairs:
        lhs = maximal_average(fs, t2) - maximal_average(fs, t1)
        rhs = 0.0
        for lo, hi, _v, gap in fs.panels(fs.mass):
            a, b = max(lo, t1), min(hi, t2)
            if b > a:
                rhs -= gap * (1.0 / a - 1.0 / b)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_average_power_reconstruction(q):
    """F(t)^q = q int_t^1 F^{q-1} gap ds/s + F(1)^q with F the powered average.

    The boundary term is F(1)^q by the fundamental theorem of calculus; the
    split norm at alpha gives F(1) = (split norm)^alpha.
    """
    from scipy.integrate import quad

    sp = space_from_matrix([[0.0, 0.2, 0.4], [0.2, 0.0, 0.2], [0.4, 0.2, 0.0]],
                           [0.11, 0.4, 0.23])
    fs = rearrangement(sp, [3.0, 1.0, 2.0])
    alpha = 0.5
    powered = fs.power(alpha)
    favg = lambda t: maximal_average(powered, t)
    gap = lambda t: favg(t) - float(powered.eval(t))
    boundary = sum_plus_linf_norm(fs, alpha) ** (alpha * q)
    for t in (0.05, 0.2, 0.6):
        pieces = [0.0] + [b for b in fs.breakpoints if t < b < 1.0]
        nodes = [t] + pieces[1:] + [1.0]
        integral = 0.0
        for a, b in zip(nodes[:-1], nodes[1:]):
            val, _ = quad(lambda s: favg(s) ** (q - 1.0) * gap(s) / s, a, b, limit=200)
            integral += val
        rhs = q * integral + boundary
        assert favg(t) ** q == pytest.approx(rhs, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.lists(st.floats(0.1, 5.0), min_size=12, max_size=12))
def test_rearrangement_decreasing_and_equimeasurable(fvals, wvals):
    f = np.asarray(fvals)
    w = np.asarray(wvals[: len(fvals)])
    fs = rearrangement_from_weights(f, w)
    assert np.all(np.diff(fs.values) < 0.0)
    assert fs.mass == pytest.approx(float(w.sum()), rel=1e-12)
    top = float(np.abs(f).max())
    assert float(fs.values[0]) == top


# -- the batched rearrangement ------------------------------------------------------


def _outcome(rearrange):
    """The bytes of every step function's arrays, or the DomainError's message."""
    try:
        steps = rearrange()
    except DomainError as exc:
        return str(exc)
    return [tuple(a.tobytes() for a in (fs.breakpoints, fs.values, fs.edges, fs.prefix))
            for fs in steps]


@st.composite
def row_batches(draw):
    """1-6 rows over 1-20 points: rows of few levels (long ties), free rows and zero rows."""
    n = draw(st.integers(1, 20))
    levels = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3)) + [0.0]
    rows = draw(st.lists(st.one_of(st.lists(st.sampled_from(levels), min_size=n, max_size=n),
                                   st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n),
                                   st.just([0.0] * n)),
                         min_size=1, max_size=6))
    weights = draw(st.lists(st.one_of(st.floats(0.01, 10.0), st.just(1e20)),
                            min_size=n, max_size=n))
    return np.array(rows), np.array(weights)


@settings(max_examples=200, deadline=None)
@given(row_batches())
@example((np.array([[2.0, 1.0]]), np.array([1e20, 1.0])))  # a run's mass lost to rounding
@example((np.array([[0.0, 0.0], [2.0, 1.0]]), np.array([1e20, 1.0])))
@example((np.array([[3.0] * 12 + [1.0] * 5, [0.0] * 17]), np.linspace(0.1, 1.7, 17)))
def test_rearrangement_rows_equal_one_row_rearrangements_bitwise(batch):
    f, w = batch
    assert _outcome(lambda: rearrangement_rows(f, w)) == \
        _outcome(lambda: [one_row_rearrangement(row, w) for row in f])
    for row in f:
        assert _outcome(lambda: [rearrangement_from_weights(row, w)]) == \
            _outcome(lambda: [one_row_rearrangement(row, w)])


def test_refused_row_raises_what_it_raises_alone():
    w = np.array([-1.0, 2.0])  # the second row's first step has mass -1
    rearrangement_rows(np.array([[1.0, 1.0]]), w)
    with pytest.raises(DomainError, match="breakpoints must be strictly increasing"):
        one_row_rearrangement([2.0, 1.0], w)
    with pytest.raises(DomainError, match="breakpoints must be strictly increasing"):
        rearrangement_rows(np.array([[1.0, 1.0], [2.0, 1.0]]), w)


def test_a_step_whose_mass_is_lost_to_rounding_is_dropped():
    """1e20 + 1 rounds to 1e20: the value 1 of the first row gets a step of width 0."""
    w = np.array([1e20, 1.0])
    rows = rearrangement_rows(np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), w)
    assert [(fs.breakpoints.tolist(), fs.values.tolist()) for fs in rows] == [
        ([1e20], [2.0]), ([1e20], [1.0]), ([1.0, 1e20], [2.0, 1.0])]
    assert _outcome(lambda: rows[:1]) == _outcome(lambda: [StepDecreasing([1e20], [2.0])])
    assert _outcome(lambda: rows[:1]) == _outcome(lambda: [one_row_rearrangement([2.0, 1.0], w)])
    with pytest.raises(DomainError, match="breakpoints must be strictly increasing"):
        StepDecreasing([1e20, 1e20], [2.0, 1.0])
