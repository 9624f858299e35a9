"""Power-log integrals against mpmath quadrature, and the quadrature they avoid."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscembed import (PowerLog, StepDecreasing, lorentz_zygmund, modulus_profile,
                      quasi_norm, rearrangement, space_from_points, tent_function, weights)

from _oracles import mp_power_log_integral, nabla


@st.composite
def integrals(draw):
    """(a, b, g, lo, hi) with lo = 0 or as small as 1e-300 and hi / lo >= 2.

    A narrower panel near t = 1e-300 loses up to ln(1/t) * eps / ln(hi/lo) of
    its digits to the rounding of u = ln(1/t) before any integration.  The
    range of lo keeps t^a within [1e-280, 1e280].
    """
    a, b = draw(st.floats(-3.0, 50.0)), draw(st.floats(-5.0, 5.0))
    g = draw(st.sampled_from([0.0, 1.0, -1.0]))
    e = draw(st.floats(-300.0 if a == 0.0 else max(-300.0, -280.0 / abs(a)), 0.5))
    hi = 10.0**e * 10.0 ** draw(st.floats(0.3, 3.0))
    improper = draw(st.booleans()) and PowerLog(a, b, g).integrable_at_zero_dt_over_t()
    return a, b, g, 0.0 if improper else 10.0**e, hi


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
def test_integral_dt_over_t_matches_mpmath(case):
    a, b, g, lo, hi = case
    want = mp_power_log_integral(a, b, g, lo, hi)
    assume(1e-300 < want < 1e300)
    assert PowerLog(a, b, g).integral_dt_over_t(lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lorentz_zygmund_norm_of_a_tiny_panel_is_exact():
    # int_0^1e-5 t^2 dt/t = 5e-11
    got = quasi_norm(lorentz_zygmund(1.0, 2.0, 0.0), StepDecreasing([1e-5], [1.0]))
    assert got == pytest.approx(math.sqrt(5e-11), rel=1e-15, abs=0.0)


def _count_quad_calls(monkeypatch):
    calls, real = [], weights.quad
    monkeypatch.setattr(weights, "quad", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


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
