"""The power-log panel kernel against the hand-written panel loops it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscembed import (DomainError, PowerLog, StepDecreasing, lambda_w, lorentz_zygmund,
                      oscillation_functional, path_space, quasi_norm, rearrangement,
                      weighted_step_norm)

from _oracles import (loop_lambda_w_norm, loop_lorentz_zygmund_norm,
                      loop_oscillation_functional, loop_weighted_step_norm)

# panels (0, 1e-12), (1e-12, 0.5), (0.5, 1.7) and (1.7, 2): tiny first panel,
# a panel across t = 1 and a trailing zero value
EDGE_STEP = StepDecreasing(np.array([1e-12, 0.5, 1.7, 2.0]), np.array([3.0, 1.0, 0.25, 0.0]))


@st.composite
def step_functions(draw):
    """Decreasing step functions with 1-6 panels, the first as narrow as 1e-12."""
    k = draw(st.integers(1, 6))
    widths = [10.0 ** draw(st.floats(-12.0, 0.0))]
    widths += [10.0 ** draw(st.floats(-3.0, 0.3)) for _ in range(k - 1)]
    values = [10.0 ** draw(st.floats(-3.0, 3.0))]
    for _ in range(k - 1):
        values.append(values[-1] * draw(st.floats(0.05, 0.95)))
    if k > 1 and draw(st.booleans()):
        values[-1] = 0.0
    return StepDecreasing(np.cumsum(widths), np.array(values))


weights = st.builds(PowerLog, st.floats(0.05, 2.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
exponents = st.one_of(st.floats(0.5, 4.0), st.just(math.inf))


@settings(max_examples=80, deadline=None)
@given(step_functions(), st.floats(0.5, 4.0), exponents, st.floats(-2.0, 2.0))
@example(EDGE_STEP, 1.5, 2.0, 0.5)
@example(EDGE_STEP, 1.5, math.inf, -1.0)
def test_lorentz_zygmund_norm_matches_panel_loop(fs, p, r, beta):
    got = quasi_norm(lorentz_zygmund(p, r, beta), fs)
    assert got == pytest.approx(loop_lorentz_zygmund_norm(p, r, beta, fs), rel=1e-12, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(step_functions(), st.floats(0.5, 4.0), weights)
@example(EDGE_STEP, 2.0, PowerLog(0.5, 1.0, -0.5))
def test_lambda_w_norm_matches_panel_loop(fs, q, w):
    got = quasi_norm(lambda_w(q, w), fs)
    assert got == pytest.approx(loop_lambda_w_norm(q, w, fs), rel=1e-12, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(step_functions(), weights, exponents)
@example(EDGE_STEP, PowerLog(0.5, -1.0, 1.0), 2.0)
@example(EDGE_STEP, PowerLog(0.5, -1.0, 1.0), math.inf)
def test_weighted_step_norm_matches_panel_loop(fs, w, q):
    assert weighted_step_norm(fs, w, q) == pytest.approx(loop_weighted_step_norm(fs, w, q),
                                                         rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(step_functions(), st.floats(0.5, 4.0), exponents, st.floats(-2.0, 2.0),
       st.floats(0.3, 1.0), st.floats(0.1, 0.9), exponents, st.floats(0.5, 3.0))
@example(EDGE_STEP, 1.5, 2.0, 0.5, 0.8, 0.5, 2.0, 2.0)
@example(EDGE_STEP, 1.5, 2.0, 0.5, 0.8, 0.5, math.inf, 2.0)
def test_oscillation_functional_matches_panel_loop(fs, p, r, beta, alpha, s, q, q_dim):
    # a path whose point weights are the panel widths and whose values are the steps
    space = path_space(fs.values.size, weights=np.diff(fs.edges))
    f = fs.values
    spec = lorentz_zygmund(p, r, beta)
    got = oscillation_functional(rearrangement(space, f), spec, alpha, s, q, q_dim)
    want = loop_oscillation_functional(space, f, spec, alpha, s, q, q_dim)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(step_functions(), st.lists(st.floats(0.0, 4.0), max_size=8))
@example(EDGE_STEP, [0.0, 1e-12, 0.5, 1.0, 2.0, 3.0])
def test_step_integral_of_array_equals_scalar_calls(fs, extra):
    ts = np.concatenate([fs.edges, fs.edges * 0.5, extra])
    got = fs.integral(ts)
    assert got.shape == ts.shape
    assert got.tolist() == [fs.integral(t) for t in ts.tolist()]
    assert all(type(fs.integral(t)) is float for t in ts.tolist())


def test_step_integral_rejects_negative_t():
    with pytest.raises(DomainError):
        EDGE_STEP.integral(-1e-300)
    with pytest.raises(DomainError):
        EDGE_STEP.integral(np.array([0.5, -1.0]))


# -- batch invariance ---------------------------------------------------------------------


@st.composite
def kernel_batches(draw):
    """A weight on one path of weights.py and 1-30 panels, many narrow enough for path 3.

    closed form: a = 0 with g = 0 or b = -1.  Gamma and Gauss-Legendre: a > 0,
    g = 0, b > -1; a narrow panel far below t = 1 cancels and takes the rule.
    quad: g != 0, a < 0, or b <= -1.
    """
    path = draw(st.sampled_from(["closed", "gamma", "quad"]))
    if path == "closed":
        if draw(st.booleans()):
            w = PowerLog(0.0, draw(st.floats(-3.0, 3.0)))
        else:
            w = PowerLog(0.0, -1.0, draw(st.floats(-3.0, 3.0)))
    elif path == "gamma":
        w = PowerLog(draw(st.floats(0.05, 3.0)), draw(st.floats(-0.95, 3.0)))
    else:
        w = draw(st.one_of(
            st.builds(PowerLog, st.floats(0.05, 2.0), st.floats(-3.0, 3.0),
                      st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)),
            st.builds(PowerLog, st.floats(-1.0, -0.05), st.floats(-3.0, 3.0)),
            st.builds(PowerLog, st.floats(0.05, 2.0), st.floats(-3.0, -1.0))))
    improper = w.integrable_at_zero_dt_over_t()
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 30))):
        start = 10.0 ** draw(st.floats(-12.0, 1.0))
        if improper and draw(st.integers(0, 4)) == 0:
            start = 0.0
        rel = 10.0 ** draw(st.floats(-8.0, -1.0) | st.floats(-1.0, 2.0))
        lo.append(start)
        hi.append(start * (1.0 + rel) if start > 0.0 else rel)
    return w, np.array(lo), np.array(hi)


@settings(max_examples=150, deadline=None)
@given(kernel_batches())
@example((PowerLog(4.0 / 3.0, 1.0),  # Gauss-Legendre panels of the collapse sweep's LZ norm
          np.array([1e-6, 2e-6, 3e-4, 0.01, 0.02]),
          np.array([1.0001e-6, 2.0003e-6, 3.001e-4, 0.0101, 0.03])))
@example((PowerLog(0.0, -1.0, 0.5), np.array([1e-9, 0.5]), np.array([2e-9, 3.0])))
@example((PowerLog(-0.5, 0.5, 1.0), np.array([1e-9, 0.5]), np.array([2e-9, 3.0])))
@example((PowerLog(-0.91, 1.0),  # the oscillation weight's narrow (Gauss-Legendre) and wide panels
          np.array([1e-6, 0.01, 0.02, 1e-9, 0.3, 0.04]),
          np.array([1.0001e-6, 0.011, 0.5, 2e-9, 3.0, 0.0401])))
def test_kernel_gives_each_panel_its_value_alone_bitwise(batch):
    w, lo, hi = batch
    together = w._integrals_dt_over_t(lo, hi)
    alone = [w._integrals_dt_over_t(lo[i:i + 1], hi[i:i + 1])[0] for i in range(lo.size)]
    assert together.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("lo, hi", [(1e-300, 1.001e-300),
                                    (np.array([1e-300, 0.01]), np.array([1.001e-300, 0.011]))])
def test_kernel_refuses_an_integrand_past_e700(lo, hi):
    # t^-3 on (1e-300, 1.001e-300) is about 1e900: its Gauss-Legendre nodes overflow, and
    # quad's integrand passes e^700, where it used to be clamped to a finite, wrong value
    with pytest.raises(FloatingPointError, match=r"PowerLog\(a=-3\.0, b=0\.0, g=0\.0\) "
                                                 r"passes e\^700 on the panel t in \(1e-300, "
                                                 r"1\.001e-300\)"):
        PowerLog(-3.0).integral_dt_over_t(lo, hi)
