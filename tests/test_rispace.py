"""Quasi-norm families, fundamental functions, and convexity diagnostics."""

import math

import numpy as np
import pytest

from oscembed import (DomainError, OrliczFunction, PowerLog, convexify,
                      fundamental_powerlog, lambda_w, lorentz, lorentz_zygmund, lp,
                      marcinkiewicz, marcinkiewicz_tilde, orlicz, path_space,
                      quasi_norm, rearrangement, spec_from_json)
from oscembed.rearrange import rearrangement_from_weights

from _oracles import (alpha_convexity_defect, dense_sup, fundamental_dual, fundamental_function,
                      indicator_step, lambda_endpoint_norm, marcinkiewicz_endpoint_norm)

SP5 = path_space(5)


def fstar_of(f, w=None):
    w = np.ones(len(f)) if w is None else np.asarray(w)
    return rearrangement_from_weights(np.asarray(f, dtype=float), w)


# -- Lebesgue and Lorentz ------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(1.0, 0.7), (2.0, 0.3), (0.5, 2.0)])
def test_lp_indicator(p, m):
    assert quasi_norm(lp(p), indicator_step(m)) == pytest.approx(m ** (1.0 / p))


def test_lp_matches_direct_sum():
    f = np.array([3.0, -1.0, 2.0, 0.5, 1.0])
    fs = rearrangement(SP5, f)
    assert quasi_norm(lp(2.0), fs) == pytest.approx(float(np.sqrt(np.sum(f**2))))
    assert quasi_norm(lp(math.inf), fs) == 3.0


def test_weak_lorentz_sup_on_breakpoints_vs_dense_grid():
    # truncated-step surrogate of t^{-1/p}: sup t^{1/p} f*(t) sits on breakpoints
    p = 2.0
    ts = np.linspace(0.2, 3.0, 12)
    vals = ts ** (-1.0 / p) + 0.01 * np.arange(len(ts))[::-1]
    fs = rearrangement_from_weights(vals, np.diff(np.concatenate([[0.0], ts])))
    spec = lorentz(p, math.inf)
    got = quasi_norm(spec, fs)
    oracle = dense_sup(lambda t: t ** (1.0 / p) * fs.eval(t), 1e-6, fs.mass, n=100_000)
    assert got >= oracle - 1e-9
    assert got == pytest.approx(oracle, rel=1e-3)
    by_breaks = max(v * t ** (1.0 / p) for v, t in zip(fs.values, fs.breakpoints))
    assert got == pytest.approx(by_breaks, rel=1e-12)


def test_lorentz_finite_q_closed_form():
    # indicator: ||chi||_{p,q} = (p/q)^{1/q} m^{1/p}
    p, q, m = 1.5, 3.0, 0.8
    assert quasi_norm(lorentz(p, q), indicator_step(m)) == pytest.approx(
        (p / q) ** (1.0 / q) * m ** (1.0 / p))


def test_lorentz_zygmund_indicator_within_family_constant():
    p, r, beta = 1.5, 2.0, 0.5
    spec = lorentz_zygmund(p, r, beta)
    ratios = []
    for m in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        norm = quasi_norm(spec, indicator_step(m))
        closed = m ** (1.0 / p) * (1.0 + math.log(1.0 / m)) ** beta if m <= 1.0 else m ** (1.0 / p)
        ratios.append(norm / closed)
    assert max(ratios) / min(ratios) < 3.0


# -- Marcinkiewicz and Lambda families ---------------------------------------------------


def test_marcinkiewicz_sup_vs_dense_grid():
    phi = PowerLog(0.5)
    spec = marcinkiewicz(phi)
    fs = fstar_of([4.0, 2.5, 1.0, 0.5], [0.3, 0.7, 1.1, 0.9])
    got = quasi_norm(spec, fs)

    def fn(t):
        return float(phi(t)) / t * fs.integral(t)

    oracle = dense_sup(fn, 1e-8, fs.mass, n=200_000)
    assert got == pytest.approx(oracle, rel=1e-4)  # grid slightly undershoots the sup
    assert got >= oracle - 1e-12


def test_marcinkiewicz_tilde_contains_plain():
    phi = PowerLog(0.5)
    fs = fstar_of([4.0, 2.5, 1.0, 0.5])
    assert quasi_norm(marcinkiewicz_tilde(phi), fs) <= quasi_norm(marcinkiewicz(phi), fs) + 1e-12


def test_lambda_w_power_weight_is_lorentz():
    # w(t) = (q/p) t^{q/p - 1} makes the Lambda norm the Lorentz norm
    p, q = 2.0, 1.5
    w = PowerLog(q / p - 1.0, const=q / p)
    fs = fstar_of([3.0, 2.0, 1.0])
    got = quasi_norm(lambda_w(q, w), fs)
    expected = (q / p) ** (1.0 / q) * quasi_norm(lorentz(p, q), fs)
    assert got == pytest.approx(expected, rel=1e-10)


# -- Orlicz ----------------------------------------------------------------------------


def test_orlicz_power_matches_lp():
    fn = OrliczFunction("power", 2.0)
    f = np.array([3.0, 1.0, 2.0, 0.0, 1.5])
    fs = rearrangement(SP5, f)
    assert quasi_norm(orlicz(fn), fs) == pytest.approx(quasi_norm(lp(2.0), fs), rel=1e-10)


def test_orlicz_power_log_bisection_consistency():
    fn = OrliczFunction("power_log", 1.5, 1.0)
    fs = fstar_of([2.0, 1.0, 0.5], [0.5, 1.5, 1.0])
    lam = quasi_norm(orlicz(fn), fs)
    widths = np.diff(np.concatenate([[0.0], fs.breakpoints]))
    budget = float(np.sum(fn(fs.values / lam) * widths))
    assert budget == pytest.approx(1.0, rel=1e-9)


def test_orlicz_monotone_preset_validation():
    with pytest.raises(DomainError):
        OrliczFunction("power", -1.0)


# -- convexification ------------------------------------------------------------------------


def test_convexify_exponent_algebra():
    assert convexify(lp(1.0), 2.0) == lp(2.0)
    assert convexify(lorentz(1.0, math.inf), 2.0) == lorentz(2.0, math.inf)
    spec = lorentz(1.5, 2.0)
    assert convexify(spec, 1.0) == spec


def test_convexify_norm_identity():
    # ||f||_{X^(r)} = |||f|^r||_X^(1/r) exactly, via the normalized family
    f = np.array([3.0, 1.5, 0.5, 2.0, 1.0])
    fs = rearrangement(SP5, f)
    fs_sq = rearrangement(SP5, f**2)
    for spec in (lp(1.0), lorentz(1.0, 2.0), lorentz_zygmund(1.0, 1.0, 0.5)):
        lhs = quasi_norm(convexify(spec, 2.0), fs)
        rhs = quasi_norm(spec, fs_sq) ** 0.5
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_convexify_symbolic_for_marcinkiewicz():
    spec = convexify(marcinkiewicz(PowerLog(0.5)), 2.0)
    assert spec.convexify_power == 2.0
    f = np.array([3.0, 1.5, 0.5, 2.0, 1.0])
    lhs = quasi_norm(spec, rearrangement(SP5, f))
    rhs = quasi_norm(marcinkiewicz(PowerLog(0.5)), rearrangement(SP5, f**2)) ** 0.5
    assert lhs == pytest.approx(rhs, rel=1e-10)


# -- fundamental functions ---------------------------------------------------------------------


def test_fundamental_lp():
    assert fundamental_function(lp(2.0), 0.25) == pytest.approx(0.5)
    assert fundamental_function(lp(math.inf), 9.0) == 1.0


def test_fundamental_convexified_is_root():
    for spec in (lp(2.0), lorentz(1.5, 2.5), marcinkiewicz(PowerLog(0.5))):
        conv = convexify(spec, 2.0)
        for t in (0.1, 0.7, 3.0):
            assert fundamental_function(conv, t) == pytest.approx(
                fundamental_function(spec, t) ** 0.5, rel=1e-10)


def test_fundamental_marcinkiewicz_is_phi():
    phi = PowerLog(0.5)
    for t in (0.2, 1.0, 4.0):
        assert fundamental_function(marcinkiewicz(phi), t) == pytest.approx(float(phi(t)))
        assert fundamental_function(marcinkiewicz_tilde(phi), t) == pytest.approx(float(phi(t)))


def test_fundamental_matches_indicator_norm():
    specs = [lp(2.0), lorentz(1.5, 3.0), lorentz_zygmund(2.0, 1.0, 0.3),
             lambda_w(2.0, PowerLog(0.5)), orlicz(OrliczFunction("power", 3.0))]
    for spec in specs:
        for t in (0.3, 1.7):
            assert fundamental_function(spec, t) == pytest.approx(
                quasi_norm(spec, indicator_step(t)), rel=1e-9)


def test_fundamental_duality_relation():
    spec = lorentz(2.0, 2.0)
    for t in (0.2, 1.0, 5.0):
        assert fundamental_dual(spec, t) * fundamental_function(spec, t) == pytest.approx(t)


def test_fundamental_powerlog_agrees_where_exact():
    for spec in (lp(2.0), lorentz(1.5, 3.0), marcinkiewicz(PowerLog(0.5)),
                 lambda_w(2.0, PowerLog(0.5))):
        pl = fundamental_powerlog(spec)
        for t in (0.1, 0.9):
            assert float(pl(t)) == pytest.approx(fundamental_function(spec, t), rel=1e-10)


# -- lattice / homogeneity / majorization properties ----------------------------------------------


ALL_SPECS = [lp(0.5), lp(1.0), lp(2.0), lorentz(2.0, 1.0), lorentz(1.0, math.inf),
             lorentz_zygmund(1.5, 2.0, 0.5), lambda_w(1.0, PowerLog(0.0)),
             marcinkiewicz(PowerLog(0.5)), marcinkiewicz_tilde(PowerLog(0.5)),
             orlicz(OrliczFunction("power", 1.5))]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_homogeneity(spec):
    rng = np.random.default_rng(31)
    f = rng.normal(size=8)
    w = rng.uniform(0.2, 2.0, 8)
    for lam in (0.25, 3.0):
        a = quasi_norm(spec, rearrangement_from_weights(lam * f, w))
        b = lam * quasi_norm(spec, rearrangement_from_weights(f, w))
        assert a == pytest.approx(b, rel=1e-8)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_lattice_monotonicity(spec):
    rng = np.random.default_rng(32)
    f = rng.uniform(0.0, 3.0, 8)
    w = rng.uniform(0.2, 2.0, 8)
    g = f * rng.uniform(0.0, 1.0, 8)
    assert (quasi_norm(spec, rearrangement_from_weights(g, w))
            <= quasi_norm(spec, rearrangement_from_weights(f, w)) + 1e-10)


def test_hardy_littlewood_polya_majorization():
    # averaged profile is majorized: its norm cannot exceed, in Banach families
    rng = np.random.default_rng(33)
    banach = [lp(1.0), lp(2.0), lorentz(2.0, 1.0), lorentz_zygmund(2.0, 2.0, 0.5),
              marcinkiewicz(PowerLog(0.5)), orlicz(OrliczFunction("power", 2.0))]
    for _ in range(10):
        g = rng.uniform(0.0, 4.0, 10)
        w = rng.uniform(0.2, 1.5, 10)
        gs = rearrangement_from_weights(g, w)
        avg = gs.integral(gs.mass) / gs.mass
        fs = rearrangement_from_weights(np.full(10, avg), w)
        for t in np.linspace(0.1, gs.mass, 13):
            assert fs.integral(t) <= gs.integral(t) + 1e-10
        for spec in banach:
            assert (quasi_norm(spec, fs) <= quasi_norm(spec, gs) * (1.0 + 1e-9))


def test_lambda_x_m_x_sandwich():
    rng = np.random.default_rng(34)
    banach = [lp(2.0), lorentz(2.0, 1.0), lorentz(1.5, 1.5)]
    for spec in banach:
        for _ in range(5):
            f = rng.normal(size=9)
            w = rng.uniform(0.2, 1.5, 9)
            fs = rearrangement_from_weights(f, w)
            m_end = marcinkiewicz_endpoint_norm(spec, fs)
            lam_end = lambda_endpoint_norm(spec, fs)
            x_norm = quasi_norm(spec, fs)
            assert m_end <= x_norm * (1.0 + 1e-8)
            assert x_norm <= lam_end * (1.0 + 1e-8)


def test_split_norm_embedding_for_lp():
    # ||f||_{L^a + L^inf} <= ||f||_{X^(a)} with constant 1 for X = L^p
    from oscembed import sum_plus_linf_norm

    rng = np.random.default_rng(35)
    for p in (1.0, 2.0):
        for alpha in (0.5, 1.0):
            spec = convexify(lp(p), alpha)
            for _ in range(5):
                f = rng.normal(size=8)
                w = rng.uniform(0.1, 1.0, 8)
                fs = rearrangement_from_weights(f, w)
                assert (sum_plus_linf_norm(fs, alpha)
                        <= quasi_norm(spec, fs) * (1.0 + 1e-9))


# -- alpha-convexity -------------------------------------------------------------------------


def test_alpha_convexity_single_function_is_one():
    rng = np.random.default_rng(36)
    samples = [(rng.normal(size=5),) for _ in range(6)]
    d = alpha_convexity_defect(lp(2.0), 0.5, samples, SP5)
    assert d == pytest.approx(1.0, rel=1e-9)


def test_alpha_convexity_triangle_for_banach():
    rng = np.random.default_rng(37)
    samples = [tuple(rng.normal(size=5) for _ in range(3)) for _ in range(8)]
    assert alpha_convexity_defect(lp(2.0), 1.0, samples, SP5) <= 1.0 + 1e-9


def test_weak_l1_not_one_convex():
    # reciprocal spike pairs 1/x and 1/(1-x) witness the triangle failure,
    # and the harmonic spike train makes the defect large
    from oscembed import load_space

    spec = lorentz(1.0, math.inf)
    n = 200
    x = (np.arange(n) + 0.5) / n
    sp = load_space({"coords": [[xi] for xi in x], "metric": "euclidean",
                     "weights": [1.0 / n] * n})
    pair_defect = alpha_convexity_defect(spec, 1.0, [(1.0 / x, 1.0 / (1.0 - x))], sp)
    assert pair_defect > 1.0

    sp2 = path_space(20)
    train = tuple(np.array([1.0 / (abs(i - j) + 1.0) for i in range(20)])
                  for j in range(20))
    assert alpha_convexity_defect(spec, 1.0, [train], sp2) > 2.0


# -- serialization -----------------------------------------------------------------------------


def test_spec_json_roundtrip():
    specs = [lp(2.0), lorentz(1.5, math.inf), lorentz_zygmund(1.5, 2.0, 0.5),
             lambda_w(2.0, PowerLog(0.5, 1.0)), marcinkiewicz(PowerLog(0.5)),
             convexify(marcinkiewicz(PowerLog(0.5)), 2.0),
             orlicz(OrliczFunction("power_log", 1.5, 1.0))]
    for spec in specs:
        back = spec_from_json(spec.to_json())
        assert back.label() == spec.label()
        fs = fstar_of([2.0, 1.0, 0.5])
        assert quasi_norm(back, fs) == pytest.approx(quasi_norm(spec, fs), rel=1e-12)
