"""The one modulus routine against the per-radius loops it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscembed import (PowerLog, StepDecreasing, collapse_sweep, grid_space, k_bounds_path,
                      lorentz, lorentz_zygmund, lp, modulus_profile, path_space, smoothness,
                      space_from_graph, space_from_points, tent_function)
from oscembed.space import MetricIndex

from _oracles import loop_k_bounds, loop_modulus, loop_modulus_profile, modulus

SPECS = {"lp1": lp(1.0), "lp2": lp(2.0), "lorentz": lorentz(2.0, 1.0),
         "lorentz_zygmund": lorentz_zygmund(1.5, 2.0, 0.5)}


@st.composite
def modulus_instances(draw):
    """A weighted lattice (radii hit its distances exactly) or graph, f, and t > 0."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        n = rows * cols
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        sp = grid_space(rows, cols, weights)
    else:
        n = draw(st.integers(2, 7))
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        edges = [(i, draw(st.integers(0, i - 1)), draw(st.floats(0.1, 3.0))) for i in range(1, n)]
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.floats(0.1, 3.0)).filter(lambda e: e[0] != e[1]),
                               max_size=3))
        sp = space_from_graph(n, edges, weights)
    f = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=sp.n, max_size=sp.n)))
    dists = np.unique(sp.dist[sp.dist > 0.0])
    top = 2.0 * sp.diameter
    t = draw(st.one_of(st.floats(0.01, 0.999).map(lambda u: u * top),  # j_cut >= 1
                       st.floats(1.0, 3.0).map(lambda u: u * top),  # j_cut = 0
                       st.sampled_from(dists.tolist())))
    return sp, f, t


alphas = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@settings(max_examples=150, deadline=None)
@given(modulus_instances(), alphas, st.sampled_from(sorted(SPECS)))
def test_moduli_equal_per_radius_loops_bitwise(instance, alpha, spec_name):
    sp, f, t = instance
    spec = SPECS[spec_name]
    prof, want = modulus_profile(sp, f, spec, alpha), loop_modulus_profile(sp, f, spec, alpha)
    assert prof.radii.tobytes() == want.radii.tobytes()
    assert prof.values.tobytes() == want.values.tobytes()
    assert prof.tail_value == want.tail_value
    assert modulus(sp, f, t, spec, alpha) == loop_modulus(sp, f, t, spec, alpha)
    assert k_bounds_path(sp, f, [t], spec, alpha)[0] == loop_k_bounds(sp, f, t, spec, alpha)


@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 11.0, 40.0])
def test_k_bounds_makes_one_pass_per_distinct_radius(monkeypatch, t):
    sp = path_space(6)  # diameter 5, so t = 11 and 40 cover the space at j = 0
    counted, passes = [], []
    counts, inner = MetricIndex.counts, smoothness._ball_averages

    def counted_counts(self, rs):
        counted.append(list(rs))
        return counts(self, rs)

    def counted_averages(space, values, ball_sizes, alpha):
        passes.append(ball_sizes.shape)
        return inner(space, values, ball_sizes, alpha)

    monkeypatch.setattr(MetricIndex, "counts", counted_counts)
    monkeypatch.setattr(smoothness, "_ball_averages", counted_averages)
    k_bounds_path(sp, np.arange(6.0) ** 2, [t], lp(2.0), 0.5)[0]
    assert len(counted) == 1 and len(passes) == 1  # the radii are counted and averaged once
    radii = counted[0]
    assert passes[0] == (sp.n, len(radii))
    assert len(radii) == len(set(radii))
    top = 2.0 * sp.diameter
    j_cut = int(np.ceil(np.log2(top / t))) if t < top else 0
    assert radii == [2.0**j * t for j in range(j_cut)] + [max(top, t) + 1.0]


def _sweep_grid():
    """The collapse sweep's grid: 12 x 12 points 0.4 apart, weights in [0.5, 1.5]."""
    coords = 0.4 * np.array([(i, j) for i in range(12) for j in range(12)], dtype=float)
    return space_from_points(coords, np.random.default_rng(1).uniform(0.5, 1.5, 144))


def test_profile_ranks_each_distinct_row_once(monkeypatch):
    sp = _sweep_grid()
    f = tent_function(sp, 0) - tent_function(sp, 77)
    ranked, real = [], smoothness.Ranking
    monkeypatch.setattr(smoothness, "Ranking", lambda rows: ranked.append(rows) or real(rows))
    modulus_profile(sp, f, lorentz_zygmund(1.5, 2.0, 0.5), 1.0)
    averages = smoothness._averages(
        sp, f, sp.metric.counts([*smoothness.radius_grid(sp), 2.0 * sp.diameter + 1.0]), 1.0)
    distinct = np.unique(averages, axis=0)
    assert len(ranked) == 1
    assert ranked[0].shape == distinct.shape  # no row twice
    assert np.unique(ranked[0], axis=0).tobytes() == distinct.tobytes()  # and every row
    assert distinct.shape[0] < averages.shape[0]


def test_lorentz_zygmund_profile_makes_one_kernel_call(monkeypatch):
    sp = _sweep_grid()
    calls = []
    kernel = PowerLog._integrals_dt_over_t

    def counted(self, lo, hi):
        calls.append(lo.size)
        return kernel(self, lo, hi)

    monkeypatch.setattr(PowerLog, "_integrals_dt_over_t", counted)
    prof = modulus_profile(sp, tent_function(sp, 0), lorentz_zygmund(1.5, 2.0, 0.5), 1.0)
    assert len(calls) == 1
    assert calls[0] > prof.values.size


def test_collapse_sweep_builds_no_checked_step_function(monkeypatch):
    """Every step function of the sweep comes from a Ranking, whose input is checked once."""
    sp = _sweep_grid()
    checked, real = [], StepDecreasing.__post_init__
    monkeypatch.setattr(StepDecreasing, "__post_init__",
                        lambda self: checked.append(self) or real(self))
    corpus = [tent_function(sp, 0), tent_function(sp, 0) - tent_function(sp, 77)]
    sweep = collapse_sweep(sp, corpus, lorentz_zygmund(1.5, 2.0, 0.5), 1.0, 0.5, 2.0,
                           [1.0, 0.1, 0.01], 2.0)
    assert len(sweep) == 3
    assert checked == []


def test_moduli_under_five_measures_equal_five_one_measure_calls_bitwise():
    sp = _sweep_grid()
    weights = [sp.scale_weights(eps).weight for eps in (1.0, 0.1, 0.01, 3.0, 1e-4)]
    grid = [*smoothness.radius_grid(sp), 2.0 * sp.diameter + 1.0]
    for radii in (grid, [0.5, 3.0, 0.4, 0.5, 10.0]):  # the second unsorted, with a repeat
        ball_sizes = smoothness._Radii(sp, radii)
        for f in (tent_function(sp, 0), tent_function(sp, 3) - tent_function(sp, 77)):
            for spec in SPECS.values():
                for alpha in (1.0, 0.5):
                    moduli = smoothness._Moduli(sp, f, ball_sizes, alpha)
                    together = moduli.at(weights, spec)
                    alone = [moduli.at([w], spec)[0] for w in weights]
                    assert np.array(together).tobytes() == np.array(alone).tobytes()
                    assert len(together[0]) == len(radii)


@pytest.mark.parametrize("eps_list", [[1.0], [1.0, 0.1, 0.01], [1.0, 0.1, 0.01, 1e-3, 1e-4]])
def test_collapse_sweep_makes_two_kernel_calls_per_function(monkeypatch, eps_list):
    """One for the moduli under every eps, one for the oscillation functional of every f*."""
    sp = _sweep_grid()
    calls = []
    kernel = PowerLog._integrals_dt_over_t

    def counted(self, lo, hi):
        calls.append(lo.size)
        return kernel(self, lo, hi)

    monkeypatch.setattr(PowerLog, "_integrals_dt_over_t", counted)
    corpus = [tent_function(sp, 0), tent_function(sp, 3) - tent_function(sp, 77),
              tent_function(sp, 140)]
    sweep = collapse_sweep(sp, corpus, lorentz_zygmund(1.5, 2.0, 0.5), 1.0, 0.5, 2.0,
                           eps_list, 2.0)
    assert len(sweep) == len(eps_list)
    assert len(calls) == 2 * len(corpus)
