"""Space loading, balls, and geometric diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscembed import (SpaceValidationError, diagnostics, doubling_constant,
                      grid_space, load_space, noncollapsing_constant, path_space,
                      space_from_matrix)
from oscembed import (hajlasz_seminorm_l1, lp, measure_growth_constant, modulus_profile,
                      random_geometric_space, space_from_graph, space_from_points,
                      tent_function)
from oscembed import smoothness
from oscembed.embed import collapse_sweep
from oscembed.smoothness import k_functional_path
from oscembed.space import BallIndex, MetricIndex, Space

from _oracles import (brute_force_growth_constant, critical_radii, dense_grid_doubling,
                      iterated_doubling_margin, table_doubling_constant, upper_dimension)


def two_point(d=1.0, w=(1.0, 1.0)):
    return space_from_matrix([[0.0, d], [d, 0.0]], list(w))


# -- loading -------------------------------------------------------------------


def test_two_point_space():
    sp = two_point()
    assert sp.total_mass == 2.0
    assert sp.diameter == 1.0


def test_path_graph_metric():
    sp = path_space(3)
    assert sp.dist[0, 2] == 2.0


def test_triangle_violation_named():
    dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(SpaceValidationError, match=r"triangle inequality violated at \(0, 1, 2\)"):
        space_from_matrix(dist, [1.0, 1.0, 1.0])


def test_chain_of_small_triangle_violations_rejected():
    # d(i, l) = 0.1 k + c k^2 with k = |i - l|: the triple (i, j, l) on the line falls
    # short by 2 c |i - j| |j - l| <= c m^2 / 2 < 1e-12, but the chain of m unit steps
    # falls short of d(0, m) by c (m^2 - m) > 1e-12.
    m, c = 10, 1.5e-14
    k = np.abs(np.subtract.outer(np.arange(m + 1), np.arange(m + 1)))
    dist = 0.1 * k + c * k**2
    worst_triple = max((dist - (dist[:, [j]] + dist[[j], :])).max() for j in range(m + 1))
    assert 0.0 < worst_triple < 1e-12
    with pytest.raises(SpaceValidationError, match="triangle inequality violated"):
        space_from_matrix(dist, np.ones(m + 1))


@pytest.mark.parametrize("build", [
    lambda: path_space(500, edge_length=0.3),  # its own closure is 1.1e-12 shorter by rounding
    lambda: grid_space(15, 15),
    lambda: random_geometric_space(300, 0.1, 4),
    lambda: space_from_points(np.random.default_rng(5).random((200, 3)) * 100.0, np.ones(200)),
    lambda: space_from_points(np.random.default_rng(6).random((200, 1)) * 1000.0, np.ones(200)),
], ids=["path", "grid", "random-geometric", "points-3d", "points-on-a-line"])
def test_graph_and_euclidean_builds_validate(build):
    assert build().n > 1


@pytest.mark.parametrize("seed", range(5))
def test_long_edge_graph_builds_symmetric(seed):
    # Dijkstra's sums of d(x, y) and d(y, x) differ in their last bits at these lengths
    rng = np.random.default_rng(seed)
    n = 300
    edges = [(i, i - 1, float(rng.uniform(500.0, 1500.0))) for i in range(1, n)]
    for _ in range(100):
        i, j = rng.choice(n, 2, replace=False)
        edges.append((int(i), int(j), float(rng.uniform(500.0, 1500.0))))
    sp = space_from_graph(n, edges, np.ones(n))
    assert np.array_equal(sp.dist, sp.dist.T)


def test_asymmetry_and_negative_weight_rejected():
    with pytest.raises(SpaceValidationError, match="asymmetric"):
        space_from_matrix([[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0])
    with pytest.raises(SpaceValidationError, match="positive"):
        space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0])


def test_load_space_schemas(tmp_path):
    sp = load_space({"coords": [[0.0, 0.0], [1.0, 0.0]], "metric": "euclidean",
                     "weights": [1.0, 2.0]})
    assert sp.dist[0, 1] == 1.0
    sp2 = load_space({"metric": "graph", "edges": [[0, 1], [1, 2]],
                      "weights": [1.0, 1.0, 1.0]})
    assert sp2.dist[0, 2] == 2.0
    path = tmp_path / "space.json"
    path.write_text('{"dist": [[0.0, 1.0], [1.0, 0.0]], "weights": [1.0, 1.0]}')
    assert load_space(str(path)).total_mass == 2.0


# -- balls ----------------------------------------------------------------------


def test_ball_strict_inequality():
    sp = path_space(3)
    assert set(sp.ball(1, 1.5)) == {0, 1, 2}
    assert set(sp.ball(0, 1.0)) == {0}
    assert set(sp.ball(0, sp.diameter + 1.0)) == {0, 1, 2}


def test_ball_monotone_in_radius():
    rng = np.random.default_rng(7)
    pts = rng.random((12, 2))
    sp = load_space({"coords": pts.tolist(), "metric": "euclidean",
                     "weights": list(rng.uniform(0.5, 2.0, 12))})
    for x in range(sp.n):
        for r1, r2 in [(0.1, 0.3), (0.3, 0.9), (0.9, 2.0)]:
            assert set(sp.ball(x, r1)) <= set(sp.ball(x, r2))


# -- doubling constant -------------------------------------------------------------


def test_doubling_single_point():
    sp = space_from_matrix([[0.0]], [3.0])
    assert doubling_constant(sp) == 1.0


def test_doubling_two_points():
    # r slightly above 0.5: small ball holds one atom, doubled ball both
    assert doubling_constant(two_point()) == 2.0


def test_doubling_p5_vs_dense_grid_oracle():
    sp = path_space(5)
    exact = doubling_constant(sp)
    grid = dense_grid_doubling(sp, n_grid=10_000)
    assert grid <= exact + 1e-12
    assert exact == pytest.approx(grid, rel=1e-3)


def test_doubling_certificate_all_critical_radii():
    sp = path_space(6, weights=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
    c = doubling_constant(sp)
    for r in critical_radii(sp):
        m1 = sp.ball_masses(float(r))
        m2 = sp.ball_masses(2.0 * float(r))
        assert np.all(m2 <= c * m1 + 1e-12)


@st.composite
def small_spaces(draw):
    """Point sets on a scaled integer lattice (many tied distances) or weighted graphs."""
    n = draw(st.integers(1, 9))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    scale = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        coords = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                               min_size=n, max_size=n, unique=True))
        return space_from_points(scale * np.array(coords, dtype=float).reshape(n, 2), weights)
    length = st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 2.0))
    edges = [(i, draw(st.integers(0, i - 1)), scale * draw(length)) for i in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            edges.append((i, j, scale * draw(length)))
    return space_from_graph(n, edges, weights)


@settings(max_examples=150, deadline=None)
@given(small_spaces())
@example(path_space(20))
@example(path_space(6, weights=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0]))
@example(grid_space(8, 8))
@example(random_geometric_space(40, 0.3, 1))
def test_ball_scans_match_table_and_brute_force_oracles(sp):
    c = doubling_constant(sp)
    assert c == table_doubling_constant(sp)
    q_dim = float(np.log2(c))
    assert measure_growth_constant(sp, q_dim) == pytest.approx(
        brute_force_growth_constant(sp, q_dim), rel=1e-12, abs=0.0)


@st.composite
def spaces_radii_values(draw):
    """A small space, radii from its own distances (exact ties) and beyond, unsorted and
    repeated, and nonnegative values[x, y]."""
    sp = draw(small_spaces())
    dists = np.unique(sp.dist[sp.dist > 0.0]).tolist()
    top = 2.0 * sp.diameter + 1.0
    radius = st.floats(1e-3, top)
    if dists:
        radius = st.one_of(st.sampled_from(dists), st.sampled_from(dists).map(lambda d: 2.0 * d),
                           radius)
    radii = draw(st.lists(radius, min_size=1, max_size=8))
    radii += draw(st.lists(st.sampled_from(radii), max_size=3))  # repeats
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=sp.n**2, max_size=sp.n**2))
    return sp, radii, np.array(values).reshape(sp.n, sp.n)


@settings(max_examples=150, deadline=None)
@given(spaces_radii_values())
@example((path_space(4), [1.0, 2.0, 1.0, 0.5], np.arange(16.0).reshape(4, 4)))
@example((space_from_matrix([[0.0]], [2.0]), [0.5, 1.0], np.array([[3.0]])))
def test_ball_index_masses_and_means_equal_per_point_loops(instance):
    sp, radii, values = instance
    masses, means = sp.balls.masses(radii), sp.balls.means(values, radii)
    # each point's own positive distances, exact ties included, and their doubles
    own = sp.dist[~np.eye(sp.n, dtype=bool)].reshape(sp.n, sp.n - 1)
    own = np.concatenate([own, 2.0 * own], axis=1)
    point_masses = sp.balls.point_masses(own)
    assert point_masses.shape == own.shape
    for x in range(sp.n):
        for r, mass in zip(own[x], point_masses[x]):
            assert mass == pytest.approx(sp.weight[sp.ball(x, r)].sum(), rel=1e-12, abs=0.0)
        others = np.delete(sp.dist[x], x)
        assert sp.metric.nearest[x] == (others.min() if others.size else math.inf)
    assert masses.shape == means.shape == (len(radii), sp.n)
    for k, r in enumerate(radii):
        for x in range(sp.n):
            ball = sp.ball(x, r)  # d(x, y) < r: ties at d = r stay outside
            w = sp.weight[ball]
            assert masses[k, x] == pytest.approx(w.sum(), rel=1e-12, abs=0.0)
            assert means[k, x] == pytest.approx(np.sum(values[x, ball] * w) / w.sum(),
                                                rel=1e-12, abs=0.0)
        assert sp.ball_masses(r).tobytes() == masses[k].tobytes()
        assert sp.balls.masses([r]).tobytes() == masses[k].tobytes()
        assert sp.balls.means(values, [r]).tobytes() == means[k].tobytes()


def test_space_sorts_its_rows_once(monkeypatch):
    sorts, indexes, passes = [], [], []
    metric_init, ball_init = MetricIndex.__init__, BallIndex.__init__
    averages = smoothness._ball_averages

    def counted_sort(self, dist):
        sorts.append(dist.shape[0])
        metric_init(self, dist)

    def counted_index(self, metric, weight):
        indexes.append(weight.size)
        ball_init(self, metric, weight)

    def counted_averages(space, values, radii, alpha):
        passes.append(len(radii))
        return averages(space, values, radii, alpha)

    monkeypatch.setattr(MetricIndex, "__init__", counted_sort)
    monkeypatch.setattr(BallIndex, "__init__", counted_index)
    monkeypatch.setattr(smoothness, "_ball_averages", counted_averages)
    sp = random_geometric_space(40, 0.3, 3)
    diag = diagnostics(sp)
    measure_growth_constant(sp, diag.q_dim)
    modulus_profile(sp, tent_function(sp, 0), lp(2.0), 0.5)
    hajlasz_seminorm_l1(sp, tent_function(sp, 1))
    k_functional_path(sp, tent_function(sp, 1), [0.5, 2.0])
    assert sorts == [40] and indexes == [40] and len(passes) == 1
    # a sweep over 4 weight scales: the scaled spaces share the sorted rows, each
    # has its own prefix sums, and each function's ball averages are taken once
    corpus = [tent_function(sp, 0), tent_function(sp, 5) - tent_function(sp, 9)]
    sweep = collapse_sweep(sp, corpus, lp(1.0), 1.0, 0.5, 1.0, [1.0, 0.1, 0.01, 0.001],
                           diag.q_dim)
    assert len(sweep) == 4
    assert sorts == [40] and indexes == [40] * 5 and len(passes) == 1 + len(corpus)


def test_scaled_space_shares_the_distance_matrix_and_the_metric_half():
    sp = random_geometric_space(30, 0.3, 2)
    scaled = sp.scale_weights(0.1)
    assert scaled.dist is sp.dist and np.shares_memory(scaled.dist, sp.dist)
    assert scaled.metric is sp.metric
    for name in ("order", "sorted_dist", "nearest"):
        assert getattr(scaled.metric, name) is getattr(sp.metric, name)
    assert scaled.balls.metric is sp.balls.metric
    assert not scaled.weight.flags.writeable and not scaled.dist.flags.writeable
    # the weight half is the scaled space's own, with the prefix sums of a fresh build
    fresh = Space(sp.dist, sp.weight * 0.1)
    assert scaled.weight.tobytes() == fresh.weight.tobytes()
    assert scaled.balls.prefix.tobytes() == fresh.balls.prefix.tobytes()
    assert noncollapsing_constant(scaled) == noncollapsing_constant(fresh)


def test_ball_scans_memory_at_n240():
    sp = random_geometric_space(240, 0.15, 7)
    tracemalloc.start()
    try:
        measure_growth_constant(sp, float(np.log2(doubling_constant(sp))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_upper_dimension():
    assert upper_dimension(two_point()) == 1.0
    sp = path_space(5)
    assert upper_dimension(sp) == pytest.approx(np.log2(doubling_constant(sp)))


# -- non-collapsing ------------------------------------------------------------------


def test_noncollapsing_isolated_point():
    sp = space_from_matrix([[0.0]], [3.0])
    assert noncollapsing_constant(sp) == 3.0


def test_noncollapsing_two_close_points():
    sp = two_point(d=0.5, w=(1.0, 2.0))
    assert noncollapsing_constant(sp) == 3.0


def test_weight_scaling_invariance():
    sp = path_space(5)
    scaled = sp.scale_weights(0.01)
    assert doubling_constant(scaled) == pytest.approx(doubling_constant(sp))
    assert noncollapsing_constant(scaled) == pytest.approx(0.01 * noncollapsing_constant(sp))


@pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, math.nan, 1e308, 5e-324])
def test_weight_scaling_refuses_a_factor_that_leaves_a_weight_not_positive_and_finite(factor):
    sp = path_space(3, weights=[0.5, 1.0, 2.0])
    with pytest.raises(SpaceValidationError, match="positive and finite"):
        sp.scale_weights(factor)


@pytest.mark.parametrize("factor", [1e-320, 1e-308, 2.2e-308 / 0.5])
def test_weight_scaling_refuses_a_factor_that_leaves_a_subnormal_weight(factor):
    sp = path_space(3, weights=[0.5, 1.0, 2.0])
    assert 0.0 < factor * 0.5 < np.finfo(float).tiny
    with pytest.raises(SpaceValidationError, match="smallest normal float"):
        sp.scale_weights(factor)


def test_weight_scaling_keeps_a_factor_that_leaves_every_weight_normal():
    sp = path_space(3, weights=[0.5, 1.0, 2.0])
    factor = np.finfo(float).tiny / 0.5
    assert (sp.scale_weights(factor).weight >= np.finfo(float).tiny).all()
    assert sp.scale_weights(1e-300).weight.tolist() == [0.5e-300, 1e-300, 2e-300]


def test_weight_scaling_refuses_a_factor_whose_total_mass_overflows():
    sp = path_space(2)
    assert np.isfinite(1e308 * sp.weight).all()
    with pytest.raises(SpaceValidationError, match="total mass"):
        sp.scale_weights(1e308)


def test_point_count_is_refused_before_the_distance_matrix_is_built(monkeypatch):
    import oscembed.space as space_mod

    def built(*args, **kwargs):
        raise AssertionError("the n x n distance matrix was built")

    monkeypatch.setattr(space_mod, "pdist", built)
    monkeypatch.setattr(space_mod, "shortest_path", built)
    n = space_mod.MAX_POINTS + 1
    with pytest.raises(SpaceValidationError, match="capped"):
        space_from_points(np.zeros((n, 2)), np.ones(n))
    with pytest.raises(SpaceValidationError, match="capped"):
        space_from_graph(n, [(0, 1)], np.ones(n))


def test_iterated_doubling_holds_with_computed_dimension():
    for sp in (path_space(5), grid_space(3, 3), two_point()):
        diag = diagnostics(sp)
        assert iterated_doubling_margin(sp, diag.q_dim) >= -1e-9


def test_space_copies_the_callers_arrays():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.ones(2)
    sp = space_from_matrix(d, w)
    d[0, 1] = d[1, 0] = 3.0  # the caller's arrays stay writable
    w[0] = 7.0
    assert sp.dist[0, 1] == 1.0 and sp.weight[0] == 1.0
    base = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = Space(base[:], np.ones(2))
    base[0, 1] = 5.0  # a write through another view leaves the space alone
    assert sp.dist[0, 1] == 1.0
    assert not sp.dist.flags.writeable and not sp.weight.flags.writeable


@pytest.mark.parametrize("build", [lambda: random_geometric_space(40, 0.3, 2),
                                   lambda: path_space(5, edge_length=0.7),
                                   lambda: space_from_matrix([[0.0]], [2.0])])
def test_cached_diameter_and_r_min_equal_fresh_scans(build):
    sp = build()
    off = sp.dist[~np.eye(sp.n, dtype=bool)]
    fresh = (float(off.max()) if sp.n > 1 else 0.0, float(off.min()) if sp.n > 1 else np.inf)
    for space in (sp, sp, sp.scale_weights(0.01)):
        assert (space.diameter, space.r_min) == fresh
