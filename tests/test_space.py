"""Space loading, balls, and geometric diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscembed import (SpaceValidationError, diagnostics, doubling_constant,
                      grid_space, load_space, noncollapsing_constant, path_space,
                      space_from_matrix)
from oscembed import (measure_growth_constant, random_geometric_space, space_from_graph,
                      space_from_points)
from oscembed.space import Space

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
