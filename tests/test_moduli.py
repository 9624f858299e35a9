"""The one modulus routine against the per-radius loops it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscembed import (grid_space, k_bounds, lorentz, lorentz_zygmund, lp,
                      modulus_profile, path_space, smoothness, space_from_graph)

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
    assert k_bounds(sp, f, t, spec, alpha) == loop_k_bounds(sp, f, t, spec, alpha)


@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 11.0, 40.0])
def test_k_bounds_makes_one_pass_per_distinct_radius(monkeypatch, t):
    sp = path_space(6)  # diameter 5, so t = 11 and 40 cover the space at j = 0
    radii = []
    inner = smoothness._ball_average

    def counted(space, values, r, alpha):
        radii.append(r)
        return inner(space, values, r, alpha)

    monkeypatch.setattr(smoothness, "_ball_average", counted)
    k_bounds(sp, np.arange(6.0) ** 2, t, lp(2.0), 0.5)
    assert len(radii) == len(set(radii))
    top = 2.0 * sp.diameter
    j_cut = int(np.ceil(np.log2(top / t))) if t < top else 0
    assert radii == [2.0**j * t for j in range(j_cut)] + [max(top, t) + 1.0]

