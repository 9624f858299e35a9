"""Exact symmetries of the paper's objects, checked where no brute-force oracle is needed.

Dilating the metric, d -> 2d, gives K_{2d}(f, 2t) = K_d(f, t) for the homogeneous
K-functional; scaling the measure, mu -> 4 mu, multiplies K by 4.  Both factors
are powers of 2, so the rescaling itself is exact.  The paths below reach the K
plateau, so the rows that take no HiGHS run are held by the symmetry as well as
by their own certificate.
"""

import numpy as np
import pytest

from oscembed import grid_space, k_functional_path, space_from_matrix

from _oracles import k_plateau

TS = np.geomspace(0.1, 10.0, 8)


def _instances():
    unit = grid_space(6, 6)
    weighted = grid_space(5, 7, np.random.default_rng(61).uniform(0.5, 1.5, 35))
    return [(unit, np.maximum(0.0, 2.0 - unit.dist[14])),
            (unit, np.random.default_rng(60).normal(size=36)),
            (weighted, np.random.default_rng(62).normal(size=35))]


@pytest.mark.parametrize("case", range(3))
def test_k_path_under_dilation_of_the_metric(case):
    sp, f = _instances()[case]
    path = k_functional_path(sp, f, TS)
    assert path[-1] == pytest.approx(k_plateau(sp, f), rel=1e-14)
    dilated = k_functional_path(space_from_matrix(2.0 * sp.dist, sp.weight), f, 2.0 * TS)
    for k, k2 in zip(path, dilated):
        assert k2 == pytest.approx(k, rel=1e-9)


@pytest.mark.parametrize("case", range(3))
def test_k_path_under_scaling_of_the_measure(case):
    sp, f = _instances()[case]
    path = k_functional_path(sp, f, TS)
    assert path[-1] == pytest.approx(k_plateau(sp, f), rel=1e-14)
    scaled = k_functional_path(sp.scale_weights(4.0), f, TS)
    for k, k4 in zip(path, scaled):
        assert k4 == pytest.approx(4.0 * k, rel=1e-9)
