"""Exact symmetries of the paper's objects, checked where no brute-force oracle is needed.

Dilating the metric, d -> 2d, gives K_{2d}(f, 2t) = K_d(f, t) for the homogeneous
K-functional; scaling the measure, mu -> 4 mu, multiplies K by 4.  Both factors
are powers of 2, so the rescaling itself is exact.  The paths below reach the K
plateau, so the rows that take no HiGHS run are held by the symmetry as well as
by their own certificate.  The collapse sweep's weight scale eps obeys the same
homogeneity: once eps times the total mass is at most 1, its L^1 constant
scales as eps^(-s/Q).
"""

import numpy as np
import pytest

from oscembed import (collapse_sweep, diagnostics, grid_space, k_functional_path, lp,
                      path_space, space_from_matrix)
from oscembed.corpus import tents_at_all_centers

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


def test_collapse_constant_follows_the_scaling_law():
    """f*_eps(t) = f*(t/eps): in L^1 at alpha = 1, each eps -> eps/4 multiplies the
    oscillation functional by 4^(s/Q - 1) and the seminorm and split norm by 1/4."""
    sp = path_space(8)  # total mass 8: eps <= 1/8
    q_dim = diagnostics(sp).q_dim
    sweep = collapse_sweep(sp, tents_at_all_centers(sp), lp(1.0), 1.0, 0.5, 1.0,
                           [4.0**-k for k in range(2, 9)], q_dim)
    constants = [report.empirical_constant for _eps, _b, report in sweep]
    for c, c_quarter in zip(constants, constants[1:]):
        assert c_quarter / c == pytest.approx(4.0 ** (0.5 / q_dim), rel=1e-12, abs=0.0)
