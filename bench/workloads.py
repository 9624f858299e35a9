"""The benchmark's workloads: seeded inputs, the CLI command and its checks.

Each workload writes its input files from the benchmark seed alone, drives
one ``oscembed`` subcommand on them, and checks the artifacts that command
writes.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

import checks


@dataclass
class Prepared:
    """One workload instance: the CLI argv, its item count and its checker."""

    argv: list[str]
    items: int
    artifact: str  # the JSON artifact the checker reads, relative to the out dir
    check: Callable[[dict], list] = field(repr=False)
    describe: dict = field(default_factory=dict)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _euclidean_space_file(path: Path, coords: np.ndarray, weight: np.ndarray) -> None:
    _write_json(path, {"metric": "euclidean", "coords": coords.tolist(),
                       "weights": weight.tolist()})


# -- kfun-grid64 ------------------------------------------------------------------------

KFUN_T = (0.1, 10.0, 8)  # t_min, t_max, t_count of the geometric t-grid
KFUN_TENTS, KFUN_GAUSS = 4, 8
KFUN_SAMPLE = 8  # rows re-solved by the dual LP


def kfun_grid64(seed: int, work: Path, out: Path) -> Prepared:
    rng = np.random.default_rng([seed, 64])
    coords = checks.grid_coords(8, 8, 1.0)
    dist = checks.euclidean_distances(coords)
    weight = np.ones(64)
    centers = rng.choice(64, KFUN_TENTS, replace=False)
    funcs = ([checks.tent(dist, int(x)) for x in centers]
             + [rng.standard_normal(64) for _ in range(KFUN_GAUSS)])
    _euclidean_space_file(work / "space.json", coords, weight)
    _write_json(work / "corpus.json", [f.tolist() for f in funcs])
    t_min, t_max, t_count = KFUN_T
    items = len(funcs) * t_count
    sample = sorted(int(k) for k in rng.choice(items, KFUN_SAMPLE, replace=False))
    argv = ["verify", "--theorem", "teointerpol", "--space", str(work / "space.json"),
            "--corpus", str(work / "corpus.json"), "--t-min", repr(t_min),
            "--t-max", repr(t_max), "--t-count", str(t_count), "--out", str(out)]

    def check(payload: dict) -> list:
        return checks.check_kfun(payload, dist, weight, funcs, t_count, sample)

    return Prepared(argv, items, "verify-teointerpol.json", check,
                    {"grid": "8x8, spacing 1, unit weights",
                     "tent_centers": centers.tolist(), "gaussians": KFUN_GAUSS,
                     "t_grid": list(KFUN_T), "dual_lp_rows": sample})


# -- collapse-lz-grid144 -----------------------------------------------------------------

LZ = {"family": "lorentz_zygmund", "p": 1.5, "r": 2, "beta": 0.5}
LZ_EPS = [1.0, 0.1, 0.01, 0.001, 0.0001]
LZ_TENTS = 12  # plus as many tent differences
LZ_SAMPLE = 4  # functions whose quasi-norm is re-derived by quadrature


def collapse_lz_grid144(seed: int, work: Path, out: Path) -> Prepared:
    rng = np.random.default_rng([seed, 144])
    coords = checks.grid_coords(12, 12, 0.4)
    dist = checks.euclidean_distances(coords)
    weight = rng.uniform(0.5, 1.5, size=144)
    centers = rng.choice(144, 3 * LZ_TENTS, replace=False)
    funcs = [checks.tent(dist, int(x)) for x in centers[:LZ_TENTS]]
    funcs += [checks.tent(dist, int(a)) - checks.tent(dist, int(b))
              for a, b in zip(centers[LZ_TENTS:2 * LZ_TENTS], centers[2 * LZ_TENTS:])]
    _euclidean_space_file(work / "space.json", coords, weight)
    _write_json(work / "corpus.json", [f.tolist() for f in funcs])
    sample = sorted(int(k) for k in rng.choice(len(funcs), LZ_SAMPLE, replace=False))
    argv = ["collapse-sweep", "--space", str(work / "space.json"),
            "--corpus", str(work / "corpus.json"), "--spec", json.dumps(LZ),
            "--s", "0.5", "--q", "2", "--eps", ",".join(repr(e) for e in LZ_EPS),
            "--out", str(out)]
    per_row = len(funcs)

    def check(payload: dict) -> list:
        # a failed eps row fails every function checked at that weight scale
        problems = [p._replace(item=None if p.item is None
                               else list(range(p.item * per_row, (p.item + 1) * per_row)))
                    for p in checks.check_collapse(payload, dist, weight, LZ_EPS)]
        program = _program_lz_norms(work / "space.json", [funcs[k] for k in sample])
        scaled = [(eps, k) for eps in (LZ_EPS[0], LZ_EPS[-1]) for k in sample]
        own = checks.check_quasi_norms(
            [v for eps_vals in program for v in eps_vals],
            [funcs[k] for _eps, k in scaled], [weight * eps for eps, _k in scaled],
            LZ["p"], LZ["r"], LZ["beta"])
        for p in own:
            eps, k = scaled[p.item]
            problems.append(p._replace(item=LZ_EPS.index(eps) * per_row + k,
                                       message=f"eps={eps!r}: {p.message}"))
        return problems

    return Prepared(argv, len(funcs) * len(LZ_EPS), "collapse-sweep.json", check,
                    {"grid": "12x12, spacing 0.4, weights uniform in [0.5, 1.5]",
                     "spec": LZ, "s": 0.5, "q": 2, "eps": LZ_EPS,
                     "tent_centers": centers[:LZ_TENTS].tolist(),
                     "tent_differences": [[int(a), int(b)] for a, b in
                                          zip(centers[LZ_TENTS:2 * LZ_TENTS],
                                              centers[2 * LZ_TENTS:])],
                     "quadrature_functions": sample})


def _program_lz_norms(space_path: Path, funcs: list) -> list:
    """The program's LZ quasi-norms of funcs at the first and last weight scale."""
    from oscembed import rispace
    from oscembed.rearrange import rearrangement
    from oscembed.space import load_space

    space = load_space(str(space_path))
    spec = rispace.spec_from_json(LZ)
    return [[rispace.quasi_norm(spec, rearrangement(space.scale_weights(eps), f))
             for f in funcs] for eps in (LZ_EPS[0], LZ_EPS[-1])]


# -- teomo1-rgg240 -------------------------------------------------------------------------

RGG_N, RGG_RADIUS = 240, 0.15
RGG_FUNCS = 16
RGG_SAMPLE = 2  # functions whose L1 gradient seminorm is re-solved by the dual LP


def random_geometric_graph(rng, n: int, radius: float):
    """Points in the unit square, edges between pairs closer than the radius.

    The radius grows by 1.25 until the graph is connected.  Returns the
    weights, the edge list and the shortest-path distance matrix.
    """
    pts = rng.random((n, 2))
    weight = rng.uniform(0.5, 1.5, size=n)
    euc = checks.euclidean_distances(pts)
    r = radius
    while True:
        ii, jj = np.nonzero(np.triu(euc < r, k=1))
        adj = coo_matrix((euc[ii, jj], (ii, jj)), shape=(n, n)).tocsr()
        dist = shortest_path(adj, directed=False)
        if np.all(np.isfinite(dist)):
            edges = [[int(i), int(j), float(euc[i, j])] for i, j in zip(ii, jj)]
            return weight, edges, dist, r
        r *= 1.25


def teomo1_rgg240(seed: int, work: Path, out: Path) -> Prepared:
    rng = np.random.default_rng([seed, 240])
    weight, edges, dist, radius = random_geometric_graph(rng, RGG_N, RGG_RADIUS)
    diameter = float(dist.max())
    funcs = []
    for _ in range(RGG_FUNCS):  # 1-Lipschitz inf-envelopes of random values
        v = rng.uniform(0.0, diameter, size=RGG_N)
        funcs.append((v[None, :] + dist).min(axis=1))
    _write_json(work / "space.json", {"metric": "graph", "edges": edges,
                                      "weights": weight.tolist()})
    _write_json(work / "corpus.json", [f.tolist() for f in funcs])
    sample = sorted(int(k) for k in rng.choice(RGG_FUNCS, RGG_SAMPLE, replace=False))
    argv = ["verify", "--theorem", "teomo1", "--space", str(work / "space.json"),
            "--corpus", str(work / "corpus.json"), "--out", str(out)]

    def check(payload: dict) -> list:
        problems = checks.check_teomo1(payload, dist, weight, RGG_FUNCS)
        program = _program_hajlasz(work / "space.json", [funcs[k] for k in sample])
        problems += checks.check_hajlasz(program, [funcs[k] for k in sample], dist, weight,
                                         sample)
        return problems

    # one item per function row, plus one for the rows' number format
    return Prepared(argv, RGG_FUNCS + 1, "verify-teomo1.json", check,
                    {"graph": f"random geometric graph, n={RGG_N}, unit square, "
                              f"radius {RGG_RADIUS} grown x1.25 until connected",
                     "radius_used": radius, "edges": len(edges),
                     "weights": "uniform in [0.5, 1.5]",
                     "corpus": f"{RGG_FUNCS} inf-envelopes min_y(v(y) + d(x, y)), "
                               "v uniform in [0, diameter]",
                     "dual_lp_functions": sample})


def _program_hajlasz(space_path: Path, funcs: list) -> list:
    from oscembed.smoothness import hajlasz_seminorm_l1
    from oscembed.space import load_space

    space = load_space(str(space_path))
    return [hajlasz_seminorm_l1(space, f)[0] for f in funcs]


WORKLOADS = {
    "kfun-grid64": kfun_grid64,
    "collapse-lz-grid144": collapse_lz_grid144,
    "teomo1-rgg240": teomo1_rgg240,
}


def failed_items(problems: list, items: int) -> set:
    """Item indices a list of check problems fails; None fails them all."""
    failed = set()
    for problem in problems:
        if problem.item is None:
            return set(range(items))
        failed.update(problem.item if isinstance(problem.item, list) else [problem.item])
    return failed
