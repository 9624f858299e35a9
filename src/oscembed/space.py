"""Finite metric measure spaces and their geometric diagnostics.

A space is a finite point set with a metric given as a dense distance matrix
and a strictly positive weight (atomic measure) per point.  Balls use the
strict inequality B(x, r) = {y : d(x, y) < r}; ties at distance exactly r are
excluded.  mu(B(x, r)) is a step function of r that jumps only at distances
from x, so suprema and infima over all radii reduce to scans of each row's own
distances, read off one index of sorted rows with weight prefix sums; the
doubling constant computed here is the exact supremum, not an estimate.

Continuity caveats that tests rely on:
  * the measure is atomic and the total mass is finite, so diagnostics are
    empirical-constant extractions, never exact continuum constants;
  * scaling all weights by lambda leaves the doubling constant and upper
    dimension unchanged and scales the unit-ball infimum linearly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import squareform, pdist

from .errors import SpaceValidationError

_TRIANGLE_TOL = 1e-12
MAX_POINTS = 2000  # dense n x n distance storage


@dataclass(frozen=True)
class Space:
    """Immutable finite metric measure space, on read-only copies of the caller's arrays."""

    dist: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        d = np.array(self.dist, dtype=float, order="C")
        w = np.array(self.weight, dtype=float, order="C")
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "weight", w)

    @property
    def n(self) -> int:
        return self.weight.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    @property
    def r_min(self) -> float:
        """Smallest positive pairwise distance (inf for a single point)."""
        if self.n < 2:
            return float("inf")
        off = self.dist[~np.eye(self.n, dtype=bool)]
        return float(off.min())

    def ball(self, x: int, r: float) -> np.ndarray:
        """Indices of B(x, r) = {y : d(x, y) < r} (always contains x for r > 0)."""
        if not 0 <= x < self.n:
            raise IndexError(f"point index {x} out of range")
        if not r > 0.0:
            raise SpaceValidationError(f"ball radius must be positive, got {r}")
        return np.flatnonzero(self.dist[x] < r)

    def ball_masses(self, r: float) -> np.ndarray:
        """mu(B(x, r)) for every x at once."""
        return (self.dist < r) @ self.weight

    def scale_weights(self, factor: float) -> "Space":
        if not factor > 0.0:
            raise SpaceValidationError("weight scale factor must be positive")
        return Space(self.dist, self.weight * factor)


@dataclass(frozen=True)
class SpaceDiagnostics:
    c_mu: float
    q_dim: float
    b: float
    diameter: float
    r_min: float

    def to_json(self) -> dict:
        return {"c_mu": self.c_mu, "q_dim": self.q_dim, "b": self.b,
                "diameter": self.diameter, "r_min": self.r_min}


# -- construction / validation -------------------------------------------------


def _validate(dist: np.ndarray, weight: np.ndarray) -> None:
    """Refuse anything but a finite metric with positive weights.

    The triangle inequality is checked against the shortest-path closure of
    dist: no distance d may exceed the shortest path between its ends by more
    than _TRIANGLE_TOL * max(1, d).  This is stricter than checking each
    triple on its own, since a chain of violations, each below the tolerance,
    fails when their sum exceeds it.  The tolerance is relative beyond 1
    because the closure sums whole chains of distances, and their rounding
    grows with the distances: a path of 500 edges of length 0.3 comes out
    1.1e-12 above its own closure.  A failure names the triple with the
    largest violation at the worst pair.
    """
    n = weight.shape[0]
    if dist.shape != (n, n):
        raise SpaceValidationError(f"distance matrix shape {dist.shape} does not match {n} weights")
    if n > MAX_POINTS:
        raise SpaceValidationError(f"space has {n} points, dense storage capped at {MAX_POINTS}")
    if not np.all(np.isfinite(dist)):
        raise SpaceValidationError("distance matrix has non-finite entries (disconnected graph?)")
    if np.any(weight <= 0.0) or not np.all(np.isfinite(weight)):
        bad = int(np.flatnonzero(~(weight > 0.0) | ~np.isfinite(weight))[0])
        raise SpaceValidationError(f"weight at point {bad} is not strictly positive")
    if np.any(np.diag(dist) != 0.0):
        bad = int(np.flatnonzero(np.diag(dist) != 0.0)[0])
        raise SpaceValidationError(f"nonzero self-distance at point {bad}")
    asym = np.abs(dist - dist.T)
    if asym.max() > _TRIANGLE_TOL:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise SpaceValidationError(f"distance matrix is asymmetric at ({i}, {j})")
    off = dist[~np.eye(n, dtype=bool)]
    if n > 1 and np.any(off <= 0.0):
        idx = np.argwhere((dist <= 0.0) & ~np.eye(n, dtype=bool))[0]
        raise SpaceValidationError(f"zero/negative distance between distinct points ({idx[0]}, {idx[1]})")
    excess = (dist - shortest_path(dist, method="FW")) / np.maximum(dist, 1.0)
    if excess.max() > _TRIANGLE_TOL:
        i, k = np.unravel_index(int(excess.argmax()), excess.shape)
        j = int(np.argmax(dist[i, k] - (dist[i] + dist[:, k])))
        raise SpaceValidationError(f"triangle inequality violated at ({i}, {j}, {k})")


def space_from_matrix(dist, weights) -> Space:
    dist = np.asarray(dist, dtype=float)
    weight = np.asarray(weights, dtype=float)
    _validate(dist, weight)
    return Space(dist, weight)


def space_from_points(coords, weights) -> Space:
    coords = np.asarray(coords, dtype=float)
    dist = squareform(pdist(coords)) if coords.shape[0] > 1 else np.zeros((coords.shape[0],) * 2)
    return space_from_matrix(dist, weights)


def space_from_graph(n_points: int, edges, weights) -> Space:
    """Shortest-path metric of an undirected graph; edges are (i, j[, length])."""
    rows, cols, vals = [], [], []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        length = float(e[2]) if len(e) > 2 else 1.0
        if length <= 0.0:
            raise SpaceValidationError(f"edge ({i}, {j}) has non-positive length")
        rows.append(i)
        cols.append(j)
        vals.append(length)
    adj = coo_matrix((vals, (rows, cols)), shape=(n_points, n_points)).tocsr()
    dist = shortest_path(adj, directed=False)
    if not np.all(np.isfinite(dist)):
        raise SpaceValidationError("graph is disconnected: infinite shortest-path distance")
    return space_from_matrix(dist, weights)


def load_space(spec) -> Space:
    """Build a Space from a description dict or a JSON file path.

    Accepted schemas: {"dist": [[...]], "weights": [...]} or
    {"coords": [[...]], "metric": "euclidean", "weights": [...]} or
    {"metric": "graph", "edges": [[i, j(, len)], ...], "weights": [...]}.
    """
    if isinstance(spec, (str,)):
        with open(spec) as fh:
            spec = json.load(fh)
    if "dist" in spec:
        return space_from_matrix(spec["dist"], spec["weights"])
    metric = spec.get("metric", "euclidean")
    if metric == "euclidean":
        return space_from_points(spec["coords"], spec["weights"])
    if metric == "graph":
        n = len(spec["weights"])
        return space_from_graph(n, spec["edges"], spec["weights"])
    raise SpaceValidationError(f"unknown metric {metric!r}")


# -- benchmark constructors ------------------------------------------------------


def path_space(n: int, weights=None, edge_length: float = 1.0) -> Space:
    edges = [(i, i + 1, edge_length) for i in range(n - 1)]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return space_from_graph(n, edges, w)


def grid_space(rows: int, cols: int, weights=None) -> Space:
    """rows x cols lattice with the Euclidean metric and unit weights."""
    coords = [(i, j) for i in range(rows) for j in range(cols)]
    w = np.ones(rows * cols) if weights is None else np.asarray(weights, dtype=float)
    return space_from_points(coords, w)


def random_geometric_space(n: int, radius: float, seed: int,
                           weight_low: float = 0.5, weight_high: float = 1.5) -> Space:
    """Random geometric graph in the unit square with shortest-path metric.

    Points are rng-sampled, edges join pairs closer than `radius` with the
    Euclidean length; the radius is grown until the graph connects.  Weights
    are rng-uniform in [weight_low, weight_high].
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    w = rng.uniform(weight_low, weight_high, size=n)
    euc = squareform(pdist(pts))
    r = radius
    for _ in range(64):
        mask = (euc < r) & ~np.eye(n, dtype=bool)
        ii, jj = np.nonzero(np.triu(mask))
        edges = [(int(i), int(j), float(euc[i, j])) for i, j in zip(ii, jj)]
        try:
            return space_from_graph(n, edges, w)
        except SpaceValidationError:
            r *= 1.25
    raise SpaceValidationError("could not connect random geometric graph")


# -- diagnostics -----------------------------------------------------------------


def _sorted_rows(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Rows of dist sorted, and weight prefix sums: mu(B(x, r)) = prefix[x, #{d(x, .) < r}]."""
    order = np.argsort(space.dist, axis=1, kind="stable")
    prefix = np.zeros((space.n, space.n + 1))
    np.cumsum(space.weight[order], axis=1, out=prefix[:, 1:])
    return np.take_along_axis(space.dist, order, axis=1), prefix


def doubling_constant(space: Space) -> float:
    """Exact sup over x, r > 0 of mu(B(x, 2r)) / mu(B(x, r)).

    On r in (e_k, e_{k+1}], e_k the sorted distances from x, B(x, r) is fixed
    and the sup is W(d < 2 e_{k+1}) / W(d <= e_k), taken at r = e_{k+1}.
    """
    sd, prefix = _sorted_rows(space)
    best = 1.0
    for row, pre in zip(sd, prefix):  # row[0] = 0 is x itself
        ratio = pre[np.searchsorted(row, 2.0 * row[1:])] / pre[np.searchsorted(row, row[1:])]
        best = max(best, float(ratio.max(initial=1.0)))
    return best


def noncollapsing_constant(space: Space) -> float:
    """min over x of mu(B(x, 1))."""
    return float(space.ball_masses(1.0).min())


def diagnostics(space: Space) -> SpaceDiagnostics:
    c = doubling_constant(space)
    return SpaceDiagnostics(c_mu=c, q_dim=float(np.log2(c)), b=noncollapsing_constant(space),
                            diameter=space.diameter, r_min=space.r_min)
