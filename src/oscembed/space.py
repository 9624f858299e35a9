"""Finite metric measure spaces and their geometric diagnostics.

A space is a finite point set with a metric given as a dense distance matrix
and a strictly positive weight (atomic measure) per point.  Balls use the
strict inequality B(x, r) = {y : d(x, y) < r}; ties at distance exactly r are
excluded.

Every question of distance order is answered by one index per space, in two
halves.  The metric half (MetricIndex, cached as Space.metric) depends on the
distance matrix alone: each row sorted once, and each point's nearest
distance.  The weight half (BallIndex, cached as Space.balls) adds the weight
prefix sums in that order.  B(x, r) is the first #{y : d(x, y) < r} points of
row x, a count that one binary search per row gives for a list of radii,
shared or per point.  Ball masses are prefix sums read at those counts, and
ball means of values[x, y] one cumulative sum of weight * values along the
sorted rows read at the same counts; neither depends on which other radii
share the call.  mu(B(x, r)) jumps only at distances from x, so suprema and
infima over all radii are reads at each row's own sorted distances: the
doubling constant here is the exact supremum, not an estimate.
Space.scale_weights gives the scaled space the parent's read-only distance
matrix and metric half, so a family of re-weightings sorts the rows once.
Readers: doubling_constant, noncollapsing_constant and Space.r_min here,
embed.measure_growth_constant, and in smoothness every modulus's ball averages
and the K-LP's bound on g.

Continuity caveats that tests rely on:
  * the measure is atomic and the total mass is finite, so diagnostics are
    empirical-constant extractions, never exact continuum constants;
  * scaling all weights by lambda leaves the doubling constant and upper
    dimension unchanged and scales the unit-ball infimum linearly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import squareform, pdist

from .errors import SpaceValidationError, read_key, require_keys

_TRIANGLE_TOL = 1e-12
MAX_POINTS = 2000  # dense n x n distance storage


class MetricIndex:
    """The rows of a distance matrix sorted once: the ball index's half that has no weights.

    order[x] is the stable argsort of d(x, .) and sorted_dist[x] the row in
    that order.  order[x, 0] = x, so x's nearest neighbour is at
    nearest[x] = sorted_dist[x, 1], or inf when x is alone.
    """

    def __init__(self, dist: np.ndarray):
        n = dist.shape[0]
        self.order = np.argsort(dist, axis=1, kind="stable")
        self.sorted_dist = np.take_along_axis(dist, self.order, axis=1)
        self.nearest = self.sorted_dist[:, 1] if n > 1 else np.full(n, np.inf)
        for arr in (self.order, self.sorted_dist, self.nearest):
            arr.setflags(write=False)

    def counts(self, radii) -> np.ndarray:
        """(n x R) integers #{y : d(x, y) < r}, r over radii or, if (n x R), over radii[x]."""
        radii = np.asarray(radii, dtype=float)
        radii = np.broadcast_to(radii, (self.order.shape[0], radii.shape[-1]))
        return np.array([np.searchsorted(row, r) for row, r in zip(self.sorted_dist, radii)])


class BallIndex:
    """The weight half of the ball index: the masses and means of all balls under one measure.

    prefix[x, k] is the weight of the first k points of the metric half's row
    x, so that mu(B(x, r)) = prefix[x, #{y : d(x, y) < r}].
    """

    def __init__(self, metric: MetricIndex, weight: np.ndarray):
        self.metric = metric
        self.weight = weight
        self.prefix = np.zeros((weight.size, weight.size + 1))
        np.cumsum(weight[metric.order], axis=1, out=self.prefix[:, 1:])
        self.prefix.setflags(write=False)

    @cached_property
    def sorted_weight(self) -> np.ndarray:
        """weight[order]: each row's weights in distance order, gathered once for means."""
        arr = self.weight[self.metric.order]
        arr.setflags(write=False)
        return arr

    def point_masses(self, radii) -> np.ndarray:
        """(n x R) masses mu(B(x, r)), r over radii[x]: each point's own (n x R) radii."""
        return np.take_along_axis(self.prefix, self.metric.counts(radii), axis=1)

    def masses(self, radii) -> np.ndarray:
        """(R x n) masses mu(B(x, r)), one row per r of radii."""
        return self.point_masses(radii).T

    def means(self, values: np.ndarray, radii) -> np.ndarray:
        """(R x n) mu-weighted means of values[x, y] over y in B(x, r), one row per r of radii.

        One cumulative sum of weight * values along the sorted rows holds every
        ball's sum, so each radius gets the bits it gets alone.
        """
        counts = self.metric.counts(radii)
        terms = np.take_along_axis(values, self.metric.order, axis=1)
        terms *= self.sorted_weight  # in place: one n x n array fewer
        sums = np.zeros_like(self.prefix)
        np.cumsum(terms, axis=1, out=sums[:, 1:])
        return np.ascontiguousarray((np.take_along_axis(sums, counts, axis=1)
                                     / np.take_along_axis(self.prefix, counts, axis=1)).T)


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

    # Space is immutable, so the O(n^2) scans and the ball index are made once per space.

    @cached_property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    @cached_property
    def r_min(self) -> float:
        """Smallest positive pairwise distance (inf for a single point)."""
        return float(self.metric.nearest.min())

    def ball(self, x: int, r: float) -> np.ndarray:
        """Indices of B(x, r) = {y : d(x, y) < r} (always contains x for r > 0)."""
        if not 0 <= x < self.n:
            raise IndexError(f"point index {x} out of range")
        if not r > 0.0:
            raise SpaceValidationError(f"ball radius must be positive, got {r}")
        return np.flatnonzero(self.dist[x] < r)

    @cached_property
    def metric(self) -> MetricIndex:
        return MetricIndex(self.dist)

    @cached_property
    def balls(self) -> BallIndex:
        return BallIndex(self.metric, self.weight)

    def ball_masses(self, r: float) -> np.ndarray:
        """mu(B(x, r)) for every x at once."""
        return self.balls.masses([r])[0]

    def scale_weights(self, factor: float) -> "Space":
        """The space with every weight multiplied by factor, on this space's metric.

        The scaled space shares this space's read-only distance matrix and
        metric half (no copy, no sort); only its weight half is its own.  A
        factor is refused when it leaves a weight that is not positive and
        finite, or below the smallest normal float (a subnormal weight keeps
        only part of its digits), or a total mass that overflows.
        """
        with np.errstate(over="ignore", under="ignore"):
            weight = self.weight * factor
        if not np.all((weight > 0.0) & (weight < np.inf)):
            raise SpaceValidationError(f"weight scale factor {factor!r} must leave every weight "
                                       "positive and finite")
        if not np.all(weight >= np.finfo(float).tiny):
            raise SpaceValidationError(f"weight scale factor {factor!r} leaves a weight below the "
                                       "smallest normal float, where it loses digits")
        if not _finite_total(weight):
            raise SpaceValidationError(f"weight scale factor {factor!r} makes the total mass "
                                       "overflow")
        weight.setflags(write=False)
        scaled = object.__new__(Space)  # the arrays are already read-only copies: share them
        object.__setattr__(scaled, "dist", self.dist)
        object.__setattr__(scaled, "weight", weight)
        scaled.__dict__["metric"] = self.metric
        return scaled


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


def _finite_total(weight: np.ndarray) -> bool:
    """Whether the weights, each finite, sum to a finite total mass."""
    with np.errstate(over="ignore"):  # an overflowing sum is refused, not warned of
        return bool(np.isfinite(weight.sum()))


def _check_point_count(n: int) -> None:
    """Refuse n > MAX_POINTS, before anything allocates the n x n distance matrix."""
    if n > MAX_POINTS:
        raise SpaceValidationError(f"space has {n} points, dense storage capped at {MAX_POINTS}")


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
    _check_point_count(n)
    if not np.all(np.isfinite(dist)):
        raise SpaceValidationError("distance matrix has non-finite entries (disconnected graph?)")
    if np.any(weight <= 0.0) or not np.all(np.isfinite(weight)):
        bad = int(np.flatnonzero(~(weight > 0.0) | ~np.isfinite(weight))[0])
        raise SpaceValidationError(f"weight at point {bad} is not strictly positive")
    if not _finite_total(weight):
        raise SpaceValidationError("the weights' total mass overflows")
    if np.any(np.diag(dist) != 0.0):
        bad = int(np.flatnonzero(np.diag(dist) != 0.0)[0])
        raise SpaceValidationError(f"nonzero self-distance at point {bad}")
    asym = np.abs(dist - dist.T)
    if asym.max() > _TRIANGLE_TOL:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise SpaceValidationError(f"distance matrix is asymmetric at ({i}, {j})")
    bad = np.argwhere((dist <= 0.0) & ~np.eye(n, dtype=bool))
    if bad.size:
        raise SpaceValidationError(f"zero/negative distance between distinct points ({bad[0, 0]}, {bad[0, 1]})")
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
    _check_point_count(coords.shape[0])
    dist = squareform(pdist(coords)) if coords.shape[0] > 1 else np.zeros((coords.shape[0],) * 2)
    return space_from_matrix(dist, weights)


def space_from_graph(n_points: int, edges, weights) -> Space:
    """Shortest-path metric of an undirected graph; edges are (i, j[, length])."""
    _check_point_count(n_points)
    rows, cols, vals = [], [], []
    for e in edges:
        try:
            i, j = int(e[0]), int(e[1])
            length = float(e[2]) if len(e) > 2 else 1.0
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise SpaceValidationError(f"edge {e!r} is not [i, j] or [i, j, length]") from exc
        if not (0 <= i < n_points and 0 <= j < n_points):
            raise SpaceValidationError(f"edge ({i}, {j}) names a point outside 0..{n_points - 1}")
        if length <= 0.0:
            raise SpaceValidationError(f"edge ({i}, {j}) has non-positive length")
        rows.append(i)
        cols.append(j)
        vals.append(length)
    adj = coo_matrix((vals, (rows, cols)), shape=(n_points, n_points)).tocsr()
    dist = shortest_path(adj, directed=False)
    if not np.all(np.isfinite(dist)):
        raise SpaceValidationError("graph is disconnected: infinite shortest-path distance")
    # Dijkstra sums d(x, y) and d(y, x) along their paths in opposite orders, so
    # long edges leave the two a few ulps apart; both are lengths of real paths.
    return space_from_matrix(np.minimum(dist, dist.T), weights)


def read_json(path: str, what: str, error: type[Exception]):
    """The JSON document in the file at path; error names the input when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path!r} is not valid JSON: {exc}") from exc


def load_space(spec) -> Space:
    """Build a Space from a description dict or a JSON file path.

    Accepted schemas: {"dist": [[...]], "weights": [...]} or
    {"coords": [[...]], "metric": "euclidean", "weights": [...]} or
    {"metric": "graph", "edges": [[i, j(, len)], ...], "weights": [...]}.
    """
    if isinstance(spec, (str,)):
        spec = read_json(spec, "space file", SpaceValidationError)
    require_keys(spec, ("weights",), "space", SpaceValidationError)

    def array(key, ndim):
        arr = read_key(spec, key, lambda v: np.asarray(v, dtype=float), "space",
                       SpaceValidationError)
        if arr.ndim != ndim:
            raise SpaceValidationError(f"space key {key!r} must be an array of {ndim} "
                                       f"dimension(s), not {arr.ndim}")
        return arr

    weights = array("weights", 1)
    if "dist" in spec:
        return space_from_matrix(array("dist", 2), weights)
    metric = spec.get("metric", "euclidean")
    if metric == "euclidean":
        require_keys(spec, ("coords",), "euclidean space", SpaceValidationError)
        return space_from_points(array("coords", 2), weights)
    if metric == "graph":
        require_keys(spec, ("edges",), "graph space", SpaceValidationError)
        edges = read_key(spec, "edges", list, "graph space", SpaceValidationError)
        return space_from_graph(weights.size, edges, weights)
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


def random_geometric_space(n: int, radius: float, seed: int) -> Space:
    """Random geometric graph in the unit square with shortest-path metric.

    Points are rng-sampled, edges join pairs closer than `radius` with the
    Euclidean length; the radius is grown until the graph connects.  Weights
    are rng-uniform in [0.5, 1.5).
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    w = rng.uniform(0.5, 1.5, size=n)
    euc = squareform(pdist(pts))
    r = radius
    for _ in range(64):
        ii, jj = np.nonzero(np.triu(euc < r, k=1))
        edges = [(int(i), int(j), float(euc[i, j])) for i, j in zip(ii, jj)]
        try:
            return space_from_graph(n, edges, w)
        except SpaceValidationError:
            r *= 1.25
    raise SpaceValidationError("could not connect random geometric graph")


# -- diagnostics -----------------------------------------------------------------


def doubling_constant(space: Space) -> float:
    """Exact sup over x, r > 0 of mu(B(x, 2r)) / mu(B(x, r)).

    On r in (e_k, e_{k+1}], e_k the sorted distances from x, B(x, r) is fixed
    and the sup is W(d < 2 e_{k+1}) / W(d <= e_k), taken at r = e_{k+1}.
    """
    balls = space.balls
    edges = space.metric.sorted_dist[:, 1:]  # sorted_dist[x, 0] = 0 is x itself
    return float((balls.point_masses(2.0 * edges) / balls.point_masses(edges)).max(initial=1.0))


def noncollapsing_constant(space: Space) -> float:
    """min over x of mu(B(x, 1))."""
    return float(space.ball_masses(1.0).min())


def diagnostics(space: Space) -> SpaceDiagnostics:
    c = doubling_constant(space)
    return SpaceDiagnostics(c_mu=c, q_dim=float(np.log2(c)), b=noncollapsing_constant(space),
                            diameter=space.diameter, r_min=space.r_min)
