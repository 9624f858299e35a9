"""Seeded corpus generators for verification runs.

Each generator is a pure function of (space, seed, count), so identical
configurations reproduce bit-identical corpora.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError
from .space import Space


def random_uniform(space: Space, count: int, seed: int, low: float = -1.0,
                   high: float = 1.0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.uniform(low, high, size=space.n) for _ in range(count)]


def indicators(space: Space, count: int, seed: int) -> list[np.ndarray]:
    """Ball indicators at rng-chosen centers and radius quantiles."""
    rng = np.random.default_rng(seed)
    radii = np.quantile(space.dist[space.dist > 0.0], [0.25, 0.5, 0.75]) \
        if space.n > 1 else np.array([1.0])
    out = []
    for _ in range(count):
        x = int(rng.integers(space.n))
        r = float(rng.choice(radii)) * (1.0 + 1e-9)
        out.append((space.dist[x] < r).astype(float))
    return out


def tent_function(space: Space, x0: int) -> np.ndarray:
    """Unit bump: 1 inside B(x0, 1), linear decay 2 - d on B(x0, 2), 0 outside."""
    d = space.dist[x0]
    return np.where(d < 1.0, 1.0, np.where(d < 2.0, 2.0 - d, 0.0))


def tents_at_all_centers(space: Space) -> list[np.ndarray]:
    return [tent_function(space, x) for x in range(space.n)]


def lipschitz_noise(space: Space, count: int, seed: int, scale: float = 1.0
                    ) -> list[np.ndarray]:
    """Random values regularized to Lipschitz functions by the inf-envelope.

    f(x) = min_y (v(y) + d(x, y)) is 1-Lipschitz for any values v; the result
    is scaled by `scale`.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.uniform(0.0, space.diameter if space.n > 1 else 1.0, size=space.n)
        f = (v[None, :] + space.dist).min(axis=1)
        out.append(scale * f)
    return out


def build_corpus(space: Space, spec, seed: int) -> tuple[list[np.ndarray], list[str]]:
    """Corpus from a generator description or a JSON file of explicit vectors.

    Generator form: {"generator": "random-uniform" | "indicators" |
    "tents-at-all-centers" | "lipschitz-noise", "count": ...}; file form is a
    path to a JSON list of length-n arrays.
    """
    if isinstance(spec, str):
        with open(spec) as fh:
            data = json.load(fh)
        vecs = [np.asarray(v, dtype=float) for v in data]
        return vecs, [f"file{i}" for i in range(len(vecs))]
    kind = spec.get("generator")
    count = int(spec.get("count", 20))
    if kind == "random-uniform":
        return random_uniform(space, count, seed), [f"rand{i}" for i in range(count)]
    if kind == "indicators":
        return indicators(space, count, seed), [f"ind{i}" for i in range(count)]
    if kind == "tents-at-all-centers":
        vecs = tents_at_all_centers(space)
        return vecs, [f"tent{x}" for x in range(len(vecs))]
    if kind == "lipschitz-noise":
        return lipschitz_noise(space, count, seed), [f"lip{i}" for i in range(count)]
    raise DomainError(f"unknown corpus generator {kind!r}")
