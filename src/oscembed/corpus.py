"""Seeded corpus generators for verification runs.

Each generator is a pure function of (space, seed, count), so identical
configurations reproduce bit-identical corpora.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, require_keys
from .space import Space, read_json


def random_uniform(space: Space, count: int, seed: int) -> list[np.ndarray]:
    """Values drawn uniformly from [-1, 1) at every point."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=space.n) for _ in range(count)]


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


def lipschitz_noise(space: Space, count: int, seed: int) -> list[np.ndarray]:
    """Random values regularized to Lipschitz functions by the inf-envelope.

    f(x) = min_y (v(y) + d(x, y)) is 1-Lipschitz for any values v, here drawn
    uniformly from [0, diameter) (from [0, 1) on a single point); f is not rescaled.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.uniform(0.0, space.diameter if space.n > 1 else 1.0, size=space.n)
        out.append((v[None, :] + space.dist).min(axis=1))
    return out


def build_corpus(space: Space, spec, seed: int) -> tuple[list[np.ndarray], list[str]]:
    """Corpus from a generator description or a JSON file of explicit vectors.

    Generator form: {"generator": "random-uniform" | "indicators" |
    "tents-at-all-centers" | "lipschitz-noise", "count": ...}; file form is a
    path to a JSON list of length-n arrays of finite numbers.
    """
    if isinstance(spec, str):
        data = read_json(spec, "corpus file", DomainError)
        if not isinstance(data, list):
            raise DomainError(f"corpus file must hold a JSON list, not {type(data).__name__}")
        vecs = []
        for i, v in enumerate(data):
            try:
                vec = np.asarray(v, dtype=float)
            except (TypeError, ValueError, OverflowError):
                vec = None
            if vec is None or vec.shape != (space.n,) or not np.all(np.isfinite(vec)):
                raise DomainError(f"corpus vector {i} must hold {space.n} finite numbers")
            vecs.append(vec)
        return vecs, [f"file{i}" for i in range(len(vecs))]
    kind = require_keys(spec, (), "corpus generator", DomainError).get("generator")
    try:
        count = int(spec.get("count", 20))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"corpus generator key 'count' must be an integer, "
                          f"not {spec['count']!r}") from exc
    if count < 1:
        raise DomainError(f"corpus generator key 'count' must be at least 1, not {count}")
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
