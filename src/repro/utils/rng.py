"""Deterministic random-number handling.

Every stochastic component of the library (particle loading, dataset
shuffling, weight initialization, ...) takes either a seed or a
``numpy.random.Generator``.  These helpers normalize between the two and
derive independent child seeds, so that a single top-level seed makes
a whole campaign reproducible.
"""

from __future__ import annotations

import numpy as np


def as_generator(rng: "int | np.random.Generator | np.random.SeedSequence | None") -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    ``None`` yields a fresh OS-seeded generator; integers and
    ``SeedSequence`` objects are used as seeds; generators pass through
    unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return np.random.default_rng(rng)


def spawn_seeds(rng: "int | np.random.Generator | None", n: int) -> list[int]:
    """Derive ``n`` independent integer seeds (picklable, for workers)."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    parent = as_generator(rng)
    return [int(s) for s in parent.integers(0, 2**63 - 1, size=n, dtype=np.int64)]
