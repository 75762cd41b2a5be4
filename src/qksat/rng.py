"""Seedable random generators with reproducible derived streams."""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Build a PCG64 generator from a plain int seed.

    A Generator passes through unchanged, so callers can thread one RNG
    through a pipeline without reseeding. Any other seed, float and bool
    included, raises TypeError rather than drawing int(seed)'s stream, and a
    negative int raises ValueError.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(require_int_seed(seed))))


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for stream `stream` derived from an integer master seed.

    Deterministic in (seed, stream); distinct streams are statistically
    independent, so parallel trials can be replayed individually. A seed
    that is not a nonnegative int is refused as in make_rng.
    """
    ss = np.random.SeedSequence(require_int_seed(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def require_int_seed(seed) -> int:
    """The seed itself, if it is a plain nonnegative int: runs seeded by it
    replay."""
    if isinstance(seed, (bool, float)) or not isinstance(seed, int):
        raise TypeError(f"replay needs an integer seed, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed
