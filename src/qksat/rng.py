"""Seedable random generators with reproducible derived streams."""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Build a PCG64 generator from an integer seed or SeedSequence.

    A Generator passes through unchanged, so callers can thread one RNG
    through a pipeline without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for stream `stream` derived from an integer master seed.

    Deterministic in (seed, stream); distinct streams are statistically
    independent, so parallel trials can be replayed individually.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def require_int_seed(seed) -> int:
    """The seed itself, if it is a plain int: runs seeded by it replay."""
    if isinstance(seed, (bool, float)) or not isinstance(seed, int):
        raise TypeError(f"replay needs an integer seed, got {seed!r}")
    return seed
