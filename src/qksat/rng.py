"""Seedable random generators with reproducible derived streams, and
`require_int`, the one guard of every seed, stream, count, arity and size in
the package: a plain int, not a bool, at least its least value. Floats, bools
and numpy scalars are refused by name, never truncated or overflowed; callers
convert with int(). Every module can import this one without a cycle."""

from __future__ import annotations

import numpy as np


def require_int(value, name: str, least: int = 0) -> int:
    """value itself, if it is a plain int >= least: a seed that passes
    replays its run. TypeError otherwise, or ValueError below least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be nonnegative, got {value}" if least == 0
                         else f"{name} must be >= {least}, got {value}")
    return value


def make_rng(seed) -> np.random.Generator:
    """Build a PCG64 generator from a plain int seed.

    A Generator passes through unchanged, so callers can thread one RNG
    through a pipeline without reseeding. Any other seed is refused by
    require_int rather than drawing int(seed)'s stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(require_int(seed, "seed"))))


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for stream `stream` derived from an integer master seed.

    Deterministic in (seed, stream); distinct streams are statistically
    independent, so parallel trials can be replayed individually. Seed and
    stream must pass require_int.
    """
    ss = np.random.SeedSequence(require_int(seed, "seed"),
                                spawn_key=(require_int(stream, "stream"),))
    return np.random.Generator(np.random.PCG64(ss))
