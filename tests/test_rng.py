"""Tests for seed normalization and child stream derivation."""

import numpy as np
import pytest

from qksat.hypergraph import Hypergraph
from qksat.peeling import nosegay_peel, sunflower_peel
from qksat.rank_oracle import generic_rank_field, min_rank_float
from qksat.rng import child_rng, make_rng


def test_make_rng_accepts_int_and_generator():
    a = make_rng(42).integers(1 << 30)
    b = make_rng(42).integers(1 << 30)
    assert a == b
    gen = make_rng(42)
    assert make_rng(gen) is gen


def test_make_rng_distinct_seeds_differ():
    xs = make_rng(1).integers(1 << 62, size=8)
    ys = make_rng(2).integers(1 << 62, size=8)
    assert xs.tolist() != ys.tolist()


def test_child_rng_streams_are_stable_and_disjoint():
    a = child_rng(7, 0).integers(1 << 62, size=4)
    b = child_rng(7, 0).integers(1 << 62, size=4)
    c = child_rng(7, 1).integers(1 << 62, size=4)
    d = child_rng(8, 0).integers(1 << 62, size=4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_child_rng_differs_from_master_stream():
    master = make_rng(7).integers(1 << 62, size=4)
    child = child_rng(7, 0).integers(1 << 62, size=4)
    assert master.tolist() != child.tolist()


def test_make_rng_rejects_junk():
    for bad in [object(), None, 2.7, True, np.int64(3),
                np.random.SeedSequence(42)]:
        with pytest.raises(TypeError):
            make_rng(bad)
        with pytest.raises(TypeError):
            child_rng(bad, 0)


def test_negative_seeds_raise_value_error_naming_them():
    g = Hypergraph(3, [(0, 1, 2)])
    for seed in (-1, -(2 ** 70)):
        # the generators, both peels and both rank oracles refuse it alike
        for call in (lambda: make_rng(seed), lambda: child_rng(seed, 0),
                     lambda: sunflower_peel(g, seed),
                     lambda: nosegay_peel(g, seed),
                     lambda: generic_rank_field(g, seed=seed),
                     lambda: min_rank_float(g, seed=seed)):
            with pytest.raises(ValueError,
                               match=f"seed must be nonnegative, got {seed}$"):
                call()
