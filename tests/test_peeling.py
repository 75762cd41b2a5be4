"""Tests for the peeling algorithms, empirical bounds, and trace output."""

import csv
import math

import numpy as np
import pytest

from qksat.gadgets import K2Component, Nosegay3, Sunflower, gadget_log_weight
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.peeling import (
    EmpiricalBound,
    PeelStep,
    PeelTrace,
    empirical_log_rank,
    nosegay_peel,
    sunflower_peel,
    write_trace_csv,
)
from qksat.rng import make_rng


def reference_sunflower_peel(g, seed):
    """Set-based re-derivation of the sunflower peel for cross-checking."""
    order = make_rng(seed).permutation(g.n).tolist()
    alive = set(range(g.m))
    steps = []
    for s, center in enumerate(order):
        mine = [e for e in sorted(alive) if center in g.edges[e]]
        alive.difference_update(mine)
        anomalies = 0
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                shared = set(g.edges[mine[i]]) & set(g.edges[mine[j]])
                anomalies += len(shared - {center})
        steps.append((g.n - s - 1, len(alive), len(mine), anomalies))
    return steps


@pytest.mark.parametrize("n,m,k", [(40, 60, 3), (30, 45, 2), (25, 50, 4)])
def test_sunflower_peel_matches_reference(n, m, k):
    for seed in range(5):
        g = random_hypergraph(n, m, k, seed=1000 + seed)
        trace = sunflower_peel(g, seed)
        got = [
            (s.vertices_remaining, s.edges_remaining, s.gadget.d, s.anomalies)
            for s in trace.steps
        ]
        assert got == reference_sunflower_peel(g, seed)
        assert all(s.gadget.k == k for s in trace.steps)


def test_sunflower_peel_metadata_and_conservation():
    g = random_hypergraph(50, 120, 3, seed=3)
    trace = sunflower_peel(g, 7)
    assert (trace.algorithm, trace.n, trace.m, trace.k, trace.seed) == \
        ("sunflower", 50, 120, 3, 7)
    assert len(trace.steps) == g.n
    assert sum(s.gadget.d for s in trace.steps) == g.m
    assert trace.steps[-1].vertices_remaining == 0
    assert trace.steps[-1].edges_remaining == 0


def test_sunflower_peel_deterministic():
    g = random_hypergraph(30, 60, 3, seed=4)
    assert sunflower_peel(g, 11) == sunflower_peel(g, 11)
    assert sunflower_peel(g, 11) != sunflower_peel(g, 12)


def test_sunflower_peel_empty_graph():
    g = Hypergraph(5, [])
    trace = sunflower_peel(g, 0)
    assert len(trace.steps) == 5
    assert all(s.gadget == Sunflower(0, 2) for s in trace.steps)
    assert empirical_log_rank(trace).value == pytest.approx(math.log(2))


def test_sunflower_peel_rejects_mixed_arity_and_bad_seed():
    g = Hypergraph(4, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        sunflower_peel(g, 0)
    ok = Hypergraph(3, [(0, 1, 2)])
    for bad in [1.5, True, None, make_rng(0)]:
        with pytest.raises(TypeError):
            sunflower_peel(ok, bad)
        with pytest.raises(TypeError):
            nosegay_peel(ok, bad)


def test_sunflower_sharing_pair_flags_anomaly():
    g = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    saw_joint = saw_split = False
    for seed in range(20):
        trace = sunflower_peel(g, seed)
        degrees = sorted(s.gadget.d for s in trace.steps if s.gadget.d)
        if degrees == [2]:
            saw_joint = True
            assert trace.anomalies == 1
        else:
            assert degrees == [1, 1]
            saw_split = True
            assert trace.anomalies == 0
    assert saw_joint and saw_split


def test_nosegay_peel_single_edge():
    g = Hypergraph(5, [(1, 2, 3)])
    trace = nosegay_peel(g, 9)
    assert trace.steps == (PeelStep(2, 0, Nosegay3(0, 0, 0), 0),)
    assert trace.algorithm == "nosegay" and trace.k == 3


def test_nosegay_peel_consumes_sunflower_in_one_step():
    from qksat.gadgets import sunflower_graph

    g = sunflower_graph(6, 3)
    for seed in range(6):
        trace = nosegay_peel(g, seed)
        assert len(trace.steps) == 1
        assert trace.steps[0].gadget == Nosegay3(5, 0, 0)
        assert trace.steps[0].vertices_remaining == g.n - 3
        assert trace.steps[0].anomalies == 0


def test_nosegay_peel_chain_branches():
    g = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    shapes = set()
    for seed in range(15):
        trace = nosegay_peel(g, seed)
        gadgets = tuple(s.gadget for s in trace.steps)
        if len(gadgets) == 1:
            assert gadgets[0] == Nosegay3(1, 0, 1)
        else:
            assert gadgets[0] in (Nosegay3(0, 0, 1), Nosegay3(1, 0, 0))
            assert gadgets[1] == Nosegay3(0, 0, 0)
        shapes.add(len(gadgets))
    assert shapes == {1, 2}


def test_nosegay_peel_double_hit_is_one_anomaly():
    g = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    for seed in range(8):
        trace = nosegay_peel(g, seed)
        assert len(trace.steps) == 1
        assert trace.steps[0].gadget == Nosegay3(1, 0, 0)
        assert trace.steps[0].anomalies == 1


def test_nosegay_peel_invariants_random():
    for seed in range(5):
        g = random_hypergraph(60, 170, 3, seed=2000 + seed)
        trace = nosegay_peel(g, seed)
        assert sum(1 + s.gadget.a + s.gadget.b + s.gadget.c
                   for s in trace.steps) == g.m
        rem = [s.edges_remaining for s in trace.steps]
        assert all(x > y for x, y in zip(rem, rem[1:]))
        assert rem[-1] == 0
        for i, s in enumerate(trace.steps):
            assert s.vertices_remaining == g.n - 3 * (i + 1)
    g = random_hypergraph(60, 170, 3, seed=2100)
    assert nosegay_peel(g, 5) == nosegay_peel(g, 5)


def test_nosegay_peel_requires_arity_three():
    with pytest.raises(ValueError):
        nosegay_peel(Hypergraph(4, [(0, 1)]), 0)


def test_empirical_log_rank_manual_trace():
    steps = (
        PeelStep(2, 1, Sunflower(1, 3), 0),
        PeelStep(1, 0, Sunflower(1, 3), 0),
        PeelStep(0, 0, Sunflower(0, 3), 0),
    )
    trace = PeelTrace("sunflower", 3, 2, 3, 0, steps)
    got = empirical_log_rank(trace)
    assert got == EmpiricalBound(
        pytest.approx(math.log(2) + 2 * math.log(7 / 8) / 3), 3, 0)


def test_empirical_log_rank_zero_rank_gadget():
    steps = (PeelStep(0, 0, K2Component(2, 4), 2),)
    trace = PeelTrace("k2", 2, 4, 2, 0, steps)
    got = empirical_log_rank(trace)
    assert got.value == -math.inf
    assert got.anomalies == 2


def test_empirical_matches_direct_sum():
    g = random_hypergraph(200, 700, 3, seed=42)
    trace = sunflower_peel(g, 1)
    want = math.log(2) + sum(
        gadget_log_weight(s.gadget) for s in trace.steps) / g.n
    assert empirical_log_rank(trace).value == pytest.approx(want)


def test_trace_csv_format(tmp_path):
    g = random_hypergraph(12, 20, 3, seed=8)
    trace = sunflower_peel(g, 3)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "vertices_remaining", "edges_remaining",
                       "gadget", "params", "log_weight", "anomaly"]
    assert len(rows) == 1 + len(trace.steps)
    for i, (row, step) in enumerate(zip(rows[1:], trace.steps)):
        assert row[0] == str(i)
        assert row[1] == str(step.vertices_remaining)
        assert row[3] == "sunflower"
        assert row[4] == str(step.gadget.d)
        assert float(row[5]) == gadget_log_weight(step.gadget)
        assert row[6] == str(step.anomalies)


def test_trace_csv_nosegay_params(tmp_path):
    g = random_hypergraph(15, 18, 3, seed=9)
    trace = nosegay_peel(g, 2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row, step in zip(rows[1:], trace.steps):
        assert row[3] == "nosegay3"
        assert row[4] == f"{step.gadget.a};{step.gadget.b};{step.gadget.c}"


def test_trace_csv_rejects_unknown_gadget(tmp_path):
    trace = PeelTrace("k2", 2, 4, 2, 0,
                      (PeelStep(0, 0, K2Component(2, 4), 0),))
    with pytest.raises(TypeError):
        write_trace_csv(trace, tmp_path / "t.csv")
