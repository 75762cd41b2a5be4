"""Tests for the peeling algorithms, empirical bounds, and trace output."""

import csv
import math

import numpy as np
import pytest

import qksat.peeling as peeling
from qksat.gadgets import gadget_log_weight
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.peeling import (
    TRACE_BLOCK,
    PeelTrace,
    empirical_log_rank,
    nosegay_peel,
    sunflower_peel,
    write_trace_csv,
)
from qksat.rng import make_rng
from support import write_trace_csv_reference


def columns(trace):
    """(vertices_remaining, edges_remaining, hanging counts tuple, anomalies)
    per step, as Python ints."""
    return list(zip(trace.vertices_remaining.tolist(),
                    trace.edges_remaining.tolist(),
                    map(tuple, trace.steps.tolist()),
                    trace.step_anomalies.tolist()))


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


def reference_nosegay_peel(g, seed):
    """Set-based re-derivation of the nosegay peel, walking the same edge
    permutation."""
    alive = set(range(g.m))
    vertices = g.n
    steps = []
    for chosen in make_rng(seed).permutation(g.m).tolist():
        if chosen not in alive:
            continue
        alive.discard(chosen)
        counts = [0] * len(g.edges[chosen])
        anomalies = 0
        taken = set()
        for ci, center in enumerate(g.edges[chosen]):
            for e in sorted(alive):
                if center in g.edges[e]:
                    if e in taken:
                        anomalies += 1
                    else:
                        taken.add(e)
                        counts[ci] += 1
        alive -= taken
        vertices -= len(g.edges[chosen])
        steps.append((vertices, len(alive), tuple(counts), anomalies))
    return steps


@pytest.mark.parametrize("n,m,k", [(40, 60, 3), (30, 45, 2), (25, 50, 4)])
def test_sunflower_peel_matches_reference(n, m, k):
    for seed in range(5):
        g = random_hypergraph(n, m, k, seed=1000 + seed)
        trace = sunflower_peel(g, seed)
        got = [(v, e, d, a) for v, e, (d,), a in columns(trace)]
        assert got == reference_sunflower_peel(g, seed)
        assert trace.k == k


@pytest.mark.parametrize("n,m", [(40, 60), (60, 170), (30, 100), (12, 60),
                                 (9, 40), (90, 20)])
def test_nosegay_peel_matches_reference(n, m):
    for seed in range(5):
        g = random_hypergraph(n, m, 3, seed=3000 + seed)
        trace = nosegay_peel(g, seed)
        assert columns(trace) == reference_nosegay_peel(g, seed)


@pytest.mark.parametrize("n,m,k", [(40, 30, 4), (60, 80, 4), (30, 50, 5),
                                   (20, 30, 2)])
def test_nosegay_peel_matches_reference_any_arity(n, m, k):
    for seed in range(5):
        g = random_hypergraph(n, m, k, seed=4000 + seed)
        trace = nosegay_peel(g, seed)
        assert columns(trace) == reference_nosegay_peel(g, seed)
        assert trace.k == k


def test_nosegay_first_pick_is_uniform():
    # the middle edge of the chain is drawn first with probability 1/3, and
    # only that draw consumes the chain in one step
    g = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    runs = 3000
    hits = sum(len(nosegay_peel(g, seed).steps) == 1 for seed in range(runs))
    sd = math.sqrt(runs * (1 / 3) * (2 / 3))
    assert abs(hits - runs / 3) < 5 * sd


def test_sunflower_peel_metadata_and_conservation():
    g = random_hypergraph(50, 120, 3, seed=3)
    trace = sunflower_peel(g, 7)
    assert (trace.algorithm, trace.n, trace.m, trace.k, trace.seed) == \
        ("sunflower", 50, 120, 3, 7)
    assert len(trace.steps) == g.n
    assert trace.steps.sum() == g.m
    assert trace.vertices_remaining[-1] == trace.edges_remaining[-1] == 0
    assert trace.steps.dtype == trace.step_anomalies.dtype == np.int64
    # plain Python numbers, so that json.dumps takes them
    assert [type(x) for x in (empirical_log_rank(trace), len(trace.steps),
                              trace.anomalies)] == [float, int, int]


def test_sunflower_peel_deterministic():
    g = random_hypergraph(30, 60, 3, seed=4)
    assert columns(sunflower_peel(g, 11)) == columns(sunflower_peel(g, 11))
    assert columns(sunflower_peel(g, 11)) != columns(sunflower_peel(g, 12))


def test_sunflower_peel_empty_graph():
    g = Hypergraph(5, [])
    trace = sunflower_peel(g, 0)
    assert columns(trace) == [(4 - s, 0, (0,), 0) for s in range(5)]
    assert trace.k == 2
    assert empirical_log_rank(trace) == pytest.approx(math.log(2))


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
        degrees = sorted(d for d in trace.steps[:, 0].tolist() if d)
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
    assert columns(trace) == [(2, 0, (0, 0, 0), 0)]
    assert trace.algorithm == "nosegay" and trace.k == 3


def test_nosegay_peel_consumes_sunflower_in_one_step():
    from qksat.gadgets import sunflower_graph

    g = sunflower_graph(6, 3)
    for seed in range(6):
        trace = nosegay_peel(g, seed)
        assert columns(trace) == [(g.n - 3, 0, (5, 0, 0), 0)]


def test_nosegay_peel_chain_branches():
    g = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    shapes = set()
    for seed in range(15):
        trace = nosegay_peel(g, seed)
        gadgets = [tuple(p) for p in trace.steps.tolist()]
        if len(gadgets) == 1:
            assert gadgets[0] == (1, 0, 1)
        else:
            assert gadgets[0] in ((0, 0, 1), (1, 0, 0))
            assert gadgets[1] == (0, 0, 0)
        shapes.add(len(gadgets))
    assert shapes == {1, 2}


def test_nosegay_peel_double_hit_is_one_anomaly():
    g = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    for seed in range(8):
        trace = nosegay_peel(g, seed)
        assert columns(trace) == [(1, 0, (1, 0, 0), 1)]


def test_nosegay_peel_triple_hit_counts_each_extra_meeting():
    g = Hypergraph(3, [(0, 1, 2)] * 3)
    for seed in range(6):
        assert columns(nosegay_peel(g, seed)) == [(0, 0, (2, 0, 0), 4)]


def test_nosegay_peel_invariants_random():
    for seed in range(5):
        g = random_hypergraph(60, 170, 3, seed=2000 + seed)
        trace = nosegay_peel(g, seed)
        assert len(trace.steps) + trace.steps.sum() == g.m
        rem = trace.edges_remaining.tolist()
        assert all(x > y for x, y in zip(rem, rem[1:]))
        assert rem[-1] == 0
        for i, v in enumerate(trace.vertices_remaining.tolist()):
            assert v == g.n - 3 * (i + 1)
        assert trace.steps.dtype == trace.step_anomalies.dtype == np.int64
    g = random_hypergraph(60, 170, 3, seed=2100)
    assert columns(nosegay_peel(g, 5)) == columns(nosegay_peel(g, 5))


# three copies of one edge: the triple-hit test above
@pytest.mark.parametrize("g, k, want", [
    (Hypergraph(5, []), 2, []),
    (Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 1)]), 2,
     [(2, 2, (1, 0), 0), (0, 0, (1, 0), 1)]),
])
def test_nosegay_peel_edge_cases(g, k, want):
    trace = nosegay_peel(g, 0)
    assert (trace.k, columns(trace)) == (k, want)
    if not want:
        assert empirical_log_rank(trace) == math.log(2)


def test_nosegay_peel_requires_uniform_arity():
    with pytest.raises(ValueError):
        nosegay_peel(Hypergraph(4, [(0, 1), (1, 2, 3)]), 0)


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_remaining_counts_match_each_peels_formula(k):
    # the star rule against each peel's own count: a sunflower takes one
    # vertex and its d petals, a nosegay k vertices and 1 + sum(d) edges
    g = random_hypergraph(200, 40 * k, k, seed=50 + k)
    trace = sunflower_peel(g, 2)
    assert trace.vertices_remaining.tolist() == list(range(g.n - 1, -1, -1))
    assert trace.edges_remaining.tolist() == (
        g.m - np.cumsum(trace.steps[:, 0])).tolist()
    trace = nosegay_peel(g, 2)
    assert len(trace.steps) > 1
    i = np.arange(len(trace.steps))
    assert trace.vertices_remaining.tolist() == (g.n - k * (i + 1)).tolist()
    assert trace.edges_remaining.tolist() == (
        g.m - np.cumsum(1 + trace.steps.sum(axis=1))).tolist()


@pytest.mark.parametrize("peel", [sunflower_peel, nosegay_peel])
def test_peel_of_no_vertices_has_no_log_rank(peel):
    trace = peel(Hypergraph(0, []), 0)
    assert len(trace.steps) == trace.anomalies == 0
    with pytest.raises(ValueError, match="n = 0"):
        empirical_log_rank(trace)


def test_empirical_log_rank_manual_trace():
    trace = PeelTrace("sunflower", 3, 2, 3, 0, np.array([[1], [1], [0]]),
                      np.zeros(3, dtype=np.int64))
    assert (trace.vertices_remaining.tolist(),
            trace.edges_remaining.tolist()) == ([2, 1, 0], [1, 0, 0])
    assert empirical_log_rank(trace) == pytest.approx(
        math.log(2) + 2 * math.log(7 / 8) / 3)
    assert (len(trace.steps), trace.anomalies) == (3, 0)


def test_empirical_log_rank_zero_rank_gadget(monkeypatch):
    # no sunflower or nosegay has rank 0, so stand one in for (0, 0, 0)
    def weight(dvec, h):
        return (-math.inf if (dvec, h) == ((0, 0, 0), 3)
                else gadget_log_weight(dvec, h))

    monkeypatch.setattr(peeling, "gadget_log_weight", weight)
    trace = PeelTrace("nosegay", 7, 2, 3, 0, np.zeros((2, 3), dtype=np.int64),
                      np.array([2, 0]))
    assert (trace.vertices_remaining.tolist(),
            trace.edges_remaining.tolist()) == ([4, 1], [1, 0])
    assert empirical_log_rank(trace) == -math.inf
    assert trace.anomalies == 2


def test_empirical_matches_direct_sum():
    g = random_hypergraph(200, 700, 3, seed=42)
    trace = sunflower_peel(g, 1)
    want = math.log(2) + sum(
        gadget_log_weight((d,), 3) for d in trace.steps[:, 0].tolist()) / g.n
    assert empirical_log_rank(trace) == pytest.approx(want)


def test_gadget_weights_computed_once_per_trace(tmp_path, monkeypatch):
    calls = []

    def weight(dvec, h):
        calls.append((dvec, h))
        return gadget_log_weight(dvec, h)

    monkeypatch.setattr(peeling, "gadget_log_weight", weight)
    trace = nosegay_peel(random_hypergraph(60, 170, 3, seed=5), 1)
    empirical_log_rank(trace)
    write_trace_csv(trace, tmp_path / "trace.csv")
    distinct = np.unique(trace.steps, axis=0)
    assert len(calls) == len(set(calls)) == len(distinct)


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
    for i, (row, (v, e, (d,), a)) in enumerate(zip(rows[1:], columns(trace))):
        assert row == [str(i), str(v), str(e), "sunflower", str(d),
                       repr(gadget_log_weight((d,), 3)), str(a)]


def test_trace_csv_nosegay_params(tmp_path):
    g = random_hypergraph(15, 18, 3, seed=9)
    trace = nosegay_peel(g, 2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(trace.steps)
    for row, (_, _, (a, b, c), _) in zip(rows[1:], columns(trace)):
        assert row[3] == "nosegay-k"
        assert row[4] == f"{a};{b};{c}"
        assert float(row[5]) == gadget_log_weight((a, b, c), 3)


def hand_built_traces():
    """A zero-step trace and traces with hanging counts, sizes and anomaly
    counts far beyond what a peel at test scale produces."""
    big = 1 << 40
    none = np.zeros(0, dtype=np.int64)
    yield PeelTrace("sunflower", 0, 0, 3, 0, np.zeros((0, 1), dtype=np.int64),
                    none)
    yield PeelTrace("nosegay", 0, 0, 4, 0, np.zeros((0, 4), dtype=np.int64),
                    none)
    yield PeelTrace("sunflower", big, big, 3, 0,
                    np.array([[10**6], [0], [10**6]]),
                    np.array([big, 0, 123456789]))
    yield PeelTrace("nosegay", big, big, 3, 0,
                    np.array([[10**5, 0, 77], [0, 0, 0]]), np.array([0, big]))


def check_trace_csv(tmp_path, monkeypatch, trace):
    """The bulk writer equals the csv.writer reference, in one block and
    in blocks of 1 and 7 steps."""
    write_trace_csv_reference(trace, tmp_path / "reference.csv")
    want = (tmp_path / "reference.csv").read_bytes()
    for block in (TRACE_BLOCK, 1, 7):
        monkeypatch.setattr(peeling, "TRACE_BLOCK", block)
        write_trace_csv(trace, tmp_path / "bulk.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == want, block


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("peel", [sunflower_peel, nosegay_peel])
def test_trace_csv_matches_csv_writer(tmp_path, monkeypatch, peel, k):
    trace = peel(random_hypergraph(300, 300 * k, k, seed=k), 11)
    check_trace_csv(tmp_path, monkeypatch, trace)


def test_hand_built_trace_csv_matches_csv_writer(tmp_path, monkeypatch):
    for trace in hand_built_traces():
        check_trace_csv(tmp_path, monkeypatch, trace)


@pytest.mark.parametrize("rows", [0, 1, 2, 500])
@pytest.mark.parametrize("width", [1, 3, 4])
def test_gadget_grouping_matches_unique(monkeypatch, rows, width):
    monkeypatch.setattr(peeling, "gadget_log_weight", lambda dvec, h: 0.0)
    rng = np.random.default_rng(rows * 10 + width)
    info = np.iinfo(np.int64)
    for params in (rng.integers(-2, 3, size=(rows, width)),
                   rng.integers(info.min, info.max, size=(rows, width),
                                endpoint=True)):
        algorithm = "sunflower" if width == 1 else "nosegay"
        zeros = np.zeros(rows, dtype=np.int64)
        trace = PeelTrace(algorithm, rows, rows, width, 0, params, zeros)
        got_rows, _, got_counts, got_inverse = trace.gadgets
        want_rows, want_inverse, want_counts = np.unique(
            params, axis=0, return_inverse=True, return_counts=True)
        assert got_rows == want_rows.tolist()
        assert got_counts == want_counts.tolist()
        assert got_inverse.dtype == np.int64
        assert got_inverse.tolist() == want_inverse.reshape(-1).tolist()
