"""Randomized peeling of a hypergraph into gadgets.

Both algorithms partition the edge set: every edge is consumed by exactly one
gadget, so the per-qubit log-rank bound accumulates one gadget log-weight per
step on top of the global ln 2. A gadget with a structure violation keeps its
standard formula; anomalies count each pair of petals sharing a vertex besides
the center, and each further center vertex a hanging edge touches, but not two
hanging edges of one nosegay sharing a fresh vertex (ROADMAP item 3): the graph
(0,1,2), (0,3,4), (1,3,5) peels to hanging counts [1, 1, 0] with 0 anomalies.

Each step is a star of `gadgets._star`: a trace keeps its (s, c) int64
hanging counts, the sunflower's `d` (c = 1) or the nosegay's `d_1..d_k`
(c = k), and each step's anomaly count. A step takes its c centers, its
hanging edges and, when c >= 2, a central edge: the remaining vertex and
edge counts derive from that.

Every pass over per-edge data goes by column, and none builds an (m, k)
temporary: a gather from a vertex table, a scatter or a `ufunc.at` takes one
1-D column per call (`hypergraph.column`), and a reduction accumulates the
columns in place (`row_reduce`, gathering each from its table in turn). numpy
walks a short axis row by row and takes its slow path for a 2-D fancy index
or `ufunc.at`. The one exception is dropping rows: the nosegay's packing
rounds shrink their rows with `np.take(rows, kept, axis=0)`, which copies each
row whole and is faster than k column gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gadgets import LN2, gadget_log_weight
from .hypergraph import Hypergraph, column, row_reduce
from .rng import make_rng, require_int

# steps per write of the trace CSV: bounds the writer's memory whatever n is
TRACE_BLOCK = 1 << 16

# each algorithm's gadget family, as the trace CSV names it
GADGETS = {"sunflower": "sunflower", "nosegay": "nosegay-k"}


@dataclass(frozen=True, eq=False)
class PeelTrace:
    algorithm: str
    n: int
    m: int
    k: int
    seed: int
    steps: np.ndarray           # (s, c) hanging counts, one star per step
    step_anomalies: np.ndarray  # (s,) anomaly count of each step

    @property
    def anomalies(self) -> int:
        return int(self.step_anomalies.sum())

    @cached_property
    def vertices_remaining(self) -> np.ndarray:
        """n - c (i + 1) after step i: each step takes its c centers."""
        return self.n - self.steps.shape[1] * np.arange(1, len(self.steps) + 1)

    @cached_property
    def edges_remaining(self) -> np.ndarray:
        """m less the cumulative hanging edges, and central edges if c >= 2."""
        return self.m - np.cumsum(row_reduce(np.add, self.steps)
                                  + (self.steps.shape[1] >= 2))

    @cached_property
    def gadgets(self):
        """The distinct step rows in lexicographic order, the log-weight
        and step count of each, and the row index of each step (an int64
        array). One lexsort groups the rows: a sorted row that differs from
        the one before it starts a group."""
        order = np.lexsort(self.steps.T[::-1])
        ranked = self.steps[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = row_reduce(np.logical_or, ranked[1:] != ranked[:-1])
        starts = np.flatnonzero(new)
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        counts = np.diff(starts, append=len(order))
        rows = ranked[starts].tolist()
        weights = [gadget_log_weight(tuple(row), self.k) for row in rows]
        return rows, weights, counts.tolist(), inverse


def _uniform_arity(g: Hypergraph, algorithm: str) -> int:
    if len(ks := g.arities() or {2}) > 1:
        raise ValueError(f"{algorithm} peel requires uniform arity")
    return ks.pop()


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of range(len(order)), by one scatter."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def sunflower_peel(g: Hypergraph, seed) -> PeelTrace:
    """Peel a uniform-arity hypergraph into sunflowers.

    Vertices are processed in a uniform random order (equivalent to sorting
    by i.i.d. indices in [0,1] and walking downward); each step's gadget is
    the sunflower of all edges still present at the vertex, so an edge is
    consumed at its earliest-processed endpoint. Every vertex yields a step,
    degree-0 vertices included. A step's anomaly count is the number of
    petal pairs sharing a vertex besides the center.
    """
    require_int(seed, "seed")
    k = _uniform_arity(g, "sunflower")
    step = _inverse(make_rng(seed).permutation(g.n))
    edges = g.vertices.reshape(g.m, k)
    consumed_at = row_reduce(np.minimum, edges, table=step)
    degree = np.bincount(consumed_at, minlength=g.n)

    # an edge's vertices have distinct steps, so it has one center and k - 1
    # (step, vertex) keys off it; a vertex met by c petals of one step
    # repeats its key c times and adds c(c-1)/2 pairs
    keys, end = np.empty(g.m * (k - 1), dtype=np.int64), 0
    for j in range(k):
        off = np.flatnonzero(column(edges, j, step) != consumed_at)
        part = keys[end:end + len(off)]
        np.take(consumed_at, off, out=part)
        part *= g.n
        part += column(edges, j, select=off)
        end += len(off)
    keys.sort()
    met, repeats = np.unique(keys[1:][keys[1:] == keys[:-1]], return_counts=True)
    anomalies = np.zeros(g.n, dtype=np.int64)
    np.add.at(anomalies, met // g.n, repeats * (repeats + 1) // 2)
    return PeelTrace("sunflower", g.n, g.m, k, seed, degree[:, None], anomalies)


def nosegay_peel(g: Hypergraph, seed) -> PeelTrace:
    """Peel a k-uniform hypergraph into nosegays.

    Each step takes the next remaining edge of one uniform random
    permutation of the edges (a uniform draw among the remaining edges) and
    consumes it with every remaining edge through one of its k vertices as a
    (d_1, ..., d_k) gadget; an edge meeting several centers counts at the
    lowest-position one, each further meeting being an anomaly. Hanging-edge
    endpoints left isolated are covered by the global 2^n factor and
    produce no step. Edges leave only with a central edge, so every other
    edge is consumed at the least step among its vertices, and the central
    edges are the permutation's greedy vertex-disjoint packing, taken in
    rounds that give the same edges (Blelloch, Fineman and Shun, SPAA 2012;
    few rounds: Fischer and Noever, SODA 2018): an alive edge enters when
    it holds the least rank at each of its vertices, then every alive edge
    touching an entered one leaves.
    """
    require_int(seed, "seed")
    k = _uniform_arity(g, "nosegay")
    edges = g.vertices.reshape(g.m, k)
    order = make_rng(seed).permutation(g.m)
    # the alive edges' vertex columns (a view of edges until the first
    # round drops some) and ranks, and whether each rank entered the packing
    rows, alive_rank = edges, _inverse(order)
    entered, used = np.zeros(g.m, dtype=bool), np.zeros(g.n, dtype=bool)
    while len(alive_rank):
        first = np.full(g.n, g.m)
        for j in range(k):
            np.minimum.at(first, rows[:, j], alive_rank)
        enter = np.flatnonzero(row_reduce(np.minimum, rows, table=first)
                               == alive_rank)
        entered[alive_rank[enter]] = True
        for j in range(k):
            used[column(rows, j, select=enter)] = True
        keep = np.flatnonzero(~row_reduce(np.logical_or, rows, table=used))
        rows = np.take(rows, keep, axis=0)
        alive_rank = alive_rank[keep]
    central = order[entered]
    s = len(central)
    packed = np.zeros(g.m, dtype=bool)
    packed[central] = True

    # k * step + position on its center for each vertex, k s off the packing
    key = np.full(g.n, k * s, dtype=np.int64)
    for j in range(k):
        key[column(edges, j, select=central)] = k * np.arange(s) + j
    hanging = np.flatnonzero(~packed)
    least = row_reduce(np.minimum, edges, table=key, select=hanging)
    dvecs = np.bincount(least, minlength=k * s).reshape(s, k)
    # the meetings of a hanging edge with its step's center beyond the first
    at, step, extra = least // k, key // k, np.full(len(hanging), -1)
    for j in range(k):
        extra += column(edges, j, step, hanging) == at
    anomalies = np.bincount(at, weights=extra, minlength=s)
    return PeelTrace("nosegay", g.n, g.m, k, seed, dvecs,
                     anomalies.astype(np.int64))


def empirical_log_rank(trace: PeelTrace) -> float:
    """ln 2 + (1/n) * sum of gadget log-weights over the trace's steps.

    A zero-rank gadget drives the value to -inf, certifying unsatisfiability
    of the sampled instance outright. There is no value per qubit at n = 0.
    """
    if trace.n == 0:
        raise ValueError("a peel of n = 0 vertices has no per-qubit log-rank")
    _, weights, counts, _ = trace.gadgets
    total = math.fsum(c * w for c, w in zip(counts, weights))
    return LN2 + total / trace.n


def write_trace_csv(trace: PeelTrace, path) -> None:
    """One row per step: step index, remaining sizes, gadget, hanging counts
    joined by ';', log-weight, anomaly count. Rows end in CRLF, and no field
    needs quoting: counts are ints and family names hold no comma.
    Each block of TRACE_BLOCK steps is written with one format call."""
    rows, weights, _, inverse = trace.gadgets
    family = GADGETS[trace.algorithm]
    gadget = [f"{family},{';'.join(map(str, row))},{weight!r}"
              for row, weight in zip(rows, weights)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,vertices_remaining,edges_remaining,gadget,params,"
                 "log_weight,anomaly\r\n")
        for a in range(0, len(inverse), TRACE_BLOCK):
            s = min(TRACE_BLOCK, len(inverse) - a)
            cells = [None] * (5 * s)
            cells[0::5] = range(a, a + s)
            cells[1::5] = trace.vertices_remaining[a:a + s].tolist()
            cells[2::5] = trace.edges_remaining[a:a + s].tolist()
            cells[3::5] = [gadget[i] for i in inverse[a:a + s].tolist()]
            cells[4::5] = trace.step_anomalies[a:a + s].tolist()
            fh.write("%d,%d,%d,%s,%d\r\n" * s % tuple(cells))
