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
edge counts derive from that. Per-edge (m, k) arrays are reduced by column
(`row_reduce`): numpy walks a short axis row by row, which cost about a
quarter of the `peel` benchmark's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gadgets import LN2, gadget_log_weight
from .hypergraph import Hypergraph, row_reduce
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


def _consuming_step(step: np.ndarray, edges: np.ndarray):
    """Each edge's least vertex step, and the mask of its vertices at it."""
    at_vertex = step[edges]
    at = row_reduce(np.minimum, at_vertex)
    return at, at_vertex == at[:, None]


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
    order = make_rng(seed).permutation(g.n)
    edges = g.vertices.reshape(g.m, k)
    consumed_at, center = _consuming_step(np.argsort(order), edges)
    degree = np.bincount(consumed_at, minlength=g.n)

    # a non-center vertex met by c petals of one step adds c(c-1)/2 pairs
    keys, seen = np.unique((consumed_at[:, None] * g.n + edges)[~center],
                           return_counts=True)
    anomalies = np.bincount(keys // g.n, weights=seen * (seen - 1) // 2,
                            minlength=g.n)
    return PeelTrace("sunflower", g.n, g.m, k, seed, degree[:, None],
                     anomalies.astype(np.int64))


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
    rank, alive = np.argsort(order), np.arange(g.m)
    packed, used = np.zeros(g.m, dtype=bool), np.zeros(g.n, dtype=bool)
    while alive.size:
        rows, first = edges[alive], np.full(g.n, g.m)
        np.minimum.at(first, rows, rank[alive, None])
        enter = alive[row_reduce(np.minimum, first[rows]) == rank[alive]]
        packed[enter], used[edges[enter]] = True, True
        alive = alive[~row_reduce(np.logical_or, used[rows])]
    central = order[packed[order]]
    s = len(central)

    # k * step + position on its center for each vertex, k s off the packing
    key = np.full(g.n, k * s, dtype=np.int64)
    key[edges[central]] = k * np.arange(s)[:, None] + np.arange(k)
    hanging = edges[~packed]
    at, meets = _consuming_step(key // k, hanging)
    dvecs = np.bincount(row_reduce(np.minimum, key[hanging]),
                        minlength=k * s).reshape(s, k)
    anomalies = np.bincount(at, weights=row_reduce(np.add, meets, np.int64) - 1,
                            minlength=s)
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
