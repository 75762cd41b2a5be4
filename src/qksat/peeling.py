"""Randomized peeling of a hypergraph into gadgets.

Both algorithms partition the edge set: every edge is consumed by exactly one
gadget, so the per-qubit log-rank bound accumulates one gadget log-weight per
step on top of the global ln 2. Structure violations (petals sharing an extra
vertex, hanging edges touching two centers) keep the standard gadget formula
and are counted as anomalies instead; they are rare on sparse random inputs,
and their count bounds the slack of pretending the structure is clean.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from math import inf

import numpy as np

from .gadgets import (LN2, GadgetSpec, Nosegay3, Sunflower, gadget_log_weight,
                      trace_columns)
from .hypergraph import Hypergraph
from .rng import make_rng


@dataclass(frozen=True)
class PeelStep:
    vertices_remaining: int
    edges_remaining: int
    gadget: GadgetSpec
    anomalies: int


@dataclass(frozen=True)
class PeelTrace:
    algorithm: str
    n: int
    m: int
    k: int
    seed: int
    steps: tuple[PeelStep, ...]

    @property
    def anomalies(self) -> int:
        return sum(s.anomalies for s in self.steps)


@dataclass(frozen=True)
class EmpiricalBound:
    value: float
    step_count: int
    anomalies: int


def _require_int_seed(seed) -> int:
    if isinstance(seed, (bool, float)) or not isinstance(seed, int):
        raise TypeError(f"peeling needs an integer seed for replay, got {seed!r}")
    return seed


def sunflower_peel(g: Hypergraph, seed) -> PeelTrace:
    """Peel a uniform-arity hypergraph into sunflowers.

    Vertices are processed in a uniform random order (equivalent to sorting
    by i.i.d. indices in [0,1] and walking downward); each step's gadget is
    the sunflower of all edges still present at the vertex, so an edge is
    consumed at its earliest-processed endpoint. Every vertex yields a step,
    degree-0 vertices included. A step's anomaly count is the number of
    petal pairs sharing a vertex besides the center.
    """
    seed = _require_int_seed(seed)
    k = g.uniform_arity()
    if g.m > 0 and k is None:
        raise ValueError("sunflower peel requires uniform arity")
    if k is None:
        k = 2
    rng = make_rng(seed)
    order = rng.permutation(g.n)
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)

    if g.m:
        edge_array = np.array(g.edges, dtype=np.int64)
        consumed_at = pos[edge_array].min(axis=1)
    else:
        consumed_at = np.empty(0, dtype=np.int64)
    degree = np.bincount(consumed_at, minlength=g.n)

    by_step: dict[int, list[int]] = {}
    for eid, s in enumerate(consumed_at.tolist()):
        by_step.setdefault(s, []).append(eid)

    steps = []
    remaining = g.m
    for s in range(g.n):
        d = int(degree[s])
        remaining -= d
        anomalies = 0
        if d >= 2:
            center = int(order[s])
            shared = Counter(
                v for eid in by_step[s] for v in g.edges[eid] if v != center
            )
            anomalies = sum(c * (c - 1) // 2 for c in shared.values())
        steps.append(PeelStep(g.n - s - 1, remaining, Sunflower(d, k), anomalies))
    return PeelTrace("sunflower", g.n, g.m, k, seed, tuple(steps))


def nosegay_peel(g: Hypergraph, seed) -> PeelTrace:
    """Peel a 3-uniform hypergraph into nosegays.

    Each step picks a uniformly random remaining edge {u,v,w}, counts the
    other remaining edges through each of u, v, w (an edge meeting two or
    more of them counts once, at its lowest-position center, and flags an
    anomaly), removes u, v, w and every counted edge, and records the
    (a,b,c) gadget. Hanging-edge endpoints stay behind; once isolated they
    are covered by the global 2^n factor and produce no step.
    """
    seed = _require_int_seed(seed)
    if g.arities() - {3}:
        raise ValueError("nosegay peel requires arity 3 throughout")
    rng = make_rng(seed)

    incidence: list[list[int]] = [[] for _ in range(g.n)]
    for eid, e in enumerate(g.edges):
        for v in e:
            incidence[v].append(eid)

    alive = [True] * g.m
    pool = list(range(g.m))
    slot = list(range(g.m))  # slot[eid] = index in pool while alive

    def drop(eid: int) -> None:
        alive[eid] = False
        i = slot[eid]
        last = pool[-1]
        pool[i] = last
        slot[last] = i
        pool.pop()

    steps = []
    vertices = g.n
    while pool:
        chosen = pool[int(rng.integers(len(pool)))]
        centers = g.edges[chosen]
        counts = [0, 0, 0]
        counted: list[int] = []
        counted_set = {chosen}
        anomalies = 0
        for ci, x in enumerate(centers):
            for eid in incidence[x]:
                if not alive[eid] or eid == chosen:
                    continue
                if eid in counted_set:
                    # meets an earlier center too; already counted there
                    anomalies += 1
                    continue
                counted_set.add(eid)
                counted.append(eid)
                counts[ci] += 1
        drop(chosen)
        for eid in counted:
            drop(eid)
        vertices -= 3
        steps.append(PeelStep(vertices, len(pool),
                              Nosegay3(counts[0], counts[1], counts[2]), anomalies))
    return PeelTrace("nosegay", g.n, g.m, 3, seed, tuple(steps))


def empirical_log_rank(trace: PeelTrace) -> EmpiricalBound:
    """ln 2 + (1/n) * sum of gadget log-weights over the trace's steps.

    A zero-rank gadget drives the value to -inf, certifying unsatisfiability
    of the sampled instance outright.
    """
    tally = Counter(step.gadget for step in trace.steps)
    total = 0.0
    for spec, count in tally.items():
        w = gadget_log_weight(spec)
        if w == -inf:
            return EmpiricalBound(-inf, len(trace.steps), trace.anomalies)
        total += count * w
    return EmpiricalBound(LN2 + total / trace.n, len(trace.steps), trace.anomalies)


def write_trace_csv(trace: PeelTrace, path) -> None:
    """One row per step: step index, remaining sizes, gadget, params,
    log-weight, per-step anomaly count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "vertices_remaining", "edges_remaining",
                         "gadget", "params", "log_weight", "anomaly"])
        for i, step in enumerate(trace.steps):
            tag, params = trace_columns(step.gadget)
            writer.writerow([i, step.vertices_remaining, step.edges_remaining,
                             tag, params, repr(gadget_log_weight(step.gadget)),
                             step.anomalies])
