"""Randomized peeling of a hypergraph into gadgets.

Both algorithms partition the edge set: every edge is consumed by exactly one
gadget, so the per-qubit log-rank bound accumulates one gadget log-weight per
step on top of the global ln 2. Structure violations (petals sharing an extra
vertex, hanging edges touching two centers) keep the standard gadget formula
and are counted as anomalies instead; they are rare on sparse random inputs,
and their count bounds the slack of pretending the structure is clean.

A trace's steps are one structured array with the columns
`vertices_remaining`, `edges_remaining`, `params` (the gadget's `d` for a
sunflower, its `a, b, c` for a nosegay) and `anomalies`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .gadgets import LN2, Nosegay3, Sunflower, gadget_log_weight
from .hypergraph import Hypergraph
from .rng import make_rng

# each algorithm's gadget family, and the gadget spec of one params row
GADGETS = {"sunflower": ("sunflower", lambda row, k: Sunflower(row[0], k)),
           "nosegay": ("nosegay3", lambda row, k: Nosegay3(*row))}


@dataclass(frozen=True, eq=False)
class PeelTrace:
    algorithm: str
    n: int
    m: int
    k: int
    seed: int
    steps: np.ndarray

    @property
    def anomalies(self) -> int:
        return int(self.steps["anomalies"].sum())


@dataclass(frozen=True)
class EmpiricalBound:
    value: float
    step_count: int
    anomalies: int


def _require_int_seed(seed) -> int:
    if isinstance(seed, (bool, float)) or not isinstance(seed, int):
        raise TypeError(f"peeling needs an integer seed for replay, got {seed!r}")
    return seed


def trace_steps(vertices, edges, params, anomalies) -> np.ndarray:
    """A trace's steps array from its four columns; params is 2-D."""
    steps = np.empty(len(vertices), dtype=[
        ("vertices_remaining", np.int64), ("edges_remaining", np.int64),
        ("params", np.int64, (params.shape[1],)), ("anomalies", np.int64)])
    for name, column in zip(steps.dtype.names,
                            (vertices, edges, params, anomalies)):
        steps[name] = column
    return steps


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
    k = k or 2
    order = make_rng(seed).permutation(g.n)

    edges = np.array(g.edges, dtype=np.int64).reshape(g.m, k)
    consumed_at = np.argsort(order)[edges].min(axis=1)
    degree = np.bincount(consumed_at, minlength=g.n)

    # a non-center vertex met by c petals of one step adds c(c-1)/2 pairs
    at = np.repeat(consumed_at, k)
    petal = edges.ravel() != order[at]
    keys, seen = np.unique(at[petal] * g.n + edges.ravel()[petal],
                           return_counts=True)
    anomalies = np.bincount(keys // g.n, weights=seen * (seen - 1) // 2,
                            minlength=g.n).astype(np.int64)

    steps = trace_steps(np.arange(g.n - 1, -1, -1), g.m - np.cumsum(degree),
                        degree[:, None], anomalies)
    return PeelTrace("sunflower", g.n, g.m, k, seed, steps)


def nosegay_peel(g: Hypergraph, seed) -> PeelTrace:
    """Peel a 3-uniform hypergraph into nosegays.

    Each step takes the next remaining edge {u,v,w} of one uniform random
    permutation of the edges: the edges past that position are in uniform
    random order and include every remaining edge, so this is a uniform
    draw among them. It counts the other remaining edges through each of
    u, v, w (an edge meeting several counts once, at its lowest-position
    center, and each further meeting is an anomaly), removes u, v, w and
    every counted edge, and records the (a,b,c) gadget. Hanging-edge
    endpoints stay behind; once isolated they are covered by the global
    2^n factor and produce no step.
    """
    seed = _require_int_seed(seed)
    if g.arities() - {3}:
        raise ValueError("nosegay peel requires arity 3 throughout")

    edges = np.array(g.edges, dtype=np.int64).reshape(g.m, 3)
    # CSR incidence: the edges through vertex x are incident[start[x]:start[x+1]]
    incident = np.argsort(edges.ravel(), kind="stable") // 3
    start = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges.ravel(), minlength=g.n), out=start[1:])

    cap = min(g.m, g.n // 3)
    params = np.empty((cap, 3), dtype=np.int64)
    anomalies = np.empty(cap, dtype=np.int64)
    alive = np.ones(g.m, dtype=bool)
    s = 0
    for chosen in make_rng(seed).permutation(g.m).tolist():
        if not alive[chosen]:
            continue
        alive[chosen] = False
        spans = [incident[start[x]:start[x + 1]] for x in edges[chosen].tolist()]
        met = np.concatenate(spans)
        keep = alive[met]
        center = np.repeat(np.arange(3), [len(sp) for sp in spans])[keep]
        met = met[keep]
        counted, first = np.unique(met, return_index=True)
        alive[counted] = False
        params[s] = np.bincount(center[first], minlength=3)
        anomalies[s] = len(met) - len(counted)
        s += 1
    params = params[:s]
    steps = trace_steps(g.n - 3 * np.arange(1, s + 1),
                        g.m - np.cumsum(1 + params.sum(axis=1)), params,
                        anomalies[:s])
    return PeelTrace("nosegay", g.n, g.m, 3, seed, steps)


def _distinct_gadgets(trace: PeelTrace):
    """The trace's distinct params rows, the log-weight and step count of
    each, and the row index of each step."""
    rows, inverse, counts = np.unique(trace.steps["params"], axis=0,
                                      return_inverse=True, return_counts=True)
    spec = GADGETS[trace.algorithm][1]
    rows = rows.tolist()
    weights = [gadget_log_weight(spec(row, trace.k)) for row in rows]
    return rows, weights, counts.tolist(), inverse.tolist()


def empirical_log_rank(trace: PeelTrace) -> EmpiricalBound:
    """ln 2 + (1/n) * sum of gadget log-weights over the trace's steps.

    A zero-rank gadget drives the value to -inf, certifying unsatisfiability
    of the sampled instance outright.
    """
    _, weights, counts, _ = _distinct_gadgets(trace)
    total = math.fsum(c * w for c, w in zip(counts, weights))
    return EmpiricalBound(LN2 + total / trace.n, len(trace.steps),
                          trace.anomalies)


def write_trace_csv(trace: PeelTrace, path) -> None:
    """One row per step: step index, remaining sizes, gadget, params joined
    by ';', log-weight, per-step anomaly count."""
    rows, weights, _, inverse = _distinct_gadgets(trace)
    params = [";".join(map(str, row)) for row in rows]
    weights = [repr(w) for w in weights]
    steps = trace.steps
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "vertices_remaining", "edges_remaining",
                         "gadget", "params", "log_weight", "anomaly"])
        writer.writerows(zip(
            range(len(steps)), steps["vertices_remaining"].tolist(),
            steps["edges_remaining"].tolist(),
            repeat(GADGETS[trace.algorithm][0]),
            [params[i] for i in inverse], [weights[i] for i in inverse],
            steps["anomalies"].tolist()))
