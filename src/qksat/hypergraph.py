"""Hypergraph/multigraph data model, random generation, and component analysis.

A hypergraph keeps all its edges in one int64 array, `vertices`, with
`offsets`: edge i is vertices[offsets[i]:offsets[i + 1]], its vertices
distinct and ascending. Repeated edges are kept with multiplicity because
each one carries its own clause, and arities may be mixed within one
hypergraph.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .rng import make_rng


class Hypergraph:
    """n vertices (indices 0..n-1) and an ordered multiset of edges, given as
    an (m, k) integer array or a sequence of vertex sequences, each edge's
    vertices in any order. An int64 array with ascending rows is kept as is."""

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.dtype.kind not in "iu":
                raise ValueError(f"an edge array must hold (m, k) integers, "
                                 f"got {edges.dtype} of shape {edges.shape}")
            edges = edges.astype(np.int64, copy=False)
            if (np.diff(edges, axis=1) <= 0).any():
                edges = np.sort(edges, axis=1)
            offsets = np.arange(len(edges) + 1) * edges.shape[1]
        else:
            if any(t is bool or not issubclass(t, (int, np.integer))
                   for t in {type(v) for e in edges for v in e}):
                raise ValueError("vertices must be integers, not bool or float")
            rows = [sorted(e) for e in edges]
            offsets = np.cumsum([0, *map(len, rows)])
            edges = [v for row in rows for v in row]
        try:
            vertices = np.asarray(edges, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise ValueError("a vertex lies outside int64") from None
        arity, step = np.diff(offsets), np.diff(vertices)
        if (arity < 2).any():
            i = np.argmax(arity < 2)
            raise ValueError(f"edge {i} has arity {arity[i]}; arity >= 2 required")
        step[offsets[1:-1] - 1] = 1     # pairs that straddle two edges
        if (step <= 0).any():
            raise ValueError(f"an edge repeats vertex {vertices[np.argmax(step <= 0)]}"
                             f" (self-loops not supported)")
        if vertices.size and not 0 <= vertices.min() <= vertices.max() < n:
            raise ValueError(f"vertices {vertices.min()}..{vertices.max()} out of "
                             f"range for n={n}")
        self.n, self.vertices, self.offsets = n, vertices, offsets
        # counted once, on the arity array the checks above hold, so that a
        # peel allocates no array of m arities to learn its arity
        self._arities = tuple(np.flatnonzero(np.bincount(arity)).tolist())

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as ascending tuples, for small-graph callers."""
        vertices, offsets = self.vertices.tolist(), self.offsets.tolist()
        return tuple(tuple(vertices[a:b]) for a, b in zip(offsets, offsets[1:]))

    def arities(self) -> set[int]:
        return set(self._arities)


def check_arity(k: int) -> None:
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")


def random_hypergraph(n: int, m: int, k: int, seed) -> Hypergraph:
    """m edges drawn uniformly with replacement from the k-subsets of [0, n).

    Each edge is k distinct vertices obtained by rejection: any draw with a
    repeated vertex is redrawn whole, and k is refused where a draw has
    distinct vertices with probability p < 2^-12. Deterministic given the
    seed, a plain int or a Generator; a float or bool seed raises TypeError.
    """
    check_arity(k)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    if (p := math.prod(1 - i / n for i in range(k))) < 2 ** -12:
        raise ValueError(f"k={k} of n={n} vertices are all distinct with "
                         f"probability p={p:.3g} < 2^-12: too rare to draw by rejection")
    rng = make_rng(seed)
    edges = np.sort(rng.integers(0, n, size=(m, k)), axis=1)
    bad = np.flatnonzero((np.diff(edges, axis=1) == 0).any(axis=1))
    while bad.size:     # only the redrawn rows are sorted and checked again
        redrawn = np.sort(rng.integers(0, n, size=(bad.size, k)), axis=1)
        edges[bad] = redrawn
        bad = bad[(np.diff(redrawn, axis=1) == 0).any(axis=1)]
    return Hypergraph(n, edges)


def components(g: Hypergraph) -> list[tuple[int, int]]:
    """(vertex_count, edge_count) of each connected component of an arity-2
    multigraph, isolated vertices included, ordered by each component's
    smallest vertex index; edge counts keep multiplicity."""
    if g.arities() - {2}:
        raise ValueError("components requires all edges to have arity 2")
    u, v = g.vertices.reshape(g.m, 2).T
    root = np.arange(g.n)
    while True:     # until every vertex holds its component's least vertex
        low = root.copy()
        np.minimum.at(low, u, root[v])
        np.minimum.at(low, v, root[u])
        low = low[low]
        if (low == root).all():
            break
        root = low
    vertex_count = np.bincount(root, minlength=g.n)
    edge_count = np.bincount(root[u], minlength=g.n)
    return [(int(vertex_count[r]), int(edge_count[r]))
            for r in np.flatnonzero(vertex_count)]


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format: line one `n m`, then m lines of vertex indices."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, file has {len(lines) - 1}")
    edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
    return Hypergraph(n, edges)


def read_hypergraph(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
