"""Hypergraph/multigraph data model, random generation, and component analysis.

Edges are stored as sorted tuples of distinct vertex indices; repeated edges
are kept with multiplicity because each one carries its own clause. Arities
may be mixed within one hypergraph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """n vertices (indices 0..n-1) and an ordered multiset of edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        normalized = []
        for e in self.edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) < 2:
                raise ValueError(f"edge {e!r} has arity {len(t)}; arity >= 2 required")
            if len(set(t)) != len(t):
                raise ValueError(f"edge {e!r} repeats a vertex (self-loops not supported)")
            if t[0] < 0 or t[-1] >= self.n:
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            normalized.append(t)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def arities(self) -> set[int]:
        return {len(e) for e in self.edges}

    def uniform_arity(self) -> int | None:
        """The common arity if all edges share one, else None. Empty -> None."""
        ks = self.arities()
        return next(iter(ks)) if len(ks) == 1 else None


@dataclass(frozen=True)
class ComponentSummary:
    vertex_count: int
    edge_count: int


class DisjointSets:
    """Array-backed union-find with path halving and union by size."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def random_hypergraph(n: int, m: int, k: int, seed) -> Hypergraph:
    """m edges drawn uniformly with replacement from the k-subsets of [0, n).

    Each edge is k distinct vertices obtained by rejection: any draw with a
    repeated vertex is redrawn whole. Deterministic given the seed.
    """
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    rng = make_rng(seed)
    draws = rng.integers(0, n, size=(m, k))
    while True:
        sorted_rows = np.sort(draws, axis=1)
        bad = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
        if not bad.any():
            break
        draws[bad] = rng.integers(0, n, size=(int(bad.sum()), k))
    return Hypergraph(n, tuple(map(tuple, sorted_rows.tolist())))


def components(g: Hypergraph) -> list[ComponentSummary]:
    """Connected components of an arity-2 multigraph, isolated vertices included.

    Ordered by each component's smallest vertex index; edge counts keep
    multiplicity.
    """
    if g.arities() - {2}:
        raise ValueError("components requires all edges to have arity 2")
    dsu = DisjointSets(g.n)
    for u, v in g.edges:
        dsu.union(u, v)
    # counted in vertex order, so roots come first-seen by smallest vertex
    vertex_count = Counter(dsu.find(v) for v in range(g.n))
    edge_count = Counter(dsu.find(u) for u, _ in g.edges)
    return [ComponentSummary(count, edge_count[r])
            for r, count in vertex_count.items()]


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
    return Hypergraph(n, tuple(edges))


def read_hypergraph(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
