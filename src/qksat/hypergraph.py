"""Hypergraph/multigraph data model, random generation, and component analysis.

A hypergraph keeps all its edges in one int64 array, `vertices`, with
`offsets`: edge i is vertices[offsets[i]:offsets[i + 1]], its vertices
distinct and ascending. Repeated edges are kept with multiplicity because
each one carries its own clause, and arities may be mixed within one
hypergraph.

The constructor refuses the same edges in either form. An (m, k) array is
checked by columns, with no flat pass over its km endpoints: k >= 2 from the
shape (when m > 0), distinct vertices from strictly ascending rows (rows that
are not ascending are sorted in a copy and checked again), the range from the
first column's minimum and the last column's maximum, and its arities are
(k,). A sequence of edges is checked on its flat sorted vertices.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .rng import make_rng, require_int


class Hypergraph:
    """n vertices (indices 0..n-1) and an ordered multiset of edges, given as
    an (m, k) integer array or a sequence of vertex sequences, each edge's
    vertices in any order. An int64 array with ascending rows is kept as is."""

    def __init__(self, n: int, edges):
        require_int(n, "vertex count n")
        if isinstance(edges, np.ndarray):
            vertices, offsets, arities, low, high = _array_edges(edges)
        else:
            vertices, offsets, arities, low, high = _sequence_edges(edges)
        if vertices.size and not 0 <= low <= high < n:
            raise ValueError(f"vertices {low}..{high} out of range for n={n}")
        self.n, self.vertices, self.offsets = n, vertices, offsets
        # counted once here, so that a peel needs no array of m arities
        self._arities = arities

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


def _array_edges(edges: np.ndarray):
    """Check an (m, k) edge array by columns: k >= 2 from the shape, distinct
    vertices from ascending rows (sorting a copy when a row is not), and the
    range from the first and last columns."""
    if edges.ndim != 2 or edges.dtype.kind not in "iu":
        raise ValueError(f"an edge array must hold (m, k) integers, "
                         f"got {edges.dtype} of shape {edges.shape}")
    (m, k), rows = edges.shape, edges.astype(np.int64, copy=False)
    if m == 0:
        return rows.reshape(-1), np.zeros(1, dtype=np.int64), (), 0, 0
    if k < 2:
        raise ValueError(f"edge 0 has arity {k}; arity >= 2 required")
    if not (ok := ascending_rows(rows)).all():
        rows = np.sort(rows, axis=1)
        if not (ok := ascending_rows(rows)).all():
            row = rows[np.argmin(ok)]
            raise ValueError(f"an edge repeats vertex {row[np.argmax(row[1:] <= row[:-1])]}"
                             f" (self-loops not supported)")
    return (rows.reshape(-1), np.arange(m + 1) * k, (k,),
            rows[:, 0].min(), rows[:, -1].max())


def _sequence_edges(edges):
    """Check a sequence of vertex sequences on its flat, sorted vertices."""
    if any(t is bool or not issubclass(t, (int, np.integer))
           for t in {type(v) for e in edges for v in e}):
        raise ValueError("vertices must be integers, not bool or float")
    rows = [sorted(e) for e in edges]
    offsets = np.cumsum([0, *map(len, rows)])
    try:
        vertices = np.array([v for row in rows for v in row], dtype=np.int64)
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
    arities = tuple(np.flatnonzero(np.bincount(arity)).tolist())
    if not vertices.size:
        return vertices, offsets, arities, 0, 0
    return vertices, offsets, arities, vertices.min(), vertices.max()


def row_reduce(ufunc, rows: np.ndarray, dtype=None, table=None,
               select=None) -> np.ndarray:
    """ufunc.reduce(x, axis=1, dtype) for x = table[rows[select]] of an (m,
    k) array rows, k >= 1, the table or the selection (an index array or a
    mask) left out when None, as k - 1 calls on columns into one m-array,
    updated in place: numpy reduces a short axis one row at a time, at about
    25 ns a row, and a column in bulk. The columns of x are gathered one at a
    time (`column`), so no (m, k) temporary is built."""
    gathered = table is not None or select is not None     # not a view of rows
    out = np.array(column(rows, 0, table, select), dtype=dtype,
                   copy=None if gathered else True)
    for j in range(1, rows.shape[1]):
        ufunc(out, column(rows, j, table, select), out=out)
    return out


def column(rows: np.ndarray, j: int, table=None, select=None) -> np.ndarray:
    """Column j of table[rows[select]] by 1-D gathers, the table or the
    selection left out when None; a view of rows when both are."""
    x = rows[:, j]
    if select is not None:
        x = x[select]
    return x if table is None else table[x]


def ascending_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each row of an (m, k) array strictly ascends, by column pairs."""
    ok = np.ones(len(rows), dtype=bool)
    for j in range(1, rows.shape[1]):
        ok &= rows[:, j - 1] < rows[:, j]
    return ok


def check_arity(k: int) -> None:
    require_int(k, "arity k", 2)


def random_hypergraph(n: int, m: int, k: int, seed) -> Hypergraph:
    """m edges drawn uniformly with replacement from the k-subsets of [0, n).

    Each edge is k distinct vertices obtained by rejection: any draw with a
    repeated vertex is redrawn whole, and k is refused where a draw has
    distinct vertices with probability p < 2^-12. Deterministic given the
    seed, a plain int or a Generator; a float or bool seed raises TypeError.
    """
    check_arity(k)
    if require_int(n, "vertex count n") < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    require_int(m, "edge count m")
    if (p := math.prod(1 - i / n for i in range(k))) < 2 ** -12:
        raise ValueError(f"k={k} of n={n} vertices are all distinct with "
                         f"probability p={p:.3g} < 2^-12: too rare to draw by rejection")
    rng = make_rng(seed)
    edges = rng.integers(0, n, size=(m, k))
    edges.sort(axis=1)
    bad = np.flatnonzero(~ascending_rows(edges))
    while bad.size:     # only the redrawn rows are sorted and checked again
        redrawn = rng.integers(0, n, size=(bad.size, k))
        redrawn.sort(axis=1)
        edges[bad] = redrawn
        bad = bad[~ascending_rows(redrawn)]
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
