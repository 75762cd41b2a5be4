"""Closed-form generic ranks of the gadget families, with verification oracles.

Every rank is computed in exact integer arithmetic (rational intermediates
are asserted integral) so cross-formula identities can be tested bit-exactly;
log-weights ln(rank) - t*ln2 are derived from the exact integers afterward.

Families:
  * (d,k)-sunflower: d edges of arity k sharing one center vertex.
  * k-uniform d-vector nosegay: central k-edge, d_i hanging k-edges on vertex
    i (each adding k - 1 fresh vertices). At k = 3 it is the paper's
    (a,b,c)-nosegay and its formula is exact; for k >= 4 the formula is an
    upper bound on the generic rank in general (exact for separable
    adornments).
  * hanging-edge [a,b,c]-nosegay: a central 3-edge whose hanging edges have
    arity 2 (one fresh vertex each).
  * k=2 connected components, classified by vertex and edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import inf, log, prod

import numpy as np

from .hypergraph import Hypergraph, components
from .rank_oracle import DEFAULT_CAP

LN2 = log(2.0)


@dataclass(frozen=True)
class GadgetRank:
    rank: int
    vertex_count: int
    log_weight: float


def _as_rank(rank: int, t: int) -> GadgetRank:
    w = log(rank) - t * LN2 if rank > 0 else -inf
    return GadgetRank(int(rank), t, w)


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def sunflower_rank(d: int, k: int) -> GadgetRank:
    """S(d,k) = 2 M^d (d/(2M) + 1) with M = 2^(k-1) - 1; t = 1 + d(k-1)."""
    _check_counts(d=d)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if d == 0:
        return _as_rank(2, 1)
    m = (1 << (k - 1)) - 1
    return _as_rank(m ** (d - 1) * (d + 2 * m), 1 + d * (k - 1))


def nosegay_hang_rank(a: int, b: int, c: int) -> GadgetRank:
    """(a+2)(b+2)(c+2) - (a+1)(b+1)(c+1); t = 3 + a + b + c."""
    _check_counts(a=a, b=b, c=c)
    rank = (a + 2) * (b + 2) * (c + 2) - (a + 1) * (b + 1) * (c + 1)
    return _as_rank(rank, 3 + a + b + c)


def _check_dvec(dvec, k: int) -> tuple[int, ...]:
    """dvec as a tuple of k nonnegative ints, for arity k >= 2."""
    dvec = tuple(int(d) for d in dvec)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if len(dvec) != k:
        raise ValueError(f"dvec must have length k={k}, got {len(dvec)}")
    _check_counts(**{f"d{i}": d for i, d in enumerate(dvec)})
    return dvec


def nosegay_k_rank(dvec, k: int) -> GadgetRank:
    """N(d) = prod M^(d_i - 1) [prod (d_i + 2M) - prod (d_i + M)], M = 2^(k-1) - 1.

    Upper bound on the generic rank of the k-uniform nosegay; exact at k = 3,
    where it is the paper's 3^(a+b+c-3) [(a+6)(b+6)(c+6) - (a+3)(b+3)(c+3)].
    t = k + sum d_i (k - 1).
    """
    dvec = _check_dvec(dvec, k)
    m = (1 << (k - 1)) - 1
    value = Fraction(m) ** (sum(dvec) - k) * (prod(d + 2 * m for d in dvec)
                                              - prod(d + m for d in dvec))
    if value.denominator != 1:
        raise AssertionError(f"nosegay rank {dvec} is not integral: {value}")
    return _as_rank(value.numerator, k + sum(dvec) * (k - 1))


# nosegay3_rank and nosegay3_graph have no caller here: perfbench/layers.py
# wraps them by name
def nosegay3_rank(a: int, b: int, c: int) -> GadgetRank:
    return nosegay_k_rank((a, b, c), 3)


def k2_component_rank(vertex_count: int, edge_count: int) -> int:
    """Generic rank of one connected arity-2 component.

    Trees give n+1; one independent cycle (m = n, including a doubled edge)
    gives 2; two vertices carrying m parallel edges give max(4 - m, 0), the
    orthocomplement of m generic vectors in the 4-dimensional two-qubit
    space; anything denser gives 0.
    """
    n, m = vertex_count, edge_count
    if n < 1 or m < max(0, n - 1):
        raise ValueError(f"not a connected component: n={n}, m={m}")
    if m == n - 1:
        return n + 1
    if n == 2:
        return max(4 - m, 0)
    if m == n:
        return 2
    return 0


def k2_rank(g: Hypergraph) -> int:
    """Product of component ranks of an arity-2 multigraph (exact integer)."""
    total = 1
    for summary in components(g):
        total *= k2_component_rank(summary.vertex_count, summary.edge_count)
        if total == 0:
            return 0
    return total


# Each family's closed form and the hypergraph it names (only for families
# checked against the rank oracle), both called with the family's params.
# The lambdas look the functions up when called, so a rebound module
# attribute reaches every caller.
FAMILIES = {
    "sunflower": (lambda d, k: sunflower_rank(d, k),
                  lambda d, k: sunflower_graph(d, k)),
    "nosegay-hang": (lambda a, b, c: nosegay_hang_rank(a, b, c),
                     lambda a, b, c: nosegay_hang_graph(a, b, c)),
    "nosegay-k": (lambda dvec, k: nosegay_k_rank(dvec, k),
                  lambda dvec, k: nosegay_k_graph(dvec, k)),
    "k2": (lambda vertices, edges: _as_rank(
        k2_component_rank(vertices, edges), vertices), None),
}


def gadget_rank(family: str, **params) -> GadgetRank:
    """Exact rank, vertex count t, and log-weight of a gadget: its FAMILIES
    key and its closed form's arguments, as `qksat gadget` prints them."""
    if family not in FAMILIES:
        raise ValueError(f"unknown gadget family {family!r}")
    return FAMILIES[family][0](**params)


@lru_cache(maxsize=None)
def gadget_log_weight(family: str, **params) -> float:
    """ln(rank) - t*ln2 in nats; -inf when the rank is 0. A dvec is passed
    as a tuple, so that it can be hashed."""
    return gadget_rank(family, **params).log_weight


def _hanging(centers: np.ndarray, k: int, first: int) -> np.ndarray:
    """One k-edge per entry of centers: the center, then k - 1 fresh
    vertices numbered on from `first`."""
    fresh = first + np.arange(len(centers) * (k - 1)).reshape(-1, k - 1)
    return np.column_stack([centers, fresh])


def sunflower_graph(d: int, k: int) -> Hypergraph:
    """d petals of arity k around center 0; vertex count matches t."""
    _check_counts(d=d)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    return Hypergraph(1 + d * (k - 1), _hanging(np.zeros(d, np.int64), k, 1))


def nosegay_k_graph(dvec, k: int) -> Hypergraph:
    """Central k-edge on 0..k-1 with d_i hanging k-edges at vertex i."""
    dvec = _check_dvec(dvec, k)
    hanging = _hanging(np.repeat(np.arange(k), dvec), k, k)
    return Hypergraph(k + sum(dvec) * (k - 1), np.vstack([np.arange(k), hanging]))


def nosegay3_graph(a: int, b: int, c: int) -> Hypergraph:
    return nosegay_k_graph((a, b, c), 3)


def nosegay_hang_graph(a: int, b: int, c: int) -> Hypergraph:
    """Central 3-edge with arity-2 hanging edges; mixed-arity hypergraph."""
    _check_counts(a=a, b=b, c=c)
    hanging = _hanging(np.repeat(np.arange(3), (a, b, c)), 2, 3)
    return Hypergraph(3 + a + b + c, [(0, 1, 2), *hanging.tolist()])


def sorted_dvecs(total: int, k: int):
    """Nonincreasing k-tuples of nonnegative ints summing to total, in
    descending lexicographic order."""
    return (d for d in combinations_with_replacement(range(total, -1, -1), k)
            if sum(d) == total)


def verification_cases(max_size: int):
    """(family, params, closed-form rank, graph) for every gadget checked
    against a rank oracle: sunflowers at k = 3, 4 with d <= max_size, the
    k = 3 nosegay and hanging-edge nosegay with a + b + c <= max_size, the
    k = 4 nosegay with d_1 + ... + d_4 <= max_size - 2, and connected
    arity-2 multigraphs on 2 to 4 vertices with at most max_size edges, one
    per multiset of vertex pairs. Graphs above the oracle's qubit cap are
    skipped."""
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    cases = [("sunflower", {"d": d, "k": k})
             for k in (3, 4) for d in range(max_size + 1)]
    for total in range(max_size + 1):
        for a, b, c in sorted_dvecs(total, 3):
            cases += [("nosegay-k", {"dvec": (a, b, c), "k": 3}),
                      ("nosegay-hang", {"a": a, "b": b, "c": c})]
    cases += [("nosegay-k", {"dvec": dvec, "k": 4})
              for total in range(max_size - 1) for dvec in sorted_dvecs(total, 4)]
    for family, params in cases:
        rank, graph = FAMILIES[family]
        g = graph(**params)
        if g.n <= DEFAULT_CAP:
            yield family, params, rank(**params).rank, g
    for n in range(2, 5):
        pairs = list(combinations(range(n), 2))
        for m in range(n - 1, max_size + 1):
            for combo in combinations_with_replacement(pairs, m):
                g = Hypergraph(n, combo)
                if len(components(g)) == 1:
                    yield ("k2", {"n": n, "edges": [list(e) for e in g.edges]},
                           k2_rank(g), g)
