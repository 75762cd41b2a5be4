"""Closed-form generic ranks of the gadget families, with verification oracles.

Every rank is computed in exact integer arithmetic (rational intermediates
are asserted integral) so cross-formula identities can be tested bit-exactly;
log-weights ln(rank) - t*ln2 are derived from the exact integers afterward.

Families:
  * (d,k)-sunflower: d edges of arity k sharing one center vertex.
  * 3-uniform (a,b,c)-nosegay: a central 3-edge whose vertices carry a, b, c
    hanging 3-edges (each adding two fresh vertices).
  * hanging-edge [a,b,c]-nosegay: same center, but the hanging edges have
    arity 2 (one fresh vertex each).
  * k-uniform d-vector nosegay: central k-edge, d_i hanging k-edges on vertex
    i. Its formula is an upper bound on the generic rank in general (it is
    exact for separable adornments); for k = 3 it reduces to the 3-uniform
    nosegay.
  * k=2 connected components, classified by vertex and edge counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, inf, log
from typing import Callable, NamedTuple, Union

import numpy as np

from .hypergraph import DisjointSets, Hypergraph, components
from .rank_oracle import DEFAULT_CAP

LN2 = log(2.0)
STOQUASTIC_CAP = 22


@dataclass(frozen=True)
class Sunflower:
    d: int
    k: int


@dataclass(frozen=True)
class Nosegay3:
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class NosegayHang:
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class NosegayK:
    dvec: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class K2Component:
    """A connected arity-2 component with these vertex and edge counts."""
    vertices: int
    edges: int


GadgetSpec = Union[Sunflower, Nosegay3, NosegayHang, NosegayK, K2Component]


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


def nosegay3_rank(a: int, b: int, c: int) -> GadgetRank:
    """3^(a+b+c-3) [(a+6)(b+6)(c+6) - (a+3)(b+3)(c+3)]; t = 3 + 2(a+b+c)."""
    _check_counts(a=a, b=b, c=c)
    s = a + b + c
    value = Fraction(3) ** s * ((a + 6) * (b + 6) * (c + 6)
                                - (a + 3) * (b + 3) * (c + 3)) / 27
    if value.denominator != 1:
        raise AssertionError(f"nosegay rank ({a},{b},{c}) is not integral: {value}")
    return _as_rank(value.numerator, 3 + 2 * s)


def nosegay_hang_rank(a: int, b: int, c: int) -> GadgetRank:
    """(a+2)(b+2)(c+2) - (a+1)(b+1)(c+1); t = 3 + a + b + c."""
    _check_counts(a=a, b=b, c=c)
    rank = (a + 2) * (b + 2) * (c + 2) - (a + 1) * (b + 1) * (c + 1)
    return _as_rank(rank, 3 + a + b + c)


def nosegay3_via_binomial(a: int, b: int, c: int) -> GadgetRank:
    """The 3-uniform nosegay rank as a binomial sum over hanging-edge ranks.

    R_(a,b,c) = sum over p,q,r of 2^(a+b+c-p-q-r) C(a,p) C(b,q) C(c,r) R_[p,q,r].
    Independent route to the same integer as nosegay3_rank.
    """
    _check_counts(a=a, b=b, c=c)
    total = 0
    for p in range(a + 1):
        for q in range(b + 1):
            for r in range(c + 1):
                hang = nosegay_hang_rank(p, q, r).rank
                total += (
                    (1 << (a + b + c - p - q - r))
                    * comb(a, p) * comb(b, q) * comb(c, r) * hang
                )
    return _as_rank(total, 3 + 2 * (a + b + c))


def nosegay_k_rank(dvec, k: int) -> GadgetRank:
    """N(d) = prod M^(d_i - 1) [prod (d_i + 2M) - prod (d_i + M)], M = 2^(k-1) - 1.

    Upper bound on the generic rank of the k-uniform nosegay; exact at k = 3.
    t = k + sum d_i (k - 1).
    """
    dvec = tuple(int(d) for d in dvec)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if len(dvec) != k:
        raise ValueError(f"dvec must have length k={k}, got {len(dvec)}")
    _check_counts(**{f"d{i}": d for i, d in enumerate(dvec)})
    m = (1 << (k - 1)) - 1
    prod_wide = 1
    prod_narrow = 1
    scale = Fraction(1)
    for d in dvec:
        prod_wide *= d + 2 * m
        prod_narrow *= d + m
        scale *= Fraction(m) ** (d - 1)
    value = scale * (prod_wide - prod_narrow)
    if value.denominator != 1:
        raise AssertionError(f"nosegay rank {dvec} is not integral: {value}")
    return _as_rank(value.numerator, k + sum(dvec) * (k - 1))


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


def _hang_edges(a: int, b: int, c: int) -> list[tuple[int, int]]:
    edges = []
    nxt = 3
    for center, count in ((0, a), (1, b), (2, c)):
        for _ in range(count):
            edges.append((center, nxt))
            nxt += 1
    return edges


def stoquastic_component_count(a: int, b: int, c: int, mode: str = "states") -> int:
    """Rank of the canonical hanging-edge nosegay, counted combinatorially.

    mode="states": adorn the center with |000> - |111> and every hanging edge
    with a singlet |01> - |10|; the satisfying dimension is the number of
    connected components of the graph on the 2^n basis states whose edges
    join states mixed by some projector. mode="cube": count the diagonals
    parallel to (1,1,1) in the integer box [0,a+1] x [0,b+1] x [0,c+1], an
    independent reduction of the same count.
    """
    _check_counts(a=a, b=b, c=c)
    if mode == "cube":
        reps = set()
        for x in range(a + 2):
            for y in range(b + 2):
                for z in range(c + 2):
                    drop = min(x, y, z)
                    reps.add((x - drop, y - drop, z - drop))
        return len(reps)
    if mode != "states":
        raise ValueError(f"mode must be 'states' or 'cube', got {mode!r}")
    n = 3 + a + b + c
    if n > STOQUASTIC_CAP:
        raise ValueError(f"n={n} exceeds the stoquastic cap {STOQUASTIC_CAP}")
    states = np.arange(1 << n, dtype=np.int64)
    pairs = []
    # center: states agreeing off qubits {0,1,2} and reading 000 there link to 111
    low = states[(states & 7) == 0]
    pairs.append((low, low | 7))
    # each hanging edge (u,v): 01 links to 10, other qubits fixed
    for u, v in _hang_edges(a, b, c):
        mask = (1 << u) | (1 << v)
        sel = states[(states & (1 << u) == 0) & (states & (1 << v) != 0)]
        pairs.append((sel, sel ^ mask))
    dsu = DisjointSets(1 << n)
    merges = 0
    for us, vs in pairs:
        for u, v in zip(us.tolist(), vs.tolist()):
            merges += dsu.union(u, v)
    return (1 << n) - merges


class Family(NamedTuple):
    """One gadget family: its spec type, its closed form and the hypergraph a
    spec names (only for families checked against the rank oracle)."""
    spec: type
    rank: Callable[..., GadgetRank]
    graph: Callable[..., Hypergraph] | None = None


# The functions look the closed forms and builders up when called, so a
# rebound module attribute reaches every caller.
FAMILIES = {
    "sunflower": Family(Sunflower, lambda s: sunflower_rank(s.d, s.k),
                        lambda s: sunflower_graph(s.d, s.k)),
    "nosegay3": Family(Nosegay3, lambda s: nosegay3_rank(s.a, s.b, s.c),
                       lambda s: nosegay3_graph(s.a, s.b, s.c)),
    "nosegay-hang": Family(NosegayHang,
                           lambda s: nosegay_hang_rank(s.a, s.b, s.c),
                           lambda s: nosegay_hang_graph(s.a, s.b, s.c)),
    "nosegay-k": Family(NosegayK, lambda s: nosegay_k_rank(s.dvec, s.k)),
    "k2": Family(K2Component, lambda s: _as_rank(
        k2_component_rank(s.vertices, s.edges), s.vertices)),
}


def family_of(spec: GadgetSpec) -> str:
    """The FAMILIES key of a spec."""
    for name, family in FAMILIES.items():
        if type(spec) is family.spec:
            return name
    raise TypeError(f"not a gadget spec: {spec!r}")


def gadget_rank(spec: GadgetSpec) -> GadgetRank:
    """Exact rank, vertex count t, and log-weight for any gadget variant."""
    return FAMILIES[family_of(spec)].rank(spec)


@lru_cache(maxsize=None)
def gadget_log_weight(spec: GadgetSpec) -> float:
    """ln(rank) - t*ln2 in nats; -inf when the rank is 0."""
    return gadget_rank(spec).log_weight


def sunflower_graph(d: int, k: int) -> Hypergraph:
    """d petals of arity k around center 0; vertex count matches t."""
    _check_counts(d=d)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    edges = []
    nxt = 1
    for _ in range(d):
        edges.append(tuple([0] + list(range(nxt, nxt + k - 1))))
        nxt += k - 1
    return Hypergraph(1 + d * (k - 1), tuple(edges))


def nosegay_k_graph(dvec, k: int) -> Hypergraph:
    """Central k-edge on 0..k-1 with d_i hanging k-edges at vertex i."""
    dvec = tuple(int(d) for d in dvec)
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if len(dvec) != k:
        raise ValueError(f"dvec must have length k={k}, got {len(dvec)}")
    _check_counts(**{f"d{i}": d for i, d in enumerate(dvec)})
    edges = [tuple(range(k))]
    nxt = k
    for center, count in enumerate(dvec):
        for _ in range(count):
            edges.append(tuple([center] + list(range(nxt, nxt + k - 1))))
            nxt += k - 1
    return Hypergraph(nxt, tuple(edges))


def nosegay3_graph(a: int, b: int, c: int) -> Hypergraph:
    return nosegay_k_graph((a, b, c), 3)


def nosegay_hang_graph(a: int, b: int, c: int) -> Hypergraph:
    """Central 3-edge with arity-2 hanging edges; mixed-arity hypergraph."""
    _check_counts(a=a, b=b, c=c)
    edges = [(0, 1, 2)] + _hang_edges(a, b, c)
    return Hypergraph(3 + a + b + c, tuple(edges))


def sorted_triples(total: int):
    """(a, b, c) with a >= b >= c >= 0 and a + b + c = total, a then b
    descending."""
    for a in range(total, -1, -1):
        for b in range(min(a, total - a), -1, -1):
            if total - a - b <= b:
                yield a, b, total - a - b


def verification_cases(max_size: int):
    """(family, params, closed-form rank, graph) for every gadget checked
    against a rank oracle: sunflowers at k = 3, 4 with d <= max_size, both
    3-uniform nosegay families with a + b + c <= max_size, and connected
    arity-2 multigraphs on 2 to 4 vertices with at most max_size edges, one
    per multiset of vertex pairs. Graphs above the oracle's qubit cap are
    skipped."""
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    specs = [Sunflower(d, k) for k in (3, 4) for d in range(max_size + 1)]
    for total in range(max_size + 1):
        for a, b, c in sorted_triples(total):
            specs += [Nosegay3(a, b, c), NosegayHang(a, b, c)]
    for spec in specs:
        name = family_of(spec)
        g = FAMILIES[name].graph(spec)
        if g.n <= DEFAULT_CAP:
            yield name, asdict(spec), FAMILIES[name].rank(spec).rank, g
    for n in range(2, 5):
        pairs = list(combinations(range(n), 2))
        for m in range(n - 1, max_size + 1):
            for combo in combinations_with_replacement(pairs, m):
                g = Hypergraph(n, combo)
                if len(components(g)) == 1:
                    yield ("k2", {"n": n, "edges": [list(e) for e in g.edges]},
                           k2_rank(g), g)
