"""Closed-form generic ranks of the gadget families, with verification oracles.

Every rank is an exact integer, so cross-formula identities can be tested
bit-exactly; log-weights ln(rank) - t*ln2 are derived from it afterward.

The sunflower and both nosegays are stars, with one closed form, _star, and
one builder, _star_graph. A star has c centers; center i carries d_i hanging
edges of arity h, each on h - 1 fresh vertices, so t = c + sum_i d_i (h - 1).
The centers share a central c-edge exactly when c >= 2: that is the only
difference between a sunflower and a nosegay. A center brings integer
factors a(d) = M^(d-1) (d + 2M) and b(d) = M^(d-1) (d + M), M = 2^(h-1) - 1,
a(0) = 2, b(0) = 1; the rank is prod_i a(d_i), less prod_i b(d_i) if c >= 2.

Families:
  * (d,k)-sunflower: one center, d edges of arity h = k.
  * k-uniform d-vector nosegay: c = h = k. At k = 3 it is the paper's
    (a,b,c)-nosegay and its formula is exact; for k >= 4 it is an upper
    bound on the generic rank (exact for separable adornments), checked for
    equality at k = 4 by `verify gadgets` on sum d_i <= min(max_size - 2, 3).
  * hanging-edge [a,b,c]-nosegay: c = 3 and h = 2 (one fresh vertex per
    hanging edge), so M = 1.
  * k=2 connected components, classified by vertex and edge counts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import expm1, floor, inf, ldexp, log, log1p, log10, prod

from .hypergraph import Hypergraph, check_arity, components
from .rank_oracle import DEFAULT_CAP
from .rng import require_int

LN2, LN10 = log(2.0), log(10.0)


@dataclass(frozen=True)
class GadgetRank:
    rank: int
    vertex_count: int
    log_weight: float


def _as_rank(rank: int, t: int) -> GadgetRank:
    w = log(rank) - t * LN2 if rank > 0 else -inf
    return GadgetRank(rank, t, w)


# a gadget's counts index the int64 arrays of its graph
MAX_COUNT = 2 ** 63


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if require_int(value, name) >= MAX_COUNT:
            raise ValueError(f"{name} must be below 2^63")


def _star(dvec, h: int) -> GadgetRank:
    """Rank and t of the star of the module docstring whose center i carries
    d_i hanging h-edges."""
    m = (1 << (h - 1)) - 1 if any(dvec) else 0     # no M without hanging edges
    power = m ** sum(d - 1 for d in dvec if d)      # the M^(d-1) of each d > 0
    rank = power * prod(d + 2 * m if d else 2 for d in dvec)
    if len(dvec) >= 2:                              # the central edge
        rank -= power * prod(d + m if d else 1 for d in dvec)
    return _as_rank(rank, len(dvec) + sum(dvec) * (h - 1))


def sunflower_rank(d: int, k: int) -> GadgetRank:
    """S(d,k) = a(d) = M^(d-1) (d + 2M) with M = 2^(k-1) - 1; t = 1 + d(k-1)."""
    _check_counts(d=d)
    check_arity(k)
    return _star((d,), k)


def nosegay_hang_rank(a: int, b: int, c: int) -> GadgetRank:
    """(a+2)(b+2)(c+2) - (a+1)(b+1)(c+1): M = 1; t = 3 + a + b + c."""
    _check_counts(a=a, b=b, c=c)
    return _star((a, b, c), 2)


def _check_dvec(dvec, k: int) -> tuple[int, ...]:
    """dvec as a tuple of k ints d0, d1, ... that pass require_int; k >= 2."""
    dvec = tuple(dvec)
    check_arity(k)
    if len(dvec) != k:
        raise ValueError(f"dvec must have length k={k}, got {len(dvec)}")
    _check_counts(**{f"d{i}": d for i, d in enumerate(dvec)})
    return dvec


def nosegay_k_rank(dvec, k: int) -> GadgetRank:
    """N(d) = prod a(d_i) - prod b(d_i) at M = 2^(k-1) - 1; at k = 3 the
    paper's exact 3^(a+b+c-3) [(a+6)(b+6)(c+6) - (a+3)(b+3)(c+3)], for
    k >= 4 the upper bound of the module docstring."""
    return _star(_check_dvec(dvec, k), k)


# nosegay3_rank and nosegay3_graph have no caller here: perfbench/layers.py
# wraps them by name
def nosegay3_rank(a: int, b: int, c: int) -> GadgetRank:
    return nosegay_k_rank((a, b, c), 3)


def k2_component_rank(vertices: int, edges: int) -> int:
    """Generic rank of one connected arity-2 component.

    Trees give n+1; one independent cycle (m = n, including a doubled edge)
    gives 2; two vertices carrying m parallel edges give max(4 - m, 0), the
    orthocomplement of m generic vectors in the 4-dimensional two-qubit
    space; anything denser gives 0.
    """
    _check_counts(vertices=vertices, edges=edges)
    n, m = vertices, edges
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
    for vertex_count, edge_count in components(g):
        total *= k2_component_rank(vertex_count, edge_count)
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


def _refuse_unprintable(family: str, params: dict) -> None:
    """Refuse, unbuilt, a sunflower or nosegay-k rank too long to print, counting
    digits from the float sums, never building M, of log10 a(d) = d log10 M +
    log10(2 + x) and log10(b(d)/a(d)) = log10(1 - 1/(2 + x)), x = d/M; bad
    arguments are left to the closed form."""
    dvec, k = params.get("dvec", (params.get("d", -1),)), params.get("k", 0)
    if (family not in ("sunflower", "nosegay-k") or not isinstance(k, int)
            or k < 2 or len(dvec) != (1 if family == "sunflower" else k)
            or min(dvec) < 0 or max(dvec) >= MAX_COUNT):
        return
    # log10 M must be exactly 0 at k = 2: sum(dvec) reaches 2^64
    xs = [ldexp(d, 1 - k) / (1 - ldexp(1.0, 1 - k)) for d in dvec]
    log10_m = (k - 1) * log10(2) + log10(1 - ldexp(1.0, 1 - k))
    log_a = sum(dvec) * log10_m + sum(log10(2 + x) for x in xs)
    log_ratio = sum(log1p(-1 / (2 + x)) for x in xs) / LN10
    # a nosegay's rank is prod a(d_i) times (1 - prod b(d_i)/a(d_i))
    tail = log10(-expm1(LN10 * log_ratio)) if len(dvec) >= 2 else 0
    digits, limit = floor(log_a + tail) + 1, sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ValueError(f"the {family} rank has about {digits} decimal "
                         f"digits, more than the {limit} that an int prints")


def gadget_rank(family: str, **params) -> GadgetRank:
    """Exact rank, vertex count t, and log-weight of a gadget: its FAMILIES
    key and its closed form's arguments, as `qksat gadget` prints them. A
    rank too long to print is refused before it is built."""
    if family not in FAMILIES:
        raise ValueError(f"unknown gadget family {family!r}")
    _refuse_unprintable(family, params)
    return FAMILIES[family][0](**params)


@lru_cache(maxsize=None)
def gadget_log_weight(family: str, **params) -> float:
    """ln(rank) - t*ln2 in nats; -inf when the rank is 0. A dvec is passed
    as a tuple, so that it can be hashed. Ranks too long to print are fine
    here: a nosegay peel at k = 8 takes ranks of some 16000 digits."""
    return FAMILIES[family][0](**params).log_weight


def _star_graph(dvec, h: int) -> Hypergraph:
    """The star of _star: the central edge on 0..c-1 when c = len(dvec) >= 2,
    then center i's d_i hanging h-edges, on i and the next h - 1 from c on."""
    c, centers = len(dvec), [i for i, d in enumerate(dvec) for _ in range(d)]
    fresh = range(c, c + len(centers) * (h - 1))
    hanging = [(i, *fresh[j * (h - 1):(j + 1) * (h - 1)])
               for j, i in enumerate(centers)]
    return Hypergraph(fresh.stop, ([range(c)] if c >= 2 else []) + hanging)


def sunflower_graph(d: int, k: int) -> Hypergraph:
    """d petals of arity k around center 0; vertex count matches t."""
    _check_counts(d=d)
    check_arity(k)
    return _star_graph((d,), k)


def nosegay_k_graph(dvec, k: int) -> Hypergraph:
    """Central k-edge on 0..k-1 with d_i hanging k-edges at vertex i."""
    return _star_graph(_check_dvec(dvec, k), k)


def nosegay3_graph(a: int, b: int, c: int) -> Hypergraph:
    return nosegay_k_graph((a, b, c), 3)


def nosegay_hang_graph(a: int, b: int, c: int) -> Hypergraph:
    """Central 3-edge with arity-2 hanging edges; mixed-arity hypergraph."""
    _check_counts(a=a, b=b, c=c)
    return _star_graph((a, b, c), 2)


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
    require_int(max_size, "max_size")
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
