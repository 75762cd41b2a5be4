"""Generic-rank oracles for adorned hypergraphs.

The satisfying subspace of a formula is the kernel of a structured constraint
matrix: each clause of arity k contributes 2^(n-k) rows, one per assignment of
the other qubits, whose nonzeros are the clause's 2^k entries spread over the
matching global basis states. The generic rank 2^n - rowrank is the minimum
over clause vectors, attained with probability 1, so adorning the clauses at
random and keeping the best row rank of a few trials gives the generic value.
Both backends run one trial loop, `_trial_ranks`, after one preflight,
`trial_count`. The clauses of a matching on disjoint qubits
(`clause_matching`) leave the product space of their v_i^perp with the
other qubits, so both build float64 rows with `constraint_matrix` for the
other clauses only, map them to that space and rank the result, which in
exact arithmetic has the whole matrix's rank. Entries and map differ:

- float: a clause's entries are a real Gaussian vector, normalized; the
  map is an orthonormal basis, and singular values above the fixed cut
  TOLERANCE = 1e-9 times the largest count the rows. Real entries reach
  the generic rank over C: with entries w = conj(v), a nonzero R x R minor
  is a nonzero polynomial p(w) over C, which cannot vanish on all of R^N,
  so its real zero set has measure zero, and a real Gaussian w attains the
  generic row rank with probability 1. The price is a heavier tail of
  small singular values, P(sigma < eps) ~ eps, not eps^2 (README,
  "Numerical notes");
- field: uniform entries of GF(P), P = 8388593, and exact elimination
  (`_modlin`): the independent check of the float rank. `quotient_mod` is
  the map, and `rank_mod` consumes its result.

Field trials fail only one way. A nonzero minor mod P is a nonzero integer,
so a trial's row rank is a deterministic lower bound on the complex generic
row rank: `rank` never understates the generic dimension over C, and
failure_bound bears only on equality. A nonzero R x R minor, R the generic
row rank over GF(P), has degree at most R <= d = min(rows, 2^n) in the clause
entries (each constraint entry is one), so by Schwartz-Zippel the maximum
over t trials misses R with probability at most failure_bound = (d / P)^t;
`field_trials` picks the least t that makes this at most 2^-40.

Qubit convention: bit v of a column index is the basis value of vertex v,
vertex 0 least significant. Within a clause, local bit j belongs to the j-th
smallest vertex of the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._modlin import P, quotient_mod, rand_mod, rank_mod
from .hypergraph import Hypergraph
from .rng import check_memory, child_rng, require_int

DEFAULT_CAP = 13
TOLERANCE = 1e-9
FLOAT_SAMPLES = 3
# default field trials make a wrong rank at most 2^-FAILURE_LOG2 likely
FAILURE_LOG2 = 40
CONFIDENCE_FLOOR = 10.0


class RankInstabilityError(RuntimeError):
    """Numerical rank is ambiguous; retry with the field backend."""

    def __init__(self, confidence: float):
        super().__init__(
            f"singular-value gap ratio {confidence:.3g} below "
            f"{CONFIDENCE_FLOOR:g}; rank is ambiguous - use the field backend"
        )
        self.confidence = confidence


@dataclass(frozen=True)
class RankResult:
    """rank = dim of the satisfying subspace; confidence is backend-specific:
    the spectral gap ratio (float) or the count of agreeing trials (field).
    failure_bound (field only) bounds the chance that rank is too high."""

    rank: int
    backend: str
    confidence: float
    failure_bound: float | None = None


def clause_columns(edge, n: int) -> np.ndarray:
    """Column indices of one clause's rows: shape (2^(n-k), 2^k).

    Entry [y, x] is the global basis index whose edge qubits read x (local bit
    j on edge[j], which need not be the j-th smallest: _matched_layout passes
    relabelled edges) and whose remaining qubits read y (bit j on the j-th
    smallest non-edge vertex).
    """
    k = len(edge)
    rest = [v for v in range(n) if v not in edge]
    # axis i of the (2,) * n index array holds the bit of vertex n - 1 - i
    axes = [n - 1 - v for v in (*rest[::-1], *edge[::-1])]
    return (np.arange(1 << n).reshape((2,) * n).transpose(axes)
            .reshape(1 << (n - k), 1 << k))


def constraint_rows(g: Hypergraph) -> int:
    """Row count of the constraint matrix: 2^(n-k) per clause of arity k."""
    return sum(1 << (g.n - len(e)) for e in g.edges)


def field_trials(rows: int, n: int) -> int:
    """Least t with (min(rows, 2^n) / P)^t <= 2^-40."""
    d = min(rows, 1 << n)
    if d >= P:
        raise ValueError(f"rank up to {d} is too large for the field GF({P})")
    t = 1
    while d ** t << FAILURE_LOG2 > P ** t:
        t += 1
    return t


def trial_count(g: Hypergraph, trials: int | None = None, seed=0,
                cap: int = DEFAULT_CAP) -> int:
    """The preflight of a rank run on g: trials, or field_trials(rows, n)
    when trials is None. Refuses, in this order, a trial count below 1, a
    seed or cap that require_int refuses, n above cap, a field too small for
    the default count and two matrices beyond physical memory, which bounds
    either backend's peak: a trial holds two buffers of its unmatched rows,
    then the float OQ and LAPACK's copy, or the matrix that the field
    eliminates and the first block-update product of `rank_mod`."""
    if trials is not None:
        require_int(trials, "trials", 1)
    require_int(seed, "seed")
    if g.n > require_int(cap, "cap"):
        raise ValueError(f"n={g.n} exceeds the cap {cap}; pass --force (or a "
                         "larger cap= from Python) to lift it")
    rows = constraint_rows(g)
    if trials is None:
        trials = field_trials(rows, g.n)
    check_memory(2 * 8 * rows << g.n,
                 "a rank trial (two copies of the constraint matrix)")
    return trials


def constraint_matrix(g: Hypergraph, layout, vectors, order) -> np.ndarray:
    """float64 matrix, in the given memory order, over g's n qubits, of the
    clauses with vectors[i] spread over the rows of edge i at the columns
    layout[i] = clause_columns(edge i); for all of g's edges its kernel is
    the satisfying subspace."""
    rows = sum(cols.shape[0] for cols in layout)
    a = np.zeros((rows, 1 << g.n), order=order)
    r = 0
    for cols, v in zip(layout, vectors):
        a[np.arange(r, r + cols.shape[0])[:, None], cols] = v[None, :]
        r += cols.shape[0]
    return a


def clause_matching(g: Hypergraph) -> list[int]:
    """Indices of pairwise vertex-disjoint edges of g, picked greedily from
    the graph alone: edges meeting the fewest other edges first, then lower
    arity, then edge order."""
    edges = [set(e) for e in g.edges]
    meets = [sum(not e.isdisjoint(f) for f in edges) for e in edges]
    picked, used = [], set()
    for i in sorted(range(g.m), key=lambda i: (meets[i], len(edges[i]), i)):
        if used.isdisjoint(edges[i]):
            picked.append(i)
            used |= edges[i]
    return picked


def _matched_layout(g: Hypergraph):
    """clause_matching(g), the other clauses and their clause_columns, the
    vertices relabelled so that matched group i holds the bits above i - 1."""
    matched = clause_matching(g)
    rest = [i for i in range(g.m) if i not in matched]
    perm = [v for i in matched for v in g.edges[i]]
    label = np.argsort(perm + [v for v in range(g.n) if v not in perm])
    return matched, rest, [clause_columns(label[list(g.edges[i])], g.n)
                           for i in rest]


def _field_rank(g: Hypergraph):
    """Exact GF(P) row rank of g's constraint matrix, as a function of the
    clause vectors: `quotient_mod` takes the other clauses' rows of
    `_matched_layout`, group by group, to the 2^k - 1 columns per group
    outside the matched rows' span; a matched v_i = 0 is skipped."""
    matched, rest, layout = _matched_layout(g)
    # F when tall, C when wide: each step keeps the layout in which rank_mod
    # eliminates the result in place (when every matched v_i is nonzero)
    cols = 1 << g.n
    for i in matched:
        cols -= cols >> len(g.edges[i])
    order = "F" if sum(c.shape[0] for c in layout) >= cols else "C"

    def row_rank(vectors) -> int:
        a = constraint_matrix(g, layout, [vectors[i] for i in rest], order)
        # a's own size keeps the work buffer, like a, above glibc's dynamic
        # mmap threshold, so both go back to the system after the trial
        work, lo = np.empty(a.size), 1
        for i in matched:
            size = vectors[i].size
            if vectors[i].any():
                shape = (a.shape[0], a.shape[1] // size * (size - 1))
                a = quotient_mod(a, vectors[i], lo, work[:shape[0] * shape[1]]
                                 .reshape(shape, order=order))
                size -= 1
            lo *= size
        del work            # freed before rank_mod allocates
        return (1 << g.n) - a.shape[1] + rank_mod(a)
    return row_rank


def _float_rank(g: Hypergraph):
    """generic_rank_float of g's constraint matrix, as a function of the
    clause vectors: the other clauses' rows O of `_matched_layout` times
    Q = (x)Q_i (x) I, Q_i^T the rows 1.. of the Householder reflector taking
    v_i to -+|v_i| e_0 (README, "Numerical notes"); v_i = 0 is skipped."""
    matched, rest, layout = _matched_layout(g)

    def rank(vectors) -> RankResult:
        a, lo = constraint_matrix(g, layout, [vectors[i] for i in rest], "F"), 1
        for v in (vectors[i] for i in matched):
            if v.any():     # a.T's rows (h * v.size + j) * lo + l, by (h, j)
                u = np.r_[v[0] + np.copysign(np.linalg.norm(v), v[0]), v[1:]]
                a = a.T.reshape(a.shape[1] // (v.size * lo), v.size, -1)
                y = u[1:, None] * np.matmul(u * (2 / (u @ u)), a)[:, None]
                a = np.subtract(a[:, 1:], y, out=y).reshape(
                    len(y) * (v.size - 1) * lo, a.shape[2] // lo).T
            lo *= v.size - bool(v.any())
        return generic_rank_float(a)
    return rank


def _trial_ranks(g: Hypergraph, trials, seed, cap: int, draw, rank_of) -> list:
    """rank_of(g)(vectors) of each of trial_count(g, trials, seed, cap)
    independent adornments, whose refusals come before any draw; trial t
    draws each clause's entries, in edge order, as draw(child_rng(seed, t),
    2^k)."""
    trials = trial_count(g, trials, seed, cap)
    rank = rank_of(g)       # one clause layout serves every trial
    ranks = []
    for t in range(trials):
        rng = child_rng(seed, t)
        ranks.append(rank([draw(rng, 1 << len(e)) for e in g.edges]))
    return ranks


def _unit_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    """Row entries of a clause: a real Gaussian vector, normalized."""
    z = rng.normal(size=size)
    return z / np.linalg.norm(z)


def generic_rank_float(a: np.ndarray) -> RankResult:
    """Satisfying-subspace dimension of one constraint matrix.

    Singular values below TOLERANCE * max count as zero; confidence is the
    ratio of the singular values on either side of that cut.
    """
    if a.shape[0] == 0:
        return RankResult(a.shape[1], "float", float("inf"))
    sv = np.linalg.svd(a, compute_uv=False)
    row_rank = int((sv > TOLERANCE * sv[0]).sum())
    gap = 0 < row_rank < sv.size and sv[row_rank] > 0
    confidence = float(sv[row_rank - 1] / sv[row_rank]) if gap else float("inf")
    if confidence < CONFIDENCE_FLOOR:
        raise RankInstabilityError(confidence)
    return RankResult(a.shape[1] - row_rank, "float", confidence)


def min_rank_float(g: Hypergraph, samples: int = FLOAT_SAMPLES, seed=0,
                   cap: int = DEFAULT_CAP) -> RankResult:
    """Least generic_rank_float over independently adorned samples; a
    degenerate sample can only overstate the dimension."""
    results = _trial_ranks(g, require_int(samples, "samples", 1), seed, cap,
                           _unit_vector, _float_rank)
    return min(results, key=lambda res: res.rank)


def generic_rank_field(g: Hypergraph, trials: int | None = None, seed=0,
                       cap: int = DEFAULT_CAP) -> RankResult:
    """Satisfying-subspace dimension via exact elimination over GF(P): the
    best exact row rank of `trials` adornments by uniform field entries,
    which misses the generic row rank with probability at most failure_bound
    = (min(rows, 2^n) / P)^trials, at most 2^-40 for the default
    field_trials(rows, n). Confidence counts the trials at the maximum."""
    ranks = _trial_ranks(g, trials, seed, cap, rand_mod, _field_rank)
    best, t = max(ranks), len(ranks)
    d = min(constraint_rows(g), 1 << g.n)
    return RankResult((1 << g.n) - best, "field", float(ranks.count(best)),
                      failure_bound=d ** t / P ** t)
