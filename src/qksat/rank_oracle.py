"""Generic-rank oracles for adorned hypergraphs.

The satisfying subspace of a formula is the kernel of a structured constraint
matrix: each clause of arity k contributes 2^(n-k) rows, one per assignment of
the other qubits, whose nonzeros are the clause's 2^k entries spread over the
matching global basis states. The generic rank 2^n - rowrank is the minimum
over clause vectors, attained with probability 1, so adorning the clauses at
random and keeping the best row rank of a few trials gives the generic value.
Both backends run one trial loop, `_trial_ranks`, through one float64
builder, `constraint_matrix`; only the entries and the rank kernel differ:

- float: a clause's entries are a real Gaussian vector, normalized; singular
  values above the fixed cut TOLERANCE = 1e-9 times the largest count the
  rows. Real entries reach the generic rank over C: with entries w = conj(v),
  a nonzero R x R minor is a nonzero polynomial p(w) over C, which cannot
  vanish on all of R^N, so its real zero set has measure zero, and a real
  Gaussian w attains the generic row rank with probability 1. The price is
  a heavier tail of small singular values, P(sigma < eps) ~ eps, not eps^2
  (README, "Numerical notes");
- field: uniform entries of GF(P), P = 8388593; exact elimination (`_modlin`)
  of the matrix in place, which it consumes: the independent check of the
  float rank.

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

import os
from dataclasses import dataclass

import numpy as np

from ._modlin import P, rand_mod, rank_mod
from .hypergraph import Hypergraph
from .rng import child_rng, require_int

DEFAULT_CAP = 13
TOLERANCE = 1e-9
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
    j on the j-th smallest edge vertex) and whose remaining qubits read y (bit
    j on the j-th smallest non-edge vertex).
    """
    k = len(edge)
    rest = [v for v in range(n) if v not in edge]
    # axis i of the (2,) * n index array holds the bit of vertex n - 1 - i
    axes = [n - 1 - v for v in (*rest[::-1], *edge[::-1])]
    return (np.arange(1 << n).reshape((2,) * n).transpose(axes)
            .reshape(1 << (n - k), 1 << k))


def check_memory(nbytes: int, what: str) -> None:
    """Refuse a computation estimated to need more than physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ValueError(f"{what} needs about {nbytes / 2 ** 30:.3g} GiB, more "
                         f"than the {total / 2 ** 30:.3g} GiB of physical memory")


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


def constraint_matrix(g: Hypergraph, layout, vectors) -> np.ndarray:
    """float64 constraint matrix of g with vectors[i] spread over the rows of
    edge i at the columns layout[i] = clause_columns(edge i); its kernel is
    the satisfying subspace. Column-major when tall, row-major when wide, so
    `rank_mod` eliminates it in place."""
    rows = constraint_rows(g)
    a = np.zeros((rows, 1 << g.n), order="F" if rows >= 1 << g.n else "C")
    r = 0
    for cols, v in zip(layout, vectors):
        a[np.arange(r, r + cols.shape[0])[:, None], cols] = v[None, :]
        r += cols.shape[0]
    return a


def _trial_ranks(g: Hypergraph, trials: int, seed, cap: int, draw, rank) -> list:
    """rank(constraint matrix) of each of `trials` independent adornments;
    trial t draws each clause's entries, in edge order, as
    draw(child_rng(seed, t), 2^k). Refuses, before any draw, a seed or cap
    that require_int refuses, n above cap and two matrices beyond physical
    memory: one is alive at a time, and either rank adds about one more (the
    first block-update product of `rank_mod`, or LAPACK's copy)."""
    require_int(seed, "seed")
    if g.n > require_int(cap, "cap"):
        raise ValueError(f"n={g.n} exceeds the cap {cap}; pass --force (or a "
                         "larger cap= from Python) to lift it")
    check_memory(2 * 8 * constraint_rows(g) << g.n,
                 "a rank trial (two copies of the constraint matrix)")
    # the same clause layout serves every trial
    layout = [clause_columns(e, g.n) for e in g.edges]
    ranks = []
    for t in range(trials):
        rng = child_rng(seed, t)
        vectors = [draw(rng, 1 << len(e)) for e in g.edges]
        ranks.append(rank(constraint_matrix(g, layout, vectors)))
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


def min_rank_float(g: Hypergraph, samples: int = 3, seed=0,
                   cap: int = DEFAULT_CAP) -> RankResult:
    """Least generic_rank_float over independently adorned samples; a
    degenerate sample can only overstate the dimension."""
    results = _trial_ranks(g, require_int(samples, "samples", 1), seed, cap,
                           _unit_vector, generic_rank_float)
    return min(results, key=lambda res: res.rank)


def generic_rank_field(g: Hypergraph, trials: int | None = None, seed=0,
                       cap: int = DEFAULT_CAP) -> RankResult:
    """Satisfying-subspace dimension via exact elimination over GF(P).

    Each trial adorns every clause with uniform field entries (shared across
    that clause's rows) and computes the exact row rank; the maximum over
    trials is the generic row rank except with probability at most
    failure_bound = (min(rows, 2^n) / P)^trials. By default trials is
    field_trials(rows, n), which makes that at most 2^-40. Confidence
    reports how many trials attained the maximum.
    """
    rows = constraint_rows(g)
    if trials is None:
        trials = field_trials(rows, g.n)
    ranks = _trial_ranks(g, require_int(trials, "trials", 1), seed, cap,
                         rand_mod, rank_mod)
    best = max(ranks)
    d = min(rows, 1 << g.n)
    return RankResult((1 << g.n) - best, "field", float(ranks.count(best)),
                      failure_bound=d ** trials / P ** trials)
