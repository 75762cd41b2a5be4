"""Generic-rank oracles for adorned hypergraphs.

The satisfying subspace of a formula is the kernel of a structured constraint
matrix: each clause of arity k contributes 2^(n-k) rows, one per assignment of
the other qubits, whose nonzeros are the clause vector's amplitudes spread
over the matching global basis states. The generic rank 2^n - rowrank is the
minimum over clause vectors, attained with probability 1, so sampling the
vectors at random and maximizing the row rank observed gives the generic
value. Two independent backends realize this: floating point via singular
values, and exact elimination over GF(P), P = 8388593 (see `_modlin`), with
uniform field entries standing in for generic amplitudes.

Field trials fail only one way: a trial can find a row rank below the
generic row rank R over GF(P), never above it. Each constraint entry is one
clause entry, so a nonzero R x R minor is a polynomial of degree at most
R <= d = min(rows, 2^n) in the clause entries, and by Schwartz-Zippel a
trial misses it with probability at most d/P. The maximum over t independent
trials is wrong with probability at most

    failure_bound = (d / P)^t,

and `field_trials` picks the least t that makes this at most 2^-40. (The
float backend checks the characteristic-zero rank independently.)

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
from .rng import child_rng, make_rng

DEFAULT_CAP = 13
DEFAULT_TOLERANCE = 1e-9
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


@dataclass(frozen=True, eq=False)
class ClauseVector:
    arity: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.arity,):
            raise ValueError(f"expected {1 << self.arity} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"clause vector norm {norm!r} is not 1")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class Formula:
    hypergraph: Hypergraph
    clauses: tuple[ClauseVector, ...]

    def __post_init__(self):
        if len(self.clauses) != self.hypergraph.m:
            raise ValueError(
                f"{len(self.clauses)} clauses for {self.hypergraph.m} edges"
            )
        for e, cv in zip(self.hypergraph.edges, self.clauses):
            if cv.arity != len(e):
                raise ValueError(f"clause arity {cv.arity} != edge arity {len(e)}")


@dataclass(frozen=True)
class RankResult:
    """rank = dim of the satisfying subspace; confidence is backend-specific:
    the spectral gap ratio (float) or the count of agreeing trials (field).
    failure_bound (field only) bounds the chance that rank is too high."""

    rank: int
    backend: str
    confidence: float
    failure_bound: float | None = None


def sample_clause_vector(k: int, seed) -> ClauseVector:
    """Uniform on the unit sphere in 2^k complex dimensions."""
    if k < 1:
        raise ValueError(f"arity must be >= 1, got {k}")
    rng = make_rng(seed)
    z = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return ClauseVector(k, z / np.linalg.norm(z))


def random_formula(g: Hypergraph, seed) -> Formula:
    """One uniformly sampled clause vector per edge."""
    rng = make_rng(seed)
    clauses = tuple(sample_clause_vector(len(e), rng) for e in g.edges)
    return Formula(g, clauses)


def clause_columns(edge, n: int) -> np.ndarray:
    """Column indices of one clause's rows: shape (2^(n-k), 2^k).

    Entry [y, x] is the global basis index whose edge qubits read x (local bit
    j on the j-th smallest edge vertex) and whose remaining qubits read y (bit
    j on the j-th smallest non-edge vertex).
    """
    k = len(edge)
    rest = [v for v in range(n) if v not in edge]
    ys = np.arange(1 << (n - k), dtype=np.uint64)
    base = np.zeros(1 << (n - k), dtype=np.uint64)
    for j, v in enumerate(rest):
        base |= ((ys >> np.uint64(j)) & np.uint64(1)) << np.uint64(v)
    xs = np.arange(1 << k, dtype=np.uint64)
    offset = np.zeros(1 << k, dtype=np.uint64)
    for j, v in enumerate(edge):
        offset |= ((xs >> np.uint64(j)) & np.uint64(1)) << np.uint64(v)
    return base[:, None] | offset[None, :]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap}; pass a larger cap to force")


def _check_memory(nbytes: int, what: str) -> None:
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


def _assemble(g: Hypergraph, layout, vectors, dtype) -> np.ndarray:
    """Constraint matrix of g with vectors[i] spread over the rows of edge i
    at the columns layout[i]."""
    a = np.zeros((constraint_rows(g), 1 << g.n), dtype=dtype)
    r = 0
    for cols, v in zip(layout, vectors):
        a[np.arange(r, r + cols.shape[0])[:, None], cols] = v[None, :]
        r += cols.shape[0]
    return a


def constraint_matrix(f: Formula) -> np.ndarray:
    """Dense complex constraint matrix; the kernel is the satisfying subspace."""
    g = f.hypergraph
    return _assemble(g, [clause_columns(e, g.n) for e in g.edges],
                     [np.conj(cv.amplitudes) for cv in f.clauses], np.complex128)


def generic_rank_float(f: Formula, tolerance: float = DEFAULT_TOLERANCE,
                       cap: int = DEFAULT_CAP) -> RankResult:
    """Satisfying-subspace dimension from singular values of one sample.

    Singular values below tolerance * max count as zero. Degenerate samples
    can only shrink the row rank, i.e. overestimate this dimension; take the
    minimum over a few independent samples to land on the generic value.
    """
    n = f.hypergraph.n
    _check_cap(n, cap)
    if not 0.0 < tolerance < 1e-3:
        raise ValueError(f"tolerance must lie in (0, 1e-3), got {tolerance}")
    if f.hypergraph.m == 0:
        return RankResult(1 << n, "float", float("inf"))
    # the complex matrix and the copy that LAPACK factors
    _check_memory(2 * 16 * constraint_rows(f.hypergraph) << n, "the float rank")
    sv = np.linalg.svd(constraint_matrix(f), compute_uv=False)
    cut = tolerance * sv[0]
    row_rank = int((sv > cut).sum())
    if 0 < row_rank < sv.size and sv[row_rank] > 0:
        confidence = float(sv[row_rank - 1] / sv[row_rank])
    else:
        confidence = float("inf")
    if confidence < CONFIDENCE_FLOOR:
        raise RankInstabilityError(confidence)
    return RankResult((1 << n) - row_rank, "float", confidence)


def min_rank_float(g: Hypergraph, samples: int = 3,
                   tolerance: float = DEFAULT_TOLERANCE, seed=0,
                   cap: int = DEFAULT_CAP) -> RankResult:
    """Minimum of generic_rank_float over independently adorned samples."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    best: RankResult | None = None
    for t in range(samples):
        res = generic_rank_float(random_formula(g, child_rng(seed, t)),
                                 tolerance, cap)
        if best is None or res.rank < best.rank:
            best = res
    return best


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
    n = g.n
    _check_cap(n, cap)
    rows = constraint_rows(g)
    # the float64 matrix, the working copy that the elimination reduces and
    # the product of its first block update
    _check_memory(3 * 8 * rows << n, "the field rank")
    if trials is None:
        trials = field_trials(rows, n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, np.random.Generator):
        raise TypeError("field backend needs an integer seed for replayable trials")
    # the same clause layout serves every trial
    layout = [clause_columns(e, n) for e in g.edges]
    ranks = []
    for t in range(trials):
        rng = child_rng(seed, t)
        vectors = [rand_mod(rng, 1 << len(e)) for e in g.edges]
        ranks.append(rank_mod(_assemble(g, layout, vectors, np.float64)))
    best = max(ranks)
    d = min(rows, 1 << n)
    return RankResult((1 << n) - best, "field", float(ranks.count(best)),
                      failure_bound=d ** trials / P ** trials)
