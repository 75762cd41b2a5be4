"""Tests for the float and finite-field generic-rank backends."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qksat.rank_oracle as rank_oracle
from qksat._modlin import P, rand_mod, rank_mod
from qksat.gadgets import nosegay_k_graph
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.rank_oracle import (
    RankInstabilityError,
    _field_rank,
    _float_rank,
    _unit_vector,
    clause_columns,
    clause_matching,
    constraint_matrix,
    constraint_rows,
    field_trials,
    generic_rank_field,
    generic_rank_float,
    min_rank_float,
)
from qksat.rng import make_rng
from support import (attach, clause_rows_by_kron, complex_adorned_rank,
                     random_mixed_graph)


def test_clause_columns_convention():
    cols = clause_columns((0, 2), 3)
    assert cols.tolist() == [[0, 1, 4, 5], [2, 3, 6, 7]]
    cols = clause_columns((1, 2), 3)
    assert cols.tolist() == [[0, 2, 4, 6], [1, 3, 5, 7]]
    cols = clause_columns((0, 1, 2), 3)
    assert cols.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7]]


def test_clause_columns_partition():
    for edge in [(0, 1), (2, 4), (1, 3, 4)]:
        cols = clause_columns(edge, 5)
        flat = sorted(int(x) for x in cols.ravel())
        assert flat == list(range(32))


def test_sample_clause_vector_sphere():
    # a clause's float entries are a real unit vector, drawn replayably
    v = _unit_vector(make_rng(1), 8)
    assert v.shape == (8,) and v.dtype == np.float64
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert _unit_vector(make_rng(5), 4).tolist() == \
        _unit_vector(make_rng(5), 4).tolist()


def test_sample_clause_vector_is_uniform_in_component_mass():
    # v_0^2 averages 1/2^k on the unit sphere of R^(2^k), as |v_0|^2 does on
    # that of C^(2^k)
    k, reps = 2, 100_000
    rng = make_rng(123)
    total = 0.0
    for _ in range(reps):
        total += abs(_unit_vector(rng, 1 << k)[0]) ** 2
    assert abs(total / reps - 0.25) < 0.01


def test_constraint_matrix_single_full_clause():
    # a clause on every qubit is a single row holding its entries
    g = Hypergraph(2, [(0, 1)])
    v = _unit_vector(make_rng(9), 4)
    a = constraint_matrix(g, [clause_columns((0, 1), 2)], [v], "C")
    assert a.shape == (1, 4)
    assert np.array_equal(a[0], v)


def test_constraint_matrix_row_layout():
    # one clause spread over 2^(n-k) rows at its clause_columns
    g = Hypergraph(3, [(0, 2)])
    v = _unit_vector(make_rng(4), 4)
    a = constraint_matrix(g, [clause_columns((0, 2), 3)], [v], "C")
    assert a.dtype == np.float64
    want = np.zeros((2, 8))
    want[0, [0, 1, 4, 5]] = v
    want[1, [2, 3, 6, 7]] = v
    assert np.array_equal(a, want)


def test_constraint_matrix_matches_kron_reference():
    # the scatter through clause_columns equals the complex reference's
    # kron-and-transpose rows, clause by clause, in the same row order: on a
    # random mixed graph, and with one clause on every k-subset, k = 2..n
    every_subset = [Hypergraph(n, [e for k in range(2, n + 1)
                                   for e in itertools.combinations(range(n), k)])
                    for n in range(2, 7)]
    rng = make_rng(6)
    for g in [random_mixed_graph(6, 7, make_rng(8)), *every_subset]:
        vectors = [_unit_vector(rng, 1 << len(e)) for e in g.edges]
        a = constraint_matrix(g, [clause_columns(e, g.n) for e in g.edges],
                              vectors, "C")
        want = np.concatenate([clause_rows_by_kron(e, g.n, v)
                               for e, v in zip(g.edges, vectors)])
        assert np.array_equal(a, want), g.n


def test_field_rank_hands_rank_mod_its_layout(monkeypatch):
    # column-major when tall, row-major when wide: the layouts in which
    # rank_mod eliminates the unmatched rows in place, without a copy
    seen = []

    def recording(a):
        seen.append((a.shape, a.flags.f_contiguous, a.flags.c_contiguous))
        return rank_mod(a)

    monkeypatch.setattr(rank_oracle, "rank_mod", recording)
    rng = make_rng(3)
    for g, want in [(random_hypergraph(9, 9, 3, 0), ((448, 392), True, False)),
                    (nosegay_k_graph((1, 1, 1), 3), ((64, 343), False, True))]:
        seen.clear()
        _field_rank(g)([rand_mod(rng, 1 << len(e)) for e in g.edges])
        assert seen == [want]


def test_field_trial_peak_is_about_two_matrices():
    # the matrix is eliminated in place: a trial holds it, the first
    # block-update product and the panel buffers
    g = random_hypergraph(9, 9, 3, 0)
    matrix = 8 * constraint_rows(g) << g.n
    assert matrix == 9 * 2 ** 18
    tracemalloc.start()
    try:
        generic_rank_field(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * matrix


def test_clause_matching_order():
    # edges meeting the fewest others first, then lower arity, then edge
    # order; a repeated edge meets its copy
    assert clause_matching(Hypergraph(6, [(0, 1), (0, 2), (0, 3),
                                          (3, 4, 5)])) == [3, 0]
    assert clause_matching(Hypergraph(5, [(0, 1, 2), (2, 3, 4), (0, 1),
                                          (0, 1)])) == [1, 2]
    assert clause_matching(Hypergraph(3, [])) == []


def test_matched_rank_equals_full_elimination():
    # eliminating the matched clauses in closed form leaves each trial's
    # exact rank unchanged: random graphs of arity 2-4 with repeated edges,
    # a matched vector that is zero, and one whose first nonzero entry x0
    # is not entry 0
    rng = make_rng(31)
    seen = set()
    for i in range(300):
        n = int(rng.integers(2, 10))
        edges = []
        for _ in range(int(rng.integers(1, 13))):
            k = int(rng.integers(2, min(n, 4) + 1))
            edges.append(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        g = Hypergraph(n, edges)
        vectors = [rand_mod(rng, 1 << len(e)) for e in g.edges]
        picked = clause_matching(g)
        matched = vectors[picked[i % len(picked)]]
        if i % 3 == 1:
            matched[:] = 0
        elif i % 3 == 2:
            matched[:int(rng.integers(1, matched.size))] = 0
        full = constraint_matrix(g, [clause_columns(e, n) for e in g.edges],
                                 vectors, "C")
        row_rank = rank_mod(full)
        assert _field_rank(g)(vectors) == row_rank, (i, g.edges)
        seen.add((int(np.flatnonzero(matched)[0]) if matched.any() else -1,
                  row_rank < min(full.shape)))
    assert {-1, 0, 1} <= {x0 for x0, _ in seen}
    assert {True, False} <= {deficient for _, deficient in seen}


def test_matched_float_rank_equals_whole_matrix(monkeypatch):
    # taking the matched clauses' columns to orthonormal bases of their
    # v_i^perp leaves each sample's rank unchanged and can only widen the
    # margin sigma_(r-1) / sigma_0 that the 1e-9 cut tests, r the row rank:
    # random graphs of arity 2-4 with repeated edges, a matched vector that
    # is zero, and one whose leading entries are zero. Rounding moves each
    # computed singular value by a few hundred eps * sigma_0 at most, so the
    # margins are compared up to 1e-12
    seen_by_svd = []
    monkeypatch.setattr(rank_oracle, "generic_rank_float",
                        lambda a: seen_by_svd.append(a) or generic_rank_float(a))

    def margin(a, row_rank):
        sv = np.linalg.svd(a, compute_uv=False)
        return sv[row_rank - 1] / sv[0] if row_rank else 1.0

    rng = make_rng(32)
    seen = set()
    for i in range(300):
        n = int(rng.integers(2, 10))
        edges = []
        for _ in range(int(rng.integers(1, 13))):
            k = int(rng.integers(2, min(n, 4) + 1))
            edges.append(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        g = Hypergraph(n, edges)
        vectors = [_unit_vector(rng, 1 << len(e)) for e in g.edges]
        picked = clause_matching(g)
        matched = vectors[picked[i % len(picked)]]
        if i % 3 == 1:
            matched[:] = 0
        elif i % 3 == 2:
            matched[:int(rng.integers(1, matched.size))] = 0
        full = constraint_matrix(g, [clause_columns(e, n) for e in g.edges],
                                 vectors, "F")
        whole = generic_rank_float(full)
        assert _float_rank(g)(vectors).rank == whole.rank, (i, g.edges)
        reduced = seen_by_svd.pop()
        row_rank = (1 << n) - whole.rank
        assert (margin(reduced, reduced.shape[1] - whole.rank)
                >= margin(full, row_rank) - 1e-12), (i, g.edges)
        seen.add((int(np.flatnonzero(matched)[0]) if matched.any() else -1,
                  row_rank < min(full.shape)))
    assert {-1, 0, 1} <= {x0 for x0, _ in seen}
    assert {True, False} <= {deficient for _, deficient in seen}


def test_float_sample_forms_no_complement_matrix():
    # a matched clause of arity k is taken to v^perp by one reflector
    # vector: an explicit 2^k x (2^k - 1) basis would hold 128 MiB at
    # k = 12, beyond the preflight's two 2 x 4096 matrices (128 KiB)
    g = Hypergraph(12, [tuple(range(12))] * 2)
    vectors = [_unit_vector(make_rng(t), 1 << 12) for t in range(2)]
    rank = _float_rank(g)
    tracemalloc.start()
    try:
        res = rank(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rank == 4094
    assert peak <= 16 * 8 << g.n


def test_empty_formula_rank():
    g = Hypergraph(3, [])
    res = generic_rank_float(np.zeros((0, 8)))
    assert res.rank == 8 and res.confidence == float("inf")
    res = min_rank_float(g)
    assert res.rank == 8 and res.confidence == float("inf")
    assert generic_rank_field(g).rank == 8


def test_single_clause_ranks():
    g3 = Hypergraph(3, [(0, 1, 2)])
    assert min_rank_float(g3, samples=1).rank == 7
    assert generic_rank_field(g3).rank == 7
    g2 = Hypergraph(2, [(0, 1)])
    assert min_rank_float(g2).rank == 3
    assert generic_rank_field(g2).rank == 3


def test_saturated_instance_rank_zero():
    g = Hypergraph(2, [(0, 1)] * 4)
    assert min_rank_float(g, samples=3, seed=2).rank == 0
    assert generic_rank_field(g, trials=2, seed=2).rank == 0


def test_repeated_edge_ranks():
    # m clauses on one pair of qubits leave max(4 - m, 0) satisfying dims
    for m, want in [(1, 3), (2, 2), (3, 1), (4, 0), (5, 0)]:
        g = Hypergraph(2, [(0, 1)] * m)
        assert generic_rank_field(g, seed=3).rank == want


def test_disjoint_union_rank_multiplies():
    g = Hypergraph(5, [(0, 1), (2, 3, 4)])
    assert generic_rank_field(g).rank == 3 * 7
    assert min_rank_float(g).rank == 3 * 7


def test_field_backend_deterministic():
    g = random_hypergraph(7, 9, 3, seed=11)
    a = generic_rank_field(g, trials=3, seed=5)
    b = generic_rank_field(g, trials=3, seed=5)
    assert (a.rank, a.backend, a.confidence) == (b.rank, b.backend, b.confidence)
    assert a.confidence == 3.0


def test_field_trials_is_the_least_count_under_2_to_minus_40():
    for rows, n in [(0, 3), (1, 3), (8, 3), (9, 4), (576, 9), (2560, 10),
                    (5632, 11), (10 ** 6, 13)]:
        d = min(rows, 1 << n)
        t = field_trials(rows, n)
        assert t >= 1
        assert d ** t << 40 <= P ** t
        assert t == 1 or d ** (t - 1) << 40 > P ** (t - 1)
    # P is just below 2^23, so 2^13 rows need five trials, not four
    assert [field_trials(1, 3), field_trials(576, 9),
            field_trials(1 << 13, 13)] == [2, 3, 5]
    with pytest.raises(ValueError):
        field_trials(P, 23)


def test_field_failure_bound():
    g = random_hypergraph(7, 9, 3, seed=11)
    d = min(constraint_rows(g), 1 << g.n)
    res = generic_rank_field(g, seed=5)
    t = field_trials(constraint_rows(g), g.n)
    assert res.failure_bound == d ** t / P ** t <= 2 ** -40
    assert res.confidence == t
    assert generic_rank_field(g, trials=1, seed=5).failure_bound == d / P
    # no clauses: the rank is 2^n with no randomness at all
    assert generic_rank_field(Hypergraph(3, [])).failure_bound == 0.0
    assert min_rank_float(g).failure_bound is None


def test_min_rank_float_deterministic():
    g = random_hypergraph(6, 6, 3, seed=12)
    assert min_rank_float(g, seed=7).rank == min_rank_float(g, seed=7).rank


def test_monotone_under_added_edges():
    rng = make_rng(13)
    n = 6
    edges = []
    prev = 1 << n
    for _ in range(6):
        k = int(rng.integers(2, 4))
        edges.append(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
        rank = generic_rank_field(Hypergraph(n, edges), seed=1).rank
        assert rank <= prev
        prev = rank


def test_backend_agreement_small():
    disagreements = 0
    for i in range(8):
        n = 4 + (i % 4)
        g = random_hypergraph(n, 2 + i % 5, 2 + i % 2, seed=100 + i)
        field = generic_rank_field(g, trials=2, seed=i).rank
        try:
            fl = min_rank_float(g, samples=3, seed=i).rank
        except RankInstabilityError:
            continue
        disagreements += fl != field
    assert disagreements == 0


def test_real_and_complex_adornments_agree_with_the_field():
    # real adornments reach the generic rank: on fixed k = 2, 3 and mixed
    # arity instances at n = 4-9, the real-adorned float rank, the complex
    # reference and the exact field rank coincide
    seen = []
    for i in range(30):
        n = 4 + i % 6
        m = n - 2 + 7 * i % 5
        if i % 3 == 2:
            g = random_mixed_graph(n, m, make_rng(500 + i))
        else:
            g = random_hypergraph(n, m, 2 + i % 3, seed=500 + i)
        field = generic_rank_field(g, seed=i).rank
        ranks = (min_rank_float(g, seed=i).rank,
                 complex_adorned_rank(g, seed=i), field)
        assert ranks == (field,) * 3, (i, n, m, ranks)
        seen.append((field, (1 << n) - constraint_rows(g)))
    # the set holds unsatisfiable and row-rank-deficient instances
    assert any(rank == 0 for rank, _ in seen)
    assert any(rank > max(free, 0) for rank, free in seen)


def test_product_bound_quick():
    rng = make_rng(14)
    for trial in range(10):
        n_g = int(rng.integers(3, 7))
        n_h = int(rng.integers(2, n_g + 1))
        g = random_hypergraph(n_g, int(rng.integers(1, n_g)), 2, seed=200 + trial)
        h = random_hypergraph(n_h, int(rng.integers(1, n_h + 1)), 2, seed=300 + trial)
        image = rng.choice(n_g, size=n_h, replace=False).tolist()
        joined = attach(g, h, image)
        r_g = generic_rank_field(g, seed=trial).rank
        r_h = generic_rank_field(h, seed=trial).rank
        r_j = generic_rank_field(joined, seed=trial).rank
        assert r_j * (1 << n_h) <= r_g * r_h


def _planted_gap_matrix(big, small):
    # three unit clause rows on one edge of two qubits, nearly parallel:
    # singular values are the 1-row scale sqrt(3) plus planted small values
    # near big and small (0.82 big and 0.70 small)
    a = np.zeros((3, 4))
    a[0, 0] = 1.0
    for row, (axis, eps) in enumerate([(1, big), (2, small)], start=1):
        a[row, 0] = math.sqrt(1.0 - eps * eps)
        a[row, axis] = eps
    return a


def test_instability_raises_between_planted_scales():
    # the cut 1e-9 * sqrt(3) falls between the planted values
    with pytest.raises(RankInstabilityError) as info:
        generic_rank_float(_planted_gap_matrix(4e-9, 8e-10))
    assert 1.0 < info.value.confidence < 10.0


def test_tolerance_picks_the_scale():
    # both planted values above the fixed cut, then both below it
    assert generic_rank_float(_planted_gap_matrix(4e-4, 8e-5)).rank == 1
    assert generic_rank_float(_planted_gap_matrix(4e-12, 8e-13)).rank == 3


# (n, m, k, graph seed, oracle seed) -> (rank, repr(confidence)) of
# min_rank_float: pins the float adornment draws bit for bit
FLOAT_GOLDEN = [
    ((4, 2, 2, 400, 0), (9, "inf")),
    ((5, 5, 3, 401, 1), (12, "inf")),
    ((6, 8, 2, 402, 2), (0, "inf")),
    ((7, 4, 3, 403, 3), (64, "inf")),
    ((8, 7, 2, 404, 4), (9, "382257183607223.0")),
    ((9, 3, 3, 405, 5), (320, "inf")),
    ((4, 6, 2, 406, 6), (0, "inf")),
    ((5, 2, 3, 407, 7), (24, "inf")),
    ((6, 5, 2, 408, 8), (4, "1256967589288956.8")),
    ((7, 8, 3, 409, 9), (4, "40424455752004.36")),
]


@pytest.mark.parametrize("args, want", FLOAT_GOLDEN)
def test_min_rank_float_golden(args, want):
    n, m, k, graph_seed, seed = args
    res = min_rank_float(random_hypergraph(n, m, k, seed=graph_seed), seed=seed)
    assert (res.rank, repr(res.confidence)) == want


def _no_draws(monkeypatch):
    # the oracles refuse bad input before they draw a trial stream
    def unreachable(*args):
        raise AssertionError("a trial was drawn before the refusal")

    monkeypatch.setattr(rank_oracle, "child_rng", unreachable)


def test_cap_and_parameter_validation(monkeypatch):
    _no_draws(monkeypatch)
    big = Hypergraph(14, [(0, 1)])
    with pytest.raises(ValueError):
        generic_rank_field(big)
    # the cap is checked before the default trial count, whose refusal of
    # 2^28 rows names no remedy
    with pytest.raises(ValueError, match="exceeds the cap 13; pass --force"):
        generic_rank_field(Hypergraph(30, [(0, 1)]))
    with pytest.raises(ValueError):
        min_rank_float(big)
    g = Hypergraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        generic_rank_field(g, trials=0)
    with pytest.raises(ValueError):
        min_rank_float(g, samples=0)
    # above the cap, a bad seed or trial count is named first, as by the CLI
    huge = Hypergraph(30, [(0, 1)])
    for call in (generic_rank_field, min_rank_float):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            call(huge, seed=-1)
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        generic_rank_field(huge, trials=0)
    with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
        min_rank_float(huge, samples=0)


@pytest.mark.parametrize("seed", [2.7, True, make_rng(0)])
def test_oracles_refuse_non_integer_seeds(monkeypatch, seed):
    # 2.7 would run seed 2 and True seed 1; a Generator cannot be replayed
    _no_draws(monkeypatch)
    g = Hypergraph(2, [(0, 1)])
    with pytest.raises(TypeError, match="integer seed"):
        generic_rank_field(g, seed=seed)
    with pytest.raises(TypeError, match="integer seed"):
        min_rank_float(g, seed=seed)

