"""Tests for hypergraph construction, sampling, components, and I/O."""

import hashlib
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qksat.hypergraph import (
    Hypergraph,
    ascending_rows,
    components,
    parse_hypergraph,
    random_hypergraph,
    read_hypergraph,
    row_reduce,
)
from qksat.rng import make_rng
from support import attach, format_hypergraph, traced_peak, write_hypergraph


def test_edge_normalization():
    g = Hypergraph(5, [(3, 1, 0), (4, 2)])
    assert g.edges == ((0, 1, 3), (2, 4))
    assert g.m == 2
    assert g.arities() == {3, 2}


@pytest.mark.parametrize("g", [
    Hypergraph(0, []), Hypergraph(7, []),
    Hypergraph(6, [(0, 1), (2, 3, 4, 5), (1, 2, 3)]),
    Hypergraph(9, [tuple(range(9)), (0, 8), (1, 7), tuple(range(5))])])
def test_arities_match_unique(g):
    assert g.arities() == set(np.unique(np.diff(g.offsets)).tolist())


def graph_key(g):
    return g.n, g.edges


def test_array_and_sequence_forms_agree():
    rows = [(3, 1, 0), (1, 2, 4), (0, 1, 2), (0, 1, 2)]
    g = Hypergraph(5, rows)
    assert g.edges == ((0, 1, 3), (1, 2, 4), (0, 1, 2), (0, 1, 2))
    for array in (np.array(rows), np.array(rows, dtype=np.int32),
                  np.sort(np.array(rows), axis=1)):
        h = Hypergraph(5, array)
        assert graph_key(h) == graph_key(g)
        assert h.vertices.dtype == np.int64
        assert h.vertices.tolist() == g.vertices.tolist()
        assert h.offsets.tolist() == g.offsets.tolist() == [0, 3, 6, 9, 12]
    empty = (Hypergraph(3, []), Hypergraph(3, np.zeros((0, 3), np.int64)))
    assert [graph_key(e) for e in empty] == [(3, ())] * 2


BAD_EDGES = [
    (3, [(0,)]),                 # arity < 2
    (3, [(0, 0)]),               # a repeated vertex
    (4, [(0, 1, 2), (3, 1, 3)]),
    (3, [(0, 3)]),               # out of range
    (3, [(-1, 2)]),
    (-1, [(0, 1)]),              # negative n
    (3, [(0.5, 1.7)]),           # non-integer vertices
    (3, [(0.9, 2.2)]),
    (3, [(0.0, 2.0)]),
    (3, [(True, False)]),
    (3, [(2, 0, 2)]),            # unsorted, with a repeat: an array sorts first
]


def test_rejects_bad_edges():
    # the sequence form, the array form and numpy scalars refuse alike
    for n, rows in BAD_EDGES:
        scalars = [[np.bool_(v) if isinstance(v, bool) else v for v in row]
                   for row in rows]
        for edges in (rows, np.array(rows), scalars):
            with pytest.raises(ValueError):
                Hypergraph(n, edges)
    # cases that only one form can express
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 1), (2,)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(True, 2)])                  # an array would read 1
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, "1")])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 2 ** 70)])
    with pytest.raises(ValueError):
        Hypergraph(3, np.array([0, 1]))             # not (m, k)
    with pytest.raises(ValueError):
        Hypergraph(3, np.array([[0, 2 ** 64 - 1]], dtype=np.uint64))
    with pytest.raises(ValueError):
        Hypergraph(-1, [])
    # an array's arity comes from its shape, its sign from its first column
    for shape in [(2, 1), (2, 0)]:
        with pytest.raises(ValueError, match="arity >= 2 required"):
            Hypergraph(3, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph(3, np.array([[1, -2, 0]], dtype=np.int32))
    empty = Hypergraph(3, np.zeros((0, 3), dtype=np.int64))
    assert (empty.m, empty.arities(), empty.offsets.tolist()) == (0, set(), [0])


def test_array_form_refuses_as_the_sequence_form():
    # the same message from the column checks as from the flat ones
    for n, rows in BAD_EDGES:
        array = np.array(rows)
        if array.dtype.kind not in "iu":
            continue
        with pytest.raises(ValueError) as flat:
            Hypergraph(n, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(flat.value))}$"):
            Hypergraph(n, array)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 300])
def test_random_hypergraph_matches_sequence_form(k, m):
    g = random_hypergraph(40, m, k, seed=k * 100 + m)
    h = Hypergraph(40, g.edges)
    assert g.vertices.tolist() == h.vertices.tolist()
    assert g.offsets.tolist() == h.offsets.tolist()
    assert g.arities() == h.arities() == ({k} if m else set())


def test_repeated_edges_allowed():
    g = Hypergraph(3, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1), (0, 1))


def test_random_hypergraph_shape():
    g = random_hypergraph(50, 120, 3, seed=7)
    assert g.n == 50 and g.m == 120
    assert all(len(e) == 3 == len(set(e)) for e in g.edges)
    assert all(0 <= v < 50 for e in g.edges for v in e)


def test_random_hypergraph_deterministic():
    a = random_hypergraph(30, 40, 3, seed=5)
    b = random_hypergraph(30, 40, 3, seed=5)
    c = random_hypergraph(30, 40, 3, seed=6)
    assert graph_key(a) == graph_key(b)
    assert graph_key(a) != graph_key(c)


@pytest.mark.parametrize("args, digest", [
    ((1000, 3594, 3, 0), "012cd502d05fe78b"),
    ((500, 2000, 4, 7), "23fbd00c32213c9b"),
    ((200, 300, 2, 3), "8fea9f5417c73208"),
    # 8 of 10 vertices: most draws repeat one, so many rejection rounds
    ((10, 50, 8, 0), "91df3dc26bb5de1e"),
])
def test_random_hypergraph_golden(args, digest):
    # pinned draws: any change to the sample for a given seed fails here
    g = random_hypergraph(*args)
    edges = np.array(g.edges, dtype=np.int64)
    assert hashlib.sha256(edges.tobytes()).hexdigest()[:16] == digest
    assert g.vertices.tolist() == edges.ravel().tolist()


def test_random_hypergraph_rejects():
    with pytest.raises(ValueError):
        random_hypergraph(2, 1, 3, seed=0)
    # a draw of 11 distinct vertices of 11 succeeds with p = 2^-12.8: refused
    # before rejection sampling could spin; 10 of 10 (p = 2^-11.4) still draws
    with pytest.raises(ValueError, match="probability p=0.00014"):
        random_hypergraph(11, 5, 11, seed=0)
    assert random_hypergraph(10, 5, 10, seed=0).m == 5

    # a float or bool seed is refused, not truncated to another seed's draw
    for bad in [2.7, 2.0, True, False, None, np.float64(2.0)]:
        with pytest.raises(TypeError):
            random_hypergraph(10, 5, 3, bad)
    # a Generator passes through: seed 2's generator draws seed 2's graph
    assert random_hypergraph(10, 5, 3, make_rng(2)).edges == \
        random_hypergraph(10, 5, 3, 2).edges


WIDTHS = [*range(1, 9), 16]


@pytest.mark.parametrize("m", [0, 1, 257])
@pytest.mark.parametrize("width", WIDTHS)
def test_row_reduce_matches_axis_reduce(m, width):
    rng = make_rng(width * 1000 + m)
    ints = rng.integers(-50, 50, size=(m, width))
    bools = rng.random((m, width)) < 0.2
    for ufunc, rows, dtype in [(np.minimum, ints, None), (np.add, ints, None),
                               (np.logical_or, bools, None),
                               (np.add, bools, np.int64)]:
        want = ufunc.reduce(rows, axis=1, dtype=dtype)
        got = row_reduce(ufunc, rows, dtype)
        assert got.dtype == want.dtype and got.shape == (m,)
        assert np.array_equal(got, want)
    # a view with a negative row stride reduces alike
    assert np.array_equal(row_reduce(np.minimum, ints[::-1]),
                          ints[::-1].min(axis=1))


@pytest.mark.parametrize("m", [0, 1, 257])
@pytest.mark.parametrize("width", WIDTHS)
def test_ascending_rows_matches_diff(m, width):
    rng = make_rng(width * 1000 + m)
    # small values: rows with ties, descents and strict ascents all occur
    rows = np.sort(rng.integers(0, 3 * width, size=(m, width)), axis=1)
    rows[::3] = rng.integers(0, 3 * width, size=rows[::3].shape)
    got = ascending_rows(rows)
    assert got.dtype == bool
    assert np.array_equal(got, (np.diff(rows, axis=1) > 0).all(axis=1))


def test_row_reduce_holds_one_m_array():
    # the column passes accumulate in place: the traced peak is the result
    # itself, not one further temporary per column
    m = 200_000
    rows = make_rng(0).integers(0, 1 << 40, size=(m, 3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        out = row_reduce(np.minimum, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * m
    assert peak < 1.5 * out.nbytes


def test_random_hypergraph_sorts_its_draw_in_place():
    # the draw and its checks, not a sorted copy of it: at k = 3 the graph
    # itself is 3 m-arrays
    m = 200_000
    assert traced_peak(lambda: random_hypergraph(50_000, m, 3, 0)) < 6 * 8 * m


def test_degree_distribution_binomial():
    # Each vertex degree is Binomial(m, k/n); chi-square over pooled samples.
    from scipy import stats

    n, m, k, reps = 1000, 1000, 3, 20
    degs = Counter()
    for s in range(reps):
        g = random_hypergraph(n, m, k, seed=1000 + s)
        counts = np.bincount([v for e in g.edges for v in e], minlength=n)
        degs.update(counts.tolist())
    total = n * reps
    dist = stats.binom(m, k / n)
    # Pool right tail so every expected bin count is >= 5.
    hi = 0
    while total * dist.sf(hi) >= 5.0:
        hi += 1
    observed = [degs[d] for d in range(hi)]
    observed.append(total - sum(observed))
    expected = [total * dist.pmf(d) for d in range(hi)]
    expected.append(total * dist.sf(hi - 1))
    result = stats.chisquare(observed, f_exp=expected)
    assert result.pvalue > 1e-3


def test_duplicate_edge_rate():
    # Mean count of repeated k-sets matches the birthday-problem expectation.
    n, m, reps = 10_000, 10_000, 40
    big_n = n * (n - 1) // 2
    dup_total = 0
    for s in range(reps):
        g = random_hypergraph(n, m, 2, seed=9000 + s)
        dup_total += sum(c - 1 for c in Counter(g.edges).values() if c > 1)
    p_zero = math.exp(m * math.log1p(-1.0 / big_n))
    p_one = m / big_n * math.exp((m - 1) * math.log1p(-1.0 / big_n))
    expected_pairs = big_n * (1.0 - p_zero - p_one)
    observed = dup_total / reps
    assert abs(observed - expected_pairs) < 0.5


def test_components_triangle_plus_isolated():
    g = Hypergraph(5, [(0, 1), (1, 2), (0, 2), (0, 1)])
    comps = components(g)
    assert comps == [(3, 4), (1, 0), (1, 0)]


def test_components_small_cases():
    path = Hypergraph(3, [(0, 1), (1, 2)])
    assert components(path) == [(3, 2)]
    two = Hypergraph(4, [(0, 1), (2, 3)])
    assert components(two) == [(2, 1), (2, 1)]
    triple = Hypergraph(3, [(0, 1), (0, 1), (0, 1)])
    assert components(triple) == [(2, 3), (1, 0)]


def scipy_components(g):
    """components(g) by scipy's connected_components, as a reference."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = np.array(g.edges, dtype=np.int64).reshape(g.m, 2).T
    links = coo_matrix((np.ones(g.m), (u, v)), shape=(g.n, g.n))
    labels = connected_components(links, directed=False)[1]
    _, first = np.unique(labels, return_index=True)
    return [(int((labels == r).sum()), int((labels[u] == r).sum()))
            for r in labels[np.sort(first)]]


@pytest.mark.parametrize("seed", range(12))
def test_components_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    g = random_hypergraph(n, int(rng.integers(0, 2 * n)), 2, seed)
    assert components(g) == scipy_components(g)
    # a long path under shuffled labels, the slowest case for label passing
    p = rng.permutation(300)
    path = Hypergraph(300, np.column_stack([p[:-1], p[1:]]))
    assert components(path) == scipy_components(path) == [(300, 299)]


def test_components_requires_arity_two():
    with pytest.raises(ValueError):
        components(Hypergraph(4, [(0, 1, 2)]))


def test_components_ordering_and_counts():
    g = Hypergraph(7, [(5, 6), (0, 1), (1, 2)])
    vertex_counts, edge_counts = zip(*components(g))
    assert vertex_counts == (3, 1, 1, 2)
    assert sum(vertex_counts) == g.n
    assert sum(edge_counts) == g.m


def test_attach_relabels_host_edges():
    g = Hypergraph(4, [(0, 1, 2)])
    h = Hypergraph(3, [(0, 1), (1, 2)])
    joined = attach(g, h, {0: 1, 1: 3, 2: 0})
    assert joined.n == 4
    assert joined.edges == ((0, 1, 2), (1, 3), (0, 3))


def test_attach_identity_and_multiplicity():
    empty = Hypergraph(3, [])
    tri = Hypergraph(3, [(0, 1, 2)])
    assert attach(empty, tri, [0, 1, 2]).edges == ((0, 1, 2),)
    doubled = attach(tri, tri, [0, 1, 2])
    assert doubled.edges == ((0, 1, 2), (0, 1, 2))


def test_attach_sequence_embedding():
    g = Hypergraph(3, [(0, 1)])
    h = Hypergraph(2, [(0, 1)])
    joined = attach(g, h, [2, 0])
    assert joined.n == 3
    assert sorted(joined.edges) == [(0, 1), (0, 2)]


def test_attach_validates_embedding():
    g = Hypergraph(3, [(0, 1)])
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        attach(g, h, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        attach(g, h, {0: 3, 1: 0})
    with pytest.raises(ValueError):
        attach(g, h, {0: 0})
    with pytest.raises(ValueError):
        attach(g, h, [0, 1, 2])


def test_parse_format_roundtrip_example():
    text = "4 2\n0 1 2\n1 2 3\n"
    g = parse_hypergraph(text)
    assert graph_key(g) == graph_key(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]))
    assert format_hypergraph(g) == text


def test_parse_tolerates_blank_lines():
    text = "3 3\n\n0 1\n1 2\n\n0 2\n"
    g = parse_hypergraph(text)
    assert g.m == 3


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        parse_hypergraph("3 2\n0 1\n")


def test_file_roundtrip(tmp_path):
    g = random_hypergraph(12, 9, 3, seed=3)
    path = tmp_path / "g.txt"
    write_hypergraph(g, path)
    assert graph_key(read_hypergraph(path)) == graph_key(g)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = []
    for _ in range(m):
        k = draw(st.integers(min_value=2, max_value=min(4, n)))
        perm = draw(st.permutations(range(n)))
        edges.append(tuple(perm[:k]))
    return Hypergraph(n, edges)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_text_roundtrip_property(g):
    assert graph_key(parse_hypergraph(format_hypergraph(g))) == graph_key(g)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), hypergraphs(), st.randoms(use_true_random=False))
def test_attach_edge_additivity(g, h, rnd):
    if h.n > g.n:
        g, h = h, g
    image = rnd.sample(range(g.n), h.n)
    joined = attach(g, h, image)
    assert joined.n == g.n
    assert joined.m == g.m + h.m
    assert Counter(len(e) for e in joined.edges) == Counter(
        len(e) for e in g.edges + h.edges
    )
