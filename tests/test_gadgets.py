"""Tests for gadget closed forms, combinatorial cross-checks, and builders."""

import itertools
import math
import sys
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from qksat.gadgets import (
    GadgetRank,
    gadget_log_weight,
    gadget_rank,
    k2_component_rank,
    k2_rank,
    nosegay_hang_graph,
    nosegay_hang_rank,
    nosegay_k_graph,
    nosegay_k_rank,
    sunflower_graph,
    sunflower_rank,
)
from qksat.hypergraph import Hypergraph
from qksat.rank_oracle import generic_rank_field
from support import (nosegay3_paper_rank, nosegay3_via_binomial,
                     stoquastic_component_count)


def test_sunflower_values():
    want = {
        (0, 3): 2, (1, 3): 7, (2, 3): 24, (3, 3): 81, (4, 3): 270, (6, 3): 2916,
        (0, 4): 2, (1, 4): 15, (2, 4): 112, (3, 4): 833,
        (0, 2): 2, (1, 2): 3, (5, 2): 7,
    }
    for (d, k), rank in want.items():
        got = sunflower_rank(d, k)
        assert got.rank == rank, (d, k)
        assert got.vertex_count == 1 + d * (k - 1)


def test_sunflower_active_petal_sum():
    # rank equals the sum over active-petal subsets of (a+2)(2^(k-1)-2)^(d-a)
    for k in range(2, 7):
        base = (1 << (k - 1)) - 2
        for d in range(21):
            total = sum(comb(d, a) * (a + 2) * base ** (d - a) for a in range(d + 1))
            assert total == sunflower_rank(d, k).rank, (d, k)


def test_sunflower_validation():
    with pytest.raises(ValueError):
        sunflower_rank(-1, 3)
    with pytest.raises(ValueError):
        sunflower_rank(2, 1)


def test_nosegay3_values():
    assert nosegay_k_rank((0, 0, 0), 3).rank == 7
    assert nosegay_k_rank((1, 0, 0), 3).rank == 24
    assert nosegay_k_rank((1, 1, 1), 3).rank == 279
    assert nosegay_k_rank((1, 2, 3), 3).rank == 10368
    assert nosegay_k_rank((2, 1, 0), 3).vertex_count == 3 + 2 * 3


def test_nosegay3_matches_sunflower_on_one_arm():
    # a single arm of d hanging edges is a (d+1)-petal sunflower
    for d in range(8):
        assert nosegay_k_rank((d, 0, 0), 3).rank == sunflower_rank(d + 1, 3).rank


def test_nosegay_hang_values():
    assert nosegay_hang_rank(0, 0, 0).rank == 7
    assert nosegay_hang_rank(1, 0, 0).rank == 10
    assert nosegay_hang_rank(1, 2, 3).rank == 36
    assert nosegay_hang_rank(3, 2, 2).rank == 44
    assert nosegay_hang_rank(7, 0, 0).rank == 28
    assert nosegay_hang_rank(2, 2, 0).vertex_count == 7


def test_binomial_expansion_matches_closed_form():
    for a, b, c in itertools.product(range(5), repeat=3):
        assert nosegay3_via_binomial(a, b, c) == nosegay_k_rank((a, b, c), 3).rank


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_nosegay_forms_are_symmetric(a, b, c):
    base3 = nosegay_k_rank((a, b, c), 3).rank
    baseh = nosegay_hang_rank(a, b, c).rank
    for p in itertools.permutations((a, b, c)):
        assert nosegay_k_rank(p, 3).rank == base3
        assert nosegay_hang_rank(*p).rank == baseh


def test_nosegay_k_reduces_to_three_arm_form():
    # at k = 3 the d-vector form is the paper's (a,b,c)-nosegay expression
    for a, b, c in itertools.product(range(5), repeat=3):
        assert nosegay_k_rank((a, b, c), 3).rank == nosegay3_paper_rank(a, b, c)


def test_nosegay_k_single_arm_is_sunflower():
    for k in range(2, 7):
        for d in range(11):
            dvec = (d,) + (0,) * (k - 1)
            assert nosegay_k_rank(dvec, k).rank == sunflower_rank(d + 1, k).rank


def test_nosegay_k_validation():
    for build in (nosegay_k_rank, nosegay_k_graph):
        with pytest.raises(ValueError):
            build((1, 2), 3)
        with pytest.raises(ValueError):
            build((1, -1, 0), 3)
        with pytest.raises(ValueError):
            build((0,), 1)


def test_k2_component_classes():
    for n in range(1, 6):
        assert k2_component_rank(n, n - 1) == n + 1
    for m, want in [(1, 3), (2, 2), (3, 1), (4, 0), (7, 0)]:
        assert k2_component_rank(2, m) == want
    for n in range(3, 6):
        assert k2_component_rank(n, n) == 2
        assert k2_component_rank(n, n + 1) == 0
    with pytest.raises(ValueError):
        k2_component_rank(4, 2)
    with pytest.raises(ValueError):
        k2_component_rank(0, 0)


def test_k2_rank_products():
    path = Hypergraph(3, [(0, 1), (1, 2)])
    assert k2_rank(path) == 4
    triangle = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert k2_rank(triangle) == 2
    mixed = Hypergraph(6, [(0, 1), (1, 2), (3, 4), (3, 4)])
    # path-on-3 (4) x doubled pair (2) x isolated vertex (2)
    assert k2_rank(mixed) == 16
    dead = Hypergraph(5, [(0, 1)] * 4 + [(2, 3)])
    assert k2_rank(dead) == 0


def test_k2_rank_matches_field_oracle():
    cases = [
        Hypergraph(3, [(0, 1), (1, 2)]),
        Hypergraph(3, [(0, 1), (1, 2), (0, 2)]),
        Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Hypergraph(2, [(0, 1)] * 3),
        Hypergraph(4, [(0, 1), (0, 1), (2, 3)]),
    ]
    for g in cases:
        assert k2_rank(g) == generic_rank_field(g, seed=1).rank


def test_stoquastic_modes_agree_with_closed_form():
    for a, b, c in itertools.product(range(3), repeat=3):
        want = nosegay_hang_rank(a, b, c).rank
        assert stoquastic_component_count(a, b, c, mode="states") == want
        assert stoquastic_component_count(a, b, c, mode="cube") == want
    assert stoquastic_component_count(4, 0, 0, mode="cube") == \
        nosegay_hang_rank(4, 0, 0).rank


def test_stoquastic_validation():
    with pytest.raises(ValueError):
        stoquastic_component_count(20, 0, 0, mode="states")
    with pytest.raises(ValueError):
        stoquastic_component_count(1, 1, 1, mode="bogus")
    with pytest.raises(ValueError):
        stoquastic_component_count(-1, 0, 0)


def test_gadget_rank_dispatch():
    assert gadget_rank("sunflower", d=2, k=3) == sunflower_rank(2, 3)
    assert gadget_rank("nosegay-k", dvec=(1, 1, 0), k=3) == \
        nosegay_k_rank((1, 1, 0), 3)
    assert gadget_rank("nosegay-hang", a=2, b=0, c=0) == \
        nosegay_hang_rank(2, 0, 0)
    assert gadget_rank("nosegay-k", dvec=(1, 0, 1, 0), k=4) == \
        nosegay_k_rank((1, 0, 1, 0), 4)
    tree = gadget_rank("k2", vertices=3, edges=2)
    assert tree == GadgetRank(4, 3, math.log(4) - 3 * math.log(2))
    with pytest.raises(ValueError):
        gadget_rank("nosegay3", a=1, b=1, c=0)
    with pytest.raises(TypeError):
        gadget_rank("sunflower", a=1, b=1, c=0)


def test_gadget_rank_refuses_huge_arity_unbuilt():
    import tracemalloc

    # M = 2^(k-1) - 1 alone would take 12.5 MB here
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="about 30103000 decimal digits"):
            gadget_rank("sunflower", d=1, k=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a sunflower without petals has rank 2 at any arity
    assert gadget_rank("sunflower", d=0, k=10 ** 8).rank == 2
    # 2^k - 1 has 4300 digits at k = 14284 (printed) and 4301 from k = 14285;
    # from k = 14286 M alone has more than 4300, and the count is estimated
    # without it, to the digit of the exact count
    assert len(str(gadget_rank("sunflower", d=1, k=14284).rank)) == 4300
    for k, d in [(14285, 1), (14286, 1), (14286, 5), (20000, 2)]:
        digits = int(math.log10(sunflower_rank(d, k).rank)) + 1
        with pytest.raises(ValueError, match=f"about {digits} decimal digits"):
            gadget_rank("sunflower", d=d, k=k)
    # the all-zero nosegay has rank 2^k - 1 and takes no product of k
    # k-bit factors, neither for the rank nor for its digit count
    assert gadget_rank("nosegay-k", dvec=(0,) * 2000, k=2000).rank == \
        2 ** 2000 - 1
    rank = gadget_rank("nosegay-k", dvec=(0,) * 14284, k=14284).rank
    assert rank == 2 ** 14284 - 1 and len(str(rank)) == 4300
    with pytest.raises(ValueError, match="about 4301 decimal digits"):
        gadget_rank("nosegay-k", dvec=(0,) * 14285, k=14285)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gadget_rank_refuses_exactly_the_unprintable(data):
    # the digit count is estimated in floats; near an int print limit of
    # 640 it must agree with the exact count of a 600-700 digit rank
    k = data.draw(st.integers(3, 9), label="k")
    log10_m = math.log10(2 ** (k - 1) - 1)
    total = data.draw(st.integers(math.ceil(600 / log10_m),
                                  math.floor(700 / log10_m)), label="total")
    if data.draw(st.booleans(), label="sunflower"):
        family, params = "sunflower", {"d": total, "k": k}
        rank = sunflower_rank(total, k).rank
    else:
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=k - 1,
                                         max_size=k - 1), label="cuts"))
        dvec = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))
        family, params = "nosegay-k", {"dvec": dvec, "k": k}
        rank = nosegay_k_rank(dvec, k).rank
    digits = len(str(rank))
    assume(600 <= digits <= 700)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        if digits > 640:
            with pytest.raises(ValueError,
                               match=f"about {digits} decimal digits"):
                gadget_rank(family, **params)
        else:
            assert gadget_rank(family, **params).rank == rank
    finally:
        sys.set_int_max_str_digits(limit)


def test_log_weights():
    assert gadget_log_weight("sunflower", d=0, k=3) == 0.0
    w = gadget_log_weight("sunflower", d=1, k=3)
    assert w == pytest.approx(math.log(7 / 8))
    assert gadget_log_weight("k2", vertices=2, edges=4) == -math.inf
    # every positive-rank gadget weight is at most 0 for these families
    for d in range(12):
        assert gadget_log_weight("sunflower", d=d, k=3) <= 0.0
    for a, b, c in itertools.product(range(4), repeat=3):
        assert gadget_log_weight("nosegay-k", dvec=(a, b, c), k=3) <= 0.0


def test_graph_builders_shape():
    g = sunflower_graph(3, 4)
    assert g.n == 1 + 3 * 3 and g.m == 3
    assert all(0 in e and len(e) == 4 for e in g.edges)
    h = nosegay_k_graph((1, 2, 0), 3)
    assert h.n == 3 + 2 * 3 and h.m == 4
    assert h.edges[0] == (0, 1, 2)
    hh = nosegay_hang_graph(2, 1, 1)
    assert hh.n == 3 + 4 and hh.m == 5
    assert sorted(len(e) for e in hh.edges) == [2, 2, 2, 2, 3]
    gk = nosegay_k_graph((1, 0, 2), 3)
    assert gk.n == 3 + 3 * 2 and gk.m == 4


def loop_hanging_edges(centers, k, first):
    """Reference: one k-edge per center, center first, then k - 1 fresh
    vertices numbered on from `first`, built one edge at a time."""
    edges = []
    for center in centers:
        edges.append(tuple([center] + list(range(first, first + k - 1))))
        first += k - 1
    return edges, first


def test_graph_builders_match_loop_reference():
    for k in (2, 3, 4, 5):
        for d in range(5):
            edges, n = loop_hanging_edges([0] * d, k, 1)
            g = sunflower_graph(d, k)
            assert (g.n, g.edges) == (n, tuple(edges))
        for dvec in itertools.product(range(3), repeat=k):
            centers = [i for i, count in enumerate(dvec) for _ in range(count)]
            edges, n = loop_hanging_edges(centers, k, k)
            g = nosegay_k_graph(dvec, k)
            assert (g.n, g.edges) == (n, (tuple(range(k)), *edges))
    for a, b, c in itertools.product(range(3), repeat=3):
        edges, n = loop_hanging_edges([0] * a + [1] * b + [2] * c, 2, 3)
        g = nosegay_hang_graph(a, b, c)
        assert (g.n, g.edges) == (n, ((0, 1, 2), *edges))


def test_vertex_count_is_the_graph_size():
    # the closed form's t and the builder's n, over every star of the grid
    pairs = [((d, k), sunflower_rank(d, k), sunflower_graph(d, k))
             for k in range(2, 9) for d in range(7)]
    pairs += [((dvec, k), nosegay_k_rank(dvec, k), nosegay_k_graph(dvec, k))
              for k in range(2, 6)
              for dvec in itertools.product(range(3), repeat=k)]
    pairs += [(abc, nosegay_hang_rank(*abc), nosegay_hang_graph(*abc))
              for abc in itertools.product(range(4), repeat=3)]
    assert len(pairs) == 49 + 9 + 27 + 81 + 243 + 64
    assert [(params, rank.vertex_count, g.n) for params, rank, g in pairs
            if rank.vertex_count != g.n] == []


def test_builders_match_closed_forms_small():
    for d, k in [(0, 3), (1, 3), (2, 3), (1, 4)]:
        g = sunflower_graph(d, k)
        assert generic_rank_field(g, seed=0).rank == sunflower_rank(d, k).rank
    for a, b, c in [(0, 0, 0), (1, 0, 0), (1, 1, 0)]:
        g = nosegay_hang_graph(a, b, c)
        assert generic_rank_field(g, seed=0).rank == nosegay_hang_rank(a, b, c).rank
    g = nosegay_k_graph((1, 0, 0), 3)
    assert generic_rank_field(g, seed=0).rank == nosegay_k_rank((1, 0, 0), 3).rank
