"""One refusal matrix for `rng.require_int`: every public entry point that
takes an integer refuses a float, a bool and a numpy scalar by the name of
the parameter."""

import re

import numpy as np
import pytest

from qksat.analysis import (nosegay_bound, single_clause_threshold,
                            sunflower_bound, threshold_root)
from qksat.gadgets import (gadget_rank, k2_component_rank, nosegay_hang_graph,
                           nosegay_hang_rank, nosegay_k_graph, nosegay_k_rank,
                           sunflower_graph, sunflower_rank, verification_cases)
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.peeling import nosegay_peel, sunflower_peel
from qksat.rank_oracle import generic_rank_field, min_rank_float
from qksat.rng import child_rng, make_rng, require_int

G = Hypergraph(3, [(0, 1, 2)])

# each entry point with one integer parameter set to x, and that
# parameter's name as the refusal spells it
CALLS = {
    "sunflower_rank-d": (lambda x: sunflower_rank(x, 3), "d"),
    "sunflower_rank-k": (lambda x: sunflower_rank(2, x), "arity k"),
    "nosegay_hang_rank-a": (lambda x: nosegay_hang_rank(x, 0, 0), "a"),
    "nosegay_hang_rank-c": (lambda x: nosegay_hang_rank(0, 0, x), "c"),
    "nosegay_k_rank-d0": (lambda x: nosegay_k_rank((x, 0, 0), 3), "d0"),
    "nosegay_k_rank-d2": (lambda x: nosegay_k_rank((1, 0, x), 3), "d2"),
    "nosegay_k_rank-k": (lambda x: nosegay_k_rank((1, 0, 0), x), "arity k"),
    "k2_component_rank-vertices": (lambda x: k2_component_rank(x, 2), "vertices"),
    "k2_component_rank-edges": (lambda x: k2_component_rank(3, x), "edges"),
    "sunflower_graph-d": (lambda x: sunflower_graph(x, 3), "d"),
    "sunflower_graph-k": (lambda x: sunflower_graph(2, x), "arity k"),
    "nosegay_k_graph-d1": (lambda x: nosegay_k_graph((0, x, 0), 3), "d1"),
    "nosegay_k_graph-k": (lambda x: nosegay_k_graph((1, 0, 0), x), "arity k"),
    "nosegay_hang_graph-b": (lambda x: nosegay_hang_graph(0, x, 0), "b"),
    "gadget_rank-sunflower-d": (lambda x: gadget_rank("sunflower", d=x, k=3), "d"),
    "gadget_rank-sunflower-k": (lambda x: gadget_rank("sunflower", d=1, k=x),
                                "arity k"),
    "gadget_rank-nosegay-k-d0": (
        lambda x: gadget_rank("nosegay-k", dvec=(x, 0, 0), k=3), "d0"),
    "gadget_rank-nosegay-k-k": (
        lambda x: gadget_rank("nosegay-k", dvec=(1, 0, 0), k=x), "arity k"),
    "gadget_rank-nosegay-hang-a": (
        lambda x: gadget_rank("nosegay-hang", a=x, b=0, c=0), "a"),
    "gadget_rank-k2-vertices": (
        lambda x: gadget_rank("k2", vertices=x, edges=2), "vertices"),
    "gadget_rank-k2-edges": (
        lambda x: gadget_rank("k2", vertices=3, edges=x), "edges"),
    "verification_cases-max_size": (lambda x: next(verification_cases(x)),
                                    "max_size"),
    "Hypergraph-n": (lambda x: Hypergraph(x, [(0, 1)]), "vertex count n"),
    "random_hypergraph-n": (lambda x: random_hypergraph(x, 5, 3, 0),
                            "vertex count n"),
    "random_hypergraph-m": (lambda x: random_hypergraph(10, x, 3, 0),
                            "edge count m"),
    "random_hypergraph-k": (lambda x: random_hypergraph(10, 5, x, 0), "arity k"),
    "random_hypergraph-seed": (lambda x: random_hypergraph(10, 5, 3, x), "seed"),
    "sunflower_bound-k": (lambda x: sunflower_bound(3.0, x), "arity k"),
    "sunflower_bound-d_max": (lambda x: sunflower_bound(3.0, 3, x), "d_max"),
    "nosegay_bound-k": (lambda x: nosegay_bound(3.0, x), "arity k"),
    "nosegay_bound-truncation": (lambda x: nosegay_bound(3.0, 3, x),
                                 "truncation"),
    "threshold_root-k": (lambda x: threshold_root("sunflower", x), "arity k"),
    "threshold_root-d_max": (lambda x: threshold_root("sunflower", 3, d_max=x),
                             "d_max"),
    "threshold_root-truncation": (
        lambda x: threshold_root("nosegay", 3, truncation=x), "truncation"),
    "single_clause_threshold-k": (lambda x: single_clause_threshold(x),
                                  "arity k"),
    "generic_rank_field-trials": (lambda x: generic_rank_field(G, trials=x),
                                  "trials"),
    "generic_rank_field-seed": (lambda x: generic_rank_field(G, seed=x), "seed"),
    "generic_rank_field-cap": (lambda x: generic_rank_field(G, cap=x), "cap"),
    "min_rank_float-samples": (lambda x: min_rank_float(G, samples=x),
                               "samples"),
    "min_rank_float-seed": (lambda x: min_rank_float(G, seed=x), "seed"),
    "min_rank_float-cap": (lambda x: min_rank_float(G, cap=x), "cap"),
    "child_rng-seed": (lambda x: child_rng(x, 0), "seed"),
    "child_rng-stream": (lambda x: child_rng(0, x), "stream"),
    "make_rng-seed": (lambda x: make_rng(x), "seed"),
    "sunflower_peel-seed": (lambda x: sunflower_peel(G, x), "seed"),
    "nosegay_peel-seed": (lambda x: nosegay_peel(G, x), "seed"),
}


@pytest.mark.parametrize("bad", [2.5, True, np.int64(3)],
                         ids=["float", "bool", "int64"])
@pytest.mark.parametrize("entry", CALLS)
def test_integer_parameters_refuse_non_ints_by_name(entry, bad):
    call, name = CALLS[entry]
    with pytest.raises(TypeError,
                       match=f"^expected an integer {re.escape(name)}, got "):
        call(bad)


def test_int64_sunflower_is_refused_not_overflowed():
    # numpy's int64 arithmetic wrapped this rank to a negative number
    with pytest.raises(TypeError, match="^expected an integer d, got"):
        sunflower_rank(np.int64(50), 3)
    assert sunflower_rank(50, 3).rank == 13400762436914581657044648


def test_fractional_stream_is_refused_not_read_as_stream_one():
    with pytest.raises(TypeError, match="^expected an integer stream, got"):
        child_rng(0, 1.7)


def test_lower_bounds_keep_their_wording():
    assert require_int(0, "seed") == 0 and require_int(2, "arity k", 2) == 2
    with pytest.raises(ValueError, match=r"^stream must be nonnegative, got -1$"):
        child_rng(0, -1)
    with pytest.raises(ValueError, match=r"^arity k must be >= 2, got 1$"):
        sunflower_rank(1, 1)
    with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
        generic_rank_field(G, trials=0)
    with pytest.raises(ValueError, match=r"^truncation must be >= 10, got 9$"):
        nosegay_bound(3.0, 3, 9)
