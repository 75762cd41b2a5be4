"""Which qksat functions get spans, and the per-layer metrics built from them.

Each wrapper rebinds the name that the calling module looks up, so the call
sites are: `cli` for what the command handlers call, and the library module
itself for calls made between layers (`rank_oracle.rank_mod`,
`analysis.nosegay_bound`, ...).
"""

from __future__ import annotations

import math
import os
from statistics import median

from spans import SpanStats, Tracer, self_times

CLOSED_FORMS = ("gadgets.sunflower_rank", "gadgets.nosegay3_rank",
                "gadgets.nosegay_hang_rank", "gadgets.k2_rank")
GRAPH_BUILDS = ("gadgets.sunflower_graph", "gadgets.nosegay3_graph",
                "gadgets.nosegay_hang_graph")
BOUNDS = ("analysis.sunflower_bound", "analysis.nosegay_bound",
          "analysis.general_k_bound")
# rank_mod takes its naive single-column path when min(shape) <= 64
SMALL_RANK_DIM = 64


def _edges(args, g):
    return {"edges": g.m}


def _peel(args, trace):
    return {"steps": len(trace.steps), "anomalies": trace.anomalies}


def _trace_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _field(args, result):
    return {"trials": args["trials"], "agreeing": result.confidence}


def _float(args, result):
    c = result.confidence
    return {"instability": 1.0 / c if 0 < c < math.inf else 0.0}


def _rank_mod(args, rank):
    rows, cols = args["a"].shape
    return {"rows": rows, "cols": cols, "rank": rank}


def install(tracer: Tracer) -> None:
    """Wrap every traced qksat function; calls record only while
    `tracer.enabled` is set."""
    import qksat._modlin as modlin
    import qksat.analysis as analysis
    import qksat.cli as cli
    import qksat.gadgets as gadgets
    import qksat.peeling as peeling
    import qksat.rank_oracle as rank_oracle

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "random_hypergraph", "hypergraph.random_hypergraph", attrs=_edges,
      rss=True)
    w(cli, "read_hypergraph", "hypergraph.read_hypergraph", attrs=_edges)
    w(cli, "child_rng", "rng.child_rng")
    w(rank_oracle, "child_rng", "rng.child_rng")

    w(peeling, "sunflower_peel", "peeling.sunflower_peel", attrs=_peel, rss=True)
    w(peeling, "nosegay_peel", "peeling.nosegay_peel", attrs=_peel, rss=True)
    w(peeling, "empirical_log_rank", "peeling.empirical_log_rank")
    w(peeling, "write_trace_csv", "peeling.write_trace_csv", attrs=_trace_bytes)
    # one call per peel step: folded into the caller's span
    w(peeling, "gadget_log_weight", "gadgets.gadget_log_weight", leaf=True)

    for name in CLOSED_FORMS + GRAPH_BUILDS:
        w(gadgets, name.split(".")[1], name)

    w(cli, "generic_rank_field", "rank_oracle.generic_rank_field", attrs=_field)
    w(cli, "min_rank_float", "rank_oracle.min_rank_float")
    w(rank_oracle, "generic_rank_float", "rank_oracle.generic_rank_float",
      attrs=_float)
    w(rank_oracle, "constraint_matrix", "rank_oracle.constraint_matrix",
      rss=True)
    w(rank_oracle, "clause_columns", "rank_oracle.clause_columns")
    w(rank_oracle, "rank_mod", "modlin.rank_mod", attrs=_rank_mod)
    w(rank_oracle, "rand_mod", "modlin.rand_mod")
    w(modlin, "matmul_mod", "modlin.matmul_mod")

    w(analysis, "threshold_root", "analysis.threshold_root")
    w(analysis, "solve_b", "analysis.solve_b")
    for name in BOUNDS:
        w(analysis, name.split(".")[1], name)


def elimination_work(rows: int, cols: int, rank: int) -> tuple[int, int, int]:
    """Computed, not measured: cells and bytes of a uint64 rows x cols
    matrix, and the multiply and subtract operations of an unblocked
    elimination that finds `rank` pivots, each pivot updating the block
    below and right of it."""
    cells = rows * cols
    ops = sum(2 * (rows - i - 1) * (cols - i) for i in range(rank))
    return cells, 8 * cells, ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(st: SpanStats) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    m: dict[str, float] = {}
    m["cli.main.calls"] = st.calls("cli.main")
    m["cli.main.self_s"] = st.self_total("cli.main")

    for fn in ("random_hypergraph", "read_hypergraph"):
        m[f"hypergraph.{fn}.busy_s"] = st.busy_s(f"hypergraph.{fn}")
    m["hypergraph.edges"] = (st.attr_sum("hypergraph.random_hypergraph", "edges")
                             + st.attr_sum("hypergraph.read_hypergraph", "edges"))
    m["rng.child_rng.calls"] = st.calls("rng.child_rng")

    calls, secs = st.leaf("gadgets.gadget_log_weight")
    m["gadgets.gadget_log_weight.calls"] = calls
    m["gadgets.gadget_log_weight.busy_s"] = secs
    m["gadgets.closed_form.busy_s"] = st.busy_s(*CLOSED_FORMS)
    m["gadgets.graph_build.busy_s"] = st.busy_s(*GRAPH_BUILDS)

    for fn in ("sunflower_peel", "nosegay_peel"):
        m[f"peeling.{fn}.busy_s"] = st.busy_s(f"peeling.{fn}")
    m["peeling.empirical_log_rank.self_s"] = st.self_total("peeling.empirical_log_rank")
    m["peeling.write_trace_csv.self_s"] = st.self_total("peeling.write_trace_csv")
    m["peeling.write_trace_csv.bytes"] = st.attr_sum("peeling.write_trace_csv", "bytes")
    for key in ("steps", "anomalies"):
        m[f"peeling.{key}"] = (st.attr_sum("peeling.sunflower_peel", key)
                               + st.attr_sum("peeling.nosegay_peel", key))
    for name in ("hypergraph.random_hypergraph", "peeling.sunflower_peel",
                 "peeling.nosegay_peel", "rank_oracle.constraint_matrix"):
        m[f"{name}.peak_rss_growth_mb"] = st.attr_max(name, "rss_growth_mb")

    m["rank_oracle.generic_rank_field.calls"] = st.calls("rank_oracle.generic_rank_field")
    m["rank_oracle.generic_rank_field.self_s"] = st.self_total("rank_oracle.generic_rank_field")
    m["rank_oracle.clause_columns.calls"] = st.calls("rank_oracle.clause_columns")
    m["rank_oracle.clause_columns.busy_s"] = st.busy_s("rank_oracle.clause_columns")
    m["rank_oracle.field_agreeing_ratio"] = _ratio(
        st.attr_sum("rank_oracle.generic_rank_field", "agreeing"),
        st.attr_sum("rank_oracle.generic_rank_field", "trials"))
    m["rank_oracle.constraint_matrix.busy_s"] = st.busy_s("rank_oracle.constraint_matrix")
    m["rank_oracle.generic_rank_float.self_s"] = st.self_total("rank_oracle.generic_rank_float")
    m["rank_oracle.float_instability"] = st.attr_max("rank_oracle.generic_rank_float",
                                                     "instability")

    calls = [st.spans[i] for i in st.keep if st.spans[i].name == "modlin.rank_mod"
             and "rows" in st.spans[i].attrs]
    work = [elimination_work(s.attrs["rows"], s.attrs["cols"], s.attrs["rank"])
            for s in calls]
    busy = st.busy_s("modlin.rank_mod")
    m["modlin.rank_mod.calls"] = st.calls("modlin.rank_mod")
    m["modlin.rank_mod.small_calls"] = sum(
        min(s.attrs["rows"], s.attrs["cols"]) <= SMALL_RANK_DIM for s in calls)
    m["modlin.rank_mod.busy_s"] = busy
    m["modlin.rank_mod.self_s"] = st.self_total("modlin.rank_mod")
    m["modlin.rank_mod.computed_cells"] = sum(w[0] for w in work)
    m["modlin.rank_mod.computed_bytes"] = sum(w[1] for w in work)
    m["modlin.rank_mod.computed_ops"] = sum(w[2] for w in work)
    m["modlin.rank_mod.computed_ops_per_s"] = _ratio(
        m["modlin.rank_mod.computed_ops"], busy)
    m["modlin.matmul_mod.calls"] = st.calls("modlin.matmul_mod")
    m["modlin.matmul_mod.busy_s"] = st.busy_s("modlin.matmul_mod")
    m["modlin.rand_mod.busy_s"] = st.busy_s("modlin.rand_mod")

    roots = st.calls("analysis.threshold_root")
    m["analysis.threshold_root.calls"] = roots
    m["analysis.threshold_root.busy_s"] = st.busy_s("analysis.threshold_root")
    m["analysis.threshold_root.evaluations_per_root"] = _ratio(
        st.children_of("analysis.threshold_root", set(BOUNDS)), roots)
    for name in BOUNDS + ("analysis.solve_b",):
        m[f"{name}.calls"] = st.calls(name)
        if name != "analysis.general_k_bound":
            m[f"{name}.busy_s"] = st.busy_s(name)
    return m


# peak RSS only grows, so its growth shows in the first traced pass only
_TAKE_MAX = ("peak_rss_growth_mb", "float_instability")


def layer_metrics(tracer: Tracer, passes: list[set[int]]) -> dict[str, float]:
    """Median over traced passes of each per-pass number; RSS growth and
    float instability take the maximum instead."""
    self_s = self_times(tracer.spans)
    per_pass = [pass_metrics(SpanStats(tracer.spans, self_s, ops)) for ops in passes]
    return {key: float(max(p[key] for p in per_pass) if key.endswith(_TAKE_MAX)
                       else median(p[key] for p in per_pass))
            for key in per_pass[0]}
