"""Command-line front end.

Every subcommand prints one JSON object on stdout (sorted keys, so identical
invocations are byte-identical) and exits 0 on success, 2 on argument
errors, and 1 on numerical-instability or verification failures. A zero-rank
gadget serializes its log-weight as null rather than JSON-hostile -Infinity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import isfinite

from . import analysis, gadgets, peeling
from .hypergraph import random_hypergraph, read_hypergraph
from .rank_oracle import (DEFAULT_CAP, DEFAULT_TOLERANCE, RankInstabilityError,
                          check_memory, constraint_rows, field_trials,
                          generic_rank_field, min_rank_float)
from ._modlin import P
from .rng import child_rng


def _json_float(x: float):
    return x if isfinite(x) else None


def _cmd_rank(args) -> tuple[int, dict]:
    g = read_hypergraph(args.graph)
    cap = max(DEFAULT_CAP, g.n) if args.force else DEFAULT_CAP
    payload = {
        "command": "rank",
        "graph": args.graph,
        "n": g.n,
        "m": g.m,
        "mode": args.mode,
        "seed": args.seed,
    }
    if args.mode == "field":
        if args.tolerance is not None:
            raise ValueError("rank --mode field does not read --tolerance")
        trials = (args.trials if args.trials is not None
                  else field_trials(constraint_rows(g), g.n))
        result = generic_rank_field(g, trials=trials, seed=args.seed, cap=cap)
        payload.update(trials=trials, prime=P,
                       failure_bound=result.failure_bound)
    else:
        samples = args.trials if args.trials is not None else 3
        tolerance = (args.tolerance if args.tolerance is not None
                     else DEFAULT_TOLERANCE)
        result = min_rank_float(g, samples=samples, tolerance=tolerance,
                                seed=args.seed, cap=cap)
        payload.update(trials=samples, tolerance=tolerance)
    payload.update(rank=result.rank, backend=result.backend,
                   confidence=_json_float(result.confidence))
    return 0, payload


def _finite_float(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return value


def _parse_dvec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from exc


def _cmd_gadget(args) -> tuple[int, dict]:
    # each family's options are named after its closed form's arguments
    params = {name: value for name, value in vars(args).items()
              if name not in ("command", "family", "handler")}
    if args.family == "nosegay-k":
        params["k"] = len(args.dvec)    # the arity is the length of --dvec
    result = gadgets.gadget_rank(args.family, **params)
    return 0, {
        "command": "gadget",
        "family": args.family,
        "params": params,
        "rank": result.rank,
        "vertex_count": result.vertex_count,
        "log_weight": _json_float(result.log_weight),
    }


def _cmd_verify(args) -> tuple[int, dict]:
    cases = []
    failures = 0
    for family, params, formula_rank, graph in gadgets.verification_cases(
            args.max_size):
        oracle = generic_rank_field(
            graph, trials=field_trials(constraint_rows(graph), graph.n),
            seed=args.seed)
        equal = oracle.rank == formula_rank
        failures += not equal
        cases.append({"family": family, "params": params,
                      "formula": formula_rank, "oracle": oracle.rank,
                      "equal": equal, "failure_bound": oracle.failure_bound})
    payload = {
        "command": "verify",
        "max_size": args.max_size,
        "seed": args.seed,
        "cases": cases,
        "case_count": len(cases),
        "all_equal": failures == 0,
        "failures": failures,
    }
    return (0 if failures == 0 else 1), payload


# peak RSS of `peel --trace` above the interpreter's own 37 MB, either gadget,
# n = 1e5 and 1e6, k = 2, 3 and 8: at most 115 B per vertex at alpha = 0, and
# at most 43 B per edge endpoint (k per edge) beyond 120 B per vertex
PEEL_VERTEX_BYTES, PEEL_ENDPOINT_BYTES = 160, 64


def _cmd_peel(args) -> tuple[int, dict]:
    m = round(args.alpha * args.n)
    check_memory(PEEL_VERTEX_BYTES * args.n + PEEL_ENDPOINT_BYTES * args.k * m,
                 "the peel")
    # graph comes from a child stream, the peel order from the master seed
    g = random_hypergraph(args.n, m, args.k, child_rng(args.seed, 0))
    if args.gadget == "sunflower":
        trace = peeling.sunflower_peel(g, args.seed)
    else:
        trace = peeling.nosegay_peel(g, args.seed)
    value = peeling.empirical_log_rank(trace)
    if args.trace:
        peeling.write_trace_csv(trace, args.trace)
    return 0, {
        "command": "peel",
        "algorithm": args.gadget,
        "n": args.n,
        "m": m,
        "k": args.k,
        "alpha": args.alpha,
        "seed": args.seed,
        "value": _json_float(value),
        "step_count": len(trace.steps),
        "anomalies": trace.anomalies,
        "trace_file": args.trace,
    }


# the one option each bound method reads: CLI name and analysis keyword
_METHOD_OPTION = {"sunflower": ("dmax", "d_max"),
                  "nosegay": ("trunc", "truncation")}


def _method_options(args) -> dict:
    """The option args.method reads, as its analysis keyword; None (not
    given) derives it from alpha and k. An option the method never reads is
    an argument error."""
    reads, keyword = _METHOD_OPTION.get(args.method, (None, None))
    for name in ("dmax", "trunc"):
        if getattr(args, name) is not None and name != reads:
            raise ValueError(f"{args.command} {args.method} does not read --{name}")
    return {keyword: getattr(args, reads)} if reads else {}


def _cmd_bound(args) -> tuple[int, dict]:
    options = _method_options(args)
    if args.method == "single-clause":
        threshold = analysis.single_clause_threshold(args.k)
        payload = {"command": "bound", "method": "single_clause", "k": args.k,
                   "threshold": threshold}
        if args.alpha is not None:
            analysis._check_model(args.alpha, args.k)
            payload["alpha"] = args.alpha
            payload["verdict"] = ("unsat-whp" if args.alpha > threshold
                                  else "inconclusive")
        return 0, payload
    if args.alpha is None:
        raise ValueError(f"bound {args.method} requires --alpha")
    report = analysis.bound(args.method.replace("-", "_"), args.alpha, args.k,
                            **options)
    return 0, {"command": "bound", **asdict(report)}


def _cmd_threshold(args) -> tuple[int, dict]:
    method = args.method.replace("-", "_")
    params = _method_options(args)
    root = analysis.threshold_root(method, args.k, **params)
    return 0, {
        "command": "threshold",
        "method": method,
        "k": args.k,
        "root": root,
        "precision": analysis.ROOT_PRECISION,
        "params": params,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qksat",
        description="Generic ranks, gadget formulas, peeling simulations, and "
                    "threshold bounds for random quantum k-SAT.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="generic rank of a hypergraph file")
    p.add_argument("--graph", required=True, help="hypergraph text file")
    p.add_argument("--mode", choices=("field", "float"), default="field")
    p.add_argument("--trials", type=int, default=None,
                   help="field trials (default: the fewest whose "
                        "failure_bound is <= 2^-40) / float samples "
                        "(default 3)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative singular-value cutoff (float mode only; "
                        f"default {DEFAULT_TOLERANCE:g})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="lift the qubit cap (memory grows as m*4^n)")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("gadget", help="closed-form gadget rank")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("sunflower")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--k", type=int, default=3)
    q = fam.add_parser("nosegay-hang")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q = fam.add_parser("nosegay-k")
    q.add_argument("--dvec", type=_parse_dvec, required=True,
                   help="comma-separated hanging counts; arity = length")
    q = fam.add_parser("k2")
    q.add_argument("--vertices", type=int, required=True)
    q.add_argument("--edges", type=int, required=True)
    for q in fam.choices.values():
        q.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("verify",
                       help="check gadget formulas against the field oracle")
    p.add_argument("target", choices=("gadgets",))
    p.add_argument("--max-size", type=int, default=3,
                   help="bounds sunflower d, k = 3 nosegay a+b+c, and k2 edge "
                        "count; k = 4 nosegay d_1+...+d_4 <= max-size - 2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("peel", help="peel a random hypergraph, report the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--gadget", choices=("sunflower", "nosegay"), required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; runs are replayable")
    p.add_argument("--trace", default=None, help="write a per-step CSV here")
    p.set_defaults(handler=_cmd_peel)

    bound = sub.add_parser("bound", help="analytic per-qubit log-rank bound")
    bound.add_argument(
        "method", choices=("sunflower", "nosegay", "general-k", "single-clause"))
    bound.add_argument("--alpha", type=_finite_float, default=None)
    bound.set_defaults(handler=_cmd_bound)

    root = sub.add_parser("threshold", help="root of a bound, by bisection")
    root.add_argument("method", choices=("sunflower", "nosegay", "general-k"))
    root.set_defaults(handler=_cmd_threshold)
    for p in (bound, root):
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--dmax", type=int, default=None,
                       help="sunflower degree cutoff (default: derived from "
                            "alpha and k)")
        p.add_argument("--trunc", type=int, default=None,
                       help="nosegay degree truncation (default: the same "
                            "derived cutoff)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = args.handler(args)
    except RankInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
