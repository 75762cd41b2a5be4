"""Command-line front end.

Every subcommand prints one JSON object on stdout (sorted keys, so identical
invocations are byte-identical) and exits 0 on success, 2 on argument
errors, and 1 on numerical-instability or verification failures. A zero-rank
gadget serializes its log-weight as null rather than JSON-hostile -Infinity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from math import isfinite

from . import analysis, gadgets, peeling
from .hypergraph import random_hypergraph, read_hypergraph
from .rank_oracle import (DEFAULT_CAP, FLOAT_SAMPLES, TOLERANCE, P,
                          RankInstabilityError, generic_rank_field,
                          min_rank_float, trial_count)
from .rng import check_memory, child_rng


def _json_float(x: float):
    return x if isfinite(x) else None


def _options(args, *shared) -> dict:
    """args's own options, keyed as its library function's keywords."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "handler", *shared)}


def _cmd_rank(args) -> tuple[int, dict]:
    g = read_hypergraph(args.graph)
    cap = max(DEFAULT_CAP, g.n) if args.force else DEFAULT_CAP
    payload = {
        "graph": args.graph,
        "n": g.n,
        "m": g.m,
        "mode": args.mode,
        "seed": args.seed,
    }
    if args.mode == "field":
        trials = trial_count(g, args.trials, args.seed, cap)
        result = generic_rank_field(g, trials=trials, seed=args.seed, cap=cap)
        payload.update(trials=trials, prime=P,
                       failure_bound=result.failure_bound)
    else:
        samples = args.trials if args.trials is not None else FLOAT_SAMPLES
        result = min_rank_float(g, samples=samples, seed=args.seed, cap=cap)
        payload.update(trials=samples, tolerance=TOLERANCE)
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
    params = _options(args, "family")
    if args.family == "nosegay-k":
        params["k"] = len(args.dvec)    # the arity is the length of --dvec
    result = gadgets.gadget_rank(args.family, **params)
    return 0, {
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
            graph, trials=trial_count(graph, seed=args.seed), seed=args.seed)
        equal = oracle.rank == formula_rank
        failures += not equal
        cases.append({"family": family, "params": params,
                      "formula": formula_rank, "oracle": oracle.rank,
                      "equal": equal, "failure_bound": oracle.failure_bound})
    payload = {
        "max_size": args.max_size,
        "seed": args.seed,
        "cases": cases,
        "case_count": len(cases),
        "all_equal": failures == 0,
        "failures": failures,
    }
    return (0 if failures == 0 else 1), payload


# peak RSS of `peel --trace` above the 35 MiB it takes at n = 100, either
# gadget, n = 1e5 and 1e6, k = 2, 3 and 8, median of 3 runs: at alpha = 0 at
# most a fixed 14 MiB plus 32 B per vertex (16.8 MiB at n = 1e5, 43.9 MiB at
# 1e6), and beyond 16 MiB plus 32 B per vertex at most 37 B per edge
# endpoint (k per edge)
PEEL_FIXED_BYTES, PEEL_VERTEX_BYTES, PEEL_ENDPOINT_BYTES = 16 << 20, 32, 40


def _cmd_peel(args) -> tuple[int, dict]:
    if args.alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {args.alpha}")
    if abs(args.n) > sys.float_info.max:
        raise ValueError("vertex count n is too large for a float")
    edges = args.alpha * args.n     # a float, so that an overflow is refused
    check_memory(PEEL_FIXED_BYTES + PEEL_VERTEX_BYTES * args.n
                 + PEEL_ENDPOINT_BYTES * args.k * edges,
                 f"the peel of alpha * n = {edges:.4g} edges")
    if args.trace == "":
        raise ValueError("the trace path '' is empty")
    if args.trace and os.path.isdir(args.trace):
        raise ValueError(f"the trace path {args.trace!r} is a directory")
    if args.trace and not os.path.isdir(os.path.dirname(args.trace) or "."):
        raise ValueError(f"the trace path {args.trace!r} lies in a missing "
                         f"directory")
    m = round(edges)
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


def _cmd_bound(args) -> tuple[int, dict]:
    report = analysis.bound(args.method.replace("-", "_"), args.alpha, args.k,
                            **_options(args, "method", "alpha", "k"))
    return 0, asdict(report)


def _cmd_single_clause(args) -> tuple[int, dict]:
    threshold = analysis.single_clause_threshold(args.k)
    payload = {"method": "single_clause", "k": args.k, "threshold": threshold}
    if args.alpha is not None:
        # compared with the threshold only, so no 2^k: k = 1024 takes an alpha
        if not args.alpha > 0:
            raise ValueError(f"alpha must be positive, got {args.alpha}")
        payload.update(alpha=args.alpha, verdict="unsat-whp"
                       if args.alpha > threshold else "inconclusive")
    return 0, payload


def _cmd_threshold(args) -> tuple[int, dict]:
    method = args.method.replace("-", "_")
    params = _options(args, "method", "k")
    root = analysis.threshold_root(method, args.k, **params)
    return 0, {"method": method, "k": args.k, "root": root, "params": params,
               "precision": analysis.ROOT_PRECISION}


# built once, at the first main call; it holds only this module's handlers,
# which look library names up per call, so rebinding one still takes effect
@cache
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
                        f"(default {FLOAT_SAMPLES})")
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
    bound = bound.add_subparsers(dest="method", required=True)
    root = sub.add_parser("threshold", help="root of a bound, by bisection")
    root = root.add_subparsers(dest="method", required=True)
    for methods, handler in ((bound, _cmd_bound), (root, _cmd_threshold)):
        methods.add_parser("sunflower").add_argument(
            "--dmax", dest="d_max", type=int, metavar="D",
            help="degree cutoff (default: derived from alpha and k)")
        methods.add_parser("nosegay").add_argument(
            "--trunc", dest="truncation", type=int, metavar="T",
            help="degree truncation (default: the same derived cutoff)")
        methods.add_parser("general-k")
        for q in methods.choices.values():
            q.add_argument("--k", type=int, default=3)
            q.set_defaults(handler=handler)
    for q in bound.choices.values():
        q.add_argument("--alpha", type=_finite_float, required=True)
    q = bound.add_parser("single-clause")
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--alpha", type=_finite_float)
    q.set_defaults(handler=_cmd_single_clause)
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
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": args.command, **payload}, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
