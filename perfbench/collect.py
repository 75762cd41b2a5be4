"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/collect.py --runs 5 --workloads oracle --seed0 100

Runs BENCHMARK.json's command once per (workload, seed), one at a time, from
the checkout root. For each end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. With --traced, one traced run per
workload adds the per-layer metrics. --out writes everything, with the
machine and the predicted effects of each layer, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end number each layer metric should move, and where nothing
# should move. A change that claims a gain on one layer is checked against
# this table.
PREDICTIONS = {
    "peel": {
        "moves_scaled_wall_s": ["hypergraph.random_hypergraph.busy_s",
                         "peeling.sunflower_peel.busy_s", "peeling.nosegay_peel.busy_s",
                         "peeling.empirical_log_rank.self_s",
                         "peeling.write_trace_csv.self_s",
                         "gadgets.gadget_log_weight.busy_s", "cli.main.self_s"],
        "moves_peak_rss_mb": ["hypergraph.random_hypergraph.peak_rss_growth_mb",
                              "peeling.sunflower_peel.peak_rss_growth_mb",
                              "peeling.nosegay_peel.peak_rss_growth_mb"],
        "flat": ["rank_oracle.*", "modlin.*", "analysis.*"],
    },
    "oracle": {
        "moves_scaled_wall_s": ["modlin.rank_mod.busy_s", "modlin.rank_mod.self_s",
                         "modlin.matmul_mod.busy_s", "modlin.rand_mod.busy_s",
                         "rank_oracle.generic_rank_field.self_s",
                         "rank_oracle.clause_columns.busy_s",
                         "rank_oracle.constraint_matrix.busy_s",
                         "rank_oracle.generic_rank_float.self_s",
                         "hypergraph.read_hypergraph.busy_s",
                         "gadgets.closed_form.busy_s", "gadgets.graph_build.busy_s",
                         "cli.main.self_s"],
        "moves_peak_rss_mb": ["rank_oracle.constraint_matrix.peak_rss_growth_mb"],
        "notes": "matmul_mod and rand_mod move rank_field_s but barely "
                 "verify_gadgets_s, whose 94 of 102 rank_mod calls are small",
        "flat": ["peeling.*", "hypergraph.random_hypergraph.*", "analysis.*"],
    },
    "threshold": {
        "moves_scaled_wall_s": ["analysis.threshold_root.busy_s",
                         "analysis.threshold_root.evaluations_per_root",
                         "analysis.nosegay_bound.busy_s",
                         "analysis.sunflower_bound.busy_s",
                         "analysis.solve_b.busy_s", "cli.main.self_s"],
        "flat": ["peeling.*", "hypergraph.*", "rank_oracle.*", "modlin.*"],
    },
}


def machine() -> dict:
    sys.path.insert(0, str(HERE))
    import numpy

    import run
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": run.BLAS_THREADS}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(result), file=sys.stderr, flush=True)
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "workloads": {}, "predictions": PREDICTIONS}
    for w in spec["workloads"]:
        if w["name"] not in names:
            continue
        results = [run_once(spec, w["name"], args.seed0 + i, 0)
                   for i in range(args.runs)]
        entry = {"why": w["why"],
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w['name']:10s} {name:12s} median {s['median']:.4g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.traced:
            traced = run_once(spec, w["name"], args.seed0, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][w["name"]] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
