"""Benchmark of the qksat command line, run in-process.

    python3 perfbench/run.py --workload peel --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds `src/qksat`. Each op is one call
of `qksat.cli.main(argv)`, whose JSON output is parsed and checked. A run
repeats the workload's op list (a "pass", with op seeds and input graphs
derived from --seed and the pass index) until --seconds would be exceeded,
and prints one JSON line last: the end-to-end metrics of BENCHMARK.json with
--trace 0, or its per-layer metrics with --trace 1. A traced run alternates
traced and untraced passes, so the tracing overhead is measured in the same
run; its spans are written to perfbench/out/.

The machine is shared, and its speed drifts by 20% or more within seconds.
So every op is kept short (about 1.5 s at most) and is bracketed by timings
of a fixed reference kernel that qksat's code cannot change. An op's scaled
time is its time multiplied by REF_SECONDS / (median reference time around
it): its time at the machine speed at which the kernel takes REF_SECONDS.
`scaled_wall_s` sums the median scaled time of each op kind over the pass's
op list; `setup_s` is scaled the same way. The unscaled numbers are per-layer
metrics (`wall_s`, `ref_kernel_s`) and are printed to stderr. The first pass
is a warm-up that is checked but not timed; it runs before the reference
kernel exists, and `peak_rss_mb` is read right after it, so the kernel's
arrays never set the reported peak.

Workloads (why each was chosen):
  peel       graph generation, both peels, log-weight accounting and CSV
             trace I/O at n = 2e4; no oracle call, no quadrature.
  oracle     exact and float rank of random 3-graphs at n = 9, m = 9, plus
             `verify gadgets`, whose 102 mostly tiny rank_mod calls use the
             same kernel at small sizes.
  threshold  quadrature and root search only: the nosegay threshold (at
             truncation 25), nosegay bounds at full truncation, the
             sunflower threshold, general-k roots and a sunflower bound.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from math import ceil
from statistics import median
from time import perf_counter
from typing import Callable

import checks
import layers
from spans import Tracer, maxrss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: with two on a shared two-core machine, a BLAS thread
# waiting for a busy core slowed the nosegay threshold 3-6x in some runs.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_PASS = 1
# Times are scaled to the speed at which reference_kernel() takes
# REF_SECONDS, about its median on a 2-vCPU Xeon VM. After each op the
# kernel is timed once per started REF_EVERY seconds of the op, and at least
# REF_MIN times.
REF_SECONDS = 0.027
REF_EVERY = 0.4
REF_MIN = 2

PEEL_N = 20_000
PEELS = (("sunflower", 3.894), ("nosegay", 3.594))
ORACLE_N = ORACLE_M = 9
# The default truncation (50) makes one threshold search take about 10 s,
# too long for the speed around it to be known; 25 takes 1.5 s for the same
# 19 evaluations and still finds the root within 1e-3. Full-size nosegay
# bounds are run on their own, above the root so the verdict is unsat-whp.
NOSEGAY_THRESHOLD_TRUNC = 25
NOSEGAY_BOUND_ALPHAS = (3.594, 3.65, 3.7, 3.8)
SUNFLOWER_THRESHOLDS_PER_PASS = 5
GENERAL_K = range(4, 9)

# op kinds whose median latency is reported
LATENCY_KINDS = ("peel_sunflower", "peel_nosegay", "rank_field", "rank_float",
                 "verify_gadgets", "threshold_nosegay", "threshold_sunflower")


@dataclass
class Op:
    kind: str
    argv: list[str]
    # (payload, payloads of earlier ops of this pass by kind) -> problems
    check: Callable[[dict, dict], list[str]]


@dataclass
class Record:
    op: int
    pass_index: int
    traced: bool
    kind: str
    seconds: float
    problems: list[str]
    # reference-kernel times right after the op and the op's time at the
    # reference speed; left empty in the warm-up pass
    ref_seconds: list[float] = field(default_factory=list)
    scaled: float | None = None


def _op_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def peel_pass(seed: int, index: int, tmp: Path) -> list[Op]:
    ops = []
    for gadget, alpha in PEELS:
        csv = tmp / f"{gadget}.csv"

        def check(payload, done, gadget=gadget, alpha=alpha, csv=csv):
            return checks.peel(payload, gadget=gadget, n=PEEL_N, alpha=alpha,
                               trace_rows=_count_lines(csv))

        ops.append(Op(f"peel_{gadget}",
                      ["peel", "--n", str(PEEL_N), "--k", "3", "--gadget", gadget,
                       "--alpha", str(alpha), "--seed", str(_op_seed(seed, index)),
                       "--trace", str(csv)],
                      check))
    return ops


def write_random_graph(path: Path, seed: int) -> None:
    """A uniform random 3-uniform hypergraph in the `n m` text format, drawn
    by the benchmark itself so that inputs do not depend on qksat's code."""
    rng = random.Random(seed)
    edges = [sorted(rng.sample(range(ORACLE_N), 3)) for _ in range(ORACLE_M)]
    path.write_text(f"{ORACLE_N} {ORACLE_M}\n"
                    + "".join(" ".join(map(str, e)) + "\n" for e in edges))


def oracle_pass(seed: int, index: int, tmp: Path) -> list[Op]:
    op_seed = str(_op_seed(seed, index))
    graph = tmp / "graph.txt"
    write_random_graph(graph, _op_seed(seed, index))
    return [
        Op("rank_field", ["rank", "--graph", str(graph), "--mode", "field",
                          "--seed", op_seed], lambda p, done: []),
        Op("rank_float", ["rank", "--graph", str(graph), "--mode", "float",
                          "--seed", op_seed],
           lambda p, done: checks.rank_pair(done.get("rank_field"), p)),
        Op("verify_gadgets", ["verify", "gadgets", "--max-size", "3",
                              "--seed", op_seed],
           lambda p, done: checks.verify(p)),
    ]


def threshold_pass(seed: int, index: int, tmp: Path) -> list[Op]:
    ops = [Op("threshold_nosegay", ["threshold", "nosegay", "--trunc",
                                    str(NOSEGAY_THRESHOLD_TRUNC)],
              lambda p, done: checks.threshold_root(p, "nosegay"))]
    ops += [Op("threshold_sunflower", ["threshold", "sunflower"],
               lambda p, done: checks.threshold_root(p, "sunflower"))
            ] * SUNFLOWER_THRESHOLDS_PER_PASS
    ops += [Op("threshold_general_k", ["threshold", "general-k", "--k", str(k)],
               lambda p, done: checks.general_k_root(p)) for k in GENERAL_K]
    ops += [Op("bound_nosegay", ["bound", "nosegay", "--alpha", str(alpha)],
               lambda p, done: checks.bound(p)) for alpha in NOSEGAY_BOUND_ALPHAS]
    ops += [Op("bound_sunflower", ["bound", "sunflower", "--alpha", "3.894"],
               lambda p, done: checks.bound(p))]
    # the inputs are fixed; the seed only orders the ops
    random.Random(_op_seed(seed, index)).shuffle(ops)
    return ops


WORKLOADS = {"peel": peel_pass, "oracle": oracle_pass, "threshold": threshold_pass}


def run_op(cli, op: Op, done: dict) -> tuple[float, list[str]]:
    """Time one `qksat.cli.main` call, then check its output (untimed)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        traceback.print_exc()
        code = "an exception"
    seconds = perf_counter() - t0
    if code != 0:
        return seconds, [f"exited with {code}"]
    try:
        payload = json.loads(buf.getvalue())
        done[op.kind] = payload
        return seconds, op.check(payload, done)
    except Exception as exc:  # malformed output fails the op's check
        return seconds, [f"unreadable output: {exc!r}"]


def fail_ratio(records: list[Record]) -> float:
    return sum(1 for r in records if r.problems) / len(records)


def measure(cli, build_pass, seed: int, seconds: float, tmp: Path,
            make_ref, tracer=None, before_pass=None):
    """Run passes until another one would overrun `seconds`.

    Pass 0 is a warm-up: its ops are checked but not timed against the
    reference, and it runs before `make_ref()` builds the reference kernel,
    so the peak RSS read after it is qksat's own. After each later op the
    kernel is timed (outside the op's time) and the op is scaled by the
    reference times on both sides. With a tracer, even passes are traced and
    odd ones not, and at least one timed pass of each kind runs.
    `before_pass(ref)` runs at the start of each timed pass, inside its time
    budget, and returns set-up samples.

    Returns the op records, the set-up samples and the peak RSS in MB."""
    records: list[Record] = []
    setup: list = []
    pass_times = []
    start = perf_counter()
    index = 0
    ref = refs_before = peak_rss = None
    while True:
        traced = tracer is not None and index % 2 == 0
        t_pass = perf_counter()
        if before_pass is not None and ref is not None:
            setup += before_pass(ref)
        done: dict = {}
        for op in build_pass(seed, index, tmp):
            if tracer is not None:
                tracer.op, tracer.enabled = len(records), traced
            secs, problems = run_op(cli, op, done)
            if tracer is not None:
                tracer.enabled = False
            for problem in problems:
                print(f"FAILED {op.kind} {' '.join(op.argv)}: {problem}",
                      file=sys.stderr)
            record = Record(len(records), index, traced, op.kind, secs, problems)
            if ref is not None:
                record.ref_seconds = [ref() for _ in range(
                    max(REF_MIN, ceil(secs / REF_EVERY)))]
                record.scaled = secs * REF_SECONDS / median(
                    refs_before + record.ref_seconds)
                refs_before = record.ref_seconds
            records.append(record)
        if ref is None:
            peak_rss = maxrss_mb()
            ref = make_ref()
            ref()                           # its own warm-up
            refs_before = [ref() for _ in range(REF_MIN)]
        else:
            pass_times.append(perf_counter() - t_pass)
        index += 1
        if index < (3 if tracer is not None else 2):
            continue
        if perf_counter() - start + median(pass_times) > seconds:
            return records, setup, peak_rss


def pass_seconds(records: list[Record], traced: bool, scaled: bool) -> float:
    """The median time of each op kind over the timed passes (not the
    warm-up), summed over one pass's op list."""
    chosen = [r for r in records if r.traced == traced and r.pass_index > 0]
    op_list = [r.kind for r in chosen if r.pass_index == chosen[0].pass_index]
    return sum(median(r.scaled if scaled else r.seconds
                      for r in chosen if r.kind == kind) for kind in op_list)


def reference_kernel() -> Callable[[], float]:
    """A fixed piece of work that no change to qksat can speed up. Timed next
    to each op, it tracks how fast the shared machine runs at that moment.
    qksat's ops mix interpreted loops, dict look-ups, float gemms, passes
    over arrays (some freshly allocated), an einsum contraction and int64
    arithmetic, so the kernel does each for a few ms: on this kind of machine
    the mix tracked every workload's speed better than any one part did. Its
    arrays are small (about 5 MB at most) so that it does not set the
    process's peak RSS, which `peak_rss_mb` reports."""
    import numpy as np
    rng = np.random.default_rng(0)
    gemm, floats = rng.random((160, 160)), rng.random(1 << 17)
    pmf, table = rng.random((41, 26)), rng.random((26, 26, 26))
    ints = rng.integers(0, 1 << 30, 1 << 16, dtype=np.int64)

    def timed() -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        seen = {}
        for i in range(20_000):
            seen[i * 7919 % 20011] = i
        [seen.get(i, 0) for i in range(20_000)]
        for _ in range(30):
            gemm @ gemm
        for _ in range(16):
            float(np.sqrt(floats).sum())
        for _ in range(8):
            fresh = np.ones(1 << 18)
            fresh *= 2.0
            float(fresh.sum())
            del fresh
        np.einsum("na,nb,nc,abc->n", pmf, pmf, pmf, table, optimize=True)
        for _ in range(8):
            int(((ints * 12345) % 1000003 + ints).sum())
        return perf_counter() - t0
    return timed


def pinned_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


IMPORT_TIMER = ("from time import perf_counter; t0 = perf_counter(); "
                "import qksat.cli; print(perf_counter() - t0)")


def setup_seconds(ref) -> tuple[float, float]:
    """Time for a fresh interpreter to import qksat.cli, numpy included:
    the start-up every `qksat` invocation pays. Timed inside the child, so
    process creation, which qksat cannot change, is left out. Returns the
    time and the time scaled by reference timings on both sides."""
    before = ref()
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                           env=pinned_env(), cwd=ROOT, check=True,
                           capture_output=True, text=True, timeout=60)
    seconds = float(child.stdout)
    after = ref()
    return seconds, seconds * REF_SECONDS * 2 / (before + after)


def latency_metrics(records: list[Record]) -> dict[str, float]:
    """Median untraced latency of each op kind; 0 for kinds the workload
    does not run."""
    out = {}
    for kind in LATENCY_KINDS:
        times = [r.seconds for r in records if r.kind == kind and not r.traced]
        out[f"{kind}_s"] = median(times) if times else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qksat" / "cli.py").is_file():
        print(f"error: no qksat sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(pinned_env())     # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import qksat.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "qksat":
        print(f"error: imported qksat from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    # set-up samples are spread over the run, one batch per pass, so that
    # their median does not rest on one moment of a shared machine
    before_pass = (None if args.trace else
                   lambda ref: [setup_seconds(ref) for _ in range(SETUP_PER_PASS)])

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        records, setup, peak_rss = measure(
            cli, WORKLOADS[args.workload], args.seed, args.seconds, tmp,
            reference_kernel, tracer, before_pass)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    scaled_wall = pass_seconds(records, traced=False, scaled=True)
    wall = pass_seconds(records, traced=False, scaled=False)
    ref_s = median(t for r in records for t in r.ref_seconds)
    if args.trace:
        traced_ops = {}
        for r in records:
            if r.traced:
                traced_ops.setdefault(r.pass_index, set()).add(r.op)
        values = layers.layer_metrics(tracer, list(traced_ops.values()))
        values.update(latency_metrics(records))
        values["fail_ratio"] = fail_ratio(records)
        values["tracing_overhead_s"] = (pass_seconds(records, True, True)
                                        - scaled_wall)
        values["wall_s"] = wall
        values["ref_kernel_s"] = ref_s
        stem = OUT / f"{args.workload}-seed{args.seed}"
        tracer.dump(f"{stem}-spans.jsonl")
        Path(f"{stem}-ops.json").write_text(json.dumps(
            [r.__dict__ for r in records], indent=1))
        section = "per_layer"
    else:
        values = {"scaled_wall_s": scaled_wall,
                  "setup_s": median(scaled for _, scaled in setup),
                  "peak_rss_mb": peak_rss}
        print(f"unscaled: wall_s {wall:.4f} "
              f"setup_s {median(raw for raw, _ in setup):.4f} "
              f"ref_kernel_s {ref_s:.5f} ops {len(records)}", file=sys.stderr)
        section = "end_to_end"

    failed = sum(1 for r in records if r.problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
