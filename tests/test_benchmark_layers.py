"""The benchmark's span wrappers still find every name they wrap, and traced
oracle and peel passes still call the wrapped names."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qksat.hypergraph import Hypergraph
from support import write_hypergraph

ROOT = Path(__file__).resolve().parents[1]

# installs the wrappers, runs both rank modes, a small verify and a traced
# peel per gadget with spans on, and prints the span names and the per-layer
# metrics on the last line
TRACED_PASS = """
import contextlib, io, json, sys
import layers, spans
from qksat import cli
tracer = spans.Tracer()
layers.install(tracer)
tracer.enabled = True
runs = [["rank", "--graph", sys.argv[1], "--mode", "field"],
        ["rank", "--graph", sys.argv[1], "--mode", "float"],
        ["verify", "gadgets", "--max-size", "1"]]
runs += [["peel", "--n", "300", "--alpha", "3.0", "--gadget", gadget,
          "--seed", "0", "--trace", sys.argv[2]]
         for gadget in ("sunflower", "nosegay")]
for op, argv in enumerate(runs):
    tracer.op = op
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
tracer.enabled = False
metrics = layers.layer_metrics(tracer, [set(range(len(runs)))])
print(json.dumps({"names": sorted({s.name for s in tracer.spans}),
                  "metrics": metrics}))
"""


def test_benchmark_layers_install(tmp_path):
    # perfbench/layers.py wraps qksat functions by name, so renaming or
    # deleting one of them, or a wrapper that fails on a traced call, would
    # otherwise only break `run.py --trace 1`
    graph = tmp_path / "g.hg"
    write_hypergraph(Hypergraph(5, [(0, 1, 2), (1, 3, 4), (0, 2, 4)]), graph)
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(graph),
         str(tmp_path / "steps.csv")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    for name in ("rank_oracle.constraint_matrix",
                 "rank_oracle.generic_rank_float", "modlin.rank_mod",
                 "hypergraph.random_hypergraph", "peeling.sunflower_peel",
                 "peeling.nosegay_peel", "peeling.write_trace_csv",
                 # the gadget table must look these up when called, or
                 # gadgets.closed_form.busy_s reads 0
                 "gadgets.sunflower_rank", "gadgets.sunflower_graph",
                 "gadgets.nosegay_hang_rank", "gadgets.k2_rank"):
        assert name in traced["names"], name
    metrics = traced["metrics"]
    assert metrics["modlin.rank_mod.calls"] > 0
    assert metrics["rank_oracle.generic_rank_field.calls"] > 0
    assert metrics["rank_oracle.constraint_matrix.busy_s"] > 0
    assert metrics["peeling.steps"] > 0
