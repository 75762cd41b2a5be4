"""The benchmark's span wrappers still find every name they wrap."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_layers_install():
    # perfbench/layers.py wraps qksat functions by name, so renaming or
    # deleting one of them would otherwise only break `run.py --trace 1`
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layers, spans; layers.install(spans.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
