"""Self-tests of the benchmark's own logic; no qksat import, a few ms.

    python3 perfbench/selftest.py

Named so that pytest does not collect it into the package's test suite.
"""

from __future__ import annotations

import io
import json
import sys
import types
import unittest
from math import log1p
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from layers import elimination_work  # noqa: E402
from spans import Span, SpanStats, Tracer, self_times  # noqa: E402


def span(name, start, end, parent=-1, leaf=None):
    return Span(name, start, parent, 0, end, leaf or {})


class SelfTimeTest(unittest.TestCase):
    def test_nested_overlapping_and_leaf(self):
        spans = [span("root", 0.0, 10.0, leaf={"hot": [3, 1.0]}),
                 span("a", 1.0, 4.0, 0),
                 span("b", 3.0, 6.0, 0),       # overlaps a: union is [1, 6]
                 span("a.child", 2.0, 3.0, 1),
                 span("late", 9.5, 11.0, 0)]   # clipped to the parent's end
        got = self_times(spans)
        self.assertEqual(got, [10.0 - 5.0 - 0.5 - 1.0, 2.0, 3.0, 1.0, 1.5])

    def test_busy_counts_outermost_only(self):
        spans = [span("f", 0.0, 4.0), span("f", 1.0, 2.0, 0),
                 span("g", 5.0, 6.0), span("f", 5.5, 5.75, 2)]
        st = SpanStats(spans, self_times(spans), {0})
        self.assertEqual(st.calls("f"), 2)
        self.assertEqual(st.busy_s("f"), 4.25)
        self.assertEqual(st.busy_s("f", "g"), 5.0)


class TracerTest(unittest.TestCase):
    def test_wrappers_nest_fold_leaves_and_survive_errors(self):
        mod = types.SimpleNamespace()
        mod.leaf = lambda x: mod.inner(x)          # wrapped call inside a leaf
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: [mod.leaf(x) for _ in range(3)] + [mod.inner(x)]

        def boom():
            raise ValueError("boom")
        mod.boom = boom

        tracer = Tracer()
        tracer.wrap(mod, "outer", "outer", attrs=lambda a, r: {"n": len(r)})
        tracer.wrap(mod, "inner", "inner")
        tracer.wrap(mod, "leaf", "leaf", leaf=True)
        tracer.wrap(mod, "boom", "boom")

        self.assertEqual(mod.outer(1), [2, 2, 2, 2])
        self.assertEqual(tracer.spans, [])         # disabled: pass-through

        tracer.enabled, tracer.op = True, 7
        mod.outer(1)
        with self.assertRaises(ValueError):
            mod.boom()
        names = [(s.name, s.parent, s.op) for s in tracer.spans]
        self.assertEqual(names, [("outer", -1, 7), ("inner", 0, 7), ("boom", -1, 7)])
        self.assertEqual(tracer.spans[0].leaf["leaf"][0], 3)
        self.assertEqual(tracer.spans[0].attrs, {"n": 4})
        self.assertGreater(tracer.spans[2].end, 0.0)


class FakeCli:
    """Stands in for qksat.cli: behaviour picked by argv[0]."""

    def main(self, argv):
        if argv[0] == "raise":
            raise RuntimeError("bug")
        if argv[0] == "exit1":
            return 1
        print("not json" if argv[0] == "garbled" else json.dumps({"ok": argv[0]}))
        return 0


class AccountingTest(unittest.TestCase):
    def ops(self, seed, index, tmp):
        def check(payload, done):
            return [] if payload["ok"] == "good" else ["wrong answer"]
        return [run.Op(kind, [kind], check)
                for kind in ("good", "raise", "exit1", "garbled", "bad")]

    def test_failures_count_and_never_abort(self):
        stderr, sys.stderr = sys.stderr, io.StringIO()
        try:
            records, setup, peak = run.measure(
                FakeCli(), self.ops, 1, 0.0, Path("."), lambda: lambda: 0.1,
                Tracer(), lambda ref: [ref()])
        finally:
            sys.stderr = stderr
        # with a tracer the warm-up, one untraced and one traced pass run
        self.assertEqual(len(records), 15)
        self.assertEqual([r.traced for r in records[::5]], [True, False, True])
        self.assertEqual(run.fail_ratio(records), 0.8)
        self.assertEqual([bool(r.problems) for r in records[:5]],
                         [False, True, True, True, True])
        # the warm-up is not scaled; a set-up sample opens each timed pass
        self.assertEqual([r.scaled for r in records[:5]], [None] * 5)
        self.assertEqual(setup, [0.1, 0.1])
        self.assertGreater(peak, 0)

    def test_scaling_and_pass_seconds(self):
        # its warm-up, then the times before and after the op
        times = iter([0.5] + [0.3] * run.REF_MIN + [0.1] * run.REF_MIN)
        records, _, _ = run.measure(
            FakeCli(), lambda seed, index, tmp: [run.Op("good", ["good"],
                                                        lambda p, d: [])],
            1, 0.0, Path("."), lambda: lambda: next(times))
        # the warm-up pass, then one timed pass
        self.assertEqual(len(records), 2)
        warm, timed = records
        self.assertEqual((warm.ref_seconds, timed.ref_seconds),
                         ([], [0.1] * run.REF_MIN))
        # scaled by the median of the reference times on both sides
        self.assertAlmostEqual(timed.scaled,
                               timed.seconds * run.REF_SECONDS / 0.2)
        self.assertEqual(run.pass_seconds(records, False, False), timed.seconds)


class CheckTest(unittest.TestCase):
    def test_peel(self):
        good = {"value": 0.002, "step_count": 10}
        self.assertEqual(checks.peel(good, gadget="nosegay", n=30, alpha=3.594,
                                     trace_rows=11), [])
        self.assertEqual(len(checks.peel(good, gadget="sunflower", n=30,
                                         alpha=3.894, trace_rows=10)), 2)
        far = {"value": 0.02, "step_count": 10}
        self.assertEqual(len(checks.peel(far, gadget="nosegay", n=30,
                                         alpha=3.594, trace_rows=11)), 1)

    def test_rank_verify_bound(self):
        self.assertEqual(checks.rank_pair({"rank": 3}, {"rank": 3}), [])
        self.assertEqual(checks.rank_pair(None, {"rank": 3}), [])
        self.assertEqual(len(checks.rank_pair({"rank": 3}, {"rank": 4})), 1)
        self.assertEqual(checks.verify({"all_equal": True, "case_count": 51}), [])
        self.assertEqual(len(checks.verify({"all_equal": False, "case_count": 50})), 2)
        self.assertEqual(checks.bound({"verdict": "unsat-whp"}), [])
        self.assertEqual(len(checks.bound({"verdict": "inconclusive"})), 1)

    def test_roots(self):
        self.assertEqual(checks.threshold_root({"root": 3.8935}, "sunflower"), [])
        self.assertEqual(len(checks.threshold_root({"root": 3.89}, "sunflower")), 1)
        # k = 2: ln 2 - alpha ln 2 + ln(1 + alpha/2) = 0 at alpha = 2
        self.assertAlmostEqual(checks.general_k_value(2.0, 2), 0.0, places=12)
        self.assertEqual(checks.general_k_root({"root": 2.0, "k": 2}), [])
        self.assertEqual(len(checks.general_k_root({"root": 2.01, "k": 2})), 1)
        self.assertAlmostEqual(checks.general_k_value(1.0, 3),
                               0.6931471805599453 + log1p(-0.25) + log1p(1 / 6))


class WorkTest(unittest.TestCase):
    def test_elimination_work(self):
        # pivot 0 updates 1 row x 2 columns; pivot 1 updates nothing
        self.assertEqual(elimination_work(2, 2, 2), (4, 32, 4))
        self.assertEqual(elimination_work(3, 2, 0), (6, 48, 0))


if __name__ == "__main__":
    unittest.main()
