"""Quick self-test of the benchmark itself (about a minute on two cores).

Run from the root of an eraseg checkout:

    python3 perfbench/selftest.py

It runs a tiny pass of every workload with tracing on and every check
enabled, checks the tracer's self-time arithmetic on a known nested call
with a fake clock, checks that a traced name missing from eraseg is
reported as absent rather than crashing, and checks that BENCHMARK.json
lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

ROOT = Path.cwd()
run.import_program(ROOT)

import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def inner():
            clock.now += 3.0

        wrapped_inner = tracer.wrap("inner", inner)

        def outer():
            clock.now += 2.0
            wrapped_inner()
            wrapped_inner()
            clock.now += 0.5

        wrapped_outer = tracer.wrap("outer", outer)
        with tracer.region("bench.root"):
            clock.now += 1.0
            wrapped_outer()
        acc, _ = tracer.take()
        self.assertEqual(acc["inner.calls"], 2)
        self.assertEqual(acc["inner.total_s"], 6.0)
        self.assertEqual(acc["inner.self_s"], 6.0)
        self.assertEqual(acc["outer.total_s"], 8.5)
        self.assertEqual(acc["outer.self_s"], 2.5)
        self.assertEqual(acc["bench.root.self_s"], 1.0)
        self.assertEqual(acc["trace.wall_s"], 9.5)
        self.assertEqual(run.self_time_gap(acc), 0.0)

    def test_gc_pause_is_a_child_of_the_running_span(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def work():
            clock.now += 1.0
            tracer._on_gc("start", {})
            clock.now += 0.25
            tracer._on_gc("stop", {})

        with tracer.region("bench.root"):
            tracer.wrap("work", work)()
        acc, mx = tracer.take()
        self.assertEqual(acc["work.self_s"], 1.0)
        self.assertEqual(acc["gc.pause_s"], 0.25)
        self.assertEqual(mx["gc.max_pause_ms"], 250.0)
        self.assertEqual(run.self_time_gap(acc), 0.0)

    def test_phases_are_scaled_per_repetition(self):
        acc, mx = tracing.combine([(({"a.calls": 6.0}, {"m": 1.0}), 1 / 3), (({"a.calls": 1.0}, {"m": 4.0}), 1.0)])
        self.assertEqual(acc["a.calls"], 3.0)
        self.assertEqual(mx["m"], 4.0)


class AbsentNames(unittest.TestCase):
    def test_missing_names_are_reported_not_raised(self):
        import eraseg.trainer

        original_encode = eraseg.trainer.encode
        tracer = tracing.Tracer()
        spans = tracing.SPANS + (
            ("ghost.function", ["eraseg.trainer:no_such_function"]),
            ("ghost.method", ["eraseg.trainer:Checkpoint.no_such_method"]),
            ("ghost.module", ["eraseg.no_such_module:anything"]),
        )
        tracer.install(spans)
        try:
            self.assertIsNot(eraseg.trainer.encode, original_encode)
        finally:
            tracer.uninstall()
        self.assertIs(eraseg.trainer.encode, original_encode)
        self.assertEqual(tracer.absent, ["ghost.function", "ghost.method", "ghost.module"])
        values = run.per_layer_values({}, {})
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertTrue(all(v == 0 for v in values.values()))


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))


class TinyWorkloads(unittest.TestCase):
    """Every workload end to end at a tiny size, traced, with every check."""

    def run_tiny(self, name: str) -> dict:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench"))
        try:
            record = run.run_workload(name, 7, 0.0, True, work, workloads.TINY)
        finally:
            shutil.rmtree(work)
        self.assertEqual(record["problems"], [])
        self.assertEqual(record["absent"], [])
        self.assertAlmostEqual(record["self_time_gap_s"], 0.0, places=9)
        line = run.summary_line(record)
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(run.PER_LAYER))
        self.assertEqual(set(record["end_to_end"]), set(run.END_TO_END))
        self.assertTrue(all(v > 0 for v in record["end_to_end"].values()))
        return record

    def test_train_hard(self):
        record = self.run_tiny("train-hard")
        self.assertEqual(record["failed"], 0)
        self.assertEqual(record["per_layer"]["switcher.switch.calls"], 0)

    def test_train_soft(self):
        record = self.run_tiny("train-soft")
        self.assertEqual(record["failed"], 0)
        self.assertGreater(record["per_layer"]["switcher.switch.calls"], 0)

    def test_segment(self):
        record = self.run_tiny("segment")
        lines = record["info"]["lines"]
        self.assertEqual(record["attempted"], lines)
        self.assertEqual(record["failed"], record["info"]["mixed_lines"])


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()
