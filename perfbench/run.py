"""eraseg benchmark: one workload per process, from seeded synthetic inputs.

Run from the root of an eraseg checkout:

    python3 perfbench/run.py --workload train-hard --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 wraps
eraseg's functions (see tracing.py) and reports the per-layer metrics
instead.  A JSON file with every figure, span and check of the run goes to
.perfbench/results/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

# Single-threaded BLAS: the model's matrices are tiny, and one thread keeps
# runs on a shared 2-core machine steady.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("train-hard", "train-soft", "segment")

END_TO_END = {
    "setup_s": "s",
    "train_chars_per_s": "chars/s",
    "segment_chars_per_s": "chars/s",
    "segment_p50_ms": "ms",
    "segment_p99_ms": "ms",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

# Span totals reported as they are; the ratios and GC figures are derived below.
_SPAN_METRICS = [
    "corpus.load_corpus.total_s",
    "lexicon.build_lexicon.total_s",
    "lexicon.extract_candidates.calls",
    "lexicon.extract_candidates.self_s",
    "encoder.encode.calls",
    "encoder.encode.self_s",
    "memory.read_cell.calls",
    "memory.read_cell.self_s",
    "switcher.switch.calls",
    "switcher.switch.self_s",
    "switcher.fuse.self_s",
    "switcher.classify_era.self_s",
    "switcher.discriminator_nll.self_s",
    "crf.emissions.self_s",
    "crf.nll.self_s",
    "crf.viterbi.calls",
    "crf.viterbi.self_s",
    "autodiff.backward.calls",
    "autodiff.backward.self_s",
    "trainer.train.self_s",
    "trainer.segment.self_s",
    "trainer.prepare_sentence.self_s",
    "trainer.sentence_loss.self_s",
    "trainer.predict_sentence.calls",
    "trainer.predict_sentence.total_s",
    "trainer.clip_global_norm.self_s",
    "trainer.adam_step.calls",
    "trainer.adam_step.self_s",
    "trainer.checkpoint_load.total_s",
    "metrics.score_segmentation.total_s",
]
PER_LAYER = {
    **{name: "count" if name.endswith(".calls") else "s" for name in _SPAN_METRICS},
    "memory.hit_rate": "ratio",
    "memory.candidates_per_hit": "count",
    "autodiff.tensors_created": "count",
    "trainer.clip_rate": "ratio",
    "trainer.checkpoint_bytes": "bytes",
    "gc.pause_s": "s",
    "gc.pause_share": "ratio",
    "gc.collections": "count",
    "gc.max_pause_ms": "ms",
    "trace.wall_s": "s",
    "trace.bench_self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(acc: dict, mx: dict) -> dict[str, float]:
    values = {name: acc.get(name, 0.0) for name in _SPAN_METRICS}
    values.update({
        "memory.hit_rate": _ratio(acc.get("memory.hits", 0.0), acc.get("memory.reads", 0.0)),
        "memory.candidates_per_hit": _ratio(acc.get("memory.candidates", 0.0), acc.get("memory.hits", 0.0)),
        "autodiff.tensors_created": acc.get("autodiff.tensors_created", 0.0),
        "trainer.clip_rate": _ratio(acc.get("trainer.clipped", 0.0), acc.get("trainer.clip_checks", 0.0)),
        "trainer.checkpoint_bytes": mx.get("trainer.checkpoint_bytes", 0.0),
        "gc.pause_s": acc.get("gc.pause_s", 0.0),
        "gc.pause_share": _ratio(acc.get("gc.pause_s", 0.0), acc.get("trace.wall_s", 0.0)),
        "gc.collections": acc.get("gc.collections", 0.0),
        "gc.max_pause_ms": mx.get("gc.max_pause_ms", 0.0),
        "trace.wall_s": acc.get("trace.wall_s", 0.0),
        "trace.bench_self_s": sum(v for k, v in acc.items() if k.startswith("bench.") and k.endswith(".self_s")),
    })
    return values


def self_time_gap(acc: dict) -> float:
    """Traced wall time minus every span's self time and every GC pause: 0
    when the spans account for the whole traced time."""
    self_sum = sum(v for k, v in acc.items() if k.endswith(".self_s")) + acc.get("gc.pause_s", 0.0)
    return acc.get("trace.wall_s", 0.0) - self_sum


def parse_args(argv):
    parser = argparse.ArgumentParser(description="eraseg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_program(root: Path):
    """Put the checkout's src/ first on sys.path; eraseg is not installed."""
    src = root / "src"
    if not (src / "eraseg" / "__init__.py").is_file():
        raise SystemExit(f"error: no eraseg sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, sizes=None) -> dict:
    """Run one workload in this process; returns the full result record."""
    import tracing
    import workloads

    sizes = sizes or workloads.Sizes()
    tracer = tracing.Tracer() if trace else tracing.NoTrace()
    run = workloads.Run(tracer)
    if trace:
        tracer.install()
    try:
        end_to_end = workloads.WORKLOADS[name](run, seed, seconds, work, sizes)
    finally:
        if trace:
            tracer.uninstall()
    end_to_end["peak_rss_mb"] = workloads.peak_rss_mb()
    acc, mx = tracing.combine(run.phases)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "end_to_end": end_to_end,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "problems": run.problems,
        "n_problems": run.n_problems,
        "info": run.info,
        "absent": list(tracer.absent),
    }
    if trace:
        gap = self_time_gap(acc)
        run.check(abs(gap) <= 1e-6 * max(1.0, acc.get("trace.wall_s", 0.0)),
                  f"span self times miss {gap:.3g} s of the traced wall time")
        record.update(per_layer=per_layer_values(acc, mx), spans=acc, maxima=mx,
                      self_time_gap_s=gap, n_problems=run.n_problems, problems=run.problems)
    return record


def summary_line(record: dict) -> dict:
    table = PER_LAYER if record["trace"] else END_TO_END
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["n_problems"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for text in record["problems"]:
        print(f"check failed: {text}", file=sys.stderr)
    for text in record["failures"]:
        print(f"failed operation: {text}", file=sys.stderr)
    if record["absent"]:
        print(f"absent from eraseg, reported as 0: {', '.join(record['absent'])}", file=sys.stderr)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
