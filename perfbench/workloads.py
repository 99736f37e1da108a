"""The three workloads and the checks on the program's outputs.

Every workload is a closed loop: one caller, one thread, each call into
eraseg issued after the previous one returned.  Each runs the same user
journey (set up, train, segment, evaluate) with a different weight:

  train-hard  criterion-5 training (hard switching) dominates the run
  train-soft  the same training with soft switching: every era memory is
              read at every position, and the switch mixes the reads
  segment     line-by-line inference over long and mixed-script lines,
              behind a small checkpoint trained first

so every end-to-end metric exists on every workload.  The timed loop
repeats whole rounds of identical work (a train() call, or one pass over
the segment lines) until the run's seconds are spent.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial

from eraseg import cli, config, corpus, lexicon, trainer

import inputs
import pace

# The full model of the memory-ablation acceptance gate (criterion 5).
# Nine short epochs rather than three long ones: the machine is calibrated
# at each epoch end (see pace.py), so shorter epochs are timed more steadily.
TRAIN_CONFIG = config.Config(
    alpha=0.3, d_e=32, d_a=32, eras=2, switch_mode="hard", fusion="concat",
    max_ngram=3, ngram_min_count=10, lr=1e-3, epochs=9, batch=8, seed=4242,
    max_len=126, memory_enabled=True,
)
DEV_FRACTION = 0.1


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, TINY is the self-test."""

    train_sentences: int = 110  # train-* corpus; DEV_FRACTION of it is dev
    ckpt_epochs: int = 3  # the segment workload trains its checkpoint on the same corpus
    infer_lines: int = 2000  # held-out single sentences segmented after train-*
    segment_lines: int = 1000  # lines of one segment round
    # exact lengths of the segment round's longer lines: 23 from 40 to 150
    # characters, then 16 of 250, enough that p99 falls inside that group
    long_lengths: tuple[int, ...] = tuple(range(40, 151, 5)) + (250,) * 16
    mixed_every: int = 20  # every 20th segment line is mixed-script
    eval_lines: int = 100  # gold single-sentence lines given to `eraseg eval`
    eval_reps: int = 9
    setup_reps: int = 9


TINY = Sizes(
    infer_lines=30, segment_lines=60,
    long_lengths=(40, 120), eval_lines=20, setup_reps=2,
)


class Run:
    """Operation counts, problems and phase traces of one workload run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pace = pace.Pace()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # the first 20 failed checks
        self.n_problems = 0
        self.failures: list[str] = []
        self.phases: list = []  # (tracer.take(), weight)
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.n_problems += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def end_phase(self, repetitions: int) -> None:
        self.phases.append((self.tracer.take(), 1.0 / repetitions))


# ---------------------------------------------------------------------------
# Scoring, written apart from eraseg.metrics


def _spans(words) -> set[tuple[int, int]]:
    out, pos = set(), 0
    for w in words:
        out.add((pos, pos + len(w)))
        pos += len(w)
    return out


def span_f1(gold, pred) -> float:
    """Micro-averaged F1 over exact word spans: 2 * correct / (gold + predicted)."""
    n_gold = n_pred = n_correct = 0
    for g, p in zip(gold, pred, strict=True):
        g_spans, p_spans = _spans(g), _spans(p)
        n_gold += len(g_spans)
        n_pred += len(p_spans)
        n_correct += len(g_spans & p_spans)
    return 2.0 * n_correct / (n_gold + n_pred) if n_gold + n_pred else 0.0


def trivial_f1(gold) -> float:
    """F1 of cutting every sentence into single characters."""
    return span_f1(gold, [tuple("".join(words)) for words in gold])


def check_segmentation(run: Run, line: str, seg, eras: int) -> bool:
    """Checks the era and its distribution; returns whether the words are
    non-empty and give back the user's text (the operation's success)."""
    run.check(0 <= seg.era < eras, f"era {seg.era} out of range")
    probs = seg.era_probs
    run.check(
        len(probs) == eras and all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9,
        f"era_probs {probs} not a distribution",
    )
    return bool(seg.words) and all(seg.words) and "".join(seg.words) == line.strip()


# ---------------------------------------------------------------------------
# Building blocks
#
# Units of work are timed as (start, end) wall-clock intervals and turned
# into reference seconds by run.pace (see pace.py) once the run is over,
# when the calibration samples on both sides of every unit exist.
#
# Every timed phase starts from a collected heap (gc.collect() outside the
# timing and outside trace regions), as a fresh `eraseg` process would:
# otherwise the garbage a previous phase left, which depends on how many
# rounds fitted in the run, decides when the next phase's collections fall.


def load_and_build(files, cfg):
    """The build-dict / train --dict-dir path: load every era file, build lexicons."""
    merged = []
    for era, path in files:
        merged.extend(corpus.load_corpus(path, era, max_len=cfg.max_len).sentences)
    merged_corpus = corpus.RawCorpus(tuple(merged), "bench")
    lexicons = tuple(
        lexicon.build_lexicon(merged_corpus, era, cfg.ngram_min_count, cfg.max_ngram)
        for era in range(cfg.eras)
    )
    return merged_corpus, lexicons


def timed_setups(run: Run, reps: int, fn):
    """reps identical set-ups: (their intervals, the last result)."""
    intervals, result = [], None
    gc.collect()
    run.pace.sample()
    for _ in range(reps):
        with run.tracer.region("bench.setup"):
            start = time.perf_counter()
            result = fn()
            intervals.append((start, time.perf_counter()))
        run.pace.maybe_sample()
    run.pace.sample()
    run.end_phase(reps)
    return intervals, result


def timed_rounds(run: Run, seconds: float, round_fn) -> int:
    """Repeat round_fn in whole rounds until `seconds` have passed (at least one)."""
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        with run.tracer.region("bench.round"):
            round_fn()
        rounds += 1
    run.end_phase(rounds)
    return rounds


def train_once(run: Run, train_part, dev_part, cfg, lexicons):
    """One train() call with its checks: (checkpoint, its bytes, intervals).

    The machine is calibrated at every epoch end, inside on_epoch; the
    intervals cover train() minus those calibrations.
    """
    losses: list[float] = []
    intervals: list[tuple[float, float]] = []
    run.pace.sample()
    begin = [time.perf_counter()]

    def on_epoch(stats):
        intervals.append((begin[0], time.perf_counter()))
        losses.append(stats.mean_loss)
        run.pace.sample()
        begin[0] = time.perf_counter()

    ckpt = trainer.train(train_part, dev_part, cfg, lexicons=lexicons, on_epoch=on_epoch)
    intervals.append((begin[0], time.perf_counter()))
    run.pace.sample()
    run.check(all(math.isfinite(x) for x in losses), f"non-finite epoch loss {losses}")
    if cfg.epochs > 1:
        run.check(losses[-1] < losses[0], f"loss did not fall: {losses}")
    blob = ckpt.to_bytes()
    again = trainer.Checkpoint.from_bytes(blob).to_bytes()
    run.check(again == blob, "to_bytes -> from_bytes -> to_bytes changed the bytes")
    return ckpt, blob, intervals


def train_repeatedly(run: Run, repeat, train_part, dev_part, cfg, lexicons, after=None):
    """Train through repeat(round_fn); checks that every call gives the same
    checkpoint.  Returns (checkpoint, bytes, intervals of all calls)."""
    intervals, hashes, last = [], [], []

    def one_round():
        ckpt, blob, spans = train_once(run, train_part, dev_part, cfg, lexicons)
        if after is not None:
            after(ckpt)
        intervals.extend(spans)
        hashes.append(hashlib.sha256(blob).hexdigest())
        last[:] = [ckpt, blob]

    repeat(one_round)
    run.check(len(set(hashes)) == 1, f"identical train() calls gave different checkpoints: {hashes}")
    run.info["checkpoint_sha256"] = hashes[0]
    run.info["train_calls"] = len(hashes)
    return last[0], last[1], intervals


def check_dev(run: Run, ckpt, dev_part) -> None:
    """Dev F1 from the benchmark's own scorer beats all-single-characters."""
    gold = [s.words for s in dev_part.sentences]
    pred = [trainer.segment("".join(words), ckpt).words for words in gold]
    f1, floor = span_f1(gold, pred), trivial_f1(gold)
    run.check(f1 > floor, f"dev F1 {f1:.4f} does not beat all-singles {floor:.4f}")
    run.check(
        ckpt.dev_f1 is not None and abs(f1 - ckpt.dev_f1) < 1e-9,
        f"dev F1 {f1!r} differs from the checkpoint's {ckpt.dev_f1!r}",
    )
    run.info["dev_f1"] = f1
    run.info["dev_trivial_f1"] = floor


def segment_pass(run: Run, ckpt, lines, expected_failures=frozenset()):
    """segment() each line once: (per-line intervals, results)."""
    eras = ckpt.config.eras
    intervals, results = [], []
    run.pace.sample()
    for i, line in enumerate(lines):
        run.pace.maybe_sample()
        start = time.perf_counter()
        try:
            seg = trainer.segment(line, ckpt)
        except Exception as exc:  # a failed operation, counted; the run goes on
            intervals.append((start, time.perf_counter()))
            seg = None
            error = f"line {i}: {type(exc).__name__}: {exc}"
        else:
            intervals.append((start, time.perf_counter()))
            error = None if check_segmentation(run, line, seg, eras) else f"line {i}: words {seg.words!r}"
        results.append(seg)
        run.attempted += 1
        if error is not None:
            run.failed += 1
            if len(run.failures) < 5:
                run.failures.append(error)
            run.check(i in expected_failures, f"unexpected failure: {error}")
    run.pace.sample()
    return intervals, results


def run_evals(run: Run, reps: int, ckpt_path, gold: list[inputs.Sentence], results, work):
    """`eraseg eval` in process, reps times; returns their intervals.

    Its pooled F1 and era accuracy must match the benchmark's own scores
    over segment()'s outputs on the same lines, to the printed precision.
    """
    files = inputs.write_corpus_files(gold, work, "gold")
    argv = ["eval", *(f"{era}={path}" for era, path in files), "--checkpoint", str(ckpt_path)]
    intervals, reports = [], set()
    for _ in range(reps):
        out = io.StringIO()
        gc.collect()
        run.pace.sample()
        with run.tracer.region("bench.eval"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            intervals.append((start, time.perf_counter()))
        run.pace.sample()
        run.check(code == 0, f"eraseg eval exited {code}")
        reports.add(out.getvalue())
    run.end_phase(reps)
    run.info["eval_wall_s"] = [end - start for start, end in intervals]
    run.check(len(reports) == 1, "repeated eval calls printed different reports")
    if any(seg is None for seg in results):
        run.check(False, "eval lines without a segment() result")
        return intervals
    report = reports.pop()
    f1_match = re.search(r"^era=all f1=(\S+)", report, re.M)
    acc_match = re.search(r"^era accuracy: (\S+)", report, re.M)
    f1 = span_f1([g.words for g in gold], [seg.words for seg in results])
    acc = sum(seg.era == g.era for g, seg in zip(gold, results)) / len(gold)
    run.check(
        f1_match is not None and f1_match.group(1) == f"{f1:.4f}",
        f"eval pooled F1 {f1_match and f1_match.group(1)} vs own {f1:.4f}",
    )
    run.check(
        acc_match is not None and acc_match.group(1) == f"{acc:.4f}",
        f"eval era accuracy {acc_match and acc_match.group(1)} vs own {acc:.4f}",
    )
    run.info["eval_f1"] = f1
    run.info["eval_era_accuracy"] = acc
    return intervals


def summarize(run: Run, setups, train_chars, trains, lines_chars, lines, evals) -> dict[str, float]:
    """End-to-end metrics in reference seconds; raw wall-clock figures go to run.info."""
    scaled = lambda spans: [run.pace.scaled(a, b) for a, b in spans]  # noqa: E731
    wall = lambda spans: [b - a for a, b in spans]  # noqa: E731
    latencies = scaled(lines)
    metrics = {
        "setup_s": statistics.median(scaled(setups)),
        "train_chars_per_s": train_chars / sum(scaled(trains)),
        "segment_chars_per_s": lines_chars / sum(latencies),
        "segment_p50_ms": statistics.median(latencies) * 1e3,
        "segment_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
        "eval_s": statistics.median(scaled(evals)),
    }
    run.info["wall_clock"] = {
        "setup_s": statistics.median(wall(setups)),
        "train_chars_per_s": train_chars / sum(wall(trains)),
        "segment_chars_per_s": lines_chars / sum(wall(lines)),
        "segment_p50_ms": statistics.median(wall(lines)) * 1e3,
        "segment_p99_ms": statistics.quantiles(wall(lines), n=100)[98] * 1e3,
        "eval_s": statistics.median(wall(evals)),
    }
    run.info["kernel_s_median"] = statistics.median(run.pace.durations)
    run.info["line_samples"] = len(lines)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _chars(sentences) -> int:
    return sum(len(w) for s in sentences for w in s.words)


# ---------------------------------------------------------------------------
# Workloads


def train_workload(mode: str, run: Run, seed: int, seconds: float, work, sizes: Sizes) -> dict:
    cfg = replace(TRAIN_CONFIG, switch_mode=mode)
    source = inputs.SentenceSource(random.Random(seed))
    files = inputs.write_corpus_files(source.corpus(sizes.train_sentences), work, "train")
    infer = source.corpus(sizes.infer_lines)
    lines = [s.text for s in infer]

    setups, (merged, lexicons) = timed_setups(
        run, sizes.setup_reps, lambda: load_and_build(files, cfg)
    )
    train_part, dev_part = trainer.split_corpus(merged, DEV_FRACTION, cfg.seed)

    def after_train(ckpt):
        run.attempted += 1  # train() calls are operations here, not in segment
        check_dev(run, ckpt, dev_part)

    ckpt, blob, trains = train_repeatedly(
        run, lambda fn: timed_rounds(run, seconds, fn), train_part, dev_part, cfg, lexicons,
        after=after_train,
    )
    gc.collect()
    with run.tracer.region("bench.infer"):
        line_spans, results = segment_pass(run, ckpt, lines)
    run.end_phase(1)
    ckpt_path = work / "model.ckpt"
    ckpt_path.write_bytes(blob)
    n_eval = min(sizes.eval_lines, len(infer))
    evals = run_evals(run, sizes.eval_reps, ckpt_path, infer[:n_eval], results[:n_eval], work)

    train_chars = _chars(train_part.sentences) * cfg.epochs * run.info["train_calls"]
    run.info["lexicon_sizes"] = [len(x) for x in lexicons]
    return summarize(run, setups, train_chars, trains, sum(map(len, lines)), line_spans, evals)


def segment_workload(run: Run, seed: int, seconds: float, work, sizes: Sizes) -> dict:
    cfg = replace(TRAIN_CONFIG, epochs=sizes.ckpt_epochs)
    source = inputs.SentenceSource(random.Random(seed))
    files = inputs.write_corpus_files(source.corpus(sizes.train_sentences), work, "train")
    data = inputs.segment_lines(source, sizes.segment_lines, sizes.long_lengths, sizes.mixed_every)

    # The checkpoint under test is trained anew, by the code under test.
    with run.tracer.region("bench.prepare"):
        merged, lexicons = load_and_build(files, cfg)
    run.end_phase(1)
    train_part, dev_part = trainer.split_corpus(merged, DEV_FRACTION, cfg.seed)

    def repeat(fn):
        gc.collect()
        with run.tracer.region("bench.prepare"):
            fn()
        run.end_phase(1)

    _, blob, trains = train_repeatedly(run, repeat, train_part, dev_part, cfg, lexicons)
    ckpt_path = work / "model.ckpt"
    ckpt_path.write_bytes(blob)

    def load_and_first_line():
        loaded = trainer.Checkpoint.load(ckpt_path)
        trainer.segment(data.lines[0], loaded)
        return loaded

    setups, ckpt = timed_setups(run, sizes.setup_reps, load_and_first_line)

    line_spans, last = [], []

    def one_round():
        spans, results = segment_pass(run, ckpt, data.lines, data.mixed)
        line_spans.extend(spans)
        last[:] = results

    rounds = timed_rounds(run, seconds, one_round)
    single = [i for i, g in enumerate(data.gold) if g is not None][: sizes.eval_lines]
    evals = run_evals(run, sizes.eval_reps, ckpt_path, [data.gold[i] for i in single],
                      [last[i] for i in single], work)

    train_chars = _chars(train_part.sentences) * cfg.epochs
    run.info.update(rounds=rounds, lines=len(data.lines), mixed_lines=len(data.mixed))
    return summarize(run, setups, train_chars, trains, data.n_chars * rounds, line_spans, evals)


WORKLOADS = {
    "train-hard": partial(train_workload, "hard"),
    "train-soft": partial(train_workload, "soft"),
    "segment": segment_workload,
}
