"""Per-layer tracing from outside the program.

The tracer replaces chosen eraseg functions, at the module attribute
through which their callers look them up, with wrappers that record one
span per call: calls, total time and self time (the span minus the time
of the spans it encloses).  Garbage-collector pauses, seen through
gc.callbacks, count as child spans of whatever span was running, so self
times add up exactly to the wall time of the regions the benchmark opens.

Spans are aggregated in memory by name and read out with take().
Nothing here is imported by eraseg; uninstall() restores every attribute.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import os
import time
from collections import defaultdict

# (label, [lookup sites]).  A site is "module:attr" or "module:Class.attr".
# A function is patched where its callers look it up: trainer.py imports
# encode, read_cell, ... by name, so eraseg.trainer.encode is the site, not
# eraseg.encoder.encode.
SPANS = (
    ("corpus.load_corpus", ["eraseg.corpus:load_corpus", "eraseg.cli:load_corpus"]),
    ("lexicon.build_lexicon", ["eraseg.lexicon:build_lexicon", "eraseg.trainer:build_lexicon"]),
    ("lexicon.extract_candidates", ["eraseg.trainer:extract_candidates"]),
    ("encoder.encode", ["eraseg.trainer:encode"]),
    ("memory.read_cell", ["eraseg.trainer:read_cell"]),
    ("switcher.switch", ["eraseg.trainer:switch"]),
    ("switcher.fuse", ["eraseg.trainer:fuse"]),
    ("switcher.classify_era", ["eraseg.trainer:classify_era"]),
    ("switcher.discriminator_nll", ["eraseg.trainer:discriminator_nll"]),
    ("crf.emissions", ["eraseg.trainer:emissions"]),
    ("crf.nll", ["eraseg.trainer:nll"]),
    ("crf.viterbi", ["eraseg.trainer:viterbi"]),
    ("autodiff.backward", ["eraseg.autodiff:Tensor.backward"]),
    ("trainer.train", ["eraseg.trainer:train", "eraseg.cli:train"]),
    ("trainer.segment", ["eraseg.trainer:segment", "eraseg.cli:segment"]),
    ("trainer.prepare_sentence", ["eraseg.trainer:prepare_sentence", "eraseg.cli:prepare_sentence"]),
    ("trainer.sentence_loss", ["eraseg.trainer:sentence_loss"]),
    ("trainer.predict_sentence", ["eraseg.trainer:predict_sentence", "eraseg.cli:predict_sentence"]),
    ("trainer.clip_global_norm", ["eraseg.trainer:clip_global_norm"]),
    ("trainer.adam_step", ["eraseg.trainer:Adam.step"]),
    ("trainer.checkpoint_load", ["eraseg.trainer:Checkpoint.load"]),
    ("trainer.checkpoint_to_bytes", ["eraseg.trainer:Checkpoint.to_bytes"]),
    ("trainer.checkpoint_from_bytes", ["eraseg.trainer:Checkpoint.from_bytes"]),
    ("metrics.score_segmentation", ["eraseg.cli:score_segmentation", "eraseg.trainer:score_segmentation"]),
    ("cli.main", ["eraseg.cli:main"]),
)
# Counted, not timed: a span per tensor would cost more than the tensor.
TENSOR_INIT_SITE = "eraseg.autodiff:Tensor.__init__"

_MISSING = object()


def _resolve(site: str):
    """(owner, attr, current value), or None when the name no longer exists."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None
    if getattr(owner, attr, _MISSING) is _MISSING:
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced run; install() patches eraseg."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._acc: defaultdict[str, float] = defaultdict(float)  # additive values
        self._max: dict[str, float] = {}  # largest value seen
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------

    def _record(self, name: str, frame: list[float], elapsed: float) -> None:
        acc = self._acc
        acc[name + ".calls"] += 1
        acc[name + ".total_s"] += elapsed
        acc[name + ".self_s"] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, name: str, fn, observe=None):
        stack, clock, record = self._stack, self._clock, self._record

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record(name, frame, elapsed)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def region(self, name: str):
        """A root span opened by the benchmark around a unit of its own work."""
        frame = [0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            self._record(name, frame, elapsed)
            self._acc["trace.wall_s"] += elapsed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self._clock()
            return
        if not self._stack:  # outside every region: not part of the work
            return
        pause = self._clock() - self._gc_start
        self._stack[-1][0] += pause
        self._acc["gc.pause_s"] += pause
        self._acc["gc.collections"] += 1
        self._max["gc.max_pause_ms"] = max(self._max.get("gc.max_pause_ms", 0.0), pause * 1e3)

    # -- counters taken from arguments and results --------------------------

    def _observe_read_cell(self, args, result) -> None:
        n = len(args[1])
        self._acc["memory.reads"] += 1
        if n:
            self._acc["memory.hits"] += 1
            self._acc["memory.candidates"] += n

    def _observe_clip(self, args, result) -> None:
        self._acc["trainer.clip_checks"] += 1
        if result > args[1]:
            self._acc["trainer.clipped"] += 1

    def _observe_load(self, args, result) -> None:
        self._max["trainer.checkpoint_bytes"] = os.path.getsize(args[0])

    # -- install / uninstall -----------------------------------------------

    def _patch(self, site: str, make) -> bool:
        found = _resolve(site)
        if found is None:
            return False
        owner, attr, current = found
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(current))
        return True

    def install(self, spans=SPANS) -> None:
        observers = {
            "memory.read_cell": self._observe_read_cell,
            "trainer.clip_global_norm": self._observe_clip,
            "trainer.checkpoint_load": self._observe_load,
        }
        for name, sites in spans:
            patched = [
                self._patch(site, lambda fn, name=name: self.wrap(name, fn, observers.get(name)))
                for site in sites
            ]
            if not any(patched):
                self.absent.append(name)

        def counting_init(init):
            acc = self._acc

            def __init__(tensor, *args, **kwargs):
                acc["autodiff.tensors_created"] += 1
                init(tensor, *args, **kwargs)

            return __init__

        if not self._patch(TENSOR_INIT_SITE, counting_init):
            self.absent.append("autodiff.tensors_created")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:  # was inherited or a module global added later
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ----------------------------------------------------------

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """(additive values, maxima) recorded since the last take; resets both."""
        acc, mx = dict(self._acc), dict(self._max)
        self._acc.clear()
        self._max.clear()
        return acc, mx


class NoTrace:
    """Stands in for Tracer in untraced runs: regions cost one call."""

    absent: list[str] = []

    def region(self, name: str):
        return contextlib.nullcontext()

    def take(self):
        return {}, {}


def combine(parts: list[tuple[tuple[dict, dict], float]]) -> tuple[dict, dict]:
    """Weighted sum of additive values and max of maxima over phases.

    A phase that repeats identical work n times gets weight 1/n, so counts
    come out per repetition and stay exact integers.
    """
    acc: defaultdict[str, float] = defaultdict(float)
    mx: dict[str, float] = {}
    for (part_acc, part_max), weight in parts:
        for key, value in part_acc.items():
            acc[key] += value * weight
        for key, value in part_max.items():
            mx[key] = max(mx.get(key, value), value)
    return dict(acc), mx
