"""Seeded synthetic inputs for the benchmark.

The generator lives here, not in eraseg, so that a change to the program
under test cannot change what the benchmark feeds it.  It follows the same
idea as the program's own synthetic corpus: two eras over one CJK
alphabet, a set of character pairs that form one word in exactly one era
and two words in the other, shared filler words with a mild era skew, and
one era-exclusive marker character per sentence.

Everything that depends on the workload seed goes through one
random.Random(seed).  The mixed-script lines of the segment workload are
drawn from a fixed seed instead: they fail on every run today (the
program replaces ASCII runs and punctuation by placeholder code points),
and a failure kept in the benchmark has to be the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_PAIR_CHARS = "山水火木金土田石竹虫米贝马牛羊鸟鱼舟云雨风雪江河湖海松柏"
_FILLER_CHARS = "天地人口手足目耳心门车衣食草豆瓜果尺寸斤两升斗古今东西南北"
_MARKERS = ("之乎者也", "的了吗呢")
_N_PAIRS = 60
_N_FILLERS = 48
_N_FILLER_SINGLES = 12

# Seed of the mixed-script lines; it never changes with --seed.
MIXED_SEED = 20240607
_ASCII_RUNS = ("ABC", "xyz", "Qt", "GDP", "ok", "123", "2024", "7", "3.14", "v2")
_ASCII_PUNCT = ",.;:!?()-"


@dataclass(frozen=True)
class Sentence:
    words: tuple[str, ...]
    era: int

    @property
    def text(self) -> str:
        return "".join(self.words)


class SentenceSource:
    """Draws segmented sentences of either era from one seeded inventory."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        pairs = [a + b for a in _PAIR_CHARS for b in _PAIR_CHARS if a != b]
        self.pairs = rng.sample(pairs, _N_PAIRS)
        self.join_era = {p: rng.randrange(2) for p in self.pairs}
        bigrams = [a + b for a in _FILLER_CHARS for b in _FILLER_CHARS if a != b]
        self.fillers = rng.sample(_FILLER_CHARS, _N_FILLER_SINGLES) + rng.sample(
            bigrams, _N_FILLERS - _N_FILLER_SINGLES
        )
        self.pair_weights = [1.0 / (i + 2) for i in range(_N_PAIRS)]
        skews = [rng.choice((0.2, 0.5, 0.8)) for _ in self.fillers]
        base = [1.0 / (i + 2) for i in range(_N_FILLERS)]
        self.filler_weights = (
            [w * s for w, s in zip(base, skews)],
            [w * (1.0 - s) for w, s in zip(base, skews)],
        )

    def sentence(self, era: int) -> Sentence:
        rng = self.rng
        n_slots = rng.randint(4, 9)
        pair_slot = rng.randrange(n_slots)
        words: list[str] = []
        for slot in range(n_slots):
            if slot == pair_slot or rng.random() < 0.45:
                pair = rng.choices(self.pairs, weights=self.pair_weights)[0]
                words.extend([pair] if self.join_era[pair] == era else list(pair))
            else:
                words.append(rng.choices(self.fillers, weights=self.filler_weights[era])[0])
        words.insert(rng.randrange(len(words) + 1), rng.choice(_MARKERS[era]))
        return Sentence(tuple(words), era)

    def corpus(self, n: int) -> list[Sentence]:
        """n sentences, eras alternating so both are equally represented."""
        return [self.sentence(i % 2) for i in range(n)]

    def text_of_length(self, n_chars: int) -> str:
        """Raw text cut to exactly n_chars from whole sentences of random eras."""
        text = ""
        while len(text) < n_chars:
            text += self.sentence(self.rng.randrange(2)).text
        return text[:n_chars]


def write_corpus_files(sentences: list[Sentence], directory, stem: str) -> list[tuple[int, object]]:
    """One space-separated corpus file per era; returns (era, path) pairs."""
    pairs = []
    for era in (0, 1):
        path = directory / f"{stem}{era}.txt"
        lines = [" ".join(s.words) for s in sentences if s.era == era]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pairs.append((era, path))
    return pairs


# ---------------------------------------------------------------------------
# Segment workload lines


@dataclass(frozen=True)
class SegmentLines:
    lines: tuple[str, ...]
    gold: tuple[Sentence | None, ...]  # the sentence of a single-sentence line
    mixed: frozenset[int]  # indices of the mixed-script lines

    @property
    def n_chars(self) -> int:
        return sum(len(line) for line in self.lines)


def _mixed_line(rng: random.Random, source: SentenceSource) -> str:
    """A CJK line with ASCII letters, digits and punctuation spliced in."""
    cjk = source.sentence(rng.randrange(2)).text
    parts = list(cjk)
    for _ in range(rng.randint(1, 3)):
        piece = rng.choice(_ASCII_RUNS)
        if rng.random() < 0.5:
            piece += rng.choice(_ASCII_PUNCT)
        parts.insert(rng.randrange(1, len(parts)), piece)
    return "".join(parts)


def segment_lines(
    source: SentenceSource, n_lines: int, long_lengths: tuple[int, ...], mixed_every: int
) -> SegmentLines:
    """The line set of one segment round, in a fixed interleaving.

    Every mixed_every-th line is a mixed-script line (fixed seed).  The
    lines listed in long_lengths get exactly those character counts; the
    rest are single synthetic sentences with their gold words.  Only the
    characters depend on the seed, so the length mix is the same on
    every seed.  source is the seeded source the checkpoint's corpus came
    from, so the lines share its word inventory.
    """
    mixed_rng = random.Random(MIXED_SEED)
    mixed_source = SentenceSource(random.Random(MIXED_SEED + 1))
    mixed_idx = [i for i in range(n_lines) if i % mixed_every == mixed_every // 2]
    plain_idx = [i for i in range(n_lines) if i % mixed_every != mixed_every // 2]
    if len(long_lengths) > len(plain_idx):
        raise ValueError("more long lines than line slots")
    # spread the long lines evenly over the plain slots
    stride = len(plain_idx) / max(1, len(long_lengths))
    long_at = {plain_idx[int(k * stride)]: n for k, n in enumerate(long_lengths)}
    lines: list[str] = []
    gold: list[Sentence | None] = []
    for i in range(n_lines):
        if i in long_at:
            lines.append(source.text_of_length(long_at[i]))
            gold.append(None)
        elif i % mixed_every == mixed_every // 2:
            lines.append(_mixed_line(mixed_rng, mixed_source))
            gold.append(None)
        else:
            sent = source.sentence(i % 2)
            lines.append(sent.text)
            gold.append(sent)
    return SegmentLines(tuple(lines), tuple(gold), frozenset(mixed_idx))
