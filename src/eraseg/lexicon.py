"""Per-era dictionaries and per-character candidate-word extraction.

Each era gets one dictionary holding the era's training word types plus its
high-frequency character bigrams and trigrams.  One scan of a sentence gives,
for every era, each character's dictionary words covering it, with a boundary
value class for where the character sits inside the match, as padded arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import RawCorpus, read_lines
from .errors import DataError

# Boundary value classes: position of the character inside the matched word.
V_B, V_M, V_E, V_S = 0, 1, 2, 3
VALUE_NAMES = ("V_B", "V_M", "V_E", "V_S")
N_VALUE_CLASSES = 4


class CandidateSlots(NamedTuple):
    """One era's candidates, each array (T, width): row i holds the words covering
    character i, padded to the era's longest row; padded slots are False in mask."""

    word_ids: np.ndarray
    classes: np.ndarray
    mask: np.ndarray


def check_words(words: Iterable[str], owner: str) -> None:
    """Reject the words that decode_words(encode_words(...)) would not give back."""
    for w in words:
        if not w or "\n" in w:
            raise DataError(f"{owner}: word {w!r} is empty or contains a line break")


def encode_words(words: Iterable[str]) -> bytes:
    """The word-list format of .dict files and checkpoints: sorted, each word followed by "\n"."""
    return "".join(w + "\n" for w in sorted(words)).encode("utf-8")


def decode_words(lines: Iterable[str]) -> list[str]:
    """The words of an encode_words payload split on "\n": empty lines are skipped."""
    return [line for line in lines if line]


@dataclass(frozen=True)
class EraLexicon:
    """One era's dictionary: sorted words and their dense key-embedding ids."""

    era_id: int
    word_ids: dict[str, int] = field(repr=False)
    id_to_word: tuple[str, ...] = field(repr=False)

    @classmethod
    def from_words(cls, era_id: int, words: Iterable[str]) -> "EraLexicon":
        ordered = sorted(set(words))
        check_words(ordered, f"era {era_id} lexicon")
        return cls(
            era_id=era_id,
            word_ids={w: i for i, w in enumerate(ordered)},
            id_to_word=tuple(ordered),
        )

    def __len__(self) -> int:
        return len(self.id_to_word)

    def serialize(self) -> bytes:
        return encode_words(self.id_to_word)

    def save(self, path: str | Path) -> None:
        data = self.serialize()
        if any(w.endswith("\r") for w in self.id_to_word):
            data = data.replace(b"\n", b"\r\n")  # load_lexicon strips one "\r" per line
        Path(path).write_bytes(data)


def load_lexicon(path: str | Path, era_id: int) -> EraLexicon:
    lines = (line.removesuffix("\r") for line in read_lines(path))  # LF or CRLF
    return EraLexicon.from_words(era_id, decode_words(lines))


def build_lexicon(
    corpus: RawCorpus,
    era_id: int,
    ngram_min_count: int,
    max_ngram: int = 5,
) -> EraLexicon:
    """Build one era's dictionary from its training sentences.

    The word types of the era form the internal dictionary; character
    bigrams and trigrams with corpus frequency >= ngram_min_count form the
    external dictionary.  Words longer than max_ngram are dropped since the
    matcher never looks at windows that wide.
    """
    if ngram_min_count < 1:
        raise DataError(f"ngram_min_count must be >= 1, got {ngram_min_count}")
    era_sents = [s for s in corpus.sentences if s.era_id == era_id]
    if not era_sents:
        raise DataError(f"no sentences for era {era_id} in {corpus.source_name}")

    words = {w for s in era_sents for w in s.words if len(w) <= max_ngram}

    counts: Counter[str] = Counter()
    for s in era_sents:
        chars = "".join(s.words)
        for n in (2, 3):
            for i in range(len(chars) - n + 1):
                counts[chars[i : i + n]] += 1
    words.update(g for g, c in counts.items() if c >= ngram_min_count)
    return EraLexicon.from_words(era_id, words)


def extract_candidates(
    chars: Sequence[str],
    lexicons: Sequence[EraLexicon],
    max_ngram: int = 5,
) -> tuple[CandidateSlots, ...]:
    """Collect, for every era and character position, the dictionary words covering it.

    chars holds one character per position.  Every window [s, s+n) with
    n <= max_ngram is looked up once in each era's lexicon, and each one
    found contributes one candidate to each position it covers: V_S for a
    single-character match, V_B at the first position, V_E at the last, V_M
    strictly inside.  Candidates are ordered by match start then length and
    deduplicated by (word, value class), keeping the first occurrence.
    """
    if max_ngram < 1:
        raise DataError(f"max_ngram must be >= 1, got {max_ngram}")
    text = "".join(chars)
    # classes[n - 1]: the value class of each character of an n-character match
    classes = [(V_S,)] + [(V_B,) + (V_M,) * (n - 2) + (V_E,) for n in range(2, max_ngram + 1)]
    # [era][position]: (word id, value class) keys in first-occurrence order
    rows = [[{} for _ in text] for _ in lexicons]
    for start in range(len(text)):
        for n in range(1, min(max_ngram, len(text) - start) + 1):
            word = text[start : start + n]
            for lex, era_rows in zip(lexicons, rows):
                word_id = lex.word_ids.get(word)
                if word_id is not None:
                    for i, vc in enumerate(classes[n - 1], start):
                        era_rows[i].setdefault((word_id, vc))
    return tuple(_slots(era_rows) for era_rows in rows)


def _slots(rows: list[dict[tuple[int, int], None]]) -> CandidateSlots:
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    slots = np.zeros(mask.shape + (2,), dtype=np.intp)
    # Boolean-mask assignment fills row-major, the order the candidates come in.
    flat = chain.from_iterable(chain.from_iterable(rows))
    slots[mask] = np.fromiter(flat, dtype=np.intp).reshape(-1, 2)
    return CandidateSlots(slots[..., 0], slots[..., 1], mask)


def pack_slots(parts: Sequence[CandidateSlots]) -> CandidateSlots:
    """Several sentences' slots as one, their rows one after another, padded to the widest."""
    if len(parts) == 1:
        return parts[0]
    n_rows = sum(len(p.mask) for p in parts)
    width = max(p.mask.shape[1] for p in parts)
    packed = CandidateSlots(*(np.zeros((n_rows, width), dtype=a.dtype) for a in parts[0]))
    start = 0
    for part in parts:
        rows, w = part.mask.shape
        for out, array in zip(packed, part):
            out[start : start + rows, :w] = array
        start += rows
    return packed
