"""Corpus handling: the BMES tag scheme, preprocessing, vocabularies, and
a synthetic bi-era corpus generator.

Input corpora are UTF-8 text files, one sentence per line, words separated
by single U+0020 spaces.  The era id of a file is supplied by the caller;
nothing era-specific is encoded inline.  All functions here are pure and
corpora are immutable after construction.
"""

from __future__ import annotations

import random
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config import Config
from .errors import DataError

TAGS = ("B", "M", "E", "S")
TAG_TO_ID = {tag: i for i, tag in enumerate(TAGS)}

# Replacement tokens are single private-use code points so character counts
# stay aligned with tag positions after preprocessing.  Rendered in docs and
# reports as <LAT>, <NUM>, <PUNC>.
LAT_TOKEN = ""
NUM_TOKEN = ""
PUNC_TOKEN = ""
RESERVED_TOKENS = (LAT_TOKEN, NUM_TOKEN, PUNC_TOKEN)


@dataclass(frozen=True)
class RawSentence:
    """One word-segmented sentence with its era id."""

    words: tuple[str, ...]
    era_id: int


@dataclass(frozen=True)
class RawCorpus:
    """An immutable collection of segmented sentences."""

    sentences: tuple[RawSentence, ...]
    source_name: str

    def __len__(self) -> int:
        return len(self.sentences)


def words_to_bmes(words: Sequence[str]) -> tuple[str, ...]:
    """Convert a segmented sentence to per-character BMES tags.

    A single-character word maps to S; a k-character word to B, M * (k - 2), E.
    """
    if not words:
        raise DataError("empty sentence")
    tags: list[str] = []
    for word in words:
        if not word:
            raise DataError("empty word in sentence")
        if len(word) == 1:
            tags.append("S")
        else:
            tags.append("B")
            tags.extend("M" * (len(word) - 2))
            tags.append("E")
    return tuple(tags)


def bmes_to_words(chars: Sequence[str], tags: Sequence[str]) -> tuple[str, ...]:
    """Reassemble words from characters and BMES tags.

    Inverse of words_to_bmes on valid sequences.  Invalid sequences are
    repaired by forcing a word boundary before every B and S and at the end
    of the sentence, so the output always concatenates back to the input.
    """
    if len(chars) != len(tags):
        raise DataError(f"length mismatch: {len(chars)} chars vs {len(tags)} tags")
    for t in tags:
        if t not in TAG_TO_ID:
            raise DataError(f"unknown tag {t!r}")
    words: list[str] = []
    buf: list[str] = []
    for ch, tag in zip(chars, tags):
        if tag in ("B", "S") and buf:
            words.append("".join(buf))
            buf = []
        buf.append(ch)
    if buf:
        words.append("".join(buf))
    return tuple(words)


def _char_class(ch: str) -> str:
    if ch in RESERVED_TOKENS:
        return "other"
    if "a" <= ch <= "z" or "A" <= ch <= "Z" or "Ａ" <= ch <= "Ｚ" or "ａ" <= ch <= "ｚ":
        return "latin"
    if unicodedata.category(ch) == "Nd":
        return "digit"
    if unicodedata.category(ch).startswith("P"):
        return "punct"
    return "other"


def preprocess(text: str) -> str:
    """Replace Latin letters, digits, and punctuation with reserved tokens.

    Maximal runs of Latin letters collapse to one <LAT> token, digit runs to
    one <NUM> token; each punctuation character becomes its own <PUNC> token.
    CJK characters pass through.  Idempotent: the reserved tokens themselves
    are never reclassified.
    """
    out: list[str] = []
    prev = ""
    for ch in text:
        cls = _char_class(ch)
        if cls == "latin":
            if prev != "latin":
                out.append(LAT_TOKEN)
        elif cls == "digit":
            if prev != "digit":
                out.append(NUM_TOKEN)
        elif cls == "punct":
            out.append(PUNC_TOKEN)
        else:
            out.append(ch)
        prev = cls
    return "".join(out)


def _split_long(words: list[str], max_len: int) -> list[list[str]]:
    """Split a sentence that exceeds max_len characters at word boundaries.

    Each chunk ends after the last punctuation token that fits within
    max_len characters, or else after the last word that fits.
    """
    chunks: list[list[str]] = []
    start = 0
    while True:
        acc = 0
        last_fit = last_punct = start
        for i in range(start, len(words)):
            if acc + len(words[i]) > max_len:
                break
            acc += len(words[i])
            last_fit = i + 1
            if words[i].endswith(PUNC_TOKEN):
                last_punct = i + 1
        else:  # the rest fits
            chunks.append(words[start:])
            return chunks
        cut = last_punct if last_punct > start else last_fit
        if cut == start:
            raise DataError(f"single word longer than max sentence length {max_len}")
        chunks.append(words[start:cut])
        start = cut


def read_lines(path: str | Path | None) -> list[str]:
    """The "\n"-separated lines of a UTF-8 file, or of stdin when path is None.

    An unreadable file or malformed UTF-8 raises DataError naming the file
    and line number.  A final "\n" ends the last line, not an empty one.
    """
    if path is None:
        data, name = sys.stdin.buffer.read(), "<stdin>"
    else:
        try:
            data, name = Path(path).read_bytes(), str(path)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{name}:{lineno}: malformed UTF-8 ({exc})") from exc
    if lines[-1] == "":
        lines.pop()
    return lines


def load_corpus(path: str | Path, era_id: int, max_len: int = Config.max_len) -> RawCorpus:
    """Load a segmented corpus file, preprocessing every word.

    Empty lines are skipped.  Over-long sentences are split (see _split_long).
    """
    sentences: list[RawSentence] = []
    for line in read_lines(path):
        words = [preprocess(w) for w in line.strip("\r").split(" ") if w]
        if not words:
            continue
        for chunk in _split_long(words, max_len):
            sentences.append(RawSentence(tuple(chunk), era_id))
    return RawCorpus(tuple(sentences), source_name=str(path))


class Vocab:
    """Character vocabulary with reserved PAD, UNK, and sentence-sentinel ids.

    Ids 0..2 are reserved; real characters get dense ids from 3 in sorted
    order, so construction is deterministic for a given character set.
    """

    PAD = 0
    UNK = 1
    CLS = 2
    N_RESERVED = 3

    def __init__(self, chars: Iterable[str]):
        self._chars = sorted(set(chars))
        self._ids = {c: i + self.N_RESERVED for i, c in enumerate(self._chars)}

    @classmethod
    def from_corpus(cls, corpus: RawCorpus) -> "Vocab":
        return cls(ch for s in corpus.sentences for w in s.words for ch in w)

    def __len__(self) -> int:
        return len(self._chars) + self.N_RESERVED

    def encode(self, chars: Sequence[str]) -> list[int]:
        """Map characters to ids, UNK for unseen.  Never emits CLS or PAD."""
        return [self._ids.get(c, self.UNK) for c in chars]

    def chars_in_id_order(self) -> tuple[str, ...]:
        return tuple(self._chars)


# ---------------------------------------------------------------------------
# Synthetic bi-era corpus
#
# Two artificial eras over a shared CJK alphabet.  The core cross-era
# ambiguity: each pair type in a fixed set of character pairs is written as
# one two-character word in exactly one era and as two single-character
# words in the other, and which era joins it is an arbitrary per-type fact
# with no surface regularity.  Every sentence carries exactly one
# era-exclusive marker character at a random position, so the era is
# recoverable from sentence context while the join/split decision itself
# is lexical knowledge; filler words are shared between eras but sampled
# with a mild era skew.
# ---------------------------------------------------------------------------

_AMBIG_CHARS = "山水火木金土田石竹虫米贝马牛羊鸟鱼舟云雨风雪江河湖海松柏"
_FILLER_CHARS = "天地人口手足目耳心门车衣食草豆瓜果尺寸斤两升斗古今东西南北"
_MARKER_CHARS = ("之乎者也", "的了吗呢")

_N_PAIR_TYPES = 60
_N_PAIR_HELDOUT = 6
_N_FILLER_TYPES = 48
_N_FILLER_HELDOUT = 6


class _Inventory:
    """Deterministic word-type inventory behind make_synthetic_corpus."""

    def __init__(self, rng: random.Random):
        pairs = [(a, b) for a in _AMBIG_CHARS for b in _AMBIG_CHARS if a != b]
        chosen = rng.sample(pairs, _N_PAIR_TYPES + _N_PAIR_HELDOUT)
        self.pairs = chosen[:_N_PAIR_TYPES]
        self.pairs_heldout = chosen[_N_PAIR_TYPES:]
        # the era in which a pair is one word; it splits in the other era
        self.join_era = {p: rng.randrange(2) for p in chosen}

        singles = list(_FILLER_CHARS)
        bigrams = [a + b for a in _FILLER_CHARS for b in _FILLER_CHARS if a != b]
        fillers = rng.sample(singles, 12) + rng.sample(bigrams, _N_FILLER_TYPES + _N_FILLER_HELDOUT - 12)
        self.fillers = fillers[:_N_FILLER_TYPES]
        self.fillers_heldout = fillers[_N_FILLER_TYPES:]

        # Zipf-ish base weights, mild per-era skew for the filler types.
        self.pair_weights = [1.0 / (i + 2) for i in range(len(self.pairs))]
        skews = [rng.choice((0.2, 0.5, 0.8)) for _ in self.fillers]
        base = [1.0 / (i + 2) for i in range(len(self.fillers))]
        self.filler_weights = (
            [w * s for w, s in zip(base, skews)],
            [w * (1.0 - s) for w, s in zip(base, skews)],
        )
        self.markers = _MARKER_CHARS

    def pick_pair(self, rng: random.Random, heldout_p: float) -> tuple[str, str]:
        if heldout_p > 0 and rng.random() < heldout_p:
            return rng.choice(self.pairs_heldout)
        return rng.choices(self.pairs, weights=self.pair_weights)[0]

    def pick_filler(self, era: int, rng: random.Random, heldout_p: float) -> str:
        if heldout_p > 0 and rng.random() < heldout_p:
            return rng.choice(self.fillers_heldout)
        return rng.choices(self.fillers, weights=self.filler_weights[era])[0]


def _synthetic_sentence(era: int, inv: _Inventory, rng: random.Random, heldout_p: float) -> RawSentence:
    n_slots = rng.randint(4, 9)
    pair_slot = rng.randrange(n_slots)  # at least one ambiguous pair per sentence
    words: list[str] = []
    for slot in range(n_slots):
        if slot == pair_slot or rng.random() < 0.45:
            a, b = inv.pick_pair(rng, heldout_p)
            if inv.join_era[(a, b)] == era:
                words.append(a + b)
            else:
                words.extend((a, b))
        else:
            words.append(inv.pick_filler(era, rng, heldout_p))
    marker = rng.choice(inv.markers[era])
    words.insert(rng.randrange(len(words) + 1), marker)
    return RawSentence(tuple(words), era)


def make_synthetic_corpus(seed: int, n_train: int, n_test: int) -> tuple[RawCorpus, RawCorpus]:
    """Generate deterministic train/test corpora over two artificial eras.

    A fixed set of character bigrams is segmented as one word in one era and
    as two words in the other, with the joining era chosen per bigram type.
    Test sentences occasionally draw held-out word types so the test set has
    out-of-vocabulary mass relative to training.
    """
    if n_train < 1 or n_test < 1:
        raise DataError("corpus sizes must be >= 1")
    rng = random.Random(seed)
    inv = _Inventory(rng)
    train = tuple(
        _synthetic_sentence(i % 2, inv, rng, heldout_p=0.0) for i in range(n_train)
    )
    test = tuple(
        _synthetic_sentence(i % 2, inv, rng, heldout_p=0.08) for i in range(n_test)
    )
    return (
        RawCorpus(train, source_name=f"synthetic-train(seed={seed})"),
        RawCorpus(test, source_name=f"synthetic-test(seed={seed})"),
    )
