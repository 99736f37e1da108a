"""Joint training of the segmenter and the era discriminator.

Each sentence builds one autodiff graph: encode, read the per-era
memories, switch, fuse, then score tags with the CRF; the sentence loss is
alpha * tagging_nll + (1 - alpha) * era_nll.  Gradients accumulate over a
batch of such graphs (mean loss), get clipped at a global norm, and feed
Adam.  Everything is seeded and single-threaded so a (config, data) pair
reproduces its checkpoint bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, named_tensors
from .config import ALL_KEYS, Config, parse_config_text
from .corpus import TAG_TO_ID, TAGS, RawCorpus, Vocab, bmes_to_words, preprocess, words_to_bmes
from .crf import CrfParams, emissions, init_crf_params, nll, viterbi
from .encoder import EncoderParams, encode, init_encoder_params
from .errors import ConfigError, DataError, NumericError
from .lexicon import Candidate, EraLexicon, build_lexicon, extract_candidates
from .lexicon import check_words, decode_words, encode_words  # the word-list codec
from .memory import MemoryParams, init_memory_params, read_cell
from .metrics import score_segmentation
from .switcher import (
    DiscriminatorParams,
    FusionParams,
    classify_era,
    discriminator_nll,
    fuse,
    init_discriminator_params,
    init_fusion_params,
    predicted_era,
    route,
    switch,
)

GRAD_CLIP_NORM = 5.0


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class ModelParams:
    encoder: EncoderParams
    memory: MemoryParams
    disc: DiscriminatorParams
    fusion: FusionParams
    crf: CrfParams

    def tensors(self) -> list[Tensor]:
        """Every trainable tensor, in named_tensors' serialization order."""
        return [t for _, t in named_tensors(self)]


def init_model_params(
    config: Config, vocab_size: int, lexicon_sizes: Sequence[int], rng: np.random.Generator
) -> ModelParams:
    if len(lexicon_sizes) != config.eras:
        raise ValueError(f"{len(lexicon_sizes)} lexicons for {config.eras} eras")
    return ModelParams(
        encoder=init_encoder_params(rng, vocab_size, config.d_e, config.d_a),
        memory=init_memory_params(rng, lexicon_sizes, config.d_a),
        disc=init_discriminator_params(rng, config.d_a, config.eras),
        fusion=init_fusion_params(rng, config.d_a, config.fusion),
        crf=init_crf_params(rng, config.d_a),
    )


# ---------------------------------------------------------------------------
# Sentence preparation and graph assembly


@dataclass
class PreparedSentence:
    chars: tuple[str, ...]
    char_ids: list[int]  # sentinel id first, then one id per character
    tags: list[int] | None
    era_id: int | None
    gold_words: tuple[str, ...] | None
    candidates: list[list[list[Candidate]]]  # [era][position][candidate]


def prepare_sentence(
    words: Sequence[str],
    era_id: int | None,
    vocab: Vocab,
    lexicons: Sequence[EraLexicon],
    max_ngram: int,
    with_tags: bool = True,
) -> PreparedSentence:
    chars = tuple(ch for w in words for ch in w)
    tags = None
    if with_tags:
        tags = [TAG_TO_ID[t] for t in words_to_bmes(words)]
    return PreparedSentence(
        chars=chars,
        char_ids=[Vocab.CLS] + vocab.encode(chars),
        tags=tags,
        era_id=era_id,
        gold_words=tuple(words) if with_tags else None,
        candidates=[extract_candidates(chars, lex, max_ngram) for lex in lexicons],
    )


def _assemble_features(
    params: ModelParams,
    prep: PreparedSentence,
    config: Config,
    states: Tensor,
    era: int | None,
    era_probs: Tensor | None,
) -> Tensor:
    """Fused features of the (T, d_a) states, as a (T, d_a) matrix.

    The sentence reads era's memory cell, or with era None (see
    switcher.route) every cell, switched by era_probs.  With the memory
    disabled the cell output is pinned to zero and only the fusion layer runs.
    """
    memory = params.memory
    if not config.memory_enabled:
        cell = Tensor(np.zeros(states.shape))
    elif era is not None:
        cell = read_cell(states, prep.candidates[era], memory.keys[era], memory.values)
    else:
        cells = [
            read_cell(states, prep.candidates[d], memory.keys[d], memory.values)
            for d in range(config.eras)
        ]
        cell = switch(cells, era_probs, config.switch_mode)
    return fuse(cell, states, params.fusion, config.fusion)


def sentence_loss(
    params: ModelParams, prep: PreparedSentence, config: Config
) -> tuple[Tensor, float, float]:
    """Joint training loss for one sentence: (loss, tagging nll, era nll)."""
    if prep.tags is None or prep.era_id is None:
        raise ValueError("training requires gold tags and a gold era")
    if not (0 <= prep.era_id < config.eras):
        raise DataError(f"era id {prep.era_id} out of range for {config.eras} eras")
    h_sent, states = encode(prep.char_ids, params.encoder)
    disc_loss = discriminator_nll(h_sent, params.disc, prep.era_id)
    era = route(config.switch_mode, None, prep.era_id, training=True)
    era_probs = None
    if era is None and config.memory_enabled:
        era_probs = classify_era(h_sent, params.disc)
    feats = _assemble_features(params, prep, config, states, era, era_probs)
    cws_loss = nll(emissions(feats, params.crf), params.crf.transitions, prep.tags)
    loss = ad.add(ad.scale(cws_loss, config.alpha), ad.scale(disc_loss, 1.0 - config.alpha))
    return loss, float(cws_loss.value[0, 0]), float(disc_loss.value[0, 0])


def predict_sentence(
    params: ModelParams, prep: PreparedSentence, config: Config, force_era: int | None = None
) -> tuple[tuple[str, ...], int, np.ndarray]:
    """Words of the Viterbi tagging, predicted era, and the era distribution
    for one sentence.

    force_era overrides the classifier and routes that era's memory.
    """
    h_sent, states = encode(prep.char_ids, params.encoder)
    era_probs = classify_era(h_sent, params.disc)
    if force_era is not None:
        if not (0 <= force_era < config.eras):
            raise ValueError(f"era id {force_era} out of range for {config.eras} eras")
        era = read = force_era
    else:
        era, read = predicted_era(era_probs), route(config.switch_mode, era_probs)
    feats = _assemble_features(params, prep, config, states, read, era_probs)
    emit = emissions(feats, params.crf)
    tags, _ = viterbi(emit.value, params.crf.transitions.value)
    words = bmes_to_words(prep.chars, [TAGS[t] for t in tags])
    return words, era, era_probs.value[0].copy()


# ---------------------------------------------------------------------------
# Optimization


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; state arrays mirror the tensors."""

    def __init__(self, tensors: Sequence[Tensor], lr: float):
        self.tensors = list(tensors)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(t.value) for t in self.tensors]
        self._v = [np.zeros_like(t.value) for t in self.tensors]

    def step(self) -> None:
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1**self.step_count
        correct2 = 1.0 - ADAM_BETA2**self.step_count
        for t, m, v in zip(self.tensors, self._m, self._v):
            g = t.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            t.value -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)

    def zero_grads(self) -> None:
        for t in self.tensors:
            t.zero_grad()


def clip_global_norm(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((t.grad * t.grad).sum()) for t in tensors))
    if not math.isfinite(total):
        raise NumericError("gradient norm is not finite")
    if total > max_norm:
        factor = max_norm / total
        for t in tensors:
            t.grad *= factor
    return total


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    mean_cws: float
    mean_disc: float
    dev_f1: float | None


def split_corpus(corpus: RawCorpus, dev_fraction: float, seed: int) -> tuple[RawCorpus, RawCorpus]:
    """Deterministic shuffle split; dev gets ceil(fraction * n), at least 1."""
    n = len(corpus.sentences)
    if n < 2:
        raise DataError(f"{corpus.source_name}: need at least 2 sentences to split")
    order = np.random.default_rng(seed).permutation(n)
    n_dev = max(1, math.ceil(dev_fraction * n))
    if n_dev >= n:
        raise DataError(f"dev fraction {dev_fraction} leaves no training data")
    dev_idx = set(int(i) for i in order[:n_dev])
    train = tuple(s for i, s in enumerate(corpus.sentences) if i not in dev_idx)
    dev = tuple(s for i, s in enumerate(corpus.sentences) if i in dev_idx)
    return (
        RawCorpus(train, f"{corpus.source_name}[train]"),
        RawCorpus(dev, f"{corpus.source_name}[dev]"),
    )


def _dev_f1(params: ModelParams, prepared: Sequence[PreparedSentence], config: Config) -> float:
    gold = [prep.gold_words for prep in prepared]
    pred = [predict_sentence(params, prep, config)[0] for prep in prepared]
    return score_segmentation(gold, pred).f1


def train(
    train_corpus: RawCorpus,
    dev_corpus: RawCorpus | None,
    config: Config,
    lexicons: Sequence[EraLexicon] | None = None,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> "Checkpoint":
    """Optimize the model; returns the checkpoint with the best dev F1.

    Without a dev corpus the final parameters are checkpointed instead.
    """
    if not train_corpus.sentences:
        raise DataError(f"{train_corpus.source_name}: no training sentences")
    seen_eras = {s.era_id for s in train_corpus.sentences}
    bad = sorted(e for e in seen_eras if not 0 <= e < config.eras)
    if bad:
        raise DataError(f"era ids {bad} out of range for {config.eras} eras")
    missing = sorted(set(range(config.eras)) - seen_eras)
    if missing:
        raise DataError(f"no training sentences for eras {missing}")
    train_words = tuple(
        frozenset(w for s in train_corpus.sentences if s.era_id == d for w in s.words)
        for d in range(config.eras)
    )
    for d, words in enumerate(train_words):
        check_words(words, f"era {d} training words")
    if lexicons is None:
        lexicons = tuple(
            build_lexicon(train_corpus, d, config.ngram_min_count, config.max_ngram)
            for d in range(config.eras)
        )
    lexicons = tuple(lexicons)
    if len(lexicons) != config.eras:
        raise DataError(f"{len(lexicons)} lexicons for {config.eras} eras")
    empty = [d for d, lex in enumerate(lexicons) if len(lex) == 0]
    if empty:
        raise DataError(f"empty dictionary for eras {empty}")

    vocab = Vocab.from_corpus(train_corpus)
    rng = np.random.default_rng(config.seed)
    params = init_model_params(config, len(vocab), [len(l) for l in lexicons], rng)
    prepared = [
        prepare_sentence(s.words, s.era_id, vocab, lexicons, config.max_ngram)
        for s in train_corpus.sentences
    ]
    dev_prepared = None
    if dev_corpus is not None:
        dev_prepared = [
            prepare_sentence(s.words, s.era_id, vocab, lexicons, config.max_ngram)
            for s in dev_corpus.sentences
        ]

    tensors = params.tensors()
    opt = Adam(tensors, config.lr)
    best_f1, best_epoch, best_values = None, config.epochs, None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared))
        sum_loss = sum_cws = sum_disc = 0.0
        for chunk_start in range(0, len(order), config.batch):
            chunk = order[chunk_start : chunk_start + config.batch]
            for idx in chunk:
                loss, cws_value, disc_value = sentence_loss(params, prepared[int(idx)], config)
                total = float(loss.value[0, 0])
                if not math.isfinite(total):
                    raise NumericError(
                        f"loss diverged at epoch {epoch}, sentence {int(idx)}: {total}"
                    )
                sum_loss += total
                sum_cws += cws_value
                sum_disc += disc_value
                ad.scale(loss, 1.0 / len(chunk)).backward()
            clip_global_norm(tensors, GRAD_CLIP_NORM)
            opt.step()
            opt.zero_grads()

        dev_f1 = None
        if dev_prepared is not None:
            dev_f1 = _dev_f1(params, dev_prepared, config)
            if best_f1 is None or dev_f1 > best_f1:
                best_f1, best_epoch = dev_f1, epoch
                best_values = [t.value.copy() for t in tensors]
        n = len(prepared)
        if on_epoch is not None:
            on_epoch(EpochStats(epoch, sum_loss / n, sum_cws / n, sum_disc / n, dev_f1))

    if best_values is not None:
        for t, value in zip(tensors, best_values):
            t.value[...] = value
    return Checkpoint(
        config=config,
        vocab=vocab,
        lexicons=lexicons,
        train_words=train_words,
        params=params,
        epoch=best_epoch,
        dev_f1=best_f1,
    )


# ---------------------------------------------------------------------------
# Inference on raw text


@dataclass(frozen=True)
class Segmentation:
    words: tuple[str, ...]
    era: int
    era_probs: tuple[float, ...]


def segment(text: str, ckpt: "Checkpoint", force_era: int | None = None) -> Segmentation:
    """Strip, preprocess, tag, and split one sentence.

    The era comes from the classifier unless force_era pins the routing.
    """
    clean = preprocess(text.strip())
    if not clean:
        raise DataError("sentence is empty after preprocessing")
    prep = prepare_sentence(
        [clean], None, ckpt.vocab, ckpt.lexicons, ckpt.config.max_ngram, with_tags=False
    )
    words, era, probs = predict_sentence(ckpt.params, prep, ckpt.config, force_era=force_era)
    return Segmentation(words=words, era=era, era_probs=tuple(float(p) for p in probs))


# ---------------------------------------------------------------------------
# Checkpoint serialization

MAGIC = b"XWSM"
FORMAT_VERSION = 2
DIGEST_SIZE = 32  # SHA-256 of every preceding byte, appended as a trailer


def _pack_section(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError("checkpoint truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def words(self) -> list[str]:
        return decode_words(self.text().split("\n"))


@dataclass
class Checkpoint:
    """Everything needed to run inference and evaluation, reproducibly.

    train_words holds each era's raw training word types (the lexicons also
    contain frequency n-grams, so they cannot define out-of-vocabulary).
    """

    config: Config
    vocab: Vocab
    lexicons: tuple[EraLexicon, ...]
    train_words: tuple[frozenset[str], ...]
    params: ModelParams
    epoch: int
    dev_f1: float | None

    def to_bytes(self) -> bytes:
        dev_f1 = "NA" if self.dev_f1 is None else repr(self.dev_f1)
        meta = f"epoch={self.epoch}\ndev_f1={dev_f1}\n"
        out = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
        out.append(_pack_section(self.config.to_text().encode("utf-8")))
        out.append(_pack_section(meta.encode("utf-8")))
        out.append(_pack_section("".join(self.vocab.chars_in_id_order()).encode("utf-8")))
        for lex in self.lexicons:
            out.append(_pack_section(lex.serialize()))
        for words in self.train_words:
            out.append(_pack_section(encode_words(words)))
        named = list(named_tensors(self.params))
        out.append(struct.pack("<I", len(named)))
        for name, tensor in named:
            out.append(_pack_section(name.encode("utf-8")))
            rows, cols = tensor.shape
            out.append(struct.pack("<II", rows, cols))
            out.append(tensor.value.astype("<f8").tobytes())
        body = b"".join(out)
        return body + hashlib.sha256(body).digest()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Parse a checkpoint; every decode or parse failure is a DataError.

        The magic bytes and the version are checked first, then the digest
        over the whole file; only a file that matches its digest is parsed.
        """
        reader = _Reader(data)
        if reader.take(4) != MAGIC:
            raise DataError("not a checkpoint file: bad magic bytes")
        version = reader.u32()
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        body, digest = data[:-DIGEST_SIZE], data[-DIGEST_SIZE:]
        if len(body) < reader.pos or hashlib.sha256(body).digest() != digest:
            raise DataError("checkpoint corrupt: SHA-256 digest mismatch")
        reader.data = body  # the sections end where the digest starts
        try:
            return cls._parse(reader)
        except (ValueError, ConfigError) as exc:  # includes UnicodeDecodeError
            raise DataError(f"checkpoint corrupt: {exc}") from exc

    @classmethod
    def _parse(cls, reader: _Reader) -> "Checkpoint":
        config = parse_config_text(reader.text(), allowed=ALL_KEYS)
        meta = dict(line.split("=", 1) for line in reader.text().split("\n") if line)
        vocab = Vocab(reader.text())
        lexicons = tuple(EraLexicon.from_words(d, reader.words()) for d in range(config.eras))
        train_words = tuple(frozenset(reader.words()) for _ in range(config.eras))

        params = init_model_params(
            config, len(vocab), [len(l) for l in lexicons], np.random.default_rng(0)
        )
        expected = list(named_tensors(params))
        n_tensors = reader.u32()
        if n_tensors != len(expected):
            raise DataError(f"checkpoint has {n_tensors} tensors, model needs {len(expected)}")
        for name, tensor in expected:
            stored_name = reader.text()
            if stored_name != name:
                raise DataError(f"checkpoint tensor order mismatch: {stored_name!r} vs {name!r}")
            rows, cols = struct.unpack("<II", reader.take(8))
            if (rows, cols) != tensor.shape:
                raise DataError(f"tensor {name}: stored shape {(rows, cols)} vs {tensor.shape}")
            raw = reader.take(rows * cols * 8)
            tensor.value[...] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
            if not np.isfinite(tensor.value).all():
                raise DataError(f"tensor {name}: non-finite value")
        if reader.pos != len(reader.data):
            raise DataError("checkpoint has trailing bytes")

        epoch = int(meta.get("epoch", "0"))
        dev_raw = meta.get("dev_f1", "NA")
        dev_f1 = None if dev_raw == "NA" else float(dev_raw)
        return cls(config, vocab, lexicons, train_words, params, epoch, dev_f1)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        return cls.from_bytes(data)
