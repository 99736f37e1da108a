"""Per-era key-value memories read by attention.

For character i and era d, the candidate words covering i supply the keys
(one embedding per dictionary word) and their boundary value classes pick
rows of a shared value table.  The character's hidden state attends over
the keys and the cell output is the probability-weighted sum of the value
embeddings.  A character with no candidates reads a zero vector, neutral
under both fusion modes.

A read covers a whole sentence, its candidate lists padded to the longest
one: memory grows with T * width, not with T * (candidates in the sentence).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, uniform
from .lexicon import N_VALUE_CLASSES, Candidate

CandidateLists = Sequence[Sequence[Candidate]]  # [position][candidate]


@dataclass
class MemoryParams:
    key_tables: tuple[Tensor, ...]  # one (|D_d|, d_a) table per era
    value_table: Tensor  # (4, d_a), shared across eras

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [(f"memory.keys.{d}", t) for d, t in enumerate(self.key_tables)]
        out.append(("memory.values", self.value_table))
        return out


def init_memory_params(
    rng: np.random.Generator, lexicon_sizes: Sequence[int], d_a: int
) -> MemoryParams:
    if not lexicon_sizes:
        raise ValueError("need at least one era lexicon")
    if any(n < 1 for n in lexicon_sizes):
        raise ValueError(f"every era needs a nonempty lexicon, got sizes {list(lexicon_sizes)}")
    return MemoryParams(
        key_tables=tuple(uniform(rng, n, d_a) for n in lexicon_sizes),
        value_table=uniform(rng, N_VALUE_CLASSES, d_a),
    )


def _pad(states: Tensor, candidates_per_position: CandidateLists) -> tuple[np.ndarray, ...]:
    """(word ids, value classes, mask), each (T, width); padded slots are False in the mask."""
    t_len = len(candidates_per_position)
    if states.shape[0] != t_len:
        raise ValueError(f"{states.shape[0]} states but candidates for {t_len} positions")
    lengths = np.fromiter(map(len, candidates_per_position), dtype=np.intp, count=t_len)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    slots = np.zeros(mask.shape + (2,), dtype=np.intp)
    # Boolean-mask assignment fills row-major, the order the candidates come in.
    flat = chain.from_iterable(chain.from_iterable(candidates_per_position))
    slots[mask] = np.fromiter(flat, dtype=np.intp).reshape(-1, 2)
    return slots[..., 0], slots[..., 1], mask


def _block_sums(blocks: int, width: int) -> Tensor:
    """(blocks * width, blocks) constant; right-multiplying sums each run of width columns."""
    return Tensor(np.repeat(np.eye(blocks), width, axis=0))


def _attention(states: Tensor, word_ids: np.ndarray, mask: np.ndarray, key_table: Tensor) -> Tensor:
    """attend's weights from the padded word ids and mask."""
    t_len, width = mask.shape
    if width == 0:
        return Tensor(np.zeros((t_len, 0)))
    keys = ad.concat_cols([ad.gather_rows(key_table, word_ids[:, j]) for j in range(width)])
    dots = ad.mul(ad.concat_cols([states] * width), keys)
    scores = ad.matmul(dots, _block_sums(width, key_table.shape[1]))
    # -inf takes a padded slot out of its row's softmax; a row with no
    # candidates keeps finite scores and is zeroed by the mask instead.
    shift = np.where(mask | ~mask.any(axis=1, keepdims=True), 0.0, -np.inf)
    return ad.mul(ad.softmax_row(ad.add(scores, Tensor(shift))), Tensor(mask))


def attend(states: Tensor, candidates_per_position: CandidateLists, key_table: Tensor) -> Tensor:
    """Attention weights of each character over its candidates' keys: (T, width).

    Row i is the softmax of h_i dot each candidate's key, zero-padded to the
    longest candidate list; a character with no candidates gets a zero row.
    """
    word_ids, _, mask = _pad(states, candidates_per_position)
    return _attention(states, word_ids, mask, key_table)


def read_cell(
    states: Tensor, candidates_per_position: CandidateLists, key_table: Tensor, value_table: Tensor
) -> Tensor:
    """One era's memory output for a whole sentence: (T, d_a) from (T, d_a) states."""
    word_ids, classes, mask = _pad(states, candidates_per_position)
    weights = _attention(states, word_ids, mask, key_table)
    # class_mass[i, c], character i's weight on value class c, scales value
    # row c.  Column c * width + j of in_class: slot j holds value class c.
    in_class = classes[:, None, :] == np.arange(N_VALUE_CLASSES)[None, :, None]
    spread = ad.mul(ad.concat_cols([weights] * N_VALUE_CLASSES), Tensor(in_class.reshape(len(mask), -1)))
    class_mass = ad.matmul(spread, _block_sums(N_VALUE_CLASSES, mask.shape[1]))
    return ad.matmul(class_mass, value_table)
