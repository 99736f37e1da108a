"""Per-era key-value memories read by attention.

For character i and era d, the candidate words covering i supply the keys
(one embedding per dictionary word) and their boundary value classes pick
rows of a shared value table.  The character's hidden state attends over
the keys and the cell output is the probability-weighted sum of the value
embeddings.  A character with no candidates reads a zero vector, neutral
under both fusion modes.

A read covers a whole sentence, its candidate lists padded to the longest
one: memory grows with T * width, not with T * (candidates in the sentence).
It is one autodiff node, a numpy forward pass over the padded (T, width)
slots (padded slots are masked out of the softmax) whose backward pass is
the softmax-attention gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .autodiff import Tensor, uniform
from .lexicon import N_VALUE_CLASSES, Candidate

CandidateLists = Sequence[Sequence[Candidate]]  # [position][candidate]


@dataclass
class MemoryParams:
    keys: tuple[Tensor, ...]  # one (|D_d|, d_a) key table per era
    values: Tensor  # (4, d_a) value table, shared across eras


def init_memory_params(
    rng: np.random.Generator, lexicon_sizes: Sequence[int], d_a: int
) -> MemoryParams:
    if not lexicon_sizes:
        raise ValueError("need at least one era lexicon")
    if any(n < 1 for n in lexicon_sizes):
        raise ValueError(f"every era needs a nonempty lexicon, got sizes {list(lexicon_sizes)}")
    return MemoryParams(
        keys=tuple(uniform(rng, n, d_a) for n in lexicon_sizes),
        values=uniform(rng, N_VALUE_CLASSES, d_a),
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


def _softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of each row over the slots the mask keeps; the rest get 0 and never reach exp."""
    top = np.max(scores, axis=1, keepdims=True, where=mask, initial=-np.inf)
    weights = np.exp(scores - top, where=mask, out=np.zeros(scores.shape))
    return np.divide(weights, weights.sum(axis=1, keepdims=True), where=mask, out=weights)


def attend(
    states: Tensor, candidates_per_position: CandidateLists, key_table: Tensor
) -> np.ndarray:
    """Attention weights of each character over its candidates' keys: (T, width).

    Row i is the softmax of h_i dot each candidate's key, zero-padded to the
    longest candidate list; a character with no candidates gets a zero row.
    """
    word_ids, _, mask = _pad(states, candidates_per_position)
    scores = np.einsum("td,twd->tw", states.value, key_table.value[word_ids])
    return _softmax(scores, mask)


def read_cell(
    states: Tensor, candidates_per_position: CandidateLists, key_table: Tensor, value_table: Tensor
) -> Tensor:
    """One era's memory output for a whole sentence, (T, d_a) from (T, d_a) states, as one node.

    The backward pass is the softmax-attention gradient: with dp the output
    gradient's dot product with each slot's value row, a slot's score
    gradient is p * (dp - sum over the row of p * dp), and it flows to the
    state and to the slot's key.
    """
    word_ids, classes, mask = _pad(states, candidates_per_position)
    keys = key_table.value[word_ids]  # (T, width, d_a)
    weights = _softmax(np.einsum("td,twd->tw", states.value, keys), mask)
    rows = np.arange(len(mask))[:, None]
    class_mass = np.zeros((len(mask), N_VALUE_CLASSES))  # row i's weight on each value class
    np.add.at(class_mass, (rows, classes), weights)  # padded slots add 0 to class 0

    def backward(g):
        value_table.grad += class_mass.T @ g
        dp = (g @ value_table.value.T)[rows, classes]
        ds = weights * (dp - (dp * weights).sum(axis=1, keepdims=True))
        states.grad += np.einsum("tw,twd->td", ds, keys)
        np.add.at(key_table.grad, word_ids, ds[..., None] * states.value[:, None, :])

    return Tensor(class_mass @ value_table.value, (states, key_table, value_table), backward)
