"""Per-era key-value memories read by attention.

For character i and era d, the candidate words covering i supply the keys
(one embedding per dictionary word) and their boundary value classes pick
rows of a shared value table.  The character's hidden state attends over
the keys and the cell output is the probability-weighted sum of the value
embeddings.  A character with no candidates reads a zero vector, neutral
under both fusion modes.

A read covers a whole sentence, or a packed batch of them, over the padded
(T, width) candidate slots that lexicon.extract_candidates builds once per
sentence: memory grows with T * width, not with T * (candidates in the
sentence).  It is one autodiff node: a numpy forward pass over the slots
(padded slots are masked out of the softmax) whose backward pass is the
softmax-attention gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, uniform
from .lexicon import N_VALUE_CLASSES, CandidateSlots


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


def _check_rows(states: Tensor, slots: CandidateSlots) -> None:
    t_len = len(slots.mask)
    if states.shape[0] != t_len:
        raise ValueError(f"{states.shape[0]} states but candidates for {t_len} positions")


def _softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of each row over the slots the mask keeps; the rest get 0 and never reach exp."""
    top = np.max(scores, axis=1, keepdims=True, where=mask, initial=-np.inf)
    weights = np.exp(scores - top, where=mask, out=np.zeros(scores.shape))
    return np.divide(weights, weights.sum(axis=1, keepdims=True), where=mask, out=weights)


def attend(states: Tensor, slots: CandidateSlots, key_table: Tensor) -> np.ndarray:
    """Attention weights of each character over its candidates' keys: (T, width).

    Row i is the softmax of h_i dot each candidate's key, zero in the padded
    slots; a character with no candidates gets a zero row.
    """
    _check_rows(states, slots)
    scores = np.einsum("td,twd->tw", states.value, key_table.value[slots.word_ids])
    return _softmax(scores, slots.mask)


def read_cell(
    states: Tensor,
    slots: CandidateSlots,
    key_table: Tensor | Sequence[Tensor],
    value_table: Tensor,
    table_of_row: np.ndarray | None = None,
) -> Tensor:
    """A memory read for every row of states, (R, d_a) from (R, d_a) states, as one node.

    key_table is one era's key table, or with table_of_row one table per
    era: row i's candidate ids then index key_table[table_of_row[i]], so a
    batch whose sentences each read their own era is one read.  The
    backward pass is the softmax-attention gradient: with dp the output
    gradient's dot product with each slot's value row, a slot's score
    gradient is p * (dp - sum over the row of p * dp), and it flows to the
    state and to the slot's key.
    """
    _check_rows(states, slots)
    word_ids, classes, mask = slots
    if table_of_row is None:
        tables, picks = (key_table,), [slice(None)]
    else:
        tables = tuple(key_table)
        picks = [table_of_row == d for d in range(len(tables))]
    keys = np.empty(word_ids.shape + (value_table.shape[1],))  # (R, width, d_a)
    for table, picked in zip(tables, picks):
        keys[picked] = table.value[word_ids[picked]]
    weights = _softmax(np.einsum("td,twd->tw", states.value, keys), mask)
    rows = np.arange(len(mask))[:, None]
    class_mass = np.zeros((len(mask), N_VALUE_CLASSES))  # row i's weight on each value class
    np.add.at(class_mass, (rows, classes), weights)  # padded slots add 0 to class 0

    def backward(g):
        value_table.grad += class_mass.T @ g
        dp = (g @ value_table.value.T)[rows, classes]
        ds = weights * (dp - (dp * weights).sum(axis=1, keepdims=True))
        states.grad += np.einsum("tw,twd->td", ds, keys)
        d_keys = ds[..., None] * states.value[:, None, :]
        for table, picked in zip(tables, picks):
            np.add.at(table.grad, word_ids[picked], d_keys[picked])

    return Tensor(class_mass @ value_table.value, (states, *tables, value_table), backward)
