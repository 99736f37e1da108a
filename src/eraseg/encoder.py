"""Bidirectional recurrent character encoder.

Characters are embedded, then a gated recurrent layer (Cho et al., 2014)
runs over the sequence in both directions; each position's representation
concatenates the two directional states.  A sentinel token is prepended to
every sentence and its combined state serves as the sentence vector, since
the backward direction ends there after reading the whole sentence.
A batch of sentences is packed, their rows one after another, and both
directions over all of them are one autodiff node, with backpropagation
through time written by hand.  Inference runs the same node on a batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, uniform


@dataclass
class GruCell:
    """One direction's recurrence; update and reset gates share a fused matrix."""

    w_gates: Tensor  # (d_in, 2k): columns [update | reset]
    u_gates: Tensor  # (k, 2k)
    b_gates: Tensor  # (1, 2k)
    w_cand: Tensor  # (d_in, k)
    u_cand: Tensor  # (k, k)
    b_cand: Tensor  # (1, k)

    @classmethod
    def create(cls, rng: np.random.Generator, d_in: int, k: int) -> "GruCell":
        return cls(
            w_gates=uniform(rng, d_in, 2 * k),
            u_gates=uniform(rng, k, 2 * k),
            b_gates=uniform(rng, 1, 2 * k),
            w_cand=uniform(rng, d_in, k),
            u_cand=uniform(rng, k, k),
            b_cand=uniform(rng, 1, k),
        )


_GRU_WEIGHTS = tuple(f.name for f in fields(GruCell))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: exp() never overflows.
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def _by_direction(steps: np.ndarray) -> np.ndarray:
    """(steps, 2, B, w) -> (2, steps * B, w): one row per step of each direction."""
    return steps.swapaxes(0, 1).reshape(2, -1, steps.shape[-1])


def run_bigru(x: Tensor, lengths: Sequence[int], fwd: GruCell, bwd: GruCell) -> Tensor:
    """Both directions' states over a packed batch, (N, d_in) -> (N, 2k), as one node.

    x holds the batch's sentences one after another, lengths[b] rows for
    sentence b.  Each output row is the forward state after reading that
    row, from a zero state before the sentence's first row, then the
    reverse state, from a zero state after its last row.  With update and
    reset gates z and r, cand = tanh(x_t W_c + (r * h) U_c + b_c) and
    h' = (1 - z) * cand + z * h.

    One loop over the longest sentence steps a (2, B, k) state: both
    directions of every sentence.  The reverse direction reads each
    sentence reversed, so in both directions a sentence's padded steps come
    after all its real ones: the forward pass needs no mask, and the
    backward pass, which runs the steps in the other order, carries exactly
    zero gradient through them.  Each weight gradient is one matmul after
    that loop.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    n_rows = x.shape[0]
    k = fwd.u_cand.shape[0]
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n_rows:
        raise ValueError(f"sentence lengths {lengths.tolist()} do not pack {n_rows} rows")
    cells = (fwd, bwd)
    stacked = [np.array([getattr(c, name).value for c in cells]) for name in _GRU_WEIGHTS]
    w_gates, u_gates, b_gates, w_cand, u_cand, b_cand = stacked  # each (2, ...)
    n_steps, batch = int(lengths.max()), len(lengths)
    step = np.arange(n_steps)[:, None, None]
    direction = np.arange(2)[:, None]
    # rows[t, d, b]: the row direction d of sentence b reads at step t, its
    # own row t forward and row T - 1 - t in reverse.  A padded step reads
    # row -1: the last row of x, finite, in the forward pass, and an
    # all-zero extra row of each gradient buffer in the backward.
    offset = step + direction * (lengths - 1 - 2 * step)
    rows = np.where(step < lengths, np.cumsum(lengths) - lengths + offset, -1)
    x_gates = (x.value @ w_gates + b_gates)[direction, rows]  # (steps, 2, B, 2k)
    x_cand = (x.value @ w_cand + b_cand)[direction, rows]  # (steps, 2, B, k)
    states = np.zeros((n_steps + 1, 2, batch, k))  # states[t]: the state step t starts from
    gates = np.empty((n_steps, 2, batch, 2 * k))
    cand = np.empty((n_steps, 2, batch, k))
    h = states[0]
    for t in range(n_steps):
        g = _sigmoid(x_gates[t] + h @ u_gates, out=gates[t])
        c = np.tanh(x_cand[t] + (g[..., k:] * h) @ u_cand, out=cand[t])
        h = np.add(c, g[..., :k] * (h - c), out=states[t + 1])
    prev, z, r = states[:-1], gates[..., :k], gates[..., k:]
    out = np.empty((n_rows + 1, 2, k))
    out[rows, direction] = states[1:]
    out = out[:-1].reshape(n_rows, 2 * k)

    def backward(g_out):
        g_steps = np.concatenate([g_out, np.zeros((1, 2 * k))]).reshape(-1, 2, k)[rows, direction]
        d_gates = np.empty(gates.shape)  # gradient of each step's gate pre-activations
        d_cand = np.empty(cand.shape)  # ... and of its candidate pre-activation
        gate_slope = gates * (1.0 - gates)
        cand_slope = 1.0 - cand * cand
        keep, swing = 1.0 - z, prev - cand
        u_gates_t, u_cand_t = u_gates.swapaxes(1, 2), u_cand.swapaxes(1, 2)
        dh = np.zeros((2, batch, k))
        for t in range(n_steps - 1, -1, -1):
            dh = dh + g_steps[t]
            dc = np.multiply(dh * keep[t], cand_slope[t], out=d_cand[t])
            d_rh = dc @ u_cand_t  # gradient of r * prev
            dg = d_gates[t]
            np.multiply(dh, swing[t], out=dg[..., :k])
            np.multiply(d_rh, prev[t], out=dg[..., k:])
            dg *= gate_slope[t]
            dh = dh * z[t] + d_rh * r[t] + dg @ u_gates_t
        # The step gradients moved back to x's rows, per direction.
        packed_gates = np.zeros((2, n_rows + 1, 2 * k))
        packed_cand = np.zeros((2, n_rows + 1, k))
        packed_gates[direction, rows] = d_gates
        packed_cand[direction, rows] = d_cand
        packed_gates, packed_cand = packed_gates[:, :-1], packed_cand[:, :-1]
        dx = packed_gates @ w_gates.swapaxes(1, 2) + packed_cand @ w_cand.swapaxes(1, 2)
        x.grad += dx.sum(axis=0)
        grads = (
            x.value.T @ packed_gates,
            _by_direction(prev).swapaxes(1, 2) @ _by_direction(d_gates),
            packed_gates.sum(axis=1, keepdims=True),
            x.value.T @ packed_cand,
            _by_direction(r * prev).swapaxes(1, 2) @ _by_direction(d_cand),
            packed_cand.sum(axis=1, keepdims=True),
        )
        for name, grad in zip(_GRU_WEIGHTS, grads):
            for d, cell in enumerate(cells):
                getattr(cell, name).grad += grad[d]

    return Tensor(out, (x, *vars(fwd).values(), *vars(bwd).values()), backward)


@dataclass
class EncoderParams:
    embeddings: Tensor  # (|V|, d_e)
    fwd: GruCell
    bwd: GruCell


def init_encoder_params(
    rng: np.random.Generator, vocab_size: int, d_e: int, d_a: int
) -> EncoderParams:
    if d_a % 2 != 0:
        raise ValueError(f"d_a must be even to split across directions, got {d_a}")
    if vocab_size < 1 or d_e < 1:
        raise ValueError(f"bad encoder dims: vocab={vocab_size}, d_e={d_e}")
    k = d_a // 2
    return EncoderParams(
        embeddings=uniform(rng, vocab_size, d_e),
        fwd=GruCell.create(rng, d_e, k),
        bwd=GruCell.create(rng, d_e, k),
    )


def encode(
    sentences: Sequence[Sequence[int]], params: EncoderParams
) -> tuple[Tensor, Tensor]:
    """Run both directions over each sentence's [sentinel, c_1..c_T] ids.

    Returns (H, S): the (B, d_a) sentence vectors, row b read at sentence
    b's sentinel, and the packed (sum of T, d_a) character states, sentence
    after sentence, forward half first.  Pure given params.
    """
    lengths = [len(ids) for ids in sentences]
    if not lengths or min(lengths) < 2:
        raise ValueError("empty sentence: need at least one character after the sentinel")
    x = ad.gather_rows(params.embeddings, [i for ids in sentences for i in ids])
    both = run_bigru(x, lengths, params.fwd, params.bwd)
    is_char = np.ones(both.shape[0], dtype=bool)
    sentinels = np.cumsum(lengths) - lengths
    is_char[sentinels] = False
    return ad.gather_rows(both, sentinels), ad.gather_rows(both, np.flatnonzero(is_char))
