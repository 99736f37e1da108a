"""Bidirectional recurrent character encoder.

Characters are embedded, then a gated recurrent layer (Cho et al., 2014)
runs over the sequence in both directions; each position's representation
concatenates the two directional states.  A sentinel token is prepended to
every sentence and its combined state serves as the sentence vector, since
the backward direction ends there after reading the whole sentence.
Each direction is one autodiff node, with backpropagation through time
written by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: exp() never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def run_gru(x: Tensor, cell: GruCell, reverse: bool = False) -> Tensor:
    """One direction's states over the rows of x, (n, d_in) -> (n, k), as one node.

    Row t is the state after reading row t, from a zero state before row 0
    (before row n - 1 when reverse).  With update and reset gates z and r,
    cand = tanh(x_t W_c + (r * h) U_c + b_c) and h' = (1 - z) * cand + z * h.
    The backward pass runs the steps in the other order; each weight
    gradient is one matmul after that loop.
    """
    n, k = x.shape[0], cell.u_cand.shape[0]
    steps = range(n - 1, -1, -1) if reverse else range(n)
    x_gates = x.value @ cell.w_gates.value + cell.b_gates.value  # (n, 2k)
    x_cand = x.value @ cell.w_cand.value + cell.b_cand.value  # (n, k)
    u_gates, u_cand = cell.u_gates.value, cell.u_cand.value
    prev = np.empty((n, k))  # the state each step starts from
    gates = np.empty((n, 2 * k))
    cand = np.empty((n, k))
    out = np.empty((n, k))
    h = np.zeros(k)
    for t in steps:
        prev[t] = h
        gates[t] = g = _sigmoid(x_gates[t] + h @ u_gates)
        cand[t] = c = np.tanh(x_cand[t] + (g[k:] * h) @ u_cand)
        out[t] = h = c + g[:k] * (h - c)
    z, r = gates[:, :k], gates[:, k:]

    def backward(g_out):
        d_gates = np.empty((n, 2 * k))  # gradient of each step's gate pre-activations
        d_cand = np.empty((n, k))  # ... and of its candidate pre-activation
        gate_slope = gates * (1.0 - gates)
        cand_slope = 1.0 - cand * cand
        dh = np.zeros(k)
        for t in reversed(steps):
            dh = dh + g_out[t]
            d_cand[t] = dc = dh * (1.0 - z[t]) * cand_slope[t]
            d_rh = dc @ u_cand.T  # gradient of r * prev
            d_gates[t, :k] = dh * (prev[t] - cand[t])
            d_gates[t, k:] = d_rh * prev[t]
            d_gates[t] *= gate_slope[t]
            dh = dh * z[t] + d_rh * r[t] + d_gates[t] @ u_gates.T
        x.grad += d_gates @ cell.w_gates.value.T + d_cand @ cell.w_cand.value.T
        cell.w_gates.grad += x.value.T @ d_gates
        cell.u_gates.grad += prev.T @ d_gates
        cell.b_gates.grad += d_gates.sum(axis=0, keepdims=True)
        cell.w_cand.grad += x.value.T @ d_cand
        cell.u_cand.grad += (r * prev).T @ d_cand
        cell.b_cand.grad += d_cand.sum(axis=0, keepdims=True)

    return Tensor(out, (x, *vars(cell).values()), backward)


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


def encode(char_ids: Sequence[int], params: EncoderParams) -> tuple[Tensor, Tensor]:
    """Run both directions over [sentinel, c_1..c_T].

    Returns (H, S): the (1, d_a) sentence vector from the sentinel position
    and the (T, d_a) matrix whose row i is character i's state, forward
    half first.  Pure given params.
    """
    ids = list(char_ids)
    if len(ids) < 2:
        raise ValueError("empty sentence: need at least one character after the sentinel")
    x = ad.gather_rows(params.embeddings, ids)
    both = ad.concat_cols([run_gru(x, params.fwd), run_gru(x, params.bwd, reverse=True)])
    return ad.gather_rows(both, [0]), ad.gather_rows(both, range(1, len(ids)))
