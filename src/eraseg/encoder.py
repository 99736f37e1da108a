"""Bidirectional recurrent character encoder.

Characters are embedded, then a gated recurrent layer runs over the
sequence in both directions; each position's representation concatenates
the two directional states.  A sentinel token is prepended to every
sentence and its combined state serves as the sentence vector, since the
backward pass ends there after reading the whole sentence.
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

    @property
    def hidden_size(self) -> int:
        return self.u_cand.shape[0]

    def named_tensors(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_gates", self.w_gates),
            (f"{prefix}.u_gates", self.u_gates),
            (f"{prefix}.b_gates", self.b_gates),
            (f"{prefix}.w_cand", self.w_cand),
            (f"{prefix}.u_cand", self.u_cand),
            (f"{prefix}.b_cand", self.b_cand),
        ]

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance one position: (1, d_in) input, (1, k) state -> (1, k)."""
        k = self.hidden_size
        pre = ad.add(ad.add(ad.matmul(x, self.w_gates), ad.matmul(h, self.u_gates)), self.b_gates)
        gates = ad.sigmoid(pre)
        z = ad.slice_cols(gates, 0, k)
        r = ad.slice_cols(gates, k, 2 * k)
        cand = ad.tanh(
            ad.add(
                ad.add(ad.matmul(x, self.w_cand), ad.matmul(ad.mul(r, h), self.u_cand)),
                self.b_cand,
            )
        )
        # h' = (1 - z) * cand + z * h, written as cand + z * (h - cand)
        return ad.add(cand, ad.mul(z, ad.sub(h, cand)))


@dataclass
class EncoderParams:
    embeddings: Tensor  # (|V|, d_e)
    fwd: GruCell
    bwd: GruCell

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("encoder.embeddings", self.embeddings)]
        out.extend(self.fwd.named_tensors("encoder.fwd"))
        out.extend(self.bwd.named_tensors("encoder.bwd"))
        return out


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
    n = len(ids)
    k = params.fwd.hidden_size
    x_rows = ad.gather_rows(params.embeddings, ids)
    xs = [ad.gather_rows(x_rows, [t]) for t in range(n)]

    h = Tensor(np.zeros((1, k)))
    fwd_states = []
    for t in range(n):
        h = params.fwd.step(xs[t], h)
        fwd_states.append(h)

    h = Tensor(np.zeros((1, k)))
    bwd_states = [None] * n
    for t in range(n - 1, -1, -1):
        h = params.bwd.step(xs[t], h)
        bwd_states[t] = h

    states = ad.concat_cols([ad.concat_rows(fwd_states[1:]), ad.concat_rows(bwd_states[1:])])
    return ad.concat_cols([fwd_states[0], bwd_states[0]]), states
