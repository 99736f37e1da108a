"""Era discrimination and memory-cell switching.

The sentence vector feeds a linear era classifier.  Its distribution then
drives how the per-era memory outputs are combined (see route): hard
switching routes a single cell, soft switching takes the
probability-weighted sum.
The chosen memory output is fused with the hidden states through one
affine layer, by element-wise sum or by concatenation.  Cells and states
are (T, d_a) matrices, one row per character of a sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, uniform
from .config import SWITCH_MODES


@dataclass
class DiscriminatorParams:
    weight: Tensor  # (d_a, E)
    bias: Tensor  # (1, E)

    @property
    def n_eras(self) -> int:
        return self.weight.shape[1]


@dataclass
class FusionParams:
    weight: Tensor  # (d_a, d_a) for sum fusion, (2*d_a, d_a) for concat
    bias: Tensor  # (1, d_a)


def init_discriminator_params(
    rng: np.random.Generator, d_a: int, n_eras: int
) -> DiscriminatorParams:
    if n_eras < 2:
        raise ValueError(f"need at least 2 eras, got {n_eras}")
    return DiscriminatorParams(weight=uniform(rng, d_a, n_eras), bias=uniform(rng, 1, n_eras))


def init_fusion_params(rng: np.random.Generator, d_a: int, fusion: str) -> FusionParams:
    d_in = fused_input_dim(d_a, fusion)
    return FusionParams(weight=uniform(rng, d_in, d_a), bias=uniform(rng, 1, d_a))


def fused_input_dim(d_a: int, fusion: str) -> int:
    if fusion == "sum":
        return d_a
    if fusion == "concat":
        return 2 * d_a
    raise ValueError(f"unknown fusion mode {fusion!r}")


def era_logits(h_sentence: Tensor, params: DiscriminatorParams) -> Tensor:
    return ad.add(ad.matmul(h_sentence, params.weight), params.bias)


def classify_era(h_sentence: Tensor, params: DiscriminatorParams) -> Tensor:
    """Distribution over eras for one sentence vector: (1, E), sums to 1."""
    return ad.softmax_row(era_logits(h_sentence, params))


def discriminator_nll(h_sentence: Tensor, params: DiscriminatorParams, gold_era: int) -> Tensor:
    """Cross-entropy of the gold era under the classifier: -log p(gold)."""
    if not (0 <= gold_era < params.n_eras):
        raise ValueError(f"era id {gold_era} out of range for {params.n_eras} eras")
    log_p = ad.log_softmax_row(era_logits(h_sentence, params))
    return ad.scale(ad.pick(log_p, 0, gold_era), -1.0)


def predicted_era(era_probs: Tensor) -> int:
    """Argmax era; ties go to the lowest index."""
    return int(np.argmax(era_probs.value[0]))


def route(
    mode: str,
    era_probs: Tensor | None,
    gold_era: int | None = None,
    training: bool = False,
) -> int | None:
    """The era whose memory cell every position reads; None reads them all.

    Hard mode reads a single cell: the gold era during training (argmax is
    not differentiable), the predicted era otherwise.  Soft mode reads
    every cell and weights it by its era probability, keeping the
    classifier in the gradient path.
    """
    if mode not in SWITCH_MODES:
        raise ValueError(f"unknown switch mode {mode!r}")
    if mode == "soft":
        return None
    if training:
        if gold_era is None:
            raise ValueError("hard-mode training requires the gold era")
        return gold_era
    return predicted_era(era_probs)


def switch(
    cell_outputs: Sequence[Tensor],
    era_probs: Tensor,
    mode: str,
    gold_era: int | None = None,
    training: bool = False,
) -> Tensor:
    """Combine the per-era memory outputs into one matrix, as route decides."""
    cells = list(cell_outputs)
    if era_probs.shape != (1, len(cells)):
        raise ValueError(f"{len(cells)} cells but era distribution of shape {era_probs.shape}")
    d = route(mode, era_probs, gold_era, training)
    if d is not None:
        if not (0 <= d < len(cells)):
            raise ValueError(f"era id {d} out of range for {len(cells)} cells")
        return cells[d]
    out = ad.mul(ad.pick(era_probs, 0, 0), cells[0])
    for d in range(1, len(cells)):
        out = ad.add(out, ad.mul(ad.pick(era_probs, 0, d), cells[d]))
    return out


def fuse(cell: Tensor, states: Tensor, params: FusionParams, mode: str) -> Tensor:
    """Affine map of each row of the memory output joined with its hidden state."""
    if mode == "sum":
        joined = ad.add(cell, states)
    elif mode == "concat":
        joined = ad.concat_cols([cell, states])
    else:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if params.weight.shape[0] != joined.shape[1]:
        raise ValueError(
            f"fusion weights expect input {params.weight.shape[0]}, "
            f"{mode} fusion produced {joined.shape[1]}"
        )
    return ad.add(ad.matmul(joined, params.weight), params.bias)
