"""Era discrimination and memory-cell switching.

The sentence vector feeds a linear era classifier.  Its distribution then
drives how the per-era memory outputs are combined (see route): hard
switching routes a single cell, soft switching takes the
probability-weighted sum.  The era loss and the soft sum are one autodiff
node each, with a hand-written backward pass.
The chosen memory output is fused with the hidden states through one
affine layer, by element-wise sum or by concatenation.  Cells and states
are (T, d_a) matrices, one row per character of a sentence or of a packed
batch of sentences.
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


def classify_era(logits: Tensor) -> Tensor:
    """Distribution over eras from each row of (B, E) era logits; each row sums to 1."""
    return ad.softmax_row(logits)


def discriminator_nll(logits: Tensor, gold_eras: int | Sequence[int]) -> Tensor:
    """Cross-entropy of each sentence's gold era under its row of the (B, E)
    era logits, -log p(gold), as one (B, 1) node.

    Its backward pass gives each row of logits the softmax minus the
    one-hot gold era.
    """
    eras = np.asarray(gold_eras, dtype=np.intp).reshape(-1)
    n, n_eras = logits.shape
    if len(eras) != n:
        raise ValueError(f"{len(eras)} gold eras for {n} rows of era logits")
    bad = eras[(eras < 0) | (eras >= n_eras)]
    if bad.size:
        raise ValueError(f"era id {bad[0]} out of range for {n_eras} eras")
    rows = np.arange(n)
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)

    def backward(g):
        d_logits = e / total
        d_logits[rows, eras] -= 1.0
        logits.grad += g * d_logits

    return Tensor(np.log(total) - shifted[rows, eras][:, None], (logits,), backward)


def predicted_era(era_probs: Tensor) -> int:
    """Argmax era of one (1, E) distribution; ties go to the lowest index."""
    if era_probs.shape[0] != 1:
        raise ValueError(f"one era distribution expected, got shape {era_probs.shape}")
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
    """Combine the per-era memory outputs into one matrix, as route decides.

    era_probs holds one distribution per row of the cells, or a single
    (1, E) one for them all.  Soft mode's sum over eras is one node.  Its
    backward pass gives each cell p_d times the output gradient, and each
    p_d the cell's dot product with that gradient, row by row.
    """
    cells = list(cell_outputs)
    n_rows = cells[0].shape[0] if cells else 0
    if era_probs.shape[1] != len(cells) or era_probs.shape[0] not in (1, n_rows):
        raise ValueError(f"{len(cells)} cells but era distribution of shape {era_probs.shape}")
    d = route(mode, era_probs, gold_era, training)
    if d is not None:
        if not (0 <= d < len(cells)):
            raise ValueError(f"era id {d} out of range for {len(cells)} cells")
        return cells[d]
    stacked = np.stack([c.value for c in cells])  # (E, T, d_a)
    probs = era_probs.value

    def backward(g):
        d_probs = np.einsum("etd,td->te", stacked, g)
        era_probs.grad += d_probs if len(probs) == n_rows else d_probs.sum(axis=0)
        for e, c in enumerate(cells):
            c.grad += probs[:, e : e + 1] * g

    return Tensor(np.einsum("te,etd->td", probs, stacked), (era_probs, *cells), backward)


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
