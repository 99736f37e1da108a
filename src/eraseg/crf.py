"""Linear-chain conditional random field over the four boundary tags.

Scores a tag sequence as the sum of per-position emission scores and
pairwise transition scores, with one extra virtual row of transitions out
of a start state so the first position has a prior.  The partition
function runs the forward algorithm in log space inside the autodiff
graph; decoding runs outside it in plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, uniform

N_LABELS = 4
START = N_LABELS  # virtual origin row in the transition matrix


@dataclass
class CrfParams:
    weight: Tensor  # (d_a, 4) emission projection
    bias: Tensor  # (1, 4)
    transitions: Tensor  # (5, 4): rows 0..3 from-label, row 4 from START

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [
            ("crf.weight", self.weight),
            ("crf.bias", self.bias),
            ("crf.transitions", self.transitions),
        ]


def init_crf_params(rng: np.random.Generator, d_a: int) -> CrfParams:
    return CrfParams(
        weight=uniform(rng, d_a, N_LABELS),
        bias=uniform(rng, 1, N_LABELS),
        transitions=uniform(rng, N_LABELS + 1, N_LABELS),
    )


def emissions(a_mat: Tensor, params: CrfParams) -> Tensor:
    """Per-position label scores: (T, d_a) -> (T, 4), row i = a_i W + b."""
    return ad.add(ad.matmul(a_mat, params.weight), params.bias)


def sequence_score(emit: Tensor, transitions: Tensor, tags: Sequence[int]) -> Tensor:
    """Path score of one tag sequence: emissions plus transitions, as masked sums."""
    tags = list(tags)
    if len(tags) != emit.shape[0]:
        raise ValueError(f"{len(tags)} tags for {emit.shape[0]} positions")
    if any(not (0 <= y < N_LABELS) for y in tags):
        raise ValueError(f"tag index outside 0..{N_LABELS - 1}: {tags}")
    on_path = np.eye(N_LABELS)[tags]  # the emission taken at each position
    step_counts = np.zeros((N_LABELS + 1, N_LABELS))  # uses of each transition
    np.add.at(step_counts, ([START] + tags[:-1], tags), 1.0)
    return ad.add(
        ad.sum_all(ad.mul(emit, Tensor(on_path))),
        ad.sum_all(ad.mul(transitions, Tensor(step_counts))),
    )


def log_partition(emit: Tensor, transitions: Tensor) -> Tensor:
    """log of the summed exp path score over all 4^T sequences.

    Forward recursion: alpha starts from the START transitions and the
    first emissions; each step does a log-sum-exp over the previous alpha
    plus the transition into every label.
    """
    t_len = emit.shape[0]
    if t_len < 1:
        raise ValueError("need at least one position")
    core_t = ad.transpose(ad.gather_rows(transitions, list(range(N_LABELS))))  # [to, from]
    alpha = ad.add(ad.gather_rows(emit, [0]), ad.gather_rows(transitions, [START]))
    for t in range(1, t_len):
        reached = ad.transpose(ad.logsumexp_row(ad.add(core_t, alpha)))  # (1, 4)
        alpha = ad.add(reached, ad.gather_rows(emit, [t]))
    return ad.logsumexp_row(alpha)


def nll(emit: Tensor, transitions: Tensor, tags: Sequence[int]) -> Tensor:
    """Negative log probability of the gold tags; nonnegative."""
    return ad.sub(log_partition(emit, transitions), sequence_score(emit, transitions, tags))


def viterbi(emit: np.ndarray, transitions: np.ndarray) -> tuple[list[int], float]:
    """Best-scoring tag sequence; ties pick the lexicographically smallest.

    Works backwards first: beta[t, y] is the best score of any suffix
    starting at position t with label y.  A forward pass then greedily
    takes the lowest label index attaining the optimum at each position,
    which keeps the whole sequence optimal (beta is exact) and settles
    ties at the earliest differing position.  Left-to-right backpointer
    decoding cannot do this: its per-state ties are resolved before the
    final competing paths are visible.
    """
    emit = np.asarray(emit, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    if emit.ndim != 2 or emit.shape[1] != N_LABELS:
        raise ValueError(f"emissions must be (T, {N_LABELS}), got {emit.shape}")
    if transitions.shape != (N_LABELS + 1, N_LABELS):
        raise ValueError(f"transitions must be {(N_LABELS + 1, N_LABELS)}, got {transitions.shape}")
    t_len = emit.shape[0]
    if t_len < 1:
        raise ValueError("need at least one position")

    core = transitions[:N_LABELS, :]
    beta = np.empty((t_len, N_LABELS))
    beta[t_len - 1] = emit[t_len - 1]
    for t in range(t_len - 2, -1, -1):
        # core[y, :] + beta[t+1, :] maximized over the next label
        beta[t] = emit[t] + (core + beta[t + 1][None, :]).max(axis=1)

    first = transitions[START] + beta[0]
    tags = [int(np.argmax(first))]  # argmax returns the first (lowest) index
    for t in range(1, t_len):
        tags.append(int(np.argmax(core[tags[-1]] + beta[t])))
    return tags, float(first[tags[0]])
