"""Linear-chain conditional random field over the four boundary tags.

Scores a tag sequence as the sum of per-position emission scores and
pairwise transition scores, with one extra virtual row of transitions out
of a start state so the first position has a prior.  One numpy suffix
recursion serves both passes over the chain: with max it gives Viterbi's
best suffix scores, with log-sum-exp the forward and backward log scores
of the partition function.  The partition function is one autodiff node
whose backward pass adds the forward-backward marginals.
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


def _check_chain(emit: np.ndarray, transitions: np.ndarray) -> None:
    if emit.ndim != 2 or emit.shape[1] != N_LABELS:
        raise ValueError(f"emissions must be (T, {N_LABELS}), got {emit.shape}")
    if transitions.shape != (N_LABELS + 1, N_LABELS):
        raise ValueError(f"transitions must be {(N_LABELS + 1, N_LABELS)}, got {transitions.shape}")
    if emit.shape[0] < 1:
        raise ValueError("need at least one position")


def _suffix_scores(emit: np.ndarray, core: np.ndarray, reduce) -> np.ndarray:
    """beta[t, y] = emit[t, y] + reduce over z of (core[y, z] + beta[t + 1, z]).

    reduce is a ufunc reduction (np.maximum.reduce, np.logaddexp.reduce);
    the last row is the last emission.
    """
    beta = np.empty(emit.shape)
    beta[-1] = emit[-1]
    for t in range(len(emit) - 2, -1, -1):
        beta[t] = emit[t] + reduce(core + beta[t + 1], axis=1)
    return beta


def _row_probs(log_scores: np.ndarray) -> np.ndarray:
    """exp(row - logsumexp(row)) per row.

    Every row of the marginals' log scores sums to log Z in exact
    arithmetic.  Normalizing each row by its own sum rather than by log Z
    drops the rounding error that alpha and beta accumulate along a long
    chain of large scores.
    """
    return np.exp(log_scores - np.logaddexp.reduce(log_scores, axis=1)[:, None])


def log_partition(emit: Tensor, transitions: Tensor) -> Tensor:
    """log of the summed exp path score over all 4^T sequences, as one node.

    alpha[t, y], the log-sum-exp score of the prefixes ending in y at t,
    is the suffix recursion run over the reversed sentence with the
    transitions transposed and the START row added to the first emission;
    beta is the same recursion run forward.  The backward pass adds the marginals:
    P(y_t = y) to emit.grad, and each transition's expected number of
    uses to transitions.grad.
    """
    _check_chain(emit.value, transitions.value)
    core = transitions.value[:N_LABELS]
    first = emit.value.copy()
    first[0] += transitions.value[START]
    alpha = _suffix_scores(first[::-1], core.T, np.logaddexp.reduce)[::-1]
    log_z = np.logaddexp.reduce(alpha[-1])

    def backward(g):
        g = g[0, 0]
        beta = _suffix_scores(emit.value, core, np.logaddexp.reduce)
        node = _row_probs(alpha + beta - emit.value)  # P(y_t = y)
        edge = alpha[:-1, :, None] + core + beta[1:, None, :]  # log P(y_t, y_t+1), unnormalized
        edge = _row_probs(edge.reshape(-1, N_LABELS * N_LABELS))
        emit.grad += g * node
        transitions.grad[:N_LABELS] += g * edge.sum(axis=0).reshape(N_LABELS, N_LABELS)
        transitions.grad[START] += g * node[0]

    return Tensor([[log_z]], (emit, transitions), backward)


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
    _check_chain(emit, transitions)
    core = transitions[:N_LABELS, :]
    beta = _suffix_scores(emit, core, np.maximum.reduce)

    first = transitions[START] + beta[0]
    tags = [int(np.argmax(first))]  # argmax returns the first (lowest) index
    for t in range(1, len(emit)):
        tags.append(int(np.argmax(core[tags[-1]] + beta[t])))
    return tags, float(first[tags[0]])
