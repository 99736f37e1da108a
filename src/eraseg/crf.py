"""Linear-chain conditional random field (Lafferty et al., 2001) over the four boundary tags.

Scores a tag sequence as the sum of per-position emission scores and
pairwise transition scores, with one extra virtual row of transitions out
of a start state so the first position has a prior.  One numpy suffix
recursion serves both passes over the chain: with max it gives Viterbi's
best suffix scores, with log-sum-exp the forward and backward log scores
of the partition function, over a batch of chains at once.  The partition
function and the loss, log Z minus the gold path's score, are one autodiff
node each, the loss over a packed batch of sentences: the backward pass
adds the forward-backward marginals, and the loss's subtracts the number
of times the gold path takes each emission and transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


def path_counts(tags: Sequence[int], t_len: int) -> tuple[np.ndarray, np.ndarray]:
    """How often a tag sequence takes each emission, (T, 4), and each transition, (5, 4).

    Its path score is the sum of the scores weighted by these counts.
    """
    tags = list(tags)
    if len(tags) != t_len:
        raise ValueError(f"{len(tags)} tags for {t_len} positions")
    if any(not (0 <= y < N_LABELS) for y in tags):
        raise ValueError(f"tag index outside 0..{N_LABELS - 1}: {tags}")
    steps = np.zeros((N_LABELS + 1, N_LABELS))
    np.add.at(steps, ([START] + tags[:-1], tags), 1.0)
    return np.eye(N_LABELS)[tags], steps


def _check_chain(emit: np.ndarray, transitions: np.ndarray) -> None:
    if emit.ndim != 2 or emit.shape[1] != N_LABELS:
        raise ValueError(f"emissions must be (T, {N_LABELS}), got {emit.shape}")
    if transitions.shape != (N_LABELS + 1, N_LABELS):
        raise ValueError(f"transitions must be {(N_LABELS + 1, N_LABELS)}, got {transitions.shape}")
    if emit.shape[0] < 1:
        raise ValueError("need at least one position")


def _suffix_scores(emit: np.ndarray, core: np.ndarray, reduce) -> np.ndarray:
    """beta[t, b, y] = emit[t, b, y] + reduce over z of (core[y, z] + beta[t + 1, b, z]).

    emit is an (n, B, 4) batch of B chains that all end at step n - 1; a
    shorter chain is padded before its start, and its scores there are
    never read.  reduce is a ufunc reduction (np.maximum.reduce,
    np.logaddexp.reduce); the last step is the last emission.
    """
    beta = np.empty(emit.shape)
    beta[-1] = emit[-1]
    for t in range(len(emit) - 2, -1, -1):
        beta[t] = emit[t] + reduce(core + beta[t + 1, :, None, :], axis=2)
    return beta


def _row_probs(log_scores: np.ndarray) -> np.ndarray:
    """exp(row - logsumexp(row)) per row.

    Every row of the marginals' log scores sums to log Z in exact
    arithmetic.  Normalizing each row by its own sum rather than by log Z
    drops the rounding error that alpha and beta accumulate along a long
    chain of large scores.
    """
    return np.exp(log_scores - np.logaddexp.reduce(log_scores, axis=1)[:, None])


def _partition(
    emit: Tensor, transitions: Tensor, lengths: Sequence[int]
) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """log Z of each chain, and the function that adds g[b] times chain b's gradient.

    emit holds the chains' rows one after another, lengths[b] rows for
    chain b.  alpha[t, y], the log-sum-exp score of the prefixes ending in
    y at t, is the suffix recursion run over the reversed chains with the
    transitions transposed and the START row added to each first emission;
    beta is the same recursion run forward.  The gradient is the marginals
    P(y_t = y), added to emit.grad, and each transition's expected number
    of uses, added to transitions.grad.
    """
    _check_chain(emit.value, transitions.value)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != len(emit.value):
        raise ValueError(f"chain lengths {lengths.tolist()} do not pack {len(emit.value)} rows")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    n_steps = int(lengths.max())
    step = np.arange(n_steps)[:, None]
    real = step >= n_steps - lengths  # (n, B): each chain ends at the last step
    # The row each step reads, in chain order and reversed; padding reads row 0.
    ahead = np.where(real, ends - n_steps + step, 0)
    back = np.where(real, starts + n_steps - 1 - step, 0)
    core = transitions.value[:N_LABELS]
    first = emit.value.copy()
    first[starts] += transitions.value[START]
    alpha = np.empty(first.shape)
    alpha[back[real]] = _suffix_scores(first[back], core.T, np.logaddexp.reduce)[real]

    def add_gradient(g: np.ndarray) -> None:
        beta = np.empty(first.shape)
        beta[ahead[real]] = _suffix_scores(emit.value[ahead], core, np.logaddexp.reduce)[real]
        node = _row_probs(alpha + beta - emit.value)  # P(y_t = y)
        inner = np.delete(np.arange(len(first)), ends - 1)  # rows with a next row in their chain
        # log P(y_t, y_t+1), unnormalized
        edge = alpha[inner, :, None] + core + beta[inner + 1, None, :]
        edge = _row_probs(edge.reshape(-1, N_LABELS * N_LABELS))
        g_rows = np.repeat(g, lengths)[:, None]
        emit.grad += g_rows * node
        edge_uses = (g_rows[inner] * edge).sum(axis=0)
        transitions.grad[:N_LABELS] += edge_uses.reshape(N_LABELS, N_LABELS)
        transitions.grad[START] += g @ node[starts]

    return np.logaddexp.reduce(alpha[ends - 1], axis=1), add_gradient


def log_partition(emit: Tensor, transitions: Tensor) -> Tensor:
    """log of the summed exp path score over all 4^T sequences, as one node."""
    log_z, add_gradient = _partition(emit, transitions, [emit.shape[0]])
    return Tensor(log_z[:, None], (emit, transitions), lambda g: add_gradient(g[:, 0]))


def nll(
    emit: Tensor, transitions: Tensor, tags: Sequence[int], lengths: Sequence[int] | None = None
) -> Tensor:
    """-log P(gold tags) = log Z - their path score >= 0, per sentence, as one (B, 1) node.

    emit and tags hold the B sentences' positions one after another,
    lengths[b] of them for sentence b (by default one sentence of all of
    emit's rows).  The backward pass adds the marginals minus the gold
    path's counts.
    """
    if lengths is None:
        lengths = [emit.shape[0]]
    log_z, add_gradient = _partition(emit, transitions, lengths)
    tags = list(tags)
    if len(tags) != emit.shape[0]:
        raise ValueError(f"{len(tags)} tags for {emit.shape[0]} positions")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    counts = [path_counts(tags[a:b], b - a) for a, b in zip(starts, ends)]
    on_path = np.concatenate([c[0] for c in counts])
    steps = np.stack([c[1] for c in counts])  # (B, 5, 4)

    def backward(g):
        g = g[:, 0]
        add_gradient(g)
        emit.grad -= np.repeat(g, lengths)[:, None] * on_path
        transitions.grad -= np.tensordot(g, steps, axes=1)

    gold = np.add.reduceat((emit.value * on_path).sum(axis=1), starts)
    gold += (transitions.value * steps).sum(axis=(1, 2))
    return Tensor((log_z - gold)[:, None], (emit, transitions), backward)


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
    beta = _suffix_scores(emit[:, None], core, np.maximum.reduce)[:, 0]

    first = transitions[START] + beta[0]
    tags = [int(np.argmax(first))]  # argmax returns the first (lowest) index
    for t in range(1, len(emit)):
        tags.append(int(np.argmax(core[tags[-1]] + beta[t])))
    return tags, float(first[tags[0]])
