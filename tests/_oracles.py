"""Brute-force reference implementations the fast code is tested against.

Everything here favors obviousness over speed: full enumeration of tag
sequences, plain python loops, no shared code with the library internals.
"""

import itertools
import math

import numpy as np

N_LABELS = 4
START_ROW = 4


def enumerate_sequences(emit, trans):
    """Score every tag sequence of length T in lexicographic order.

    Yields (tags, score) with score = start transition + emissions +
    pairwise transitions, summed left to right.
    """
    emit = np.asarray(emit, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    t_len = emit.shape[0]
    for tags in itertools.product(range(N_LABELS), repeat=t_len):
        score = trans[START_ROW, tags[0]] + emit[0, tags[0]]
        for t in range(1, t_len):
            score += trans[tags[t - 1], tags[t]] + emit[t, tags[t]]
        yield list(tags), score


def brute_log_partition(emit, trans):
    scores = [s for _, s in enumerate_sequences(emit, trans)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(emit, trans):
    """First maximum in lexicographic enumeration order: the smallest argmax."""
    best_tags, best_score = None, -math.inf
    for tags, score in enumerate_sequences(emit, trans):
        if score > best_score:
            best_tags, best_score = tags, score
    return best_tags, best_score


def brute_nll(emit, trans, tags):
    tags = list(tags)
    gold = next(s for t, s in enumerate_sequences(emit, trans) if t == tags)
    return brute_log_partition(emit, trans) - gold


def brute_marginals(emit, trans):
    """P(y_t = y) for every position and label, from full enumeration."""
    emit = np.asarray(emit, dtype=np.float64)
    t_len = emit.shape[0]
    log_z = brute_log_partition(emit, trans)
    out = np.zeros((t_len, N_LABELS))
    for tags, score in enumerate_sequences(emit, trans):
        p = math.exp(score - log_z)
        for t, y in enumerate(tags):
            out[t, y] += p
    return out


def total_probability(emit, trans):
    log_z = brute_log_partition(emit, trans)
    return sum(math.exp(s - log_z) for _, s in enumerate_sequences(emit, trans))


def split_long_recursive(words, max_len, punct):
    """One chunk per recursion level: the first chunk ends after the last
    word ending in punct that fits within max_len characters, else after
    the last word that fits; the rest is split the same way.
    """
    if sum(len(w) for w in words) <= max_len:
        return [words]
    acc = last_fit = last_punct = 0
    for i, w in enumerate(words):
        if acc + len(w) > max_len:
            break
        acc += len(w)
        last_fit = i + 1
        if w.endswith(punct):
            last_punct = i + 1
    cut = last_punct or last_fit
    if cut == 0:
        raise ValueError("single word longer than max_len")
    return [words[:cut]] + split_long_recursive(words[cut:], max_len, punct)
