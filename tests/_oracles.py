"""Brute-force reference implementations the fast code is tested against.

Everything here favors obviousness over speed: full enumeration of tag
sequences, plain python loops, one position at a time, no shared code with
the library internals.
"""

import itertools
import math

import numpy as np

from eraseg.lexicon import CandidateSlots

N_LABELS = 4
START_ROW = 4


def path_score(emit, trans, tags):
    """Start transition + emissions + pairwise transitions, summed left to right."""
    score = trans[START_ROW, tags[0]] + emit[0, tags[0]]
    for t in range(1, len(tags)):
        score += trans[tags[t - 1], tags[t]] + emit[t, tags[t]]
    return score


def enumerate_sequences(emit, trans):
    """Score every tag sequence of length T in lexicographic order: (tags, score)."""
    emit = np.asarray(emit, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    for tags in itertools.product(range(N_LABELS), repeat=emit.shape[0]):
        yield list(tags), path_score(emit, trans, tags)


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


def brute_transition_marginals(emit, trans):
    """Expected uses of each of the 5 x 4 transition entries, from full enumeration.

    Row START_ROW counts the start transition into y_0; rows 0..3 count the
    steps y_{t-1} -> y_t.
    """
    log_z = brute_log_partition(emit, trans)
    out = np.zeros((N_LABELS + 1, N_LABELS))
    for tags, score in enumerate_sequences(emit, trans):
        p = math.exp(score - log_z)
        out[START_ROW, tags[0]] += p
        for t in range(1, len(tags)):
            out[tags[t - 1], tags[t]] += p
    return out


def forward_log_partition(emit, trans):
    """The forward algorithm, left to right, one position and one label at a time."""
    emit = np.asarray(emit, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    alpha = [trans[START_ROW, y] + emit[0, y] for y in range(N_LABELS)]
    for t in range(1, emit.shape[0]):
        nxt = []
        for y in range(N_LABELS):
            terms = [alpha[z] + trans[z, y] for z in range(N_LABELS)]
            m = max(terms)
            nxt.append(m + math.log(sum(math.exp(x - m) for x in terms)) + emit[t, y])
        alpha = nxt
    m = max(alpha)
    return m + math.log(sum(math.exp(x - m) for x in alpha))


def total_probability(emit, trans):
    log_z = brute_log_partition(emit, trans)
    return sum(math.exp(s - log_z) for _, s in enumerate_sequences(emit, trans))


def read_cell_per_position(states, candidates_per_position, keys, values):
    """One era's memory read, one character at a time.

    Character i attends over its candidates' keys (softmax of h_i dot
    each key) and reads the weighted sum of their value-class rows; a
    character with no candidates reads zeros.
    """
    states = np.asarray(states, dtype=np.float64)
    out = np.zeros((len(candidates_per_position), values.shape[1]))
    for i, cands in enumerate(candidates_per_position):
        if not cands:
            continue
        scores = np.array([states[i] @ keys[word_id] for word_id, _ in cands])
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        for p_j, (_, value_class) in zip(p, cands):
            out[i] += p_j * values[value_class]
    return out


def pad_candidates(candidates_per_position):
    """CandidateSlots holding per-position (word_id, value_class) lists, in list order.

    Row i holds position i's candidates in its first slots; the rest are
    padding, word id 0 and class 0, False in the mask.
    """
    t_len = len(candidates_per_position)
    width = max(map(len, candidates_per_position), default=0)
    word_ids = np.zeros((t_len, width), dtype=np.intp)
    classes = np.zeros((t_len, width), dtype=np.intp)
    mask = np.zeros((t_len, width), dtype=bool)
    for i, cands in enumerate(candidates_per_position):
        for j, (word_id, value_class) in enumerate(cands):
            word_ids[i, j], classes[i, j], mask[i, j] = word_id, value_class, True
    return CandidateSlots(word_ids, classes, mask)


def _logistic(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def gru_per_step(x, w_gates, u_gates, b_gates, w_cand, u_cand, b_cand, reverse=False, g_out=None):
    """One GRU direction (Cho et al., 2014), one position at a time.

    With h the previous state:
        z = logistic(x_t W_z + h U_z + b_z),  r = logistic(x_t W_r + h U_r + b_r)
        c = tanh(x_t W_c + (r * h) U_c + b_c),  h' = (1 - z) * c + z * h
    where W_z, W_r are the two halves of w_gates' columns (likewise U and b).
    Returns the (n, k) states, row t read after position t.  Given g_out,
    also returns the gradients of sum(g_out * states) with respect to x
    and the six parameters, in argument order, backpropagated one position
    at a time with per-position outer products.
    """
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape[0], u_cand.shape[0]
    w_z, w_r = w_gates[:, :k], w_gates[:, k:]
    u_z, u_r = u_gates[:, :k], u_gates[:, k:]
    b_z, b_r = b_gates[0, :k], b_gates[0, k:]
    positions = list(range(n))
    if reverse:
        positions.reverse()
    states = np.zeros((n, k))
    tape = []
    h = np.zeros(k)
    for t in positions:
        z = _logistic(x[t] @ w_z + h @ u_z + b_z)
        r = _logistic(x[t] @ w_r + h @ u_r + b_r)
        c = np.tanh(x[t] @ w_cand + (r * h) @ u_cand + b_cand[0])
        tape.append((t, h, z, r, c))
        h = (1.0 - z) * c + z * h
        states[t] = h
    if g_out is None:
        return states

    grads = [np.zeros_like(a) for a in (x, w_gates, u_gates, b_gates, w_cand, u_cand, b_cand)]
    dx, dw_gates, du_gates, db_gates, dw_cand, du_cand, db_cand = grads
    dh = np.zeros(k)
    for t, h_prev, z, r, c in reversed(tape):
        dh = dh + g_out[t]
        da_c = dh * (1.0 - z) * (1.0 - c * c)
        da_z = dh * (h_prev - c) * z * (1.0 - z)
        d_rh = u_cand @ da_c
        da_r = d_rh * h_prev * r * (1.0 - r)
        dw_cand += np.outer(x[t], da_c)
        du_cand += np.outer(r * h_prev, da_c)
        db_cand[0] += da_c
        dw_gates[:, :k] += np.outer(x[t], da_z)
        dw_gates[:, k:] += np.outer(x[t], da_r)
        du_gates[:, :k] += np.outer(h_prev, da_z)
        du_gates[:, k:] += np.outer(h_prev, da_r)
        db_gates[0, :k] += da_z
        db_gates[0, k:] += da_r
        dx[t] += w_cand @ da_c + w_z @ da_z + w_r @ da_r
        dh = dh * z + d_rh * r + u_z @ da_z + u_r @ da_r
    return states, grads


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
