"""Word-level connectionist temporal classification.

The loss marginalizes over all blank-interleaved frame labelings that
collapse to the transcript (drop consecutive repeats, then drop blanks),
computed in log space by the standard forward recursion over the expanded
state sequence [blank, l1, blank, l2, ..., lK, blank]. The gradient uses
the forward-backward posteriors. The blank symbol is the last column of
the frame log-probability matrix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NEG_INF = -np.inf


class CtcError(Exception):
    pass


class InfeasibleAlignmentError(CtcError):
    """The transcript cannot be aligned: too few frames for the expansion."""


def min_frames_required(labels) -> int:
    """K plus one frame per adjacent repeated label (blank separator)."""
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _expand(labels, blank: int) -> np.ndarray:
    z = np.full(2 * len(labels) + 1, blank, dtype=np.intp)
    z[1::2] = labels
    return z


def _check_inputs(log_probs: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if log_probs.ndim != 2:
        raise CtcError("log_probs must be (T, V+1)")
    T, width = log_probs.shape
    blank = width - 1
    if labels.ndim != 1 or len(labels) < 1:
        raise CtcError("need a non-empty 1-D label sequence")
    if (labels < 0).any() or (labels >= blank).any():
        raise CtcError("label indices must be < blank index")
    if T < min_frames_required(labels):
        raise InfeasibleAlignmentError(
            f"{T} frames cannot realize a length-{len(labels)} transcript"
        )
    return labels


def _forward_backward(log_probs: np.ndarray, labels: np.ndarray):
    T, width = log_probs.shape
    blank = width - 1
    z = _expand(labels, blank)
    S = len(z)
    # skip[s]: a path may jump from s-2 to s (distinct non-blank labels)
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (z[2:] != blank) & (z[2:] != z[:-2])

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = log_probs[0, z[0]]
    if S > 1:
        alpha[0, 1] = log_probs[0, z[1]]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate([[NEG_INF], prev[:-1]])
        jump = np.concatenate([[NEG_INF, NEG_INF], prev[:-2]])
        jump = np.where(skip, jump, NEG_INF)
        with np.errstate(invalid="ignore"):
            merged = np.logaddexp(np.logaddexp(stay, step), jump)
        alpha[t] = merged + log_probs[t, z]

    log_z = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2] if S > 1 else NEG_INF)

    # beta[t, s]: suffix mass from state s covering emissions t+1..T-1
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + log_probs[t + 1, z]
        stay = nxt
        step = np.concatenate([nxt[1:], [NEG_INF]])
        jump = np.concatenate([nxt[2:], [NEG_INF, NEG_INF]])
        can_jump = np.zeros(S, dtype=bool)
        can_jump[:-2] = skip[2:]
        jump = np.where(can_jump, jump, NEG_INF)
        with np.errstate(invalid="ignore"):
            beta[t] = np.logaddexp(np.logaddexp(stay, step), jump)
    return z, alpha, beta, log_z


def ctc_loss_value(log_probs: np.ndarray, labels) -> float:
    """-log P(labels | frames) from a (T, V+1) log-probability matrix."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    labels = _check_inputs(log_probs, labels)
    _, _, _, log_z = _forward_backward(log_probs, labels)
    return float(-log_z)


def ctc_loss_grad(log_probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss and its gradient with respect to the log-probabilities."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    labels = _check_inputs(log_probs, labels)
    z, alpha, beta, log_z = _forward_backward(log_probs, labels)
    T, width = log_probs.shape
    grad = np.zeros_like(log_probs)
    with np.errstate(invalid="ignore"):
        gamma = np.exp(alpha + beta - log_z)  # posterior over states per frame
    for s, j in enumerate(z):
        grad[:, j] -= gamma[:, s]
    return float(-log_z), grad


def ctc_loss(log_probs: Tensor, labels) -> Tensor:
    """Autodiff-wrapped CTC loss over a (T, V+1) log-probability tensor."""
    loss, grad = ctc_loss_grad(log_probs.values, labels)
    out = Tensor(loss)
    return ad._record(out, (log_probs,), lambda g: (g * grad,))


# ---------------------------------------------------------------------------
# Decoding


def ctc_greedy_decode_with_spans(log_probs: np.ndarray) -> list[tuple[int, int, int]]:
    """Greedy decode keeping each emitted token's frame span.

    Returns (token, start, end) with [start, end) the maximal run of
    frames whose argmax equals the token.
    """
    log_probs = np.asarray(log_probs)
    blank = log_probs.shape[1] - 1
    best = np.argmax(log_probs, axis=1)
    out = []
    t = 0
    T = len(best)
    while t < T:
        tok = int(best[t])
        start = t
        while t < T and best[t] == tok:
            t += 1
        if tok != blank:
            out.append((tok, start, t))
    return out


def widen_unk_spans(log_probs: np.ndarray, decoded_spans, unk_index: int):
    """Extend each decoded UNK token's span to its attributable region.

    Trained models emit narrow label spikes surrounded by blank, so the
    raw greedy run badly underestimates a token's acoustic extent and
    pooling over it is uninformative. Each UNK span grows outward through
    frames that are blank-dominated or UNK-dominated (argmax over word
    labels), stopping at the neighboring tokens' spans, which is the
    stretch of frames attributable to this token.
    """
    log_probs = np.asarray(log_probs)
    blank = log_probs.shape[1] - 1
    greedy = np.argmax(log_probs, axis=1)
    word_argmax = np.argmax(log_probs[:, :-1], axis=1)
    T = len(greedy)

    def claimable(t):
        return greedy[t] == blank or word_argmax[t] == unk_index

    out = []
    for i, (tok, start, end) in enumerate(decoded_spans):
        if tok != unk_index:
            out.append((tok, start, end))
            continue
        lo_bound = decoded_spans[i - 1][2] if i > 0 else 0
        hi_bound = decoded_spans[i + 1][1] if i + 1 < len(decoded_spans) else T
        s, e = start, end
        while s > lo_bound and claimable(s - 1):
            s -= 1
        while e < hi_bound and claimable(e):
            e += 1
        out.append((tok, s, e))
    return out


def unk_rescore(decoded_spans, frame_embeddings: np.ndarray, extended_layer,
                unk_index: int) -> list[int]:
    """Replace UNK tokens with extension-vocabulary words.

    Each UNK span's frame embeddings are mean-pooled and scored by cosine
    against the extension rows (rows at index >= the layer's base size);
    the best-scoring word is substituted (ties keep the first). Tokens
    other than UNK pass through.
    """
    ext_rows = extended_layer.w.values[extended_layer.base_size :]
    frame_embeddings = np.asarray(frame_embeddings, dtype=np.float64)
    out = []
    for tok, start, end in decoded_spans:
        if tok != unk_index:
            out.append(tok)
            continue
        if len(ext_rows) == 0:
            raise CtcError("no extension rows available for UNK rescoring")
        pooled = frame_embeddings[start:end].mean(axis=0)
        np_pool = np.linalg.norm(pooled)
        np_rows = np.linalg.norm(ext_rows, axis=1)
        denom = np.where(np_rows > 0, np_rows, 1.0) * (np_pool if np_pool > 0 else 1.0)
        cos = ext_rows @ pooled / denom
        out.append(extended_layer.base_size + int(np.argmax(cos)))
    return out
