"""Word-level connectionist temporal classification.

The loss marginalizes over all blank-interleaved frame labelings that
collapse to the transcript (drop consecutive repeats, then drop blanks),
computed in log space over the expanded state sequence [blank, l1, blank,
l2, ..., lK, blank]. One time recursion, ``_entering``, gives the alphas;
the betas are the same recursion on the lattice reversed in time and in
states, and the gradient is formed from the state posteriors. The blank
symbol is the last column of the frame log-probabilities. ``ctc_loss``
scores a padded batch as one tape node; one utterance is a batch of one.
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


def _skips(z: np.ndarray) -> np.ndarray:
    """skip[s]: a path may enter state s from s-2 (distinct non-blank labels; z[0] is the blank)."""
    return np.concatenate([[False, False], (z[2:] != z[0]) & (z[2:] != z[:-2])])


def _entering(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The one time recursion: (T, S) log mass entering each state at each frame, before that
    frame's emission ``emit``. Paths start in the first two states; a state is entered from
    itself, its left neighbour, or (where ``skip``) two states to the left."""
    T, S = emit.shape
    enter = np.full((T, S), NEG_INF)
    enter[0, :2] = 0.0
    for t in range(1, T):
        prev = enter[t - 1] + emit[t - 1]
        step = np.concatenate([[NEG_INF], prev[:-1]])
        jump = np.where(skip, np.concatenate([[NEG_INF, NEG_INF], prev[:-2]]), NEG_INF)
        with np.errstate(invalid="ignore"):
            enter[t] = np.logaddexp(np.logaddexp(prev, step), jump)
    return enter


def _forward_backward(log_probs: np.ndarray, labels: np.ndarray):
    """(z, alpha, beta, log Z). alpha[t, s] is the prefix mass of state s through frame t.
    beta[t, s], the suffix mass from state s over emissions t+1..T-1, is the entering
    mass of the lattice reversed in time and in states, whose skips are those of the
    reversed expansion."""
    z = _expand(labels, log_probs.shape[1] - 1)
    emit = log_probs[:, z]
    alpha = _entering(emit, _skips(z)) + emit
    beta = _entering(emit[::-1, ::-1], _skips(z[::-1]))[::-1, ::-1]
    return z, alpha, beta, np.logaddexp(alpha[-1, -1], alpha[-1, -2])


def ctc_loss(log_probs: Tensor, lengths, transcripts) -> Tensor:
    """Autodiff-wrapped CTC loss of a batch: the sum, in order, of the
    losses of row b's first ``lengths[b]`` frames of the (B, T, V+1)
    ``log_probs`` against ``transcripts[b]``. The gradient is minus the
    state posteriors summed over each symbol's states, and 0 on padding."""
    lp = np.asarray(log_probs.values, dtype=np.float64)
    grad = np.zeros_like(lp)
    losses = []
    for b, (T, labels) in enumerate(zip(lengths, transcripts)):
        z, alpha, beta, log_z = _forward_backward(lp[b, :T], _check_inputs(lp[b, :T], labels))
        with np.errstate(invalid="ignore"):
            gamma = np.exp(alpha + beta - log_z)  # posterior over states per frame
        for s, j in enumerate(z):
            grad[b, :T, j] -= gamma[:, s]
        losses.append(float(-log_z))
    out = Tensor(sum(losses))
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
