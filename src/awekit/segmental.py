"""Whole-word segmental model: score tensor, marginal log loss with
explicit forward/backward recursions, and Viterbi decoding.

A segmentation tiles frames [0, T) with segments (t, s, v): start t,
length s in [1, S], label v, consecutive and exhaustive. Segment scores
u_{t,s,v} live in the log domain; the marginal log loss is

    -log(sum over label-matching segmentations of exp(path score))
    +log(sum over all segmentations of exp(path score))

computed with log-space alpha recursions; the gradient uses matching
beta recursions rather than taping the DP. Out-of-range lattice cells
(t+s > T) are excluded from every reduction, never combined
arithmetically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NEG_INF = -np.inf
SENTINEL = -1.0e30  # fills invalid dense cells; never read by the kernels


class SegmentalError(Exception):
    pass


class InfeasibleSegmentationError(SegmentalError):
    """No tiling of T frames by K segments of length <= S exists."""


@dataclass
class ScoreTensor:
    """Packed log-domain segment scores.

    packed: (n, V) tensor; row index[t, s-1] scores segment (t, s).
    Packing is length-major: all length-1 segments by start, then
    length-2, and so on. ``dense()`` expands to (T, S, V) with a large
    negative sentinel in invalid cells (for inspection only).
    """

    packed: Tensor
    index: np.ndarray
    num_frames: int
    max_len: int
    vocab_size: int

    def dense(self) -> np.ndarray:
        out = np.full((self.num_frames, self.max_len, self.vocab_size), SENTINEL)
        valid = self.index >= 0
        out[valid] = self.packed.values[self.index[valid]]
        return out


def score_segments(encoder, frame_outputs: Tensor, prediction_layer, max_len: int,
                   label_subset=None) -> ScoreTensor:
    """u_{t,s,v} = W_v . f(X_{t:t+s}) + b_v over the whole lattice.

    ``frame_outputs`` is one utterance's (T, width) encoder output (post
    subsampling); pooling follows the encoder's configured mode and the
    pooled vectors go through the encoder projection before the
    prediction layer's matrix. ``label_subset`` restricts scoring to the
    given vocabulary rows (per-batch subsampling); the tensor's label
    axis then indexes the subset.
    """
    T = frame_outputs.values.shape[0]
    pooled, index = encoder.pool_all_segments(frame_outputs, max_len)
    embedded = encoder.project(pooled)  # (n, d)
    w = prediction_layer.weight_tensor()  # (V, d)
    b = prediction_layer.b.tensor
    if label_subset is not None:
        subset = np.asarray(label_subset, dtype=np.intp)
        w = ad.getitem(w, subset)
        b = ad.getitem(b, subset)
    packed = ad.affine(embedded, ad.transpose(w), b)
    return ScoreTensor(packed, index, T, max_len, w.values.shape[0])


# ---------------------------------------------------------------------------
# Log-space kernels on dense (T, S, V) score arrays


def _check_feasible(T: int, S: int, K: int):
    if K < 1:
        raise SegmentalError("need at least one label")
    if K > T or K * S < T:
        raise InfeasibleSegmentationError(
            f"{K} segments of length <= {S} cannot tile {T} frames"
        )


def _gather(U: np.ndarray, t: int, smax: int) -> np.ndarray:
    """Rows U[t-s, s-1, :] for s = 1..smax: segments ending at t."""
    s = np.arange(1, smax + 1)
    return U[t - s, s - 1, :]


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def _alphas(U: np.ndarray, labels: np.ndarray):
    T, S, V = U.shape
    K = len(labels)
    log_ad = np.full(T + 1, NEG_INF)
    log_ad[0] = 0.0
    log_an = np.full((T + 1, K + 1), NEG_INF)
    log_an[0, 0] = 0.0
    for t in range(1, T + 1):
        smax = min(S, t)
        ends = _gather(U, t, smax)  # (smax, V)
        prev_d = log_ad[t - np.arange(1, smax + 1)]
        log_ad[t] = _logsumexp(ends + prev_d[:, None])
        lab_scores = ends[:, labels]  # (smax, K)
        prev_n = log_an[t - np.arange(1, smax + 1), :K]  # (smax, K) at y-1
        with np.errstate(invalid="ignore"):
            log_an[t, 1:] = _logsumexp(lab_scores + prev_n, axis=0)
    return log_an, log_ad


def _betas(U: np.ndarray, labels: np.ndarray):
    T, S, V = U.shape
    K = len(labels)
    log_bd = np.full(T + 1, NEG_INF)
    log_bd[T] = 0.0
    # column y-1 holds b_n[t, y] (y = next label to consume, 1..K+1)
    log_bn = np.full((T + 1, K + 1), NEG_INF)
    log_bn[T, K] = 0.0  # all labels consumed exactly at the last frame
    for t in range(T - 1, -1, -1):
        smax = min(S, T - t)
        s = np.arange(1, smax + 1)
        starts = U[t, :smax, :]  # (smax, V) segments starting at t
        nxt_d = log_bd[t + s]
        log_bd[t] = _logsumexp(starts + nxt_d[:, None])
        lab_scores = starts[:, labels]  # (smax, K)
        nxt_n = log_bn[t + s, 1 : K + 1]  # (smax, K) at y+1
        with np.errstate(invalid="ignore"):
            log_bn[t, 0:K] = _logsumexp(lab_scores + nxt_n, axis=0)
    return log_bn, log_bd


def seg_marginal_loss_value(U: np.ndarray, labels) -> float:
    """Marginal log loss -log a_n[T, K] + log a_d[T] on a dense lattice."""
    U = np.asarray(U, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    T, S, V = U.shape
    _check_feasible(T, S, len(labels))
    log_an, log_ad = _alphas(U, labels)
    return float(-log_an[T, len(labels)] + log_ad[T])


def seg_gradient_value(U: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss plus d(loss)/dU via the explicit alpha/beta recursions.

    For segment (t, s, v): the denominator part contributes
    exp(log a_d[t] + u - log a_d[T] + log b_d[t+s]) and each transcript
    position k with label v subtracts
    exp(log a_n[t, k-1] + u + log b_n[t+s, k+1] - log a_n[T, K]).
    """
    U = np.asarray(U, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    T, S, V = U.shape
    K = len(labels)
    _check_feasible(T, S, K)
    log_an, log_ad = _alphas(U, labels)
    log_bn, log_bd = _betas(U, labels)
    loss = float(-log_an[T, K] + log_ad[T])

    grad = np.zeros_like(U)
    for t in range(T):
        smax = min(S, T - t)
        s = np.arange(1, smax + 1)
        block = U[t, :smax, :]
        with np.errstate(invalid="ignore", over="ignore"):
            den = np.exp(log_ad[t] + block + log_bd[t + s][:, None] - log_ad[T])
            grad[t, :smax, :] += den
            # numerator: position k uses prefix a_n[t, k-1], suffix b_n[t+s, k+1]
            pref = log_an[t, 0:K]  # (K,) at k-1
            suff = log_bn[t + s, 1 : K + 1]  # (smax, K) at k+1
            num = np.exp(pref[None, :] + block[:, labels] + suff - log_an[T, K])
        np.add.at(grad[t, :smax, :], (slice(None), labels), -num)
    return loss, grad


def seg_loss(score_tensor: ScoreTensor, labels) -> Tensor:
    """Autodiff-wrapped marginal loss over a packed score tensor."""
    st = score_tensor
    loss, dense_grad = seg_gradient_value(st.dense(), labels)
    packed_grad = np.zeros_like(st.packed.values)
    valid = st.index >= 0
    packed_grad[st.index[valid]] = dense_grad[valid]
    out = Tensor(loss)
    return ad._record(out, (st.packed,), lambda g: (g * packed_grad,))


# ---------------------------------------------------------------------------
# Decoding


@dataclass(frozen=True)
class SegPath:
    """A decoded segmentation: (start, length, label) per segment."""

    segments: tuple
    num_frames: int

    def __post_init__(self):
        segs = tuple((int(t), int(s), int(v)) for t, s, v in self.segments)
        object.__setattr__(self, "segments", segs)
        pos = 0
        for t, s, v in segs:
            if t != pos or s < 1:
                raise SegmentalError("segments must tile the frames in order")
            pos = t + s
        if segs and pos != self.num_frames:
            raise SegmentalError("segmentation must end at the last frame")

    def labels(self) -> list[int]:
        return [v for _, _, v in self.segments]

    def score(self, U: np.ndarray) -> float:
        return float(sum(U[t, s - 1, v] for t, s, v in self.segments))


def viterbi_decode(U) -> SegPath:
    """Highest-scoring segmentation; ties prefer the smaller segment
    length, then the smaller label index."""
    if isinstance(U, ScoreTensor):
        U = U.dense()
    U = np.asarray(U, dtype=np.float64)
    T, S, V = U.shape
    best = np.full(T + 1, NEG_INF)
    best[0] = 0.0
    back = np.zeros((T + 1, 2), dtype=np.intp)
    for t in range(1, T + 1):
        smax = min(S, t)
        cand = _gather(U, t, smax) + best[t - np.arange(1, smax + 1)][:, None]
        flat = int(np.argmax(cand))  # first max: smallest s, then smallest v
        s, v = divmod(flat, V)
        best[t] = cand.ravel()[flat]
        back[t] = (s + 1, v)
    segments = []
    t = T
    while t > 0:
        s, v = back[t]
        segments.append((t - s, s, v))
        t -= s
    return SegPath(tuple(reversed(segments)), T)


def batch_segment_cap(lengths, word_counts, s_max: int = 32) -> int:
    """Per-batch max segment length: min(ceil(2 * max(len/words)), s_max)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    counts = np.asarray(word_counts, dtype=np.float64)
    if (counts < 1).any():
        raise SegmentalError("word counts must be >= 1")
    ratio = float((lengths / counts).max())
    return int(min(int(np.ceil(2.0 * ratio)), s_max))
