"""Whole-word segmental model: score lattice, marginal log loss with
explicit forward/backward recursions, and Viterbi decoding.

A segmentation tiles frames [0, T) with segments (t, s, v): start t,
length s in [1, S], label v, consecutive and exhaustive. Segment scores
u_{t,s,v} live in the log domain; the marginal log loss is

    -log(sum over label-matching segmentations of exp(path score))
    +log(sum over all segmentations of exp(path score))

The lattice has one layout: packed (n, V) score rows, one per valid
segment (t + s <= T), plus the (T, S) grid from ``segment_grid`` that
maps (t, s-1) to a row. One log-space forward recursion computes the
alphas; the betas are the same recursion on the time-reversed grid, and
the gradient is formed from both rather than by taping the DP. Dense
(T, S, V) arrays are accepted at the entry points and packed through the
same grid; their out-of-range cells are never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NEG_INF = -np.inf


class SegmentalError(Exception):
    pass


class InfeasibleSegmentationError(SegmentalError):
    """No tiling of T frames by K segments of length <= S exists."""


def segment_grid(num_frames: int, max_len: int) -> np.ndarray:
    """(T, max_len) grid mapping (t, s-1) to the packed row of segment
    (t, s), -1 where t + s > T. Rows are length-major: all length-1
    segments by start, then length-2, and so on."""
    grid = np.full((num_frames, max_len), -1, dtype=np.intp)
    row = 0
    for s in range(1, min(max_len, num_frames) + 1):
        n = num_frames - s + 1
        grid[:n, s - 1] = np.arange(row, row + n)
        row += n
    return grid


@dataclass
class ScoreTensor:
    """Packed log-domain segment scores: ``packed`` is an (n, V) tensor
    whose row ``index[t, s-1]`` scores segment (t, s); ``index`` comes
    from ``segment_grid``."""

    packed: Tensor
    index: np.ndarray


def score_segments(encoder, frame_outputs: Tensor, prediction_layer, max_len: int) -> ScoreTensor:
    """u_{t,s,v} = W_v . f(X_{t:t+s}) + b_v over the whole lattice.

    ``frame_outputs`` is one utterance's (T, width) encoder output (post
    subsampling); pooling follows the encoder's configured mode and the
    pooled vectors go through the encoder projection before the
    prediction layer's matrix.
    """
    T = frame_outputs.values.shape[0]
    pooled = encoder.pool_all_segments(frame_outputs, max_len)
    embedded = encoder.project(pooled)  # (n, d)
    w = prediction_layer.weight_tensor()  # (V, d)
    packed = ad.affine(embedded, ad.transpose(w), prediction_layer.b.tensor)
    return ScoreTensor(packed, segment_grid(T, max_len))


# ---------------------------------------------------------------------------
# Log-space kernels on packed (n, V) score rows and their (T, S) grid


def _check_feasible(T: int, S: int, K: int):
    if K < 1:
        raise SegmentalError("need at least one label")
    if K > T or K * S < T:
        raise InfeasibleSegmentationError(
            f"{K} segments of length <= {S} cannot tile {T} frames"
        )


def _pack(U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A dense (T, S, V) lattice as (packed rows, grid, valid-cell mask)."""
    U = np.asarray(U, dtype=np.float64)
    grid = segment_grid(U.shape[0], U.shape[1])
    valid = grid >= 0
    P = np.empty((np.count_nonzero(valid), U.shape[2]))
    P[grid[valid]] = U[valid]
    return P, grid, valid


def _reversed(grid: np.ndarray) -> np.ndarray:
    """The grid of the time-reversed lattice: segment (t, s) becomes
    (T - t - s, s) and keeps its packed row."""
    T, S = grid.shape
    src = T - np.arange(1, S + 1) - np.arange(T)[:, None]  # (T, S) original start
    return np.where(src >= 0, grid[np.maximum(src, 0), np.arange(S)], -1)


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def _forward(P: np.ndarray, grid: np.ndarray, labels: np.ndarray):
    """log a_n (T+1, K+1): column k after k labels; log a_d (T+1,)."""
    T, S = grid.shape
    K = len(labels)
    log_ad = np.full(T + 1, NEG_INF)
    log_ad[0] = 0.0
    log_an = np.full((T + 1, K + 1), NEG_INF)
    log_an[0, 0] = 0.0
    for t in range(1, T + 1):
        s = np.arange(1, min(S, t) + 1)
        ends = P[grid[t - s, s - 1]]  # (smax, V) segments ending at t
        log_ad[t] = _logsumexp(ends + log_ad[t - s][:, None])
        with np.errstate(invalid="ignore"):
            log_an[t, 1:] = _logsumexp(ends[:, labels] + log_an[t - s, :K], axis=0)
    return log_an, log_ad


def _recursions(P: np.ndarray, grid: np.ndarray, labels: np.ndarray):
    """(log a_n, log a_d, log b_n, log b_d). The betas are the alphas of
    the time-reversed lattice with the labels reversed; column k of
    log b_n holds the suffix from frame t with labels k.. still to
    consume."""
    log_an, log_ad = _forward(P, grid, labels)
    an_rev, ad_rev = _forward(P, _reversed(grid), labels[::-1])
    return log_an, log_ad, an_rev[::-1, ::-1], ad_rev[::-1]


def _loss_and_grad(P: np.ndarray, grid: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Marginal loss and d(loss)/dP on a packed lattice.

    For segment (t, s, v): the denominator part contributes
    exp(log a_d[t] + u - log a_d[T] + log b_d[t+s]) and each transcript
    position k with label v subtracts
    exp(log a_n[t, k-1] + u + log b_n[t+s, k+1] - log a_n[T, K]).
    """
    labels = np.asarray(labels, dtype=np.intp)
    T, S = grid.shape
    K = len(labels)
    _check_feasible(T, S, K)
    log_an, log_ad, log_bn, log_bd = _recursions(P, grid, labels)
    start, s0 = np.nonzero(grid >= 0)
    rows = grid[start, s0]
    end = start + s0 + 1
    u = P[rows]
    with np.errstate(invalid="ignore", over="ignore"):
        den = np.exp(log_ad[start][:, None] + u + log_bd[end][:, None] - log_ad[T])
        num = np.exp(log_an[start, :K] + u[:, labels] + log_bn[end, 1:] - log_an[T, K])
    grad = np.empty_like(P)
    grad[rows] = den
    np.add.at(grad, (rows[:, None], labels), -num)
    return float(-log_an[T, K] + log_ad[T]), grad


def seg_marginal_loss_value(U: np.ndarray, labels) -> float:
    """Marginal log loss -log a_n[T, K] + log a_d[T] on a dense lattice."""
    P, grid, _ = _pack(U)
    labels = np.asarray(labels, dtype=np.intp)
    _check_feasible(*grid.shape, len(labels))
    log_an, log_ad = _forward(P, grid, labels)
    return float(-log_an[-1, len(labels)] + log_ad[-1])


def seg_gradient_value(U: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss plus d(loss)/dU on a dense lattice; out-of-range cells get 0."""
    P, grid, valid = _pack(U)
    loss, packed_grad = _loss_and_grad(P, grid, labels)
    grad = np.zeros((*grid.shape, P.shape[1]))
    grad[valid] = packed_grad[grid[valid]]
    return loss, grad


def seg_loss(score_tensor: ScoreTensor, labels) -> Tensor:
    """Autodiff-wrapped marginal loss over a packed score tensor."""
    st = score_tensor
    loss, packed_grad = _loss_and_grad(st.packed.values, st.index, labels)
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
    """Highest-scoring segmentation of a ScoreTensor or a dense (T, S, V)
    lattice; ties prefer the smaller segment length, then the smaller
    label index."""
    if isinstance(U, ScoreTensor):
        P, grid = U.packed.values, U.index
    else:
        P, grid, _ = _pack(U)
    T, S = grid.shape
    V = P.shape[1]
    best = np.full(T + 1, NEG_INF)
    best[0] = 0.0
    back = np.zeros((T + 1, 2), dtype=np.intp)
    for t in range(1, T + 1):
        s = np.arange(1, min(S, t) + 1)
        cand = P[grid[t - s, s - 1]] + best[t - s][:, None]
        flat = int(np.argmax(cand))  # first max: smallest s, then smallest v
        best[t] = cand.ravel()[flat]
        back[t] = (flat // V + 1, flat % V)
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
