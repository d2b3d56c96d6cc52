"""Whole-word segmental model: score lattice, marginal log loss with
explicit forward/backward recursions, and Viterbi decoding, each run over
a whole batch of utterances at once.

A segmentation tiles frames [0, T) with segments (t, s, v): start t,
length s in [1, S], label v, consecutive and covering every frame. Segment scores
u_{t,s,v} live in the log domain; the marginal log loss is

    -log(sum over label-matching segmentations of exp(path score))
    +log(sum over all segmentations of exp(path score))

A batch's lattices have one layout: packed (n, V) score rows, one per
valid segment (b, t, s) with t + s <= T_b, plus the (B, T, S) grid from
``segment_grid`` that maps (b, t, s-1) to a row and holds -1 where a
segment runs past its utterance. ``score_segments`` pools every segment
of the batch with one ``encoders.pool_spans`` call, in packed row order.
The kernels append one row of -inf, which those -1 cells read, so
padding drops out of every sum and max.
One log-space forward recursion, one time loop over the batch's longest
utterance, computes the alphas of every utterance. Transcripts are
padded to the longest: column k reads only column k-1, so padding
columns never reach real ones. The betas are the same recursion on each
utterance's own time-reversed grid, and the gradient is formed from both
rather than by taping the DP.
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


def segment_grid(lengths, max_len: int) -> np.ndarray:
    """(B, T, max_len) grid, T the longest of ``lengths``, mapping
    (b, t, s-1) to the packed row of segment (b, t, s), -1 where
    t + s > lengths[b]. Rows are length-major: all length-1 segments by
    utterance and start, then length-2, and so on."""
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.arange(lengths.max())[:, None] + np.arange(1, max_len + 1)  # (T, S): t + s
    valid = ends <= lengths[:, None, None]
    grid = np.full(valid.shape, -1, dtype=np.intp)
    grid.transpose(2, 0, 1)[valid.transpose(2, 0, 1)] = np.arange(np.count_nonzero(valid))
    return grid


@dataclass
class ScoreTensor:
    """Packed log-domain segment scores of a batch: ``packed`` is an (n, V)
    tensor whose row ``index[b, t, s-1]`` scores segment (t, s) of
    utterance b; ``index`` comes from ``segment_grid``."""

    packed: Tensor
    index: np.ndarray


def score_segments(encoder, outputs: Tensor, lengths, prediction_layer, max_len: int) -> ScoreTensor:
    """u_{b,t,s,v} = W_v . f(X_b[t:t+s]) + b_v over a batch's lattices.

    ``outputs`` is the batch's (B, T, width) encoder output (post
    subsampling) and ``lengths`` each row's output length. Pooling follows
    the encoder's configured mode, and the pooled vectors of the whole
    batch go through one encoder projection and one affine with the
    prediction layer's matrix.
    """
    grid = segment_grid(lengths, max_len)
    s0, b, t = np.nonzero(grid.transpose(2, 0, 1) >= 0)  # the segment of each packed row
    embedded = encoder.project(encoder.pool(outputs, b, t, s0 + 1))  # (n, d)
    packed = ad.affine(embedded, ad.transpose(prediction_layer.w.tensor), prediction_layer.b.tensor)
    return ScoreTensor(packed, grid)


# ---------------------------------------------------------------------------
# Log-space kernels on packed (n, V) score rows and their (B, T, S) grid


def _lengths(grid: np.ndarray) -> np.ndarray:
    """Each utterance's frame count: its number of length-1 segments."""
    return np.count_nonzero(grid[:, :, 0] >= 0, axis=1)


def _check_feasible(grid: np.ndarray, labels):
    """SegmentalError unless every transcript of the batch can tile its
    utterance."""
    lengths = _lengths(grid)
    S = grid.shape[2]
    counts = np.array([len(ids) for ids in labels])
    if (counts < 1).any():
        raise SegmentalError("need at least one label")
    bad = np.flatnonzero((counts > lengths) | (counts * S < lengths))
    if bad.size:
        b = bad[0]
        raise InfeasibleSegmentationError(
            f"{counts[b]} segments of length <= {S} cannot tile {lengths[b]} frames"
        )


def _pad_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """One transcript per utterance as a (B, K) matrix padded with label 0,
    plus each transcript's length."""
    counts = np.array([len(ids) for ids in labels], dtype=np.intp)
    lab = np.zeros((len(counts), counts.max()), dtype=np.intp)
    for b, ids in enumerate(labels):
        lab[b, : counts[b]] = ids
    return lab, counts


def _with_sentinel(P: np.ndarray) -> np.ndarray:
    """``P`` plus a last row of -inf, the row a grid's -1 cells read."""
    return np.concatenate([P, np.full((1, P.shape[1]), NEG_INF)])


def _reversed(grid: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The grid of each utterance's time-reversed lattice: segment
    (b, t, s) becomes (b, T_b - t - s, s) and keeps its packed row."""
    B, T, S = grid.shape
    src = lengths[:, None, None] - np.arange(1, S + 1) - np.arange(T)[:, None]  # original start
    rows = grid[np.arange(B)[:, None, None], np.maximum(src, 0), np.arange(S)]
    return np.where(src >= 0, rows, -1)


def _logsumexp(a, axis):
    """log(sum(exp(a))) over ``axis``, -inf where every entry is -inf; the
    caller ignores numpy's divide and invalid warnings."""
    m = a.max(axis=axis, keepdims=True)
    m = np.where(m > NEG_INF, m, 0.0)
    return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)


def _forward(P: np.ndarray, grid: np.ndarray, lab: np.ndarray):
    """log a_n (B, T+1, K+1), column k after k labels, and log a_d
    (B, T+1) of every utterance; ``lab`` is the padded (B, K) label
    matrix."""
    B, T, S = grid.shape
    K = lab.shape[1]
    _, b, _ = np.nonzero(grid.transpose(2, 0, 1) >= 0)  # utterance of each row
    labelled = _with_sentinel(np.take_along_axis(P, lab[b], axis=1))  # (n+1, K) transcript-label scores
    P = _with_sentinel(P)
    log_ad = np.full((B, T + 1), NEG_INF)
    log_ad[:, 0] = 0.0
    log_an = np.full((B, T + 1, K + 1), NEG_INF)
    log_an[:, 0, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            s = np.arange(1, min(S, t) + 1)
            rows = grid[:, t - s, s - 1]  # (B, smax) segments ending at t
            log_ad[:, t] = _logsumexp(P[rows] + log_ad[:, t - s, None], axis=(1, 2))
            log_an[:, t, 1:] = _logsumexp(labelled[rows] + log_an[:, t - s, :K], axis=1)
    return log_an, log_ad


def _recursions(P: np.ndarray, grid: np.ndarray, labels):
    """(lengths, padded labels, label counts, log a_n, log a_d, reversed
    log a_n, reversed log a_d) of a batch. The betas are the alphas of
    each utterance's time-reversed lattice with its labels reversed:
    log b_d[b, t] is reversed log a_d[b, T_b - t], and log b_n[b, t, k]
    (the suffix from frame t with labels k.. still to consume) is
    reversed log a_n[b, T_b - t, K_b - k]."""
    lengths = _lengths(grid)
    lab, K = _pad_labels(labels)
    log_an, log_ad = _forward(P, grid, lab)
    back = K[:, None] - 1 - np.arange(lab.shape[1])  # label k of the reversed transcript
    lab_rev = np.take_along_axis(lab, np.maximum(back, 0), axis=1)
    an_rev, ad_rev = _forward(P, _reversed(grid, lengths), lab_rev)
    return lengths, lab, K, log_an, log_ad, an_rev, ad_rev


def _loss_and_grad(P: np.ndarray, grid: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance marginal losses (B,) and d(their sum)/dP on a packed
    batch lattice, with one transcript per utterance in ``labels``.

    For segment (t, s, v) of utterance b: the denominator part contributes
    exp(log a_d[t] + u - log a_d[T_b] + log b_d[t+s]) and each transcript
    position k with label v subtracts
    exp(log a_n[t, k-1] + u + log b_n[t+s, k+1] - log a_n[T_b, K_b]).
    """
    _check_feasible(grid, labels)
    lengths, lab, K, log_an, log_ad, an_rev, ad_rev = _recursions(P, grid, labels)
    B = len(lengths)
    s0, b, start = np.nonzero(grid.transpose(2, 0, 1) >= 0)  # row order
    after = lengths[b] - start - s0 - 1  # reversed time of each segment's end
    z_d = log_ad[np.arange(B), lengths]
    z_n = log_an[np.arange(B), lengths, K]
    kk = np.arange(lab.shape[1])
    back = K[b, None] - 1 - kk  # reversed column of b_n[t+s, k+1]
    with np.errstate(invalid="ignore", over="ignore"):
        grad = np.exp(log_ad[b, start][:, None] + P + ad_rev[b, after][:, None] - z_d[b, None])
        num = np.exp(log_an[b, start][:, :-1] + np.take_along_axis(P, lab[b], axis=1)
                     + an_rev[b[:, None], after[:, None], np.maximum(back, 0)] - z_n[b, None])
    rows = np.arange(len(b))
    for k in kk:  # a row's labels may repeat, so one position at a time
        live = back[:, k] >= 0
        grad[rows[live], lab[b[live], k]] -= num[live, k]
    return z_d - z_n, grad


def seg_loss(score_tensor: ScoreTensor, labels) -> Tensor:
    """Autodiff-wrapped marginal loss of a batch lattice, summed over its
    utterances in order, as one tape node; ``labels`` holds one transcript
    per utterance."""
    st = score_tensor
    losses, packed_grad = _loss_and_grad(st.packed.values, st.index, labels)
    out = Tensor(sum(losses.tolist()))
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


def viterbi_decode(score_tensor: ScoreTensor) -> list[SegPath]:
    """Highest-scoring segmentation of each utterance of a batch lattice.
    Ties prefer the smaller segment length, then the smaller label index."""
    grid = score_tensor.index
    P = _with_sentinel(score_tensor.packed.values)
    B, T, S = grid.shape
    V = P.shape[1]
    best = np.full((B, T + 1), NEG_INF)
    best[:, 0] = 0.0
    back = np.zeros((B, T + 1), dtype=np.intp)  # flat (s-1, v) of the best last segment
    for t in range(1, T + 1):
        s = np.arange(1, min(S, t) + 1)
        cand = (P[grid[:, t - s, s - 1]] + best[:, t - s, None]).reshape(B, -1)
        back[:, t] = np.argmax(cand, axis=1)  # first max: smallest s, then smallest v
        best[:, t] = cand[np.arange(B), back[:, t]]
    paths = []
    for b, length in enumerate(_lengths(grid).tolist()):
        segments = []
        t = length
        while t > 0:
            s0, v = divmod(int(back[b, t]), V)
            t -= s0 + 1
            segments.append((t, s0 + 1, v))
        paths.append(SegPath(tuple(reversed(segments)), length))
    return paths


def batch_segment_cap(lengths, word_counts, s_max: int = 32) -> int:
    """Per-batch max segment length: min(ceil(2 * max(len/words)), s_max)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    counts = np.asarray(word_counts, dtype=np.float64)
    if (counts < 1).any():
        raise SegmentalError("word counts must be >= 1")
    ratio = float((lengths / counts).max())
    return int(min(int(np.ceil(2.0 * ratio)), s_max))
