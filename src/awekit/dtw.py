"""Dynamic time warping between frame sequences.

The cost matrix uses infinite borders with C[0,0] = 0 and the symmetric
3-move predecessor set {(i-1,j), (i,j-1), (i-1,j-1)}; the returned value
is C[N,M], optionally divided by the number of steps on one optimal path
(path-length normalization). Memory is a two-row rolling buffer plus a
step-count row when normalizing. ``dtw_cost_batch`` holds the one
recurrence; ``dtw_cost`` runs it on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import zero_norm_events


@dataclass(frozen=True)
class DtwConfig:
    frame_distance: str = "cosine"  # cosine | euclidean
    normalization: str = "none"  # none | path-length

    def __post_init__(self):
        if self.frame_distance not in ("cosine", "euclidean"):
            raise ValueError(f"unknown frame distance {self.frame_distance!r}")
        if self.normalization not in ("none", "path-length"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def frame_distances(x: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """All-pairs frame distance matrix, N x M."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("frame matrices must be 2-D with equal feature dims")
    if kind == "euclidean":
        sq = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T)
        return np.sqrt(np.maximum(sq, 0.0))
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    ok = (nx > 0)[:, None] & (ny > 0)[None, :]
    bad = ok.size - np.count_nonzero(ok)
    if bad:
        zero_norm_events.count += int(bad)
    denom = np.where(nx > 0, nx, 1.0)[:, None] * np.where(ny > 0, ny, 1.0)[None, :]
    cos = np.where(ok, (x @ y.T) / denom, 0.0)
    return 1.0 - cos


def dtw_cost(x: np.ndarray, y: np.ndarray, cfg: DtwConfig = DtwConfig()) -> float:
    """Optimal monotone alignment cost between two frame sequences: the
    batch kernel on one pair.

    Zero-norm frames under the cosine distance score distance 1 against
    everything and bump the shared zero-norm event counter.
    """
    return float(dtw_cost_batch([(x, y)], cfg)[0])


def dtw_cost_batch(pairs, cfg: DtwConfig = DtwConfig(), chunk: int = 2048) -> np.ndarray:
    """DTW costs for many (x, y) pairs at once.

    The one DTW recurrence: the cell loop runs over a two-row buffer and
    is vectorized across pairs (pairs padded to the chunk's max lengths;
    padding cells never feed a real pair's terminal cell because the DP
    only moves forward), so a pair's cost does not depend on the pairs it
    is batched with. Ties between predecessors go diagonal, up, left.
    """
    out = np.empty(len(pairs))
    track_steps = cfg.normalization == "path-length"
    for c0 in range(0, len(pairs), chunk):
        sub = pairs[c0 : c0 + chunk]
        P = len(sub)
        ns = np.array([len(x) for x, _ in sub])
        ms = np.array([len(y) for _, y in sub])
        n_max, m_max = int(ns.max()), int(ms.max())
        d = np.zeros((P, n_max, m_max))
        for p, (x, y) in enumerate(sub):
            d[p, : len(x), : len(y)] = frame_distances(x, y, cfg.frame_distance)
        prev = np.full((P, m_max + 1), np.inf)
        prev[:, 0] = 0.0
        cur = np.empty((P, m_max + 1))
        if track_steps:
            prev_steps = np.zeros((P, m_max + 1), dtype=np.int64)
            cur_steps = np.zeros((P, m_max + 1), dtype=np.int64)
        result = np.empty(P)
        res_steps = np.zeros(P, dtype=np.int64)
        for i in range(1, n_max + 1):
            cur[:, 0] = np.inf
            for j in range(1, m_max + 1):
                moves = np.stack((prev[:, j - 1], prev[:, j], cur[:, j - 1]))
                best = np.argmin(moves, axis=0)
                cur[:, j] = d[:, i - 1, j - 1] + moves[best, np.arange(P)]
                if track_steps:
                    st = np.stack((prev_steps[:, j - 1], prev_steps[:, j], cur_steps[:, j - 1]))
                    cur_steps[:, j] = 1 + st[best, np.arange(P)]
            done = ns == i
            if done.any():
                result[done] = cur[done, ms[done]]
                if track_steps:
                    res_steps[done] = cur_steps[done, ms[done]]
            prev, cur = cur, prev
            if track_steps:
                prev_steps, cur_steps = cur_steps, prev_steps
        out[c0 : c0 + P] = result / res_steps if track_steps else result
    return out

