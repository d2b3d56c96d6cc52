"""Dynamic time warping between frame sequences.

The cost matrix uses infinite borders with C[0,0] = 0 and the symmetric
3-move predecessor set {(i-1,j), (i,j-1), (i-1,j-1)}. ``dtw_cost_batch``
holds the one recurrence: one pass returns both the raw cost C[N,M] and
the number of steps on the optimal path (ties go diagonal, up, left), so
the raw and the path-length normalized cost (cost / steps) come from the
same pass. It walks anti-diagonals: one set of numpy calls updates the
cells i + j = k of every pair in a chunk, from three rolling diagonals
and a pair-first distance cube. Callers sort pairs by length before
chunking, so little is padded. ``dtw_cost`` runs the kernel on one pair.
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


def _frame_terms(x, kind: str) -> tuple:
    """The per-sequence terms of the frame distance: squared norms
    (euclidean), or norms with 1 in place of 0, the nonzero mask and its
    count (cosine). A batch computes them once per distinct array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("frame matrices must be 2-D with equal feature dims")
    if kind == "euclidean":
        return x, (x * x).sum(1)
    n = np.linalg.norm(x, axis=1)
    return x, np.where(n > 0, n, 1.0), n > 0, int(np.count_nonzero(n))


def frame_distances(tx: tuple, ty: tuple, kind: str) -> tuple[np.ndarray, int]:
    """All-pairs frame distance matrix, N x M, from two ``_frame_terms``,
    and the number of its cells with a zero-norm operand (cosine), which
    score distance 1."""
    x, y = tx[0], ty[0]
    if x.shape[1] != y.shape[1]:
        raise ValueError("frame matrices must be 2-D with equal feature dims")
    if kind == "euclidean":
        sq = tx[1][:, None] + ty[1][None, :] - 2.0 * (x @ y.T)
        return np.sqrt(np.maximum(sq, 0.0)), 0
    cos = (x @ y.T) / (tx[1][:, None] * ty[1][None, :])
    bad = x.shape[0] * y.shape[0] - tx[3] * ty[3]
    if bad:
        cos = np.where(tx[2][:, None] & ty[2][None, :], cos, 0.0)
    return 1.0 - cos, bad


def dtw_cost(x: np.ndarray, y: np.ndarray, cfg: DtwConfig = DtwConfig()) -> float:
    """Optimal monotone alignment cost between two frame sequences: the
    batch kernel on one pair.

    Zero-norm frames under the cosine distance score distance 1 against
    everything and bump the shared zero-norm event counter.
    """
    costs, steps = dtw_cost_batch([(x, y)], cfg.frame_distance)
    return float(costs[0] / steps[0] if cfg.normalization == "path-length" else costs[0])


def dtw_cost_batch(pairs, distance: str = "cosine", chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """DTW costs C[N,M] and optimal-path step counts for many (x, y) pairs.

    The one DTW recurrence, vectorized across pairs (padded to the
    chunk's max lengths; padding cells never feed a real pair's terminal
    cell because the DP only moves forward), so a pair's result does not
    depend on the pairs it is batched with. A cell is
    ``d + min(min(diag, up), left)``; its step count follows the first
    minimum in the order diagonal, up, left, so ties go diagonal first.
    Path-length normalization is ``costs / steps``.
    """
    costs = np.empty(len(pairs))
    steps = np.empty(len(pairs), dtype=np.int64)
    arrays = {id(a): a for pair in pairs for a in pair}
    terms = {k: _frame_terms(a, distance) for k, a in arrays.items()}
    bad = 0
    for c0 in range(0, len(pairs), chunk):
        sub = pairs[c0 : c0 + chunk]
        P = len(sub)
        ns = np.array([len(x) for x, _ in sub])
        ms = np.array([len(y) for _, y in sub])
        n_max, m_max = int(ns.max()), int(ms.max())
        d = np.zeros((P, n_max, m_max))
        for p, (x, y) in enumerate(sub):
            d[p, : len(x), : len(y)], n_bad = frame_distances(terms[id(x)], terms[id(y)], distance)
            bad += n_bad
        # C[i, k - i] and its step count are row i of D[k % 3] and S[k % 3]. Rows are
        # written only on later diagonals: borders keep their inf once C[0, 0] is spent.
        D = np.full((3, n_max + 1, P), np.inf)
        D[0, 0] = 0.0
        S = np.zeros((3, n_max + 1, P), dtype=np.int64)
        for k in range(2, n_max + m_max + 1):
            lo, hi = max(1, k - m_max), min(n_max, k - 1)  # the rows with 1 <= k - i <= m_max
            cur, prev, prev2 = D[k % 3], D[(k - 1) % 3], D[(k - 2) % 3]
            diag, up, left = prev2[lo - 1 : hi], prev[lo - 1 : hi], prev[lo : hi + 1]
            best = np.minimum(diag, up)
            st = np.where(up < diag, S[(k - 1) % 3, lo - 1 : hi], S[(k - 2) % 3, lo - 1 : hi])
            np.add(np.where(left < best, S[(k - 1) % 3, lo : hi + 1], st), 1, out=S[k % 3, lo : hi + 1])
            np.minimum(best, left, out=best)
            i = np.arange(lo, hi + 1)
            np.add(d[:, i - 1, k - i - 1].T, best, out=cur[lo : hi + 1])
            D[0, 0] = np.inf
            done = np.flatnonzero(ns + ms == k)
            costs[c0 + done] = cur[ns[done], done]
            steps[c0 + done] = S[k % 3, ns[done], done]
    if bad:
        zero_norm_events.add(bad)
    return costs, steps
