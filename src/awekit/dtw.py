"""Dynamic time warping between frame sequences under the cosine frame
distance (1 - cos, with cos 0 at a zero-norm frame).

The cost matrix uses infinite borders with C[0,0] = 0 and the symmetric
3-move predecessor set {(i-1,j), (i,j-1), (i-1,j-1)}. ``dtw_cost_batch``
holds the one recurrence: one pass returns both the raw cost C[N,M] and
the number of steps on the optimal path (ties go diagonal, up, left), so
the raw and the path-length normalized cost (cost / steps) come from the
same pass. It walks anti-diagonals: one set of numpy calls updates the
cells i + j = k of every pair in a chunk, from three rolling diagonals
and a pair-first distance cube, built a block of pairs at a time: one
batched product of the block's padded frames (which can round differently
from a pair's own product, so a cost can move in its last bits with its
block mates), then the division by per-sequence norm tables. Callers sort
pairs by length before chunking, so little is padded. ``dtw_cost`` runs
the kernel on one pair.
"""
from __future__ import annotations

import numpy as np

from .autodiff import zero_norm_events

_BLOCK = 128  # pairs per distance-cube product: bounds its temporaries


def dtw_cost(x: np.ndarray, y: np.ndarray) -> float:
    """Raw optimal monotone alignment cost between two frame sequences: the
    batch kernel on one pair.

    Zero-norm frames score distance 1 against everything and bump the
    shared zero-norm event counter.
    """
    return float(dtw_cost_batch([(x, y)])[0][0])


def dtw_cost_batch(pairs, chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """DTW costs C[N,M] and optimal-path step counts for many (x, y) pairs.

    The one DTW recurrence, vectorized across pairs (padded to the
    chunk's max lengths; padding cells never feed a real pair's terminal
    cell because the DP only moves forward). A pair's result depends on
    the pairs it is batched with only through the rounding of the padded
    frame products. A cell is
    ``d + min(min(diag, up), left)``; its step count follows the first
    minimum in the order diagonal, up, left, so ties go diagonal first.
    Path-length normalization is ``costs / steps``.
    """
    costs = np.empty(len(pairs))
    steps = np.empty(len(pairs), dtype=np.int64)
    arrays = {id(a): a for pair in pairs for a in pair}
    slot = {k: s for s, k in enumerate(arrays)}  # each distinct array's row in the tables below
    frames = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
    if any(x.ndim != 2 or x.shape[1] != frames[0].shape[1] for x in frames):
        raise ValueError("frame matrices must be 2-D with equal feature dims")
    sx = np.array([slot[id(x)] for x, _ in pairs], dtype=np.intp)
    sy = np.array([slot[id(y)] for _, y in pairs], dtype=np.intp)
    # per sequence, padded: the frames, the norms (1 at zero-norm frames and at
    # padding) and the nonzero-norm mask
    lens = np.array([len(x) for x in frames], dtype=np.intp)
    table = np.zeros((len(frames), max(2, lens.max(initial=0)), frames[0].shape[1]))
    scale = np.ones(table.shape[:2])
    ok = np.zeros(scale.shape, dtype=bool)
    for s, x in enumerate(frames):
        table[s, : len(x)] = x
        n = np.linalg.norm(x, axis=1)
        ok[s, : len(x)] = n > 0
        scale[s, : len(x)] = np.where(n > 0, n, 1.0)
    nonzero = ok.sum(1)  # cells with a zero-norm operand score distance 1
    zero_norm_events.add(int((lens[sx] * lens[sy] - nonzero[sx] * nonzero[sy]).sum()))
    for c0 in range(0, len(pairs), chunk):
        P = min(chunk, len(pairs) - c0)
        ns, ms = lens[sx[c0 : c0 + P]], lens[sy[c0 : c0 + P]]
        n_max, m_max = int(ns.max()), int(ms.max())
        d = np.zeros((P, max(2, n_max), max(2, m_max)))
        for b0 in range(0, P, _BLOCK):  # the distances, a block of pairs at a time
            e = c0 + min(P, b0 + _BLOCK)
            a, b = sx[c0 + b0 : e], sy[c0 + b0 : e]
            # at least 2 x 2, so that a 1-frame side takes the same BLAS routine as the rest
            n, m = max(2, int(lens[a].max())), max(2, int(lens[b].max()))
            blk = np.matmul(table[a, :n], table[b, :m].transpose(0, 2, 1))
            blk /= scale[a, :n, None] * scale[b, None, :m]
            np.copyto(blk, 0.0, where=~(ok[a, :n, None] & ok[b, None, :m]))
            np.subtract(1.0, blk, out=blk)
            d[b0 : b0 + len(a), :n, :m] = blk
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
    return costs, steps
