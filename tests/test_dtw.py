"""DTW against exhaustive path enumeration."""

import itertools

import numpy as np
import pytest

from awekit import dtw
from awekit.dtw import DtwConfig


def enumerate_paths(n, m):
    """All monotone alignment paths from (1,1) to (n,m) under the 3-move set."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if (i, j) == (n, m):
            paths.append(list(path))
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di <= n and j + dj <= m:
                path.append((i + di, j + dj))
                extend(path)
                path.pop()

    extend([(1, 1)])
    return paths


def brute_force_cost(x, y, cfg):
    d = dtw.frame_distances(x, y, cfg.frame_distance)
    best = np.inf
    for path in enumerate_paths(len(x), len(y)):
        cost = sum(d[i - 1, j - 1] for i, j in path)
        if cfg.normalization == "path-length":
            cost /= len(path)
        best = min(best, cost)
    return best


class TestDtwCost:
    def test_self_alignment_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5))
        assert dtw.dtw_cost(x, x, DtwConfig("cosine")) == pytest.approx(0.0, abs=1e-12)

    def test_single_frame_pair_is_frame_distance(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        assert dtw.dtw_cost(x, y, DtwConfig("cosine")) == pytest.approx(1.0)
        assert dtw.dtw_cost(x, y, DtwConfig("euclidean")) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("distance", ["cosine", "euclidean"])
    @pytest.mark.parametrize("normalization", ["none", "path-length"])
    def test_matches_enumeration_on_small_inputs(self, distance, normalization):
        rng = np.random.default_rng(1)
        cfg = DtwConfig(distance, normalization)
        for _ in range(60):
            n, m = rng.integers(1, 5, size=2)
            x = rng.standard_normal((n, 3))
            y = rng.standard_normal((m, 3))
            got = dtw.dtw_cost(x, y, cfg)
            want = brute_force_cost(x, y, cfg)
            # unnormalized DP is exact; normalized optimum may differ since
            # the DP normalizes the unnormalized-optimal path
            if normalization == "none":
                assert got == pytest.approx(want, abs=1e-9)
            else:
                assert got >= want - 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(1, 6)), 4))
            y = rng.standard_normal((int(rng.integers(1, 6)), 4))
            a = dtw.dtw_cost(x, y)
            b = dtw.dtw_cost(y, x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_matching_diagonal_extension(self):
        rng = np.random.default_rng(3)
        # extending both sequences with one identical frame can only keep
        # or lower the cost (the diagonal step adds zero)
        for _ in range(20):
            x = rng.standard_normal((4, 3))
            y = rng.standard_normal((5, 3))
            base = dtw.dtw_cost(x, y)
            extra = rng.standard_normal((1, 3))
            ext = dtw.dtw_cost(np.vstack([x, extra]), np.vstack([y, extra]))
            assert ext <= base + 1e-12
        # when the appended frame is far from every original frame, no
        # shortcut exists and the cost is exactly unchanged
        direction = np.array([1.0, 0.0, 0.0])
        x = direction + 0.01 * rng.standard_normal((4, 3))
        y = direction + 0.01 * rng.standard_normal((5, 3))
        base = dtw.dtw_cost(x, y)
        assert base < 0.1  # near-parallel frames: tiny alignment cost
        far = -direction[None, :]  # cosine distance ~2 to every frame
        ext = dtw.dtw_cost(np.vstack([x, far]), np.vstack([y, far]))
        assert ext == pytest.approx(base, abs=1e-12)

    def test_cost_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.standard_normal((int(rng.integers(1, 7)), 2))
            y = rng.standard_normal((int(rng.integers(1, 7)), 2))
            assert dtw.dtw_cost(x, y) >= 0.0

    def test_zero_norm_frame_policy(self):
        from awekit.autodiff import zero_norm_events

        zero_norm_events.reset()
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        assert dtw.dtw_cost(x, y, DtwConfig("cosine")) == pytest.approx(1.0)
        assert zero_norm_events.count == 1


class TestDtwBatch:
    @pytest.mark.parametrize("normalization", ["none", "path-length"])
    def test_batch_equals_scalar(self, normalization):
        rng = np.random.default_rng(5)
        cfg = DtwConfig("cosine", normalization)
        pairs = []
        for _ in range(40):
            n, m = rng.integers(1, 9, size=2)
            pairs.append((rng.standard_normal((n, 3)), rng.standard_normal((m, 3))))
        got = dtw.dtw_cost_batch(pairs, cfg, chunk=7)
        want = np.array([dtw.dtw_cost(x, y, cfg) for x, y in pairs])
        np.testing.assert_allclose(got, want, atol=1e-12)
