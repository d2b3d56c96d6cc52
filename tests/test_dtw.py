"""DTW against exhaustive path enumeration."""

import itertools
import json

import numpy as np
import pytest

from awekit import dtw, pipelines, synth
from awekit.config import ExperimentConfig


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


def oracle_frame_distances(x, y):
    """All-pairs cosine frame distance matrix, N x M, computed from scratch
    for each pair; zero-norm frames score distance 1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    ok = (nx > 0)[:, None] & (ny > 0)[None, :]
    denom = np.where(nx > 0, nx, 1.0)[:, None] * np.where(ny > 0, ny, 1.0)[None, :]
    cos = np.where(ok, (x @ y.T) / denom, 0.0)
    return 1.0 - cos


def oracle_dtw_batch(pairs, normalization, chunk):
    """Reference recurrence: a two-row buffer with pairs on the first
    axis, the predecessor chosen by ``np.argmin`` over the stacked
    (diagonal, up, left) costs, and its step count carried alongside."""
    out = np.empty(len(pairs))
    track_steps = normalization == "path-length"
    for c0 in range(0, len(pairs), chunk):
        sub = pairs[c0 : c0 + chunk]
        P = len(sub)
        ns = np.array([len(x) for x, _ in sub])
        ms = np.array([len(y) for _, y in sub])
        n_max, m_max = int(ns.max()), int(ms.max())
        d = np.zeros((P, n_max, m_max))
        for p, (x, y) in enumerate(sub):
            d[p, : len(x), : len(y)] = oracle_frame_distances(x, y)
        prev = np.full((P, m_max + 1), np.inf)
        prev[:, 0] = 0.0
        cur = np.empty((P, m_max + 1))
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
                st = np.stack((prev_steps[:, j - 1], prev_steps[:, j], cur_steps[:, j - 1]))
                cur_steps[:, j] = 1 + st[best, np.arange(P)]
            done = ns == i
            result[done] = cur[done, ms[done]]
            res_steps[done] = cur_steps[done, ms[done]]
            prev, cur = cur, prev
            prev_steps, cur_steps = cur_steps, prev_steps
        out[c0 : c0 + P] = result / res_steps if track_steps else result
    return out


def brute_force_cost(x, y, normalization):
    d = oracle_frame_distances(x, y)
    best = np.inf
    for path in enumerate_paths(len(x), len(y)):
        cost = sum(d[i - 1, j - 1] for i, j in path)
        if normalization == "path-length":
            cost /= len(path)
        best = min(best, cost)
    return best


class TestDtwCost:
    def test_self_alignment_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5))
        assert dtw.dtw_cost(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_frame_pair_is_frame_distance(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        assert dtw.dtw_cost(x, y) == pytest.approx(1.0)

    @pytest.mark.parametrize("normalization", ["none", "path-length"])
    def test_matches_enumeration_on_small_inputs(self, normalization):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n, m = rng.integers(1, 5, size=2)
            x = rng.standard_normal((n, 3))
            y = rng.standard_normal((m, 3))
            got = _normalized(*dtw.dtw_cost_batch([(x, y)]), normalization)[0]
            want = brute_force_cost(x, y, normalization)
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
        assert dtw.dtw_cost(x, y) == pytest.approx(1.0)
        assert zero_norm_events.count == 1

    def test_cost_ignores_frame_scale(self):
        # the frame distance is the cosine: rescaling each frame by a
        # positive factor leaves every cell, and so the optimal path and
        # its cost, unchanged up to rounding
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((9, 4))
        scaled = y * rng.uniform(0.1, 10.0, size=(9, 1))
        (c0,), (s0,) = dtw.dtw_cost_batch([(x, y)])
        (c1,), (s1,) = dtw.dtw_cost_batch([(x, scaled)])
        assert c1 == pytest.approx(c0, rel=1e-12)
        assert s1 == s0
        assert dtw.dtw_cost(x, scaled) == c1


def _normalized(costs, steps, normalization):
    return costs / steps if normalization == "path-length" else costs


class TestDtwBatch:
    @pytest.mark.parametrize("normalization", ["none", "path-length"])
    def test_batch_equals_scalar(self, normalization):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(40):
            n, m = rng.integers(1, 9, size=2)
            pairs.append((rng.standard_normal((n, 3)), rng.standard_normal((m, 3))))
        got = _normalized(*dtw.dtw_cost_batch(pairs, chunk=7), normalization)
        want = np.concatenate([_normalized(*dtw.dtw_cost_batch([pair]), normalization) for pair in pairs])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 37, 2048])
    def test_bit_identical_to_reference_recurrence(self, chunk):
        # rounded frames make equal predecessor costs (ties) and zero-norm
        # frames common; sequences recur across pairs, as in dtw_ap
        rng = np.random.default_rng(17)
        pool = [np.round(rng.standard_normal((int(rng.integers(1, 31)), 3))) for _ in range(40)]
        one, tall, wide = (np.round(rng.standard_normal((n, 3))) for n in (1, 9, 13))
        # 1-frame sides, and chunks of 2 whose longest x and longest y are
        # in different pairs
        shaped = [(one, wide), (tall, one), (one, one), (wide, one), (tall, wide), (one, tall), (wide, tall)]
        pairs = shaped + [(pool[a], pool[b]) for a, b in rng.integers(0, len(pool), size=(300, 2))]
        costs, steps = dtw.dtw_cost_batch(pairs, chunk=chunk)
        for normalization in ("none", "path-length"):
            want = oracle_dtw_batch(pairs, normalization, chunk=64)
            assert _normalized(costs, steps, normalization).tobytes() == want.tobytes()

    def test_unrounded_frames_match_per_pair_and_oracle_within_rounding(self):
        # unrounded frames round in every product, and a block's padded
        # product rounds differently from the product at a pair's own shape
        # (from the oracle's per-pair product, and with other chunk mates), so
        # costs agree to a tolerance: a cell is off by a few ulp of its
        # distance (rtol 1e-12 on costs up to ~260 cells).
        # Step counts stay exact: no two predecessor costs are that close.
        # Sequences recur across pairs, as in dtw_ap
        tol = {"rtol": 1e-12, "atol": 1e-12}
        rng = np.random.default_rng(29)
        for dim in (12, 40):
            lengths = [1, 1, 2, 130, *rng.integers(1, 131, size=16)]
            pool = [rng.standard_normal((int(n), dim)) for n in lengths]
            for x in pool[2:8]:
                x[rng.random(len(x)) < 0.2] = 0.0  # zero-norm frames
            pool.append(np.zeros((3, dim)))
            pairs = [(pool[a], pool[b]) for a, b in rng.integers(0, len(pool), size=(90, 2))]
            pairs += [(pool[0], pool[3]), (pool[3], pool[1]), (pool[0], pool[1]), (pool[-1], pool[0])]
            alone = [dtw.dtw_cost_batch([pair]) for pair in pairs]
            alone_costs = np.array([c[0] for c, _ in alone])
            alone_steps = np.array([s[0] for _, s in alone])
            want = {norm: oracle_dtw_batch(pairs, norm, chunk=len(pairs))
                    for norm in ("none", "path-length")}
            for chunk in (1, 37, 2048):
                costs, steps = dtw.dtw_cost_batch(pairs, chunk=chunk)
                np.testing.assert_allclose(costs, alone_costs, **tol)
                assert steps.tobytes() == alone_steps.tobytes()
                for norm, w in want.items():
                    np.testing.assert_allclose(_normalized(costs, steps, norm), w, **tol)

    def test_zero_norm_events_counted_once_per_cell(self):
        from awekit.autodiff import zero_norm_events

        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 1.0], [0.0, 0.0]])
        zero_norm_events.reset()
        dtw.dtw_cost_batch([(x, y), (y, x), (y, y)], chunk=2)
        # (x, y) and (y, x): 6 cells less the 1 x 1 with both frames
        # nonzero; (y, y): 4 cells less 1 x 1
        assert zero_norm_events.count == 5 + 5 + 3


class TestDtwAp:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        # words of about 5 to 30 frames, and more than one 2,000-pair chunk
        spec = synth.SyntheticSpec(vocab_size=6, num_train=4, num_eval=48, num_speakers=3,
                                   words_per_utterance=(1, 2), base_duration=(6, 24))
        return synth.write_corpus(synth.generate_corpus(spec, seed=3), tmp_path_factory.mktemp("c"))

    @staticmethod
    def _cfg(paths, threads):
        return ExperimentConfig.load(None, overrides={
            **{("data", key): paths[key] for key in ("train", "train_align", "dev", "dev_align")},
            ("run", "seed"): "1", ("run", "threads"): str(threads)})

    def test_costs_do_not_depend_on_sorting_or_threads(self, paths, tmp_path, monkeypatch):
        seen = []
        ap = pipelines.mx.average_precision
        monkeypatch.setattr(pipelines.mx, "average_precision",
                            lambda distances, same: seen.append((distances, same)) or ap(distances, same))
        for threads in (1, 2):
            pipelines.dtw_ap(self._cfg(paths, threads), tmp_path / f"t{threads}" / "dtw.json")

        segments = pipelines.dev_segments(pipelines.load_dataset(self._cfg(paths, 1)), 2, 200)
        frames = pipelines._segment_frames(segments)
        labels = [s.label for _, s in segments]
        pairs = [(i, j) for i in range(len(frames)) for j in range(i + 1, len(frames))]
        assert len(pairs) > 2000
        # the kernel over dtw_ap's length-sorted chunks of 2,000 pairs, scattered
        # back to pair order: the same block products, so the same bits on any BLAS
        lengths = np.array([len(x) for x in frames])
        first, second = np.array(pairs).T
        order = np.lexsort((lengths[second], lengths[first]))
        raw, steps = np.empty(len(pairs)), np.empty(len(pairs), dtype=np.int64)
        for c0 in range(0, len(pairs), 2000):
            chunk = order[c0 : c0 + 2000]
            raw[chunk], steps[chunk] = dtw.dtw_cost_batch(
                [(frames[first[p]], frames[second[p]]) for p in chunk])
        norm = raw / steps
        same = [labels[i] == labels[j] for i, j in pairs]
        for run in (0, 1):  # each run scores the raw, then the normalized costs
            assert seen[2 * run][0].tobytes() == raw.tobytes()
            assert seen[2 * run + 1][0].tobytes() == norm.tobytes()
            assert seen[2 * run][1].tolist() == same

        reports = []
        for threads in (1, 2):
            report = json.loads((tmp_path / f"t{threads}" / "dtw.json").read_text())
            assert report["config"]["run"].pop("threads") == str(threads)
            reports.append(report)
        assert reports[0] == reports[1]
        assert (tmp_path / "t1" / "dtw.tsv").read_bytes() == (tmp_path / "t2" / "dtw.tsv").read_bytes()
