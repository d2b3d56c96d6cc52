"""Metrics against hand computations and brute-force oracles."""

import numpy as np
import pytest

from awekit import metrics
from awekit.metrics import QueryResultSet


def brute_force_ap(distances, is_same):
    """Direct threshold sweep, recomputing TP/FP/FN from scratch."""
    distances = np.asarray(distances, dtype=np.float64)
    is_same = np.asarray(is_same, dtype=bool)
    ap = 0.0
    prev_recall = 0.0
    n_pos = is_same.sum()
    for th in sorted(set(distances)):
        pred = distances <= th
        tp = (pred & is_same).sum()
        fp = (pred & ~is_same).sum()
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


class TestAveragePrecision:
    def test_perfect_separation(self):
        d = [0.1, 0.2, 0.8, 0.9]
        y = [True, True, False, False]
        assert metrics.average_precision(d, y) == pytest.approx(1.0)

    def test_hand_swept_interleaving(self):
        # ranked [same, diff, diff, same]: AP = 1*0.5 + 0.5*0.5 = 0.75
        d = [0.1, 0.4, 0.2, 0.3]
        y = [True, True, False, False]
        assert metrics.average_precision(d, y) == pytest.approx(0.75)

    def test_all_same_pairs(self):
        assert metrics.average_precision([0.9, 0.1, 0.5], [True, True, True]) == pytest.approx(1.0)

    def test_no_positive_pairs_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.average_precision([0.1], [False])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        d = rng.random(60)
        y = rng.random(60) < 0.3
        y[0] = True
        base = metrics.average_precision(d, y)
        assert metrics.average_precision(np.exp(3 * d) + 5, y) == pytest.approx(base)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_sweep(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 8, size=40) / 7.0  # force ties
        y = rng.random(40) < 0.4
        if not y.any():
            y[0] = True
        assert metrics.average_precision(d, y) == pytest.approx(brute_force_ap(d, y))


class TestDiscriminationAp:
    def test_two_segments_same_label(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((2, 4))
        assert metrics.acoustic_ap(e, ["cat", "cat"]) == pytest.approx(1.0)

    def test_orthogonal_classes_perfect(self):
        e = np.array([[1.0, 0], [1, 0.01], [0, 1.0], [0.01, 1]])
        labels = ["a", "a", "b", "b"]
        assert metrics.acoustic_ap(e, labels) == pytest.approx(1.0)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((20, 6))
        labels = [f"w{i % 4}" for i in range(20)]
        dists, same = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                c = e[i] @ e[j] / (np.linalg.norm(e[i]) * np.linalg.norm(e[j]))
                dists.append(1 - c)
                same.append(labels[i] == labels[j])
        want = brute_force_ap(dists, same)
        assert metrics.acoustic_ap(e, labels) == pytest.approx(want)

    def test_cross_view_matches_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 5))
        alabels = [f"w{i % 3}" for i in range(12)]
        w = rng.standard_normal((3, 5))
        wlabels = ["w0", "w1", "w2"]
        dists, same = [], []
        for i in range(12):
            for j in range(3):
                c = a[i] @ w[j] / (np.linalg.norm(a[i]) * np.linalg.norm(w[j]))
                dists.append(1 - c)
                same.append(alabels[i] == wlabels[j])
        want = brute_force_ap(dists, same)
        got = metrics.cross_view_ap(a, alabels, w, wlabels)
        assert got == pytest.approx(want)

    def test_zero_rows_are_at_distance_one(self):
        """A zero-norm embedding stays zero when normalized, so its cosine
        distance to every row is exactly 1, in both APs."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3))
        a[[1, 4]] = 0.0
        alabels = ["x", "y", "x", "y", "x", "y"]
        w = np.vstack([rng.standard_normal(3), np.zeros(3)])
        wlabels = ["x", "y"]
        dist = 1.0 - metrics.unit_rows(a) @ metrics.unit_rows(w).T
        assert (dist[[1, 4]] == 1.0).all() and (dist[:, 1] == 1.0).all()

        def oracle(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return 1.0 if nu == 0 or nv == 0 else 1 - u @ v / (nu * nv)

        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        want = brute_force_ap([oracle(a[i], a[j]) for i, j in pairs],
                              [alabels[i] == alabels[j] for i, j in pairs])
        assert metrics.acoustic_ap(a, alabels) == pytest.approx(want)
        want = brute_force_ap([oracle(a[i], w[j]) for i in range(6) for j in range(2)],
                              [alabels[i] == wlabels[j] for i in range(6) for j in range(2)])
        assert metrics.cross_view_ap(a, alabels, w, wlabels) == pytest.approx(want)


def _dense_results(scores, truth, hours=1.0, types=None):
    q = [f"q{i}" for i in range(len(scores))]
    u = [f"u{j}" for j in range(len(scores[0]))]
    return QueryResultSet(q, u, np.array(scores, dtype=float), np.array(truth, dtype=bool),
                          types or {}, hours)


class TestFom:
    def test_perfect_detector(self):
        res = _dense_results([[0.9, 0.8, 0.1, 0.1]], [[True, True, False, False]])
        assert metrics.fom(res) == pytest.approx(1.0)

    def test_zero_hit_detector(self):
        res = _dense_results([[0.9, 0.8, 0.1]], [[False, False, True]])
        # the only positive ranks last: at 1..10 FA/hr with 2 negatives and
        # 1 hour, recall reaches 1 only at fa=2; fa=1 -> 0
        per = metrics.fom_per_query(res)
        assert per["q0"] == pytest.approx(0.9)  # 0 at fa=1, 1 at fa>=2
        nohit = _dense_results([[0.0, 0.0, 0.0]], [[False, False, True]])
        assert metrics.fom_per_query(nohit)["q0"] <= 1.0

    def test_three_query_hand_fixture(self):
        # query C: 20 utterances, positives at ranks 3, 6, 10, 20; 1 hour
        scores_c = np.linspace(1.0, 0.05, 20)
        truth_c = np.zeros(20, dtype=bool)
        truth_c[[2, 5, 9, 19]] = True
        # queries A and B are perfect and near-perfect
        scores_a = np.linspace(1.0, 0.05, 20)
        truth_a = np.zeros(20, dtype=bool)
        truth_a[[0, 1]] = True
        scores_b = np.linspace(1.0, 0.05, 20)
        truth_b = np.zeros(20, dtype=bool)
        truth_b[[0, 2]] = True  # one negative at rank 2: recall 1 at fa=1
        res = _dense_results(
            [scores_a, scores_b, scores_c], [truth_a, truth_b, truth_c]
        )
        per = metrics.fom_per_query(res)
        assert per["q0"] == pytest.approx(1.0)
        assert per["q1"] == pytest.approx(1.0)
        # hand interpolation: recalls at fa 1..10 = 0,.25,.25,.5,.5,.5,.75,.75,.75,.75
        assert per["q2"] == pytest.approx(0.5)
        assert metrics.fom(res) == pytest.approx((1.0 + 1.0 + 0.5) / 3)


class TestOtwvPAtK:
    def test_otwv_hand_case(self):
        res = _dense_results([[0.9, 0.8, 0.7]], [[True, False, True]])
        per = metrics.otwv_per_query(res, beta=1.0)
        # thresholds: recall .5 @ pfa 0 -> .5; recall .5 @ pfa 1 -> -.5;
        # recall 1 @ pfa 1 -> 0; best 0.5
        assert per["q0"] == pytest.approx(0.5)

    def test_otwv_perfect(self):
        res = _dense_results([[0.9, 0.8, 0.1, 0.1]], [[True, True, False, False]])
        assert metrics.otwv(res) == pytest.approx(1.0)

    def test_p_at_10_with_ten_correct(self):
        scores = [list(np.linspace(1, 0.1, 12))]
        truth = [[True] * 10 + [False] * 2]
        assert metrics.p_at_k(_dense_results(scores, truth), k=10) == pytest.approx(1.0)

    def test_p_at_k_counts_top_k(self):
        scores = [[0.9, 0.8, 0.7, 0.6]]
        truth = [[True, False, True, True]]
        assert metrics.p_at_k(_dense_results(scores, truth), k=3) == pytest.approx(2 / 3)

    def test_aggregate_median_max(self):
        per = {"a1": 0.2, "a2": 0.4, "a3": 0.9}
        types = {"a1": "t", "a2": "t", "a3": "t"}
        med, mx = metrics.aggregate_median_max(per, types)
        assert med == pytest.approx(0.4)
        assert mx == pytest.approx(0.9)

    def test_aggregate_unweighted_over_types(self):
        per = {"a": 0.2, "b": 0.4, "c": 1.0}
        types = {"a": "t1", "b": "t1", "c": "t2"}
        med, mx = metrics.aggregate_median_max(per, types)
        assert med == pytest.approx((0.3 + 1.0) / 2)
        assert mx == pytest.approx((0.4 + 1.0) / 2)


class TestCnxeTwv:
    def test_perfect_scores(self):
        scores = [1.0, 1.0, 0.0, 0.0, 0.0]
        truth = [True, True, False, False, False]
        assert metrics.max_twv(scores, truth) == pytest.approx(1.0)
        assert metrics.min_cnxe(scores, truth) < 0.01

    def test_random_scores_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            scores = rng.random(40)
            truth = rng.random(40) < 0.5
            if not truth.any() or truth.all():
                truth[0] = True
                truth[1] = False
            assert metrics.min_cnxe(scores, truth) <= 1.0 + 1e-12

    def test_twv_hand_case(self):
        scores = [0.9, 0.7, 0.4, 0.2]
        truth = [True, False, True, False]
        # thresholds: .5, -.5, 0, -1; reject-all 0 => max .5
        assert metrics.max_twv(scores, truth, beta=2.0) == pytest.approx(0.5)

    def test_twv_needs_positives(self):
        with pytest.raises(metrics.MetricError):
            metrics.max_twv([0.5], [False])


class TestWer:
    def test_identical(self):
        r = metrics.wer(["a", "b"], ["a", "b"])
        assert r == (0, 0, 0, 0.0)

    def test_single_deletion(self):
        r = metrics.wer(["a", "b", "c"], ["a", "c"])
        assert r.deletions == 1 and r.substitutions == 0 and r.insertions == 0
        assert r.rate == pytest.approx(1 / 3)

    def test_empty_ref_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.wer([], ["a"])

    def test_edit_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ref = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 8))]
            hyp = [str(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
            r = metrics.wer(ref, hyp)
            total = r.substitutions + r.deletions + r.insertions
            assert total <= len(ref) + len(hyp)
            assert metrics.wer(ref, ref).rate == 0.0

    def test_matches_quadratic_oracle(self):
        def edit_distance(a, b):
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[-1] + 1))
                prev = cur
            return prev[-1]

        rng = np.random.default_rng(6)
        for _ in range(50):
            ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 10))]
            hyp = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 10))]
            r = metrics.wer(ref, hyp)
            want = edit_distance(ref, hyp)
            assert r.substitutions + r.deletions + r.insertions == want
            assert r.rate == pytest.approx(want / len(ref))


def fractional_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    i = 0
    while i < len(sx):
        j = i
        while j + 1 < len(sx) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    return ranks


def spearman_rho(x, y):
    """Pearson correlation of fractional ranks (ties get average ranks)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y) or len(x) < 2:
        raise metrics.MetricError("need two same-length vectors with >= 2 entries")
    rx, ry = fractional_ranks(x), fractional_ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        raise metrics.MetricError("rank correlation undefined for constant input")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


class TestSpearman:
    def test_identity(self):
        x = [1.0, 2.0, 5.0, 3.0]
        assert spearman_rho(x, x) == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [9.0, 7.0, 4.0, 1.0]
        assert spearman_rho(x, [-v for v in x]) == pytest.approx(-1.0)
        assert spearman_rho(x, y[::-1]) == pytest.approx(1.0)

    def test_tied_data_matches_rank_then_pearson(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 5, size=30).astype(float)
        y = x + rng.integers(-1, 2, size=30)

        def ranks(v):
            order = np.argsort(v, kind="stable")
            r = np.empty(len(v))
            sv = np.sort(v)
            for val in np.unique(sv):
                idx = np.nonzero(v == val)[0]
                lo = np.searchsorted(sv, val, "left")
                hi = np.searchsorted(sv, val, "right")
                r[idx] = (lo + hi - 1) / 2 + 1
            return r

        rx, ry = ranks(x), ranks(y)
        want = np.corrcoef(rx, ry)[0, 1]
        assert spearman_rho(x, y) == pytest.approx(want)

    def test_constant_input_rejected(self):
        with pytest.raises(metrics.MetricError):
            spearman_rho([1.0, 1.0], [0.5, 0.7])
