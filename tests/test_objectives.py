"""Losses against hand formulas and exhaustive-selection oracles."""

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import objectives as obj
from awekit.autodiff import Tensor
from awekit.objectives import ConfusionMatrix


def cosd(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 1.0 - a @ b / (na * nb)


def cross_entropy_word(logits, label_index):
    """Cross entropy of one (|V|,) logit vector, as a batch of one."""
    return float(obj.cross_entropy_batch(Tensor(np.asarray(logits)[None]), [label_index]).values)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy_word(np.zeros(4), 2) == pytest.approx(np.log(4))

    def test_dominant_logit_goes_to_zero(self):
        logits = np.zeros(5)
        logits[1] = 30.0
        assert cross_entropy_word(logits, 1) == pytest.approx(0.0, abs=1e-10)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(6)
            v = int(rng.integers(0, 6))
            want = -np.log(np.exp(z[v]) / np.exp(z).sum())
            got = cross_entropy_word(z, v)
            assert got == pytest.approx(want)

    def test_batch_matches_singles(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 5))
        ids = [0, 2, 4, 1]
        got = float(obj.cross_entropy_batch(Tensor(z), ids).values)
        want = sum(cross_entropy_word(z[i], ids[i]) for i in range(4))
        assert got == pytest.approx(want)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.standard_normal((3, 4)))
        assert ad.grad_check(lambda: obj.cross_entropy_batch(z, [1, 0, 3]), [z], eps=1e-5) <= 1e-4


class TestCosHingeTriplet:
    def test_opposite_negative_inactive(self):
        a = Tensor(np.array([1.0, 2.0, -0.5]))
        loss = obj.cos_hinge_triplet(a, a, ad.scale(a, -1.0), margin=0.4)
        assert float(loss.values) == pytest.approx(0.0)

    def test_equal_distances_give_margin(self):
        a = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0])
        d = np.array([0.0, 1.0])
        loss = obj.cos_hinge_triplet(Tensor(a), Tensor(s), Tensor(d), margin=0.4)
        assert float(loss.values) == pytest.approx(0.4)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, s, d = rng.standard_normal((3, 5))
            want = max(0.0, 0.5 + cosd(a, s) - cosd(a, d))
            got = float(obj.cos_hinge_triplet(Tensor(a), Tensor(s), Tensor(d), 0.5).values)
            assert got == pytest.approx(want)

    def test_gradient_off_kink(self):
        rng = np.random.default_rng(4)
        a, s, d = (Tensor(rng.standard_normal(4)) for _ in range(3))
        err = ad.grad_check(lambda: obj.cos_hinge_triplet(a, s, d, 0.9), [a, s, d], eps=1e-5)
        assert err <= 1e-4


class TestMostOffending:
    def test_single_candidate_equals_plain_triplet(self):
        rng = np.random.default_rng(5)
        a, s, d = rng.standard_normal((3, 4))
        got = obj.most_offending_triplet(Tensor(a), Tensor(s), Tensor(d[None, :]), 0.4)
        want = obj.cos_hinge_triplet(Tensor(a), Tensor(s), Tensor(d), 0.4)
        assert float(got.values) == pytest.approx(float(want.values))

    def test_selects_brute_force_argmin(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, s = rng.standard_normal((2, 6))
            negs = rng.standard_normal((8, 6))
            best = min(range(8), key=lambda j: (cosd(a, negs[j]), j))
            want = max(0.0, 0.3 + cosd(a, s) - cosd(a, negs[best]))
            got = float(obj.most_offending_triplet(Tensor(a), Tensor(s), Tensor(negs), 0.3).values)
            assert got == pytest.approx(want)

    def test_equal_violations_share_value(self):
        a = np.array([1.0, 0.0])
        s = np.array([1.0, 0.0])
        # scaled copies share the same cosine distance: both violate equally
        negs = np.array([[1.0, 0.1], [2.0, 0.2]])
        common_hinge = 0.4 + 0.0 - cosd(a, negs[0])
        got = float(obj.most_offending_triplet(Tensor(a), Tensor(s), Tensor(negs), 0.4).values)
        assert got == pytest.approx(common_hinge)

    def test_empty_candidates_rejected(self):
        with pytest.raises(obj.ObjectiveError):
            obj.most_offending_triplet(Tensor(np.ones(3)), Tensor(np.ones(3)), Tensor(np.zeros((0, 3))), 0.4)


class TestConfusionMatrix:
    def test_reset_state_gives_uniform_pmf(self):
        cm = ConfusionMatrix(4)
        pmf = cm.pmf(1)
        np.testing.assert_allclose(pmf, [1 / 3, 0, 1 / 3, 1 / 3])

    def test_no_violation_leaves_matrix(self):
        cm = ConfusionMatrix(3)
        before = cm.matrix.copy()
        a = np.array([1.0, 0.0])
        s = np.array([1.0, 0.1])
        d = np.array([-1.0, 0.0])  # d(a,d)=2 > d(a,s)+0.6
        cm.update(0, 1, a, s, d)
        np.testing.assert_array_equal(cm.matrix, before)

    def test_forced_violations_match_hand_pmf(self):
        cm = ConfusionMatrix(3, threshold=0.6)
        a = np.array([1.0, 0.0])
        s = np.array([1.0, 0.0])
        d1 = np.array([1.0, 0.001])  # cos ~1, violates
        d2 = np.array([0.8, 0.6])  # cos 0.8, violates
        cm.update(0, 1, a, s, d1)
        cm.update(0, 2, a, s, d2)
        cos1 = a @ d1 / np.linalg.norm(d1)
        row = np.array([0.0, 1.0 + cos1, 1.0 + 0.8])
        np.testing.assert_allclose(cm.pmf(0), row / row.sum(), atol=1e-9)
        # symmetric update happened too
        assert cm.matrix[1, 0] == cm.matrix[0, 1]

    def test_sampling_is_seeded(self):
        cm = ConfusionMatrix(5)
        a = int(cm.sample_different(2, np.random.default_rng(0)))
        b = int(cm.sample_different(2, np.random.default_rng(0)))
        assert a == b and a != 2


def multiview_oracle(A, labels, W, vocab, margin, k, strategy, terms, sqrt_variant):
    """Exhaustive recomputation with linear scans."""
    col = {v: j for j, v in enumerate(vocab)}
    daw = np.array([[cosd(a, w) for w in W] for a in A])
    dww = np.array([[cosd(u, w) for w in W] for u in W])
    total = 0.0
    for term in terms:
        for i, lab in enumerate(labels):
            li = col[lab]
            pos = daw[i, li]
            if term == 0:
                cands = [j for j in range(len(vocab)) if j != li]
                dist = {j: daw[i, j] for j in cands}
            elif term == 1:
                cands = [j for j in range(len(vocab)) if j != li]
                dist = {j: dww[li, j] for j in cands}
            else:
                cands = [j for j in range(len(A)) if labels[j] != lab]
                dist = {j: daw[j, li] for j in cands}
            if strategy == "semi-hard":
                cands = [j for j in cands if dist[j] > pos]
            if not cands:
                continue
            cands = sorted(cands, key=lambda j: (dist[j], j))[:k]
            hinges = [max(0.0, margin + pos - dist[j]) for j in cands]
            val = float(np.mean(hinges))
            total += np.sqrt(val) if sqrt_variant else val
    return total


def _random_batch(seed, n=6, d=5, num_labels=3):
    rng = np.random.default_rng(seed)
    labels = [f"w{int(rng.integers(0, num_labels))}" for _ in range(n)]
    vocab = sorted(set(labels))
    A = rng.standard_normal((n, d))
    W = rng.standard_normal((len(vocab), d))
    batch = (Tensor(A), labels, vocab, Tensor(W))  # multiview_loss's first four arguments
    return batch, A, labels, W, vocab


class TestMultiView:
    def test_single_unique_label_gives_zero(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 4))
        W = rng.standard_normal((1, 4))
        loss = obj.multiview_loss(Tensor(A), ["w", "w", "w"], ["w"], Tensor(W), 0.4, 2, terms=(0, 1, 2))
        assert float(loss.values) == 0.0

    def test_well_separated_pairs_give_zero(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = obj.multiview_loss(Tensor(A), ["a", "b"], ["a", "b"], Tensor(W), 0.4, 1, terms=(0, 2))
        assert float(loss.values) == pytest.approx(0.0)

    @pytest.mark.parametrize("strategy", ["hard", "semi-hard"])
    @pytest.mark.parametrize("terms", [(0,), (1,), (2,), (0, 2), (0, 1, 2)])
    @pytest.mark.parametrize("sqrt_variant", [False, True])
    def test_matches_exhaustive_oracle(self, strategy, terms, sqrt_variant):
        for seed in range(4):
            batch, A, labels, W, vocab = _random_batch(seed)
            loss = obj.multiview_loss(*batch, 0.4, 2, strategy, terms=terms, sqrt_variant=sqrt_variant)
            want = multiview_oracle(A, labels, W, vocab, 0.4, 2, strategy, terms, sqrt_variant)
            assert float(loss.values) == pytest.approx(want, abs=1e-10)

    def test_k_covering_everything_equals_exhaustive(self):
        batch, A, labels, W, vocab = _random_batch(11)
        a = obj.multiview_loss(*batch, 0.4, 999, terms=(0, 2))
        want = multiview_oracle(A, labels, W, vocab, 0.4, 999, "hard", (0, 2), False)
        assert float(a.values) == pytest.approx(want)

    def test_batch_permutation_invariance(self):
        batch, A, labels, W, vocab = _random_batch(12)
        perm = np.random.default_rng(0).permutation(len(labels))
        batch2 = (Tensor(A[perm]), [labels[p] for p in perm], vocab, Tensor(W))
        a = float(obj.multiview_loss(*batch, 0.45, 2, terms=(0, 1, 2)).values)
        b = float(obj.multiview_loss(*batch2, 0.45, 2, terms=(0, 1, 2)).values)
        assert a == pytest.approx(b, abs=1e-12)

    def test_loss_nonnegative(self):
        for seed in range(6):
            batch, *_ = _random_batch(seed, n=5)
            loss = obj.multiview_loss(*batch, 0.4, 3, terms=(0, 1, 2))
            assert float(loss.values) >= 0.0

    def test_semi_hard_empty_sets_contribute_zero(self):
        # all negatives closer than the positive: semi-hard excludes them all
        A = np.array([[1.0, 0.0]])
        W = np.array([[0.0, 1.0], [1.0, 0.0]])  # "a" orthogonal, "b" aligned
        loss = obj.multiview_loss(Tensor(A), ["a"], ["a", "b"], Tensor(W), 0.4, 5, "semi-hard", terms=(0,))
        assert float(loss.values) == 0.0

    def test_uniform_sampling_seeded(self):
        batch, *_ = _random_batch(13)
        a = float(obj.multiview_loss(*batch, 0.4, 2, "uniform", terms=(0, 2), rng=np.random.default_rng(5)).values)
        b = float(obj.multiview_loss(*batch, 0.4, 2, "uniform", terms=(0, 2), rng=np.random.default_rng(5)).values)
        assert a == pytest.approx(b)

    def test_confusion_strategy_rejected(self):
        batch, *_ = _random_batch(14)
        with pytest.raises(obj.ObjectiveError):
            obj.multiview_loss(*batch, 0.4, 2, "confusion")

    def test_gradients_off_kinks(self):
        batch, A, labels, W, vocab = _random_batch(15, n=4, d=3)
        a_t, w_t = batch[0], batch[3]

        def f():
            return obj.multiview_loss(a_t, labels, vocab, w_t, 0.37, 2, terms=(0, 1, 2))

        assert ad.grad_check(f, [a_t, w_t], eps=1e-5) <= 1e-4

    def test_sqrt_variant_gradient(self):
        batch, A, labels, W, vocab = _random_batch(16, n=4, d=3)
        a_t, w_t = batch[0], batch[3]

        def f():
            return obj.multiview_loss(a_t, labels, vocab, w_t, 0.42, 2, terms=(0, 2), sqrt_variant=True)

        assert ad.grad_check(f, [a_t, w_t], eps=1e-5) <= 1e-4


class TestBatchVocabulary:
    def test_extras_sampled_outside_batch(self):
        full = [f"w{i}" for i in range(20)]
        rng = np.random.default_rng(17)
        vocab = obj.batch_vocabulary(["w3", "w5", "w3"], full, extras=4, rng=rng)
        assert len(vocab) == 6 and vocab == sorted(vocab)
        assert {"w3", "w5"} <= set(vocab)

    def test_no_extras_is_sorted_unique(self):
        assert obj.batch_vocabulary(["b", "a", "b"]) == ["a", "b"]


class TestRegularizerAndJoint:
    def test_zero_when_rows_match(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((4, 6))
        loss = obj.agwe_regularizer(Tensor(w), Tensor(w.copy()))
        assert float(loss.values) == 0.0

    def test_three_four_five(self):
        w = np.zeros((1, 4))
        g = np.array([[3.0, 4.0, 0.0, 0.0]])
        assert float(obj.agwe_regularizer(Tensor(w), Tensor(g)).values) == pytest.approx(5.0)

    def test_matches_norm_oracle(self):
        rng = np.random.default_rng(19)
        w = rng.standard_normal((5, 3))
        g = rng.standard_normal((5, 3))
        want = np.linalg.norm(g - w, axis=1).sum()
        assert float(obj.agwe_regularizer(Tensor(w), Tensor(g)).values) == pytest.approx(want)

    def test_regularizer_gradient(self):
        rng = np.random.default_rng(20)
        w = Tensor(rng.standard_normal((3, 4)))
        g = Tensor(rng.standard_normal((3, 4)))
        assert ad.grad_check(lambda: obj.agwe_regularizer(w, g), [w, g], eps=1e-5) <= 1e-4

    def test_combine_zero_lambdas_is_asr(self):
        asr = Tensor(np.array(2.5))
        out = obj.combine_joint(asr, Tensor(np.array(1.0)), Tensor(np.array(3.0)), 0.0, 0.0)
        assert float(out.values) == 2.5

    def test_convex_lambda_one_is_pure_regularizer(self):
        out = obj.combine_joint(Tensor(np.array(2.5)), None, Tensor(np.array(3.0)), 0.0, 1.0, "convex")
        assert float(out.values) == pytest.approx(3.0)

    def test_additive_hand_sum(self):
        out = obj.combine_joint(
            Tensor(np.array(2.0)), Tensor(np.array(4.0)), Tensor(np.array(1.0)), 0.5, 0.25
        )
        assert float(out.values) == pytest.approx(2.0 + 0.5 * 4.0 + 0.25 * 1.0)
