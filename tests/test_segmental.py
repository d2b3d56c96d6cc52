"""Segmental DP against exhaustive segmentation enumeration."""

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import segmental as seg
from awekit.autodiff import Tape, Tensor
from awekit.corpus import Vocabulary
from awekit.encoders import AcousticEncoder, AcousticEncoderConfig, PredictionLayer
from test_encoders import pool_segment


def compositions(total, max_part):
    """All ordered tilings of ``total`` into parts in [1, max_part]."""
    if total == 0:
        yield ()
        return
    for part in range(1, min(max_part, total) + 1):
        for rest in compositions(total - part, max_part):
            yield (part,) + rest


def enum_denominator(U):
    """Sum over all segmentations and labelings, by composition: labels
    factor independently per segment."""
    T, S, V = U.shape
    total = 0.0
    for comp in compositions(T, S):
        t = 0
        prod = 1.0
        for s in comp:
            prod *= np.exp(U[t, s - 1, :]).sum()
            t += s
        total += prod
    return total


def enum_numerator(U, labels):
    T, S, V = U.shape
    K = len(labels)
    total = 0.0
    for comp in compositions(T, S):
        if len(comp) != K:
            continue
        t = 0
        prod = 1.0
        for s, v in zip(comp, labels):
            prod *= np.exp(U[t, s - 1, v])
            t += s
        total += prod
    return total


def enum_viterbi_score(U):
    T, S, V = U.shape
    best = -np.inf
    for comp in compositions(T, S):
        t = 0
        score = 0.0
        for s in comp:
            score += U[t, s - 1, :].max()
            t += s
        best = max(best, score)
    return best


def random_scores(rng, T, S, V, scale=1.0):
    return scale * rng.standard_normal((T, S, V))


def packed(U):
    """A dense (T, S, V) lattice as a batch-of-one ScoreTensor; cells with
    t + s > T are left out."""
    U = np.asarray(U, dtype=np.float64)
    grid = seg.segment_grid([U.shape[0]], U.shape[1])
    valid = grid[0] >= 0
    P = np.empty((np.count_nonzero(valid), U.shape[2]))
    P[grid[0][valid]] = U[valid]
    return seg.ScoreTensor(Tensor(P), grid)


def loss_value(U, labels):
    """The package's marginal loss of a dense lattice."""
    return float(seg.seg_loss(packed(U), [labels]).values)


def loss_and_gradient(U, labels):
    """The marginal loss of a dense lattice and d(loss)/dU, taken through
    a tape on its packed rows; out-of-range cells get 0."""
    st = packed(U)
    with Tape() as tape:
        loss = seg.seg_loss(st, [labels])
    tape.backward(loss)
    valid = st.index[0] >= 0
    grad = np.zeros(np.shape(U))
    grad[valid] = st.packed.grad[st.index[0][valid]]
    return float(loss.values), grad


def viterbi(U):
    """The package's best path through a dense lattice."""
    return seg.viterbi_decode(packed(U))[0]


def path_score(path, U):
    """The score of a decoded path on a dense lattice: its segments' cells."""
    return float(sum(U[t, s - 1, v] for t, s, v in path.segments))


def dense_lattice(st, b=0):
    """(T_b, S, V) expansion of utterance b of a packed ScoreTensor through
    its grid; out-of-range cells (t + s > T_b) hold NaN, which no kernel
    may read."""
    index = st.index[b, : int((st.index[b, :, 0] >= 0).sum())]
    valid = index >= 0
    out = np.full((*index.shape, st.packed.values.shape[1]), np.nan)
    out[valid] = st.packed.values[index[valid]]
    return out


def betas(st, labels):
    """log a_d and log b_d of a batch-of-one lattice."""
    _, _, _, _, log_ad, _, ad_rev = seg._recursions(st.packed.values, st.index, [labels])
    return log_ad[0], ad_rev[0, ::-1]


class TestMarginalLoss:
    def test_single_cell_loss_zero(self):
        U = np.array([[[0.7]]])  # T=S=V=1: numerator is the only path
        assert loss_value(U, [0]) == pytest.approx(0.0)

    def test_two_frame_hand_enumeration(self):
        rng = np.random.default_rng(0)
        U = random_scores(rng, 2, 2, 2)
        # K=1, label v0: numerator = exp(u[0, len2, v0]); denominator =
        # exp-sum over {one 2-frame segment x 2 labels, two 1-frame x 4}
        num = np.exp(U[0, 1, 0])
        den = np.exp(U[0, 1, :]).sum() + np.exp(U[0, 0, :])[:, None] @ np.exp(U[1, 0, :])[None, :]
        want = -np.log(num) + np.log(np.exp(U[0, 1, :]).sum() + np.exp(U[0, 0, :]).sum() * np.exp(U[1, 0, :]).sum())
        assert loss_value(U, [0]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 9))
        S = int(rng.integers(1, 5))
        V = int(rng.integers(1, 4))
        K_lo = -(-T // S)  # ceil
        if K_lo > T:
            return
        K = int(rng.integers(K_lo, T + 1))
        labels = rng.integers(0, V, size=K)
        U = random_scores(rng, T, S, V)
        want = -np.log(enum_numerator(U, labels)) + np.log(enum_denominator(U))
        got = loss_value(U, labels)
        assert got == pytest.approx(want, rel=1e-6)

    def test_infeasible_raises(self):
        U = np.zeros((3, 1, 2))
        with pytest.raises(seg.InfeasibleSegmentationError):
            loss_value(U, [0])  # K*S = 1 < T
        with pytest.raises(seg.InfeasibleSegmentationError):
            loss_value(U, [0, 1, 0, 1])  # K > T

    def test_log_space_matches_direct_arithmetic(self):
        rng = np.random.default_rng(9)
        U = random_scores(rng, 4, 2, 2, scale=0.5)
        labels = [0, 1]
        want = -np.log(enum_numerator(U, labels) / enum_denominator(U))
        assert loss_value(U, labels) == pytest.approx(want, abs=1e-9)

    def test_completeness_numerators_sum_to_denominator(self):
        import itertools

        rng = np.random.default_rng(10)
        U = random_scores(rng, 5, 3, 2)
        total = 0.0
        for K in range(1, 6):
            for labels in itertools.product(range(2), repeat=K):
                if K * 3 < 5:
                    continue
                total += enum_numerator(U, labels)
        assert total == pytest.approx(enum_denominator(U), rel=1e-9)
        # and exp(-loss) over all transcripts sums to 1
        prob = 0.0
        for K in range(1, 6):
            for labels in itertools.product(range(2), repeat=K):
                if K * 3 < 5:
                    continue
                prob += np.exp(-loss_value(U, list(labels)))
        assert prob == pytest.approx(1.0, abs=1e-9)

    def test_exp_neg_loss_is_probability(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            U = random_scores(rng, 6, 3, 2)
            labels = rng.integers(0, 2, size=3)
            p = np.exp(-loss_value(U, labels))
            assert 0.0 < p <= 1.0


class TestGradient:
    def test_single_path_gradient_zero(self):
        U = np.array([[[0.3]]])
        loss, grad = loss_and_gradient(U, [0])
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        T, S, V = 6, 3, 2
        U = random_scores(rng, T, S, V)
        K = int(rng.integers(2, 4))
        labels = rng.integers(0, V, size=K)
        _, grad = loss_and_gradient(U, labels)
        eps = 1e-5
        for t in range(T):
            for s in range(min(S, T - t)):
                for v in range(V):
                    up = U.copy()
                    up[t, s, v] += eps
                    dn = U.copy()
                    dn[t, s, v] -= eps
                    num = (loss_value(up, labels) - loss_value(dn, labels)) / (2 * eps)
                    rel = abs(grad[t, s, v] - num) / max(abs(num), abs(grad[t, s, v]), 1.0)
                    assert rel <= 1e-4

    def test_denominator_posteriors_cover_each_boundary_once(self):
        # segments covering any fixed time point carry total posterior 1
        rng = np.random.default_rng(12)
        T, S, V = 6, 3, 2
        U = random_scores(rng, T, S, V)
        labels = [0, 1, 0]
        log_ad, log_bd = betas(packed(U), labels)
        for tau in range(1, T + 1):  # boundary between frames tau-1 and tau
            total = 0.0
            for t in range(T):
                for s in range(1, min(S, T - t) + 1):
                    if t < tau <= t + s:
                        total += np.exp(log_ad[t] + U[t, s - 1, :] + log_bd[t + s] - log_ad[T]).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_denominator_posterior_total_is_expected_segment_count(self):
        rng = np.random.default_rng(13)
        T, S, V = 5, 2, 2
        U = random_scores(rng, T, S, V)
        labels = [0]
        log_ad, log_bd = betas(packed(U), labels)
        total = 0.0
        for t in range(T):
            for s in range(1, min(S, T - t) + 1):
                total += np.exp(log_ad[t] + U[t, s - 1, :] + log_bd[t + s] - log_ad[T]).sum()
        # expected segment count over the denominator distribution
        den = enum_denominator(U)
        expect = 0.0
        for comp in compositions(T, S):
            t = 0
            prod = 1.0
            for s in comp:
                prod *= np.exp(U[t, s - 1, :]).sum()
                t += s
            expect += len(comp) * prod / den
        assert total == pytest.approx(expect, rel=1e-9)


class TestViterbi:
    def test_tie_break_prefers_short_then_small_label(self):
        U = np.zeros((3, 3, 2))  # every path scores 0 per segment
        path = viterbi(U)
        assert path.segments == ((0, 1, 0), (1, 1, 0), (2, 1, 0))

    @pytest.mark.parametrize("seed", range(8))
    def test_score_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T, S, V = 5, 2, 2
        U = random_scores(rng, T, S, V)
        path = viterbi(U)
        assert path_score(path, U) == pytest.approx(enum_viterbi_score(U), abs=1e-9)

    def test_constant_shift_changes_only_by_path_length(self):
        rng = np.random.default_rng(14)
        T, S, V = 6, 3, 2
        U = random_scores(rng, T, S, V)
        c = 0.37
        base = viterbi(U)
        shifted = viterbi(U + c)
        # among fixed-length paths the argmax is invariant; check via
        # enumeration restricted to the base path's segment count
        K = len(base.segments)
        best_fixed = max(
            (sum(U[t, s - 1, :].max() for t, s in zip(np.cumsum((0,) + comp)[:-1], comp))
             for comp in compositions(T, S) if len(comp) == K),
        )
        best_fixed_shifted = max(
            (sum((U + c)[t, s - 1, :].max() for t, s in zip(np.cumsum((0,) + comp)[:-1], comp))
             for comp in compositions(T, S) if len(comp) == K),
        )
        assert best_fixed_shifted == pytest.approx(best_fixed + c * K, abs=1e-9)
        assert path_score(shifted, U + c) >= path_score(base, U + c) - 1e-12

    def test_viterbi_beats_random_paths(self):
        rng = np.random.default_rng(15)
        U = random_scores(rng, 7, 3, 3)
        best = path_score(viterbi(U), U)
        for comp in list(compositions(7, 3))[:50]:
            t = 0
            score = 0.0
            for s in comp:
                score += U[t, s - 1, int(rng.integers(0, 3))]
                t += s
            assert best >= score - 1e-12


class TestBatchSegmentCap:
    def test_short_words(self):
        assert seg.batch_segment_cap([10], [5]) == 4

    def test_caps_at_max(self):
        assert seg.batch_segment_cap([100], [2], s_max=32) == 32

    def test_max_over_utterances(self):
        assert seg.batch_segment_cap([20, 30], [4, 3]) == 20

    def test_rounds_up(self):
        assert seg.batch_segment_cap([7], [2]) == 7  # 2*3.5 = 7


class TestScoreSegments:
    def _make(self, pooling="concat"):
        cfg = AcousticEncoderConfig(input_dim=3, layers=1, hidden=2, pooling=pooling, embed_dim=4)
        rng = np.random.default_rng(16)
        enc = AcousticEncoder(cfg, rng)
        vocab = Vocabulary(["a", "b", "c"])
        pl = PredictionLayer(vocab, 4, rng=rng)
        return enc, pl

    def test_zero_weights_zero_scores(self):
        enc, pl = self._make()
        pl.w.values[...] = 0.0
        pl.b.values[...] = 0.0
        H = Tensor(np.random.default_rng(0).standard_normal((1, 5, 4)))
        st = seg.score_segments(enc, H, [5], pl, max_len=3)
        np.testing.assert_allclose(st.packed.values, 0.0)

    def test_constant_rows_single_word(self):
        enc, pl = self._make(pooling="mean")
        H = Tensor(np.tile(np.array([0.5, -1.0, 2.0, 0.25]), (1, 4, 1)))
        st = seg.score_segments(enc, H, [4], pl, max_len=2)
        # every pooled mean equals the constant row; scores equal w.c + b
        c = enc.project(Tensor(H.values[0, :1])).values[0]
        want = pl.w.values @ c + pl.b.values
        for row in st.packed.values:
            np.testing.assert_allclose(row, want, atol=1e-12)

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_matches_per_segment_oracle(self, pooling):
        enc, pl = self._make(pooling)
        H = Tensor(np.random.default_rng(2).standard_normal((1, 5, 4)))
        st = seg.score_segments(enc, H, [5], pl, max_len=3)
        dense = dense_lattice(st)
        for t in range(5):
            for s in range(1, 4):
                if t + s > 5:
                    continue
                pooled = pool_segment(H.values[0], t, t + s, pooling)
                emb = enc.project(Tensor(pooled.values[None, :])).values[0]
                want = pl.w.values @ emb + pl.b.values
                np.testing.assert_allclose(dense[t, s - 1], want, atol=1e-10)

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_end_to_end_gradients(self, pooling):
        enc, pl = self._make(pooling)
        H = Tensor(np.random.default_rng(4).standard_normal((1, 4, 4)))
        leaves = [H, pl.w.tensor, pl.b.tensor, enc.proj_w.tensor, enc.proj_b.tensor]

        def f():
            st = seg.score_segments(enc, H, [4], pl, max_len=3)
            return seg.seg_loss(st, [[1, 0]])

        assert ad.grad_check(f, leaves, eps=1e-5) <= 1e-4


class TestPackedLattice:
    """The dense lattices the oracle tests use reach the package through
    ``packed``: a round trip of score_segments' rows through
    ``dense_lattice`` gives back the same rows, loss, gradient and path,
    bit for bit."""

    def _lattice(self, max_len, seed):
        enc, pl = TestScoreSegments()._make("mean")
        rng = np.random.default_rng(seed)
        pl.w.values[...] = 3.0 * rng.standard_normal(pl.w.values.shape)
        pl.b.values[...] = -4.0  # a per-segment cost, so best paths mix segment lengths
        H = Tensor(rng.standard_normal((1, 5, 4)))
        return seg.score_segments(enc, H, [5], pl, max_len=max_len)

    @pytest.mark.parametrize("max_len", [2, 3, 7])  # 7 > T = 5
    def test_seg_loss_equals_dense_gradient(self, max_len):
        st = self._lattice(max_len, 17)
        leaf = seg.ScoreTensor(Tensor(st.packed.values), st.index)
        labels = [1, 0, 2]
        with Tape() as tape:
            loss = seg.seg_loss(leaf, [labels])
        tape.backward(loss)
        dense = dense_lattice(st)
        np.testing.assert_array_equal(packed(dense).packed.values, st.packed.values)
        want_loss, want_grad = loss_and_gradient(dense, labels)
        assert float(loss.values) == want_loss
        valid = st.index[0] >= 0
        np.testing.assert_array_equal(leaf.packed.grad[st.index[0][valid]], want_grad[valid])
        np.testing.assert_array_equal(want_grad[~valid], 0.0)

    @pytest.mark.parametrize("max_len", [2, 3, 7])
    def test_viterbi_packed_equals_dense(self, max_len):
        st = self._lattice(max_len, 18)
        assert seg.viterbi_decode(st) == [viterbi(dense_lattice(st))]


class TestBatchedLattice:
    """One lattice kernel serves a whole ragged batch: padded in time (a
    shorter utterance's cells read the -inf sentinel row) and in labels
    (shorter transcripts are padded to the longest). Each utterance's
    loss equals its batch-of-one call bit for bit."""

    LENGTHS = [7, 3, 5, 1, 6]
    LABELS = [[2, 0, 2], [1], [0, 0], [2], [1, 2, 1, 0]]
    S, V = 3, 3

    def _lattice(self, seed, scores=None):
        grid = seg.segment_grid(self.LENGTHS, self.S)
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((np.count_nonzero(grid >= 0), self.V)) if scores is None else scores(rng, grid)
        return P, grid

    @staticmethod
    def _alone(P, grid, b):
        """Utterance b's packed rows and grid as a batch of one, plus the
        batch rows they come from."""
        T = int((grid[b, :, 0] >= 0).sum())
        alone = seg.segment_grid([T], grid.shape[2])
        valid = alone[0] >= 0
        rows = np.empty(np.count_nonzero(valid), dtype=np.intp)
        rows[alone[0][valid]] = grid[b, :T][valid]
        return P[rows], alone, rows

    @pytest.mark.parametrize("seed", range(4))
    def test_losses_equal_batch_of_one_and_enumeration(self, seed):
        P, grid = self._lattice(seed)
        losses, _ = seg._loss_and_grad(P, grid, self.LABELS)
        st = seg.ScoreTensor(Tensor(P), grid)
        for b, labels in enumerate(self.LABELS):
            Pb, alone, _ = self._alone(P, grid, b)
            assert losses[b] == seg._loss_and_grad(Pb, alone, [labels])[0][0]
            U = dense_lattice(st, b)
            want = -np.log(enum_numerator(U, labels)) + np.log(enum_denominator(U))
            assert losses[b] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_equals_batch_of_one(self, seed):
        P, grid = self._lattice(seed)
        _, grad = seg._loss_and_grad(P, grid, self.LABELS)
        for b, labels in enumerate(self.LABELS):
            Pb, alone, rows = self._alone(P, grid, b)
            np.testing.assert_allclose(grad[rows], seg._loss_and_grad(Pb, alone, [labels])[1],
                                       rtol=1e-12, atol=0)

    def test_seg_loss_is_one_node_summing_the_batch(self):
        P, grid = self._lattice(5)
        leaf = seg.ScoreTensor(Tensor(P), grid)
        with Tape() as tape:
            loss = seg.seg_loss(leaf, self.LABELS)
        assert len(tape.nodes) == 1
        tape.backward(loss)
        losses, grad = seg._loss_and_grad(P, grid, self.LABELS)
        assert float(loss.values) == sum(losses.tolist())
        np.testing.assert_array_equal(leaf.packed.grad, grad)

    def test_infeasible_utterance_in_a_batch_raises(self):
        P, grid = self._lattice(6)
        labels = [list(ids) for ids in self.LABELS]
        labels[1] = [0, 1, 2, 0]  # 4 words in 3 frames
        with pytest.raises(seg.InfeasibleSegmentationError):
            seg._loss_and_grad(P, grid, labels)

    @pytest.mark.parametrize("scores", [
        lambda rng, grid: rng.standard_normal((np.count_nonzero(grid >= 0), 3)),
        lambda rng, grid: rng.integers(-1, 2, size=(np.count_nonzero(grid >= 0), 3)).astype(float),
        lambda rng, grid: np.zeros((np.count_nonzero(grid >= 0), 3)),
    ], ids=["random", "integer-ties", "all-ties"])
    def test_viterbi_equals_batch_of_one(self, scores):
        P, grid = self._lattice(7, scores)
        st = seg.ScoreTensor(Tensor(P), grid)
        paths = seg.viterbi_decode(st)
        assert len(paths) == len(self.LENGTHS)
        for b, path in enumerate(paths):
            Pb, alone, _ = self._alone(P, grid, b)
            assert path == seg.viterbi_decode(seg.ScoreTensor(Tensor(Pb), alone))[0]
            U = dense_lattice(st, b)
            assert path == viterbi(U)
            assert path_score(path, U) == pytest.approx(enum_viterbi_score(U), abs=1e-12)
        if not P.any():  # every path ties: all length-1 segments of label 0
            assert all(p.segments == tuple((t, 1, 0) for t in range(T))
                       for p, T in zip(paths, self.LENGTHS))

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_end_to_end_gradients_of_a_ragged_batch(self, pooling):
        enc, pl = TestScoreSegments()._make(pooling)
        H = Tensor(np.random.default_rng(19).standard_normal((3, 5, 4)))
        lengths, transcripts = [4, 2, 5], [[1, 0], [2], [0, 2, 1]]
        leaves = [H, pl.w.tensor, pl.b.tensor, enc.proj_w.tensor, enc.proj_b.tensor]

        def f():
            return seg.seg_loss(seg.score_segments(enc, H, lengths, pl, max_len=3), transcripts)

        assert ad.grad_check(f, leaves, eps=1e-5) <= 1e-4
        np.testing.assert_array_equal(H.grad[0, 4:], 0.0)
        np.testing.assert_array_equal(H.grad[1, 2:], 0.0)
