"""CTC loss against brute-force path enumeration, decoding, UNK rescoring."""

import itertools

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import ctc
from awekit.autodiff import Tape, Tensor


def loss_value(log_probs, labels):
    """The value of the package's CTC loss on a (T, V+1) log-probability
    matrix, as a batch of one."""
    return float(ctc.ctc_loss(Tensor(log_probs[None]), [len(log_probs)], [labels]).values)


def loss_and_gradient(log_probs, lengths, transcripts):
    """The CTC loss of a (B, T, V+1) batch and its gradient with respect to
    the log-probabilities, through a tape."""
    leaf = Tensor(log_probs)
    with Tape() as tape:
        loss = ctc.ctc_loss(leaf, lengths, transcripts)
    assert len(tape.nodes) == 1
    tape.backward(loss)
    return float(loss.values), leaf.grad


def greedy_decode(log_probs):
    """Per-frame argmax, collapse consecutive repeats, delete blanks."""
    return [tok for tok, _, _ in ctc.ctc_greedy_decode_with_spans(log_probs)]


def collapse(path, blank):
    out = []
    prev = None
    for p in path:
        if p != prev:
            if p != blank:
                out.append(p)
        prev = p
    return out


def brute_force_loss(log_probs, labels):
    """Sum path probabilities over every length-T string that collapses to
    the transcript."""
    T, width = log_probs.shape
    blank = width - 1
    labels = list(labels)
    total = 0.0
    for path in itertools.product(range(width), repeat=T):
        if collapse(path, blank) == labels:
            total += np.exp(sum(log_probs[t, p] for t, p in enumerate(path)))
    return -np.log(total)


def random_log_probs(rng, T, V):
    z = rng.standard_normal((T, V + 1))
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def two_loop_forward_backward(log_probs, labels):
    """The separate alpha and beta loops the CTC recursion replaced:
    (z, alpha, beta, log Z), with beta[t, s] the suffix mass from state s
    covering emissions t+1..T-1."""
    T, width = log_probs.shape
    blank = width - 1
    z = np.full(2 * len(labels) + 1, blank, dtype=np.intp)
    z[1::2] = labels
    S = len(z)
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (z[2:] != blank) & (z[2:] != z[:-2])
    neg = -np.inf

    alpha = np.full((T, S), neg)
    alpha[0, 0] = log_probs[0, z[0]]
    alpha[0, 1] = log_probs[0, z[1]]
    for t in range(1, T):
        prev = alpha[t - 1]
        step = np.concatenate([[neg], prev[:-1]])
        jump = np.where(skip, np.concatenate([[neg, neg], prev[:-2]]), neg)
        with np.errstate(invalid="ignore"):
            alpha[t] = np.logaddexp(np.logaddexp(prev, step), jump) + log_probs[t, z]
    log_z = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])

    beta = np.full((T, S), neg)
    beta[T - 1, S - 2:] = 0.0
    can_jump = np.zeros(S, dtype=bool)
    can_jump[:-2] = skip[2:]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + log_probs[t + 1, z]
        step = np.concatenate([nxt[1:], [neg]])
        jump = np.where(can_jump, np.concatenate([nxt[2:], [neg, neg]]), neg)
        with np.errstate(invalid="ignore"):
            beta[t] = np.logaddexp(np.logaddexp(nxt, step), jump)
    return z, alpha, beta, log_z


class TestCtcLoss:
    def test_single_frame_single_label(self):
        rng = np.random.default_rng(0)
        lp = random_log_probs(rng, 1, 3)
        assert loss_value(lp, [2]) == pytest.approx(-lp[0, 2])

    def test_two_frame_hand_enumeration(self):
        rng = np.random.default_rng(1)
        lp = random_log_probs(rng, 2, 2)
        v, blank = 0, 2
        p = np.exp(lp)
        want = -np.log(
            p[0, v] * p[1, v] + p[0, v] * p[1, blank] + p[0, blank] * p[1, v]
        )
        assert loss_value(lp, [v]) == pytest.approx(want, rel=1e-12)

    def test_uniform_posteriors_count_paths(self):
        # |V|=1, T=3: every (v+blank)^3 string collapsing to [v]
        lp = np.log(np.full((3, 2), 0.5))
        n_paths = sum(
            1 for path in itertools.product(range(2), repeat=3) if collapse(path, 1) == [0]
        )
        assert loss_value(lp, [0]) == pytest.approx(-np.log(n_paths * 0.5 ** 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        V = int(rng.integers(1, 3))
        K_max = min(T, 3)
        K = int(rng.integers(1, K_max + 1))
        labels = rng.integers(0, V, size=K)
        lp = random_log_probs(rng, T, V)
        if T < ctc.min_frames_required(labels):
            with pytest.raises(ctc.InfeasibleAlignmentError):
                loss_value(lp, labels)
            return
        want = brute_force_loss(lp, labels)
        assert loss_value(lp, labels) == pytest.approx(want, rel=1e-6)

    def test_infeasible_is_defined_error(self):
        lp = random_log_probs(np.random.default_rng(2), 2, 2)
        with pytest.raises(ctc.InfeasibleAlignmentError):
            loss_value(lp, [0, 0])  # repeat needs 3 frames

    def test_full_probability_sums_to_one(self):
        # over every transcript of every length, exp(-loss) totals 1
        rng = np.random.default_rng(3)
        T, V = 4, 2
        lp = random_log_probs(rng, T, V)
        total = 0.0
        for K in range(0, T + 1):
            for labels in itertools.product(range(V), repeat=K):
                if K == 0:
                    total += np.exp(sum(lp[t, V] for t in range(T)))  # all blank
                    continue
                if T < ctc.min_frames_required(labels):
                    continue
                total += np.exp(-loss_value(lp, list(labels)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vocabulary_permutation_invariance(self):
        rng = np.random.default_rng(4)
        lp = random_log_probs(rng, 5, 3)
        labels = [0, 2, 1]
        perm = [2, 0, 1]  # new index of old symbol v is perm[v]
        lp_perm = lp.copy()
        lp_perm[:, :3] = lp[:, np.argsort(perm)]
        relabeled = [perm[v] for v in labels]
        a = loss_value(lp, labels)
        b = loss_value(lp_perm, relabeled)
        assert a == pytest.approx(b, rel=1e-12)

    def test_recursion_bit_equals_two_loop_oracle(self):
        # random lattices plus repeated labels, K = 1 and T = min_frames_required
        rng = np.random.default_rng(8)
        cases = [([1, 1], 3), ([0], 1), ([2], 4), ([0, 0, 0], 5), ([1, 2, 1], 3), ([3, 3, 1, 1], 6)]
        for _ in range(300):
            V = int(rng.integers(1, 5))
            labels = rng.integers(0, V, size=int(rng.integers(1, 5))).tolist()
            cases.append((labels, ctc.min_frames_required(labels) + int(rng.integers(0, 4))))
        for labels, T in cases:
            lp = random_log_probs(rng, T, max(labels) + 1 + int(rng.integers(0, 2)))
            labels = np.asarray(labels, dtype=np.intp)
            z, alpha, beta, log_z = ctc._forward_backward(lp, labels)
            z0, alpha0, beta0, log_z0 = two_loop_forward_backward(lp, labels)
            assert np.array_equal(z, z0)
            assert np.array_equal(alpha, alpha0)
            assert np.array_equal(beta, beta0)
            assert np.array_equal(log_z, log_z0)
            assert loss_value(lp, labels) == -log_z0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            T = int(rng.integers(2, 6))
            labels = rng.integers(0, 2, size=rng.integers(1, 3))
            if T < ctc.min_frames_required(labels):
                continue
            logits = Tensor(rng.standard_normal((1, T, 3)))

            def f():
                return ctc.ctc_loss(ad.log_softmax(logits, axis=2), [T], [labels])

            assert ad.grad_check(f, [logits], eps=1e-5) <= 1e-4

    def test_loss_positive_probability(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            lp = random_log_probs(rng, 5, 2)
            labels = rng.integers(0, 2, size=2)
            loss = loss_value(lp, labels)
            assert 0.0 < np.exp(-loss) <= 1.0


class TestBatchLoss:
    """One call scores a ragged batch: each row's first lengths[b] frames
    against its own transcript, then padding. Its value and gradient equal
    those of each utterance as a batch of one, bit for bit."""

    LENGTHS = [5, 2, 7, 1, 4]
    LABELS = [[2, 0, 2], [1], [0, 0, 1], [2], [1, 1]]
    V = 3

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        lp = np.stack([random_log_probs(rng, max(self.LENGTHS), self.V) for _ in self.LENGTHS])
        for b, T in enumerate(self.LENGTHS):
            lp[b, T:] = rng.standard_normal((lp.shape[1] - T, self.V + 1))  # padding the loss never reads
        return lp

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_and_gradient_equal_batch_of_one(self, seed):
        lp = self._batch(seed)
        loss, grad = loss_and_gradient(lp, self.LENGTHS, self.LABELS)
        alone = []
        for b, (T, labels) in enumerate(zip(self.LENGTHS, self.LABELS)):
            value, row_grad = loss_and_gradient(lp[b : b + 1, :T], [T], [labels])
            alone.append(value)
            np.testing.assert_array_equal(grad[b, :T], row_grad[0])
            np.testing.assert_array_equal(grad[b, T:], 0.0)
            assert value == pytest.approx(brute_force_loss(lp[b, :T], labels), rel=1e-9)
        assert loss == sum(alone)

    def test_gradient_of_a_ragged_batch_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        logits = Tensor(rng.standard_normal((3, 5, 3)))
        lengths, transcripts = [5, 2, 4], [[0, 1], [1], [0, 0]]

        def f():
            return ctc.ctc_loss(ad.log_softmax(logits, axis=2), lengths, transcripts)

        assert ad.grad_check(f, [logits], eps=1e-5) <= 1e-4
        np.testing.assert_array_equal(logits.grad[1, 2:], 0.0)
        np.testing.assert_array_equal(logits.grad[2, 4:], 0.0)

    def test_infeasible_utterance_in_a_batch_raises(self):
        labels = [list(ids) for ids in self.LABELS]
        labels[1] = [0, 0]  # a repeat needs 3 frames; row 1 has 2
        with pytest.raises(ctc.InfeasibleAlignmentError):
            ctc.ctc_loss(Tensor(self._batch(5)), self.LENGTHS, labels)


class TestGreedyDecode:
    def test_collapse_repeats_then_blanks(self):
        # frames argmax to [a, a, blank, b] -> [a, b]
        lp = np.log(np.array([
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.1, 0.8, 0.1],
        ]))
        assert greedy_decode(lp) == [0, 1]

    def test_all_blank_is_empty(self):
        lp = np.log(np.full((4, 3), [0.2, 0.2, 0.6]))
        assert greedy_decode(lp) == []

    def test_blank_separates_repeats(self):
        lp = np.log(np.array([
            [0.8, 0.2],
            [0.2, 0.8],
            [0.8, 0.2],
        ]))  # argmax a, blank, a -> [a, a]
        assert greedy_decode(lp) == [0, 0]

    def test_spans_cover_argmax_runs(self):
        lp = np.log(np.array([
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.1, 0.8, 0.1],
        ]))
        assert ctc.ctc_greedy_decode_with_spans(lp) == [(0, 0, 2), (1, 3, 4)]


class TestWidenUnkSpans:
    def _lp(self, rows):
        z = np.array(rows, dtype=float)
        return np.log(z / z.sum(axis=1, keepdims=True))

    def test_grows_through_blank_and_unk_frames(self):
        # vocab: word0, unk=1, blank=2; spike pattern: blank blank UNK blank
        lp = self._lp([
            [0.1, 0.3, 0.6],  # blank-dominated, unk wins words
            [0.1, 0.3, 0.6],
            [0.1, 0.8, 0.1],  # unk spike
            [0.1, 0.3, 0.6],
        ])
        spans = ctc.ctc_greedy_decode_with_spans(lp)
        assert spans == [(1, 2, 3)]
        widened = ctc.widen_unk_spans(lp, spans, unk_index=1)
        assert widened == [(1, 0, 4)]

    def test_stops_at_neighbor_tokens_and_word_frames(self):
        # word0 spike, blank, UNK spike, frame owned by word0, blank
        lp = self._lp([
            [0.8, 0.1, 0.1],  # word0 token
            [0.1, 0.3, 0.6],  # blank (claimable)
            [0.1, 0.8, 0.1],  # unk spike
            [0.6, 0.3, 0.1],  # word0 wins words: not claimable... but argmax word0 -> token!
        ])
        spans = ctc.ctc_greedy_decode_with_spans(lp)
        assert spans == [(0, 0, 1), (1, 2, 3), (0, 3, 4)]
        widened = ctc.widen_unk_spans(lp, spans, unk_index=1)
        assert widened == [(0, 0, 1), (1, 1, 3), (0, 3, 4)]

    def test_non_unk_tokens_untouched(self):
        lp = self._lp([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.7, 0.2, 0.1]])
        spans = ctc.ctc_greedy_decode_with_spans(lp)
        assert ctc.widen_unk_spans(lp, spans, unk_index=1) == spans


class _FakeLayer:
    def __init__(self, rows, base):
        import awekit.nn as nn

        self.w = nn.Parameter("w", rows)
        self.base_size = base


class TestUnkRescore:
    def test_no_unk_passthrough(self):
        layer = _FakeLayer(np.eye(4), 3)
        out = ctc.unk_rescore([(0, 0, 2), (1, 2, 3)], np.eye(4)[:3], layer, unk_index=2)
        assert out == [0, 1]

    def test_single_extension_word_substituted(self):
        rows = np.vstack([np.eye(3), [0.5, 0.5, 0.0]])
        layer = _FakeLayer(rows, 3)
        frames = np.tile([1.0, 1.0, 0.0], (4, 1))
        out = ctc.unk_rescore([(2, 0, 4)], frames, layer, unk_index=2)
        assert out == [3]

    def test_chooses_max_cosine_among_extension(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((2, 5))
        ext = rng.standard_normal((3, 5))
        layer = _FakeLayer(np.vstack([base, ext]), 2)
        frames = rng.standard_normal((6, 5))
        spans = [(1, 0, 3), (9, 3, 6)]  # token 9 is UNK here
        out = ctc.unk_rescore(spans, frames, layer, unk_index=9)
        pooled = frames[3:6].mean(axis=0)
        cos = [pooled @ e / (np.linalg.norm(pooled) * np.linalg.norm(e)) for e in ext]
        assert out == [1, 2 + int(np.argmax(cos))]

    def test_no_extension_rows_error(self):
        layer = _FakeLayer(np.eye(3), 3)
        with pytest.raises(ctc.CtcError):
            ctc.unk_rescore([(5, 0, 2)], np.eye(3)[:2], layer, unk_index=5)
