"""Core autodiff: primitive forward values, backward vs finite differences."""

import sys
import threading

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit.autodiff import Tape, Tensor


def test_cosine_distance_self_is_zero():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((5, 8)))
    d = ad.cosine_distance_matrix(a, a)
    np.testing.assert_allclose(np.diag(d.values), 0.0, atol=1e-12)


def test_hinge_gradient_signs():
    x = Tensor(np.array([-2.0, 3.0]))
    with Tape() as tape:
        y = ad.sum_(ad.relu(x))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [0.0, 1.0])


def test_cosine_distance_zero_norm_policy():
    ad.zero_norm_events.reset()
    a = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with Tape() as tape:
        dist = ad.cosine_distance_matrix(a, b)
        d = ad.sum_(ad.getitem(dist, (np.arange(2), np.arange(2))))  # the pairs (a_i, b_i)
    tape.backward(d)
    np.testing.assert_allclose(d.values, 1.0 + 1.0)  # degenerate pair scores 1
    np.testing.assert_allclose(a.grad[0], 0.0)  # and contributes no gradient
    np.testing.assert_allclose(dist.values[0], 1.0)
    assert ad.zero_norm_events.count == 2  # every pair of the matrix with a_0, scored or not


def test_zero_norm_counter_loses_no_update_across_threads():
    counter = ad.ZeroNormCounter()
    start = threading.Barrier(8)

    def bump():
        start.wait()
        for _ in range(20000):
            counter.add(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=bump) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert counter.count == 8 * 20000


def test_shared_subexpression_accumulates():
    x = Tensor(np.array([3.0]))
    with Tape() as tape:
        y = ad.mul(x, x)  # x used twice: dy/dx = 2x
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [6.0])


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.array([1.0, 2.0]))
    for _ in range(2):
        with Tape() as tape:
            y = ad.sum_(x)
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


@pytest.mark.parametrize("shape", [(4,), (2, 4), ()])
def test_first_gradient_equals_zeros_plus_it_bit_for_bit(shape):
    g = np.resize(np.array([-0.0, 0.0, -1.5, np.inf]), shape)
    x = Tensor(np.ones(shape))
    x.accumulate_grad(g)
    want = np.zeros(shape)
    want += g
    assert isinstance(x.grad, np.ndarray) and x.grad.tobytes() == want.tobytes()
    g[...] = 7.0  # the stored gradient is not the caller's array
    assert x.grad.tobytes() == want.tobytes()


def test_first_gradient_broadcasts_into_the_value_shape():
    x = Tensor(np.ones((2, 3)))
    x.accumulate_grad(np.array([-0.0, 1.0, 2.0]))
    assert x.grad.tobytes() == np.array([[0.0, 1.0, 2.0]] * 2).tobytes()


def test_quadratic_grad_check_tight():
    rng = np.random.default_rng(1)
    theta = Tensor(rng.standard_normal(6))
    err = ad.grad_check(lambda: ad.scale(ad.sum_(ad.mul(theta, theta)), 0.5), [theta], eps=1e-4)
    assert err <= 1e-8


def test_inactive_hinge_grad_is_zero_both_ways():
    x = Tensor(np.array([-0.5]))
    err = ad.grad_check(lambda: ad.sum_(ad.relu(x)), [x], eps=1e-4)
    assert err == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_primitives_match_finite_differences(seed):
    """Randomized-shape composite exercising most primitives at once."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    d = int(rng.integers(2, 6))
    a = Tensor(rng.standard_normal((n, d)))
    b = Tensor(rng.standard_normal((n, d)))
    w = Tensor(rng.standard_normal((d, 3)))
    bias = Tensor(rng.standard_normal(3))
    table = Tensor(rng.standard_normal((4, d)))
    ids = rng.integers(0, 4, size=n)

    def f():
        h = ad.affine(a, w, bias)
        h = ad.tanh(h)
        e = ad.gather_rows(table, ids)
        dist = ad.getitem(ad.cosine_distance_matrix(ad.add(a, b), e), (np.arange(n), np.arange(n)))
        ls = ad.log_softmax(h, axis=1)
        parts = ad.concat([ls, ad.reshape(dist, (n, 1))], axis=1)
        total = ad.add(ad.add(ad.sum_(parts), ad.sum_(ad.relu(ls))),
                       ad.sum_(ad.sqrt(ad.add(ad.mean(h, axis=0), 1.5))))  # tanh means + 1.5 > 0
        return total

    err = ad.grad_check(f, [a, b, w, bias, table], eps=1e-5)
    assert err <= 1e-4


def test_gather_rows_sums_repeated_rows():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((5, 3)))
    idx = np.array([4, 1, 4, 0, 1, 4])  # row 2 never gathered, row 4 three times
    g = rng.standard_normal((6, 3))
    with Tape() as tape:
        out = ad.gather_rows(x, idx)
        loss = ad.sum_(ad.mul_const(out, g))
    tape.backward(loss)
    np.testing.assert_array_equal(out.values, x.values[idx])
    want = np.zeros((5, 3))
    np.add.at(want, idx, g)
    np.testing.assert_allclose(x.grad, want, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(x.grad[2], 0.0)


@pytest.mark.parametrize("gather_last", [False, True])
def test_gather_rows_gradient_adds_to_another_use(gather_last):
    """``x`` read by ``gather_rows`` with repeats and by a second op: its
    gradient is the sum of both, whichever backward runs first."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((5, 3)))
    idx = np.array([3, 0, 3, 3, 1])
    g = rng.standard_normal((5, 3))
    w = rng.standard_normal((5, 3))
    with Tape() as tape:
        if gather_last:  # the tape runs backward: the gather's backward first
            other = ad.mul_const(x, w)
            gathered = ad.gather_rows(x, idx)
        else:
            gathered = ad.gather_rows(x, idx)
            other = ad.mul_const(x, w)
        loss = ad.add(ad.sum_(ad.mul_const(gathered, g)), ad.sum_(other))
    tape.backward(loss)
    want = w.copy()
    np.add.at(want, idx, g)
    np.testing.assert_allclose(x.grad, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_cosine_distance_matrix_matches_rowwise(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 6))
    B = rng.standard_normal((3, 6))
    got = ad.cosine_distance_matrix(Tensor(A), Tensor(B)).values
    for i in range(4):
        for j in range(3):
            want = 1 - A[i] @ B[j] / (np.linalg.norm(A[i]) * np.linalg.norm(B[j]))
            np.testing.assert_allclose(got[i, j], want, atol=1e-12)
    a, b = Tensor(A), Tensor(B)
    err = ad.grad_check(lambda: ad.sum_(ad.tanh(ad.cosine_distance_matrix(a, b))), [a, b], eps=1e-5)
    assert err <= 1e-4


def test_dropout_semantics():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((200, 50)))
    out = ad.dropout(x, 0.3, rng, train=True)
    kept = out.values != 0
    # survivors are scaled by 1/(1-p); drop rate is near p
    np.testing.assert_allclose(out.values[kept], 1.0 / 0.7)
    assert abs(1 - kept.mean() - 0.3) < 0.02
    out_eval = ad.dropout(x, 0.3, rng, train=False)
    assert out_eval is x


def test_l2norm_rows_safe_at_zero():
    x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
    with Tape() as tape:
        n = ad.sum_(ad.l2norm_rows(x))
    tape.backward(n)
    np.testing.assert_allclose(n.values, 5.0)
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_allclose(x.grad[0], 0.0)
