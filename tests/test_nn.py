"""Recurrent cells and layers, optimizers, schedulers, checkpoint format."""

import json
import struct
import warnings

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import nn
from awekit.autodiff import Tape, Tensor
from test_corpus import with_crc

# One recurrent step composed from autodiff primitives: the reference that
# the fused layers in ``nn`` must match bit for bit.


def sigmoid(x):
    v = 1.0 / (1.0 + np.exp(-x.values))
    return ad._record(Tensor(v), (x,), lambda g: (g * v * (1.0 - v),))


def stack(tensors, axis: int = 0):
    """Tensors of one shape stacked along a new ``axis``."""
    tensors = list(tensors)
    out = Tensor(np.stack([t.values for t in tensors], axis=axis))
    return ad._record(out, tuple(tensors), lambda g: tuple(np.moveaxis(g, axis, 0)))


def masked_blend(new, old, m):
    """new*m + old*(1-m) for a constant 0/1 mask (state carry at padding)."""
    m = np.asarray(m, dtype=np.float64)
    out = Tensor(new.values * m + old.values * (1.0 - m))
    return ad._record(out, (new, old), lambda g: (g * m, g * (1.0 - m)))


def _lstm_from_gates(gates_x, h_prev, c_prev, p):
    h = p.hidden
    z = ad.add(gates_x, ad.matmul(h_prev, p.w_h.tensor))
    i = sigmoid(ad.getitem(z, (slice(None), slice(0, h))))
    f = sigmoid(ad.getitem(z, (slice(None), slice(h, 2 * h))))
    c_tilde = ad.tanh(ad.getitem(z, (slice(None), slice(2 * h, 3 * h))))
    o = sigmoid(ad.getitem(z, (slice(None), slice(3 * h, 4 * h))))
    c = ad.add(ad.mul(i, c_tilde), ad.mul(f, c_prev))
    return ad.mul(o, ad.tanh(c)), c


def lstm_cell(x, h_prev, c_prev, p):
    """One LSTM step on a (B, D) input; returns (h_t, c_t), each (B, H)."""
    return _lstm_from_gates(ad.affine(x, p.w_x.tensor, p.b.tensor), h_prev, c_prev, p)


def _gru_from_gates(gates_x, cand_x, h_prev, p):
    h = p.hidden
    ru = sigmoid(ad.add(gates_x, ad.matmul(h_prev, p.w_h_ru.tensor)))
    r = ad.getitem(ru, (slice(None), slice(0, h)))
    u = ad.getitem(ru, (slice(None), slice(h, 2 * h)))
    h_tilde = ad.tanh(ad.add(cand_x, ad.matmul(ad.mul(r, h_prev), p.w_h_c.tensor)))
    one_minus_u = ad.add(ad.scale(u, -1.0), 1.0)
    return ad.add(ad.mul(u, h_prev), ad.mul(one_minus_u, h_tilde))


def gru_cell(x, h_prev, p):
    """One GRU step on a (B, D) input; returns h_t of shape (B, H)."""
    gates_x = ad.affine(x, p.w_x_ru.tensor, p.b_ru.tensor)
    return _gru_from_gates(gates_x, ad.affine(x, p.w_x_c.tensor, p.b_c.tensor), h_prev, p)


def _zero_lstm(d, h):
    rng = np.random.default_rng(0)
    p = nn.LstmParams.create("z", d, h, rng)
    for q in p.parameters():
        q.values[...] = 0.0
    return p


def _zero_gru(d, h):
    rng = np.random.default_rng(0)
    p = nn.GruParams.create("z", d, h, rng)
    for q in p.parameters():
        q.values[...] = 0.0
    return p


def test_stack_getitem_roundtrip_grads():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4, 2)))

    def f():
        rows = [ad.getitem(x, (slice(None), t)) for t in range(4)]
        return ad.sum_(ad.mul(stack(rows, axis=1), stack(rows, axis=1)))

    assert ad.grad_check(f, [x], eps=1e-5) <= 1e-4


class TestLstmCell:
    def test_all_zero_params_forced_values(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0 => c=0.5*c_prev,
        # h=0.5*tanh(0.5*c_prev)
        p = _zero_lstm(3, 2)
        c_prev = np.array([[0.4, -1.2]])
        h, c = lstm_cell(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(c_prev), p)
        np.testing.assert_allclose(c.values, 0.5 * c_prev)
        np.testing.assert_allclose(h.values, 0.5 * np.tanh(0.5 * c_prev))

    def test_hand_evaluated_scalar_step(self):
        # 1-dim cell, all weights 1, bias 0, x=0, h_prev=0, c_prev=1:
        # every gate pre-activation is 0 => i=f=o=0.5, c~=0,
        # c = 0.5*0 + 0.5*1 = 0.5, h = 0.5*tanh(0.5)
        p = _zero_lstm(1, 1)
        p.w_x.values[...] = 1.0
        p.w_h.values[...] = 1.0
        h, c = lstm_cell(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[1.0]]), p)
        np.testing.assert_allclose(c.values, [[0.5]])
        np.testing.assert_allclose(h.values, [[0.5 * np.tanh(0.5)]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        p = nn.LstmParams.create("g", 3, 2, rng)
        x = Tensor(rng.standard_normal((2, 3)))
        h0 = Tensor(rng.standard_normal((2, 2)))
        c0 = Tensor(rng.standard_normal((2, 2)))

        def f():
            h, c = lstm_cell(x, h0, c0, p)
            return ad.add(ad.sum_(ad.mul(h, h)), ad.sum_(ad.tanh(c)))

        leaves = [x, h0, c0] + [q.tensor for q in p.parameters()]
        assert ad.grad_check(f, leaves, eps=1e-4) <= 1e-5


class TestGruCell:
    def test_all_zero_params_halves_h_prev(self):
        p = _zero_gru(3, 2)
        h_prev = np.array([[0.8, -0.2]])
        h = gru_cell(Tensor(np.ones((1, 3))), Tensor(h_prev), p)
        np.testing.assert_allclose(h.values, 0.5 * h_prev)

    def test_zero_state_zero_params_stays_zero(self):
        p = _zero_gru(2, 2)
        h = gru_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), p)
        np.testing.assert_allclose(h.values, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = nn.GruParams.create("g", 3, 2, rng)
        x = Tensor(rng.standard_normal((2, 3)))
        h0 = Tensor(rng.standard_normal((2, 2)))

        def f():
            return ad.sum_(ad.mul(gru_cell(x, h0, p), gru_cell(x, h0, p)))

        leaves = [x, h0] + [q.tensor for q in p.parameters()]
        assert ad.grad_check(f, leaves, eps=1e-4) <= 1e-5


class TestRecurrentLayer:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_padding_does_not_change_outputs(self, kind, reverse):
        rng = np.random.default_rng(9)
        make = nn.LstmParams.create if kind == "lstm" else nn.GruParams.create
        p = make("l", 3, 4, rng)
        x = rng.standard_normal((1, 5, 3))
        full = nn.run_recurrent_layer(p, Tensor(x), np.ones((1, 5)), reverse=reverse).values
        padded = np.concatenate([x, np.zeros((1, 3, 3))], axis=1)
        mask = np.concatenate([np.ones((1, 5)), np.zeros((1, 3))], axis=1)
        got = nn.run_recurrent_layer(p, Tensor(padded), mask, reverse=reverse).values
        np.testing.assert_allclose(got[:, :5], full, atol=1e-12)
        np.testing.assert_allclose(got[:, 5:], 0.0)

    def test_layer_gradients(self):
        rng = np.random.default_rng(10)
        p = nn.GruParams.create("l", 2, 3, rng)
        x = Tensor(rng.standard_normal((2, 4, 2)))
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0]])

        def f():
            out = nn.run_recurrent_layer(p, x, mask, reverse=True)
            return ad.sum_(ad.mul(out, out))

        leaves = [x] + [q.tensor for q in p.parameters()]
        assert ad.grad_check(f, leaves, eps=1e-4) <= 1e-5

    def test_lstm_layer_gradients(self):
        rng = np.random.default_rng(11)
        p = nn.LstmParams.create("l", 2, 3, rng)
        x = Tensor(rng.standard_normal((3, 4, 2)))
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])

        def f():
            fw = nn.run_recurrent_layer(p, x, mask)
            bw = nn.run_recurrent_layer(p, x, mask, reverse=True)
            return ad.sum_(ad.mul(fw, bw))

        leaves = [x] + [q.tensor for q in p.parameters()]
        assert ad.grad_check(f, leaves, eps=1e-4) <= 1e-5

    @staticmethod
    def _per_step_chain(p, x, mask, reverse):
        """The layer as one tape node per primitive and step (the oracle)."""
        B, T, D = x.values.shape
        H = p.hidden
        flat = ad.reshape(x, (B * T, D))
        lstm = isinstance(p, nn.LstmParams)
        if lstm:
            gates = ad.reshape(ad.affine(flat, p.w_x.tensor, p.b.tensor), (B, T, 4 * H))
        else:
            gates = ad.reshape(ad.affine(flat, p.w_x_ru.tensor, p.b_ru.tensor), (B, T, 2 * H))
            cand = ad.reshape(ad.affine(flat, p.w_x_c.tensor, p.b_c.tensor), (B, T, H))
        h = c = ad.constant(np.zeros((B, H)))
        outputs = [None] * T
        for t in (range(T - 1, -1, -1) if reverse else range(T)):
            m = mask[:, t : t + 1]
            gx = ad.getitem(gates, (slice(None), t))
            if lstm:
                h_new, c_new = _lstm_from_gates(gx, h, c, p)
                c = masked_blend(c_new, c, m)
            else:
                h_new = _gru_from_gates(gx, ad.getitem(cand, (slice(None), t)), h, p)
            h = masked_blend(h_new, h, m)
            outputs[t] = ad.mul_const(h, m)
        return stack(outputs, axis=1)

    # lengths of the batch rows (the padded length is the longest) and the
    # factor on every weight; a large factor saturates tanh and the sigmoids
    # to exactly +-1.0, where the backward makes exact zeros
    CASES = {
        "ragged": ([9, 4, 1, 7], 1.0),
        "live-then-ragged": ([9, 6, 6, 9, 6], 1.0),
        "equal-lengths": ([6, 6, 6], 1.0),
        "batch-1": ([7], 1.0),
        "saturated": ([9, 9, 5, 9], 40.0),
    }

    @staticmethod
    def _layer_case(kind, case):
        lengths, scale = TestRecurrentLayer.CASES[case]
        rng = np.random.default_rng(12)
        make = nn.LstmParams.create if kind == "lstm" else nn.GruParams.create
        p = make("l", 5, 7, rng)
        for q in p.parameters():
            q.values *= scale
        lengths = np.array(lengths)
        T = lengths.max()
        mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
        x0 = rng.standard_normal((len(lengths), T, 5)) * mask[:, :, None]
        return p, mask, x0, rng

    def _check_against_chain(self, kind, reverse, case, prior_grads):
        p, mask, x0, rng = self._layer_case(kind, case)
        upstream = rng.standard_normal(x0.shape[:2] + (7,))
        prior = {q.name: rng.standard_normal(q.values.shape) for q in p.parameters()}

        def run(layer):
            for q in p.parameters():  # gradients left over from an earlier use, or none
                q.tensor.grad = prior[q.name].copy() if prior_grads else None
            x = Tensor(x0)
            with Tape() as tape:
                out = layer(p, x, mask, reverse)
                loss = ad.add(ad.sum_(ad.mul(out, ad.constant(upstream))), ad.sum_(ad.mul(out, out)))
            tape.backward(loss)
            return [out.values, x.grad] + [q.tensor.grad for q in p.parameters()]

        fused = run(lambda p, x, m, r: nn.run_recurrent_layer(p, x, m, reverse=r))
        if case == "saturated":  # the input terms alone drive tanh to exactly +-1.0
            w_in = p.w_x.values if kind == "lstm" else p.w_x_c.values
            assert (np.abs(np.tanh(x0 @ w_in)) == 1.0).any()
        for got, want in zip(fused, run(self._per_step_chain)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_layer_matches_per_step_chain_bit_for_bit(self, kind, reverse):
        self._check_against_chain(kind, reverse, "ragged", prior_grads=True)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("case, prior_grads", [  # all but the test above
        (case, prior) for case in CASES for prior in (True, False) if (case, prior) != ("ragged", True)])
    def test_every_batch_shape_matches_per_step_chain(self, kind, reverse, case, prior_grads):
        self._check_against_chain(kind, reverse, case, prior_grads)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_forward_without_tape_matches_forward_under_tape(self, kind, reverse, case):
        p, mask, x0, _ = self._layer_case(kind, case)
        bare = nn.run_recurrent_layer(p, Tensor(x0), mask, reverse=reverse).values
        with Tape():
            taped = nn.run_recurrent_layer(p, Tensor(x0), mask, reverse=reverse).values
        assert bare.tobytes() == taped.tobytes()


class TestFloat32Layer:
    """Parameters built in float32 run the layer in float32 (the encoders'
    case); the float64 per-step chain on the same, float32-rounded values
    is the oracle. Each float32 operation rounds to 6e-8 of its result, so
    over at most 9 steps the outputs and gradients stay within 1e-5 of the
    largest magnitude of each array (measured: below 5e-7)."""

    @staticmethod
    def _run(layer, p, x0, mask, reverse, upstream):
        for q in p.parameters():
            q.tensor.grad = None
        x = Tensor(x0)
        with Tape() as tape:
            out = layer(p, x, mask, reverse)
            loss = ad.add(ad.sum_(ad.mul(out, ad.constant(upstream))), ad.sum_(ad.mul(out, out)))
        tape.backward(loss)
        return [out.values, x.grad] + [q.tensor.grad for q in p.parameters()]

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("case", ["ragged", "equal-lengths", "batch-1"])
    def test_float32_layer_matches_float64_per_step_chain(self, kind, reverse, case):
        p64, mask, x0, rng = TestRecurrentLayer._layer_case(kind, case)
        make = nn.LstmParams.create if kind == "lstm" else nn.GruParams.create
        p32 = make("l", 5, 7, np.random.default_rng(0), np.float32)
        for q32, q64 in zip(p32.parameters(), p64.parameters()):
            q32.values[...] = q64.values
            q64.values = q32.values.astype(np.float64)
        upstream = rng.standard_normal(x0.shape[:2] + (7,))
        got = self._run(lambda p, x, m, r: nn.run_recurrent_layer(p, x, m, reverse=r), p32, x0, mask, reverse,
                        upstream)
        want = self._run(TestRecurrentLayer._per_step_chain, p64, x0, mask, reverse, upstream)
        # the output and the weight gradients in float32, the input's gradient in its own float64
        assert [g.dtype for g in got] == [np.float32, np.float64] + [np.float32] * len(p32.parameters())
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * np.abs(w).max())

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_float64_parameters_compute_in_float64_bit_for_bit(self, kind):
        p, mask, x0, _ = TestRecurrentLayer._layer_case(kind, "ragged")
        assert all(q.values.dtype == np.float64 for q in p.parameters())
        assert nn.run_recurrent_layer(p, Tensor(x0), mask).values.dtype == np.float64
        TestRecurrentLayer()._check_against_chain(kind, False, "ragged", prior_grads=False)


class TestAdam:
    def test_first_step_magnitude(self):
        # scalar g=1, lr=0.1: bias-corrected m_hat=v_hat=1 so the update is
        # lr/(1+eps) ~= 0.1
        p = nn.Parameter("w", np.array([1.0]))
        p.tensor.grad = np.array([1.0])
        nn.Adam(lr=0.1).step([p])
        np.testing.assert_allclose(p.values, 1.0 - 0.1, atol=1e-8)

    def test_zero_gradient_leaves_params(self):
        p = nn.Parameter("w", np.array([1.0, 2.0]))
        p.tensor.grad = np.zeros(2)
        nn.Adam(lr=0.5).step([p])
        np.testing.assert_allclose(p.values, [1.0, 2.0])

    def test_deterministic_trajectory(self):
        def run():
            p = nn.Parameter("w", np.array([0.3]))
            opt = nn.Adam(lr=0.05)
            for i in range(5):
                p.tensor.grad = np.array([np.sin(i + 1.0)])
                opt.step([p])
                p.zero_grad()
            return p.values.copy()

        np.testing.assert_array_equal(run(), run())


@pytest.mark.parametrize("make", [lambda: nn.Adam(lr=0.1), lambda: nn.NesterovSGD(lr=0.1, momentum=0.9)])
def test_optimizer_state_keeps_the_parameter_dtype_in_place(make):
    p = nn.Parameter("w", np.array([0.5, -1.0], dtype=np.float32))
    values, opt = p.values, make()
    for g in (1.0, -2.0):
        p.tensor.grad = np.full(2, g, dtype=np.float32)
        opt.step([p])
        if g == 1.0:
            state = dict(p.state)
    assert p.values is values and p.values.dtype == np.float32
    for key, arr in p.state.items():
        if key != "t":
            assert arr is state[key] and arr.dtype == np.float32


class TestNesterovSGD:
    def test_zero_momentum_is_plain_sgd(self):
        p = nn.Parameter("w", np.array([2.0]))
        p.tensor.grad = np.array([0.5])
        nn.NesterovSGD(lr=0.1, momentum=0.0).step([p])
        np.testing.assert_allclose(p.values, 2.0 - 0.1 * 0.5)

    def test_momentum_moves_without_gradient(self):
        p = nn.Parameter("w", np.array([0.0]))
        opt = nn.NesterovSGD(lr=0.1, momentum=0.9)
        p.tensor.grad = np.array([1.0])
        opt.step([p])
        before = p.values.copy()
        p.zero_grad()
        opt.step([p])
        assert p.values[0] < before[0]

    def test_three_step_hand_computation(self):
        # v <- mu*v + g; p -= lr*(g + mu*v), with g=1, lr=0.1, mu=0.9:
        # updates 0.19, 0.271, 0.3439 => p3 = -0.8049
        p = nn.Parameter("w", np.array([0.0]))
        opt = nn.NesterovSGD(lr=0.1, momentum=0.9)
        for _ in range(3):
            p.tensor.grad = np.array([1.0])
            opt.step([p])
            p.zero_grad()
        np.testing.assert_allclose(p.values, [-0.8049], atol=1e-12)


class TestPlateauScheduler:
    def test_improving_history_keeps_lr(self):
        s = nn.PlateauScheduler(lr=0.1, patience=2, factor=0.1, min_lr=1e-6)
        for m in [0.1, 0.2, 0.3, 0.4]:
            d = s.update(m)
            assert d.lr == 0.1 and not d.reset_to_best

    def test_flat_history_decays_once(self):
        s = nn.PlateauScheduler(lr=0.1, patience=3, factor=0.1, min_lr=1e-6)
        decisions = [s.update(0.5) for _ in range(4)]
        assert [d.reset_to_best for d in decisions] == [False, False, False, True]
        np.testing.assert_allclose(s.lr, 0.01)

    def test_stop_when_below_min_lr(self):
        s = nn.PlateauScheduler(lr=1e-5, patience=1, factor=0.1, min_lr=1e-5)
        s.update(1.0)
        d = s.update(0.5)
        assert d.reset_to_best and d.stop

    def test_min_mode_for_error_rates(self):
        s = nn.PlateauScheduler(lr=0.1, patience=1, factor=0.5, min_lr=1e-9, mode="min")
        assert s.update(0.5).improved
        assert s.update(0.4).improved
        assert s.update(0.45).reset_to_best

    def test_improvement_restarts_the_patience_count(self):
        s = nn.PlateauScheduler(lr=0.1, patience=2, factor=0.1, min_lr=1e-6)
        decisions = [s.update(m) for m in [0.5, 0.4, 0.6, 0.5, 0.5]]
        assert [d.improved for d in decisions] == [True, False, True, False, False]
        assert [d.reset_to_best for d in decisions] == [False, False, False, False, True]

    def test_each_patience_window_decays_again(self):
        s = nn.PlateauScheduler(lr=1.0, patience=2, factor=0.5, min_lr=1e-6)
        lrs = [s.update(0.5).lr for _ in range(7)]
        assert lrs == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.125]
        assert s.best == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            nn.PlateauScheduler(lr=0.1, patience=1, factor=0.5, min_lr=1e-9, mode="loss")


def checkpoint_bytes(block: bytes) -> bytes:
    """A CADP file without parameters whose metadata block is ``block``,
    byte for byte, with a matching CRC32."""
    return with_crc(nn.CHECKPOINT_MAGIC + struct.pack("<II", nn.CHECKPOINT_VERSION, len(block)) + block
                    + struct.pack("<I", 0))


def edit_checkpoint(src, dst, meta=None, arrays=None, text=None):
    """Write checkpoint ``src`` to ``dst`` with each given edit applied:
    ``meta`` to its metadata as a dict, then ``text`` to the metadata's
    JSON text, and ``arrays`` to its name -> array dict. Each edit returns
    what is saved."""
    block, a = nn.load_checkpoint(src)
    if meta:
        block = json.dumps(meta(json.loads(block)), sort_keys=True)
    if text:
        block = text(block)
    if arrays:
        a = arrays(a)
    nn.save_checkpoint(dst, [nn.Parameter(name, values) for name, values in a.items()], block)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = [
            nn.Parameter("enc.w", rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64)),
            nn.Parameter("enc.b", rng.standard_normal(4).astype(np.float32).astype(np.float64)),
            nn.Parameter("scalar", np.float32(0.25).astype(np.float64)),
        ]
        path = tmp_path / "model.cadp"
        meta = '{"model": "embed", "written": {"symbols": ["b", "a\u00e9"]}}'
        nn.save_checkpoint(path, params, meta)
        loaded_meta, loaded = nn.load_checkpoint(path)
        assert loaded_meta == meta
        for p in params:
            np.testing.assert_array_equal(loaded[p.name], p.values)
        # re-serialize: identical bytes
        params2 = [nn.Parameter(k, v) for k, v in loaded.items()]
        path2 = tmp_path / "model2.cadp"
        nn.save_checkpoint(path2, params2, loaded_meta)
        assert path.read_bytes() == path2.read_bytes()

    def test_layout_metadata_block_then_arrays_then_crc32(self, tmp_path):
        path = tmp_path / "model.cadp"
        meta = '{"model": "asr", "\u00e9": [1]}'  # stored as UTF-8, its byte count first
        nn.save_checkpoint(path, [nn.Parameter("w", np.ones((2, 3)))], meta)
        block = meta.encode("utf-8")
        data = path.read_bytes()
        assert data[:12 + len(block)] == (nn.CHECKPOINT_MAGIC + struct.pack("<II", nn.CHECKPOINT_VERSION, len(block))
                                          + block)
        assert data[12 + len(block) : 16 + len(block)] == struct.pack("<I", 1)
        assert data == with_crc(data[:-4])

    def test_metadata_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "model.cadp"
        path.write_bytes(checkpoint_bytes(b"\xff{}"))
        with pytest.raises(nn.CheckpointError, match="text at byte 12 is not UTF-8"):
            nn.load_checkpoint(path)

    def test_version_1_checkpoint_rejected_with_a_retrain_hint(self, tmp_path):
        # the version-1 layout: magic, <II> version and count, the arrays, no metadata or CRC32
        path = tmp_path / "old.cadp"
        path.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"w"
                         + struct.pack("<II", 1, 1) + np.ones(1, "<f4").tobytes())
        with pytest.raises(nn.CheckpointError, match="unsupported CADP version 1; retrain the model"):
            nn.load_checkpoint(path)

    def test_writer_raising_halfway_keeps_the_earlier_checkpoint(self, tmp_path):
        path = tmp_path / "model.cadp"
        nn.save_checkpoint(path, [nn.Parameter("w", np.ones((2, 3))), nn.Parameter("b", np.ones(3))], "{}")
        before = path.read_bytes()
        # the second name cannot be encoded, so the writer raises after the first parameter
        with pytest.raises(UnicodeEncodeError):
            nn.save_checkpoint(path, [nn.Parameter("w", np.zeros((2, 3))), nn.Parameter("b\ud800", np.zeros(3))],
                               "{}")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.cadp"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.cadp"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(nn.CheckpointError, match="not a CADP file"):
            nn.load_checkpoint(path)

    def test_truncated_file_rejected_at_every_offset(self, tmp_path):
        params = [nn.Parameter("enc.w\u00e9", np.ones((3, 4))), nn.Parameter("b", np.zeros(4)),
                  nn.Parameter("scalar", np.float64(0.5))]
        path = tmp_path / "model.cadp"
        nn.save_checkpoint(path, params, '{"model": "embed"}')
        data = path.read_bytes()
        cut = tmp_path / "cut.cadp"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(nn.CheckpointError):
                nn.load_checkpoint(cut)

    @pytest.mark.parametrize("bits", [0x7F800001, 0x7F800000, 0x7FC00000, 0xFF800000, 0xFFFFFFFF],
                             ids=["signalling-nan", "inf", "quiet-nan", "minus-inf", "negative-nan"])
    def test_non_finite_weight_rejected_without_a_warning(self, tmp_path, bits):
        path = tmp_path / "model.cadp"
        nn.save_checkpoint(path, [nn.Parameter("w", np.ones((2, 3))), nn.Parameter("b", np.ones(3))], "{}")
        data = bytearray(path.read_bytes()[:-4])
        data[-8:-4] = struct.pack("<I", bits)  # the middle float32 of "b"
        path.write_bytes(with_crc(bytes(data)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nn.CheckpointError, match="b: non-finite weights"):
                nn.load_checkpoint(path)

    def test_extreme_finite_weights_load_bit_exact(self, tmp_path):
        # the largest float32, its negation, the smallest subnormal and -0.0
        bits = np.array([0x7F7FFFFF, 0xFF7FFFFF, 0x00000001, 0x80000000], dtype="<u4")
        values = bits.view("<f4").astype(np.float64)
        path = tmp_path / "model.cadp"
        nn.save_checkpoint(path, [nn.Parameter("w", values)], "{}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = nn.load_checkpoint(path)[1]["w"]
        assert loaded.astype("<f4").view("<u4").tolist() == bits.tolist()

    def test_assign_shape_mismatch_rejected(self, tmp_path):
        p = nn.Parameter("w", np.zeros((2, 2)))
        path = tmp_path / "m.cadp"
        nn.save_checkpoint(path, [p], "{}")
        q = nn.Parameter("w", np.zeros((3, 2)))
        with pytest.raises(nn.CheckpointError):
            nn.assign_from_checkpoint([q], nn.load_checkpoint(path)[1])

    def test_strict_assign_refuses_a_missing_parameter(self):
        loaded = {"w": np.ones((2, 2))}
        w, b = nn.Parameter("w", np.zeros((2, 2))), nn.Parameter("b", np.zeros(2))
        with pytest.raises(nn.CheckpointError, match="no weights for b"):
            nn.assign_from_checkpoint([w, b], loaded)
        np.testing.assert_array_equal(w.values, 0.0)  # refused before any copy
        with pytest.raises(nn.CheckpointError, match="no parameter named w"):
            nn.assign_from_checkpoint([b], {"w": np.ones((2, 2)), "b": np.ones(2)})
