"""Recurrent layers, parameters, optimizers, schedulers, and checkpoints.

The LSTM follows the six gate/state updates (input, forget, output
gates; candidate cell; cell memory c_t = i*c~ + f*c_{t-1}; hidden
h_t = o*tanh(c_t)); the GRU follows the four updates with
h_t = u*h_prev + (1-u)*h~. Weights are stored split into input and
recurrent blocks so whole-sequence input contributions can be computed
with one matmul before the time loop. ``run_recurrent_layer`` records that
time loop as a single tape node with a hand-written backward pass; it
skips the mask blends on all-live steps, and keeps no state without a tape.

A layer computes in the dtype of its parameters: the encoders build theirs
in float32 (``RECURRENT_DTYPE``), the dtype checkpoints store, so trained
recurrent weights in memory equal their reload; parameters built in float64
run the same code in float64. Optimizer state has the dtype of its
parameter.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BinaryReader, open_binary, pack_name

CHECKPOINT_MAGIC = b"CADP"
CHECKPOINT_VERSION = 2
RECURRENT_DTYPE = np.float32  # the dtype of the encoders' recurrent weights


class Parameter:
    """A named tensor plus whatever per-slot state the optimizer attaches."""

    def __init__(self, name: str, values):
        self.name = name
        self.tensor = Tensor(values)
        self.state: dict[str, np.ndarray] = {}
        self.frozen = False

    @property
    def values(self):
        return self.tensor.values

    @values.setter
    def values(self, arr):
        self.tensor.values = arr

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.values.shape})"


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """U(-1/sqrt(fan_in), +1/sqrt(fan_in)) for recurrent and affine weights."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def normal_init(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0, 1) for embedding tables."""
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# Recurrent layers


@dataclass
class LstmParams:
    """Gate-fused LSTM weights; column blocks ordered [i | f | c~ | o]."""

    w_x: Parameter
    w_h: Parameter
    b: Parameter
    hidden: int

    @staticmethod
    def create(name: str, input_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float64) -> "LstmParams":
        fan = input_dim + hidden
        return LstmParams(
            w_x=Parameter(f"{name}.w_x", uniform_init(rng, (input_dim, 4 * hidden), fan).astype(dtype)),
            w_h=Parameter(f"{name}.w_h", uniform_init(rng, (hidden, 4 * hidden), fan).astype(dtype)),
            b=Parameter(f"{name}.b", np.zeros(4 * hidden, dtype)),
            hidden=hidden,
        )

    def parameters(self):
        return [self.w_x, self.w_h, self.b]


@dataclass
class GruParams:
    """GRU weights; gate block columns ordered [r | u], candidate separate."""

    w_x_ru: Parameter
    w_h_ru: Parameter
    b_ru: Parameter
    w_x_c: Parameter
    w_h_c: Parameter
    b_c: Parameter
    hidden: int

    @staticmethod
    def create(name: str, input_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float64) -> "GruParams":
        fan = input_dim + hidden
        return GruParams(
            w_x_ru=Parameter(f"{name}.w_x_ru", uniform_init(rng, (input_dim, 2 * hidden), fan).astype(dtype)),
            w_h_ru=Parameter(f"{name}.w_h_ru", uniform_init(rng, (hidden, 2 * hidden), fan).astype(dtype)),
            b_ru=Parameter(f"{name}.b_ru", np.zeros(2 * hidden, dtype)),
            w_x_c=Parameter(f"{name}.w_x_c", uniform_init(rng, (input_dim, hidden), fan).astype(dtype)),
            w_h_c=Parameter(f"{name}.w_h_c", uniform_init(rng, (hidden, hidden), fan).astype(dtype)),
            b_c=Parameter(f"{name}.b_c", np.zeros(hidden, dtype)),
            hidden=hidden,
        )

    def parameters(self):
        return [self.w_x_ru, self.w_h_ru, self.b_ru, self.w_x_c, self.w_h_c, self.b_c]


def run_recurrent_layer(params, x: Tensor, mask: np.ndarray, reverse: bool = False) -> Tensor:
    """Run one direction of a recurrent layer over a padded batch.

    x:    (B, T, D) tensor, zero-padded at the tail of each sequence.
    mask: (B, T) 1/0 array. At padded steps the state carries over, so the
          backward direction can start from the padded tail and the state
          stays zero until real frames begin.

    Returns (B, T, H) outputs, zeroed at padded steps, in the dtype of the
    parameters: ``x`` is cast to it once, and its gradient cast back.
    """
    B, T, D = x.values.shape
    is_lstm = isinstance(params, LstmParams)
    H = params.hidden
    w_x = params.w_x if is_lstm else params.w_x_ru
    flat = ad.reshape(ad.cast(x, w_x.values.dtype), (B * T, D))
    if is_lstm:
        gates_all = ad.reshape(ad.affine(flat, params.w_x.tensor, params.b.tensor), (B, T, 4 * H))
    else:
        gates_all = ad.reshape(ad.affine(flat, params.w_x_ru.tensor, params.b_ru.tensor), (B, T, 2 * H))
        cand_all = ad.reshape(ad.affine(flat, params.w_x_c.tensor, params.b_c.tensor), (B, T, H))

    steps = range(T - 1, -1, -1) if reverse else range(T)
    if is_lstm:
        return _lstm_layer(gates_all, params, mask, steps)
    return _gru_layer(gates_all, cand_all, params, mask, steps)


# The two layer functions below record a whole recurrence as one tape node
# instead of ~15-19 nodes per step. Each element goes through the same
# floating-point operations, in the same order, as in the cells composed
# from autodiff primitives (one ``masked_blend`` and ``mul_const`` per step,
# then ``stack``) that tests/test_nn.py keeps as the oracle; only purely
# elementwise work is batched differently. The backward accumulates into the
# recurrent weights and the input-gate gradients in the order that chain's
# tape would, so values and gradients match it bit for bit. This holds for
# float64 parameters, the oracle's dtype; float32 parameters run the same
# operations in float32.
#
# Where every row is live, a step skips the blend ``x*1 + y*0``: it differs
# from x only if y is inf or NaN, or x is -0.0, and from +0.0 states only an
# underflowed product (a gate sigmoid below ~1e-300) makes a -0.0 state. The
# backward's dropped ``g*0`` terms only flip the sign of a zero, which is lost
# where the layer's gradients are summed into arrays that start at +0.0.


def _step_masks(mask: np.ndarray, dtype):
    """The (B, T) mask in ``dtype``, one minus it (state carried over), and
    the (T,) steps where every row is live."""
    on = np.asarray(mask, dtype=dtype)
    return on, 1.0 - on, on.all(axis=0)


def _lstm_layer(gates_all: Tensor, p: LstmParams, mask: np.ndarray, steps: range) -> Tensor:
    """The LSTM recurrence over precomputed (B, T, 4H) input gates."""
    gv, wv, H = gates_all.values, p.w_h.values, p.hidden
    B, T, _ = gv.shape
    out = np.zeros((B, T, H), gv.dtype)
    h, c = np.zeros((B, H), gv.dtype), np.zeros((B, H), gv.dtype)
    on, off, live = _step_masks(mask, gv.dtype)
    saved = [] if ad._TAPES else None
    for t in steps:
        m, m_off = on[:, t : t + 1], off[:, t : t + 1]
        z = gv[:, t] + h @ wv
        s = 1.0 / (1.0 + np.exp(-z))  # elementwise, so the i, f and o blocks are as if apart
        i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]
        ct = np.tanh(z[:, 2 * H : 3 * H])
        c_new = i * ct + f * c
        tc = np.tanh(c_new)
        if saved is not None:
            saved.append((t, m, m_off, h, c, i, f, ct, o, tc))
        if live[t]:
            c = c_new
            h = out[:, t] = o * tc
        else:
            c = c_new * m + c * m_off
            h = (o * tc) * m + h * m_off
            np.multiply(h, m, out=out[:, t])
    result = Tensor(out)

    def bwd(g):
        if gates_all.grad is None:
            gates_all.grad = np.zeros_like(gv)
        gh = gc = None  # gradients reaching the state carried out of the step
        for t, m, m_off, h_prev, c_prev, i, f, ct, o, tc in reversed(saved):
            if live[t]:
                g_h = g_new = g[:, t] if gh is None else gh + g[:, t]
            else:
                g_h = g[:, t] * m if gh is None else gh + g[:, t] * m
                g_new = g_h * m
            g_c = g_new * o * (1.0 - tc * tc)
            if gc is not None:
                g_c = gc + g_c if live[t] else gc * m + g_c
            gc = g_c * f if gc is None or live[t] else gc * m_off + g_c * f
            dz = np.concatenate([g_c * ct * i * (1.0 - i), g_c * c_prev * f * (1.0 - f),
                                 g_c * i * (1.0 - ct * ct), g_new * tc * o * (1.0 - o)], axis=1)
            gh = dz @ wv.T if live[t] else g_h * m_off + dz @ wv.T
            p.w_h.tensor.accumulate_grad(h_prev.T @ dz)
            gates_all.grad[:, t] += dz
        return (None, None)

    return ad._record(result, (gates_all, p.w_h.tensor), bwd)


def _gru_layer(gates_all: Tensor, cand_all: Tensor, p: GruParams, mask: np.ndarray, steps: range) -> Tensor:
    """The GRU recurrence over precomputed (B, T, 2H) gate and (B, T, H)
    candidate inputs."""
    gv, cv, w_ru, w_c, H = gates_all.values, cand_all.values, p.w_h_ru.values, p.w_h_c.values, p.hidden
    B, T, _ = gv.shape
    out = np.zeros((B, T, H), gv.dtype)
    h = np.zeros((B, H), gv.dtype)
    on, off, live = _step_masks(mask, gv.dtype)
    saved = [] if ad._TAPES else None
    for t in steps:
        m, m_off = on[:, t : t + 1], off[:, t : t + 1]
        ru = 1.0 / (1.0 + np.exp(-(gv[:, t] + h @ w_ru)))
        rh = ru[:, :H] * h
        h_tilde = np.tanh(cv[:, t] + rh @ w_c)
        one_minus_u = 1.0 - ru[:, H:]
        if saved is not None:
            saved.append((t, m, m_off, h, ru, rh, h_tilde, one_minus_u))
        if live[t]:
            h = out[:, t] = ru[:, H:] * h + one_minus_u * h_tilde
        else:
            h = (ru[:, H:] * h + one_minus_u * h_tilde) * m + h * m_off
            np.multiply(h, m, out=out[:, t])
    result = Tensor(out)

    def bwd(g):
        for x in (gates_all, cand_all):
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
        gh = None  # gradient reaching the state carried out of the step
        for t, m, m_off, h_prev, ru, rh, h_tilde, one_minus_u in reversed(saved):
            r, u = ru[:, :H], ru[:, H:]
            if live[t]:
                g_h = g_new = g[:, t] if gh is None else gh + g[:, t]
                gh = g_new * u
            else:
                g_h = g[:, t] * m if gh is None else gh + g[:, t] * m
                g_new = g_h * m
                gh = g_h * m_off + g_new * u
            g_u = g_new * h_prev - g_new * h_tilde
            g_cand = g_new * one_minus_u * (1.0 - h_tilde * h_tilde)
            g_rh = g_cand @ w_c.T
            p.w_h_c.tensor.accumulate_grad(rh.T @ g_cand)
            gh = gh + g_rh * r
            g_gates = np.concatenate([g_rh * h_prev, g_u], axis=1) * ru * (1.0 - ru)
            gh = gh + g_gates @ w_ru.T
            p.w_h_ru.tensor.accumulate_grad(h_prev.T @ g_gates)
            cand_all.grad[:, t] += g_cand
            gates_all.grad[:, t] += g_gates
        return (None, None, None, None)

    return ad._record(result, (gates_all, cand_all, p.w_h_ru.tensor, p.w_h_c.tensor), bwd)


# ---------------------------------------------------------------------------
# Optimizers


class Adam:
    """Adam with bias correction; state lives on each Parameter, in its
    dtype, and is updated in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list[Parameter]):
        for p in params:
            if p.frozen or p.tensor.grad is None:
                continue
            g = p.tensor.grad
            st = p.state
            if "m" not in st:
                st["m"] = np.zeros_like(p.values)
                st["v"] = np.zeros_like(p.values)
                st["t"] = 0
            st["t"] += 1
            m, v = st["m"], st["v"]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** st["t"])
            v_hat = v / (1 - self.beta2 ** st["t"])
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class NesterovSGD:
    """SGD with Nesterov momentum: v <- mu*v + g; p -= lr*(g + mu*v). The
    velocity has the parameter's dtype and is updated in place."""

    def __init__(self, lr: float, momentum: float = 0.9):
        self.lr = lr
        self.momentum = momentum

    def step(self, params: list[Parameter]):
        mu = self.momentum
        for p in params:
            if p.frozen:
                continue
            g = p.tensor.grad
            st = p.state
            if g is None:
                # zero gradient this round; momentum still moves the weights
                if mu != 0.0 and "vel" in st:
                    st["vel"] *= mu
                    p.values -= self.lr * mu * st["vel"]
                continue
            if mu == 0.0:
                p.values -= self.lr * g
                continue
            if "vel" not in st:
                st["vel"] = np.zeros_like(p.values)
            vel = st["vel"]
            vel *= mu
            vel += g
            p.values -= self.lr * (g + mu * vel)


def zero_grads(params: list[Parameter]):
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Learning-rate schedules


@dataclass
class SchedulerDecision:
    lr: float
    improved: bool
    reset_to_best: bool  # lr was just decayed: go back to the best weights
    stop: bool


class PlateauScheduler:
    """Decay the learning rate when a dev metric stops improving.

    After ``patience`` evaluations without a new best, lr is multiplied by
    ``factor`` and a reset-to-best signal is raised; when lr falls below
    ``min_lr`` a stop signal is raised. ``mode`` is "max" for scores like
    average precision and "min" for error rates.
    """

    def __init__(self, lr: float, patience: int, factor: float, min_lr: float, mode: str = "max"):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.mode = mode
        self.best: float | None = None
        self.bad_count = 0

    def update(self, metric: float) -> SchedulerDecision:
        better = (
            self.best is None
            or (self.mode == "max" and metric > self.best)
            or (self.mode == "min" and metric < self.best)
        )
        if better:
            self.best = metric
            self.bad_count = 0
            return SchedulerDecision(self.lr, True, False, False)
        self.bad_count += 1
        if self.bad_count >= self.patience:
            self.lr *= self.factor
            self.bad_count = 0
            return SchedulerDecision(self.lr, False, True, self.lr < self.min_lr)
        return SchedulerDecision(self.lr, False, False, False)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params: list[Parameter], meta: str):
    """CADP version 2 (``corpus.open_binary``): the ``<I``-counted UTF-8
    metadata text ``meta`` (``pipelines.checkpoint_meta``), the parameter
    count, then each parameter's name, shape and float32 payload."""
    block = meta.encode("utf-8")
    with open_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as write:
        write(struct.pack("<I", len(block)) + block + struct.pack("<I", len(params)))
        for p in params:
            shape = p.values.shape
            write(pack_name(p.name) + struct.pack(f"<I{len(shape)}I", len(shape), *shape))
            write(p.values.astype("<f4").tobytes())


class CheckpointError(Exception):
    pass


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """A CADP file's metadata text, and its parameters as name -> float64."""
    r = BinaryReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "retrain the model", CheckpointError)
    meta = r.text("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I")[0]):
        name = r.text()
        (ndim,) = r.unpack("<I")
        arr = r.floats(r.unpack(f"<{ndim}I"))
        if not np.isfinite(arr).all():  # before the cast, which warns on a signalling NaN
            raise CheckpointError(f"{name}: non-finite weights")
        out[name] = arr.astype(np.float64)
    r.finish()
    return meta, out


def assign_from_checkpoint(params: list[Parameter], loaded: dict[str, np.ndarray]):
    """Copy loaded arrays into the parameters of the same names: every
    array must name a parameter and every parameter an array."""
    byname = {p.name: p for p in params}
    missing = [name for name in byname if name not in loaded]
    if missing:
        raise CheckpointError(f"no weights for {', '.join(missing)}")
    for name, arr in loaded.items():
        p = byname.get(name)
        if p is None:
            raise CheckpointError(f"no parameter named {name}")
        if p.values.shape != arr.shape:
            raise CheckpointError(f"shape mismatch for {name}: {p.values.shape} vs {arr.shape}")
        p.values[...] = arr
