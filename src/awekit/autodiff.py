"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float32 or float64 ndarray plus an optional gradient
buffer of the same dtype. Most work is float64; the recurrent layers run in
float32 (see ``nn``), and a binary op with one float64 operand promotes.
``cast`` moves a tensor between the two dtypes.
Primitive applications are recorded on the innermost active ``Tape`` (a
plain list in creation order, which is a topological order); ``backward``
walks the list once in reverse and accumulates gradients additively, so
shared subexpressions sum their contributions and parameter gradients
accumulate across calls until explicitly cleared.

Outside any ``with Tape() as tape:`` block the same primitives run as
plain numpy (no recording), which is the inference path.

Broadcasting is deliberately narrow: elementwise ops require equal shapes
or a python scalar, plus the few documented cases (row-bias add, constant
mask multiply). Anything else raises.
"""

from __future__ import annotations

import threading

import numpy as np

_TAPES: list["Tape"] = []


class ZeroNormCounter:
    """Counts cosine-distance evaluations that hit a zero-norm operand.

    Such pairs get distance 1 with zero gradient instead of NaN; the count
    makes the event observable (e.g. silence-only segments). Each pair of
    a distance matrix counts, scored or not: a triplet batch takes one
    (m, m) matrix over its segments, so every pair of it with a zero-norm
    row counts, the diagonal included. Worker threads add to it, so
    ``add`` holds a lock.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def add(self, n: int):
        with self._lock:
            self.count += n

    def reset(self):
        with self._lock:
            self.count = 0


zero_norm_events = ZeroNormCounter()


class Tensor:
    """A float32 or float64 ndarray (any other input becomes float64) with
    an optional gradient buffer of the same shape and dtype."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        v = np.asarray(values)
        self.values = v if v.dtype == np.float32 else np.asarray(v, dtype=np.float64)
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:  # zeros + g bit for bit: IEEE addition commutes, signed zeros too
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class Tape:
    """Recorded primitive applications, in topological (creation) order."""

    def __init__(self):
        self.nodes = []  # (out, inputs, backward_fn)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _TAPES.pop() is self
        return False

    def backward(self, loss: Tensor):
        """Backpropagate from ``loss`` with a seed gradient of ones; visits
        each node exactly once."""
        loss.accumulate_grad(np.ones_like(loss.values))
        for out, inputs, bwd in reversed(self.nodes):
            if out.grad is None:
                continue
            grads = bwd(out.grad)
            for t, g in zip(inputs, grads):
                if g is not None:
                    t.accumulate_grad(g)


def _record(out: Tensor, inputs, bwd) -> Tensor:
    if _TAPES:
        _TAPES[-1].nodes.append((out, inputs, bwd))
    return out


def constant(values) -> Tensor:
    """A leaf tensor (no recording; gradients may still accumulate into it)."""
    return Tensor(values)


def cast(x: Tensor, dtype) -> Tensor:
    """``x`` in ``dtype``; the gradient goes back in x's own dtype. A tensor
    already in ``dtype`` is returned as it is, with nothing recorded."""
    src = x.values.dtype
    if src == dtype:
        return x
    out = Tensor(x.values.astype(dtype))
    return _record(out, (x,), lambda g: (g.astype(src),))


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # scalar
        out = Tensor(a.values + float(b))
        return _record(out, (a,), lambda g: (g,))
    if a.values.shape == b.values.shape:
        out = Tensor(a.values + b.values)
        return _record(out, (a, b), lambda g: (g, g))
    # documented broadcast: matrix + row vector (bias)
    if b.values.ndim == 1 and a.values.ndim >= 2 and a.values.shape[-1] == b.values.shape[0]:
        out = Tensor(a.values + b.values)
        axes = tuple(range(a.values.ndim - 1))
        return _record(out, (a, b), lambda g: (g, g.sum(axis=axes)))
    raise ValueError(f"add: incompatible shapes {a.values.shape} vs {b.values.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(b, Tensor):
        out = Tensor(a.values - float(b))
        return _record(out, (a,), lambda g: (g,))
    if a.values.shape != b.values.shape:
        raise ValueError(f"sub: incompatible shapes {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values - b.values)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return scale(a, float(b))
    if a.values.shape != b.values.shape:
        raise ValueError(f"mul: incompatible shapes {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values * b.values)
    av, bv = a.values, b.values
    return _record(out, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.values * c)
    return _record(out, (a,), lambda g: (g * c,))


def mul_const(a: Tensor, arr) -> Tensor:
    """Multiply by a constant ndarray, broadcasting allowed.

    The constant must broadcast *up* to ``a``'s shape (masks, 1/length
    columns); no gradient flows into it.
    """
    arr = np.asarray(arr, dtype=np.float64)
    out_v = a.values * arr
    if out_v.shape != a.values.shape:
        raise ValueError("mul_const: constant may not enlarge the tensor")
    out = Tensor(out_v)
    return _record(out, (a,), lambda g: (g * arr,))


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError("matmul: 2-D operands only (reshape first)")
    out = Tensor(a.values @ b.values)
    av, bv = a.values, b.values
    return _record(out, (a, b), lambda g: (g @ bv.T, av.T @ g))


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b rowwise). Fused to keep the tape short on hot paths."""
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ValueError("affine: 2-D operands only (reshape first)")
    v = x.values @ w.values
    if b is not None:
        v = v + b.values
    out = Tensor(v)
    xv, wv = x.values, w.values

    if b is None:
        return _record(out, (x, w), lambda g: (g @ wv.T, xv.T @ g))

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        return g @ wv.T, xv.T @ g, g.sum(axis=axes)

    return _record(out, (x, w, b), bwd)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor (an embedding lookup, say), repeats
    allowed. The backward sums the gradients of repeated rows in one
    ``np.add.reduceat`` over a stable sort of ``idx``, in the order the
    rows were gathered, far faster than ``np.add.at`` on many rows, and
    adds the sums into ``x.grad`` in place, as ``getitem`` does."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.values[idx])

    def bwd(g):
        order = np.argsort(idx, kind="stable")
        ordered = idx[order]
        first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        x.grad[ordered[first]] += np.add.reduceat(g[order], first, axis=0)
        return (None,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Nonlinearities


def tanh(x: Tensor) -> Tensor:
    v = np.tanh(x.values)
    out = Tensor(v)
    return _record(out, (x,), lambda g: (g * (1.0 - v * v),))


def relu(x: Tensor) -> Tensor:
    v = np.maximum(x.values, 0.0)
    out = Tensor(v)
    pos = x.values > 0.0
    return _record(out, (x,), lambda g: (g * pos,))


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; the derivative at exactly 0 is taken as 0.

    The subgradient choice keeps losses finite when a sqrt-composed term
    is identically zero (all hinges inactive).
    """
    v = np.sqrt(x.values)
    out = Tensor(v)

    def bwd(g):
        d = np.zeros_like(v)
        nz = v > 0.0
        d[nz] = 0.5 / v[nz]
        return (g * d,)

    return _record(out, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.values - x.values.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    v = z - lse
    out = Tensor(v)
    sm = np.exp(v)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Shape ops


def _is_fancy(key) -> bool:
    if isinstance(key, (np.ndarray, list)):
        return True
    if isinstance(key, tuple):
        return any(isinstance(k, (np.ndarray, list)) for k in key)
    return False


def getitem(x: Tensor, key) -> Tensor:
    out = Tensor(x.values[key])
    fancy = _is_fancy(key)  # fancy keys may repeat indices: scatter-add

    # Scatter into x.grad in place instead of materializing a full-size
    # zero array per slice; with one getitem per timestep on a big padded
    # tensor the dense form dominates the whole backward pass.
    def bwd(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        if fancy:
            np.add.at(x.grad, key, g)
        else:
            x.grad[key] += g
        return (None,)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.values.reshape(shape))
    orig = x.values.shape
    return _record(out, (x,), lambda g: (g.reshape(orig),))


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ValueError("transpose: 2-D only")
    out = Tensor(x.values.T.copy())
    return _record(out, (x,), lambda g: (g.T,))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(x.values.sum(axis=axis))
    shape = x.values.shape

    def bwd(g):
        if axis is None:
            return (np.full(shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _record(out, (x,), bwd)


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum 1-D entries into ``num_segments`` buckets by id."""
    ids = np.asarray(segment_ids, dtype=np.intp)
    out = Tensor(np.bincount(ids, weights=x.values, minlength=num_segments))
    return _record(out, (x,), lambda g: (g[ids],))


def mean(x: Tensor, axis: int) -> Tensor:
    n = x.values.shape[axis]
    out = Tensor(x.values.mean(axis=axis))
    shape = x.values.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / n,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Cosine distance


def cosine_distance_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine distance 1 - a.b/(|a||b|): (N, D) x (M, D) -> (N, M).

    A pair with a zero-norm row gets distance 1 and contributes no
    gradient; each such pair bumps ``zero_norm_events``.
    """
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise ValueError("cosine_distance_matrix: need (N,D) and (M,D)")
    na = np.linalg.norm(av, axis=1)
    nb = np.linalg.norm(bv, axis=1)
    ok = (na > 0)[:, None] & (nb > 0)[None, :]
    n_bad = int(np.size(ok) - np.count_nonzero(ok))
    if n_bad:
        zero_norm_events.add(n_bad)
    sa = np.where(na > 0, na, 1.0)
    sb = np.where(nb > 0, nb, 1.0)
    an = av / sa[:, None]
    bn = bv / sb[:, None]
    cos = np.where(ok, an @ bn.T, 0.0)
    out = Tensor(1.0 - cos)

    def bwd(g):
        w = np.where(ok, g, 0.0)
        # through a: -(b_n/|a| - cos*a_n/|a|)
        ga = -(w @ bn - (w * cos).sum(axis=1, keepdims=True) * an) / sa[:, None]
        gb = -(w.T @ an - (w * cos).sum(axis=0)[:, None] * bn) / sb[:, None]
        return ga, gb

    return _record(out, (a, b), bwd)


def l2norm_rows(x: Tensor) -> Tensor:
    """Euclidean norm of each row of an (N, D) tensor -> (N,).

    The gradient at an exactly-zero row is taken as 0 (subgradient), so
    regularizers that start at zero distance do not produce NaNs.
    """
    v = np.linalg.norm(x.values, axis=-1)
    out = Tensor(v)
    xv = x.values

    def bwd(g):
        safe = np.where(v > 0, v, 1.0)
        return ((g / safe)[..., None] * np.where(v[..., None] > 0, xv, 0.0),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Dropout


def dropout(x: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate). Identity when not training or rate == 0."""
    if not train or rate == 0.0:
        return x
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.values * keep)
    return _record(out, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# Gradient verification


def grad_check(fn, tensors, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must be a deterministic closure returning a scalar Tensor built
    from the leaf ``tensors``. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1).
    """
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = fn()
    if loss.values.size != 1:
        raise ValueError("grad_check expects a scalar loss")
    if not np.isfinite(loss.values).all():
        raise FloatingPointError("non-finite loss")
    tape.backward(loss)
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, a in zip(tensors, analytic):
        for idx in np.ndindex(t.values.shape):
            orig = t.values[idx]
            t.values[idx] = orig + eps
            up = float(fn().values)
            t.values[idx] = orig - eps
            dn = float(fn().values)
            t.values[idx] = orig
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise FloatingPointError("non-finite value during grad_check")
            num = (up - dn) / (2.0 * eps)
            rel = abs(a[idx] - num) / max(abs(a[idx]), abs(num), 1.0)
            worst = max(worst, rel)
    return worst
