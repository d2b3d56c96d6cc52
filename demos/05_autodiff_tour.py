"""A short tour of the numpy autodiff core under the toolkit.

Shows the tape, gradient checking against central differences, the
recurrent layers, and the custom dynamic-programming losses (CTC and
segmental) with their hand-written backward passes.

Run:  python demos/05_autodiff_tour.py
"""

import numpy as np

from awekit import autodiff as ad
from awekit import ctc, nn, segmental
from awekit.autodiff import Tape, Tensor

rng = np.random.default_rng(0)

print("== tapes record primitive applications; backward walks them once")
x = Tensor(np.array([1.0, -2.0, 3.0]))
with Tape() as tape:
    y = ad.sum_(ad.mul(ad.tanh(x), ad.tanh(x)))  # sum tanh(x)^2
tape.backward(y)
print("   d/dx sum tanh(x)^2      =", np.round(x.grad, 4))
print("   analytic 2 tanh x sech^2 =", np.round(2 * np.tanh(x.values) * (1 - np.tanh(x.values) ** 2), 4))

print("\n== every loss in the toolkit passes a central-difference check")
theta = Tensor(rng.standard_normal(5))
err = ad.grad_check(lambda: ad.scale(ad.sum_(ad.mul(theta, theta)), 0.5), [theta])
print(f"   quadratic:       max rel err {err:.2e}")

p = nn.LstmParams.create("layer", 4, 3, rng)
xx = Tensor(rng.standard_normal((2, 5, 4)))
mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])  # second sequence padded
err = ad.grad_check(
    lambda: ad.sum_(ad.mul(nn.run_recurrent_layer(p, xx, mask), nn.run_recurrent_layer(p, xx, mask, reverse=True))),
    [xx] + [q.tensor for q in p.parameters()])
print(f"   LSTM layer:      max rel err {err:.2e}")

print("\n== the CTC loss marginalizes over blank-interleaved paths")
logits = Tensor(rng.standard_normal((5, 3)))  # 2 words + blank
labels = [0, 1]
err = ad.grad_check(lambda: ctc.ctc_loss(ad.log_softmax(logits, axis=1), labels), [logits])
loss = ctc.ctc_loss(ad.log_softmax(logits, axis=1), labels)
print(f"   -log P(labels) = {float(loss.values):.4f}; grad vs FD: {err:.2e}")

print("\n== the segmental loss marginalizes over segmentations instead")
U = rng.standard_normal((6, 3, 2))  # frames x max segment length x vocab
loss, grad = segmental.seg_gradient_value(U, [0, 1])
path = segmental.viterbi_decode(U)[0]
path_score = path.score(U)
print(f"   marginal loss {loss:.4f}; best path {path.segments} scoring {path_score:.3f}")
eps = 1e-5
up, dn = U.copy(), U.copy()
up[2, 1, 0] += eps
dn[2, 1, 0] -= eps
fd = (segmental.seg_marginal_loss_value(up, [0, 1])
      - segmental.seg_marginal_loss_value(dn, [0, 1])) / (2 * eps)
print(f"   one lattice cell: explicit grad {grad[2, 1, 0]:.6f} vs FD {fd:.6f}")
