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
logits = Tensor(rng.standard_normal((1, 5, 3)))  # a batch of one: 5 frames, 2 words + blank
labels = [[0, 1]]
err = ad.grad_check(lambda: ctc.ctc_loss(ad.log_softmax(logits, axis=2), [5], labels), [logits])
loss = ctc.ctc_loss(ad.log_softmax(logits, axis=2), [5], labels)
print(f"   -log P(labels) = {float(loss.values):.4f}; grad vs FD: {err:.2e}")

print("\n== the segmental loss marginalizes over segmentations instead")
grid = segmental.segment_grid([6], 3)  # 6 frames, segments of up to 3: (1, T, S) map to packed rows
rows = Tensor(rng.standard_normal((int((grid >= 0).sum()), 2)))  # one score row per segment, 2 words
lattice = segmental.ScoreTensor(rows, grid)
err = ad.grad_check(lambda: segmental.seg_loss(lattice, [[0, 1]]), [rows])
loss = segmental.seg_loss(lattice, [[0, 1]])
path = segmental.viterbi_decode(lattice)[0]
path_score = sum(rows.values[grid[0, t, s - 1], v] for t, s, v in path.segments)
print(f"   marginal loss {float(loss.values):.4f}; grad vs FD: {err:.2e}")
print(f"   best path (start, length, word) {path.segments} scoring {path_score:.3f}")
