"""
A tour of the autodiff core
===========================

Builds a small graph from the ops the model runs, runs reverse mode, and
cross-checks gradients against central finite differences.
"""

import numpy as np

from emgtcn.tensor import Tensor, causal_conv_block, linear
from emgtcn.train import cross_entropy

# a two-layer pipeline scored by cross-entropy over 6 time steps:
# loss = cross_entropy(linear(block(linear(x, W1, b1)), W2, b2), labels)
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
b1 = Tensor(np.zeros(3), requires_grad=True)
block = [Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True),
         Tensor(np.zeros(3), requires_grad=True),
         Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True),
         Tensor(np.zeros(3), requires_grad=True)]
w2 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
b2 = Tensor(np.zeros(2), requires_grad=True)
labels = rng.integers(0, 2, size=6)


def forward():
    hidden = causal_conv_block(linear(x, w1, b1), *block, dilation=2)
    return cross_entropy(linear(hidden, w2, b2), labels)


loss = forward()
tape = loss.backward()
print(f"loss = {float(loss.data):.6f}")
print("gradient shapes:", {n: t.grad.shape for n, t in
                           [("x", x), ("w1", w1), ("kernel1", block[0]), ("w2", w2)]})

# finite differences on a few coordinates of w1 and of the block's first kernel
h, bound = 1e-5, 1e-6
worst = 0.0
for param, coords in ((w1, (0, 7, 11)), (block[0], (0, 5, 17))):
    flat = param.data.reshape(-1)
    for c in coords:
        keep = flat[c]
        flat[c] = keep + h
        up = float(forward().data)
        flat[c] = keep - h
        down = float(forward().data)
        flat[c] = keep
        fd = (up - down) / (2 * h)
        an = param.grad.reshape(-1)[c]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-3))
print(f"worst relative error vs finite differences: {worst:.2e} (bound {bound:.0e})")
assert worst < bound, worst

# a second backward on the same tape is refused; reset() re-arms it
try:
    loss.backward()
except Exception as err:
    print(f"double backward rejected: {err}")
tape.reset()
loss2 = forward()
loss2.backward()
print(f"after reset, a fresh pass works: loss = {float(loss2.data):.6f}")
