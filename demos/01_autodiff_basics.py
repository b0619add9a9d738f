"""A tour of the autodiff engine: build a graph, run backward, verify.

Every math operation returns a Tensor that remembers its inputs; calling
backward() on a scalar fills .grad on everything that asked for it. The
finite-difference checker at the end is the same oracle the test suite
and the `mrscene gradcheck` command use.
"""

import numpy as np

from mrscene import tensor as T
from mrscene.gradcheck import numeric_gradient, relative_error
from mrscene.tensor import Tensor

rng = np.random.default_rng(0)

print("== forward/backward on a small expression ==")
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
y = T.tanh(T.matmul(x, w))
loss = T.mean_all(T.mul(y, y))
print(f"x{x.shape} @ w{w.shape} -> tanh -> mean of squares = {loss.item():.6f}")

loss.backward()
print(f"dloss/dw:\n{w.grad}")

print("\n== gradient accumulates across fan-out ==")
a = Tensor(np.array(3.0), requires_grad=True)
(a + a).backward()
print(f"d(a+a)/da = {a.grad} (two paths, one tensor)")

print("\n== convolution with 'same' zero padding ==")
# conv2d takes batches (N, C, H, W); here a batch of one image.
# conv2d includes its ReLU: every output is max(0, correlation + bias)
image = Tensor(np.ones((1, 1, 3, 3), np.float32))
kernel = Tensor(np.ones((1, 1, 3, 3), np.float32))
out = T.conv2d(image, kernel, Tensor(np.zeros(1, np.float32)))
print("all-ones 3x3 image, all-ones 3x3 kernel counts its neighbourhood:")
print(out.data[0, 0])

print("\n== max pooling keeps spatial floor semantics ==")
# pool=True adds 2x2 max pooling with stride 2 after the ReLU
tall = Tensor(rng.normal(size=(2, 4, 15, 15)))
kernels4 = Tensor(rng.normal(size=(4, 4, 3, 3)))
pooled = T.conv2d(tall, kernels4, Tensor(np.zeros(4)), pool=True)
print(f"15x15 pools to {pooled.shape[-2:]} (odd row/column dropped)")

print("\n== analytic vs numeric gradients ==")
x64 = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
k64 = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
b64 = Tensor(rng.normal(size=3), requires_grad=True)
mix = Tensor(rng.normal(size=(2, 3, 6, 6)))


def loss_fn():
    return T.sum_all(T.mul(T.conv2d(x64, k64, b64), mix))


loss_fn().backward()
for name, leaf in (("input", x64), ("kernels", k64), ("bias", b64)):
    numeric = numeric_gradient(lambda: loss_fn().item(), leaf)
    err = relative_error(leaf.grad, numeric)
    print(f"  conv2d d/d{name}: max rel err {err:.2e}")
