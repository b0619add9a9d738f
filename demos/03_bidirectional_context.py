"""How the bidirectional LSTM enriches patch descriptors with context.

One pass walks the patch sequence forward, the other backward; each output
is the concatenation of the two hidden states, so every patch descriptor
ends up depending on every other patch.
"""

import numpy as np

from mrscene import tensor as T
from mrscene.birnn import bidirectional_pass, lstm_cell, make_lstm_params
from mrscene.init import ParameterSet
from mrscene.tensor import Tensor

rng = np.random.default_rng(2)

d_in, hidden, length = 16, 32, 8
params = ParameterSet(seed=0, dtype=np.float64)
fwd = make_lstm_params(d_in, hidden, params, "demo.fwd")
bwd = make_lstm_params(d_in, hidden, params, "demo.bwd")
sequence = [Tensor(rng.normal(size=d_in), requires_grad=True) for _ in range(length)]

print("== single cell step ==")
h, c = lstm_cell(sequence[0], Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden)), fwd)
print(f"hidden {h.shape}, cell {c.shape}, |h| < 1 everywhere: {bool(np.all(np.abs(h.data) < 1))}")

print("\n== bidirectional pass ==")
outputs = bidirectional_pass(sequence, fwd, bwd)
print(f"{length} descriptors of width {outputs[0].shape[0]} (2 x {hidden})")

print("\n== information reaches every position ==")
for probe in (0, length // 2, length - 1):
    for x in sequence:
        x.zero_grad()
    T.sum_all(bidirectional_pass(sequence, fwd, bwd)[probe]).backward()
    reach = [float(np.abs(x.grad).max()) for x in sequence]
    pretty = " ".join(f"{v:.3f}" for v in reach)
    print(f"  d phi[{probe}] / d psi[s], max-abs per s: {pretty}")

print("\n== reversal symmetry ==")
base = bidirectional_pass(sequence, fwd, bwd)
flipped = bidirectional_pass(sequence[::-1], bwd, fwd)
exact = all(
    np.array_equal(
        base[r].data,
        np.concatenate([flipped[length - 1 - r].data[hidden:], flipped[length - 1 - r].data[:hidden]]),
    )
    for r in range(length)
)
print(f"reversed sequence + swapped directions reproduces outputs exactly: {exact}")
