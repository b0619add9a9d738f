"""Float64 reference forward pass, written apart from ``mrscene.tensor``.

It follows the model description, not the program's kernels: patches
are cut per sample, convolutions are sliding-window sums with "same"
zero padding (an even kernel pads its extra row/column on the top/left),
2x2 max pooling drops a trailing odd row/column, and the LSTM, attention
and head are the textbook equations. Parameters come in as a plain
``name -> array`` mapping, so the reference shares no state with a model.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def conv_same(x, kernels, bias):
    """(N, Cin, H, W) cross-correlated with (Cout, Cin, k, k) -> (N, Cout, H, W)."""
    k = kernels.shape[-1]
    before, after = k // 2, (k - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (before, after), (before, after)))
    windows = sliding_window_view(xpad, (k, k), axis=(2, 3))  # (N, Cin, H, W, k, k)
    out = np.tensordot(windows, kernels, axes=([1, 4, 5], [1, 2, 3]))  # (N, H, W, Cout)
    return out.transpose(0, 3, 1, 2) + bias[None, :, None, None]


def maxpool_2x2(x):
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    return x[:, :, : 2 * h2, : 2 * w2].reshape(n, c, h2, 2, w2, 2).max(axis=(3, 5))


def patches(subset, grid):
    """(bands, H, W) -> (grid*grid, bands, H/grid, W/grid), row-major cells."""
    bands, h, w = subset.shape
    ph, pw = h // grid, w // grid
    return np.stack([
        subset[:, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw]
        for i in range(grid) for j in range(grid)
    ])


def lstm_direction(xs, p, prefix, reverse):
    hidden = p[f"{prefix}.W_f"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for r in order:
        x = xs[r]

        def gate(g):
            return p[f"{prefix}.W_{g}"] @ x + p[f"{prefix}.U_{g}"] @ h + p[f"{prefix}.b_{g}"]

        f, i, o = expit(gate("f")), expit(gate("i")), expit(gate("o"))
        c = f * c + i * np.tanh(gate("c"))
        h = o * np.tanh(c)
        states[r] = h
    return states


def forward_one(subsets, params, config):
    """Logits (C,) of one sample.

    ``subsets``: one (bands, H, W) array per resolution group.
    ``params``: parameter name -> array, promoted to float64 here.
    ``config``: the model's ``ModelConfig`` (shared LSTM parameters only).
    """
    if config.per_position_lstm:
        raise ValueError("the reference covers the shared-parameter LSTM only")
    p = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
    branch_outs = []
    for k, spec in enumerate(config.branches):
        x = patches(np.asarray(subsets[k], dtype=np.float64), config.grid)
        for i, layer in enumerate(spec.layers):
            x = np.maximum(conv_same(x, p[f"branch{k}.conv{i}.kernels"], p[f"branch{k}.conv{i}.bias"]), 0.0)
            if layer.pool:
                x = maxpool_2x2(x)
        flat = x.reshape(x.shape[0], -1)
        branch_outs.append(np.maximum(flat @ p[f"branch{k}.fc.weight"].T + p[f"branch{k}.fc.bias"], 0.0))
    descriptors = np.concatenate(branch_outs, axis=1) @ p["fusion.weight"].T + p["fusion.bias"]  # (R, d)
    fwd = lstm_direction(descriptors, p, "lstm.fwd", reverse=False)
    bwd = lstm_direction(descriptors, p, "lstm.bwd", reverse=True)
    omega = np.stack([np.concatenate([hf, hb]) for hf, hb in zip(fwd, bwd)], axis=1)  # (2H, R)
    z = p["attention.heads"] @ np.tanh(p["attention.hidden"] @ omega)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    scores = e / e.sum(axis=1, keepdims=True)  # (T, R)
    pooled = np.maximum(omega @ scores.T, 0.0)  # (2H, T)
    vec = pooled.T.reshape(-1)  # column-major: column t is contiguous
    return p["classifier.weight"] @ vec + p["classifier.bias"]


def posteriors(samples, params, config):
    """Float64 posteriors (n, C) of a list of samples."""
    return np.stack([expit(forward_one(s.subsets, params, config)) for s in samples])
