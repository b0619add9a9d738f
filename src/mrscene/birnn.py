"""Bidirectional LSTM over the patch sequence.

One pass walks the patches in row-major order, the other in reverse; each
patch descriptor is replaced by the concatenation of the two hidden states
so that it reflects the neighbourhoods on both sides.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError, UsageError
from .init import ParameterSet
from .tensor import Tensor, _accumulate, _sigmoid


@dataclass
class LstmParams:
    """Gate parameters of one direction: input weights W_* (hidden x d_in),
    recurrent weights U_* (hidden x hidden), biases b_* (hidden)."""

    W_f: Tensor
    W_i: Tensor
    W_o: Tensor
    W_c: Tensor
    U_f: Tensor
    U_i: Tensor
    U_o: Tensor
    U_c: Tensor
    b_f: Tensor
    b_i: Tensor
    b_o: Tensor
    b_c: Tensor

    @property
    def hidden(self) -> int:
        return self.W_f.shape[0]


def make_lstm_params(d_in: int, hidden: int, params: ParameterSet, prefix: str) -> LstmParams:
    shapes = {"W": (hidden, d_in), "U": (hidden, hidden), "b": (hidden,)}
    return LstmParams(**{f"{kind}_{gate}": params.new(f"{prefix}.{kind}_{gate}", shapes[kind])
                         for gate in "fioc" for kind in "WUb"})


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams) -> tuple:
    """One LSTM step.

    forget = sigm(W_f x + U_f h + b_f), input and output gates likewise;
    cell   = forget * c_prev + input * tanh(W_c x + U_c h + b_c);
    hidden = output * tanh(cell).
    """
    f = T.sigmoid(T.fc(x, p.W_f, p.b_f) + T.fc(h_prev, p.U_f))
    i = T.sigmoid(T.fc(x, p.W_i, p.b_i) + T.fc(h_prev, p.U_i))
    o = T.sigmoid(T.fc(x, p.W_o, p.b_o) + T.fc(h_prev, p.U_o))
    c = f * c_prev + i * T.tanh(T.fc(x, p.W_c, p.b_c) + T.fc(h_prev, p.U_c))
    h = o * T.tanh(c)
    return h, c


def lstm_sequence(x: Tensor, p: LstmParams, reverse: bool = False) -> Tensor:
    """Every step of one direction as a single graph node.

    x: (R, ..., d_in), a sequence of R descriptors or descriptor batches;
    returns the hidden states (R, ..., hidden). Hidden and cell states start
    at zero. ``reverse`` walks r = R-1 .. 0: it flips the sequence, runs the
    same forward recurrence and flips the result back.

    The gates are stacked in the order f, i, o, c, so the input projection
    of all R steps is one (R*B, d_in) x (d_in, 4*hidden) GEMM (Appleyard et
    al. 2016) and each step adds one (B, hidden) x (hidden, 4*hidden)
    product. The backward walks the steps in reverse and then forms the
    weight and input gradients as GEMMs over all steps at once.
    """
    if x.ndim < 2 or x.shape[-1] != p.W_f.shape[1]:
        raise ShapeError(f"lstm_sequence input {x.shape} does not match W_f {p.W_f.shape}")
    n, d, hidden = x.shape[0], x.shape[-1], p.hidden
    if n == 0:
        raise ShapeError(f"lstm_sequence needs at least one step, got {x.shape}")
    leaves = [getattr(p, f"{kind}_{gate}") for kind in "WUb" for gate in "fioc"]
    W, U, b = (np.concatenate([t.data for t in leaves[k : k + 4]]) for k in (0, 4, 8))
    xs = np.ascontiguousarray(x.data[::-1] if reverse else x.data).reshape(n, -1, d)
    batch = xs.shape[1]
    sig = 3 * hidden  # f, i, o take a sigmoid, the candidate c a tanh

    # acts holds the pre-activations, then in place the gate activations
    acts = (xs.reshape(-1, d) @ W.T + b).reshape(n, batch, 4 * hidden)
    f, i, o, cand = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    c = np.empty((n, batch, hidden), dtype=acts.dtype)
    tanh_c = np.empty_like(c)
    h = np.empty_like(c)
    for r in range(n):
        a = acts[r]
        if r:
            a += h[r - 1] @ U.T
        a[:, :sig] = _sigmoid(a[:, :sig])
        np.tanh(a[:, sig:], out=a[:, sig:])
        np.multiply(i[r], cand[r], out=c[r])
        if r:
            c[r] += f[r] * c[r - 1]
        np.tanh(c[r], out=tanh_c[r])
        np.multiply(o[r], tanh_c[r], out=h[r])

    def _bw(grad):
        gh = np.ascontiguousarray(grad[::-1] if reverse else grad).reshape(n, batch, hidden)
        # derivative of each gate's nonlinearity, written in its output
        local = np.empty_like(acts)
        local[..., :sig] = acts[..., :sig] * (1 - acts[..., :sig])
        local[..., sig:] = 1 - cand * cand
        dc_dh = o * (1 - tanh_c * tanh_c)  # h = o * tanh(c)
        dacts = np.empty_like(acts)
        for r in range(n - 1, -1, -1):
            if r == n - 1:
                dh = gh[r]
                dc = dh * dc_dh[r]
            else:
                dh = gh[r] + dacts[r + 1] @ U
                dc = dh * dc_dh[r] + dc * f[r + 1]
            da = dacts[r]
            if r:
                np.multiply(dc, c[r - 1], out=da[:, :hidden])
            else:
                da[:, :hidden] = 0
            np.multiply(dc, cand[r], out=da[:, hidden : 2 * hidden])
            np.multiply(dh, tanh_c[r], out=da[:, 2 * hidden : sig])
            np.multiply(dc, i[r], out=da[:, sig:])
            da *= local[r]
        dz = dacts.reshape(-1, 4 * hidden)
        grads = (
            dz.T @ xs.reshape(-1, d),
            dacts[1:].reshape(-1, 4 * hidden).T @ h[:-1].reshape(-1, hidden),
            dz.sum(axis=0),
        )
        for k, leaf in enumerate(leaves):
            kind, gate = divmod(k, 4)
            _accumulate(leaf, grads[kind][gate * hidden : (gate + 1) * hidden])
        if x.requires_grad:
            dx = (dz @ W).reshape(n, -1, d)
            _accumulate(x, (dx[::-1] if reverse else dx).reshape(x.shape))

    out_data = (h[::-1] if reverse else h).reshape(x.shape[:-1] + (hidden,))
    return Tensor(out_data, _parents=(x, *leaves), _backward=_bw, _op="lstm_sequence")


def bidirectional_sequence(x: Tensor, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """Both directions over x (R, ..., d_in), each from zero hidden and cell
    states, concatenated: row r of the (R, ..., 2*hidden) result is
    [h_forward_r ; h_backward_r]."""
    return T.concat([lstm_sequence(x, fwd), lstm_sequence(x, bwd, reverse=True)], axis=-1)


def bidirectional_pass(descriptors, fwd: LstmParams, bwd: LstmParams) -> list:
    """List form of :func:`bidirectional_sequence`: ``descriptors`` is a
    sequence of tensors (d_in,) or batched (B, d_in), and element r of the
    result is [h_forward_r ; h_backward_r]."""
    descriptors = list(descriptors)
    if not descriptors:
        raise UsageError("bidirectional_pass needs at least one descriptor")
    return T.unstack(bidirectional_sequence(T.stack(descriptors), fwd, bwd))
