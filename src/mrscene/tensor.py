"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable operation returns a new :class:`Tensor` that remembers
its inputs and a closure computing the local vector-Jacobian product.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``. An operation result drops its
gradient and closure once its own step has run, keeping its ``.data`` and
parents, so a second ``backward()`` through the spent graph raises
``UsageError``.
Inside ``with no_grad():`` no graph is recorded, which is how evaluation
runs the forward pass.

``run_shards`` splits a batch of large samples into two data-parallel
shards, one run by the caller and one by a reused worker thread, each on a
one-thread BLAS and each in a context of its own, whose gradient sink
collects that shard's leaf gradients. No op keeps state between calls, so
threads may run ops at once on tensors they do not share.

Two float precisions are supported: float32 (training, evaluation) and
float64 (gradient checking). The dtype of an operation's result follows
numpy promotion of its inputs.
"""

import contextvars
import ctypes
import functools
import os
import threading
from concurrent import futures
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError, UsageError

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Build no graph inside the block: results keep no parents or backward
    closures, so each intermediate is freed as soon as nothing uses it.
    The mode belongs to the current context, so a shard worker, which runs
    in a copy of its caller's context, inherits it."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """An n-dimensional array with optional gradient tracking.

    Attributes:
        data: the numpy value (float32 or float64).
        grad: accumulated gradient of the same shape, or None before any
            backward pass has reached this tensor.
        requires_grad: whether backward() should deposit a gradient here.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op="leaf"):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        if not _grad_enabled.get():
            requires_grad, _parents = False, ()
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = tuple(_parents)
        self._backward = _backward if self.requires_grad else None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        Each operation result's gradient and closure, with the buffers the
        closure saved, are dropped right after its step runs, so the pass
        holds only the gradients still to be propagated.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() needs a scalar, got shape {self.shape}")
        nodes = Graph.trace(self).nodes
        if any(n.requires_grad and n._parents and n._backward is None for n in nodes):
            raise UsageError("backward() through a graph that has already been back-propagated")
        self.grad = np.ones_like(self.data)
        for node in reversed(nodes):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self._op!r})"

    # Operator sugar. Scalars are coerced to this tensor's dtype so that
    # float32 graphs stay float32.
    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dtype))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


class Graph:
    """Topologically ordered record of the operations behind one result.

    ``nodes`` lists every tensor reachable from the root, parents before
    children, so a reverse sweep visits each operation after all of its
    consumers.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


# {leaf: stand-in} collecting the leaf gradients of the running shard
_sink = contextvars.ContextVar("grad_sink", default=None)


def _grad_home(t: Tensor) -> Tensor:
    """The tensor whose ``.grad`` collects t's gradient: t itself, or,
    inside a shard of ``run_shards``, a leaf's stand-in in the shard's
    gradient sink, so that the two shards never add into one parameter's
    gradient at once."""
    sink = _sink.get()
    if sink is None or t._parents:
        return t
    home = sink.get(t)
    if home is None:
        home = sink[t] = Tensor(t.data, requires_grad=True)
    return home


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g into t's gradient. An ``owned`` g is a fresh array of t's shape
    that nothing else holds: when t has no gradient yet and g has t's dtype,
    g becomes t.grad itself, with no zeroed copy."""
    if not t.requires_grad:
        return
    t = _grad_home(t)
    if t.grad is None and owned and g.dtype == t.dtype:
        t.grad = g
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _accumulate_at(t: Tensor, index, g: np.ndarray):
    """Add g into t's gradient at t.data[index] only, with no full-size
    temporary."""
    if not t.requires_grad:
        return
    t = _grad_home(t)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[index] += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape of a broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def _bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=_bw, _op="add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def _bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=_bw, _op="mul")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over leading axes like numpy.matmul.

    Backward accumulates g @ b^T into a and a^T @ g into b, summing over
    broadcast batch axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=_bw, _op="matmul")


def fc(x: Tensor, weight: Tensor, bias: Tensor = None) -> Tensor:
    """Fully connected layer y = x W^T (+ b) with W of shape (out, in).

    Leading axes of x are a stack of row vectors, one per sample; a 1-d
    input is a single row.
    """
    if weight.ndim != 2:
        raise ShapeError(f"fc weight must be a matrix, got {weight.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"fc input width {x.shape} does not match weight {weight.shape}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data

    def _bw(g):
        g2 = g.reshape(-1, weight.shape[0])
        if weight.requires_grad:
            _accumulate(weight, g2.T @ x.data.reshape(-1, weight.shape[1]))
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data).reshape(x.shape))
        if bias is not None:
            _accumulate(bias, g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out_data, _parents=parents, _backward=_bw, _op="fc")


# ---------------------------------------------------------------------------
# convolution and pooling


def _live_taps(k: int, size: int) -> tuple:
    """Kernel offsets [lo, hi) along one axis that reach the input for at
    least one output position, and the "same" padding pad that remains
    before offset lo: live tap i (offset lo + i) reads input position
    p + i - pad for output position p. An offset outside [lo, hi) only ever
    reads zero padding, so dropping it changes no output."""
    before = k // 2  # of k - 1 in all: an even kernel's extra row/column goes top/left
    lo, hi = max(0, before - size + 1), min(k, before + size)
    return lo, hi, before - lo


def _in_map(d: int, size: int, span: int) -> tuple:
    """Along one axis, the window positions q < span whose tap at offset d
    reads inside the map (0 <= q + d < size), and the input positions
    q + d."""
    lo = max(0, -d)
    hi = max(lo, min(span, size - d))
    return slice(lo, hi), slice(lo + d, hi + d)


_BAND_BYTES = 4 << 20  # conv2d's patch-matrix budget per band of one call


def _band_buffer(nbytes: int) -> np.ndarray:
    """Uninitialised bytes for one conv2d pass's patch-matrix bands."""
    return np.empty(nbytes, np.uint8)


def _pool2(full: np.ndarray, out: np.ndarray, win: np.ndarray):
    """2x2 max pooling of a (C, r, 2, w2, 2, N) band of windows into
    ``out`` (C, r, w2, N), and into ``win`` the row-major tap 0..3 of each
    window's first maximum. A NaN tap makes its window's maximum NaN."""
    q00, q01, q10, q11 = (full[:, :, i, :, j] for i in (0, 1) for j in (0, 1))
    top = np.maximum(q00, q01)
    np.maximum(q10, q11, out=out)
    lower = np.greater(out, top)  # a tie goes to the top row
    np.maximum(top, out, out=out)
    right = np.greater(q01, q00)
    right_lower = np.greater(q11, q10)
    right_lower ^= right
    right_lower &= lower
    right ^= right_lower  # the right tap of whichever row won
    np.add(lower, lower, out=win, dtype=np.uint8)
    win += right


def _unpool2(g: np.ndarray, win: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Route each pooled gradient of g (C, r, w2, N) to its window's winning
    tap in ``full`` (C, r, 2, w2, 2, N) and zero the other three taps (NaN
    where g is NaN); returns ``full`` as a (C, r*2*w2*2*N) matrix."""
    for q in range(4):
        np.multiply(g, win == q, out=full[:, :, q // 2, :, q % 2])
    return full.reshape(full.shape[0], -1)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, pool: bool = False) -> Tensor:
    """ReLU of a 2-d cross-correlation with stride 1 and "same" zero
    padding, optionally followed by 2x2 max pooling with stride 2.

    x: (N, Cin, H, W); kernels: (Cout, Cin, kh, kw); bias: (Cout,). Output
    spatial size equals input spatial size, or (H // 2, W // 2) with
    ``pool``: a trailing odd row/column is dropped, so the convolution
    computes only the 2*(H // 2) x 2*(W // 2) outputs the pool reads. Even
    kernels pad one extra row/column on the top/left.

    The batch axis runs innermost inside: the input is read as a
    (Cin, H, W, N) array, a view when it is already stored that way (a
    conv2d result), so each im2col tap copy and each col2im add moves
    contiguous runs of W*N values, and the (Cout, H, W, N) result is
    returned as an (N, Cout, H, W) view. No padded copy is made: each tap
    copies its in-map block and zeroes the border strips that would read
    padding, and the backward adds each tap's in-map block straight into
    the unpadded input gradient. Kernel rows and columns that only ever see
    padding (a kernel larger than its map) are skipped.

    The im2col matrix is never built whole. The output is walked in bands
    of whole output rows, as many as fit ``_BAND_BYTES`` of patch matrix,
    the budget of one call on any thread, and at least one (an even number,
    at least two, when pooling, so that bands hold whole windows). The
    forward and the backward each allocate
    one byte buffer that fits the largest band and build each band's matrix
    in it over the previous band's; neither buffer outlives its pass, so
    conv2d keeps no state between calls. The forward multiplies each band
    straight into its rows of the output; a pooled band goes into one
    full-resolution band buffer, is pooled from there while it is still in
    cache, and only the pooled rows and a uint8 index of each window's
    first (row-major) maximum are kept. Bias and ReLU then go on the kept
    rows: both are monotone, so adding them after the maximum gives the
    same values on a quarter of the elements. The backward rebuilds each
    band's matrix for its share of the kernel gradient, then overwrites it
    with the band's patch-matrix gradient and adds that into the input
    gradient; a pooled band first rebuilds its full-resolution gradient,
    the pooled gradient at each winning tap and zero elsewhere, in one
    reused band buffer. The ReLU mask is applied to the incoming gradient
    in place, which the engine allows because each node owns its gradient
    and drops it after its step.
    """
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d kernels must be 4-d, got {kernels.shape}")
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N,Cin,H,W), got {x.shape}")
    n, cin, h, w = x.shape
    cout, ck, kh, kw = kernels.shape
    if ck != cin:
        raise ShapeError(f"conv2d channels disagree: input {x.shape} vs kernels {kernels.shape}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must be ({cout},), got {bias.shape}")
    if kh < 1 or kw < 1 or h < 1 or w < 1:
        raise ShapeError(f"conv2d kernel {kernels.shape} does not fit padded input {x.shape}")
    if pool and (h < 2 or w < 2):
        raise ShapeError(f"conv2d pooling needs spatial size >= 2, got {x.shape}")
    i0, i1, pt = _live_taps(kh, h)
    j0, j1, pl = _live_taps(kw, w)
    th, tw = i1 - i0, j1 - j0
    s = 2 if pool else 1  # pooling stride
    hc, wc = h - h % s, w - w % s  # the outputs computed
    xt = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))
    rows = _BAND_BYTES // (cin * th * tw * wc * n * x.dtype.itemsize)
    rows = max(s, rows - rows % s)  # a pooled band holds whole windows
    bands = [(y0, min(y0 + rows, hc)) for y0 in range(0, hc, rows)]

    def taps(y0, y1):
        """Per live tap (i, j) and the output rows [y0, y1): its in-map
        output rows (counted from y0) and columns, and the input rows and
        columns they read."""
        for i in range(th):
            ys, yr = _in_map(y0 + i - pt, h, y1 - y0)
            for j in range(tw):
                xs, xr = _in_map(j - pl, w, wc)
                yield i, j, ys, xs, yr, xr

    def im2col(buf, y0, y1):
        cols = buf.view(x.dtype)[: cin * th * tw * (y1 - y0) * wc * n]
        cols = cols.reshape(cin, th, tw, y1 - y0, wc, n)
        for i, j, ys, xs, yr, xr in taps(y0, y1):
            tap = cols[:, i, j]
            tap[:, : ys.start] = 0
            tap[:, ys.stop :] = 0
            tap[:, ys, : xs.start] = 0
            tap[:, ys, xs.stop :] = 0
            tap[:, ys, xs] = xt[:, yr, xr]
        return cols.reshape(cin * th * tw, (y1 - y0) * wc * n)

    def windows(buf, y0, y1):
        """The first rows of a flat band buffer as the band's 2x2 windows."""
        return buf[: cout * (y1 - y0) * wc * n].reshape(cout, (y1 - y0) // 2, 2, wc // 2, 2, n)

    kmat = kernels.data[:, :, i0:i1, j0:j1].reshape(cout, cin * th * tw)
    dtype = np.result_type(kmat, x.data)
    out = np.empty((cout, hc // s, wc // s, n), dtype)
    win = np.empty(out.shape, np.uint8) if pool else None
    band_len = cout * min(rows, hc) * wc * n  # one full-resolution band of output
    full = np.empty(band_len, dtype) if pool else None
    # one band of patch matrix, in the forward's dtype or the backward's
    cols_bytes = cin * th * tw * min(rows, hc) * wc * n * max(x.dtype.itemsize, dtype.itemsize)
    buf = _band_buffer(cols_bytes)
    for y0, y1 in bands:
        band = out[:, y0 // s : y1 // s]  # a view: each channel's rows are contiguous
        if pool:
            prod = windows(full, y0, y1)
            np.matmul(kmat, im2col(buf, y0, y1), out=prod.reshape(cout, -1))
            _pool2(prod, band, win[:, y0 // 2 : y1 // 2])
        else:
            np.matmul(kmat, im2col(buf, y0, y1), out=band.reshape(cout, -1))
        band = band.reshape(cout, -1)
        band += bias.data[:, None]
        np.maximum(band, 0, out=band)

    def _bw(g):
        gt = g.transpose(1, 2, 3, 0)
        gt *= out > 0
        g2 = gt.reshape(cout, -1)
        _accumulate(bias, g2.sum(axis=1))
        gk = 0
        gx = np.zeros((cin, h, w, n), dtype=x.dtype) if x.requires_grad else None
        gfull = np.empty(band_len, g2.dtype) if pool else None
        cols = _band_buffer(cols_bytes)  # not the forward's: a node holds no band until backward
        row = out.shape[2] * n  # g2 columns per output row
        for y0, y1 in bands:
            gb = g2[:, y0 // s * row : y1 // s * row]
            if pool:
                gb = _unpool2(gb.reshape(cout, -1, wc // 2, n), win[:, y0 // 2 : y1 // 2], windows(gfull, y0, y1))
            if kernels.requires_grad:
                gk = gk + gb @ im2col(cols, y0, y1).T
            if gx is not None:
                gcols = cols.view(g2.dtype)[: cin * th * tw * gb.shape[1]].reshape(cin * th * tw, -1)
                gcols = np.matmul(kmat.T, gb, out=gcols).reshape(cin, th, tw, y1 - y0, wc, n)
                for i, j, ys, xs, yr, xr in taps(y0, y1):
                    gx[:, yr, xr] += gcols[:, i, j, ys, xs]
        if kernels.requires_grad:
            gk = gk.reshape(cout, cin, th, tw)
            if (th, tw) != (kh, kw):
                gk = np.pad(gk, ((0, 0), (0, 0), (i0, kh - i1), (j0, kw - j1)))
            _accumulate(kernels, gk, owned=True)
        if gx is not None:
            _accumulate(x, gx.transpose(3, 0, 1, 2), owned=True)

    return Tensor(out.transpose(3, 0, 1, 2), _parents=(x, kernels, bias), _backward=_bw, _op="conv2d")


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    out_data = np.maximum(x.data, 0)

    def _bw(g):
        _accumulate(x, g * (x.data > 0))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="relu")


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def _bw(g):
        _accumulate(x, g * (1 - out_data * out_data))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="tanh")


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def _bw(g):
        _accumulate(x, g * out_data * (1 - out_data))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="sigmoid")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never
    # overflows; max(e, z >= 0) picks the numerator without a masked copy
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1 + e)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, independently per row."""
    if x.ndim < 2:
        raise ShapeError(f"softmax_rows needs at least 2 dimensions, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(x, out_data * (g - dot))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="softmax_rows")


# ---------------------------------------------------------------------------
# shape manipulation


def concat(parts, axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat needs at least one part")
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes disagree: {[p.shape for p in parts]}") from exc
    ax = axis if axis >= 0 else out_data.ndim + axis
    offsets = np.cumsum([p.shape[ax] for p in parts])[:-1]

    def _bw(g):
        for part, piece in zip(parts, np.split(g, offsets, axis=ax)):
            _accumulate(part, piece)

    return Tensor(out_data, _parents=tuple(parts), _backward=_bw, _op="concat")


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def _bw(g):
        _accumulate(x, g.reshape(x.shape))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="reshape")


def transpose(x: Tensor, axes) -> Tensor:
    """Permute the axes of x; ``axes`` is a full permutation, as in np.transpose."""
    out_data = np.transpose(x.data, axes)

    def _bw(g):
        _accumulate(x, np.transpose(g, np.argsort(axes)))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="transpose")


def swap_last_axes(x: Tensor) -> Tensor:
    """Transpose the last two axes (matrix transpose, batched)."""
    return transpose(x, (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2))


def stack(parts) -> Tensor:
    """Stack equally shaped tensors along a new first axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("stack needs at least one part")
    try:
        out_data = np.stack([p.data for p in parts])
    except ValueError as exc:
        raise ShapeError(f"stack shapes disagree: {[p.shape for p in parts]}") from exc

    def _bw(g):
        for part, piece in zip(parts, g):
            _accumulate(part, piece)

    return Tensor(out_data, _parents=tuple(parts), _backward=_bw, _op="stack")


def unstack(x: Tensor) -> list:
    """The slices x[0], x[1], ... along the first axis, one node each."""

    def row(r):
        def _bw(g):
            _accumulate_at(x, r, g)

        return Tensor(x.data[r], _parents=(x,), _backward=_bw, _op="unstack")

    return [row(r) for r in range(x.shape[0])]


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the first axis."""
    out_data = x.data[start:stop]

    def _bw(g):
        _accumulate_at(x, slice(start, stop), g)

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="slice_rows")


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Tensor) -> Tensor:
    def _bw(g):
        _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return Tensor(np.asarray(x.data.sum(), dtype=x.dtype), _parents=(x,), _backward=_bw, _op="sum")


def mean_all(x: Tensor) -> Tensor:
    scale = 1.0 / x.size

    def _bw(g):
        _accumulate(x, np.broadcast_to(g * scale, x.shape).astype(x.dtype, copy=True))

    return Tensor(np.asarray(x.data.mean(), dtype=x.dtype), _parents=(x,), _backward=_bw, _op="mean")


# ---------------------------------------------------------------------------
# data-parallel shards

# Values per sample (all bands of all subsets) below which a batch runs
# unsharded. Measured at batch 8 on 2 vCPUs with the default branches on
# inputs scaled from `tiny`: a `tiny` step (3,200 values a sample) is mostly
# Python-level work, which the interpreter lock serialises, and took 24 ms
# sharded against 15 ms; 12,800 values broke even; 28,800 gained 9% (faster
# in 11 of 12 rounds) and a BigEarthNet-shaped step (80,000) 15-20%.
_SHARD_MIN_VALUES = 20_000
_running = threading.Lock()  # held by the one sharded call that may run at a time


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None when numpy's BLAS exports no such pair. The count is one for the
    whole process, not per thread."""
    try:  # the symbol lookups of numpy's extension module reach the BLAS it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _shard_worker() -> futures.ThreadPoolExecutor:
    """The one worker thread, made on first use. Before it exists, glibc is
    told to serve every thread from its main malloc arena: an arena of the
    worker's own would hold its freed blocks apart and raise peak RSS."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        pass
    else:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-8, 1)  # M_ARENA_MAX
    return futures.ThreadPoolExecutor(1, thread_name_prefix="mrscene-shard")


def _shard(task, lo: int, hi: int):
    """task(lo, hi) with the leaf gradients it makes sent to a fresh sink;
    returns its result and the sink. Run it in a context of its own: the
    sink stays set in that context."""
    sink = {}
    _sink.set(sink)
    return task(lo, hi), sink


def run_shards(task, n: int, values_per_item: int) -> list:
    """Run ``task(lo, hi)`` over items [0, n) and return its results in item
    order: ``[task(0, n)]``, or one result per shard.

    A batch of at least two items of at least ``_SHARD_MIN_VALUES`` values
    each, in a process that may use two CPUs, is split in two. This thread
    runs ``task(0, h)``, h = ceil(n / 2), while the reused worker thread
    runs ``task(h, n)``. Each shard runs in its own copy of this thread's
    context, so both inherit its grad mode and numpy error state, and each
    has a gradient sink of its own: the gradients a shard adds into leaf
    tensors (the parameters) go to stand-ins there. No op knows of the
    split: a task weights its mean by its share of n. OpenBLAS is held at
    one thread for the whole call, so each shard's GEMMs run on its own
    core. This thread waits for the worker before it restores the BLAS
    thread count, even when its own shard raises; then an exception of its
    own shard, or else one of the worker's, is re-raised. Once both are
    done, this shard's sink and then the worker's are added into the
    leaves' ``.grad``: each leaf's gradient is the same sum in every run.

    One sharded call runs at a time: a call made while another is running,
    from one of its shards or from any other thread, runs whole, as it also
    does without the OpenBLAS thread calls, where two threads would
    oversubscribe the cores.
    """
    blas = _blas_threads()
    if (n < 2 or values_per_item < _SHARD_MIN_VALUES or _usable_cpus() < 2 or blas is None
            or not _running.acquire(blocking=False)):
        return [task(0, n)]
    h = (n + 1) // 2
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        job = _shard_worker().submit(contextvars.copy_context().run, _shard, task, h, n)
        try:
            first, own = contextvars.copy_context().run(_shard, task, 0, h)
        finally:
            futures.wait((job,))
        second, theirs = job.result()
    finally:
        set_threads(threads)
        _running.release()
    for sink in (own, theirs):
        for leaf, home in sink.items():
            if home.grad is not None:
                _accumulate(leaf, home.grad, owned=True)
    return [first, second]
