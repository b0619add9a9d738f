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

``run_shards`` splits every batch of large samples into two data-parallel
shards, each in a context of its own, whose gradient sink collects that
shard's leaf gradients. With two CPUs the caller and a reused worker thread
run them at once, each on a one-thread BLAS; otherwise the caller runs them
in turn. No op keeps state between calls, so threads may run ops at once on
tensors they do not share.

Two float precisions are supported: float32 (training, evaluation) and
float64 (gradient checking). The dtype of an operation's result follows
numpy promotion of its inputs.
"""

import contextvars
import ctypes
import functools
import math
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


# {leaf: gradient array} collecting the leaf gradients of the running shard
_sink = contextvars.ContextVar("grad_sink", default=None)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False, index=None):
    """Add g into t's gradient, or with ``index`` into its entries at
    t.data[index] only, with no full-size temporary. Inside a shard of
    ``run_shards`` a leaf's gradient goes to the shard's sink instead of
    ``.grad``, so that the two shards never add into one parameter's
    gradient at once. An ``owned`` g is a fresh array of t's shape that
    nothing else holds: when t has no gradient yet and g has t's dtype, g
    becomes the gradient itself, with no zeroed copy."""
    if not t.requires_grad:
        return
    sink = None if t._parents else _sink.get()
    grad = t.grad if sink is None else sink.get(t)
    if grad is None and owned and g.dtype == t.dtype:
        grad = g
    else:
        if grad is None:
            grad = np.zeros_like(t.data)
        if index is None:
            grad += g
        else:
            grad[index] += g
    if sink is None:
        t.grad = grad
    else:
        sink[t] = grad


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


_BAND_BYTES = 4 << 20  # the budget of all of one conv2d pass's band buffers


def _band_buffer(nbytes: int) -> np.ndarray:
    """Uninitialised bytes for the band buffers of one conv2d pass."""
    return np.empty(nbytes, np.uint8)


def _bands(hc: int, s: int, dtype, shapes):
    """Bands over hc output rows as (y0, y1, views): the arrays of the band
    [y0, y1), of the shapes that ``shapes(rows)`` gives for a band of that
    many rows, laid end to end in one byte buffer, allocated once for the
    largest band. Bands take as many rows as keep that band's arrays
    within ``_BAND_BYTES``, a multiple of s and at least s."""
    nbytes = lambda rows: sum(math.prod(shape) for shape in shapes(rows)) * dtype.itemsize
    fixed = nbytes(0)
    rows = min(hc, max(s, (_BAND_BYTES - fixed) // (nbytes(1) - fixed) // s * s))
    buf = _band_buffer(nbytes(rows))
    for y0 in range(0, hc, rows):
        y1 = min(y0 + rows, hc)
        views, at = [], 0
        for shape in shapes(y1 - y0):
            size = math.prod(shape) * dtype.itemsize
            views.append(buf[at : at + size].view(dtype).reshape(shape))
            at += size
        yield y0, y1, views


def _rows(a: np.ndarray, y0: int, y1: int) -> np.ndarray:
    """Rows [y0, y1) of a (C, H, W, N) map as a (rows, C, W, N) view."""
    return a[:, y0:y1].transpose(1, 0, 2, 3)


def _fill_windows(xw: np.ndarray, src: np.ndarray, r0: int, pl: int):
    """Fill xw (m, C, tw, wc, N) from the rows r0 .. r0 + m - 1 of src
    (C, H, W, N), shifted by j - pl columns at tap j:
    ``xw[q, :, j, p] = src[:, r0 + q, p + j - pl]``, or zero where that lies
    outside src."""
    m, _, tw, wc, _ = xw.shape
    qs, rs = _in_map(r0, src.shape[1], m)
    xw[: qs.start] = 0
    xw[qs.stop :] = 0
    rows = _rows(src, rs.start, rs.stop)
    for j in range(tw):
        ps, cs = _in_map(j - pl, src.shape[2], wc)
        tap = xw[qs, :, j]
        tap[:, :, : ps.start] = 0
        tap[:, :, ps.stop :] = 0
        tap[:, :, ps] = rows[:, :, cs]


def _add_windows(gx: np.ndarray, gxw: np.ndarray, r0: int, pl: int):
    """The adjoint of ``_fill_windows``: add every in-map entry of gxw
    (m, C, tw, wc, N) into the entry of gx (C, H, W, N) it was copied from,
    one pass per column shift."""
    m, _, tw, wc, _ = gxw.shape
    qs, rs = _in_map(r0, gx.shape[1], m)
    rows = _rows(gx, rs.start, rs.stop)
    for j in range(tw):
        ps, cs = _in_map(j - pl, gx.shape[2], wc)
        rows[:, :, cs] += gxw[qs, :, j, ps]


def _row_windows(xw: np.ndarray, rows: int, th: int) -> np.ndarray:
    """The patch matrices of output rows 0 .. rows - 1 as one read-only
    (rows, th*C*tw, wc*N) stack of overlapping views into xw
    (rows + th - 1, C, tw, wc, N): row y's is the contiguous block
    ``xw[y : y + th]``, its rows ordered (i, c, j)."""
    _, c, tw, wc, n = xw.shape
    return np.lib.stride_tricks.as_strided(
        xw, (rows, th * c * tw, wc * n), (xw.strides[0], xw.strides[2], xw.itemsize), writeable=False)


def _correlate(src: np.ndarray, kmat: np.ndarray, taps: tuple, out: np.ndarray, bias=None, which=None):
    """Band by band, the stride-1 correlation of src (C, H, W, N) with kmat
    (Cout, th*C*tw), ordered (i, c, j), into out (Cout, H, W, N): output row
    y is kmat times the patch matrix of src rows y - pt .. y - pt + th - 1,
    shifted by j - pl columns at live tap j, where taps = (th, tw, pt, pl).
    The product is written through a strided view straight into out's rows.

    With ``which``, out is (Cout, H // 2, W // 2, N): the 2*(H // 2) x
    2*(W // 2) outputs are computed, band by band, into a full-resolution
    band buffer and 2x2 max-pooled into out, and ``which`` gets the tap of
    each window's first maximum. With ``bias``, bias and ReLU follow on each
    band's rows of out. One band buffer holds a band's windows, and its
    full-resolution rows when pooling, within ``_BAND_BYTES``."""
    th, tw, pt, pl = taps
    pool = which is not None
    s = 2 if pool else 1
    cout, rows_out, cols_out, n = out.shape
    hc, wc, c = rows_out * s, cols_out * s, src.shape[0]
    shapes = lambda rows: ((rows + th - 1, c, tw, wc, n), (pool * rows, cout, wc * n))
    for y0, y1, (xw, full) in _bands(hc, s, out.dtype, shapes):
        rows = y1 - y0
        _fill_windows(xw, src, y0 - pt, pl)
        band = _rows(out, y0 // s, y1 // s)
        if not pool:
            np.matmul(kmat, _row_windows(xw, rows, th), out=band.reshape(rows, cout, wc * n))
        else:
            np.matmul(kmat, _row_windows(xw, rows, th), out=full)
            _pool2(full.reshape(rows // 2, 2, cout, wc // 2, 2, n), band, _rows(which, y0 // 2, y1 // 2))
        if bias is not None:
            band += bias[:, None, None]
            np.maximum(band, 0, out=band)


def _pool2(full: np.ndarray, out: np.ndarray, which: np.ndarray):
    """2x2 max pooling of a (r, 2, C, w2, 2, N) band of windows into
    ``out`` (r, C, w2, N), and into ``which`` the row-major tap 0..3 of each
    window's first maximum. A NaN tap makes its window's maximum NaN."""
    q00, q01, q10, q11 = (full[:, i, :, :, j] for i in (0, 1) for j in (0, 1))
    top = np.maximum(q00, q01)
    np.maximum(q10, q11, out=out)
    lower = np.greater(out, top)  # a tie goes to the top row
    np.maximum(top, out, out=out)
    right = np.greater(q01, q00)
    right_lower = np.greater(q11, q10)
    right_lower ^= right
    right_lower &= lower
    right ^= right_lower  # the right tap of whichever row won
    np.add(lower, lower, out=which, dtype=np.uint8)
    which += right


def _unpool2(g: np.ndarray, which: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Route each pooled gradient of g (r, C, w2, N) to its window's winning
    tap in ``full`` (r, 2, C, w2, 2, N) and zero the other three taps (NaN
    where g is NaN); returns ``full`` as (2r, C, 2*w2*N) gradient rows."""
    for q in range(4):
        np.multiply(g, which == q, out=full[:, q // 2, :, :, q % 2])
    return full.reshape(2 * full.shape[0], full.shape[2], -1)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, pool: bool = False) -> Tensor:
    """ReLU of a 2-d cross-correlation with stride 1 and "same" zero
    padding, optionally followed by 2x2 max pooling with stride 2.

    x: (N, Cin, H, W); kernels: (Cout, Cin, kh, kw); bias: (Cout,). Output
    spatial size equals input spatial size, or (H // 2, W // 2) with
    ``pool``: a trailing odd row/column is dropped, so the convolution
    computes only the 2*(H // 2) x 2*(W // 2) outputs the pool reads. Even
    kernels pad one extra row/column on the top/left.

    The batch axis runs innermost: the input is read as a (Cin, H, W, N)
    array, a view when it is already stored that way (a conv2d result), and
    the (Cout, H, W, N) result is returned as an (N, Cout, H, W) view, which
    a flatten per sample reads as a view too. Kernel rows and columns that
    only ever see padding (a kernel larger than its map) are skipped,
    leaving th x tw live taps.

    No im2col matrix is built. The output is walked in bands of whole rows.
    For a band of r rows, the window buffer xw (r + th - 1, Cin, tw, W, N)
    holds the input rows the band reads as tw copies, each shifted by one
    column, with zeroed borders where they would read padding. The patch
    matrix of output row y, ordered (i, c, j), is then the contiguous block
    ``xw[y : y + th]`` read as (th*Cin*tw, W*N), so one ``np.matmul`` of
    the (Cout, th*Cin*tw) kernel matrix with a strided stack of those
    overlapping windows writes the band straight into its output rows. The
    input is copied tw times, not kh*kw. A pooled band goes into a
    full-resolution band buffer, is pooled from there while it is still in
    cache, and only the pooled rows and a uint8 index of each window's
    first (row-major) maximum are kept. Bias and ReLU then go on the kept
    rows: both are monotone, so adding them after the maximum gives the
    same values on a quarter of the elements.

    The backward masks the incoming gradient with the ReLU in place, which
    the engine allows because each node owns its gradient and drops it
    after its step. Per band, a pooled layer first rebuilds its
    full-resolution gradient rows, the pooled gradient at each winning tap
    and zero elsewhere. The kernel gradient is the band's rebuilt windows
    times its gradient rows, one batched product of a (th*Cin*tw, Cout)
    matrix per row, summed over the rows. The input gradient of an unpooled
    layer with Cin >= Cout is the same forward correlation of the masked
    gradient, with the kernels flipped in space and their channel axes
    swapped, so an even kernel pads bottom/right; it writes the gradient
    rows directly. Everywhere else the window gradients are overlap-added
    into the window buffer in th row passes, pass i adding kernel row i's
    block of the transposed kernel matrix times the gradient rows into
    window rows i .. i + r - 1 (the first pass writes them), and then tw
    column-shifted passes add the window buffer into the input gradient.

    Each pass (the forward; the backward's input-gradient correlation; its
    kernel-gradient and overlap-add pass) allocates one byte buffer for
    everything its bands hold: the windows, the full-resolution rows of a
    pooled band, the per-row kernel-gradient products and one kernel row's
    window gradients. Bands take as many rows as keep it within ``_BAND_BYTES``,
    the budget of one pass of one call on any thread, and at least one (an
    even number, at least two, when pooling, so that bands hold whole
    windows). No buffer outlives its pass, so conv2d keeps no state between
    calls.
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
    if n < 1:
        raise ShapeError(f"conv2d needs at least one sample, got {x.shape}")
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
    live = kernels.data[:, :, i0:i1, j0:j1]
    dtype = np.result_type(kernels.data, x.data)
    out = np.empty((cout, hc // s, wc // s, n), dtype)
    which = np.empty(out.shape, np.uint8) if pool else None
    # the kernel matrix, (i, c, j) by Cout, copied with Cout innermost: runs of tw would copy slowly
    kmat_t = np.ascontiguousarray(live.transpose(2, 1, 3, 0)).reshape(-1, cout)
    _correlate(xt, kmat_t.T, (th, tw, pt, pl), out, bias.data, which)

    def _bw(g):
        gt = g.transpose(1, 2, 3, 0)
        gt *= out > 0
        gt = np.ascontiguousarray(gt)  # a view when g is a conv2d input gradient
        _accumulate(bias, gt.reshape(cout, -1).sum(axis=1))
        overlap = x.requires_grad and (pool or cin < cout)
        gx = None
        if x.requires_grad and not overlap:
            flipped = np.ascontiguousarray(live[:, :, ::-1, ::-1].transpose(2, 0, 3, 1)).reshape(-1, cin)
            gx = np.empty((cin, h, w, n), dtype)
            _correlate(gt, flipped.T, (th, tw, th - 1 - pt, tw - 1 - pl), gx)
        if kernels.requires_grad or overlap:
            grad_k, klen = kernels.requires_grad, th * cin * tw
            gk = np.zeros((klen, cout), dtype)
            if overlap:
                gx = np.zeros((cin, h, w, n), dtype)
                krows = np.ascontiguousarray(live.transpose(2, 1, 3, 0)).reshape(th, cin * tw, cout)

            def shapes(rows):  # windows, pooled gradient rows, kernel-gradient products, window gradients
                return ((rows + th - 1, cin, tw, wc, n), (rows * pool, cout, wc * n),
                        (rows * grad_k, klen, cout), (rows * overlap, cin, tw, wc, n))

            for y0, y1, (xw, gfull, part, gwin) in _bands(hc, s, dtype, shapes):
                rows = y1 - y0
                if pool:
                    full = gfull.reshape(rows // 2, 2, cout, wc // 2, 2, n)
                    gb = _unpool2(_rows(gt, y0 // 2, y1 // 2), _rows(which, y0 // 2, y1 // 2), full)
                else:
                    gb = _rows(gt, y0, y1).reshape(rows, cout, wc * n)
                if grad_k:
                    _fill_windows(xw, xt, y0 - pt, pl)
                    np.matmul(_row_windows(xw, rows, th), gb.transpose(0, 2, 1), out=part)
                    gk += part.sum(axis=0)
                if overlap:  # the windows are spent: their buffer takes the window gradients
                    np.matmul(krows[0], gb, out=xw[:rows].reshape(rows, cin * tw, wc * n))
                    xw[rows:] = 0
                    for i in range(1, th):
                        np.matmul(krows[i], gb, out=gwin.reshape(rows, cin * tw, wc * n))
                        xw[i : i + rows] += gwin
                    _add_windows(gx, xw, y0 - pt, pl)
            if grad_k:
                full_k = np.zeros(kernels.shape, dtype)
                full_k[:, :, i0:i1, j0:j1] = gk.reshape(th, cin, tw, cout).transpose(3, 1, 0, 2)
                _accumulate(kernels, full_k, owned=True)
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
    if x.ndim < 2 or x.shape[-1] == 0:
        raise ShapeError(f"softmax_rows needs at least 2 dimensions and a row entry, got {x.shape}")
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
            _accumulate(x, g, index=r)

        return Tensor(x.data[r], _parents=(x,), _backward=_bw, _op="unstack")

    return [row(r) for r in range(x.shape[0])]


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the first axis."""
    out_data = x.data[start:stop]

    def _bw(g):
        _accumulate(x, g, index=slice(start, stop))

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="slice_rows")


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Tensor) -> Tensor:
    def _bw(g):
        _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return Tensor(np.asarray(x.data.sum(), dtype=x.dtype), _parents=(x,), _backward=_bw, _op="sum")


def mean_all(x: Tensor) -> Tensor:
    if x.size == 0:
        raise ShapeError(f"mean_all of no elements, got shape {x.shape}")
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
_running = threading.Lock()  # held by the one call whose shards run at once


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
    """The one worker thread, made on first use."""
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
    each, and only the batch decides this, is split into ``task(0, h)`` and
    ``task(h, n)``, h = ceil(n / 2). Each shard runs in its own copy of this
    thread's context, so both inherit its grad mode and numpy error state,
    and each has a gradient sink of its own: the gradients a shard adds into
    leaf tensors (the parameters) go there, one array per leaf. No op knows
    of the split: a task weights its mean by its share of n. Once both are
    done, the first shard's sink and then the second's are added into the
    leaves' ``.grad``: each leaf's gradient is the same sum in every run, on
    any CPU count.

    With two CPUs, the OpenBLAS thread calls and no other call's shards
    running at once, the reused worker thread runs the second shard while
    this thread runs the first, with OpenBLAS held at one thread for the
    whole call so that each shard's GEMMs run on its own core. This thread
    waits for the worker before it restores the BLAS thread count, even
    when its own shard raises; then an exception of its own shard, or else
    one of the worker's, is re-raised. Otherwise this thread runs the
    shards in turn: on one CPU, without the thread calls, where two threads
    would oversubscribe the cores, and in a call made while another call's
    shards run at once, from one of them or from any other thread.
    """
    if n < 2 or values_per_item < _SHARD_MIN_VALUES:
        return [task(0, n)]
    h = (n + 1) // 2
    blas = _blas_threads()
    if _usable_cpus() < 2 or blas is None or not _running.acquire(blocking=False):
        shards = [contextvars.copy_context().run(_shard, task, lo, hi) for lo, hi in ((0, h), (h, n))]
    else:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
        try:
            job = _shard_worker().submit(contextvars.copy_context().run, _shard, task, h, n)
            try:
                first = contextvars.copy_context().run(_shard, task, 0, h)
            finally:
                futures.wait((job,))
            shards = [first, job.result()]
        finally:
            set_threads(threads)
            _running.release()
    for _, sink in shards:
        for leaf, grad in sink.items():
            _accumulate(leaf, grad, owned=True)
    return [result for result, _ in shards]
