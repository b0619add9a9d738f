"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable operation returns a new :class:`Tensor` that remembers
its inputs and a closure computing the local vector-Jacobian product.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``. Inside ``with no_grad():`` no graph
is recorded, which is how evaluation runs the forward pass.

Two float precisions are supported: float32 (training, evaluation) and
float64 (gradient checking). The dtype of an operation's result follows
numpy promotion of its inputs.
"""

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError, UsageError

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: results keep no parents or backward
    closures, so each intermediate is freed as soon as nothing uses it."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


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
        if not _grad_enabled:
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
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.size != 1:
            raise UsageError(f"backward() needs a scalar, got shape {self.shape}")
        graph = Graph.trace(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(graph.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _accumulate_at(t: Tensor, index, g: np.ndarray):
    """Add g into t's gradient at t.data[index] only, with no full-size
    temporary."""
    if not t.requires_grad:
        return
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


def _same_padding(k: int) -> tuple:
    # total k-1; the extra row/column of an even kernel goes to the top/left
    return (k // 2, (k - 1) // 2)


def _live_taps(k: int, size: int) -> tuple:
    """Kernel offsets [lo, hi) along one axis that reach the input for at
    least one output position, and the "same" padding (before, after) that
    these offsets need. An offset outside [lo, hi) only ever reads zero
    padding, so dropping it changes no output."""
    before, after = _same_padding(k)
    lo, hi = max(0, before - size + 1), min(k, before + size)
    return lo, hi, before - lo, after - (k - hi)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """2-d cross-correlation with stride 1 and "same" zero padding.

    x: (N, Cin, H, W); kernels: (Cout, Cin, kh, kw); bias: (Cout,). Output
    spatial size equals input spatial size. Even kernels pad one extra
    row/column on the top/left.

    The batch axis runs innermost inside: the input is padded into a
    (Cin, Hp, Wp, N) buffer, so each im2col tap copy and each col2im add
    moves contiguous runs of W*N values, and the (Cout, H, W, N) product is
    returned as an (N, Cout, H, W) view. Kernel rows and columns that only
    ever see padding (a kernel larger than its map) are skipped.
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
    i0, i1, pt, pb = _live_taps(kh, h)
    j0, j1, pl, pr = _live_taps(kw, w)
    th, tw = i1 - i0, j1 - j0
    padded = (cin, h + pt + pb, w + pl + pr, n)
    xpad = np.zeros(padded, dtype=x.dtype)
    xpad[:, pt : pt + h, pl : pl + w] = x.data.transpose(1, 2, 3, 0)
    cols = np.empty((cin, th, tw, h, w, n), dtype=x.dtype)
    for i in range(th):
        for j in range(tw):
            cols[:, i, j] = xpad[:, i : i + h, j : j + w]
    cols = cols.reshape(cin * th * tw, h * w * n)
    kmat = kernels.data[:, :, i0:i1, j0:j1].reshape(cout, cin * th * tw)
    out = kmat @ cols
    out += bias.data[:, None]
    out_data = out.reshape(cout, h, w, n).transpose(3, 0, 1, 2)

    def _bw(g):
        g2 = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(cout, h * w * n)
        _accumulate(bias, g2.sum(axis=1))
        if kernels.requires_grad:
            gk = np.zeros_like(kernels.data)
            gk[:, :, i0:i1, j0:j1] = (g2 @ cols.T).reshape(cout, cin, th, tw)
            _accumulate(kernels, gk)
        if x.requires_grad:
            gcols = (kmat.T @ g2).reshape(cin, th, tw, h, w, n)
            gxpad = np.zeros(padded, dtype=x.dtype)
            for i in range(th):
                for j in range(tw):
                    gxpad[:, i : i + h, j : j + w] += gcols[:, i, j]
            _accumulate(x, gxpad[:, pt : pt + h, pl : pl + w].transpose(3, 0, 1, 2))

    return Tensor(out_data, _parents=(x, kernels, bias), _backward=_bw, _op="conv2d")


def _quadrants(a: np.ndarray, h2: int, w2: int) -> list:
    """The four stride-2 views of a's 2x2 windows, in row-major tap order."""
    return [a[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over (N, C, H, W); a trailing odd
    row/column is dropped.

    The gradient flows to the first (row-major) maximum of each window.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 input must be (N,C,H,W), got {x.shape}")
    h, w = x.shape[2:]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2 needs spatial size >= 2, got {x.shape}")
    h2, w2 = h // 2, w // 2
    q00, q01, q10, q11 = _quadrants(x.data, h2, w2)
    out_data = np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))

    def _bw(g):
        gx = np.zeros_like(x.data)
        free = np.ones_like(out_data, dtype=bool)  # windows whose max is not yet routed
        for q, gq in zip(_quadrants(x.data, h2, w2), _quadrants(gx, h2, w2)):
            hit = np.equal(q, out_data)
            hit &= free
            np.multiply(g, hit, out=gq)
            free ^= hit
        _accumulate(x, gx)

    return Tensor(out_data, _parents=(x,), _backward=_bw, _op="maxpool2")


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
