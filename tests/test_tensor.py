"""Autodiff engine: forward values, backward rules, graph invariants."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrscene import tensor as T
from mrscene.birnn import LstmParams, lstm_sequence
from mrscene.errors import ShapeError, UsageError
from mrscene.gradcheck import numeric_gradient, relative_error
from mrscene.head import bce_with_logits_loss

RNG = np.random.default_rng


def fd_check(loss_builder, leaves, tol=1e-4):
    """Backward gradients of the scalar loss vs central differences."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = loss_builder()
    loss.backward()
    for leaf in leaves:
        numeric = numeric_gradient(lambda: loss_builder().item(), leaf)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert relative_error(analytic, numeric) < tol


def weighted_sum(out, weights):
    """Reduce any output to a scalar through fixed weights so every element
    contributes a distinct gradient signal."""
    return T.sum_all(T.mul(out, weights))


def naive_conv(x, k, b):
    """Float64 sliding-window "same" cross-correlation, one output pixel
    and one tap at a time; even kernels pad the extra row/column top/left."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    out = np.zeros((n, cout, h, w)) + b[None, :, None, None]
    for y in range(h):
        for xx in range(w):
            for i in range(kh):
                for j in range(kw):
                    r, c = y + i - kh // 2, xx + j - kw // 2
                    if 0 <= r < h and 0 <= c < w:
                        out[:, :, y, xx] += x[:, :, r, c] @ k[:, :, i, j].T
    return out


def naive_conv_grads(x, k, b, g):
    """Float64 gradients of sum(g * relu(naive_conv(x, k, b))) for x, k and
    b. naive_conv is linear in x and in k, so each gradient entry is the
    masked upstream gradient dotted with naive_conv of one basis array."""
    gpre = g * (naive_conv(x, k, b) > 0)
    zero = np.zeros_like(b)

    def probe(like, conv_of):
        grad = np.zeros(like.shape)
        for idx in np.ndindex(like.shape):
            basis = np.zeros(like.shape)
            basis[idx] = 1
            grad[idx] = np.sum(gpre * conv_of(basis))
        return grad

    return (probe(x, lambda e: naive_conv(e, k, zero)), probe(k, lambda e: naive_conv(x, e, zero)),
            gpre.sum(axis=(0, 2, 3)))


def sliding_window_grads(x, k, gpre):
    """Float64 gradients of sum(gpre * naive_conv(x, k, b)) for x, k and b,
    one output pixel and one tap at a time."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    gx, gk = np.zeros(x.shape), np.zeros(k.shape)
    for y in range(h):
        for xx in range(w):
            for i in range(kh):
                for j in range(kw):
                    r, c = y + i - kh // 2, xx + j - kw // 2
                    if 0 <= r < h and 0 <= c < w:
                        gx[:, :, r, c] += gpre[:, :, y, xx] @ k[:, :, i, j]
                        gk[:, :, i, j] += gpre[:, :, y, xx].T @ x[:, :, r, c]
    return gx, gk, gpre.sum(axis=(0, 2, 3))


def batch_innermost(a):
    """The same NCHW values backed by (C, H, W, N) memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def nan_band_buffer(nbytes):
    """A stand-in for conv2d's band buffer with a NaN in every float32 and
    float64 slot, so that any value read before it is written shows."""
    return np.full(nbytes, 0xFF, np.uint8)


def record_band_buffers(monkeypatch) -> list:
    """The byte counts of conv2d's band buffers, in the order asked for."""
    requests, band_buffer = [], T._band_buffer
    monkeypatch.setattr(T, "_band_buffer", lambda n: requests.append(n) or band_buffer(n))
    return requests


def band_bytes(rows, c, cout, n, k, wc, itemsize, pool=False, grad_k=False, overlap=False):
    """The band buffer of one conv2d pass for a band of ``rows`` output rows
    of a k x k kernel, all taps live, over c input channels and wc computed
    columns: the windows (rows + k - 1 rows of k column-shifted copies of
    c * wc * N values), plus per row the full-resolution output or gradient
    row of a pooled layer, the kernel-gradient product (k*c*k x Cout) and
    one kernel row's window gradients (one row of windows)."""
    row = c * k * wc * n
    extra = cout * wc * n * pool + cout * k * c * k * grad_k + row * overlap
    return itemsize * ((rows + k - 1) * row + rows * extra)


def first_max_mask(x):
    """1 at the row-major first maximum of every 2x2 window, by argmax."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = x[:, :, : 2 * h2, : 2 * w2].reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5)
    idx = win.reshape(n, c, h2, w2, 4).argmax(axis=-1)
    mask = np.zeros(x.shape)
    for t in range(4):
        mask[:, :, t // 2 : 2 * h2 : 2, t % 2 : 2 * w2 : 2] = idx == t
    return mask


def naive_pooled_conv(x, k, b, g):
    """Float64 maxpool(relu(naive_conv(x, k, b))), 2x2 windows with stride
    2 and a trailing odd row/column dropped, and its gradients for x, k and
    b under the pooled upstream gradient g: g goes to each window's first
    maximum, so the dropped row and column only get gradient through the
    convolution taps of the outputs that are pooled."""
    act = np.maximum(naive_conv(x, k, b), 0)
    n, c, h, w = act.shape
    h2, w2 = h // 2, w // 2
    out = act[:, :, : 2 * h2, : 2 * w2].reshape(n, c, h2, 2, w2, 2).max(axis=(3, 5))
    upsampled = np.zeros(act.shape)
    upsampled[:, :, : 2 * h2, : 2 * w2] = g.repeat(2, axis=2).repeat(2, axis=3)
    return [out, *naive_conv_grads(x, k, b, first_max_mask(act) * upsampled)]


def pool_through_identity(x):
    """relu(x) max-pooled by conv2d's epilogue, through an identity 1x1
    kernel and zero bias."""
    c = x.shape[1]
    eye = T.Tensor(np.eye(c, dtype=x.dtype).reshape(c, c, 1, 1))
    return T.conv2d(x, eye, T.Tensor(np.zeros(c, x.dtype)), pool=True)


# (N, Cin, Cout, H, W, kernel): odd maps, and a kernel wider than its map
POOLED_CASES = {"15x15": (1, 1, 2, 15, 15, 3), "7x5": (2, 2, 3, 7, 5, 5), "3x2": (3, 2, 4, 3, 2, 3)}


@functools.lru_cache(maxsize=None)
def pooled_case(name):
    """Float64 inputs, pooled upstream gradient and naive_pooled_conv
    oracle of one POOLED_CASES entry, computed once per test session."""
    n, cin, cout, h, w, k = POOLED_CASES[name]
    rng = RNG(20)
    x, kern, b = rng.normal(size=(n, cin, h, w)), rng.normal(size=(cout, cin, k, k)) * 0.5, rng.normal(size=cout)
    g = rng.normal(size=(n, cout, h // 2, w // 2))
    return (x, kern, b, g), naive_pooled_conv(x, kern, b, g)


class TestMatmul:
    def test_identity(self):
        b = T.Tensor(RNG(0).normal(size=(3, 4)))
        out = T.matmul(T.Tensor(np.eye(3, dtype=np.float32)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_zeros(self):
        out = T.matmul(T.Tensor(np.zeros((2, 3), np.float32)), T.Tensor(np.ones((3, 4), np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4), np.float32))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))

    def test_gradcheck_random(self):
        rng = RNG(1)
        a = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 3)))
        fd_check(lambda: weighted_sum(T.matmul(a, b), w), [a, b])

    def test_gradcheck_batched_broadcast(self):
        rng = RNG(2)
        w2d = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x3d = T.Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        wts = T.Tensor(rng.normal(size=(2, 3, 5)))
        fd_check(lambda: weighted_sum(T.matmul(w2d, x3d), wts), [w2d, x3d])


class TestConv2d:
    def test_counting_ones_under_zero_padding(self):
        x = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        k = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        b = T.Tensor(np.zeros(1, np.float32))
        out = T.conv2d(x, k, b).data[0, 0]
        assert out[1, 1] == 9
        assert out[0, 1] == 6 and out[1, 0] == 6
        assert out[0, 0] == 4 and out[2, 2] == 4

    def test_1x1_identity_kernel(self):
        x = T.Tensor(RNG(3).normal(size=(2, 1, 5, 6)).astype(np.float32))
        k = T.Tensor(np.ones((1, 1, 1, 1), np.float32))
        b = T.Tensor(np.zeros(1, np.float32))
        np.testing.assert_array_equal(T.conv2d(x, k, b).data, np.maximum(x.data, 0))

    @pytest.mark.parametrize("kh,kw", [(3, 3), (5, 5), (2, 2)])
    def test_same_padding_preserves_spatial_size(self, kh, kw):
        rng = RNG(4)
        x = T.Tensor(rng.normal(size=(4, 2, 7, 9)))
        k = T.Tensor(rng.normal(size=(3, 2, kh, kw)))
        b = T.Tensor(rng.normal(size=3))
        assert T.conv2d(x, k, b).shape == (4, 3, 7, 9)

    def test_even_kernel_pads_top_left(self):
        # a 2x2 kernel that only reads its bottom-right tap reproduces the
        # input's ReLU exactly when the extra padding sits on the top/left
        x = T.Tensor(RNG(5).normal(size=(2, 1, 4, 4)).astype(np.float32))
        k = np.zeros((1, 1, 2, 2), np.float32)
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, T.Tensor(k), T.Tensor(np.zeros(1, np.float32)))
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 3, 3, 3))), T.Tensor(np.zeros(1)))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match=r"\(N,Cin,H,W\)"):
            T.conv2d(T.Tensor(np.zeros((2, 4, 4))), T.Tensor(np.zeros((1, 2, 3, 3))), T.Tensor(np.zeros(1)))

    def test_gradcheck_random(self):
        rng = RNG(6)
        x = T.Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = T.Tensor(rng.normal(size=3), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        fd_check(lambda: weighted_sum(T.conv2d(x, k, b), w), [x, k, b])

    def test_batched_matches_per_sample(self):
        rng = RNG(7)
        xs = rng.normal(size=(4, 2, 5, 5))
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = T.Tensor(rng.normal(size=3))
        batched = T.conv2d(T.Tensor(xs), k, b).data
        for i in range(4):
            single = T.conv2d(T.Tensor(xs[i : i + 1]), k, b).data[0]
            # gemm accumulation order differs between batch shapes by ulps
            np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kh,kw,h,w", [(2, 2, 1, 1), (3, 3, 1, 1), (5, 5, 2, 3), (4, 2, 1, 4), (3, 4, 2, 6)])
    def test_kernel_larger_than_map_matches_sliding_window(self, kh, kw, h, w, monkeypatch):
        """Output and all three gradients match the sliding window in
        float64 and float32, from an NCHW-contiguous input and from a
        conv2d-output view, with every band buffer full of NaN bytes when
        allocated, in the forward and in the backward, whose input gradient
        is overlap-added (Cin < Cout) or a flipped-kernel correlation
        (Cin >= Cout): every window border that would read padding is
        zeroed, never left stale."""
        rng = RNG(9)
        monkeypatch.setattr(T, "_band_buffer", nan_band_buffer)
        for cin, cout in ((2, 4), (4, 2)):
            x0, k0, b0 = rng.normal(size=(3, cin, h, w)), rng.normal(size=(cout, cin, kh, kw)), rng.normal(size=cout)
            g0 = rng.normal(size=(3, cout, h, w))
            want = [np.maximum(naive_conv(x0, k0, b0), 0), *naive_conv_grads(x0, k0, b0, g0)]
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                for layout in (np.ascontiguousarray, batch_innermost):
                    x = T.Tensor(layout(x0.astype(dtype)), requires_grad=True)
                    k, b = (T.Tensor(a.astype(dtype), requires_grad=True) for a in (k0, b0))
                    out = T.conv2d(x, k, b)
                    weighted_sum(out, T.Tensor(g0.astype(dtype))).backward()
                    for got, expected in zip((out.data, x.grad, k.grad, b.grad), want):
                        np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_input_memory_layout_does_not_change_results(self):
        rng = RNG(10)
        data = rng.normal(size=(3, 2, 5, 4)).astype(np.float32)
        k0 = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        b0 = rng.normal(size=4).astype(np.float32)
        w_out = T.Tensor(rng.normal(size=(3, 4, 5, 4)).astype(np.float32))
        results = []
        for arr in (data, batch_innermost(data), np.asfortranarray(data)):
            x, k, b = (T.Tensor(a, requires_grad=True) for a in (arr, k0, b0))
            out = T.conv2d(x, k, b)
            weighted_sum(out, w_out).backward()
            results.append((out.data, x.grad, k.grad, b.grad))
        assert not results[1][0].flags.c_contiguous  # the output is a view
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                np.testing.assert_array_equal(got, want)

    def test_relu_is_fused_on_mixed_signs(self):
        rng = RNG(11)
        x = T.Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        b = T.Tensor(rng.normal(size=4), requires_grad=True)
        pre = naive_conv(x.data, k.data, b.data)
        assert (pre > 0).any() and (pre < 0).any()
        assert np.abs(pre).min() > 1e-3  # two-sided differences stay off the kink
        out = T.conv2d(x, k, b).data
        assert np.all(out[pre <= 0] == 0)
        np.testing.assert_allclose(out[pre > 0], pre[pre > 0], rtol=1e-12, atol=1e-12)
        w_out = T.Tensor(rng.normal(size=(2, 4, 5, 4)))
        fd_check(lambda: weighted_sum(T.conv2d(x, k, b), w_out), [x, k, b])

    @pytest.mark.parametrize("conv_first", [True, False])
    def test_owned_gradients_sum_over_consumers(self, conv_first):
        """conv2d, pooled or not, hands its fresh gradient buffers over as
        .grad; a tensor that feeds both still gets the sum of both, and no
        two tensors share one gradient array."""
        rng = RNG(12)
        x = T.Tensor(rng.normal(size=(2, 2, 4, 5)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = T.Tensor(rng.normal(size=3), requires_grad=True)
        w_conv = T.Tensor(rng.normal(size=(2, 3, 4, 5)))
        w_pool = T.Tensor(rng.normal(size=(2, 3, 2, 2)))

        def loss():
            terms = [weighted_sum(T.conv2d(x, k, b), w_conv), weighted_sum(T.conv2d(x, k, b, pool=True), w_pool)]
            return T.add(*(terms if conv_first else terms[::-1]))

        fd_check(loss, [x, k, b])
        x.zero_grad()
        root = loss()
        root.backward()
        grads = [n.grad for n in T.Graph.trace(root).nodes if n.grad is not None]
        for i, a in enumerate(grads):
            for other in grads[i + 1 :]:
                assert not np.shares_memory(a, other)


@st.composite
def conv_cases(draw):
    """(N, Cin, H, W, Cout, kh, kw, pool), a band budget of a few rows, the
    input's memory order and a data seed: kernels up to 6x6 on maps down to
    1x1 (2x2 when pooled), so kernels larger than the map, even kernels,
    odd pooled maps and both Cin >= Cout and Cin < Cout are all drawn."""
    pool = draw(st.booleans())
    dims = [draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1 + pool, 7)),
            draw(st.integers(1 + pool, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))]
    return (*dims, pool, draw(st.integers(1, 1 << 16)), draw(st.permutations(range(4))), draw(st.integers(0, 2 ** 32 - 1)))


class TestConv2dOracle:
    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    @example((2, 3, 5, 4, 2, 4, 2, False, 1, [0, 1, 2, 3], 0))  # Cin >= Cout, even kernel, one-row bands
    @example((3, 2, 5, 5, 3, 6, 3, True, 1, [2, 1, 3, 0], 1))  # odd pooled map, kernel taller than it
    @example((1, 4, 2, 3, 4, 5, 4, False, 1 << 16, [3, 0, 1, 2], 2))  # kernel larger than the map
    def test_matches_float64_sliding_window(self, case):
        """Output and all three gradients of conv2d, pooled or not, match a
        float64 sliding-window loop for any shape, band budget and input
        memory order, with every band buffer full of NaN bytes when
        allocated."""
        n, cin, h, w, cout, kh, kw, pool, budget, order, seed = case
        rng = RNG(seed)
        x0, k0, b0 = rng.normal(size=(n, cin, h, w)), rng.normal(size=(cout, cin, kh, kw)), rng.normal(size=cout)
        g0 = rng.normal(size=(n, cout, h // 2, w // 2) if pool else (n, cout, h, w))
        pre = naive_conv(x0, k0, b0)
        act = np.maximum(pre, 0)
        if pool:
            h2, w2 = h // 2, w // 2
            want_out = act[:, :, : 2 * h2, : 2 * w2].reshape(n, cout, h2, 2, w2, 2).max(axis=(3, 5))
            gpost = np.zeros(act.shape)
            gpost[:, :, : 2 * h2, : 2 * w2] = g0.repeat(2, axis=2).repeat(2, axis=3)
            gpost *= first_max_mask(act)
        else:
            want_out, gpost = act, g0
        want = [want_out, *sliding_window_grads(x0, k0, gpost * (pre > 0))]
        layout = np.ascontiguousarray(x0.transpose(order)).transpose(np.argsort(order))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BAND_BYTES", budget)
            mp.setattr(T, "_band_buffer", nan_band_buffer)
            x = T.Tensor(layout, requires_grad=True)
            k, b = T.Tensor(k0, requires_grad=True), T.Tensor(b0, requires_grad=True)
            out = T.conv2d(x, k, b, pool=pool)
            weighted_sum(out, T.Tensor(g0)).backward()
        for got, expected in zip((out.data, x.grad, k.grad, b.grad), want):
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


class TestConv2dOneRowBands(TestConv2d):
    """Every TestConv2d case again with a band budget of one byte, so conv2d
    walks its output one row per band: taps straddle band edges, and a 5x5
    on a 7-row map reads padding in the first and last two bands."""

    @pytest.fixture(autouse=True)
    def one_row_bands(self, monkeypatch):
        monkeypatch.setattr(T, "_BAND_BYTES", 1)

    def test_uneven_bands_match_sliding_window(self, monkeypatch):
        """Bands of 2 and of 3 rows leave a shorter last band on a 7-row map,
        in the forward and in each backward pass: the kernel-gradient pass
        with the overlap-add of the input gradient (Cin < Cout), and the
        flipped-kernel correlation (Cin >= Cout). Each budget is exactly one
        pass's band buffer of that many rows, and that pass asks for it."""
        rng = RNG(15)
        requests = record_band_buffers(monkeypatch)
        for cin, cout in ((2, 3), (3, 2)):
            x0, k0, b0 = rng.normal(size=(2, cin, 7, 5)), rng.normal(size=(cout, cin, 5, 5)) * 0.3, rng.normal(size=cout)
            g0 = rng.normal(size=(2, cout, 7, 5))
            want = [np.maximum(naive_conv(x0, k0, b0), 0), *naive_conv_grads(x0, k0, b0, g0)]
            passes = [functools.partial(band_bytes, c=cin, cout=cout, n=2, k=5, wc=5, itemsize=8)]  # the forward
            if cin < cout:  # the kernel gradient and the overlap-add
                passes.append(functools.partial(passes[0], grad_k=True, overlap=True))
            else:  # the flipped-kernel correlation, then the kernel gradient
                passes += [functools.partial(band_bytes, c=cout, cout=cin, n=2, k=5, wc=5, itemsize=8),
                           functools.partial(passes[0], grad_k=True)]
            for pass_bytes in passes:
                for rows in (2, 3):
                    monkeypatch.setattr(T, "_BAND_BYTES", pass_bytes(rows))
                    requests.clear()
                    x, k, b = (T.Tensor(a, requires_grad=True) for a in (x0, k0, b0))
                    out = T.conv2d(x, k, b)
                    weighted_sum(out, T.Tensor(g0)).backward()
                    assert pass_bytes(rows) in requests and len(requests) == len(passes)
                    for got, expected in zip((out.data, x.grad, k.grad, b.grad), want):
                        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestScratchBuffer:
    """conv2d's band buffers: one per pass (the forward; in the backward the
    flipped-kernel correlation of an unpooled layer with Cin >= Cout, and
    the kernel-gradient and overlap-add pass), each of its largest band's
    size, kept by no call after it ends."""

    @staticmethod
    def conv_case(rng, n, cin, cout, size, k, dtype=np.float32, pool=False):
        out = size // 2 if pool else size
        return tuple(a.astype(dtype) for a in (
            rng.normal(size=(n, cin, size, size)), rng.normal(size=(cout, cin, k, k)) * 0.3,
            rng.normal(size=cout) * 0.1, rng.normal(size=(n, cout, out, out))))

    @staticmethod
    def forward(case, pool=False):
        x, k, b = (T.Tensor(a.copy(), requires_grad=True) for a in case[:3])
        out = T.conv2d(x, k, b, pool=pool)
        return out, weighted_sum(out, T.Tensor(case[3])), (x, k, b)

    def test_interleaved_convs_match_each_run_alone(self, monkeypatch):
        rng = RNG(13)
        first = self.conv_case(rng, 4, 8, 16, 6, 3)
        second = self.conv_case(rng, 4, 8, 16, 6, 3)  # same shape as first, as in two branches
        larger = self.conv_case(rng, 4, 8, 8, 12, 5)
        wide = self.conv_case(rng, 2, 3, 4, 6, 3, np.float64)
        cases = [first, larger, wide, second]

        alone = []
        for case in cases:
            out, loss, leaves = self.forward(case)
            loss.backward()
            alone.append([out.data.copy()] + [leaf.grad for leaf in leaves])

        requests = record_band_buffers(monkeypatch)
        runs = []
        for case in cases:  # every forward before any backward
            runs.append(self.forward(case))
            if case is larger:
                # its windows, one band of 12 rows and 4 halo rows, 5 shifted
                # copies each: a fifth of the 25 copies of its im2col matrix
                assert requests[-1] == band_bytes(12, 8, 8, 4, 5, 12, 4) == 16 * 8 * 5 * 12 * 4 * 4
        for out, loss, _ in runs:
            loss.backward()
        for (out, _, leaves), want in zip(runs, alone):
            assert out.dtype == want[0].dtype
            for got, expected in zip([out.data] + [leaf.grad for leaf in leaves], want):
                np.testing.assert_array_equal(got, expected)

    def test_backward_keeps_no_im2col_matrix(self):
        """The traced peak of a forward and backward through two 5x5 convs
        stays below the activations plus one pass's band buffer (20 rows of
        windows, 6.25 activations, and the kernel-gradient products, 3.1)
        plus slack for backward temporaries: the closures do not keep their
        band buffers, which would add 6.25 activations each, nor is any
        im2col matrix (25 activations) built."""
        rng = RNG(14)
        case = self.conv_case(rng, 4, 8, 8, 16, 5)
        act = case[0].nbytes
        x, k1, b1 = (T.Tensor(a.copy(), requires_grad=True) for a in case[:3])
        k2 = T.Tensor(case[1][::-1].copy(), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.conv2d(T.conv2d(x, k1, b1), k2, b1)
            weighted_sum(out, T.Tensor(case[3])).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and k1.grad is not None
        assert band_bytes(16, 8, 8, 4, 5, 16, 4, grad_k=True) == 9.375 * act
        assert peak < 3 * act + 9.375 * act + 10 * act

    def test_threads_running_convs_at_once_match_serial_runs(self):
        """Two threads each run 30 rounds of forward and backward passes of
        their own three convs at once while the interpreter switches threads
        as often as it can: an unpooled and a pooled conv whose input
        gradient is overlap-added (Cin < Cout), and one whose input gradient
        is the flipped-kernel correlation (Cin >= Cout). Every output and
        gradient is bit-equal to a serial run's. A buffer shared between
        calls would let one thread's band overwrite the other's."""
        rng = RNG(17)
        layers = [(8, 16, False), (8, 16, True), (16, 8, False)]  # (Cin, Cout, pool)
        cases = [[(self.conv_case(rng, 64, cin, cout, 12, 3, pool=pool), pool) for cin, cout, pool in layers]
                 for _ in range(2)]

        def run(case, pool):
            out, loss, leaves = self.forward(case, pool)
            loss.backward()
            return [out.data] + [leaf.grad for leaf in leaves]

        serial = [[run(*case) for case in own] for own in cases]
        start = threading.Barrier(2)
        done = [[], []]

        def worker(t):
            start.wait()
            for _ in range(30):
                done[t].append(all(np.array_equal(a, b) for case, want in zip(cases[t], serial[t])
                                   for a, b in zip(run(*case), want)))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert done == [[True] * 30] * 2

    def test_no_memory_outlives_a_call(self):
        """After a forward and backward whose smallest band's window buffer
        is larger than the band budget, and once the results and gradients
        are dropped, traced memory is back where it started, to within a few
        hundred bytes: no band buffer is kept for the next call."""
        rng = RNG(18)
        self.forward(self.conv_case(rng, 2, 16, 4, 9, 9, np.float64))[1].backward()  # warm-up
        case = self.conv_case(rng, 128, 16, 4, 9, 9, np.float64)
        assert band_bytes(1, 16, 4, 128, 9, 9, 8) > T._BAND_BYTES  # one output row and 8 halo rows
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in case[:3]]
        g = T.Tensor(case[3])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            weighted_sum(T.conv2d(*leaves), g).backward()
            assert all(leaf.grad is not None for leaf in leaves)
            for leaf in leaves:
                leaf.zero_grad()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 1 << 16  # numpy's and the interpreter's own small caches; a band is 12 MB

    @pytest.mark.parametrize("n", [128, 256])
    def test_first_bigearthnet_layer_keeps_scratch_within_one_band(self, n, monkeypatch):
        """The 10 m branch's first layer (5x5, 4->32, pooled, 30x30 patches;
        N = 128 is batch 8) would need a 46 MB patch matrix at N = 128 and
        92 MB at 256. Its forward's band buffer, windows and full-resolution
        rows together, and its backward's, which adds the kernel-gradient
        products and the window gradients, each stay within the band budget,
        or the smallest band's (two rows) where that is larger; so the
        forward's traced peak is the input copy, the pooled output and its
        argmax index, one band buffer of two rows, and the pooling's
        temporaries of one pooled row: a float maximum and three bool masks."""
        rng = RNG(16)
        case = self.conv_case(rng, n, 4, 32, 30, 5, pool=True)
        requests = record_band_buffers(monkeypatch)
        x, k, b = (T.Tensor(a.copy(), requires_grad=True) for a in case[:3])
        tracemalloc.start()
        try:
            out = T.conv2d(x, k, b, pool=True)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weighted_sum(out, T.Tensor(case[3])).backward()
        assert all(leaf.grad is not None for leaf in (x, k, b))
        floors = [band_bytes(2, 4, 32, n, 5, 30, 4, pool=True),
                  band_bytes(2, 4, 32, n, 5, 30, 4, pool=True, grad_k=True, overlap=True)]
        assert len(requests) == 2 and all(0 < r <= max(T._BAND_BYTES, f) for r, f in zip(requests, floors))
        assert requests[0] == floors[0] and (floors[0] <= T._BAND_BYTES) == (n == 128)
        pool_temporaries = 32 * 15 * n * (4 + 3)
        assert forward_peak <= x.data.nbytes + out.data.nbytes * 5 // 4 + requests[0] + pool_temporaries + (1 << 17)


class TestPooledConv2d:
    """conv2d(..., pool=True): the convolution computes only the outputs
    its 2x2 windows read, keeps the pooled maximum and the index of each
    window's first maximum, and routes the gradient through that index."""

    @pytest.mark.parametrize("name", POOLED_CASES)
    def test_matches_pooled_sliding_window(self, name, monkeypatch):
        """Output and all three gradients match the float64 oracle in
        float64 and float32, from an NCHW-contiguous input and from a
        conv2d-output view, with every patch-matrix band buffer full of NaN
        bytes when allocated, in the forward and in the backward."""
        (x0, k0, b0, g0), want = pooled_case(name)
        monkeypatch.setattr(T, "_band_buffer", nan_band_buffer)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            for layout in (np.ascontiguousarray, batch_innermost):
                x = T.Tensor(layout(x0.astype(dtype)), requires_grad=True)
                k, b = (T.Tensor(a.astype(dtype), requires_grad=True) for a in (k0, b0))
                out = T.conv2d(x, k, b, pool=True)
                weighted_sum(out, T.Tensor(g0.astype(dtype))).backward()
                assert out.dtype == dtype and out.shape == want[0].shape
                for got, expected in zip((out.data, x.grad, k.grad, b.grad), want):
                    np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_nan_tap_makes_its_window_nan(self):
        """A NaN at any one of the four taps gives its window a NaN maximum;
        a window without one keeps its value."""
        data = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32), (5, 1, 1, 1))
        for t in range(4):
            data[t, 0, t // 2, t % 2] = np.nan
        out = pool_through_identity(T.Tensor(data)).data
        assert np.isnan(out[:4]).all()
        np.testing.assert_array_equal(out[4], [[[4.0]]])

    def test_nan_gradient_reaches_all_four_taps(self):
        """A NaN upstream gradient reaches every tap of its window, as NaN
        times zero is NaN; other windows still route to their maximum."""
        data = np.array([[[[1.0, 2.0, 5.0, 4.0], [3.0, 4.0, 1.0, 0.5]]]])
        x = T.Tensor(data, requires_grad=True)
        weighted_sum(pool_through_identity(x), T.Tensor(np.array([[[[np.nan, 3.0]]]]))).backward()
        assert np.isnan(x.grad[..., :2]).all()
        np.testing.assert_array_equal(x.grad[..., 2:], [[[[3.0, 0.0], [0.0, 0.0]]]])


class TestPooledConv2dTwoRowBands(TestPooledConv2d):
    """Every TestPooledConv2d case again with a band budget of one byte,
    which pooling rounds up to two rows, the smallest band of whole
    windows."""

    @pytest.fixture(autouse=True)
    def two_row_bands(self, monkeypatch):
        monkeypatch.setattr(T, "_BAND_BYTES", 1)

    @pytest.mark.parametrize("rows,band", [(3, 2), (5, 4), (7, 6)])
    def test_odd_budgets_round_down_to_whole_windows(self, rows, band, monkeypatch):
        """A budget of an odd number of rows runs bands of one row fewer,
        with a shorter last band where 14 computed rows do not divide: the
        forward's band buffer, windows and full-resolution rows, is that of
        the even band."""
        (x0, k0, b0, g0), want = pooled_case("15x15")
        monkeypatch.setattr(T, "_BAND_BYTES", band_bytes(rows, 1, 2, 1, 3, 14, 8, pool=True))
        requests = record_band_buffers(monkeypatch)
        x, k, b = (T.Tensor(a, requires_grad=True) for a in (x0, k0, b0))
        out = T.conv2d(x, k, b, pool=True)
        assert requests == [band_bytes(band, 1, 2, 1, 3, 14, 8, pool=True)]
        weighted_sum(out, T.Tensor(g0)).backward()
        for got, expected in zip((out.data, x.grad, k.grad, b.grad), want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestMaxpool2:
    """2x2 max pooling, run as conv2d's epilogue through an identity 1x1
    kernel with zero bias; inputs are positive wherever ReLU would otherwise
    zero a tie."""

    def test_single_window(self):
        x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        out = pool_through_identity(x)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_tie_gradient_goes_to_first_row_major(self):
        x = T.Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        loss = T.sum_all(pool_through_identity(x))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_15x15_floors_to_7x7(self):
        out = pool_through_identity(T.Tensor(np.zeros((2, 4, 15, 15), np.float32)))
        assert out.shape == (2, 4, 7, 7)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match=r"\(N,Cin,H,W\)"):
            pool_through_identity(T.Tensor(np.zeros((2, 4, 4))))

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            pool_through_identity(T.Tensor(np.zeros((1, 1, 1, 5))))

    def test_gradcheck_random(self):
        rng = RNG(8)
        x = T.Tensor(rng.normal(size=(2, 2, 6, 7)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 2, 3, 3)))
        fd_check(lambda: weighted_sum(pool_through_identity(x), w), [x])

    def test_all_15_tie_patterns_route_to_first_row_major_max(self):
        # window p has its maxima (1.0) at the taps whose bit is set in p+1
        patterns = np.array([[(p >> t) & 1 for t in range(4)] for p in range(1, 16)], np.float32)
        x = T.Tensor(patterns.reshape(15, 1, 2, 2), requires_grad=True)
        g = np.arange(1, 16, dtype=np.float32).reshape(15, 1, 1, 1)
        out = pool_through_identity(x)
        T.sum_all(T.mul(out, T.Tensor(g))).backward()
        np.testing.assert_array_equal(out.data, np.ones((15, 1, 1, 1)))
        first = np.zeros((15, 4), np.float32)
        first[np.arange(15), patterns.argmax(axis=1)] = 1
        np.testing.assert_array_equal(x.grad, first.reshape(15, 1, 2, 2) * g)

    def test_non_contiguous_input_with_ties(self):
        rng = RNG(11)
        # few distinct positive levels, so many windows hold ties
        data = batch_innermost(rng.integers(1, 4, size=(2, 3, 7, 6)).astype(np.float64))
        assert not data.flags.c_contiguous
        x = T.Tensor(data, requires_grad=True)
        g = rng.normal(size=(2, 3, 3, 3))
        out = pool_through_identity(x)
        T.sum_all(T.mul(out, T.Tensor(g))).backward()
        np.testing.assert_array_equal(out.data, data[:, :, :6, :6].reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5)))
        upsampled = np.zeros(data.shape)
        upsampled[:, :, :6, :6] = g.repeat(2, axis=2).repeat(2, axis=3)
        np.testing.assert_array_equal(x.grad, first_max_mask(data) * upsampled)


class TestActivations:
    def test_fixed_points(self):
        z = T.Tensor(np.zeros(3))
        assert T.sigmoid(z).data[0] == 0.5
        assert T.tanh(z).data[0] == 0.0
        np.testing.assert_array_equal(T.relu(T.Tensor(np.array([-2.0, 0.0, 3.0]))).data, [0.0, 0.0, 3.0])

    def test_softmax_of_zeros_is_uniform(self):
        out = T.softmax_rows(T.Tensor(np.zeros((2, 4))))
        np.testing.assert_array_equal(out.data, np.full((2, 4), 0.25))

    def test_softmax_rows_sum_to_one(self):
        out = T.softmax_rows(T.Tensor(RNG(9).normal(size=(3, 5)) * 4))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_gradchecks(self):
        rng = RNG(10)
        x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 5)))
        fd_check(lambda: weighted_sum(T.softmax_rows(x), w), [x])
        fd_check(lambda: weighted_sum(T.tanh(x), w), [x])
        fd_check(lambda: weighted_sum(T.sigmoid(x), w), [x])
        # keep values away from the relu kink so differences are two-sided
        xr = T.Tensor(np.where(np.abs(x.data) < 1e-2, 0.5, x.data), requires_grad=True)
        fd_check(lambda: weighted_sum(T.relu(xr), w), [xr])

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        out = T.sigmoid(T.Tensor(np.array([-1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_equal_two_branch_formula(self, dtype):
        """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, evaluated
        on each side with masked indexing, bit for bit."""
        special = [0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, 88.0, -88.0, -104.0, -745.0, 1e-30, -1e-30]
        z = np.concatenate([special, np.linspace(-120, 120, 2401), RNG(15).normal(size=500) * 30])
        z = z.astype(dtype)
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        got = T.sigmoid(T.Tensor(z)).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(f"u{z.itemsize}"), expected.view(f"u{z.itemsize}"))
        assert np.isnan(T.sigmoid(T.Tensor(np.array([np.nan], dtype))).data[0])


class TestConcatAndShapes:
    def test_concat_128_plus_128(self):
        a = T.Tensor(np.zeros(128, np.float32))
        b = T.Tensor(np.ones(128, np.float32))
        assert T.concat([a, b]).shape == (256,)

    def test_concat_single_part_identity(self):
        a = T.Tensor(RNG(11).normal(size=(3, 4)))
        np.testing.assert_array_equal(T.concat([a], axis=0).data, a.data)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4)))], axis=0)

    def test_concat_gradcheck(self):
        rng = RNG(12)
        a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 5)))
        fd_check(lambda: weighted_sum(T.concat([a, b], axis=1), w), [a, b])

    def test_slice_rows_gradcheck(self):
        rng = RNG(13)
        x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 3)))
        fd_check(lambda: weighted_sum(T.slice_rows(x, 2, 4), w), [x])

    def test_stack_gradcheck(self):
        rng = RNG(16)
        parts = [T.Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        w = T.Tensor(rng.normal(size=(4, 2, 3)))
        out = T.stack(parts)
        np.testing.assert_array_equal(out.data, np.stack([p.data for p in parts]))
        fd_check(lambda: weighted_sum(T.stack(parts), w), parts)

    def test_stack_mismatch(self):
        with pytest.raises(ShapeError):
            T.stack([T.Tensor(np.zeros(2)), T.Tensor(np.zeros(3))])
        with pytest.raises(ShapeError):
            T.stack([])

    def test_unstack_gradcheck(self):
        rng = RNG(17)
        x = T.Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        w = [T.Tensor(rng.normal(size=(2, 4))) for _ in range(3)]
        rows = T.unstack(x)
        assert [r.shape for r in rows] == [(2, 4)] * 3
        np.testing.assert_array_equal(np.stack([r.data for r in rows]), x.data)
        # two of the three rows reach the loss, one of them twice
        fd_check(lambda: (lambda r: weighted_sum(r[0], w[0]) + weighted_sum(r[2], w[2])
                          + weighted_sum(r[2], w[1]))(T.unstack(x)), [x])

    def test_reshape_swap_roundtrip(self):
        rng = RNG(14)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 4, 3)))
        fd_check(lambda: weighted_sum(T.swap_last_axes(x), w), [x])
        fd_check(lambda: weighted_sum(T.reshape(x, (6, 4)), T.reshape(w, (6, 4))), [x])

    def test_transpose_gradcheck(self):
        rng = RNG(15)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 4, 2)))
        out = T.transpose(x, (1, 2, 0))
        np.testing.assert_array_equal(out.data, x.data.transpose(1, 2, 0))
        fd_check(lambda: weighted_sum(T.transpose(x, (1, 2, 0)), w), [x])


class TestFc:
    def test_vector_and_batch_agree(self):
        rng = RNG(15)
        W = T.Tensor(rng.normal(size=(4, 6)))
        b = T.Tensor(rng.normal(size=4))
        xs = rng.normal(size=(3, 6))
        batched = T.fc(T.Tensor(xs), W, b).data
        for i in range(3):
            np.testing.assert_allclose(T.fc(T.Tensor(xs[i]), W, b).data, batched[i], rtol=1e-6)

    def test_gradcheck(self):
        rng = RNG(16)
        x = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        W = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = T.Tensor(rng.normal(size=4), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 4)))
        fd_check(lambda: weighted_sum(T.fc(x, W, b), w), [x, W, b])


class TestBackwardSemantics:
    def test_fanout_accumulates(self):
        x = T.Tensor(np.array(3.0), requires_grad=True)
        y = x + x
        y.backward()
        assert x.grad == 2.0

    def test_shared_subexpression_equals_duplicated_graph(self):
        rng = RNG(17)
        data = rng.normal(size=(3, 3))
        w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

        x = T.Tensor(data, requires_grad=True)
        shared = T.tanh(x)
        loss = T.sum_all(T.mul(shared, T.Tensor(w1)) + T.mul(shared, T.Tensor(w2)))
        loss.backward()
        shared_grad = x.grad.copy()

        xa = T.Tensor(data, requires_grad=True)
        la = T.sum_all(T.mul(T.tanh(xa), T.Tensor(w1)))
        la.backward()
        xb = T.Tensor(data, requires_grad=True)
        lb = T.sum_all(T.mul(T.tanh(xb), T.Tensor(w2)))
        lb.backward()
        np.testing.assert_allclose(shared_grad, xa.grad + xb.grad, rtol=1e-12)

    def test_no_grad_records_no_graph(self):
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                out = T.tanh(w @ w)
                raise RuntimeError("leaves the block early")
        assert not out.requires_grad and out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, np.tanh(np.full((2, 2), 2.0)))
        T.sum_all(T.tanh(w @ w)).backward()  # recording resumes after the block
        assert w.grad is not None

    def test_backward_rejects_non_scalar(self):
        with pytest.raises(UsageError):
            T.Tensor(np.zeros((2, 2)), requires_grad=True).backward()

    def test_graph_trace_is_topological(self):
        rng = RNG(18)
        a = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = T.tanh(a)
        c = T.mul(b, b) + b
        loss = T.sum_all(c)
        order = {id(n): i for i, n in enumerate(T.Graph.trace(loss).nodes)}
        for node in T.Graph.trace(loss).nodes:
            for parent in node._parents:
                assert order[id(parent)] < order[id(node)]

    def test_dtype_is_preserved(self):
        x32 = T.Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        assert T.tanh(x32).dtype == np.float32
        assert (x32 * 0.5).dtype == np.float32
        x64 = T.Tensor(np.ones((2, 2), np.float64))
        assert T.sigmoid(x64).dtype == np.float64

    def test_invariant_data_matches_shape(self):
        t = T.Tensor(np.zeros((3, 4)))
        assert t.size == 12 and t.shape == (3, 4)
        t2 = T.Tensor(np.ones((3, 4)), requires_grad=True)
        T.sum_all(t2).backward()
        assert t2.grad.shape == t2.shape


class TestRunShards:
    """The two-way shard runner, its gate, worker context and failures."""

    BIG = T._SHARD_MIN_VALUES  # the smallest per-item size that shards

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def blas_threads(self):
        """The BLAS thread-count getter, with the count set to 2 for the
        test and set back after it."""
        if T._blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count calls")
        get, set_ = T._blas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def no_worker(monkeypatch):
        """Fail the test if a shard worker is asked for."""
        monkeypatch.setattr(T, "_shard_worker", lambda: pytest.fail("a shard worker was asked for"))

    def test_split_at_half_rounded_up(self):
        calls, threads = [], set()

        def task(lo, hi):
            assert T._sink.get() is not None  # each shard has a gradient sink
            calls.append((lo, hi))
            threads.add(threading.get_ident())
            return hi - lo

        assert T.run_shards(task, 5, self.BIG) == [3, 2]
        assert sorted(calls) == [(0, 3), (3, 5)] and len(threads) == 2
        assert T._sink.get() is None  # each shard's sink lived in a context of its own

    def test_below_the_gate_one_call_and_no_worker(self, monkeypatch):
        self.no_worker(monkeypatch)
        threads = threading.active_count()
        task = lambda lo, hi: (lo, hi)  # noqa: E731
        assert T.run_shards(task, 8, self.BIG - 1) == [(0, 8)]
        assert T.run_shards(task, 1, 10 * self.BIG) == [(0, 1)]
        assert threading.active_count() == threads

    def test_on_one_cpu_this_thread_runs_the_halves_in_turn(self, monkeypatch, blas_threads):
        """The split is the batch's, not the machine's: each half runs in a
        context of its own, at the BLAS thread count it finds, and the
        first half's gradients are added before the second's."""
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        self.no_worker(monkeypatch)
        threads, calls = threading.active_count(), []

        def task(lo, hi):
            assert T._sink.get() == {}  # a fresh sink per half
            calls.append((lo, hi, threading.get_ident(), blas_threads()))
            return hi - lo

        assert T.run_shards(task, 5, self.BIG) == [3, 2]
        assert calls == [(0, 3, threading.get_ident(), 2), (3, 5, threading.get_ident(), 2)]
        assert T._sink.get() is None and threading.active_count() == threads and blas_threads() == 2
        weights = RNG(0).normal(size=(5, 4))
        p = T.Tensor(RNG(1).normal(size=4), requires_grad=True)
        T.run_shards(self.weighted_task(p, weights), 5, self.BIG)
        assert np.array_equal(p.grad, weights[:3].sum(axis=0) + weights[3:].sum(axis=0))

    def test_one_worker_thread_reused(self):
        T.run_shards(lambda lo, hi: None, 2, self.BIG)
        threads = threading.active_count()
        for _ in range(5):
            T.run_shards(lambda lo, hi: threading.get_ident(), 2, self.BIG)
        assert threading.active_count() == threads

    def test_a_shard_gets_the_band_buffer_of_an_unsharded_call(self, monkeypatch):
        """The band budget belongs to one conv2d call, wherever it runs: a
        one-sample conv2d asks for the same 4-row band buffer in each shard
        as on the caller outside run_shards."""
        x, k, b = RNG(0).normal(size=(2, 3, 8, 5)), RNG(1).normal(size=(4, 3, 3, 3)), np.zeros(4)
        four_rows = band_bytes(4, 3, 4, 1, 3, 5, 8)  # windows of 4 output rows of one float64 sample
        monkeypatch.setattr(T, "_BAND_BYTES", four_rows)
        requests = record_band_buffers(monkeypatch)
        conv = lambda lo, hi: T.conv2d(T.Tensor(x[lo:hi]), T.Tensor(k), T.Tensor(b)).data  # noqa: E731
        whole = np.concatenate([conv(0, 1), conv(1, 2)])
        shards = T.run_shards(conv, 2, self.BIG)
        assert requests == [four_rows] * 4  # one band buffer per forward, outside and inside
        np.testing.assert_allclose(np.concatenate(shards), whole, rtol=1e-12, atol=0)

    def test_a_shard_that_shards_again_runs_its_halves_in_turn(self, blas_threads):
        """The worker would otherwise wait on a job queued behind itself.
        The inner halves' gradients go to the outer shard's sink, so the
        leaf gets the sum of all four, exactly, with integer weights."""
        weights = RNG(2).integers(-9, 10, size=(4, 3)).astype(np.float64)
        p = T.Tensor(RNG(3).normal(size=3), requires_grad=True)

        def inner(lo, hi):
            T.sum_all(T.mul(p, T.Tensor(weights[lo:hi]))).backward()
            return lo, hi, threading.get_ident(), blas_threads()

        def outer(lo, hi):
            halves = T.run_shards(inner, 4, self.BIG)
            assert p.grad is None  # until the outer merge
            return [(lo_, hi_, thread == threading.get_ident(), count) for lo_, hi_, thread, count in halves]

        assert T.run_shards(outer, 2, self.BIG) == [[(0, 2, True, 1), (2, 4, True, 1)]] * 2
        np.testing.assert_array_equal(p.grad, 2 * weights.sum(axis=0))
        assert blas_threads() == 2

    def test_a_second_caller_runs_its_halves_in_turn(self, blas_threads):
        """A thread that calls run_shards while a sharded call is running
        runs both halves itself, on the one BLAS thread that call holds;
        the BLAS count ends where it began."""
        inner = lambda lo, hi: (lo, hi, threading.get_ident(), blas_threads())  # noqa: E731
        seen = []

        def outer(lo, hi):
            if lo == 0:
                thread = threading.Thread(target=lambda: seen.append((threading.get_ident(),
                                                                      T.run_shards(inner, 4, self.BIG))))
                thread.start()
                thread.join(30)
                assert not thread.is_alive()
            return lo

        assert T.run_shards(outer, 2, self.BIG) == [0, 1]
        [(caller, halves)] = seen
        assert halves == [(0, 2, caller, 1), (2, 4, caller, 1)]
        assert blas_threads() == 2

    def test_worker_inherits_grad_mode_and_error_state(self):
        x = T.Tensor(np.ones(3), requires_grad=True)

        def task(lo, hi):
            return (x * 2.0).requires_grad, np.geterr()["divide"]

        with T.no_grad(), np.errstate(divide="raise"):
            assert T.run_shards(task, 2, self.BIG) == [(False, "raise")] * 2
        assert T.run_shards(task, 2, self.BIG)[1] == (True, np.geterr()["divide"])

    @staticmethod
    def weighted_task(p, weights):
        def task(lo, hi):
            T.sum_all(T.mul(p, T.Tensor(weights[lo:hi]))).backward()
            return lo

        return task

    def test_worker_gradients_added_after_the_callers(self):
        weights = RNG(0).normal(size=(5, 4))
        p = T.Tensor(RNG(1).normal(size=4), requires_grad=True)
        T.run_shards(self.weighted_task(p, weights), 5, self.BIG)
        assert np.array_equal(p.grad, weights[:3].sum(axis=0) + weights[3:].sum(axis=0))

    @pytest.mark.parametrize("route", ["slice_rows", "unstack"])
    def test_indexed_gradients_wait_in_the_sink_until_the_merge(self, route):
        """A leaf reached only through row views adds each shard's row
        gradients into that shard's sink, not into ``.grad``; the merge then
        gives it the gradient of the unsharded call. Integer weights make
        every sum exact, whatever its order."""
        weights = RNG(2).integers(-9, 10, size=(5, 4, 3)).astype(np.float64)
        p = T.Tensor(RNG(3).normal(size=(4, 3)), requires_grad=True)
        before_merge = []

        def backward(lo, hi):
            rows = [T.slice_rows(p, 1, 3)] if route == "slice_rows" else T.unstack(p)[1:3]
            picked = weights[lo:hi, 1:3].sum(axis=0)
            loss = T.sum_all(T.mul(rows[0], T.Tensor(picked if route == "slice_rows" else picked[0])))
            if route == "unstack":
                loss = loss + T.sum_all(T.mul(rows[1], T.Tensor(picked[1])))
            loss.backward()

        def task(lo, hi):
            backward(lo, hi)
            before_merge.append((p.grad, T._sink.get()[p].copy()))

        backward(0, 5)
        whole, p.grad = p.grad, None
        T.run_shards(task, 5, self.BIG)
        assert [grad for grad, _ in before_merge] == [None, None]
        np.testing.assert_array_equal(before_merge[0][1] + before_merge[1][1], whole)
        np.testing.assert_array_equal(p.grad, whole)
        assert not whole[[0, 3]].any() and whole[1:3].any()

    def test_concurrent_backwards_lose_no_update(self):
        """Both shards add into one leaf many times while the interpreter
        switches threads as often as it can. The leaf is large, so numpy
        releases the lock inside each add: two adds into one array at once
        would lose updates. Every add lands."""
        p = T.Tensor(np.zeros(1 << 20), requires_grad=True)

        def task(lo, hi):
            loss = T.sum_all(p)
            for _ in range(lo, hi):
                loss = loss + T.sum_all(p)
            loss.backward()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                p.zero_grad()
                T.run_shards(task, 60, self.BIG)
                assert (p.grad == 62.0).all()  # one more add per shard
        finally:
            sys.setswitchinterval(interval)

    def test_without_blas_thread_calls_the_halves_run_in_turn(self, monkeypatch):
        """Two threads would then oversubscribe the cores: the calling
        thread runs both halves."""
        monkeypatch.setattr(T, "_blas_threads", lambda: None)
        self.no_worker(monkeypatch)
        threads, callers = threading.active_count(), []
        assert T.run_shards(lambda lo, hi: callers.append(threading.get_ident()) or (lo, hi),
                            5, self.BIG) == [(0, 3), (3, 5)]
        assert callers == [threading.get_ident()] * 2
        assert threading.active_count() == threads

    def test_worker_exception_reaches_the_caller(self):
        def task(lo, hi):
            if lo:
                raise ShapeError("worker shard")
            return lo

        with pytest.raises(ShapeError, match="worker shard"):
            T.run_shards(task, 4, self.BIG)
        assert T._sink.get() is None

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_call_after_a_failed_one_shards_again(self, failing):
        def task(lo, hi):
            if failing == ("worker" if lo else "caller"):
                raise ShapeError(failing)

        with pytest.raises(ShapeError, match=failing):
            T.run_shards(task, 4, self.BIG)
        assert T.run_shards(lambda lo, hi: (lo, hi), 4, self.BIG) == [(0, 2), (2, 4)]
        assert T._sink.get() is None

    @pytest.mark.parametrize("failing", [None, "caller", "worker"])
    def test_blas_threads_held_at_one_then_restored(self, blas_threads, failing):
        seen = []

        def task(lo, hi):
            if failing == ("worker" if lo else "caller"):
                raise ShapeError(failing)
            time.sleep(0.05)  # a failing caller must still wait for the worker
            seen.append(blas_threads())

        try:
            T.run_shards(task, 4, self.BIG)
        except ShapeError as exc:
            assert str(exc) == failing
        else:
            assert failing is None
        assert seen == [1] * (2 - (failing is not None))
        assert blas_threads() == 2


def lstm_on(shape):
    """lstm_sequence over zeros of ``shape`` (R, B, 3), hidden width 2."""
    p = LstmParams(**{f"{kind}_{gate}": T.Tensor(np.zeros({"W": (2, 3), "U": (2, 2), "b": (2,)}[kind]))
                      for kind in "WUb" for gate in "fioc"})
    return lstm_sequence(T.Tensor(np.zeros(shape)), p)


@pytest.mark.parametrize("call", [
    lambda: T.conv2d(T.Tensor(np.zeros((0, 1, 4, 4))), T.Tensor(np.zeros((2, 1, 3, 3))), T.Tensor(np.zeros(2))),
    lambda: T.conv2d(T.Tensor(np.zeros((0, 1, 4, 4))), T.Tensor(np.zeros((2, 1, 3, 3))), T.Tensor(np.zeros(2)),
                     pool=True),
    lambda: lstm_on((0, 2, 3)),
    lambda: T.mean_all(T.Tensor(np.zeros((0, 3)))),
    lambda: T.softmax_rows(T.Tensor(np.zeros((3, 0)))),
    lambda: bce_with_logits_loss(T.Tensor(np.zeros((0, 4))), np.zeros((0, 4))),
], ids=["conv2d-no-samples", "pooled-conv2d-no-samples", "lstm-no-steps", "mean-of-nothing", "softmax-of-empty-rows",
        "bce-of-no-scores"])
def test_empty_input_is_a_shape_error(call):
    """Not a bare ZeroDivisionError or reshape ValueError, nor a NaN loss."""
    with pytest.raises(ShapeError):
        call()
