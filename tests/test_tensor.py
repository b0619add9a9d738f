"""Autodiff engine: forward values, backward rules, graph invariants."""

import numpy as np
import pytest

from mrscene import tensor as T
from mrscene.errors import ShapeError, UsageError
from mrscene.gradcheck import numeric_gradient, relative_error

RNG = np.random.default_rng


def fd_check(loss_builder, leaves, step=1e-5, tol=1e-4):
    """Backward gradients of the scalar loss vs central differences."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = loss_builder()
    loss.backward()
    for leaf in leaves:
        numeric = numeric_gradient(lambda: loss_builder().item(), leaf, step)
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


def batch_innermost(a):
    """The same NCHW values backed by (C, H, W, N) memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


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
        np.testing.assert_array_equal(T.conv2d(x, k, b).data, x.data)

    @pytest.mark.parametrize("kh,kw", [(3, 3), (5, 5), (2, 2)])
    def test_same_padding_preserves_spatial_size(self, kh, kw):
        rng = RNG(4)
        x = T.Tensor(rng.normal(size=(4, 2, 7, 9)))
        k = T.Tensor(rng.normal(size=(3, 2, kh, kw)))
        b = T.Tensor(rng.normal(size=3))
        assert T.conv2d(x, k, b).shape == (4, 3, 7, 9)

    def test_even_kernel_pads_top_left(self):
        # a 2x2 kernel that only reads its bottom-right tap reproduces the
        # input exactly when the extra padding sits on the top/left
        x = T.Tensor(RNG(5).normal(size=(2, 1, 4, 4)).astype(np.float32))
        k = np.zeros((1, 1, 2, 2), np.float32)
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, T.Tensor(k), T.Tensor(np.zeros(1, np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

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

    @pytest.mark.parametrize("kh,kw,h,w", [(2, 2, 1, 1), (3, 3, 1, 1), (5, 5, 2, 3), (4, 2, 1, 4)])
    def test_kernel_larger_than_map_matches_sliding_window(self, kh, kw, h, w):
        rng = RNG(9)
        x = T.Tensor(rng.normal(size=(3, 2, h, w)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(4, 2, kh, kw)), requires_grad=True)
        b = T.Tensor(rng.normal(size=4), requires_grad=True)
        np.testing.assert_allclose(T.conv2d(x, k, b).data, naive_conv(x.data, k.data, b.data),
                                   rtol=1e-12, atol=1e-12)
        w_out = T.Tensor(rng.normal(size=(3, 4, h, w)))
        fd_check(lambda: weighted_sum(T.conv2d(x, k, b), w_out), [x, k, b])

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


class TestMaxpool2:
    def test_single_window(self):
        x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        out = T.maxpool2(x)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_tie_gradient_goes_to_first_row_major(self):
        x = T.Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        loss = T.sum_all(T.maxpool2(x))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_15x15_floors_to_7x7(self):
        out = T.maxpool2(T.Tensor(np.zeros((2, 4, 15, 15), np.float32)))
        assert out.shape == (2, 4, 7, 7)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match=r"\(N,C,H,W\)"):
            T.maxpool2(T.Tensor(np.zeros((2, 4, 4))))

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            T.maxpool2(T.Tensor(np.zeros((1, 1, 1, 5))))

    def test_gradcheck_random(self):
        rng = RNG(8)
        x = T.Tensor(rng.normal(size=(2, 2, 6, 7)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 2, 3, 3)))
        fd_check(lambda: weighted_sum(T.maxpool2(x), w), [x])

    def test_all_15_tie_patterns_route_to_first_row_major_max(self):
        # window p has its maxima (1.0) at the taps whose bit is set in p+1
        patterns = np.array([[(p >> t) & 1 for t in range(4)] for p in range(1, 16)], np.float32)
        x = T.Tensor(patterns.reshape(15, 1, 2, 2), requires_grad=True)
        g = np.arange(1, 16, dtype=np.float32).reshape(15, 1, 1, 1)
        out = T.maxpool2(x)
        T.sum_all(T.mul(out, T.Tensor(g))).backward()
        np.testing.assert_array_equal(out.data, np.ones((15, 1, 1, 1)))
        first = np.zeros((15, 4), np.float32)
        first[np.arange(15), patterns.argmax(axis=1)] = 1
        np.testing.assert_array_equal(x.grad, first.reshape(15, 1, 2, 2) * g)

    def test_non_contiguous_input_with_ties(self):
        rng = RNG(11)
        # few distinct levels, so many windows hold ties
        data = batch_innermost(rng.integers(0, 3, size=(2, 3, 7, 6)).astype(np.float64))
        assert not data.flags.c_contiguous
        x = T.Tensor(data, requires_grad=True)
        g = rng.normal(size=(2, 3, 3, 3))
        out = T.maxpool2(x)
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
