"""LSTM cell against a scalar transcription; the fused sequence op against a
loop of cells; bidirectional pass structure."""

import math

import numpy as np
import pytest

from mrscene import tensor as T
from mrscene.birnn import LstmParams, bidirectional_pass, lstm_cell, lstm_sequence, make_lstm_params
from mrscene.errors import ShapeError, UsageError
from mrscene.gradcheck import numeric_gradient, relative_error
from mrscene.tensor import Tensor


def scalar_lstm_step(x, h_prev, c_prev, w, u, b):
    """Unit-by-unit transcription of the gate recurrence in plain Python.

    w/u/b map gate name -> list-of-lists / list. Returns (h, c) lists.
    """
    n_hidden = len(h_prev)

    def affine(gate, j):
        s = b[gate][j]
        for t in range(len(x)):
            s += w[gate][j][t] * x[t]
        for t in range(n_hidden):
            s += u[gate][j][t] * h_prev[t]
        return s

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_out, c_out = [], []
    for j in range(n_hidden):
        f = sig(affine("f", j))
        i = sig(affine("i", j))
        o = sig(affine("o", j))
        c = f * c_prev[j] + i * math.tanh(affine("c", j))
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return h_out, c_out


def random_params(rng, d_in, hidden, dtype=np.float64) -> LstmParams:
    def t(shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    return LstmParams(
        W_f=t((hidden, d_in)), W_i=t((hidden, d_in)), W_o=t((hidden, d_in)), W_c=t((hidden, d_in)),
        U_f=t((hidden, hidden)), U_i=t((hidden, hidden)), U_o=t((hidden, hidden)), U_c=t((hidden, hidden)),
        b_f=t(hidden), b_i=t(hidden), b_o=t(hidden), b_c=t(hidden),
    )


class TestLstmCell:
    def test_zero_parameters_zero_state_give_zero_output(self):
        p = random_params(np.random.default_rng(0), 3, 2)
        for name in vars(p):
            getattr(p, name).data[...] = 0.0
        h, c = lstm_cell(Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), p)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_cell_growth_bounded_by_one_per_step(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 4, 3)
        c = Tensor(rng.normal(size=3))
        h = Tensor(rng.normal(size=3))
        h2, c2 = lstm_cell(Tensor(rng.normal(size=4) * 5), h, c, p)
        assert np.all(np.abs(c2.data) <= np.abs(c.data) + 1.0 + 1e-12)
        assert np.all(np.abs(h2.data) < 1.0)

    @pytest.mark.parametrize("hidden", [1, 2, 4])
    def test_matches_scalar_transcription(self, hidden):
        rng = np.random.default_rng(100 + hidden)
        for _ in range(25):
            d_in = int(rng.integers(1, 5))
            p = random_params(rng, d_in, hidden)
            x = rng.normal(size=d_in)
            h_prev = rng.normal(size=hidden)
            c_prev = rng.normal(size=hidden)
            h, c = lstm_cell(Tensor(x), Tensor(h_prev), Tensor(c_prev), p)
            w = {g: getattr(p, f"W_{g}").data.tolist() for g in "fioc"}
            u = {g: getattr(p, f"U_{g}").data.tolist() for g in "fioc"}
            b = {g: getattr(p, f"b_{g}").data.tolist() for g in "fioc"}
            h_ref, c_ref = scalar_lstm_step(x.tolist(), h_prev.tolist(), c_prev.tolist(), w, u, b)
            np.testing.assert_allclose(h.data, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c.data, c_ref, rtol=0, atol=1e-12)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 4, 3)
        xs = rng.normal(size=(5, 4))
        hs = rng.normal(size=(5, 3))
        cs = rng.normal(size=(5, 3))
        hb, cb = lstm_cell(Tensor(xs), Tensor(hs), Tensor(cs), p)
        for i in range(5):
            h1, c1 = lstm_cell(Tensor(xs[i]), Tensor(hs[i]), Tensor(cs[i]), p)
            np.testing.assert_allclose(hb.data[i], h1.data, atol=1e-12)
            np.testing.assert_allclose(cb.data[i], c1.data, atol=1e-12)


def cell_loop(x, p, reverse):
    """Hidden states of one direction from a loop of lstm_cell calls."""
    zero = Tensor(np.zeros(x.shape[1:-1] + (p.hidden,), dtype=x.dtype))
    h, c = zero, zero
    steps = T.unstack(x)
    states = [None] * len(steps)
    for r in range(len(steps))[::-1] if reverse else range(len(steps)):
        h, c = lstm_cell(steps[r], h, c, p)
        states[r] = h
    return T.stack(states)


class TestLstmSequence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("steps", [1, 3, 16])
    def test_matches_unfused_cell_loop(self, steps, batch, reverse, dtype):
        """Outputs and all 13 gradients (12 parameters and the input): within
        1e-12 at 64-bit, within float32 round-off at 32-bit."""
        rng = np.random.default_rng(steps * 10 + batch)
        p = random_params(rng, 5, 3, dtype)
        x = Tensor(rng.normal(size=(steps, batch, 5)).astype(dtype), requires_grad=True)
        weights = Tensor(rng.normal(size=(steps, batch, 3)).astype(dtype))
        leaves = dict(p.named("p"), x=x)
        tol = 1e-12 if dtype == np.float64 else 16 * np.finfo(np.float32).eps

        results = []
        for run in (lambda: lstm_sequence(x, p, reverse), lambda: cell_loop(x, p, reverse)):
            for t in leaves.values():
                t.zero_grad()
            out = run()
            T.sum_all(T.mul(out, weights)).backward()
            results.append((out.data, {name: t.grad.copy() for name, t in leaves.items()}))
        (fused, fused_grads), (loop, loop_grads) = results

        assert fused.shape == (steps, batch, 3) and fused.dtype == dtype
        np.testing.assert_allclose(fused, loop, rtol=0, atol=tol)
        for name, ref in loop_grads.items():
            scale = max(1.0, float(np.abs(ref).max()))
            assert fused_grads[name].dtype == dtype
            np.testing.assert_allclose(fused_grads[name], ref, rtol=0, atol=tol * scale, err_msg=name)

    def test_one_node_per_direction(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, 4, 3)
        x = Tensor(rng.normal(size=(6, 2, 4)), requires_grad=True)
        out = lstm_sequence(x, p)
        assert out._op == "lstm_sequence" and set(out._parents) == {x, *vars(p).values()}

    def test_unbatched_sequence_matches_batch_of_one(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, 4, 3)
        xs = rng.normal(size=(5, 4))
        for reverse in (False, True):
            np.testing.assert_array_equal(lstm_sequence(Tensor(xs), p, reverse).data,
                                          lstm_sequence(Tensor(xs[:, None]), p, reverse).data[:, 0])

    def test_input_width_must_match(self):
        p = random_params(np.random.default_rng(12), 4, 3)
        with pytest.raises(ShapeError):
            lstm_sequence(Tensor(np.zeros((5, 2, 3))), p)
        with pytest.raises(ShapeError):
            lstm_sequence(Tensor(np.zeros(4)), p)


class TestBidirectionalPass:
    def test_single_element_sequence(self):
        rng = np.random.default_rng(3)
        fwd = random_params(rng, 4, 3)
        bwd = random_params(rng, 4, 3)
        x = Tensor(rng.normal(size=4))
        (phi,) = bidirectional_pass([x], fwd, bwd)
        zero = Tensor(np.zeros(3))
        hf, _ = lstm_cell(x, zero, zero, fwd)
        hb, _ = lstm_cell(x, zero, zero, bwd)
        np.testing.assert_array_equal(phi.data, np.concatenate([hf.data, hb.data]))

    def test_output_width_is_twice_hidden(self):
        rng = np.random.default_rng(4)
        fwd = random_params(rng, 16, 128)
        bwd = random_params(rng, 16, 128)
        seq = [Tensor(rng.normal(size=16)) for _ in range(4)]
        outs = bidirectional_pass(seq, fwd, bwd)
        assert all(phi.shape == (256,) for phi in outs)

    def test_reversal_with_swapped_directions(self):
        """Running on the reversed sequence with swapped parameter sets
        yields the original outputs reversed with halves swapped, exactly."""
        rng = np.random.default_rng(5)
        fwd = random_params(rng, 6, 4)
        bwd = random_params(rng, 6, 4)
        seq = [Tensor(rng.normal(size=6)) for _ in range(5)]
        base = bidirectional_pass(seq, fwd, bwd)
        flipped = bidirectional_pass(seq[::-1], bwd, fwd)
        for r in range(5):
            got = flipped[4 - r].data
            swapped = np.concatenate([got[4:], got[:4]])
            np.testing.assert_array_equal(base[r].data, swapped)

    def test_every_output_depends_on_every_input(self):
        rng = np.random.default_rng(6)
        fwd = random_params(rng, 3, 2)
        bwd = random_params(rng, 3, 2)
        seq = [Tensor(rng.normal(size=3), requires_grad=True) for _ in range(4)]
        for r in range(4):
            for x in seq:
                x.zero_grad()
            outs = bidirectional_pass(seq, fwd, bwd)
            T.sum_all(outs[r]).backward()
            for s, x in enumerate(seq):
                assert x.grad is not None and np.any(x.grad != 0), (r, s)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, 3, 2)
        with pytest.raises(UsageError):
            bidirectional_pass([], p, p)

    def test_gradcheck_end_to_end(self):
        rng = np.random.default_rng(9)
        fwd = random_params(rng, 3, 2)
        bwd = random_params(rng, 3, 2)
        seq_data = rng.normal(size=(3, 3))
        weights = Tensor(rng.normal(size=(3, 4)))
        leaves = {f"fwd.{n}": t for n, t in fwd.named("fwd")}
        leaves.update({f"bwd.{n}": t for n, t in bwd.named("bwd")})

        def loss_fn():
            seq = [Tensor(seq_data[i]) for i in range(3)]
            outs = bidirectional_pass(seq, fwd, bwd)
            stacked = T.concat([T.reshape(o, (1, 4)) for o in outs], axis=0)
            return T.sum_all(T.mul(stacked, weights))

        for t in leaves.values():
            t.zero_grad()
        loss = loss_fn()
        loss.backward()
        for name, t in leaves.items():
            numeric = numeric_gradient(lambda: loss_fn().item(), t)
            assert relative_error(t.grad, numeric) < 1e-4, name
