"""The gradient-check harness itself, including a corrupted-backward control."""

import numpy as np
import pytest

from mrscene import tensor as T
from mrscene.gradcheck import (
    DEFAULT_STEP,
    MAX_REDRAWS,
    check_model_gradients,
    check_module_gradients,
    check_parameters,
    check_with_redraws,
    numeric_gradient,
    relative_error,
    shrunken_config,
)
from mrscene.tensor import Tensor, _accumulate


class TestPrimitives:
    def test_numeric_gradient_of_quadratic(self):
        t = Tensor(np.array([1.0, -2.0, 3.0]))
        grad = numeric_gradient(lambda: float((t.data**2).sum()), t)
        np.testing.assert_allclose(grad, 2 * t.data, atol=1e-8)

    def test_relative_error_floors_small_gradients(self):
        assert relative_error(np.array([1e-9]), np.array([2e-9])) < 1e-4
        assert relative_error(np.array([10.0]), np.array([10.001])) < 1e-4
        assert relative_error(np.array([10.0]), np.array([11.0])) > 1e-2

    def test_check_parameters_report(self):
        w = Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
        report = check_parameters(lambda: T.sum_all(T.mul(w, w)), {"w": w}, label="square")
        assert report.passed
        assert report.entries[0].n_elements == 9
        assert "square" in report.format()


class TestRedraws:
    """check_with_redraws draws a new point while every failure straddles a
    kink, and fails a wrong analytic gradient at once."""

    @staticmethod
    def relu_sweeps(points, draws):
        """A sweep of relu(x) at points[draw], recording each draw."""

        def sweep(draw):
            draws.append(draw)
            x = Tensor(np.array([points[draw]]), requires_grad=True)
            return check_parameters(lambda: T.sum_all(T.relu(x)), {"x": x}, label="relu")

        return sweep

    def test_a_kink_within_a_step_is_redrawn(self):
        """At x = step/2 the central difference reads 0.75 against a slope
        of 1; at x = 0.3 it is exact."""
        draws = []
        report = check_with_redraws(self.relu_sweeps([DEFAULT_STEP / 2, 0.3], draws))
        assert draws == [0, 1]
        assert report.passed and report.redraws == 1
        assert "redraws 1" in report.format()

    def test_a_kink_at_every_draw_fails_after_the_last_redraw(self):
        draws = []
        report = check_with_redraws(self.relu_sweeps([DEFAULT_STEP / 2] * (MAX_REDRAWS + 1), draws))
        assert draws == list(range(MAX_REDRAWS + 1))
        assert not report.passed and report.redraws == MAX_REDRAWS
        assert report.entries[0].unexplained == 0

    def test_a_wrong_gradient_fails_at_once(self):
        """x * x whose backward is 1% too large, at points far from any
        kink."""
        draws = []

        def sweep(draw):
            draws.append(draw)
            x = Tensor(np.array([0.3, -0.7]), requires_grad=True)

            def wrong_square():
                def _bw(g):
                    _accumulate(x, 2.02 * g * x.data)

                return Tensor(x.data * x.data, _parents=(x,), _backward=_bw, _op="square")

            return check_parameters(lambda: T.sum_all(wrong_square()), {"x": x}, label="square")

        report = check_with_redraws(sweep)
        assert draws == [0]
        assert not report.passed and report.redraws == 0
        assert report.entries[0].unexplained == 2
        assert "2 off a kink" in report.format()


class TestModuleChecks:
    def test_all_modules_pass(self):
        reports = check_module_gradients(seed=0)
        assert {r.label for r in reports} == {"conv2d", "maxpool2", "fc", "lstm_cell", "attention", "loss"}
        for report in reports:
            assert report.passed, report.format()
            assert report.max_rel_err < 1e-6  # far below tolerance, not borderline


class TestEndToEnd:
    def test_shrunken_model_passes(self):
        report = check_model_gradients(seed=0)
        assert report.passed, report.format()
        names = {e.name for e in report.entries}
        model_params = shrunken_config()
        assert len(names) > 20  # every parameter tensor is swept
        assert any(n.startswith("lstm.fwd") for n in names)
        assert any(n.startswith("attention") for n in names)
        assert model_params.n_classes == 3

    def test_corrupted_backward_rule_fails(self, monkeypatch):
        """Negative control: scaling one backward rule must trip the check."""
        original = T.tanh

        def corrupt_tanh(x):
            out_data = np.tanh(x.data)

            def _bw(g):
                _accumulate(x, 1.5 * g * (1 - out_data * out_data))

            return Tensor(out_data, _parents=(x,), _backward=_bw, _op="tanh")

        monkeypatch.setattr(T, "tanh", corrupt_tanh)
        try:
            reports = check_module_gradients(seed=0)
        finally:
            monkeypatch.setattr(T, "tanh", original)
        by_label = {r.label: r for r in reports}
        assert not by_label["lstm_cell"].passed
        assert not by_label["attention"].passed
        assert by_label["fc"].passed  # rules that do not touch tanh stay green
