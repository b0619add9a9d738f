"""Classifier head: scores, posteriors, losses, thresholding."""

import numpy as np
import pytest

from mrscene import tensor as T
from mrscene.errors import ConfigError
from mrscene.gradcheck import numeric_gradient, relative_error
from mrscene.head import bce_with_logits_loss, classify, posteriors, predict, vectorize_pooled
from mrscene.tensor import Tensor


def clamped_bce(p, y, eps=1e-7):
    """Definitional mean binary cross-entropy of probabilities p, clamped
    to [eps, 1-eps]: the oracle for the logit-space training loss."""
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def logit(p):
    return np.log(p) - np.log1p(-p)


class TestClassify:
    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(0)
        pooled = Tensor(rng.normal(size=(6, 2)))
        bias = rng.normal(size=4)
        scores = classify(pooled, Tensor(np.zeros((4, 12))), Tensor(bias))
        np.testing.assert_array_equal(scores.data, bias)

    def test_vectorization_is_column_major(self):
        pooled = Tensor(np.arange(6.0).reshape(3, 2))  # columns [0,2,4] and [1,3,5]
        np.testing.assert_array_equal(vectorize_pooled(pooled).data, [0, 2, 4, 1, 3, 5])

    def test_default_geometry_input_width(self):
        # descriptor width 256 with 4 attention heads feeds a 1024-wide classifier
        rng = np.random.default_rng(1)
        pooled = Tensor(rng.normal(size=(256, 4)))
        w = Tensor(rng.normal(size=(43, 1024)) * 0.01)
        b = Tensor(np.zeros(43))
        assert classify(pooled, w, b).shape == (43,)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        pooled = rng.normal(size=(5, 6, 2))
        w = Tensor(rng.normal(size=(3, 12)))
        b = Tensor(rng.normal(size=3))
        batched = classify(Tensor(pooled), w, b).data
        for i in range(5):
            np.testing.assert_allclose(batched[i], classify(Tensor(pooled[i]), w, b).data, atol=1e-12)


class TestPosteriors:
    def test_zero_logit_is_half(self):
        assert posteriors(Tensor(np.zeros(3))).data[0] == 0.5

    def test_monotone_toward_one(self):
        grid = posteriors(Tensor(np.linspace(-20, 20, 101))).data
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] > 0.999999

    def test_frozen_values(self):
        p = posteriors(Tensor(np.array([-1.0, 2.0]))).data
        np.testing.assert_allclose(p, [0.2689414213699951, 0.8807970779778823], atol=1e-15)


class TestBceLoss:
    """Values of the mean binary cross-entropy, on the training loss
    bce_with_logits_loss."""

    def test_perfect_prediction_is_near_zero(self):
        y = np.array([1.0, 0.0, 1.0])
        loss = bce_with_logits_loss(Tensor(np.where(y > 0, 40.0, -40.0)), y)
        assert 0.0 <= loss.item() <= 2e-7

    def test_half_everywhere_is_log_two(self):
        loss = bce_with_logits_loss(Tensor(np.zeros(8)), np.zeros(8))
        np.testing.assert_allclose(loss.item(), np.log(2), atol=1e-12)

    def test_hand_case(self):
        loss = bce_with_logits_loss(Tensor(logit(np.array([0.9, 0.2]))), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 0.164252033486018, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(size=6) * 5
            y = rng.integers(0, 2, size=6).astype(float)
            assert bce_with_logits_loss(Tensor(z), y).item() >= 0.0

    def test_gradient_through_posteriors_is_closed_form(self):
        # d/dz mean BCE(sigmoid(z), y) = (sigmoid(z) - y) / n
        rng = np.random.default_rng(4)
        z = Tensor(rng.normal(size=8), requires_grad=True)
        y = rng.integers(0, 2, size=8).astype(np.float64)
        bce_with_logits_loss(z, y).backward()
        np.testing.assert_allclose(z.grad, (posteriors(z).data - y) / 8, rtol=0, atol=1e-10)


class TestBceWithLogits:
    def test_matches_clamped_composite(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 6)) * 3
        y = rng.integers(0, 2, size=(4, 6)).astype(np.float64)
        fused = bce_with_logits_loss(Tensor(z), y).item()
        np.testing.assert_allclose(fused, clamped_bce(posteriors(Tensor(z)).data, y), rtol=1e-10)

    def test_stable_at_extreme_logits(self):
        z = np.array([800.0, -800.0])
        y = np.array([1.0, 0.0])
        assert bce_with_logits_loss(Tensor(z), y).item() < 1e-12
        wrong = bce_with_logits_loss(Tensor(z), 1.0 - y).item()
        assert np.isfinite(wrong) and wrong > 100

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        z = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
        loss_fn = lambda: bce_with_logits_loss(z, y)
        loss_fn().backward()
        numeric = numeric_gradient(lambda: loss_fn().item(), z)
        assert relative_error(z.grad, numeric) < 1e-4


class TestPredict:
    def test_threshold_boundary_inclusive(self):
        np.testing.assert_array_equal(predict(np.array([0.49, 0.5, 0.51]), 0.5), [0, 1, 1])

    def test_hand_case(self):
        np.testing.assert_array_equal(predict(np.array([0.9, 0.2, 0.7]), 0.5), [1, 0, 1])

    def test_high_threshold_can_empty_prediction(self):
        assert predict(np.array([0.9, 0.95]), 0.99).sum() == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, size=16)
        prev = predict(p, 0.05)
        for t in np.linspace(0.1, 0.95, 18):
            cur = predict(p, float(t))
            assert np.all(cur <= prev)  # raising threshold never adds labels
            prev = cur

    def test_invalid_threshold(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                predict(np.array([0.5]), bad)
