"""Correctness checks of the benchmark's outputs.

Every check compares against an independent computation or a property
of the method, never against a stored copy of an earlier output. Each
returns True when the output is right; the runner counts a False as a
failed operation.
"""

import numpy as np

from mrscene import Model
from mrscene.head import bce_with_logits_loss

import reference

# The program's gradcheck measure: |a - n| / max(1, |a| + |n|) < 1e-4.
GRADCHECK_TOLERANCE = 1e-4
# A step of 1e-5 moves thousands of the BigEarthNet-shaped model's ReLU and
# max-pool inputs across a kink and misses by up to 1e-3; at 1e-9 the
# measured error is below 1e-6 on both profiles, float64 rounding included.
DIRECTION_STEP = 1e-9
# Standard deviation of the seeded values given to all-zero parameters (the
# biases) in the directional check's float64 copy and in the eval model.
BIAS_SCALE = 0.01
# Float32 posteriors against the float64 reference and against batch 1,
# and attention row sums against 1: measured gaps stay below 1.2e-7 on both
# profiles, so 1e-6 leaves room for BLAS blocking changes while a 1e-4
# shift of a logit still fails.
POSTERIOR_TOLERANCE = 1e-6
ROW_SUM_TOLERANCE = 1e-6


def gradient_agrees(analytic: float, numeric: float) -> bool:
    return abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric)) < GRADCHECK_TOLERANCE


def with_seeded_biases(arrays: dict, rng) -> dict:
    """``arrays`` with every all-zero array (the zero-initialised biases)
    replaced by seeded float64 values of standard deviation BIAS_SCALE."""
    return {name: BIAS_SCALE * rng.standard_normal(a.shape) if not a.any() else a for name, a in arrays.items()}


def directional_derivative(model, arrays, targets, seed: int) -> tuple:
    """(gradients, direction, numeric) of the batch loss along a seeded direction.

    Both sides use a float64 copy of ``model`` whose zero-initialised
    biases are moved to small seeded values, so that every parameter's
    gradient is checked and no pre-activation sits exactly on its ReLU
    kink. ``gradients`` are ``loss.backward()``'s at that point,
    ``direction`` draws every parameter entry, and ``numeric`` is the
    central difference of two forward passes along it.
    """
    copy = Model(model.config, seed=0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    base = with_seeded_biases({name: p.data.astype(np.float64) for name, p in model.parameters.items()}, rng)
    direction = {name: rng.standard_normal(value.shape) for name, value in base.items()}

    def loss_at(scale: float):
        for name, p in copy.parameters.items():
            p.data = base[name] + scale * direction[name]
            p.grad = None
        return bce_with_logits_loss(copy.forward(arrays).scores, targets)

    loss_at(0.0).backward()
    gradients = {name: p.grad for name, p in copy.parameters.items()}
    numeric = (loss_at(DIRECTION_STEP).item() - loss_at(-DIRECTION_STEP).item()) / (2.0 * DIRECTION_STEP)
    return gradients, direction, numeric


def along(gradients: dict, direction: dict) -> float:
    """The analytic directional derivative: gradients . direction."""
    return sum(float(np.vdot(gradients[name], d)) for name, d in direction.items())


def mean_bce(probs, labels) -> float:
    """Mean binary cross-entropy (nats) of posteriors against 0/1 labels."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.log(np.where(y > 0, p, 1.0 - p)).mean())


def constant_predictor_loss(labels) -> float:
    """Cross-entropy of the best constant predictor: per-class label frequency."""
    y = np.asarray(labels, dtype=np.float64)
    return mean_bce(np.broadcast_to(y.mean(axis=0), y.shape), y)


def losses_finite(trajectory) -> bool:
    return len(trajectory) > 0 and bool(np.all(np.isfinite(trajectory)))


def learned(trajectory, labels) -> bool:
    """The last epoch's loss beats the best constant predictor."""
    return losses_finite(trajectory) and trajectory[-1] < constant_predictor_loss(labels)


def posteriors_valid(probs) -> bool:
    p = np.asarray(probs)
    return p.size > 0 and bool(np.all(np.isfinite(p)) and np.all(p > 0.0) and np.all(p < 1.0))


def attention_rows_sum_to_one(scores) -> bool:
    s = np.asarray(scores, dtype=np.float64)
    return bool(np.all(s >= 0.0) and np.all(np.abs(s.sum(axis=-1) - 1.0) <= ROW_SUM_TOLERANCE))


def posteriors_close(actual, expected) -> bool:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= POSTERIOR_TOLERANCE))


def reference_agrees(model, samples, probs) -> bool:
    """Float32 posteriors of ``samples`` match the float64 reference forward."""
    params = {name: p.data for name, p in model.parameters.items()}
    return posteriors_close(probs, reference.posteriors(samples, params, model.config))


def example_based_metrics(y_true, y_pred) -> tuple:
    """Mean example-based (recall, F1, F2) with the documented conventions:
    both sets empty scores 1, exactly one empty scores 0."""
    t = np.asarray(y_true).astype(bool)
    p = np.asarray(y_pred).astype(bool)
    tp = (t & p).sum(axis=1).astype(np.float64)
    n_true = t.sum(axis=1)
    n_pred = p.sum(axis=1)
    precision = np.divide(tp, n_pred, out=np.zeros_like(tp), where=n_pred > 0)
    recall = np.divide(tp, n_true, out=np.zeros_like(tp), where=n_true > 0)

    def f(beta):
        num = (1 + beta * beta) * precision * recall
        den = beta * beta * precision + recall
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    both_empty = (n_true == 0) & (n_pred == 0)
    return tuple(float(np.where(both_empty, 1.0, m).mean()) for m in (recall, f(1.0), f(2.0)))


def metrics_agree(report, y_true, probs, threshold: float) -> bool:
    """The program's MetricsReport equals metrics recomputed from the
    thresholded posteriors."""
    expected = example_based_metrics(y_true, np.asarray(probs) >= threshold)
    actual = (report.recall, report.f1, report.f2)
    return report.n_samples == len(y_true) and all(
        abs(a - e) <= 1e-12 for a, e in zip(actual, expected)
    )
