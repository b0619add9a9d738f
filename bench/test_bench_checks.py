"""Each benchmark check accepts the program's answer and rejects a wrong one.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import layer_trace  # noqa: E402
from mrscene import Model, ModelConfig, Sample  # noqa: E402
from mrscene.dataset import PROFILES  # noqa: E402
from mrscene.head import bce_with_logits_loss, predict  # noqa: E402
from mrscene.metrics import aggregate  # noqa: E402


def small_model():
    config = ModelConfig(n_classes=5, subset_shapes=PROFILES["tiny"].subset_shapes, descriptor_width=8,
                         hidden_width=6, attention_heads=2, attention_width=4)
    return Model(config, seed=3)


def random_batch(model, n=2, seed=0):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((n,) + tuple(s)).astype(np.float32) for s in model.config.subset_shapes]
    targets = (rng.random((n, model.config.n_classes)) < 0.4).astype(np.float32)
    return arrays, targets


def samples_of(arrays, targets):
    return [Sample(subsets=[a[i] for a in arrays], labels=targets[i].astype(np.uint8), id=str(i))
            for i in range(len(targets))]


def test_directional_check_accepts_backward_and_rejects_wrong_gradients():
    model = small_model()
    arrays, targets = random_batch(model)
    gradients, direction, numeric = checks.directional_derivative(model, arrays, targets, seed=5)
    assert abs(numeric) > 1e-2
    assert checks.gradient_agrees(checks.along(gradients, direction), numeric)
    assert not checks.gradient_agrees(-checks.along(gradients, direction), numeric)
    # The zero-initialised biases are checked too: a lost bias gradient fails.
    for name in ("branch0.conv2.bias", "branch1.fc.bias", "fusion.bias", "lstm.fwd.b_c", "classifier.bias"):
        assert not model.parameters[name].data.any()
        wrong = dict(gradients, **{name: np.zeros_like(gradients[name])})
        assert not checks.gradient_agrees(checks.along(wrong, direction), numeric), name


def test_constant_predictor_loss_and_learning_check():
    labels = np.array([[1, 0], [1, 1]])
    # class 0 is always on (entropy 0); class 1 is on half the time (ln 2)
    assert checks.constant_predictor_loss(labels) == pytest.approx(np.log(2) / 2)
    base = checks.constant_predictor_loss(labels)
    assert checks.learned([0.7, base - 1e-3], labels)
    assert not checks.learned([0.7, base + 1e-3], labels)
    assert not checks.learned([0.7, float("nan")], labels)
    assert not checks.losses_finite([0.5, float("inf")])


def test_posterior_range_check():
    assert checks.posteriors_valid(np.array([[0.2, 0.9]]))
    for bad in (0.0, 1.0, np.nan):
        assert not checks.posteriors_valid(np.array([[0.2, bad]]))


def test_attention_row_check():
    model = small_model()
    arrays, _ = random_batch(model)
    scores = model.forward(arrays).attention.data
    assert checks.attention_rows_sum_to_one(scores)
    scores[0, 0, 0] += 1e-3
    assert not checks.attention_rows_sum_to_one(scores)


def test_reference_forward_matches_and_rejects_perturbed_parameter():
    model = small_model()
    biased = checks.with_seeded_biases({name: p.data for name, p in model.parameters.items()},
                                       np.random.default_rng(4))
    for name, p in model.parameters.items():
        p.data = biased[name].astype(np.float32)
    arrays, targets = random_batch(model, n=3)
    samples = samples_of(arrays, targets)
    probs = model.forward_samples(samples).probabilities.data
    assert checks.reference_agrees(model, samples, probs)
    for name in ("branch0.conv0.bias", "lstm.bwd.b_f", "classifier.bias"):
        saved = model.parameters[name].data.copy()
        model.parameters[name].data += 0.1
        assert not checks.reference_agrees(model, samples, probs), name
        model.parameters[name].data = saved


def test_batch_check_rejects_shifted_posteriors():
    model = small_model()
    arrays, targets = random_batch(model, n=3)
    samples = samples_of(arrays, targets)
    probs = model.predict_probabilities(samples, 3)
    assert checks.posteriors_close(model.predict_probabilities(samples, 1), probs)
    assert not checks.posteriors_close(probs + 1e-4, probs)


def test_metric_check_against_program_report():
    rng = np.random.default_rng(1)
    y_true = (rng.random((40, 6)) < 0.3).astype(np.uint8)
    y_true[0] = 0  # an empty truth set exercises the conventions
    probs = rng.random((40, 6))
    probs[0] = 0.1  # both sets empty: every metric 1
    probs[1] = 0.9
    report = aggregate([(t, predict(p, 0.5)) for t, p in zip(y_true, probs)])
    assert checks.metrics_agree(report, y_true, probs, 0.5)
    report.f1 += 1e-9
    assert not checks.metrics_agree(report, y_true, probs, 0.5)
    assert checks.example_based_metrics([[0, 0]], [[0, 0]]) == (1.0, 1.0, 1.0)
    assert checks.example_based_metrics([[0, 0]], [[1, 0]]) == (0.0, 0.0, 0.0)


def test_traced_layers_reproduce_forward_and_gradients():
    model = small_model()
    arrays, targets = random_batch(model)
    clock = layer_trace.Clock()
    scores, loss, segments = layer_trace.traced_forward(model, arrays, targets, clock)
    layer_trace.traced_backward(segments, clock)
    traced = {name: p.grad.copy() for name, p in model.parameters.items()}
    model.zero_grad()
    result = model.forward(arrays)
    bce_with_logits_loss(result.scores, targets).backward()
    reference = {name: p.grad for name, p in model.parameters.items()}
    assert np.array_equal(scores.data, result.scores.data)
    assert layer_trace.gradients_agree(traced, reference)
    traced["lstm.fwd.U_c"] = traced["lstm.fwd.U_c"] * 1.001
    assert not layer_trace.gradients_agree(traced, reference)
    layers = ("kbranch.b0", "kbranch.b1", "kbranch.b2", "kbranch.fuse", "birnn", "attention", "head")
    assert {f"{name}.{way}" for name in layers for way in ("fwd", "bwd")} <= set(clock.ms)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "train-tiny-b32",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
