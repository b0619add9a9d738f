"""Workload definitions, the timed set-up, and the untraced timed runs.

Each workload is a dataset made from the seed, the calls a user's
command makes on it, and the checks of their outputs. End-to-end timings
come from these untraced runs only; ``layer_trace.py`` measures the
layers in a separate run.
"""

import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from mrscene import Model, ModelConfig, TrainConfig, evaluate_model, generate_synthetic, load_split, train
from mrscene.checkpoint import load_parameters, read_checkpoint, write_checkpoint
from mrscene.errors import TrainingDivergedError

import checks

NOISE = 0.1
LEARNING_RATE = 1e-3
THRESHOLD = 0.5
# Fresh set-ups timed before the timed rounds and again after them: the
# time to create the dataset's files moves between levels that hold for
# seconds, so one burst sees one level and two bursts span the run.
SETUP_REPEATS = 5
# Samples the eval checks run through batch 1 and the float64 reference.
CHECKED_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    profile: str
    n_samples: int  # generated and split 60/20/20, as `mrscene generate-data` does
    split: str  # the split trained on or evaluated
    batch_size: int
    epochs: int = 1
    n_classes: int = None  # None: the profile's default


WORKLOADS = {w.name: w for w in (
    Workload("train-tiny-b32", "train", "tiny", 320, "train", 32, epochs=4, n_classes=4),
    Workload("train-bigearthnet-b8", "train", "bigearthnet-shaped", 106, "train", 8, epochs=2, n_classes=4),
    Workload("eval-bigearthnet-b8", "eval", "bigearthnet-shaped", 160, "test", 8),
)}


class Tally:
    """Operations attempted and failed; a failed check also marks the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def ran(self, n: int):
        self.attempted += n

    def check(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False


def make_dataset(wl: Workload, seed: int, work):
    return generate_synthetic(work / "data", seed=seed, n_samples=wl.n_samples, profile=wl.profile,
                              noise=NOISE, n_classes=wl.n_classes)


def set_up(wl: Workload, seed: int, work):
    """Everything before the first timed batch: the dataset, its split, the
    model, and for evaluation the checkpoint round trip `mrscene evaluate`
    starts from."""
    manifest = make_dataset(wl, seed, work)
    samples = load_split(manifest, wl.split, work / "data")
    config = ModelConfig(n_classes=manifest.n_classes, subset_shapes=manifest.subset_shapes)
    model = Model(config, seed=seed)
    if wl.kind == "eval":
        # A trained model's biases are not zero; seeded ones let the
        # reference forward check that the program adds them.
        biased = checks.with_seeded_biases({name: p.data for name, p in model.parameters.items()},
                                           np.random.default_rng(seed))
        for name, p in model.parameters.items():
            p.data = biased[name].astype(np.float32)
        path = work / "model.mac"
        write_checkpoint(path, model.parameters, {}, 0, {"model": config.to_dict()})
        stored = read_checkpoint(path)
        model = Model(ModelConfig.from_dict(stored.config["model"]), seed=0)
        load_parameters(model, stored.params)
    return samples, model


def timed_set_up(wl: Workload, seed: int, work):
    """Wall times of SETUP_REPEATS fresh set-ups, and the last one's result."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        samples, model = set_up(wl, seed, work)
        times.append(time.perf_counter() - start)
    log("set-up s", times)
    return times, samples, model


def log(what, values):
    print(f"bench: {what}: " + " ".join(f"{v:.4g}" for v in values), file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def stack(samples):
    arrays = [np.stack([s.subsets[k] for s in samples]) for k in range(len(samples[0].subsets))]
    return arrays, np.stack([s.labels for s in samples]).astype(np.float32)


def run_train(wl: Workload, seed: int, seconds: float, work, samples, model, tally: Tally) -> dict:
    """Whole `train()` rounds from the same initial parameters until
    ``seconds`` have passed; every round is the same computation."""
    cfg = TrainConfig(learning_rate=LEARNING_RATE, epochs=wl.epochs, batch_size=wl.batch_size, seed=seed)
    labels = np.stack([s.labels for s in samples])
    initial = {name: p.data.copy() for name, p in model.parameters.items()}
    steps = wl.epochs * math.ceil(len(samples) / wl.batch_size)
    rates, loss, rounds = [], math.nan, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for name, p in model.parameters.items():
            p.data = initial[name].copy()
        tally.ran(steps)
        began = time.perf_counter()
        try:
            result = train(model, samples, cfg, out_dir=work / "run")
        except TrainingDivergedError:  # a non-finite step loss
            tally.check(False)
            continue
        rates.append(wl.epochs * len(samples) / (time.perf_counter() - began))
        loss = result.loss_trajectory[-1]
        tally.check(checks.losses_finite(result.loss_trajectory))
        tally.check(checks.learned(result.loss_trajectory, labels))
    log("samples/s per round", rates)
    peak = peak_rss_mb()  # before the float64 check below allocates its own copy

    for name, p in model.parameters.items():
        p.data = initial[name]
    arrays, targets = stack(samples[: wl.batch_size])
    gradients, direction, numeric = checks.directional_derivative(model, arrays, targets, seed)
    tally.check(checks.gradient_agrees(checks.along(gradients, direction), numeric))
    return {"samples_per_s": statistics.median(rates) if rates else math.nan, "peak_rss_mb": peak, "loss": loss}


def run_eval(wl: Workload, seed: int, seconds: float, work, samples, model, tally: Tally) -> dict:
    """Whole `evaluate_model` passes over the split until ``seconds`` have passed."""
    labels = np.stack([s.labels for s in samples])
    batches = math.ceil(len(samples) / wl.batch_size)
    rates, reports = [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        tally.ran(batches)
        began = time.perf_counter()
        reports.append(evaluate_model(model, samples, threshold=THRESHOLD, batch_size=wl.batch_size))
        rates.append(len(samples) / (time.perf_counter() - began))
    log("samples/s per round", rates)
    peak = peak_rss_mb()

    probs = model.predict_probabilities(samples, wl.batch_size)
    for report in reports:
        tally.check(checks.metrics_agree(report, labels, probs, THRESHOLD))
    tally.check(checks.posteriors_valid(probs))
    tally.check(checks.attention_rows_sum_to_one(model.forward_samples(samples[: wl.batch_size]).attention.data))
    few = samples[:CHECKED_SAMPLES]
    tally.check(checks.posteriors_close(model.predict_probabilities(few, 1), probs[:CHECKED_SAMPLES]))
    tally.check(checks.reference_agrees(model, few, probs[:CHECKED_SAMPLES]))
    return {"samples_per_s": statistics.median(rates), "peak_rss_mb": peak,
            "loss": checks.mean_bce(probs, labels)}
