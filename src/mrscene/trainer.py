"""End-to-end training: optimizers, epoch loop, loss log, evaluation."""

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import replacing, write_checkpoint
from .errors import ConfigError, TrainingDivergedError, config_kwargs, require_types
from .head import bce_with_logits_loss, predict
from .metrics import MetricsReport, aggregate
from .model import Model

__all__ = [
    "TrainConfig", "TrainResult", "Adam", "Sgd", "make_optimizer",
    "train", "evaluate_model", "moving_average",
]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    shuffle: bool = True

    def validate(self):
        require_types("train", self)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "TrainConfig":
        return cls(**config_kwargs("train", cls, payload))


class Adam:
    """Adam with bias correction."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {}
        self.v = {}

    # a step that overflows is reported by train()'s finiteness checks, not by numpy warnings
    @np.errstate(over="ignore", invalid="ignore")
    def step(self, parameters: dict):
        """One update of every parameter, computed in place: the products
        of the textbook form ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` are
        written into two scratch rows that every parameter of the step
        reuses, in the same order of float operations, so no temporary is
        allocated per parameter. The rows are freed with the step, so they
        add nothing to the peak of the next forward and backward."""
        self.step_count += 1
        t = self.step_count
        work = None
        for name, p in parameters.items():
            if p.grad is None:
                raise RuntimeError(f"parameter {name!r} has no gradient")
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            if work is None or work.dtype != p.dtype:
                work = np.empty((2, max(q.size for q in parameters.values())), p.dtype)
            a, b = (row[: p.size].reshape(p.shape) for row in work)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(g, g, out=a)
            v += np.multiply(1.0 - self.beta2, a, out=a)
            np.divide(m, 1.0 - self.beta1**t, out=a)  # m_hat
            np.multiply(self.learning_rate, a, out=a)
            np.divide(v, 1.0 - self.beta2**t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def state_entries(self) -> dict:
        entries = {"adam.step": np.array([self.step_count], dtype=np.float32)}
        for name in self.m:
            entries[f"adam.m.{name}"] = self.m[name]
            entries[f"adam.v.{name}"] = self.v[name]
        return entries

    def load_state_entries(self, entries: dict):
        step = entries.get("adam.step")
        self.step_count = int(np.asarray(step).reshape(-1)[0]) if step is not None else 0
        for key, value in entries.items():
            if key.startswith("adam.m."):
                self.m[key[len("adam.m."):]] = value.copy()
            elif key.startswith("adam.v."):
                self.v[key[len("adam.v."):]] = value.copy()


class Sgd:
    """Plain gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, parameters: dict):
        self.step_count += 1
        for name, p in parameters.items():
            if p.grad is None:
                raise RuntimeError(f"parameter {name!r} has no gradient")
            p.data -= self.learning_rate * p.grad

    def state_entries(self) -> dict:
        return {"sgd.step": np.array([self.step_count], dtype=np.float32)}

    def load_state_entries(self, entries: dict):
        step = entries.get("sgd.step")
        self.step_count = int(np.asarray(step).reshape(-1)[0]) if step is not None else 0


def make_optimizer(kind: str, learning_rate: float):
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate)
    raise ConfigError(f"unknown optimizer {kind!r}")


@dataclass
class TrainResult:
    loss_trajectory: list = field(default_factory=list)
    final_checkpoint: str = ""


def _epoch_order(n: int, seed: int, epoch: int, shuffle: bool) -> np.ndarray:
    if not shuffle:
        return np.arange(n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))
    return rng.permutation(n)


def train(model: Model, samples, cfg: TrainConfig, out_dir=None, run_config: dict = None) -> TrainResult:
    """Seeded epoch loop: shuffle, batch, forward, backward, optimizer step.

    A batch of large samples runs as two data-parallel shards
    (``tensor.run_shards``), each weighting its mean loss by its share of
    the batch; the optimizer step then runs on the summed gradients.

    Appends the mean per-sample loss of every epoch to the trajectory.
    When out_dir is given, rewrites `loss_log.txt` after every epoch, so it
    always holds the epochs completed so far, and writes checkpoints.
    Raises TrainingDivergedError on a non-finite loss or before
    checkpointing a non-finite parameter.
    """
    cfg.validate()
    if not samples:
        raise ConfigError("training needs at least one sample")
    optimizer = make_optimizer(cfg.optimizer, cfg.learning_rate)
    result = TrainResult()
    echo = dict(run_config or {})
    echo.setdefault("model", model.config.to_dict())
    echo.setdefault("train", cfg.to_dict())

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def save(path, epoch):
        for name, p in model.parameters.items():
            if not np.isfinite(p.data).all():
                raise TrainingDivergedError(f"non-finite parameter {name!r} at epoch {epoch}; no checkpoint written")
        write_checkpoint(path, model.parameters, optimizer.state_entries(), epoch, echo)

    for epoch in range(1, cfg.epochs + 1):
        order = _epoch_order(len(samples), cfg.seed, epoch, cfg.shuffle)
        total_loss = 0.0
        for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            targets = np.stack([s.labels for s in batch]).astype(np.float32)
            model.zero_grad()

            def step(lo, hi):
                """Forward and backward of batch[lo:hi], its mean loss
                weighted by its share of the batch; the loss value."""
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is reported below
                    scores = model.forward_samples(batch[lo:hi]).scores
                    loss = bce_with_logits_loss(scores, targets[lo:hi]) * ((hi - lo) / len(batch))
                value = loss.item()
                if np.isfinite(value):
                    loss.backward()
                return value  # the graph goes with loss, before the next forward builds its own

            loss_value = sum(T.run_shards(step, len(batch), model.config.sample_values))
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            optimizer.step(model.parameters)
            total_loss += loss_value * len(batch)
        result.loss_trajectory.append(total_loss / len(samples))

        if out is not None:
            log = "".join(f"{n}\t{value:.8e}\n" for n, value in enumerate(result.loss_trajectory, start=1))
            with replacing(out / "loss_log.txt") as f:
                f.write(log.encode("utf-8"))
            if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
                save(out / f"checkpoint-{epoch:04d}.mac", epoch)

    if out is not None:
        final = out / "checkpoint-final.mac"
        save(final, cfg.epochs)
        result.final_checkpoint = str(final)
    return result


def evaluate_model(model: Model, samples, threshold: float = None, batch_size: int = 32) -> MetricsReport:
    """Example-based metrics at ``threshold``, by default the model's own."""
    if threshold is None:
        threshold = model.config.threshold
    probs = model.predict_probabilities(samples, batch_size)
    return aggregate(zip([s.labels for s in samples], predict(probs, threshold)))


def moving_average(values, window: int = 5) -> np.ndarray:
    """Trailing moving average; entry i averages values[i-window+1 .. i]."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < window:
        raise ConfigError(f"need at least {window} values, got {values.size}")
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="valid")
