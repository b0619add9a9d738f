"""Finite-difference verification of analytic gradients.

The numeric side uses only forward evaluations, so it is independent of
every backward rule it checks. Errors are reported as
``|analytic - numeric| / max(1, |analytic| + |numeric|)``: relative against
the gradient magnitude, with an absolute floor so near-zero gradients are
judged on an absolute scale instead of amplifying finite-difference noise.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def numeric_gradient(f, tensor, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every element of tensor.

    ``f`` must re-run the forward computation from ``tensor.data`` on each
    call and return a float.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise gradient discrepancy, floored-relative (see module doc)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(a) + np.abs(n))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    n_elements: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE


@dataclass
class GradcheckReport:
    """Outcome of one gradient-check sweep over a set of parameters."""

    label: str
    entries: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE

    def format(self) -> str:
        lines = [f"gradcheck [{self.label}]: {'PASS' if self.passed else 'FAIL'} "
                 f"(max rel err {self.max_rel_err:.3e}, tol {DEFAULT_TOLERANCE:.1e}, {self.seconds:.1f}s)"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_err):
            mark = "ok  " if e.passed else "FAIL"
            lines.append(f"  {mark} {e.name:<40s} {e.max_rel_err:.3e} ({e.n_elements} elems)")
        return "\n".join(lines)


def check_parameters(loss_fn, params: dict, step: float = DEFAULT_STEP, label: str = "") -> GradcheckReport:
    """Compare backward() gradients of loss_fn against central differences.

    ``loss_fn`` rebuilds the forward graph from the current parameter values
    and returns the scalar loss tensor. ``params`` maps names to the leaf
    tensors being checked.
    """
    t0 = time.perf_counter()
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report = GradcheckReport(label=label)
    scalar = lambda: loss_fn().item()
    for name, p in params.items():
        numeric = numeric_gradient(scalar, p, step)
        report.entries.append(GradcheckEntry(name, relative_error(analytic[name], numeric), p.size))
    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# harness: shrunken end-to-end model and per-module checks, all at 64-bit


def shrunken_config():
    """A deliberately tiny architecture so a full finite-difference sweep
    over every parameter stays fast. Filter counts are far below the
    production regime on purpose."""
    from .kbranch import BranchSpec, ConvLayerSpec
    from .model import ModelConfig

    return ModelConfig(
        n_classes=3,
        subset_shapes=[(2, 12, 12), (1, 12, 12)],
        branches=[
            BranchSpec(["a0", "a1"], [ConvLayerSpec(3, 4, pool=True), ConvLayerSpec(3, 3)], fc_out=5),
            BranchSpec(["b0"], [ConvLayerSpec(2, 3), ConvLayerSpec(2, 2)], fc_out=4),
        ],
        n_patches=4,
        descriptor_width=6,
        hidden_width=5,
        attention_heads=2,
        attention_width=4,
    )


def _random_model_inputs(config, rng, batch: int = 2):
    arrays = [rng.normal(size=(batch,) + tuple(shape)) for shape in config.subset_shapes]
    targets = np.zeros((batch, config.n_classes))
    for b in range(batch):
        positives = rng.choice(config.n_classes, size=int(rng.integers(1, config.n_classes + 1)),
                               replace=False)
        targets[b, positives] = 1.0
    return arrays, targets


def check_model_gradients(seed: int = 0, step: float = DEFAULT_STEP) -> GradcheckReport:
    """Full-loss finite differences over every parameter of the shrunken model."""
    from .head import bce_with_logits_loss
    from .model import Model

    config = shrunken_config()
    model = Model(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    # zero-initialized biases put many pre-activations exactly on the relu
    # kink, where central differences measure the wrong one-sided slope;
    # nudge every parameter off such nondifferentiable points
    for p in model.parameters.values():
        p.data += rng.uniform(-0.1, 0.1, size=p.shape)
    arrays, targets = _random_model_inputs(config, rng)

    def loss_fn():
        return bce_with_logits_loss(model.forward(arrays).scores, targets)

    return check_parameters(loss_fn, model.parameters, step=step, label="end-to-end")


def check_module_gradients(seed: int = 0, step: float = DEFAULT_STEP) -> list:
    """Small dedicated checks, one per differentiable building block."""
    from . import tensor as T
    from .attention import attention_scores, pool_descriptors
    from .birnn import lstm_cell, lstm_sequence, make_lstm_params
    from .head import bce_with_logits_loss
    from .init import ParameterSet
    from .tensor import Tensor

    rng = np.random.default_rng(seed + 2)
    reports = []

    def weighted(out, weights):
        return T.sum_all(T.mul(out, weights))

    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    wc = Tensor(rng.normal(size=(2, 3, 5, 5)))
    # a map smaller than its kernel, where taps that only see padding are skipped
    xs = Tensor(rng.normal(size=(2, 2, 1, 2)), requires_grad=True)
    ks = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    bs = Tensor(rng.normal(size=3), requires_grad=True)
    ws = Tensor(rng.normal(size=(2, 3, 1, 2)))
    reports.append(check_parameters(
        lambda: weighted(T.conv2d(x, k, b), wc) + weighted(T.conv2d(xs, ks, bs), ws),
        {"input": x, "kernels": k, "bias": b,
         "input (1x2 map)": xs, "kernels (1x2 map)": ks, "bias (1x2 map)": bs},
        step=step, label="conv2d"))

    # the pooled epilogue on an odd map, whose trailing row and column are dropped
    xp = Tensor(rng.normal(size=(2, 2, 7, 5)), requires_grad=True)
    kp = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    bp = Tensor(rng.normal(size=3), requires_grad=True)
    wp = Tensor(rng.normal(size=(2, 3, 3, 2)))
    reports.append(check_parameters(
        lambda: weighted(T.conv2d(xp, kp, bp, pool=True), wp), {"input": xp, "kernels": kp, "bias": bp},
        step=step, label="maxpool2"))

    xf = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    wf = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    bf = Tensor(rng.normal(size=2), requires_grad=True)
    wfc = Tensor(rng.normal(size=(3, 2)))
    reports.append(check_parameters(
        lambda: weighted(T.fc(xf, wf, bf), wfc), {"input": xf, "weight": wf, "bias": bf},
        step=step, label="fc"))

    cell_params = ParameterSet(seed, np.float64)
    cell = make_lstm_params(3, 4, cell_params, "cell")
    xc = Tensor(rng.normal(size=3), requires_grad=True)
    hc = Tensor(rng.normal(size=4), requires_grad=True)
    cc = Tensor(rng.normal(size=4), requires_grad=True)
    wh = Tensor(rng.normal(size=4))
    wcell = Tensor(rng.normal(size=4))
    cell_params.update({"x": xc, "h_prev": hc, "c_prev": cc})
    # the fused sequence op, both directions, under the same label
    seq_params = ParameterSet(seed, np.float64)
    seq = make_lstm_params(3, 4, seq_params, "sequence")
    for t in seq_params.values():
        t.data += rng.uniform(-0.1, 0.1, size=t.shape)  # biases start at zero
    xseq = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
    wfwd = Tensor(rng.normal(size=(3, 2, 4)))
    wrev = Tensor(rng.normal(size=(3, 2, 4)))
    cell_params.update(seq_params)
    cell_params["sequence input"] = xseq

    def lstm_loss():
        h, c = lstm_cell(xc, hc, cc, cell)
        return (weighted(h, wh) + weighted(c, wcell) + weighted(lstm_sequence(xseq, seq), wfwd)
                + weighted(lstm_sequence(xseq, seq, reverse=True), wrev))

    reports.append(check_parameters(lstm_loss, cell_params, step=step, label="lstm_cell"))

    omega = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    wa = Tensor(rng.normal(size=(5, 2)))
    reports.append(check_parameters(
        lambda: weighted(pool_descriptors(omega, attention_scores(omega, w1, w2)), wa),
        {"descriptors": omega, "w_hidden": w1, "w_heads": w2}, step=step, label="attention"))

    z = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    y = (rng.uniform(size=(2, 4)) < 0.5).astype(np.float64)
    reports.append(check_parameters(
        lambda: bce_with_logits_loss(z, y), {"scores": z}, step=step, label="loss"))

    return reports


def run_all(seed: int = 0, step: float = DEFAULT_STEP) -> list:
    """Module checks followed by the end-to-end sweep."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(step) and step > 0):
        raise UsageError(f"step must be a finite number > 0, got {step}")
    return check_module_gradients(seed, step) + [check_model_gradients(seed, step)]

