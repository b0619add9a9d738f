"""Finite-difference verification of analytic gradients.

The numeric side uses only forward evaluations, so it is independent of
every backward rule it checks. Errors are reported as
``|analytic - numeric| / max(1, |analytic| + |numeric|)``: relative against
the gradient magnitude, with an absolute floor so near-zero gradients are
judged on an absolute scale instead of amplifying finite-difference noise.

A point within one step of a ReLU or max-pooling kink gets a central
difference that matches neither one-sided slope. The two one-sided
differences then disagree, which tells such a point from a wrong analytic
gradient; the end-to-end check redraws its random parameter nudge when
every failure it sees is of that kind.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
MAX_REDRAWS = 3


def _nudged_values(f, tensor) -> tuple:
    """f() with each element of tensor in turn raised and lowered by
    DEFAULT_STEP: two float64 arrays of tensor's shape."""
    hi, lo = np.empty(tensor.shape), np.empty(tensor.shape)
    flat = tensor.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_STEP
        hi.flat[i] = f()
        flat[i] = orig - DEFAULT_STEP
        lo.flat[i] = f()
        flat[i] = orig
    return hi, lo


def numeric_gradient(f, tensor) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every element of tensor.

    ``f`` must re-run the forward computation from ``tensor.data`` on each
    call and return a float.
    """
    hi, lo = _nudged_values(f, tensor)
    return ((hi - lo) / (2.0 * DEFAULT_STEP)).astype(tensor.dtype)


def _element_errors(analytic, numeric) -> np.ndarray:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return np.abs(a - n) / np.maximum(1.0, np.abs(a) + np.abs(n))


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise gradient discrepancy, floored-relative (see module doc)."""
    return float(_element_errors(analytic, numeric).max(initial=0.0))


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    n_elements: int
    unexplained: int = 0  # elements over the tolerance that straddle no kink

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE


@dataclass
class GradcheckReport:
    """Outcome of one gradient-check sweep over a set of parameters."""

    label: str
    entries: list = field(default_factory=list)
    seconds: float = 0.0
    redraws: int = 0  # earlier sweeps, each failed only at kinks and redrawn

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE

    def format(self) -> str:
        lines = [f"gradcheck [{self.label}]: {'PASS' if self.passed else 'FAIL'} "
                 f"(max rel err {self.max_rel_err:.3e}, tol {DEFAULT_TOLERANCE:.1e}, "
                 f"redraws {self.redraws}, {self.seconds:.1f}s)"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_err):
            mark = "ok  " if e.passed else "FAIL"
            off_kinks = "" if e.passed else f", {e.unexplained} off a kink"
            lines.append(f"  {mark} {e.name:<40s} {e.max_rel_err:.3e} ({e.n_elements} elems{off_kinks})")
        return "\n".join(lines)


def check_parameters(loss_fn, params: dict, label: str = "") -> GradcheckReport:
    """Compare backward() gradients of loss_fn against central differences.

    ``loss_fn`` rebuilds the forward graph from the current parameter values
    and returns the scalar loss tensor. ``params`` maps names to the leaf
    tensors being checked.
    """
    t0 = time.perf_counter()
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    centre = loss.item()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report = GradcheckReport(label=label)
    scalar = lambda: loss_fn().item()
    for name, p in params.items():
        hi, lo = _nudged_values(scalar, p)
        numeric = (hi - lo) / (2.0 * DEFAULT_STEP)
        errors = _element_errors(analytic[name], numeric)
        # The central difference lies half the one-sided differences'
        # disagreement from either. A kink within one step of the point leaves
        # the analytic gradient on one of them, so its error is that half;
        # an error no more than twice it is taken to be a kink's.
        kink = np.abs((hi - centre) - (centre - lo)) / DEFAULT_STEP >= np.abs(analytic[name] - numeric)
        unexplained = int(np.count_nonzero((errors >= DEFAULT_TOLERANCE) & ~kink))
        report.entries.append(GradcheckEntry(name, float(errors.max(initial=0.0)), p.size, unexplained))
    report.seconds = time.perf_counter() - t0
    return report


def check_with_redraws(sweep) -> GradcheckReport:
    """``sweep(draw)`` for draw 0, 1, ... up to MAX_REDRAWS, each a check
    on a freshly drawn point: the first report that passes or has a failure
    off a kink, else the last, with ``redraws`` set to its draw and
    ``seconds`` to the time of all the sweeps."""
    seconds = 0.0
    for draw in range(MAX_REDRAWS + 1):
        report = sweep(draw)
        seconds += report.seconds
        if report.passed or any(e.unexplained for e in report.entries):
            break
    report.redraws, report.seconds = draw, seconds
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
            BranchSpec([ConvLayerSpec(3, 4, pool=True), ConvLayerSpec(3, 3)], fc_out=5),
            BranchSpec([ConvLayerSpec(2, 3), ConvLayerSpec(2, 2)], fc_out=4),
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


def check_model_gradients(seed: int = 0) -> GradcheckReport:
    """Full-loss finite differences over every parameter of the shrunken
    model, with its parameter nudge redrawn (``check_with_redraws``) while
    every failure straddles a kink."""
    from .head import bce_with_logits_loss
    from .model import Model

    config = shrunken_config()

    # zero-initialized biases put many pre-activations exactly on the relu
    # kink, where central differences measure the wrong one-sided slope;
    # nudge every parameter off such nondifferentiable points
    def nudged_model(rng):
        model = Model(config, seed=seed, dtype=np.float64)
        for p in model.parameters.values():
            p.data += rng.uniform(-0.1, 0.1, size=p.shape)
        return model

    rng = np.random.default_rng(seed + 1)
    first = nudged_model(rng)
    arrays, targets = _random_model_inputs(config, rng)

    def sweep(draw):
        model = nudged_model(np.random.default_rng([seed, draw])) if draw else first
        return check_parameters(lambda: bce_with_logits_loss(model.forward(arrays).scores, targets),
                                model.parameters, label="end-to-end")

    return check_with_redraws(sweep)


def check_module_gradients(seed: int = 0) -> list:
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
         "input (1x2 map)": xs, "kernels (1x2 map)": ks, "bias (1x2 map)": bs}, label="conv2d"))

    # the pooled epilogue on an odd map, whose trailing row and column are dropped
    xp = Tensor(rng.normal(size=(2, 2, 7, 5)), requires_grad=True)
    kp = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    bp = Tensor(rng.normal(size=3), requires_grad=True)
    wp = Tensor(rng.normal(size=(2, 3, 3, 2)))
    reports.append(check_parameters(
        lambda: weighted(T.conv2d(xp, kp, bp, pool=True), wp), {"input": xp, "kernels": kp, "bias": bp},
        label="maxpool2"))

    xf = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    wf = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    bf = Tensor(rng.normal(size=2), requires_grad=True)
    wfc = Tensor(rng.normal(size=(3, 2)))
    reports.append(check_parameters(
        lambda: weighted(T.fc(xf, wf, bf), wfc), {"input": xf, "weight": wf, "bias": bf}, label="fc"))

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

    reports.append(check_parameters(lstm_loss, cell_params, label="lstm_cell"))

    omega = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    wa = Tensor(rng.normal(size=(5, 2)))
    reports.append(check_parameters(
        lambda: weighted(pool_descriptors(omega, attention_scores(omega, w1, w2)), wa),
        {"descriptors": omega, "w_hidden": w1, "w_heads": w2}, label="attention"))

    z = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    y = (rng.uniform(size=(2, 4)) < 0.5).astype(np.float64)
    reports.append(check_parameters(
        lambda: bce_with_logits_loss(z, y), {"scores": z}, label="loss"))

    return reports


def run_all(seed: int = 0) -> list:
    """Module checks followed by the end-to-end sweep."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return check_module_gradients(seed) + [check_model_gradients(seed)]

