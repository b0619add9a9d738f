"""Classification head: scores, posteriors, loss, thresholded prediction."""

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor, _accumulate, _sigmoid


def vectorize_pooled(pooled: Tensor) -> Tensor:
    """Column-major flattening of the pooled descriptor matrix (d_phi, T)
    to a vector of width d_phi*T; batched inputs keep their leading axes."""
    return T.reshape(T.swap_last_axes(pooled), pooled.shape[:-2] + (-1,))


def classify(pooled: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Class scores W @ vec(pooled) + b with W of shape (C, d_phi*T)."""
    vec = vectorize_pooled(pooled)
    if weight.shape[1] != vec.shape[-1]:
        raise ShapeError(f"classifier weight {weight.shape} does not match descriptor width {vec.shape}")
    return T.fc(vec, weight, bias)


def posteriors(scores: Tensor) -> Tensor:
    """Per-class probabilities sigmoid(z)."""
    return T.sigmoid(scores)


def bce_with_logits_loss(scores: Tensor, targets) -> Tensor:
    """Numerically stable mean binary cross-entropy straight from logits.

    Uses max(z,0) - z*y + log1p(exp(-|z|)) per element, averaged over all
    n elements of the scores; the gradient is (sigmoid(z) - y) / n.
    """
    z = scores.data
    y = np.asarray(targets, dtype=z.dtype)
    if y.shape != z.shape:
        raise ShapeError(f"targets {y.shape} do not match scores {z.shape}")
    if z.size == 0:
        raise ShapeError(f"bce_with_logits_loss of no scores, got shape {z.shape}")
    elementwise = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(elementwise.mean(), dtype=z.dtype)

    def _bw(g):
        _accumulate(scores, g * (_sigmoid(z) - y) / z.size)

    return Tensor(out_data, _parents=(scores,), _backward=_bw, _op="bce_with_logits")


def check_threshold(threshold: float) -> float:
    """The threshold itself if it lies in (0, 1); ConfigError otherwise."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    return threshold


def predict(probs, threshold: float) -> np.ndarray:
    """Binary label vector: 1 where probability >= threshold."""
    check_threshold(threshold)
    return (np.asarray(probs) >= threshold).astype(np.uint8)
