"""Example-based multi-label evaluation: Recall, F1, F2.

Each sample contributes its own precision/recall/F-beta computed from the
intersection of true and predicted label sets; the report aggregates with
arithmetic means. Conventions for degenerate sets:

* prediction empty, truth non-empty: all metrics 0
* truth empty, prediction non-empty: all metrics 0
* both empty: all metrics 1
* F-beta with P = R = 0: 0
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError


def fbeta(precision: float, recall: float, beta: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


def example_metrics(y_true, y_pred) -> tuple:
    """Per-sample (precision, recall, F1, F2) from two binary label vectors."""
    yt = np.asarray(y_true).astype(bool)
    yp = np.asarray(y_pred).astype(bool)
    if yt.shape != yp.shape:
        raise ShapeError(f"label vectors disagree: {yt.shape} vs {yp.shape}")
    n_true = int(yt.sum())
    n_pred = int(yp.sum())
    if n_true == 0 and n_pred == 0:
        return (1.0, 1.0, 1.0, 1.0)
    tp = int((yt & yp).sum())
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_true if n_true else 0.0
    return (precision, recall, fbeta(precision, recall, 1.0), fbeta(precision, recall, 2.0))


@dataclass
class MetricsReport:
    recall: float
    f1: float
    f2: float
    n_samples: int

    def format(self) -> str:
        return (
            f"samples evaluated: {self.n_samples}\n"
            f"recall (example-based): {self.recall:.4f}\n"
            f"f1     (example-based): {self.f1:.4f}\n"
            f"f2     (example-based): {self.f2:.4f}"
        )

    def key_value_block(self) -> str:
        return (
            f"recall={self.recall:.6f}\n"
            f"f1={self.f1:.6f}\n"
            f"f2={self.f2:.6f}\n"
            f"n_samples={self.n_samples}"
        )


def aggregate(label_pairs) -> MetricsReport:
    """Mean example-based metrics over (y_true, y_pred) pairs."""
    per_sample = [example_metrics(yt, yp) for yt, yp in label_pairs]
    if not per_sample:
        raise UsageError("aggregate needs at least one sample")

    def mean_of(index: int) -> float:
        # contiguous 1-d mean so the reduction is reproducible independent of
        # how many metrics sit alongside each other
        return float(np.mean(np.asarray([m[index] for m in per_sample], dtype=np.float64)))

    return MetricsReport(
        recall=mean_of(1),
        f1=mean_of(2),
        f2=mean_of(3),
        n_samples=len(per_sample),
    )
