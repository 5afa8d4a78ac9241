"""Accuracy-curve metrics over prediction logs.

All series work in any label space: feed a raw (hyponym) log or one
projected through a label space.  Percent scale [0, 100] is applied only at
this reporting boundary; probabilities stay in [0, 1] internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .labelspace import LabelSpace

__all__ = [
    "ConfusionMatrix",
    "MetricSeries",
    "PredictionLog",
    "accuracy_series",
    "baseline",
    "confusion_matrix",
    "convergence_epoch",
    "relative_accuracy",
    "relative_gain",
    "residual_error",
    "theoretical_superclass_accuracy",
]


@dataclass
class PredictionLog:
    """Per-epoch (example, true label, predicted label) records.

    Records are kept grouped by epoch (a stable sort is applied if the input
    is not already grouped, so within-epoch order is preserved).
    """

    epochs: np.ndarray
    example_ids: np.ndarray
    true_labels: np.ndarray
    pred_labels: np.ndarray
    label_count: int

    def __post_init__(self) -> None:
        self.epochs = np.asarray(self.epochs, dtype=np.int64)
        self.example_ids = np.asarray(self.example_ids)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.pred_labels = np.asarray(self.pred_labels, dtype=np.int64)
        self.label_count = int(self.label_count)
        n = self.epochs.shape[0]
        for name, arr in (("example_ids", self.example_ids),
                          ("true_labels", self.true_labels),
                          ("pred_labels", self.pred_labels)):
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")
        if n:
            if self.epochs.min() < 1:
                raise ValueError("epochs must be positive integers")
            for name, arr in (("true", self.true_labels), ("pred", self.pred_labels)):
                if arr.min() < 0 or arr.max() >= self.label_count:
                    raise ValueError(f"{name} labels out of range [0, {self.label_count})")
            if (self.epochs[1:] < self.epochs[:-1]).any():
                order = np.argsort(self.epochs, kind="stable")
                self.epochs = self.epochs[order]
                self.example_ids = self.example_ids[order]
                self.true_labels = self.true_labels[order]
                self.pred_labels = self.pred_labels[order]

    def __len__(self) -> int:
        return int(self.epochs.shape[0])

    def at_epoch(self, epoch: int) -> "PredictionLog":
        """The slice of records for one epoch."""
        mask = self.epochs == int(epoch)
        if not mask.any():
            raise ValueError(f"log has no records for epoch {epoch}")
        return PredictionLog(self.epochs[mask], self.example_ids[mask],
                             self.true_labels[mask], self.pred_labels[mask],
                             self.label_count)


@dataclass
class MetricSeries:
    """A per-epoch metric curve."""

    epochs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.epochs = np.asarray(self.epochs, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.epochs.ndim != 1 or self.epochs.shape != self.values.shape:
            raise ValueError("epochs and values must be 1-D arrays of equal length")
        if self.epochs.size == 0:
            raise ValueError("metric series is empty")
        if np.any(np.diff(self.epochs) <= 0):
            raise ValueError("epochs must be strictly increasing")
        if not np.isfinite(self.values).all():
            raise ValueError("metric values must be finite")


@dataclass
class ConfusionMatrix:
    """Counts[i][j] = records with true label i and predicted label j."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"counts shape {self.counts.shape} is not square")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")


def accuracy_series(log: PredictionLog) -> MetricSeries:
    """A(t): percent of records with pred == true, per epoch."""
    if len(log) == 0:
        raise ValueError("cannot compute accuracy of an empty log")
    # epochs are grouped: each epoch starts at row 0 or where the value changes
    e = log.epochs
    starts = np.r_[0, np.flatnonzero(e[1:] != e[:-1]) + 1]
    sums = np.add.reduceat(log.true_labels == log.pred_labels, starts, dtype=np.int64)
    counts = np.diff(np.append(starts, len(log)))
    return MetricSeries(epochs=log.epochs[starts], values=100.0 * sums / counts)


def baseline(s: "LabelSpace") -> float:
    """B(X) = sum_r P_r**2: accuracy of a size-aware random guess.

    P_r is the share of the classes that superclass r holds (uniform priors
    over classes).  It is summed from per-class terms 1/C, not taken as
    size/C, which fixes the bits of every gain table.
    """
    mass = np.bincount(s.table, weights=np.full(s.class_count, 1.0 / s.class_count))
    return float(mass @ mass)


def relative_accuracy(a: MetricSeries) -> MetricSeries:
    """A_R(t) = A(t)/A(T), T = argmax (earliest epoch on ties)."""
    top = float(a.values[int(np.argmax(a.values))])
    if top <= 0:
        raise ValueError("relative accuracy undefined: max accuracy is 0")
    return MetricSeries(epochs=a.epochs, values=a.values / top)


def relative_gain(a: MetricSeries, b: float) -> MetricSeries:
    """G_R(t) = (A(t) - 100 b)/(A(T) - 100 b) for baseline b in [0, 1]."""
    b = float(b)
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"baseline must be in [0, 1], got {b}")
    top = float(a.values[int(np.argmax(a.values))])
    denom = top - 100.0 * b
    if denom <= 0:
        raise ValueError("relative gain undefined: max accuracy does not exceed the baseline")
    return MetricSeries(epochs=a.epochs, values=(a.values - 100.0 * b) / denom)


def residual_error(a: MetricSeries) -> MetricSeries:
    """E_R(t) = (100 - A(t))/(100 - A(T)) - 1, with T the final epoch."""
    denom = 100.0 - float(a.values[-1])
    if denom <= 0:
        raise ValueError("residual error undefined: final accuracy is 100")
    return MetricSeries(epochs=a.epochs, values=(100.0 - a.values) / denom - 1.0)


def theoretical_superclass_accuracy(p_h: float, s: "LabelSpace") -> float:
    """Expected superclass accuracy p_h + (1 - p_h) * sum_r P_r**2.

    Models a classifier that picks the right class with probability ``p_h``
    and otherwise lands on a class drawn uniformly, which still hits the right
    superclass with probability P_r per superclass.
    """
    p_h = float(p_h)
    if not 0.0 <= p_h <= 1.0:
        raise ValueError(f"p_h must be in [0, 1], got {p_h}")
    return p_h + (1.0 - p_h) * baseline(s)


def convergence_epoch(a: MetricSeries, fraction: float = 0.95) -> int:
    """Smallest epoch t with A(t) >= fraction * max_t A(t)."""
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    threshold = fraction * float(a.values.max())
    hits = np.flatnonzero(a.values >= threshold)
    return int(a.epochs[hits[0]])


def confusion_matrix(log: PredictionLog) -> ConfusionMatrix:
    """Confusion counts for a single-epoch log slice, rows/cols in label order."""
    if len(log) == 0:
        raise ValueError("cannot build a confusion matrix from an empty log")
    if (log.epochs != log.epochs[0]).any():
        raise ValueError("confusion_matrix expects a single-epoch log slice; "
                         "use PredictionLog.at_epoch first")
    counts = np.zeros((log.label_count, log.label_count), dtype=np.int64)
    np.add.at(counts, (log.true_labels, log.pred_labels), 1)
    return ConfusionMatrix(counts=counts)

