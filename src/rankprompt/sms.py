"""Similarity-row calibration from kernel-smoothed per-class statistics.

While an epoch runs, ``accumulate_class_stats`` adds each grade's raw
similarity rows to an ``EpochSums`` in place.  At the epoch boundary
``commit_epoch`` turns the sums into an immutable ``ClassStats``: per-grade
mean/variance plus versions smoothed across neighboring grades with a
Gaussian kernel over grade distance.  A commit covers every grade; an epoch
in which some grade has no rows cannot commit.  Calibration reads only a
``ClassStats``, as a per-row affine map, throughout the following epoch;
None (nothing committed yet) means no calibration.  Sums still being
accumulated are never a ``ClassStats``, so calibration cannot read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import InputError, check_labels, require_finite

# Variance floor: a single-sample class must still yield a usable scale.
VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian weights over class-index distance |j - j'|."""

    sigma: float
    include_self: bool

    def __post_init__(self):
        if not self.sigma > 0:
            raise InputError(f"kernel sigma must be positive, got {self.sigma}")


def kernel_weights(spec: KernelSpec, j: int, k: int) -> np.ndarray:
    """Raw weight vector over k classes for smoothing class j's statistics:
    exp(-(j-j')^2 / (2 sigma^2)), with the self weight zeroed unless
    ``include_self``.  ``commit_epoch`` normalizes them to sum to 1.
    """
    if k < 2:
        raise InputError(f"need at least 2 classes to smooth over, got {k}")
    if not 0 <= j < k:
        raise InputError(f"class index {j} out of range for {k} classes")
    d = np.arange(k, dtype=np.float64) - float(j)
    # The self weight is set, not computed: a sigma whose square underflows would make it 0/0.
    # Such a sigma is the delta kernel (exp(-inf) = 0 elsewhere), and one whose square overflows
    # the flat kernel; it is squared as a numpy float because a Python float raises on overflow.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.exp(-(d * d) / (2.0 * np.float64(spec.sigma) ** 2))
    w[j] = 1.0 if spec.include_self else 0.0
    return w


class EpochSums:
    """Running sums of one epoch's raw similarity rows, updated in place by
    ``accumulate_class_stats``: row j of the K x K ``total``/``totalsq`` sums
    grade j's rows and their squares, and ``count`` holds each grade's number of rows."""

    def __init__(self, k: int):
        if k < 2:
            raise InputError(f"need at least 2 classes, got {k}")
        self.k = k
        self.total = np.zeros((k, k))
        self.totalsq = np.zeros((k, k))
        self.count = np.zeros(k, dtype=np.int64)


@dataclass(frozen=True)
class ClassStats:
    """The per-grade statistics one epoch commit froze, as read-only arrays:
    the row ``count`` per grade (each at least 1), the K x K ``mean`` and
    ``var``, and their kernel-smoothed versions."""

    count: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_var: np.ndarray

    def __post_init__(self):
        for arr in (self.count, self.mean, self.var, self.smoothed_mean, self.smoothed_var):
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.count)

    @cached_property
    def calibration_table(self) -> tuple[np.ndarray, np.ndarray]:
        """K x K (scale, offset) of the calibration map, one row per grade:
        scale = sqrt(smoothed_var/var), offset = smoothed_mean - scale*mean.
        Built once: the arrays never change."""
        scale = np.sqrt(self.smoothed_var) / np.sqrt(self.var)
        offset = self.smoothed_mean - scale * self.mean
        scale.setflags(write=False)
        offset.setflags(write=False)
        return scale, offset


def _check_rows(s: np.ndarray, labels: np.ndarray, k: int) -> None:
    if s.shape[1] != k:
        raise InputError(f"similarity width {s.shape[1]} does not match the {k} classes of the statistics")
    if len(labels) != s.shape[0]:
        raise InputError(f"got {len(labels)} labels for {s.shape[0]} similarity rows")


def accumulate_class_stats(sums: EpochSums, s: np.ndarray, labels: np.ndarray) -> None:
    """Add a batch of raw similarity rows (M x K array, M labels in [0, K),
    not checked here) to the epoch's running sums, in place."""
    _check_rows(s, labels, sums.k)
    # add.at on the flat K*K cells: each cell sums its rows in batch order, on numpy's fast 1-D path
    cells = (labels[:, None] * sums.k + np.arange(sums.k)).ravel()
    np.add.at(sums.total.reshape(-1), cells, s.ravel())
    np.add.at(sums.totalsq.reshape(-1), cells, (s * s).ravel())
    sums.count += np.bincount(labels, minlength=sums.k)


def commit_epoch(sums: EpochSums, kernel: KernelSpec) -> ClassStats:
    """Freeze the epoch's per-grade mean and population variance (floored at
    VAR_FLOOR), and their ``kernel``-smoothed versions, for use throughout
    the next epoch.  Every grade needs rows: an InputError names those
    without."""
    missing = np.flatnonzero(sums.count == 0).tolist()
    if missing:
        raise InputError(f"cannot commit calibration statistics: grades {missing} have no rows this epoch")
    k = sums.k
    n = sums.count[:, None].astype(np.float64)
    mean = sums.total / n
    var = np.maximum(sums.totalsq / n - mean * mean, VAR_FLOOR)
    sm, sv = np.empty((k, k)), np.empty((k, k))
    for j in range(k):
        w = kernel_weights(kernel, j, k)
        total = w.sum()
        if total <= 0.0:
            # every neighbor weight underflowed and the self weight is off; keep the raw statistics
            sm[j], sv[j] = mean[j], var[j]
            continue
        w = w / total
        sm[j] = w @ mean
        sv[j] = w @ var
    return ClassStats(count=sums.count.copy(), mean=mean, var=var, smoothed_mean=sm, smoothed_var=sv)


def calibration_map(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, offset) of the frozen calibration map s -> scale*s + offset
    for an M x K array and M labels in [0, K): each row takes its true class's
    row of ``stats.calibration_table``.  Labels are not range-checked here (a
    negative one would wrap to a grade from the end); ``calibrate_rows`` and
    ``model.model_backward`` check them.  The scale is also d(calibrated)/d(raw)
    per entry.
    """
    _check_rows(s, labels, stats.k)
    scale, offset = stats.calibration_table
    return scale[labels], offset[labels]


def calibrate_rows(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> np.ndarray:
    """Affine-map each row of an M x K array toward the smoothed statistics of
    its true class through ``calibration_map``: out = scale * s + offset,
    finite-checked.  The labels are checked to lie in [0, K)."""
    check_labels(labels, stats.k)
    scale, offset = calibration_map(s, labels, stats)
    return require_finite(scale * s + offset)
