"""Similarity-row calibration from kernel-smoothed per-class statistics.

At the end of an epoch ``commit_epoch`` takes every raw similarity row the
epoch computed, with its label, and returns an immutable ``ClassStats``:
per-grade mean/variance plus versions smoothed across neighboring grades
with a Gaussian kernel over grade distance.  A commit covers every grade; an
epoch in which some grade has no rows cannot commit.  Calibration reads only
a ``ClassStats``, as a per-row affine map, throughout the following epoch;
None (nothing committed yet) means no calibration.  ``calibrate`` is the one
code that applies the map: for the training step, the epoch log and inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .core import InputError, check_labels, require_finite

# Variance floor: a single-sample class must still yield a usable scale.
VAR_FLOOR = 1e-6


def kernel_weights(cfg: RunConfig, j: int, k: int) -> np.ndarray:
    """Raw Gaussian weight vector over class-index distance for smoothing class
    j's statistics among k: exp(-(j-j')^2 / (2 sms_sigma^2)), with the self
    weight zeroed unless ``sms_include_self``.  ``commit_epoch`` normalizes
    them to sum to 1.
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
        w = np.exp(-(d * d) / (2.0 * np.float64(cfg.sms_sigma) ** 2))
    w[j] = 1.0 if cfg.sms_include_self else 0.0
    return w


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


def commit_epoch(s_raw: np.ndarray, labels: np.ndarray, cfg: RunConfig) -> ClassStats:
    """Freeze the per-grade mean and population variance (floored at
    VAR_FLOOR) of an epoch's M x K raw similarity rows and their M labels,
    and their versions smoothed with ``cfg``'s kernel, for use throughout the
    next epoch.  Every grade needs rows: an InputError names those without."""
    k = s_raw.shape[1]
    _check_rows(s_raw, labels, k)
    check_labels(labels, k)
    count = np.bincount(labels, minlength=k)
    missing = np.flatnonzero(count == 0).tolist()
    if missing:
        raise InputError(f"cannot commit calibration statistics: grades {missing} have no rows this epoch")
    # add.at on the flat K*K cells: each cell sums its grade's rows in row order, on numpy's fast 1-D path
    cells = (labels[:, None] * k + np.arange(k)).ravel()
    row_sum, sq_sum = np.zeros((k, k)), np.zeros((k, k))
    np.add.at(row_sum.reshape(-1), cells, s_raw.ravel())
    np.add.at(sq_sum.reshape(-1), cells, (s_raw * s_raw).ravel())
    n = count[:, None].astype(np.float64)
    mean = row_sum / n
    var = np.maximum(sq_sum / n - mean * mean, VAR_FLOOR)
    sm, sv = np.empty((k, k)), np.empty((k, k))
    for j in range(k):
        w = kernel_weights(cfg, j, k)
        total = w.sum()
        if total <= 0.0:
            # every neighbor weight underflowed and the self weight is off; keep the raw statistics
            sm[j], sv[j] = mean[j], var[j]
            continue
        w = w / total
        sm[j] = w @ mean
        sv[j] = w @ var
    return ClassStats(count=count, mean=mean, var=var, smoothed_mean=sm, smoothed_var=sv)


def calibrate(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> np.ndarray:
    """Map each row of the M x K float64 array ``s`` in place by its true grade's
    row of ``stats.calibration_table``, s -> scale*s + offset, finite-check the
    result and return the M x K per-row scale, which is d(calibrated)/d(raw).
    The M labels are trusted to lie in [0, K) (a negative one would wrap to a
    grade from the end): every caller passes labels ``check_labels`` passed.
    """
    _check_rows(s, labels, stats.k)
    scale, offset = stats.calibration_table
    row_scale = scale[labels]
    s *= row_scale
    s += offset[labels]
    require_finite(s)
    return row_scale
