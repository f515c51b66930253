"""Similarity-row calibration from kernel-smoothed per-class statistics.

While an epoch runs, ``accumulate_class_stats`` adds each grade's raw
similarity rows to an ``EpochSums`` in place.  At the epoch boundary
``commit_epoch`` turns the sums into an immutable ``ClassStats``: per-grade
mean/variance plus versions smoothed across neighboring grades with a
Gaussian kernel over grade distance.  Calibration reads only a
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
    ``include_self``.  ``commit_epoch`` renormalizes them over the classes
    observed in the epoch.
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
    the row ``count`` per grade, the K x K ``mean`` and ``var`` (NaN rows for
    grades without rows) and their kernel-smoothed versions, which are None
    when the commit saw fewer than two grades: calibration is then off."""

    count: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    smoothed_mean: np.ndarray | None
    smoothed_var: np.ndarray | None

    def __post_init__(self):
        for arr in (self.count, self.mean, self.var, self.smoothed_mean, self.smoothed_var):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.count)

    @cached_property
    def calibration_table(self) -> tuple[np.ndarray, np.ndarray]:
        """K x K (scale, offset) of the calibration map, one row per grade:
        scale = sqrt(smoothed_var/var), offset = smoothed_mean - scale*mean;
        identity for grades without rows and while calibration is off.
        Built once: the arrays never change."""
        scale = np.ones((self.k, self.k))
        offset = np.zeros((self.k, self.k))
        if self.smoothed_mean is not None:
            usable = self.count > 0
            sc = np.sqrt(self.smoothed_var[usable]) / np.sqrt(self.var[usable])
            scale[usable] = sc
            offset[usable] = self.smoothed_mean[usable] - sc * self.mean[usable]
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


def commit_epoch(sums: EpochSums, kernel: KernelSpec) -> ClassStats | None:
    """Freeze the epoch's per-grade mean and population variance (floored at
    VAR_FLOOR), and their ``kernel``-smoothed versions, for use throughout
    the next epoch; None when nothing was accumulated.

    Grades without rows this epoch are excluded from every weighted sum and
    the kernel weights are renormalized over the observed ones.  When fewer
    than two grades were seen the statistics are still frozen, but without
    smoothed versions: calibration is off until a richer epoch commits.
    """
    if int(sums.count.sum()) == 0:
        return None
    k = sums.k
    observed = sums.count > 0
    n = sums.count[observed, None].astype(np.float64)
    m = sums.total[observed] / n
    mean = np.full((k, k), np.nan)
    var = np.full((k, k), np.nan)
    mean[observed] = m
    var[observed] = np.maximum(sums.totalsq[observed] / n - m * m, VAR_FLOOR)
    sm = sv = None
    if int(observed.sum()) >= 2:
        sm = np.full((k, k), np.nan)
        sv = np.full((k, k), np.nan)
        for j in np.flatnonzero(observed):
            w = np.where(observed, kernel_weights(kernel, int(j), k), 0.0)
            total = w.sum()
            if total <= 0.0:
                # every candidate neighbor underflowed; keep the raw statistics
                sm[j], sv[j] = mean[j], var[j]
                continue
            w = w / total
            sm[j] = w[observed] @ mean[observed]
            sv[j] = w[observed] @ var[observed]
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


def stats_to_dict(stats: ClassStats | None) -> dict:
    """JSON-ready snapshot of committed statistics; all null for None."""
    if stats is None:
        return dict.fromkeys(("count", "mean", "var", "smoothed_mean", "smoothed_var"))

    def per_class(arr):
        if arr is None:
            return None
        return [None if stats.count[j] == 0 else arr[j].tolist() for j in range(stats.k)]

    return {
        "count": stats.count.tolist(),
        "mean": per_class(stats.mean),
        "var": per_class(stats.var),
        "smoothed_mean": per_class(stats.smoothed_mean),
        "smoothed_var": per_class(stats.smoothed_var),
    }


def stats_from_dict(d: dict, k: int) -> ClassStats | None:
    """Rebuild committed statistics over ``k`` classes, or None when the
    snapshot holds none.

    ``count``/``mean``/``var`` are all null (nothing committed) or all
    present, likewise ``smoothed_mean``/``smoothed_var``, which need the
    frozen ones.  ``count`` holds ``k`` non-negative integers and each
    per-class list ``k`` rows of ``k`` numbers; a class with a positive
    count needs a finite row, other rows may be null.  Keys this function
    does not read are ignored."""
    if k < 2:
        raise InputError(f"need at least 2 classes, got {k}")

    def present(keys) -> bool:
        nulls = [d[key] is None for key in keys]
        if any(nulls) and not all(nulls):
            raise InputError(f"calibration statistics {'/'.join(keys)} must be all null or all present")
        return not nulls[0]

    frozen = present(("count", "mean", "var"))
    smoothed = present(("smoothed_mean", "smoothed_var"))
    if smoothed and not frozen:
        raise InputError("smoothed calibration statistics need frozen count/mean/var")
    if not frozen:
        return None
    counts = d["count"]
    if len(counts) != k or not all(type(c) is int and 0 <= c < 2**63 for c in counts):
        raise InputError(f"calibration count must hold {k} non-negative integers, got {counts!r}")
    count = np.asarray(counts, dtype=np.int64)
    seen = count > 0

    def from_per_class(key):
        rows = d[key]
        if rows is None:
            return None
        if len(rows) != k:
            raise InputError(f"calibration {key} covers {len(rows)} classes, expected {k}")
        out = np.full((k, k), np.nan)
        for j, row in enumerate(rows):
            if row is not None:
                if len(row) != k or not all(type(v) in (int, float) for v in row):
                    raise InputError(f"calibration {key} row of class {j} must hold {k} numbers, got {row!r}")
                try:
                    out[j] = row
                except OverflowError:
                    raise InputError(f"calibration {key} row of class {j} holds an integer beyond float64") from None
            elif seen[j]:
                raise InputError(f"calibration {key} has no row for observed class {j}")
        if not np.isfinite(out[seen]).all():
            raise InputError(f"calibration {key} has non-finite entries for an observed class")
        return out

    return ClassStats(
        count=count,
        mean=from_per_class("mean"),
        var=from_per_class("var"),
        smoothed_mean=from_per_class("smoothed_mean"),
        smoothed_var=from_per_class("smoothed_var"),
    )
