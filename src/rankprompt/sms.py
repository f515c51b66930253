"""Similarity-row calibration from kernel-smoothed per-class statistics.

Per-class mean/variance of raw similarity rows are accumulated while an
epoch runs, smoothed across neighboring classes with a Gaussian kernel
over class-index distance, committed (frozen) at the epoch boundary, and
applied as a per-row affine map throughout the following epoch.  Before
the first commit calibration is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import InputError, LabelVector, StateError, require_finite

# Variance floor: a single-sample class must still yield a usable scale.
VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian weights over class-index distance |j - j'|."""

    sigma: float = 1.0
    include_self: bool = False

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
    w = np.exp(-(d * d) / (2.0 * spec.sigma**2))
    if not spec.include_self:
        w[j] = 0.0
    return w


@dataclass(frozen=True)
class ClassStats:
    """Per-class similarity-row statistics with an epoch-commit lifecycle.

    Every row has one entry per class.  The ``epoch_*`` arrays accumulate
    the running epoch; ``commit_epoch`` freezes their mean/variance plus
    smoothed versions into the ``frozen_*`` / ``smoothed_*`` fields and
    resets the accumulators.  Calibration only ever reads the frozen side.
    ``committed`` and ``calibration_active`` are derived from which of
    those arrays exist.
    """

    k: int
    epoch_sum: np.ndarray
    epoch_sumsq: np.ndarray
    epoch_count: np.ndarray
    frozen_mean: np.ndarray | None = None
    frozen_var: np.ndarray | None = None
    frozen_count: np.ndarray | None = None
    smoothed_mean: np.ndarray | None = None
    smoothed_var: np.ndarray | None = None

    @property
    def committed(self) -> bool:
        """True once an epoch with samples has been frozen."""
        return self.frozen_count is not None

    @property
    def calibration_active(self) -> bool:
        """True when smoothed statistics exist: the last commit saw at least two classes."""
        return self.smoothed_mean is not None

    @property
    def mean(self) -> np.ndarray:
        """Running per-class means; NaN where a class has no samples yet."""
        out = np.full((self.k, self.k), np.nan)
        seen = self.epoch_count > 0
        out[seen] = self.epoch_sum[seen] / self.epoch_count[seen, None]
        return out

    @property
    def var(self) -> np.ndarray:
        """Running per-class population variances, floored at VAR_FLOOR."""
        out = np.full((self.k, self.k), np.nan)
        seen = self.epoch_count > 0
        n = self.epoch_count[seen, None].astype(np.float64)
        m = self.epoch_sum[seen] / n
        out[seen] = np.maximum(self.epoch_sumsq[seen] / n - m * m, VAR_FLOOR)
        return out

    @cached_property
    def calibration_table(self) -> tuple[np.ndarray, np.ndarray]:
        """K x K (scale, offset) of the frozen calibration map, one row per
        grade: scale = sqrt(smoothed_var/var), offset = smoothed_mean -
        scale*mean; identity for grades without committed statistics and
        while calibration is off.  Built once: the frozen arrays never change."""
        scale = np.ones((self.k, self.k))
        offset = np.zeros((self.k, self.k))
        if self.calibration_active:
            usable = self.frozen_count > 0
            sc = np.sqrt(self.smoothed_var[usable]) / np.sqrt(self.frozen_var[usable])
            scale[usable] = sc
            offset[usable] = self.smoothed_mean[usable] - sc * self.frozen_mean[usable]
        scale.setflags(write=False)
        offset.setflags(write=False)
        return scale, offset


def init_class_stats(k: int) -> ClassStats:
    """Pristine statistics: nothing accumulated, nothing committed."""
    if k < 2:
        raise InputError(f"need at least 2 classes, got {k}")
    return ClassStats(
        k=k,
        epoch_sum=np.zeros((k, k)),
        epoch_sumsq=np.zeros((k, k)),
        epoch_count=np.zeros(k, dtype=np.int64),
    )


def _check_rows(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> None:
    if s.shape[1] != stats.k:
        raise InputError(f"similarity width {s.shape[1]} does not match the {stats.k} classes of the statistics")
    if len(labels) != s.shape[0]:
        raise InputError(f"got {len(labels)} labels for {s.shape[0]} similarity rows")


def accumulate_class_stats(stats: ClassStats, s: np.ndarray, labels: np.ndarray) -> ClassStats:
    """Fold a batch of raw similarity rows (M x K array, M labels in
    [0, K), not checked here) into the running epoch sums."""
    _check_rows(s, labels, stats)
    total = stats.epoch_sum.copy()
    totalsq = stats.epoch_sumsq.copy()
    # add.at on the flat K*K cells: each cell sums its rows in batch order, on numpy's fast 1-D path
    cells = (labels[:, None] * stats.k + np.arange(stats.k)).ravel()
    np.add.at(total.reshape(-1), cells, s.ravel())
    np.add.at(totalsq.reshape(-1), cells, (s * s).ravel())
    n = stats.epoch_count + np.bincount(labels, minlength=stats.k)
    return replace(stats, epoch_sum=total, epoch_sumsq=totalsq, epoch_count=n)


def commit_epoch(stats: ClassStats, kernel: KernelSpec) -> ClassStats:
    """Freeze the epoch's statistics, and their ``kernel``-smoothed
    versions, for use throughout the next epoch.

    Classes never observed this epoch are excluded from every weighted sum
    and the kernel weights are renormalized over the observed ones.  No-op
    when nothing was accumulated.  When fewer than two classes were seen
    the commit still happens but calibration is switched off until a
    richer epoch commits.
    """
    if int(stats.epoch_count.sum()) == 0:
        return stats
    observed = stats.epoch_count > 0
    mean, var = stats.mean, stats.var
    sm = sv = None
    if int(observed.sum()) >= 2:
        sm = np.full((stats.k, stats.k), np.nan)
        sv = np.full((stats.k, stats.k), np.nan)
        for j in np.flatnonzero(observed):
            w = np.where(observed, kernel_weights(kernel, int(j), stats.k), 0.0)
            total = w.sum()
            if total <= 0.0:
                # every candidate neighbor underflowed; keep the raw statistics
                sm[j], sv[j] = mean[j], var[j]
                continue
            w = w / total
            sm[j] = w[observed] @ mean[observed]
            sv[j] = w[observed] @ var[observed]
    return replace(
        stats,
        epoch_sum=np.zeros_like(stats.epoch_sum),
        epoch_sumsq=np.zeros_like(stats.epoch_sumsq),
        epoch_count=np.zeros_like(stats.epoch_count),
        frozen_mean=mean,
        frozen_var=var,
        frozen_count=stats.epoch_count.copy(),
        smoothed_mean=sm,
        smoothed_var=sv,
    )


def calibration_map(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, offset) of the frozen calibration map s -> scale*s + offset
    for an M x K array and M labels in [0, K): each row takes its true class's
    row of ``stats.calibration_table`` (the identity before any commit).
    Labels are not range-checked here (a negative one would wrap to a grade
    from the end); ``calibrate_rows`` and ``model.model_backward`` check them.
    The scale is also d(calibrated)/d(raw) per entry.  Statistics holding
    uncommitted accumulation are rejected: calibration must only ever see
    values frozen at an epoch boundary.
    """
    _check_rows(s, labels, stats)
    if not stats.committed and int(stats.epoch_count.sum()) > 0:
        raise StateError("statistics were accumulated but never committed; call commit_epoch first")
    scale, offset = stats.calibration_table
    return scale[labels], offset[labels]


def calibrate_rows(s: np.ndarray, labels: LabelVector, stats: ClassStats) -> np.ndarray:
    """Affine-map each row of an M x K array toward the smoothed statistics of
    its true class through ``calibration_map``: out = scale * s + offset,
    finite-checked."""
    labels.validate_for(stats.k)
    scale, offset = calibration_map(s, labels.labels, stats)
    return require_finite(scale * s + offset)


def stats_to_dict(stats: ClassStats) -> dict:
    """JSON-ready snapshot of the committed side (accumulators are not kept)."""

    def per_class(arr):
        if arr is None:
            return None
        return [None if stats.frozen_count[j] == 0 else arr[j].tolist() for j in range(stats.k)]

    return {
        "count": None if stats.frozen_count is None else stats.frozen_count.tolist(),
        "mean": per_class(stats.frozen_mean),
        "var": per_class(stats.frozen_var),
        "smoothed_mean": per_class(stats.smoothed_mean),
        "smoothed_var": per_class(stats.smoothed_var),
    }


def stats_from_dict(d: dict, k: int) -> ClassStats:
    """Rebuild committed statistics over ``k`` classes; the loaded object
    starts a fresh epoch.

    ``count``/``mean``/``var`` are all null (nothing committed) or all
    present, likewise ``smoothed_mean``/``smoothed_var``, which need the
    frozen ones.  ``count`` holds ``k`` non-negative integers and each
    per-class list ``k`` rows of ``k`` numbers; a class with a positive
    count needs a finite row, other rows may be null.  Keys this function
    does not read are ignored."""
    stats = init_class_stats(k)

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
        return stats
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
                out[j] = row
            elif seen[j]:
                raise InputError(f"calibration {key} has no row for observed class {j}")
        if not np.isfinite(out[seen]).all():
            raise InputError(f"calibration {key} has non-finite entries for an observed class")
        return out

    return replace(
        stats,
        frozen_count=count,
        frozen_mean=from_per_class("mean"),
        frozen_var=from_per_class("var"),
        smoothed_mean=from_per_class("smoothed_mean"),
        smoothed_var=from_per_class("smoothed_var"),
    )
