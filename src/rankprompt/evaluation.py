"""Metrics over calibrated similarities.

Macro F1, one-vs-rest macro AUC with midrank tie handling, the
rank-monotonicity rate (fraction of rows strictly unimodal about their
true class, ties counting as violations), confusion matrix, and the
per-class mean similarity table used for heatmaps.

A similarity matrix is a plain M x K float64 array.  ``metrics_report``
and ``class_mean_similarity`` are the entry points: each checks the shape
and the label range once, and the helpers they call trust their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, check_labels, softmax_rows


@dataclass(frozen=True)
class MetricsReport:
    macro_f1: float
    macro_auc: float
    per_class_auc: list
    rank_monotonicity: float
    confusion: np.ndarray
    n_eval: int

    def to_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "macro_auc": self.macro_auc,
            "per_class_auc": [None if np.isnan(a) else float(a) for a in self.per_class_auc],
            "rank_monotonicity": self.rank_monotonicity,
            "confusion": self.confusion.tolist(),
            "n_eval": self.n_eval,
        }


def _check_entry(s: np.ndarray, truth: np.ndarray, k: int) -> None:
    """The evaluation entry check: ``s`` is M x k for M labels in [0, k)."""
    check_labels(truth, k)
    if np.shape(s) != (len(truth), k):
        raise InputError(f"similarity matrix must be {len(truth)} x {k}, got shape {np.shape(s)}")


def confusion_matrix(predictions: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """K x K counts, rows indexed by true class, columns by prediction (M
    grades in [0, k), not checked here)."""
    cells = truth * k + predictions
    return np.bincount(cells, minlength=k * k).astype(np.int64, copy=False).reshape(k, k)


def _macro_f1_from_confusion(cm: np.ndarray) -> float:
    """Unweighted mean over all k classes of 2PR/(P+R); 0/0 counts as 0."""
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return float(f1.mean())


def own_grade_midranks(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """1-based rank of every row's own-grade score within that grade's column,
    tied entries sharing the mean of the ranks they span: scipy's
    ``rankdata(scores, axis=0)[rows, labels]`` (labels in [0, K), not checked
    here).  One sort per present grade; the two ``searchsorted`` bounds of a
    score span its tie group, so its midrank is their mean plus one half.  The
    scores looked up are sorted first, which makes the lookups cache-friendly."""
    cols = np.ascontiguousarray(scores.T)
    out = np.empty(len(truth))
    for c in np.flatnonzero(np.bincount(truth)):
        rows = np.flatnonzero(truth == c)
        rows = rows[np.argsort(cols[c][rows])]
        own = cols[c][rows]
        column = np.sort(cols[c])
        out[rows] = (np.searchsorted(column, own, side="left") + np.searchsorted(column, own, side="right") + 1) / 2.0
    return out


def auc_macro_ovr(scores: np.ndarray, truth: np.ndarray, k: int) -> tuple[float, list]:
    """One-vs-rest AUC per class from its score column (finite M x k scores,
    labels in [0, k), not checked here); macro over present classes.

    Classes absent from the truth get NaN and are excluded from the macro
    mean.  Fewer than 2 distinct classes present is an error (no negatives
    exist for any one-vs-rest problem).
    """
    n_pos = np.bincount(truth, minlength=k)
    n_present = int(np.count_nonzero(n_pos))
    if n_present < 2:
        raise InputError(f"AUC needs at least 2 distinct classes present, got {n_present}")
    # Rank-sum AUC with midrank ties: P(score_pos > score_neg) + 0.5 P(=).
    # Midranks are half-integers, so every sum below is exact in float64.
    own_rank = own_grade_midranks(scores, truth)
    rank_sum = np.bincount(truth, weights=own_rank, minlength=k)
    n_neg = len(truth) - n_pos
    with np.errstate(invalid="ignore"):
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    per_class = np.where(n_pos > 0, auc, np.nan)
    return float(np.nanmean(per_class)), per_class.tolist()


def rank_monotonicity(s: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of rows strictly decreasing away from the true class on both
    sides, with any tie anywhere in the row counting as a violation (M x K
    scores, M labels in [0, K), not checked here).  Only comparisons, over a
    K x M copy so that each runs along the long axis."""
    k = s.shape[1]
    cols = np.ascontiguousarray(s.T)
    a = np.arange(k - 1)[:, None]
    ok = np.all(np.where(a >= truth, cols[:-1] > cols[1:], cols[:-1] < cols[1:]), axis=0)
    # The strict chains already part adjacent columns; only columns two or more apart can still tie.
    for gap in range(2, k):
        ok &= np.all(cols[:-gap] != cols[gap:], axis=0)
    return float(np.mean(ok))


def class_mean_similarity(s: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """Row c = mean similarity row over samples of true class c; NaN rows
    flag classes absent from the truth.  Checks that ``s`` is M x k for M
    labels in [0, k)."""
    _check_entry(s, truth, k)
    out = np.full((k, k), np.nan)
    for c in range(k):
        mask = truth == c
        if mask.any():
            out[c] = s[mask].mean(axis=0)
    return out


def metrics_report(s_cal: np.ndarray, truth: np.ndarray, k: int, tau: float = 1.0) -> MetricsReport:
    """Every metric of an M x k similarity matrix against M labels in [0, k),
    checked here once.  Predictions are the row argmax; ties resolve to the
    lowest grade."""
    _check_entry(s_cal, truth, k)
    probs = softmax_rows(s_cal, tau)
    macro_auc, per_class = auc_macro_ovr(probs, truth, k)
    confusion = confusion_matrix(np.argmax(s_cal, axis=1), truth, k)
    return MetricsReport(
        macro_f1=_macro_f1_from_confusion(confusion),
        macro_auc=macro_auc,
        per_class_auc=per_class,
        rank_monotonicity=rank_monotonicity(s_cal, truth),
        confusion=confusion,
        n_eval=len(truth),
    )
