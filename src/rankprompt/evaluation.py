"""Metrics over calibrated similarities.

Macro F1, one-vs-rest macro AUC with midrank tie handling, the
rank-monotonicity rate (fraction of rows strictly unimodal about their
true class, ties counting as violations), confusion matrix, and the
per-class mean similarity table used for heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, LabelVector, SimilarityMatrix, softmax_rows


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


def _check_lengths(a: LabelVector, b: LabelVector) -> None:
    if len(a) != len(b):
        raise InputError(f"length mismatch: {len(a)} vs {len(b)}")


def confusion_matrix(predictions: LabelVector, truth: LabelVector, k: int) -> np.ndarray:
    """K x K counts, rows indexed by true class, columns by prediction."""
    _check_lengths(predictions, truth)
    predictions.validate_for(k)
    truth.validate_for(k)
    cells = truth.labels * k + predictions.labels
    return np.bincount(cells, minlength=k * k).astype(np.int64, copy=False).reshape(k, k)


def _macro_f1_from_confusion(cm: np.ndarray) -> float:
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return float(f1.mean())


def macro_f1(predictions: LabelVector, truth: LabelVector, k: int) -> float:
    """Unweighted mean over all k classes of 2PR/(P+R); 0/0 counts as 0."""
    return _macro_f1_from_confusion(confusion_matrix(predictions, truth, k))


def midranks(scores: np.ndarray) -> np.ndarray:
    """1-based rank of every entry within its column, tied entries sharing
    the mean of the ranks they span (scipy's ``rankdata(scores, axis=0)``).

    All columns are sorted in one pass over a contiguous K x M copy.  The
    sort need not be stable: tied entries get the same mean rank whatever
    order they come out in.
    """
    cols = np.ascontiguousarray(scores.T)
    k, m = cols.shape
    order = np.argsort(cols, axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    new_value = np.ones((k, m), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_value[:, 1:])
    # Every row opens a group, so no tie group spans two columns.
    starts = np.flatnonzero(new_value)
    counts = np.diff(starts, append=k * m)
    group_rank = (starts % m + 1) + (counts - 1) / 2.0
    ranks = np.empty((k, m))
    np.put_along_axis(ranks, order, np.repeat(group_rank, counts).reshape(k, m), axis=1)
    return ranks.T


def auc_macro_ovr(scores: np.ndarray, truth: LabelVector, k: int) -> tuple[float, list]:
    """One-vs-rest AUC per class from its score column; macro over present classes.

    Classes absent from the truth get NaN and are excluded from the macro
    mean.  Fewer than 2 distinct classes present is an error (no negatives
    exist for any one-vs-rest problem).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape != (len(truth), k):
        raise InputError(f"scores must be {len(truth)} x {k}, got shape {scores.shape}")
    truth.validate_for(k)
    n_pos = np.bincount(truth.labels, minlength=k)
    n_present = int(np.count_nonzero(n_pos))
    if n_present < 2:
        raise InputError(f"AUC needs at least 2 distinct classes present, got {n_present}")
    if np.isnan(scores).any():
        raise InputError("scores contain NaN")
    # Rank-sum AUC with midrank ties: P(score_pos > score_neg) + 0.5 P(=).
    # Midranks are half-integers, so every sum below is exact in float64.
    own_rank = midranks(scores)[np.arange(len(truth)), truth.labels]
    rank_sum = np.bincount(truth.labels, weights=own_rank, minlength=k)
    n_neg = len(truth) - n_pos
    with np.errstate(invalid="ignore"):
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    per_class = np.where(n_pos > 0, auc, np.nan)
    return float(np.nanmean(per_class)), per_class.tolist()


def rank_monotonicity(s: SimilarityMatrix, truth: LabelVector) -> float:
    """Fraction of rows strictly decreasing away from the true class on both
    sides, with any tie anywhere in the row counting as a violation."""
    if len(truth) != s.m:
        raise InputError(f"got {len(truth)} labels for {s.m} similarity rows")
    truth.validate_for(s.k)
    d = s.data[:, :-1] - s.data[:, 1:]
    a = np.arange(s.k - 1)[None, :]
    c = truth.labels[:, None]
    chains_ok = np.all(np.where(a >= c, d > 0, d < 0), axis=1)
    distinct = np.all(np.diff(np.sort(s.data, axis=1), axis=1) > 0, axis=1)
    return float(np.mean(chains_ok & distinct))


def class_mean_similarity(s: SimilarityMatrix, truth: LabelVector, k: int) -> np.ndarray:
    """Row c = mean similarity row over samples of true class c; NaN rows
    flag classes absent from the truth."""
    if len(truth) != s.m:
        raise InputError(f"got {len(truth)} labels for {s.m} similarity rows")
    truth.validate_for(k)
    out = np.full((k, s.k), np.nan)
    for c in range(k):
        mask = truth.labels == c
        if mask.any():
            out[c] = s.data[mask].mean(axis=0)
    return out


def predict(s: SimilarityMatrix) -> LabelVector:
    """Argmax per row; ties resolve to the lowest class index."""
    return LabelVector(np.argmax(s.data, axis=1))


def metrics_report(s_cal: SimilarityMatrix, truth: LabelVector, k: int, tau: float = 1.0) -> MetricsReport:
    if len(truth) != s_cal.m:
        raise InputError(f"got {len(truth)} labels for {s_cal.m} similarity rows")
    probs = softmax_rows(s_cal, tau)
    pred = predict(s_cal)
    macro_auc, per_class = auc_macro_ovr(probs, truth, k)
    confusion = confusion_matrix(pred, truth, k)
    return MetricsReport(
        macro_f1=_macro_f1_from_confusion(confusion),
        macro_auc=macro_auc,
        per_class_auc=per_class,
        rank_monotonicity=rank_monotonicity(s_cal, truth),
        confusion=confusion,
        n_eval=s_cal.m,
    )
