"""Training objective over calibrated similarity matrices.

Two ingredients: a bidirectional KL alignment loss (image-to-text: each
image row against its one-hot target; text-to-image: each class column
against the normalized batch presence) and a pairwise rank loss that
pushes each row to decay strictly away from its true class in both
directions.  Each term returns its value together with its hand-derived
analytic gradient with respect to the similarity matrix, from one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .core import InputError, LabelVector, SimilarityMatrix, _log_softmax, one_hot

DIRECTIONS = ("rightward", "leftward")


@dataclass(frozen=True)
class LossConfig:
    tau: float = 1.0
    lambda_rank: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise InputError(f"tau must be positive, got {self.tau}")
        if self.lambda_rank < 0:
            raise InputError(f"lambda_rank must be nonnegative, got {self.lambda_rank}")


@dataclass(frozen=True)
class LossReport:
    main: float
    rank: float
    total: float
    grad_similarity: np.ndarray


def _check_length(s: SimilarityMatrix, labels: LabelVector) -> None:
    if len(labels) != s.m:
        raise InputError(f"got {len(labels)} labels for {s.m} similarity rows")


def image_to_text_term(s_cal: SimilarityMatrix, labels: LabelVector, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Mean KL(one-hot || row-softmax), i.e. mean cross-entropy of the true
    class, and its gradient."""
    _check_length(s_cal, labels)
    y = one_hot(labels, s_cal.k)
    logp = _log_softmax(s_cal.data / cfg.tau)
    value = float(-np.mean(logp[np.arange(s_cal.m), labels.labels]))
    return value, (np.exp(logp) - y) / (s_cal.m * cfg.tau)


def text_to_image_term(s_cal: SimilarityMatrix, labels: LabelVector, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Transposed direction: KL of normalized class presence against the
    softmax of each class column over the batch, averaged over the classes
    actually present in the batch (absent classes carry no target mass),
    and its gradient.
    """
    _check_length(s_cal, labels)
    present = np.flatnonzero(np.bincount(labels.labels, minlength=s_cal.k) > 0)
    y = one_hot(labels, s_cal.k).T[present]
    y = y / y.sum(axis=1, keepdims=True)
    logq = _log_softmax(s_cal.data.T[present] / cfg.tau)
    kl = xlogy(y, y).sum(axis=1) - (y * logq).sum(axis=1)
    g = np.zeros_like(s_cal.data)
    g[:, present] = ((np.exp(logq) - y) / (len(present) * cfg.tau)).T
    return float(np.mean(kl)), g


def rank_directional_loss(row, true_class: int, direction: str, tau: float) -> float:
    """Sum of -ln(logistic(gap/tau)) over the neighbor pairs on one side.

    rightward walks pairs (j, j+1) from the true class up to the end and
    wants row[j] > row[j+1]; leftward walks pairs (j, j-1) down from the
    true class and wants row[j] > row[j-1].  Boundary classes give empty
    sums (0).
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise InputError(f"row must be 1-D, got shape {row.shape}")
    if direction not in DIRECTIONS:
        raise InputError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    k = row.size
    if not 0 <= true_class < k:
        raise InputError(f"true_class {true_class} out of range for {k} classes")
    if direction == "rightward":
        gaps = row[true_class : k - 1] - row[true_class + 1 : k]
    else:
        gaps = row[1 : true_class + 1] - row[0:true_class]
    # -ln(sigmoid(z)) computed stably as ln(1 + exp(-z))
    return float(np.logaddexp(0.0, -gaps / tau).sum())


def rank_term(s_cal: SimilarityMatrix, labels: LabelVector, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Mean over samples of the summed rightward and leftward losses, and
    its gradient.

    Pairs (a, a+1) at or right of the true class want s[a] > s[a+1]
    (sign +1); pairs left of it want s[a] < s[a+1] (sign -1).  Together
    they tile both directional chains exactly once.
    """
    _check_length(s_cal, labels)
    labels.validate_for(s_cal.k)
    d = s_cal.data[:, :-1] - s_cal.data[:, 1:]
    sign = np.where(np.arange(s_cal.k - 1)[None, :] >= labels.labels[:, None], 1.0, -1.0)
    value = float(np.logaddexp(0.0, -sign * d / cfg.tau).sum() / s_cal.m)
    # d/dz of -ln(sigmoid(z)) is sigmoid(z) - 1, chained through z = sign*gap/tau
    dz = (expit(sign * d / cfg.tau) - 1.0) * sign / (cfg.tau * s_cal.m)
    g = np.zeros_like(s_cal.data)
    g[:, :-1] += dz
    g[:, 1:] -= dz
    return value, g


def total_loss(s_cal: SimilarityMatrix, labels: LabelVector, cfg: LossConfig, include_main: bool = True) -> LossReport:
    """main = mean of the two alignment directions; total = main +
    lambda_rank * rank; the gradient is that of total, or of the rank term
    alone when ``include_main`` is False (the values still show every term).
    """
    i2t, g_i2t = image_to_text_term(s_cal, labels, cfg)
    t2i, g_t2i = text_to_image_term(s_cal, labels, cfg)
    rank, g_rank = rank_term(s_cal, labels, cfg)
    main = 0.5 * (t2i + i2t)
    g = 0.5 * (g_t2i + g_i2t) if include_main else np.zeros_like(s_cal.data)
    if cfg.lambda_rank != 0.0:
        g = g + cfg.lambda_rank * g_rank
    return LossReport(main=main, rank=rank, total=main + cfg.lambda_rank * rank, grad_similarity=g)
