"""Training objective over calibrated similarity matrices.

Two ingredients: a bidirectional KL alignment loss (image-to-text: each
image row against its one-hot target; text-to-image: each class column
against the normalized batch presence) and a pairwise rank loss that
pushes each row to decay strictly away from its true class in both
directions.  Each term returns its value together with its hand-derived
analytic gradient with respect to the similarity matrix, from one pass.
All of them take a step's plain arrays: M x K similarities, M checked labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, _log_softmax


@dataclass(frozen=True)
class LossConfig:
    tau: float = 1.0
    lambda_main: float = 1.0
    lambda_rank: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise InputError(f"tau must be positive, got {self.tau}")
        for name in ("lambda_main", "lambda_rank"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class LossReport:
    main: float
    rank: float
    total: float
    grad_similarity: np.ndarray


def _check_length(s: np.ndarray, labels: np.ndarray) -> None:
    if len(labels) != s.shape[0]:
        raise InputError(f"got {len(labels)} labels for {s.shape[0]} similarity rows")


def image_to_text_term(s_cal: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Mean KL(one-hot || row-softmax), i.e. mean cross-entropy of the true
    class, and its gradient."""
    _check_length(s_cal, labels)
    m = s_cal.shape[0]
    rows = np.arange(m)
    logp = _log_softmax(s_cal / cfg.tau)
    value = float(-(logp[rows, labels].sum() / m))  # np.mean's arithmetic, without its call overhead
    # softmax minus the one-hot target: 1 comes off each row's true class
    g = np.exp(logp)
    g[rows, labels] -= 1.0
    g /= m * cfg.tau
    return value, g


def text_to_image_term(s_cal: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Transposed direction: KL of normalized class presence against the
    softmax of each class column over the batch, averaged over the classes
    actually present in the batch (absent classes carry no target mass),
    and its gradient.
    """
    _check_length(s_cal, labels)
    counts = np.bincount(labels, minlength=s_cal.shape[1])
    present = np.flatnonzero(counts > 0)
    # row c: 1/count on the images of present class c, 0 elsewhere
    share = 1.0 / counts[present]
    y = (labels == present[:, None]) * share[:, None]
    # y * log(y) from libm's log of each row's one nonzero value; numpy's vectorized log can differ in the last bit
    log_share = np.array([math.log(v) for v in share])
    logq = _log_softmax(s_cal.T[present] / cfg.tau)
    kl = (y * log_share[:, None]).sum(axis=1) - (y * logq).sum(axis=1)
    g = np.zeros_like(s_cal)
    g[:, present] = ((np.exp(logq) - y) / (len(present) * cfg.tau)).T
    return float(kl.sum() / len(present)), g


def rank_term(s_cal: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Mean over samples of the summed rightward and leftward losses, and
    its gradient.

    Pairs (a, a+1) at or right of the true class want s[a] > s[a+1]
    (sign +1); pairs left of it want s[a] < s[a+1] (sign -1).  Together
    they tile both directional chains exactly once.
    """
    _check_length(s_cal, labels)
    m, k = s_cal.shape
    d = s_cal[:, :-1] - s_cal[:, 1:]
    sign = np.where(np.arange(k - 1)[None, :] >= labels[:, None], 1.0, -1.0)
    z = sign * d / cfg.tau
    # -ln(sigmoid(z)) computed stably as ln(1 + exp(-z))
    value = float(np.logaddexp(0.0, -z).sum() / m)
    # d/dz of -ln(sigmoid(z)) is sigmoid(z) - 1, chained through z = sign*gap/tau
    with np.errstate(over="ignore"):  # exp(-z) = inf gives sigmoid(z) = 0
        sigmoid = 1.0 / (1.0 + np.exp(-z))
    dz = (sigmoid - 1.0) * sign / (cfg.tau * m)
    g = np.zeros_like(s_cal)
    g[:, :-1] += dz
    g[:, 1:] -= dz
    return value, g


def total_loss(s_cal: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> LossReport:
    """main = mean of the two alignment directions; total = lambda_main * main
    + lambda_rank * rank, and the gradient is that of total.  A term of weight
    0 adds nothing to the gradient; its value is still reported.
    """
    i2t, g_i2t = image_to_text_term(s_cal, labels, cfg)
    t2i, g_t2i = text_to_image_term(s_cal, labels, cfg)
    rank, g_rank = rank_term(s_cal, labels, cfg)
    main = 0.5 * (t2i + i2t)
    g = cfg.lambda_main * 0.5 * (g_t2i + g_i2t) if cfg.lambda_main != 0.0 else np.zeros_like(s_cal)
    if cfg.lambda_rank != 0.0:
        g += cfg.lambda_rank * g_rank
    total = cfg.lambda_main * main + cfg.lambda_rank * rank
    return LossReport(main=main, rank=rank, total=total, grad_similarity=g)
