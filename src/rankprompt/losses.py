"""Training objective over calibrated similarity matrices.

Two ingredients: a bidirectional KL alignment loss (image-to-text: each
image row against its one-hot target; text-to-image: each class column
against the normalized batch presence) and a pairwise rank loss that
pushes each row to decay strictly away from its true class in both
directions.  Each term returns its value together with its hand-derived
analytic gradient with respect to the similarity matrix, from one pass.
All of them take a step's plain arrays (M x K similarities, M checked labels)
and the run's ``RunConfig``, validated where it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import InputError, _log_softmax


@dataclass(frozen=True)
class LossReport:
    main: float
    rank: float
    total: float
    grad_similarity: np.ndarray


def _check_length(s: np.ndarray, labels: np.ndarray) -> None:
    if len(labels) != s.shape[0]:
        raise InputError(f"got {len(labels)} labels for {s.shape[0]} similarity rows")


def image_to_text_term(s_cal: np.ndarray, labels: np.ndarray, cfg: RunConfig) -> tuple[float, np.ndarray]:
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


def text_to_image_term(s_cal: np.ndarray, labels: np.ndarray, cfg: RunConfig) -> tuple[float, np.ndarray]:
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


def rank_term(s_cal: np.ndarray, labels: np.ndarray, cfg: RunConfig) -> tuple[float, np.ndarray]:
    """Mean over samples of the summed rightward and leftward losses, and
    its gradient.

    Pairs (a, a+1) at or right of the true class want s[a] > s[a+1]
    (sign +1); pairs left of it want s[a] < s[a+1] (sign -1).  Together
    they tile both directional chains exactly once.
    """
    _check_length(s_cal, labels)
    m, k = s_cal.shape
    return _rank(s_cal, labels, cfg.tau, np.empty((m, k - 1)), np.zeros_like(s_cal))


def _rank(s_cal: np.ndarray, labels: np.ndarray, tau: float, z: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """``rank_term`` on checked arrays, in numpy alone, so that it may run on a worker thread.
    The caller allocates ``z``, M x (K - 1), which every step writes into with the arithmetic of
    fresh arrays, and ``g``, M x K zeros that become the gradient.  Arrays a worker thread allocates
    come from its own malloc arena, which keeps their pages: allocated here, they raised
    ``train_large``'s peak RSS from 90.2-90.5 MB to 90.8-91.0 MB (2-vCPU x86-64 Linux)."""
    m, k = s_cal.shape
    sign = np.where(np.arange(k - 1) >= labels[:, None], 1.0, -1.0)
    np.subtract(s_cal[:, :-1], s_cal[:, 1:], out=z)
    z *= sign
    z /= tau  # z = sign * gap / tau
    np.negative(z, out=z)  # -z from here on
    # -ln(sigmoid(z)) computed stably as ln(1 + exp(-z))
    value = float(np.logaddexp(0.0, z).sum() / m)
    # d/dz of -ln(sigmoid(z)) is sigmoid(z) - 1, chained through z = sign*gap/tau
    with np.errstate(over="ignore"):  # exp(-z) = inf gives sigmoid(z) = 0
        np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    z -= 1.0
    z *= sign
    z /= tau * m
    g[:, :-1] += z
    g[:, 1:] -= z
    return value, g


def total_loss(s_cal: np.ndarray, labels: np.ndarray, cfg: RunConfig, *, worker=None) -> LossReport:
    """main = mean of the two alignment directions; total = lambda_main * main
    + lambda_rank * rank, and the gradient is that of total.  A term of weight
    0 adds nothing to the gradient; its value is still reported.

    ``worker`` is the calling step's ``core._worker``, or None: with one, the rank
    term runs on it while this thread takes the two alignment terms.  The sums are
    the same either way.
    """
    rank_part = None
    if worker is not None:
        _check_length(s_cal, labels)
        m, k = s_cal.shape
        rank_part = worker.submit(_rank, s_cal, labels, cfg.tau, np.empty((m, k - 1)), np.zeros_like(s_cal))
    i2t, g_i2t = image_to_text_term(s_cal, labels, cfg)
    t2i, g_t2i = text_to_image_term(s_cal, labels, cfg)
    rank, g_rank = rank_term(s_cal, labels, cfg) if rank_part is None else rank_part.result()
    main = 0.5 * (t2i + i2t)
    g = cfg.lambda_main * 0.5 * (g_t2i + g_i2t) if cfg.lambda_main != 0.0 else np.zeros_like(s_cal)
    if cfg.lambda_rank != 0.0:
        g += cfg.lambda_rank * g_rank
    total = cfg.lambda_main * main + cfg.lambda_rank * rank
    return LossReport(main=main, rank=rank, total=total, grad_similarity=g)
