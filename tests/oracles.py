"""Reference implementations that only the tests use.

Each one computes a quantity of the objective the slow, obvious way, one
row or one sample at a time, so tests can check the vectorized code in
``rankprompt`` against it.
"""

import numpy as np

from rankprompt.core import InputError, LabelVector

# Floor applied to the second argument of the KL divergence.
KL_EPS = 1e-12

# Tolerance for "sums to one" checks on probability vectors.
PROB_TOL = 1e-9

DIRECTIONS = ("rightward", "leftward")


def kl_divergence_row(p, q) -> float:
    """KL(p || q) for two probability vectors, with 0*ln(0) := 0.

    ``q`` is floored at ``KL_EPS`` so underflowed entries cannot produce
    infinities.  Both inputs must sum to 1 within ``PROB_TOL``.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise InputError(f"p and q must be 1-D vectors of equal length, got {p.shape} and {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise InputError("probability vectors must be non-negative")
    for name, v in (("p", p), ("q", q)):
        if abs(float(v.sum()) - 1.0) > PROB_TOL:
            raise InputError(f"{name} must sum to 1 within {PROB_TOL}, got {float(v.sum())!r}")
    support = p > 0
    qf = np.maximum(q[support], KL_EPS)
    return float(np.sum(p[support] * np.log(p[support] / qf)))


def one_hot(labels: LabelVector, k: int) -> np.ndarray:
    """M x K indicator matrix with exactly one 1 per row."""
    labels.validate_for(k)
    out = np.zeros((len(labels), k), dtype=np.float64)
    out[np.arange(len(labels)), labels.labels] = 1.0
    return out


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
