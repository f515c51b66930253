"""Dense numeric primitives shared by every other module.

Embeddings, similarity matrices, labels, row softmax and KL divergence.
All values are float64 and immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Floor applied to the second argument of the KL divergence.
KL_EPS = 1e-12

# Tolerance for "sums to one" checks on probability vectors.
PROB_TOL = 1e-9


class InputError(ValueError):
    """An operation rejected its input."""


class StateError(RuntimeError):
    """An operation was invoked on an object in the wrong state."""


def _frozen_f64(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row-major matrix of embeddings, one row per image or per class text."""

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen_f64(self.data, "embedding matrix")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(f"embedding matrix must be 2-D and non-empty, got shape {np.shape(self.data)}")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SimilarityMatrix:
    """M x K matrix of image-vs-class scores."""

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen_f64(self.data, "similarity matrix")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise InputError(
                f"similarity matrix needs >= 1 row and >= 2 columns, got shape {np.shape(self.data)}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """0-based class index per image."""

    labels: np.ndarray
    # Largest label, fixed at construction so range checks are O(1).
    max_label: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.labels, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError(f"labels must be a non-empty 1-D sequence, got shape {np.shape(self.labels)}")
        if not np.issubdtype(arr.dtype, np.integer):
            flt = np.asarray(self.labels, dtype=np.float64)
            if not np.all(flt == np.round(flt)):
                raise InputError("labels must be integers")
            arr = flt.astype(np.int64)
        arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise InputError("labels must be non-negative class indices")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "max_label", int(arr.max()))

    def __len__(self) -> int:
        return int(self.labels.size)

    def validate_for(self, k: int) -> None:
        """Reject any label outside [0, k-1]."""
        if self.max_label >= k:
            bad = int(self.labels[np.argmax(self.labels >= k)])
            raise InputError(f"label {bad} out of range for {k} classes")


def similarity_matrix(images: EmbeddingMatrix, texts: EmbeddingMatrix) -> SimilarityMatrix:
    """Inner-product scores between every image row and every text row."""
    if images.dim != texts.dim:
        raise InputError(f"embedding dims differ: images {images.dim} vs texts {texts.dim}")
    return SimilarityMatrix(images.data @ texts.data.T)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def softmax_rows(s: SimilarityMatrix, tau: float) -> SimilarityMatrix:
    """Row-wise temperature softmax; each output row sums to 1."""
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    return SimilarityMatrix(_softmax(s.data / tau))


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
