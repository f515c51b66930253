"""Dense numeric primitives shared by every other module.

The image-text inner product, similarity matrices, labels and the row
softmax.  Similarity matrices and labels are immutable once constructed;
similarity values are float64.  They are the checked types of the
boundaries: a training step passes their plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

class InputError(ValueError):
    """An operation rejected its input."""


class StateError(RuntimeError):
    """An operation was invoked on an object in the wrong state."""


@dataclass(frozen=True)
class SimilarityMatrix:
    """M x K matrix of image-vs-class scores."""

    data: np.ndarray

    def __post_init__(self):
        arr = require_finite(np.array(self.data, dtype=np.float64, copy=True))
        arr.setflags(write=False)
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


def require_finite(s: np.ndarray) -> np.ndarray:
    """Return the similarity array ``s``, or raise if any entry is NaN or infinite."""
    if not np.isfinite(s).all():
        raise InputError("similarity matrix contains non-finite entries")
    return s


def similarity_matrix(images: np.ndarray, texts: np.ndarray) -> SimilarityMatrix:
    """Inner-product scores between every image row and every text row.

    Both inputs are 2-D arrays of equal width.  A non-finite embedding makes
    its row of scores non-finite, which ``SimilarityMatrix`` rejects."""
    if images.ndim != 2 or texts.ndim != 2 or images.shape[1] != texts.shape[1]:
        raise InputError(
            f"embeddings must be 2-D with equal widths, got images {images.shape} and texts {texts.shape}"
        )
    return SimilarityMatrix(images @ texts.T)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis of a 1-D or 2-D array.  A tall matrix takes its exact
    row max from a transposed copy: numpy reduces a short last axis row by row, 4-10x slower."""
    tall = z.ndim == 2 and z.shape[1] < z.shape[0]
    shifted = z - (np.ascontiguousarray(z.T).max(axis=0)[:, None] if tall else np.max(z, axis=-1, keepdims=True))
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def softmax_rows(s: SimilarityMatrix, tau: float) -> np.ndarray:
    """Row-wise temperature softmax; each output row sums to 1."""
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    return _softmax(s.data / tau)
