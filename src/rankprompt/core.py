"""Dense numeric primitives shared by every other module.

The image-text inner product, labels and the row softmax.  A similarity
matrix is a plain M x K float64 array, finite-checked where
``similarity_matrix`` computes it; labels are an immutable, checked
``LabelVector`` where they enter, and a training step passes its plain array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

class InputError(ValueError):
    """An operation rejected its input."""


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


def similarity_matrix(images: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """Inner-product scores between every image row and every text row: the
    one image-text inner product, for training and inference alike.

    Both inputs are 2-D arrays of equal width.  A non-finite embedding makes
    its row of scores non-finite, which ``require_finite`` rejects."""
    if images.ndim != 2 or texts.ndim != 2 or images.shape[1] != texts.shape[1]:
        raise InputError(
            f"embeddings must be 2-D with equal widths, got images {images.shape} and texts {texts.shape}"
        )
    return require_finite(images @ texts.T)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis of a 1-D or 2-D array.  A tall matrix takes its exact
    row max from a transposed copy: numpy reduces a short last axis row by row, 4-10x slower."""
    tall = z.ndim == 2 and z.shape[1] < z.shape[0]
    shifted = z - (np.ascontiguousarray(z.T).max(axis=0)[:, None] if tall else np.max(z, axis=-1, keepdims=True))
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax_rows(s: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise temperature softmax of an M x K array; each output row sums to 1."""
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    return np.exp(_log_softmax(s / tau))
