"""Dense numeric primitives shared by every other module.

The image-text inner product, the label check and the row softmax.  A
similarity matrix is a plain M x K float64 array, finite-checked where
``similarity_matrix`` computes it; labels are a plain int64 array, checked by
``check_labels`` where they enter.

Also the one worker primitive, ``_worker``, that ``model`` and ``data`` open
for the length of one public call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np


class InputError(ValueError):
    """An operation rejected its input."""


def check_labels(labels: np.ndarray, k: int) -> None:
    """Raise unless ``labels`` is a non-empty 1-D integer array of class indices in [0, k)."""
    if not isinstance(labels, np.ndarray) or labels.ndim != 1 or labels.size < 1:
        shape = np.shape(labels)
        raise InputError(f"labels must be a non-empty 1-D numpy array, got {type(labels).__name__} of shape {shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError("labels must be integers")
    if labels.min() < 0:
        raise InputError("labels must be non-negative class indices")
    if labels.max() >= k:
        bad = int(labels[np.argmax(labels >= k)])
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker(wanted: bool):
    """The worker of one public call, to enter with ``with``: when ``wanted`` and two CPUs are
    usable, a pool of one thread named ``rankprompt-part…``, else a context that gives None.
    The thread runs the jobs submitted to it in order, ``Future.result()`` raises a job's exception
    again, and leaving the block, on an exception too, joins the thread.  Callers hand it private
    numpy helpers that write into arrays they allocated, in parts that the input fixes, so the bytes
    do not depend on the CPU count, and every public callable stays on the calling thread, where a
    tracer that wraps them (perfbench's) keeps one span stack."""
    if wanted and _usable_cpus() >= 2:
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="rankprompt-part")
    return nullcontext()
