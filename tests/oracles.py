"""Reference implementations that only the tests use.

Each one computes a quantity of the objective the slow, obvious way, one
row or one sample at a time, so tests can check the vectorized code in
``rankprompt`` against it; the calibration statistics come one batch at a
time instead of from the epoch's whole buffer, and calibration comes as a
per-row map and a separate out-of-place apply.  ``calibrated`` is
``sms.calibrate`` on a copy, for tests that want the calibrated rows.
``one_pass_embeddings`` and ``one_pass_gradients`` run the MLP over the
whole batch in one matmul per product, with no split into parts or tiles,
``csv_text`` formats a dataset's CSV with Python's ``%.17g``, and
``traced_peak`` measures the memory bounds the tests hold ``rankprompt`` to.
"""

import csv
import tracemalloc

import numpy as np

from rankprompt.config import RunConfig
from rankprompt.core import InputError, check_labels, require_finite
from rankprompt.data import SPLITS, TEST_FRACTION, Dataset, DatasetSpec, ParseError, class_counts
from rankprompt.losses import total_loss
from rankprompt.model import NORM_FLOOR, ModelParams
from rankprompt.sms import VAR_FLOOR, ClassStats, calibrate, kernel_weights

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


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """M x K indicator matrix with exactly one 1 per row."""
    check_labels(labels, k)
    out = np.zeros((len(labels), k), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
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


def csv_text(dataset: Dataset) -> bytes:
    """The bytes ``write_csv`` writes for ``dataset``: its header, then one
    ``%``-template per row, floats as ``%.17g``."""
    width = dataset.feature_dim
    header = ",".join(["id", "label", "split"] + [f"f{i}" for i in range(width)]) + "\n"
    template = ",".join(["%d", "%d", "%s"] + ["%.17g"] * width) + "\n"
    rows = zip(dataset.ids.tolist(), dataset.labels.tolist(), dataset.split.tolist(), dataset.features.tolist())
    return (header + "".join([template % (i, label, tag, *feats) for i, label, tag, feats in rows])).encode("utf-8")


def load_csv_rows(path, expected_classes=None) -> Dataset:
    """``load_csv`` one csv row at a time, converting cells with Python's
    ``int`` and ``float``.

    Python's converters also read ``1_0`` and non-ASCII digits, which
    ``load_csv`` rejects; on every other file the two must agree, down to
    the line an error names.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: line 1: empty file") from None
        if header[:3] != ["id", "label", "split"] or any(
            name != f"f{i}" for i, name in enumerate(header[3:])
        ) or len(header) < 4:
            raise ParseError(f"{path}: line 1: header must be id,label,split,f0,... got {header}")
        width = len(header) - 3
        ids, labels, split, feats, linenos = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                ids.append(int(row[0]))
                labels.append(int(row[1]))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer id or label") from None
            if row[2] not in SPLITS:
                raise ParseError(f"{path}: line {lineno}: split must be train or test, got {row[2]!r}")
            split.append(row[2])
            try:
                feats.append([float(v) for v in row[3:]])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric feature cell") from None
            linenos.append(lineno)
            if labels[-1] < 0 or (expected_classes is not None and labels[-1] >= expected_classes):
                raise ParseError(f"{path}: line {lineno}: label {labels[-1]} out of range")
            if not (-(2**63) <= ids[-1] < 2**63 and labels[-1] < 2**63):
                raise ParseError(f"{path}: line {lineno}: id or label outside the int64 range")
    if not labels:
        raise ParseError(f"{path}: line 2: no data rows")
    features = np.array(feats, dtype=np.float64).reshape(len(labels), width)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: line {linenos[bad[0]]}: non-finite feature cell")
    classes = expected_classes if expected_classes is not None else max(labels) + 1
    try:
        return Dataset(
            features=features,
            labels=np.array(labels, dtype=np.int64),
            split=np.array(split, dtype=object),
            ids=np.array(ids, dtype=np.int64),
            classes=classes,
        )
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def batch_iter_subset(dataset: Dataset, split: str, batch_size: int, seed: int, epoch: int):
    """``batch_iter`` the obvious way: copy the split out with ``subset``,
    then cut the copy into batches in the order of the (seed, epoch)
    permutation."""
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    feats, labels = dataset.subset(split)
    order = np.random.default_rng([seed, epoch]).permutation(feats.shape[0])
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        yield feats[idx], labels[idx]


def generate_synthetic_concat(spec: DatasetSpec) -> Dataset:
    """``generate_synthetic`` drawing each grade into a list of its own and
    joining the lists at the end, which holds the features twice."""
    counts = class_counts(spec)
    rng = np.random.default_rng(spec.seed)
    feats, labels, split = [], [], []
    for c, n_c in enumerate(counts):
        center = np.zeros(spec.feature_dim)
        center[0] = c * spec.class_sep
        feats.append(center + rng.normal(0.0, spec.noise_sigma, size=(n_c, spec.feature_dim)))
        labels.extend([c] * n_c)
        n_test = int(np.floor(TEST_FRACTION * n_c))
        tags = np.array(["train"] * n_c, dtype=object)
        tags[rng.permutation(n_c)[:n_test]] = "test"
        split.extend(tags.tolist())
    features = np.vstack(feats)
    if not np.isfinite(features).all():
        raise InputError(
            f"generated features overflow float64 (class_sep = {spec.class_sep}, noise_sigma = {spec.noise_sigma})"
        )
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        split=np.array(split, dtype=object),
        ids=np.arange(len(labels), dtype=np.int64),
        classes=spec.classes,
    )


class EpochSums:
    """Running sums of one epoch's raw similarity rows, updated in place by
    ``accumulate_class_stats``: row j of the K x K ``total``/``totalsq`` sums
    grade j's rows and their squares, and ``count`` holds each grade's number of rows."""

    def __init__(self, k: int):
        if k < 2:
            raise InputError(f"need at least 2 classes, got {k}")
        self.k = k
        self.total = np.zeros((k, k))
        self.totalsq = np.zeros((k, k))
        self.count = np.zeros(k, dtype=np.int64)


def _check_rows(s: np.ndarray, labels: np.ndarray, k: int) -> None:
    if s.shape[1] != k:
        raise InputError(f"similarity width {s.shape[1]} does not match the {k} classes of the statistics")
    if len(labels) != s.shape[0]:
        raise InputError(f"got {len(labels)} labels for {s.shape[0]} similarity rows")


def accumulate_class_stats(sums: EpochSums, s: np.ndarray, labels: np.ndarray) -> None:
    """Add a batch of raw similarity rows (M x K array, M labels in [0, K),
    not checked here) to the epoch's running sums, in place."""
    _check_rows(s, labels, sums.k)
    # add.at on the flat K*K cells: each cell sums its rows in batch order, on numpy's fast 1-D path
    cells = (labels[:, None] * sums.k + np.arange(sums.k)).ravel()
    np.add.at(sums.total.reshape(-1), cells, s.ravel())
    np.add.at(sums.totalsq.reshape(-1), cells, (s * s).ravel())
    sums.count += np.bincount(labels, minlength=sums.k)


def commit_sums(sums: EpochSums, cfg: RunConfig) -> ClassStats:
    """``sms.commit_epoch`` from running sums that ``accumulate_class_stats``
    filled one batch at a time: the per-batch route whose every array the
    whole-buffer commit must match byte for byte."""
    missing = np.flatnonzero(sums.count == 0).tolist()
    if missing:
        raise InputError(f"cannot commit calibration statistics: grades {missing} have no rows this epoch")
    k = sums.k
    n = sums.count[:, None].astype(np.float64)
    mean = sums.total / n
    var = np.maximum(sums.totalsq / n - mean * mean, VAR_FLOOR)
    sm, sv = np.empty((k, k)), np.empty((k, k))
    for j in range(k):
        w = kernel_weights(cfg, j, k)
        total = w.sum()
        if total <= 0.0:
            # every neighbor weight underflowed and the self weight is off; keep the raw statistics
            sm[j], sv[j] = mean[j], var[j]
            continue
        w = w / total
        sm[j] = w @ mean
        sv[j] = w @ var
    return ClassStats(count=sums.count.copy(), mean=mean, var=var, smoothed_mean=sm, smoothed_var=sv)


def calibration_map(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, offset) of the frozen calibration map s -> scale*s + offset
    for an M x K array and M labels in [0, K), not range-checked here: each row
    takes its true class's row of ``stats.calibration_table``.  The scale is
    also d(calibrated)/d(raw) per entry.
    """
    _check_rows(s, labels, stats.k)
    scale, offset = stats.calibration_table
    return scale[labels], offset[labels]


def calibrate_rows(s: np.ndarray, labels: np.ndarray, stats: ClassStats) -> np.ndarray:
    """Affine-map each row of an M x K array toward the smoothed statistics of
    its true class through ``calibration_map``: out = scale * s + offset,
    finite-checked, in a new array.  The labels are checked to lie in [0, K)."""
    check_labels(labels, stats.k)
    scale, offset = calibration_map(s, labels, stats)
    return require_finite(scale * s + offset)


def calibrated(s, labels, stats) -> np.ndarray:
    """The rows of ``s`` as ``sms.calibrate`` maps them, in a new array; ``s`` is left alone."""
    out = np.array(s, dtype=np.float64)
    calibrate(out, labels, stats)
    return out


def _unit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(a, axis=1, keepdims=True), NORM_FLOOR)
    return a / norms, norms


def one_pass_embeddings(params: ModelParams, features: np.ndarray, normalize: bool) -> tuple:
    """(activations tanh(features @ w1 + b1), image rows activations @ w2 + b2,
    text rows), the image and text rows unit-normalized when ``normalize``."""
    hidden = np.tanh(features @ params.w1 + params.b1)
    x, t = hidden @ params.w2 + params.b2, params.text
    if normalize:
        x, t = _unit(x)[0], _unit(t)[0]
    return hidden, x, t


def one_pass_gradients(params: ModelParams, features, labels, stats, cfg: RunConfig) -> tuple[dict, np.ndarray]:
    """(each parameter's gradient of ``total_loss`` by field name, raw scores)
    for one batch: scores through ``sms.calibrate`` when ``stats`` is given,
    then the chain rule back through the normalization and the MLP."""
    hidden = np.tanh(features @ params.w1 + params.b1)
    x, t = hidden @ params.w2 + params.b2, params.text
    if cfg.normalize_embeddings:
        (x, x_norms), (t, t_norms) = _unit(x), _unit(t)
    s = x @ t.T
    s_cal, scale = s.copy(), 1.0
    if stats is not None:
        scale = calibrate(s_cal, labels, stats)
    g_s = total_loss(s_cal, labels, cfg).grad_similarity * scale
    g_x, g_t = g_s @ t, g_s.T @ x
    if cfg.normalize_embeddings:
        g_x = (g_x - (g_x * x).sum(axis=1, keepdims=True) * x) / x_norms
        g_t = (g_t - (g_t * t).sum(axis=1, keepdims=True) * t) / t_norms
    g_pre = (g_x @ params.w2.T) * (1 - hidden * hidden)
    grads = dict(w1=features.T @ g_pre, b1=g_pre.sum(axis=0), w2=hidden.T @ g_x, b2=g_x.sum(axis=0), text=g_t)
    return grads, s


def traced_peak(fn):
    """Bytes ``fn()`` allocates at its peak beyond what exists when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
