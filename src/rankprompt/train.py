"""Training loop, inference, and the checkpoint format: ``save_checkpoint``
writes it and ``load_checkpoint`` is its one reader.

One epoch = shuffled batches of (encode -> similarity -> calibrate ->
loss -> backward -> optimizer step), each step keeping its raw similarity
rows in one n_train x K buffer; at the epoch boundary ``sms.commit_epoch``
turns that buffer into an immutable ``sms.ClassStats`` that calibrates the
next epoch.  Every commit covers all K grades: ``train`` requires each in the
train split, and every epoch visits all of it.  The statistics are None (raw
similarities) until the first commit, and throughout with ``sms_enabled =
false``, the one calibration switch; inference reuses the last committed ones.

Beyond the dataset, memory is bounded by a batch, an inference chunk or a block of ``data.BLOCK_ROWS``
rows (generation, CSV text, the CSV's binary twin), except for the epoch's n_train x K buffer: batches
gather through row indices, the backward turns its activations into the hidden gradient in place,
and inference encodes in row chunks of at most ``model.CHUNK_ROWS``.  After the commit the buffer is calibrated in place with the
statistics the epoch's steps read, which gives the scores each step's loss saw, and its
``metrics_report`` fills the ``train_*`` fields of the log; there is no second pass over the split.
The threads besides the caller's are ``core._worker``s, each opened for one call: ``model_backward`` on a
batch, and ``forward_similarity`` on an inference input, of ``model.FORWARD_TILE_ROWS`` rows or more, and
``data.load_csv``, whose one job hashes a CSV of more than one ``data.CHUNK_BYTES`` chunk that has a usable
twin while the calling thread reads the twin.  Every batch and inference chunk of that size splits, an
epoch's short last batch too, so no large MLP pass leaves a CPU idle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import sms
from .config import RunConfig, config_to_dict
from .core import InputError, check_labels
from .data import Dataset, ParseError, batch_iter
from .evaluation import MetricsReport, class_mean_similarity, metrics_report


@dataclass
class TrainResult:
    params: M.ModelParams
    stats: sms.ClassStats | None  # None: nothing committed
    log: list


def _train_epoch(
    params: M.ModelParams,
    opt: M.OptimizerState,
    committed: sms.ClassStats | None,
    dataset: Dataset,
    cfg: RunConfig,
    epoch: int,
) -> tuple[dict, sms.ClassStats | None]:
    """Step ``params`` over one epoch's batches, calibrated by ``committed``; returns the epoch's log
    entry (its mean loss terms, and the metrics of the calibrated scores its steps computed, before
    each step) and the statistics its raw similarity rows commit (None when ``sms_enabled`` is off).
    After the commit, ``sms.calibrate`` maps the raw rows in place by ``committed``, as each step did."""
    n = dataset.rows("train").size
    scores, truth = np.empty((n, cfg.classes)), np.empty(n, dtype=np.int64)
    seen = 0
    sums = {"main": 0.0, "rank": 0.0, "total": 0.0}
    for batch, (feats, labels) in enumerate(batch_iter(dataset, "train", cfg.batch_size, cfg.seed, epoch)):
        diverged = f"training diverged at epoch {epoch}, batch {batch}"
        try:
            result = M.model_backward(params, feats, labels, committed, cfg)
        except InputError as exc:  # its inputs passed the checks of train
            raise InputError(f"{diverged}: {exc}") from None
        M.optimizer_step(params, result.grads, opt)
        if not np.isfinite(params.flat).all():
            bad = next(name for name, v in params.as_dict().items() if not np.isfinite(v).all())
            raise InputError(f"{diverged}: the optimizer step made parameter {bad} non-finite")
        m = feats.shape[0]
        scores[seen : seen + m] = result.similarity_raw
        truth[seen : seen + m] = labels
        seen += m
        sums["main"] += result.report.main * m
        sums["rank"] += result.report.rank * m
        sums["total"] += result.report.total * m
    fresh = sms.commit_epoch(scores, truth, cfg) if cfg.sms_enabled else None
    if committed is not None:
        sms.calibrate(scores, truth, committed)
    rep = metrics_report(scores, truth, cfg.classes, cfg.tau)
    entry = {
        "epoch": epoch,
        **{key: total / seen for key, total in sums.items()},
        "train_macro_f1": rep.macro_f1,
        "train_macro_auc": rep.macro_auc,
        "train_rank_monotonicity": rep.rank_monotonicity,
    }
    return entry, fresh


def train(cfg: RunConfig, dataset: Dataset) -> TrainResult:
    """Run cfg.epochs of training on the train split; returns the final
    parameters, last committed statistics (None if none), and per-epoch log.

    The train split is checked against ``cfg`` once, here, and must hold every
    grade; after that a non-finite similarity or parameter means training
    diverged, and the InputError names the epoch, the 0-based batch and the
    first bad tensor."""
    params = M.init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes, cfg.seed)
    opt = M.init_optimizer(cfg, params)
    committed = None
    log = []
    rows = dataset.rows("train")
    train_labels = dataset.labels[rows]
    check_labels(train_labels, cfg.classes)
    missing = np.flatnonzero(np.bincount(train_labels, minlength=cfg.classes) == 0).tolist()
    if missing:
        raise InputError(f"classes {missing} have no train samples")
    if dataset.feature_dim != cfg.feature_dim:
        raise InputError(f"features must be M x {cfg.feature_dim}, got shape {(len(rows), dataset.feature_dim)}")
    if not np.isfinite(dataset.features).all(axis=1)[rows].all():
        raise InputError("train features contain non-finite entries")
    for epoch in range(cfg.epochs):
        entry, committed = _train_epoch(params, opt, committed, dataset, cfg, epoch)
        log.append(entry)
    return TrainResult(params=params, stats=committed, log=log)


def calibrated_similarity(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: RunConfig,
) -> np.ndarray:
    """Inference pipeline: encode, inner products, then the frozen calibration
    unless ``cfg.sms_enabled`` is false or ``stats`` is None; an M x K finite
    array; the labels, checked here, pick each row's calibration."""
    s_raw = M.forward_similarity(params, features, cfg.normalize_embeddings)
    if cfg.sms_enabled and stats is not None:
        check_labels(labels, stats.k)
        sms.calibrate(s_raw, labels, stats)
    return s_raw


def evaluate(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: RunConfig,
) -> MetricsReport:
    s_cal = calibrated_similarity(params, stats, features, labels, cfg)
    return metrics_report(s_cal, labels, cfg.classes, cfg.tau)


def heatmap_matrix(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: RunConfig,
) -> np.ndarray:
    s_cal = calibrated_similarity(params, stats, features, labels, cfg)
    return class_mean_similarity(s_cal, labels, cfg.classes)


HYPER_KEYS = ("feature_dim", "hidden_dim", "embed_dim", "classes")
STATS_KEYS = ("count", "mean", "var", "smoothed_mean", "smoothed_var")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_checkpoint(path, result: TrainResult, cfg: RunConfig) -> None:
    """Write the config, each parameter tensor as nested lists under ``params``
    (sizes under ``params.hyper``), the committed statistics under ``sms``
    (all null if none) and ``epochs_run``."""
    params, stats = result.params, result.stats
    tensors = {name: view.tolist() for name, view in params.as_dict().items()}
    doc = {
        "config": config_to_dict(cfg),
        "params": {**tensors, "hyper": {key: getattr(params, key) for key in HYPER_KEYS}},
        "sms": {key: None if stats is None else getattr(stats, key).tolist() for key in STATS_KEYS},
        "epochs_run": len(result.log),
    }
    _write_json(path, doc)


class _JsonObject(dict):
    """A checkpoint's JSON object; a key missing from it raises KeyError naming the dotted key."""

    def __init__(self, value: dict, key: str):
        super().__init__(value)
        self.prefix = f"{key}." if key else ""

    def __missing__(self, name):
        raise KeyError(self.prefix + name)


def _json_object(value, key: str) -> dict:
    """``value`` if it is a JSON object, else a TypeError naming its dotted
    ``key`` ("" for the document itself)."""
    if type(value) is not dict:
        kind = {"list": "an array", "str": "a string", "bool": "a boolean", "NoneType": "null"}
        got = kind.get(type(value).__name__, "a number")
        raise TypeError(f"{key or 'the document'} must be a JSON object, got {got}")
    return _JsonObject(value, key)


def _json_array(value, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``value``, nested JSON arrays of exactly ``shape``, as a ``dtype`` array.
    Every leaf must be a JSON number (no string, no boolean) that ``dtype``
    holds: for float64 a finite one, for int64 an integer in [1, 2^63).
    Anything else raises ValueError naming ``name``."""
    leaves = [value]
    for n in shape:
        if not all(type(v) is list and len(v) == n for v in leaves):
            raise ValueError(f"{name} must be a JSON array of shape {list(shape)}")
        leaves = [x for v in leaves for x in v]
    integer = dtype == np.int64
    kinds = (int,) if integer else (int, float)
    if not all(type(x) in kinds for x in leaves):
        raise ValueError(f"{name} must hold only JSON {'integers' if integer else 'numbers'}")
    try:
        out = np.array(leaves, dtype=dtype).reshape(shape)
    except OverflowError:
        raise ValueError(f"{name} holds an integer beyond {np.dtype(dtype).name}") from None
    if not ((out >= 1) if integer else np.isfinite(out)).all():
        raise ValueError(f"{name} must hold only {'integers >= 1' if integer else 'finite numbers'}")
    return out


def load_checkpoint(path, cfg: RunConfig) -> tuple[M.ModelParams, sms.ClassStats | None]:
    """Read the parameters and calibration statistics of a checkpoint; keys
    not read here (an older file's optimizer state, or the ``k``, ``dim``
    and ``kernel`` of its ``sms`` object) are ignored.

    A malformed file raises ParseError naming it: one that is not JSON or
    nests too deeply to parse; or, naming the dotted key, a missing key, a
    section that is not a JSON object, a ``params.hyper`` size that is not
    an integer >= 1, an array ``_json_array`` rejects (every tensor in the
    shape the sizes give; ``sms.count`` of K and the other ``sms`` keys of
    K x K, unless all five are null), an ``sms.var`` or ``sms.smoothed_var``
    entry that is not > 0, or a ``config.normalize_embeddings``
    that is not a JSON boolean.  One trained with another class count or
    ``normalize_embeddings`` than ``cfg`` raises InputError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: not a JSON checkpoint: {exc}") from None
    try:
        doc = _json_object(doc, "")
        params_doc = _json_object(doc["params"], "params")
        hyper = _json_object(params_doc["hyper"], "params.hyper")
        dims = [hyper[key] for key in HYPER_KEYS]
        for key, n in zip(HYPER_KEYS, dims):
            if not (type(n) is int and n >= 1):
                raise ValueError(f"params.hyper.{key} must be an integer >= 1")
        tensors = [
            _json_array(params_doc[name], f"params.{name}", shape).ravel()
            for name, shape in M.param_shapes(*dims).items()
        ]
        params = M.ModelParams(np.concatenate(tensors), *dims)
        stats_doc = _json_object(doc["sms"], "sms")
        k = params.classes
        if all(stats_doc[key] is None for key in STATS_KEYS):
            stats = None
        else:
            stats = sms.ClassStats(
                _json_array(stats_doc["count"], "sms.count", (k,), np.int64),
                *(_json_array(stats_doc[key], f"sms.{key}", (k, k)) for key in STATS_KEYS[1:]),
            )
            for key in ("var", "smoothed_var"):  # a commit floors them at VAR_FLOOR, smoothing keeps them > 0
                if not (getattr(stats, key) > 0).all():
                    raise ValueError(f"sms.{key} must hold only variances > 0")
        trained_normalized = _json_object(doc["config"], "config")["normalize_embeddings"]
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
    if type(trained_normalized) is not bool:  # 0 and 1 compare equal to False and True
        raise ParseError(
            f"{path}: config.normalize_embeddings must be true or false, got {json.dumps(trained_normalized)}"
        )
    if params.classes != cfg.classes:
        raise InputError(f"{path} was trained with classes = {params.classes}, the config sets {cfg.classes}")
    if trained_normalized != cfg.normalize_embeddings:
        raise InputError(
            f"{path} was trained with normalize_embeddings = {trained_normalized}, "
            f"the config sets {cfg.normalize_embeddings}"
        )
    return params, stats
