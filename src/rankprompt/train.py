"""Training loop, inference, and checkpoint round-tripping.

One epoch = shuffled batches of (encode -> similarity -> calibrate ->
loss -> backward -> optimizer step) while the raw similarity rows are
summed per grade into an ``sms.EpochSums``; at the epoch boundary the sums
commit to an immutable ``sms.ClassStats`` that calibrates the next epoch.
Every commit covers all K grades: ``train`` requires each in the train split,
and every epoch visits all of it.  The statistics are None (raw similarities)
until the first commit, and throughout with ``sms_enabled = false``, the one
calibration switch; inference reuses the last committed ones.

Memory is bounded by a batch or a tile, not the split: batches and the train-split evaluation's
tiles gather through row indices, the backward turns its activations into the tanh derivative in
place, and inference encodes in row tiles.

Each epoch ends with an evaluation of the train split (the ``train_*`` fields of the log).  When
the split has more than ``model.FORWARD_TILE_ROWS`` rows, every epoch's evaluation but the last
runs on one worker thread, on a snapshot of the parameters, while the next epoch trains; on a
smaller split both threads would wait on Python's global lock, so it runs inline.  The log, the
parameters and every error message stay byte-identical to running each evaluation inline.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import sms
from .config import RunConfig, config_to_dict
from .core import InputError, check_labels
from .data import Dataset, ParseError, batch_iter
from .evaluation import MetricsReport, class_mean_similarity, metrics_report
from .losses import LossConfig


@dataclass
class TrainResult:
    params: M.ModelParams
    stats: sms.ClassStats | None  # None: nothing committed
    log: list


def kernel_from_config(cfg: RunConfig) -> sms.KernelSpec:
    return sms.KernelSpec(sigma=cfg.sms_sigma, include_self=cfg.sms_include_self)


def loss_config(cfg: RunConfig) -> LossConfig:
    return LossConfig(tau=cfg.tau, lambda_main=cfg.lambda_main, lambda_rank=cfg.lambda_rank)


def _train_epoch(
    params: M.ModelParams,
    opt: M.OptimizerState,
    committed: sms.ClassStats | None,
    dataset: Dataset,
    cfg: RunConfig,
    epoch: int,
) -> tuple[dict, sms.EpochSums]:
    """Step ``params`` over one epoch's batches; returns the epoch's log entry
    (its mean loss terms) and the raw similarity sums it accumulated."""
    lcfg = loss_config(cfg)
    seen = 0
    sums = {"main": 0.0, "rank": 0.0, "total": 0.0}
    class_sums = sms.EpochSums(cfg.classes)
    for batch, (feats, labels) in enumerate(batch_iter(dataset, "train", cfg.batch_size, cfg.seed, epoch)):
        diverged = f"training diverged at epoch {epoch}, batch {batch}"
        try:
            result = M.model_backward(params, feats, labels, committed, lcfg, normalize=cfg.normalize_embeddings)
        except InputError as exc:  # its inputs passed the checks of train
            raise InputError(f"{diverged}: {exc}") from None
        M.optimizer_step(params, result.grads, opt)
        if not np.isfinite(params.flat).all():
            bad = next(name for name, v in params.as_dict().items() if not np.isfinite(v).all())
            raise InputError(f"{diverged}: the optimizer step made parameter {bad} non-finite")
        if cfg.sms_enabled:
            sms.accumulate_class_stats(class_sums, result.similarity_raw, labels)
        m = feats.shape[0]
        seen += m
        sums["main"] += result.report.main * m
        sums["rank"] += result.report.rank * m
        sums["total"] += result.report.total * m
    return {"epoch": epoch, **{key: total / seen for key, total in sums.items()}}, class_sums


def _logged(entry: dict, report: Callable[[], MetricsReport]) -> dict:
    """``entry`` with the train-split metrics of ``report()``; an InputError
    from it means training diverged by ``entry``'s epoch."""
    try:
        rep = report()
    except InputError as exc:
        raise InputError(f"training diverged at epoch {entry['epoch']}, in the train-split evaluation: {exc}") from None
    return {
        **entry,
        "train_macro_f1": rep.macro_f1,
        "train_macro_auc": rep.macro_auc,
        "train_rank_monotonicity": rep.rank_monotonicity,
    }


def train(cfg: RunConfig, dataset: Dataset) -> TrainResult:
    """Run cfg.epochs of training on the train split; returns the final
    parameters, last committed statistics (None if none), and per-epoch log.

    The train split is checked against ``cfg`` once, here, and must hold every
    grade; after that a non-finite similarity or parameter means training
    diverged, and the InputError names the epoch, the 0-based batch and the
    first bad tensor.

    On a train split of over ``model.FORWARD_TILE_ROWS`` rows, each epoch's
    train-split evaluation but the last runs on one worker thread, on a snapshot
    of the parameters, while the next epoch trains; its report is joined before
    that epoch commits.  A failed step joins it first, so an evaluation error of
    the epoch before is still the one raised."""
    params = M.init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes, cfg.seed)
    opt = M.init_optimizer(cfg.optimizer, cfg.learning_rate, params)
    kernel = kernel_from_config(cfg)
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
    overlap = len(rows) > M.FORWARD_TILE_ROWS
    pending = None  # (log entry, its report's Future.result) of the epoch being evaluated on the worker
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for epoch in range(cfg.epochs):
                entry, class_sums = _train_epoch(params, opt, committed, dataset, cfg, epoch)
                if pending is not None:
                    log.append(_logged(*pending))
                    pending = None
                if cfg.sms_enabled:
                    committed = sms.commit_epoch(class_sums, kernel)
                args = (committed, dataset.features, train_labels, cfg)
                if overlap and epoch < cfg.epochs - 1:
                    pending = (entry, worker.submit(evaluate, params.with_values({}), *args, rows=rows).result)
                else:
                    log.append(_logged(entry, lambda: evaluate(params, *args, rows=rows)))
        except BaseException:
            if pending is not None:
                _logged(*pending)  # the epoch before's evaluation error comes first
            raise
    return TrainResult(params=params, stats=committed, log=log)


def calibrated_similarity(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: RunConfig,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Inference pipeline: encode, inner products, then the frozen calibration
    unless ``cfg.sms_enabled`` is false or ``stats`` is None; an M x K finite
    array.  ``rows`` scores ``features[rows]`` tile by tile."""
    s_raw = M.forward_similarity(params, features, cfg.normalize_embeddings, rows=rows)
    if cfg.sms_enabled and stats is not None:
        return sms.calibrate_rows(s_raw, labels, stats)
    return s_raw


def evaluate(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: RunConfig,
    rows: np.ndarray | None = None,
) -> MetricsReport:
    s_cal = calibrated_similarity(params, stats, features, labels, cfg, rows)
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


def save_checkpoint(path, result: TrainResult, cfg: RunConfig) -> None:
    doc = {
        "config": config_to_dict(cfg),
        "params": M.params_to_dict(result.params),
        "sms": sms.stats_to_dict(result.stats),
        "epochs_run": len(result.log),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else a TypeError naming ``name``."""
    if type(value) is not dict:
        kind = {"list": "an array", "str": "a string", "bool": "a boolean", "NoneType": "null"}
        raise TypeError(f"{name} must be a JSON object, got {kind.get(type(value).__name__, 'a number')}")
    return value


def load_checkpoint(path, cfg: RunConfig) -> tuple[M.ModelParams, sms.ClassStats | None]:
    """Read the parameters and calibration statistics of a checkpoint; keys
    not read here (an older file's optimizer state, or the ``k``, ``dim``
    and ``kernel`` of its ``sms`` object) are ignored.

    A malformed file, including one whose ``config.normalize_embeddings``
    is not a JSON boolean or whose document, ``params``, ``params.hyper``,
    ``config`` or ``sms`` is not a JSON object, raises ParseError naming it
    and the key, and one trained with another class count or
    ``normalize_embeddings`` than ``cfg`` raises InputError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a JSON checkpoint: {exc}") from None
    try:
        params_doc = _json_object(_json_object(doc, "the document")["params"], "params")
        _json_object(params_doc["hyper"], "params.hyper")
        params = M.params_from_dict(params_doc)
        stats = sms.stats_from_dict(_json_object(doc["sms"], "sms"), params.classes)
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
