"""Training loop, inference, and checkpoint round-tripping.

One epoch = shuffled batches of (encode -> similarity -> calibrate ->
loss -> backward -> optimizer step) while raw-similarity statistics
accumulate on the side; the statistics commit at the epoch boundary and
calibrate everything in the next epoch.  Inference reuses the last
committed statistics (raw similarities if none were ever committed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import sms
from .config import RunConfig, config_to_dict
from .core import InputError, LabelVector
from .data import Dataset, ParseError, batch_iter
from .evaluation import MetricsReport, class_mean_similarity, metrics_report
from .losses import LossConfig


@dataclass
class TrainResult:
    params: M.ModelParams
    stats: sms.ClassStats
    log: list


def kernel_from_config(cfg: RunConfig) -> sms.KernelSpec:
    return sms.KernelSpec(sigma=cfg.sms_sigma, include_self=cfg.sms_include_self)


def loss_config(cfg: RunConfig) -> LossConfig:
    return LossConfig(tau=cfg.tau, lambda_rank=cfg.lambda_rank)


def train(cfg: RunConfig, dataset: Dataset, include_main: bool = True) -> TrainResult:
    """Run cfg.epochs of training on the train split; returns the final
    parameters, committed statistics, and per-epoch log.

    The train split is checked against ``cfg`` once, here; after that a
    non-finite similarity or parameter means training diverged, and the
    InputError names the epoch, the 0-based batch and the first bad tensor."""
    params = M.init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes, cfg.seed)
    opt = M.init_optimizer(cfg.optimizer, cfg.learning_rate, params)
    lcfg = loss_config(cfg)
    kernel = kernel_from_config(cfg)
    stats = sms.init_class_stats(cfg.classes)
    committed = stats
    log = []
    train_feats, train_labels = dataset.subset("train")
    train_labels.validate_for(cfg.classes)
    if train_feats.shape[1] != cfg.feature_dim:
        raise InputError(f"features must be M x {cfg.feature_dim}, got shape {train_feats.shape}")
    if not np.isfinite(train_feats).all():
        raise InputError("train features contain non-finite entries")
    for epoch in range(cfg.epochs):
        seen = 0
        sums = {"main": 0.0, "rank": 0.0, "total": 0.0}
        for batch, (feats, labels) in enumerate(batch_iter(dataset, "train", cfg.batch_size, cfg.seed, epoch)):
            diverged = f"training diverged at epoch {epoch}, batch {batch}"
            try:
                result = M.model_backward(
                    params,
                    feats,
                    labels,
                    committed if cfg.sms_enabled else None,
                    lcfg,
                    normalize=cfg.normalize_embeddings,
                    include_main=include_main,
                )
            except InputError as exc:  # its inputs passed the checks above
                raise InputError(f"{diverged}: {exc}") from None
            M.optimizer_step(params, result.grads, opt)
            if not np.isfinite(params.flat).all():
                bad = next(name for name, v in params.as_dict().items() if not np.isfinite(v).all())
                raise InputError(f"{diverged}: the optimizer step made parameter {bad} non-finite")
            if cfg.sms_enabled:
                stats = sms.accumulate_class_stats(stats, result.similarity_raw, labels)
            m = feats.shape[0]
            seen += m
            sums["main"] += result.report.main * m
            sums["rank"] += result.report.rank * m
            sums["total"] += result.report.total * m
        if cfg.sms_enabled:
            stats = sms.commit_epoch(stats, kernel)
            committed = stats
        try:
            report = evaluate(params, committed, train_feats, train_labels, cfg)
        except InputError as exc:
            raise InputError(f"training diverged at epoch {epoch}, in the train-split evaluation: {exc}") from None
        log.append(
            {
                "epoch": epoch,
                "main": sums["main"] / seen,
                "rank": sums["rank"] / seen,
                "total": sums["total"] / seen,
                "train_macro_f1": report.macro_f1,
                "train_macro_auc": report.macro_auc,
                "train_rank_monotonicity": report.rank_monotonicity,
            }
        )
    return TrainResult(params=params, stats=committed, log=log)


def calibrated_similarity(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: LabelVector,
    cfg: RunConfig,
    use_sms: bool = True,
) -> np.ndarray:
    """Inference pipeline: encode, inner products, then the frozen calibration;
    an M x K finite array."""
    s_raw = M.forward_similarity(params, features, cfg.normalize_embeddings)
    if use_sms and cfg.sms_enabled and stats is not None:
        return sms.calibrate_rows(s_raw, labels, stats)
    return s_raw


def evaluate(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: LabelVector,
    cfg: RunConfig,
    use_sms: bool = True,
) -> MetricsReport:
    s_cal = calibrated_similarity(params, stats, features, labels, cfg, use_sms)
    return metrics_report(s_cal, labels, cfg.classes, cfg.tau)


def heatmap_matrix(
    params: M.ModelParams,
    stats: sms.ClassStats | None,
    features: np.ndarray,
    labels: LabelVector,
    cfg: RunConfig,
    use_sms: bool = True,
) -> np.ndarray:
    s_cal = calibrated_similarity(params, stats, features, labels, cfg, use_sms)
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


def load_checkpoint(path, cfg: RunConfig) -> tuple[M.ModelParams, sms.ClassStats]:
    """Read the parameters and calibration statistics of a checkpoint; keys
    not read here (an older file's optimizer state, or the ``k``, ``dim``
    and ``kernel`` of its ``sms`` object) are ignored.

    A malformed file raises ParseError naming it, and one trained with
    another class count or ``normalize_embeddings`` than ``cfg`` raises
    InputError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a JSON checkpoint: {exc}") from None
    try:
        params = M.params_from_dict(doc["params"])
        stats = sms.stats_from_dict(doc["sms"], params.classes)
        trained_normalized = doc["config"]["normalize_embeddings"]
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
    if params.classes != cfg.classes:
        raise InputError(f"{path} was trained with classes = {params.classes}, the config sets {cfg.classes}")
    if trained_normalized != cfg.normalize_embeddings:
        raise InputError(
            f"{path} was trained with normalize_embeddings = {trained_normalized}, "
            f"the config sets {cfg.normalize_embeddings}"
        )
    return params, stats
