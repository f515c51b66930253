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
from .core import InputError, LabelVector, SimilarityMatrix
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
    parameters, committed statistics, and per-epoch log."""
    params = M.init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes, cfg.seed)
    opt = M.init_optimizer(cfg.optimizer, cfg.learning_rate, params)
    lcfg = loss_config(cfg)
    stats = sms.init_class_stats(cfg.classes, kernel_from_config(cfg))
    committed = stats
    log = []
    train_feats, train_labels = dataset.subset("train")
    for epoch in range(cfg.epochs):
        seen = 0
        sums = {"main": 0.0, "rank": 0.0, "total": 0.0}
        for feats, labels in batch_iter(dataset, "train", cfg.batch_size, cfg.seed, epoch):
            result = M.model_backward(
                params,
                feats,
                labels,
                committed if cfg.sms_enabled else None,
                lcfg,
                normalize=cfg.normalize_embeddings,
                include_main=include_main,
            )
            params, opt = M.optimizer_step(params, result.grads, opt)
            if cfg.sms_enabled:
                stats = sms.accumulate_class_stats(stats, result.similarity_raw, labels)
            m = feats.shape[0]
            seen += m
            sums["main"] += result.report.main * m
            sums["rank"] += result.report.rank * m
            sums["total"] += result.report.total * m
        if cfg.sms_enabled:
            stats = sms.commit_epoch(stats)
            committed = stats
        report = evaluate(params, committed, train_feats, train_labels, cfg)
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
) -> SimilarityMatrix:
    """Inference pipeline: encode, inner products, then the frozen calibration."""
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
    not read here (an older file's optimizer state) are ignored.

    A malformed file raises ParseError naming it, and one trained with
    another ``normalize_embeddings`` than ``cfg`` raises InputError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a JSON checkpoint: {exc}") from None
    try:
        params = M.params_from_dict(doc["params"])
        shape = (doc["sms"]["k"], doc["sms"]["dim"])
        if shape != (params.classes, params.classes):
            raise InputError(f"sms k, dim = {shape} disagree with the {params.classes} grades of params")
        stats = sms.stats_from_dict(doc["sms"])
        trained_normalized = doc["config"]["normalize_embeddings"]
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
    if trained_normalized != cfg.normalize_embeddings:
        raise InputError(
            f"{path} was trained with normalize_embeddings = {trained_normalized}, "
            f"the config sets {cfg.normalize_embeddings}"
        )
    return params, stats
