"""Per-layer metrics of rankprompt, derived from the spans of one traced operation.

Every metric is counted per operation: one ``train()`` call on the training
workloads, one generate/train/eval/heatmap roundtrip on ``cli_roundtrip``.
A layer that an operation never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

# (metric, span, statistic): "calls" counts spans, "self_ms" sums self
# time, "ms" sums whole durations.
SPAN_METRICS = [
    # loss path: moves train_samples_per_s on train_default
    ("core.validate_for.calls", "core.LabelVector.validate_for", "calls"),
    ("core.validate_for.self_ms", "core.LabelVector.validate_for", "self_ms"),
    ("core.SimilarityMatrix.calls", "core.SimilarityMatrix", "calls"),
    ("core.LabelVector.calls", "core.LabelVector", "calls"),
    ("losses.total_loss.self_ms", "losses.total_loss", "self_ms"),
    ("losses.grad_main.calls", "losses.grad_main", "calls"),
    ("losses.grad_main.self_ms", "losses.grad_main", "self_ms"),
    ("losses.grad_rank.calls", "losses.grad_rank", "calls"),
    ("losses.grad_rank.self_ms", "losses.grad_rank", "self_ms"),
    ("sms.calibrate_rows.calls", "sms.calibrate_rows", "calls"),
    ("sms.calibrate_rows.self_ms", "sms.calibrate_rows", "self_ms"),
    ("sms.calibration_scale.calls", "sms.calibration_scale", "calls"),
    ("sms.calibration_scale.self_ms", "sms.calibration_scale", "self_ms"),
    ("sms.accumulate_class_stats.calls", "sms.accumulate_class_stats", "calls"),
    ("sms.accumulate_class_stats.self_ms", "sms.accumulate_class_stats", "self_ms"),
    ("sms.commit_epoch.self_ms", "sms.commit_epoch", "self_ms"),
    ("model.optimizer_step.self_ms", "model.optimizer_step", "self_ms"),
    # model path: moves train_samples_per_s on train_large
    ("model.model_backward.calls", "model.model_backward", "calls"),
    ("model.model_backward.self_ms", "model.model_backward", "self_ms"),
    ("model.encode_images.self_ms", "model.encode_images", "self_ms"),
    ("data.Dataset.subset.calls", "data.Dataset.subset", "calls"),
    ("data.Dataset.subset.self_ms", "data.Dataset.subset", "self_ms"),
    ("data.batch_iter.self_ms", "data.batch_iter", "self_ms"),
    # evaluation path: moves eval_rows_per_s, and train_samples_per_s on both training workloads
    ("train.evaluate.calls", "train.evaluate", "calls"),
    ("train.evaluate.self_ms", "train.evaluate", "self_ms"),
    ("model.forward_similarity.self_ms", "model.forward_similarity", "self_ms"),
    ("evaluation.metrics_report.self_ms", "evaluation.metrics_report", "self_ms"),
    ("evaluation.auc_macro_ovr.self_ms", "evaluation.auc_macro_ovr", "self_ms"),
    ("evaluation.rank_monotonicity.self_ms", "evaluation.rank_monotonicity", "self_ms"),
    ("evaluation.class_mean_similarity.self_ms", "evaluation.class_mean_similarity", "self_ms"),
    # I/O path: moves roundtrip_s on cli_roundtrip only
    ("data.generate_synthetic.self_ms", "data.generate_synthetic", "self_ms"),
    ("data.write_csv.self_ms", "data.write_csv", "self_ms"),
    ("data.load_csv.self_ms", "data.load_csv", "self_ms"),
    ("train.save_checkpoint.self_ms", "train.save_checkpoint", "self_ms"),
    ("train.load_checkpoint.self_ms", "train.load_checkpoint", "self_ms"),
    ("cli.generate.ms", "cli.generate", "ms"),
    ("cli.train.ms", "cli.train", "ms"),
    ("cli.eval.ms", "cli.eval", "ms"),
    ("cli.heatmap.ms", "cli.heatmap", "ms"),
    ("train.train.self_ms", "train.train", "self_ms"),
]

UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "ms": ("ms", "lower")}

# name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {metric: UNITS[stat] for metric, _, stat in SPAN_METRICS}
PER_LAYER.update(
    {
        # grad_main calls per optimizer step: 2.0 while model_backward recomputes the gradient
        "losses.grad_main.per_step": ("ratio", "lower"),
        # computed matmul flops of model_backward divided by its self time
        "model.model_backward.gflops": ("GFLOP/s", "higher"),
        # share of train() wall time spent in its per-epoch evaluate calls
        "train.evaluate.share": ("ratio", "lower"),
        # traced versus untraced wall time of the same operation
        "trace_overhead_pct": ("%", "lower"),
    }
)


def backward_flops(cfg, train_rows: int) -> float:
    """Matmul flops of the model_backward calls of one ``train()``: per row,
    2 products of size F x H, 3 of H x E and 3 of E x K, 2 flops per
    multiply-add."""
    f, h, e, k = cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes
    return 2.0 * train_rows * cfg.epochs * (2 * f * h + 3 * h * e + 3 * e * k)


def layer_metrics(spans, selfs, flops: float) -> dict[int, dict[str, float]]:
    """Per-layer metrics of every traced operation, keyed by run id, from the
    tracer's spans and their self times (``tracer.self_times``); ``flops`` is
    the computed work of one operation's model_backward calls."""
    calls = defaultdict(lambda: defaultdict(int))
    self_ms = defaultdict(lambda: defaultdict(float))
    ms = defaultdict(lambda: defaultdict(float))
    eval_in_train_ms = defaultdict(float)
    for (name, start, end, parent, run), self_s in zip(spans, selfs):
        calls[run][name] += 1
        self_ms[run][name] += self_s * 1e3
        ms[run][name] += (end - start) * 1e3
        if name == "train.evaluate" and _has_ancestor(spans, parent, "train.train"):
            eval_in_train_ms[run] += (end - start) * 1e3
    return {run: _metrics(calls[run], self_ms[run], ms[run], eval_in_train_ms[run], flops) for run in calls}


def _metrics(calls, self_ms, ms, eval_in_train_ms: float, flops: float) -> dict[str, float]:
    totals = {"calls": calls, "self_ms": self_ms, "ms": ms}
    out = {metric: float(totals[stat][span]) for metric, span, stat in SPAN_METRICS}
    steps = calls["model.optimizer_step"]
    out["losses.grad_main.per_step"] = calls["losses.grad_main"] / steps if steps else 0.0
    backward_s = self_ms["model.model_backward"] / 1e3
    out["model.model_backward.gflops"] = flops / backward_s / 1e9 if backward_s > 0 else 0.0
    train_ms = ms["train.train"]
    out["train.evaluate.share"] = eval_in_train_ms / train_ms if train_ms else 0.0
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
