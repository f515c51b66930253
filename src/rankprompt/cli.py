"""Command-line entry point.

Subcommands: generate, train, eval, heatmap, ablate.  Every command is a
pure function of its config and input files; outputs are byte-identical
across reruns.  Exit codes: 0 success, 2 bad config, 3 I/O or data-file
problem.  RANKPROMPT_SEED overrides the config seed when set.  Where none
of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set, BLAS
runs on one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from statistics import mean, stdev

# BLAS reads its thread count when numpy loads, so this comes before the imports that load it.  Where
# the user set none, run BLAS on one thread: ``model`` runs a large input's two parts on two Python
# threads, and with a BLAS thread per CPU each (OpenBLAS's default) they oversubscribe the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .config import RunConfig, config_to_dict, load_config  # noqa: E402
from .core import InputError  # noqa: E402
from .data import Dataset, DatasetSpec, ParseError, _csv_lines, class_counts, generate_synthetic, load_csv, write_csv  # noqa: E402
from .evaluation import MetricsReport  # noqa: E402
from .train import _write_json, evaluate, heatmap_matrix, load_checkpoint, save_checkpoint, train  # noqa: E402

SEED_ENV = "RANKPROMPT_SEED"
# name -> RunConfig overrides
ABLATION_VARIANTS = {
    "full": {},
    "no_rank": {"lambda_rank": 0.0},
    "no_main": {"lambda_main": 0.0},
    "no_sms": {"sms_enabled": False},
}
ABLATION_SEEDS = 5
ABLATION_METRICS = ("macro_f1", "macro_auc", "rank_monotonicity")


def run_battery(cfg: RunConfig, variants: dict, seeds) -> dict[str, list[MetricsReport]]:
    """Train every variant (name -> RunConfig overrides) of ``cfg`` once per seed, on the dataset
    its own config describes, and score the test split; returns each variant's reports in seed order.
    Variants that leave the dataset keys alone get the same dataset for a seed, so they compare paired."""
    reports = {name: [] for name in variants}
    for seed in seeds:
        for name, overrides in variants.items():
            vcfg = replace(cfg, seed=seed, **overrides)
            dataset = generate_synthetic(DatasetSpec.from_config(vcfg))
            result = train(vcfg, dataset)
            reports[name].append(evaluate(result.params, result.stats, *dataset.subset("test"), vcfg))
    return reports


def _out_dir(cfg: RunConfig, args) -> Path:
    out = Path(args.out if args.out else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(cfg: RunConfig, args, out: Path) -> Dataset:
    path = Path(args.dataset) if args.dataset else out / "dataset.csv"
    return load_csv(path, expected_classes=cfg.classes)


def cmd_generate(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    spec = DatasetSpec.from_config(cfg)
    dataset = generate_synthetic(spec)
    write_csv(dataset, out / "dataset.csv")
    meta = {
        "config": config_to_dict(cfg),
        "class_counts": class_counts(spec),
        "train_rows": int((dataset.split == "train").sum()),
        "test_rows": int((dataset.split == "test").sum()),
    }
    _write_json(out / "dataset.meta.json", meta)
    print(f"wrote {out / 'dataset.csv'} ({dataset.n} rows)")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    dataset = _load_dataset(cfg, args, out)
    result = train(cfg, dataset)
    with open(out / "train_log.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    save_checkpoint(out / "checkpoint.json", result, cfg)
    last = result.log[-1] if result.log else None
    tail = f"total={last['total']:.6f} f1={last['train_macro_f1']:.4f}" if last else "no epochs run"
    print(f"wrote {out / 'checkpoint.json'} ({len(result.log)} epochs, {tail})")
    return 0


def _inference_inputs(cfg: RunConfig, args, out: Path):
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.json"
    params, stats = load_checkpoint(ckpt_path, cfg)
    dataset = _load_dataset(cfg, args, out)
    feats, labels = dataset.subset(args.split)
    if feats.shape[0] == 0:
        raise InputError(f"split {args.split!r} has no rows")
    return params, stats, feats, labels


def cmd_eval(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    params, stats, feats, labels = _inference_inputs(cfg, args, out)
    report = evaluate(params, stats, feats, labels, cfg)
    _write_json(out / "metrics.json", report.to_dict())
    print(
        f"{args.split}: macro_f1={report.macro_f1:.4f} macro_auc={report.macro_auc:.4f} "
        f"rank_monotonicity={report.rank_monotonicity:.4f} (n={report.n_eval})"
    )
    return 0


def cmd_heatmap(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    params, stats, feats, labels = _inference_inputs(cfg, args, out)
    matrix = heatmap_matrix(params, stats, feats, labels, cfg)
    path = out / "heatmap.csv"
    with open(path, "wb") as fh:
        fh.write(("true_class," + ",".join(f"s{j}" for j in range(cfg.classes)) + "\n").encode("utf-8"))
        fh.write(_csv_lines([str(c) for c in range(cfg.classes)], matrix))
    print(f"wrote {path}")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    seeds = [cfg.seed + i for i in range(ABLATION_SEEDS)]
    reports = run_battery(cfg, ABLATION_VARIANTS, seeds)
    collected = {
        name: {metric: [getattr(report, metric) for report in runs] for metric in ABLATION_METRICS}
        for name, runs in reports.items()
    }
    summary = {
        "seeds": seeds,
        "variants": {
            name: {
                metric: {
                    "mean": mean(vals),
                    "stdev": stdev(vals),
                    "values": vals,
                }
                for metric, vals in metrics.items()
            }
            for name, metrics in collected.items()
        },
    }
    _write_json(out / "ablation.json", summary)
    for name in ABLATION_VARIANTS:
        row = summary["variants"][name]
        print(
            f"{name:8s} macro_f1={row['macro_f1']['mean']:.4f}±{row['macro_f1']['stdev']:.4f} "
            f"rank_monotonicity={row['rank_monotonicity']['mean']:.4f}±{row['rank_monotonicity']['stdev']:.4f}"
        )
    print(f"wrote {out / 'ablation.json'}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "heatmap": cmd_heatmap,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankprompt",
        description="Rank-aware similarity alignment experiments on synthetic ordinal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (default: out_dir from config)")
        if name in ("train", "eval", "heatmap"):
            p.add_argument("--dataset", default=None, help="dataset CSV (default: <out>/dataset.csv)")
        if name in ("eval", "heatmap"):
            p.add_argument("--checkpoint", default=None, help="checkpoint JSON (default: <out>/checkpoint.json)")
            p.add_argument("--split", default="test", choices=["train", "test"])
    return parser


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's trim and mmap thresholds at 64 and 32 MiB, where its dynamic rule tops out; False without mallopt.
    Left dynamic, whether an eval's megabyte arrays reuse freed heap pages or are page-faulted afresh varied by process."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    return bool(mallopt) and mallopt(-1, 64 << 20) == 1 and mallopt(-3, 32 << 20) == 1  # M_TRIM_, M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        env_seed = os.environ.get(SEED_ENV)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise InputError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
            cfg = replace(cfg, seed=seed)
        return COMMANDS[args.command](cfg, args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
