"""The rankprompt benchmark workloads: inputs made from a seed, one
closed-loop operation each, and the checks on what the operation returns.

Each workload has one client that runs its operation back to back.  The
benchmark seed picks the data and model seed from a pool of eight
(``PINNED_SEED + seed % SEED_POOL``), so every seed has held-out metrics
recorded in ``expected.json`` and every operation's outputs are checked
against them.  Seed 0 is the README/A2 setting, seed 7.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from layers import backward_flops

# Call rankprompt through its modules, never through names imported from
# them, so that the tracer's patches are seen.  ``rankprompt.train`` must
# come from sys.modules: the package re-exports a function of that name.
config_mod = importlib.import_module("rankprompt.config")
data = importlib.import_module("rankprompt.data")
train_mod = importlib.import_module("rankprompt.train")
cli = importlib.import_module("rankprompt.cli")

TRACED_MODULES = {
    name: importlib.import_module(f"rankprompt.{name}")
    for name in ("core", "sms", "losses", "model", "data", "evaluation", "train", "cli")
}

PINNED_SEED = 7
SEED_POOL = 8
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
HELDOUT = ("macro_f1", "macro_auc", "rank_monotonicity")
# Held-out metrics are deterministic for a seed; the tolerance only absorbs
# last-bit differences between BLAS kernels.
HELDOUT_REL_TOL = 1e-9
# end-to-end metric -> (unit, better); every workload reports all of them
END_TO_END = {
    "train_samples_per_s": ("samples/s", "higher"),
    "eval_rows_per_s": ("rows/s", "higher"),
    "roundtrip_s": ("s", "lower"),
    "heldout_macro_f1": ("fraction", "higher"),
    "heldout_macro_auc": ("fraction", "higher"),
    "heldout_rank_monotonicity": ("fraction", "higher"),
    "success_rate": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
CLI_COMMANDS = ("generate", "train", "eval", "heatmap")
CLI_OUTPUTS = ("checkpoint.json", "metrics.json", "heatmap.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "cli"
    config: dict = field(default_factory=dict)  # RunConfig fields besides the seed
    eval_repeats: int = 0  # held-out evaluate calls timed per operation


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_default",
            "README/A2 config (N=2000, K=5, 256-row batches, 50 epochs): 7 small batches per epoch, "
            "so per-call loss, calibration and per-epoch evaluate overhead dominates",
            "train",
            {},
            eval_repeats=200,
        ),
        Workload(
            "train_large",
            "N=40000, K=8, 4096-row batches, 8 epochs, A3 hard long tail: the MLP matmuls dominate "
            "and rare grades are sparse in each batch",
            "train",
            {
                "samples": 40000,
                "classes": 8,
                "feature_dim": 64,
                "hidden_dim": 256,
                "embed_dim": 64,
                "batch_size": 4096,
                "epochs": 8,
                "imbalance_ratio": 20.0,
                "class_sep": 0.75,
                "noise_sigma": 0.5,
            },
            eval_repeats=25,
        ),
        Workload(
            "cli_roundtrip",
            "README walkthrough in-process: generate, train, eval, heatmap on N=20000, K=5, imbalance 5, "
            "2 epochs; CSV and checkpoint I/O carry it",
            "cli",
            {"samples": 20000, "classes": 5, "imbalance_ratio": 5.0, "epochs": 2},
        ),
    )
}


def data_seed(seed: int) -> int:
    return PINNED_SEED + seed % SEED_POOL


def run_config(workload: Workload, seed: int):
    return config_mod.RunConfig(seed=data_seed(seed), **workload.config)


def dataset_spec(cfg):
    return data.DatasetSpec(
        samples=cfg.samples,
        classes=cfg.classes,
        feature_dim=cfg.feature_dim,
        class_sep=cfg.class_sep,
        noise_sigma=cfg.noise_sigma,
        imbalance_ratio=cfg.imbalance_ratio,
        seed=cfg.seed,
    )


def config_text(cfg) -> str:
    """The flat config file the CLI reads, listing every field."""
    lines = []
    for key, value in config_mod.config_to_dict(cfg).items():
        lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
    return "\n".join(lines) + "\n"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class OpResult:
    samples: dict  # end-to-end metric -> one sample
    quality: dict  # held-out metric -> value
    failures: list
    state: str  # digest of the trained parameters
    region_s: float  # wall time of the part a tracer covers
    work: dict = field(default_factory=dict)  # throughput metric -> (units of work, seconds)


def _check_log(log) -> list:
    bad = [e["epoch"] for e in log if not all(math.isfinite(v) for v in e.values())]
    return [f"non-finite train-log values in epochs {bad}"] if bad else []


def _check_heldout(quality: dict, expected: dict | None) -> list:
    if expected is None:
        return []
    failures = []
    for key in HELDOUT:
        want = expected[key]
        if not math.isclose(quality[key], want, rel_tol=HELDOUT_REL_TOL, abs_tol=1e-12):
            failures.append(f"held-out {key} {quality[key]!r} differs from recorded {want!r}")
    return failures


def _rates(work: dict) -> dict:
    return {key: units / seconds for key, (units, seconds) in work.items()}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class TrainRunner:
    """``train.train`` on the train split, then ``train.evaluate`` on the test split."""

    def __init__(self, workload: Workload, seed: int, expected: dict | None):
        self.workload = workload
        self.cfg = run_config(workload, seed)
        self.expected = expected

    def inputs(self):
        return data.generate_synthetic(dataset_spec(self.cfg))

    def setup(self) -> None:
        self.dataset = self.inputs()
        self.test = self.dataset.subset("test")
        self.train_rows = int((self.dataset.split == "train").sum())
        self.flops = backward_flops(self.cfg, self.train_rows)
        warm = train_mod.train(replace(self.cfg, epochs=1), self.dataset)
        train_mod.evaluate(warm.params, warm.stats, *self.test, self.cfg)

    def op(self, tracer=None) -> OpResult:
        cfg, test = self.cfg, self.test
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = perf_counter()
            result = train_mod.train(cfg, self.dataset)
            t1 = perf_counter()
        report = train_mod.evaluate(result.params, result.stats, *test, cfg)
        t2 = perf_counter()
        for _ in range(self.workload.eval_repeats):
            train_mod.evaluate(result.params, result.stats, *test, cfg)
        t3 = perf_counter()
        quality = {key: getattr(report, key) for key in HELDOUT}
        work = {
            "train_samples_per_s": (self.train_rows * cfg.epochs, t1 - t0),
            "eval_rows_per_s": (report.n_eval * self.workload.eval_repeats, t3 - t2),
        }
        return OpResult(
            samples={**_rates(work), "roundtrip_s": t2 - t0},
            quality=quality,
            failures=_check_log(result.log) + _check_heldout(quality, self.expected),
            state=_digest(*(a.tobytes() for a in result.params.as_dict().values())),
            region_s=t1 - t0,
            work=work,
        )


class CliRunner:
    """``rankprompt.cli.main`` in-process for generate, train, eval, heatmap,
    each repetition in a fresh output directory."""

    def __init__(self, workload: Workload, seed: int, expected: dict | None, workdir: Path):
        self.workload = workload
        self.cfg = run_config(workload, seed)
        self.expected = expected
        self.workdir = workdir
        self.reps = 0
        self.digests = None

    def inputs(self) -> str:
        return config_text(self.cfg)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "run.cfg"
        self.config_path.write_text(self.inputs(), encoding="utf-8")
        dataset = data.generate_synthetic(dataset_spec(self.cfg))
        self.flops = backward_flops(self.cfg, int((dataset.split == "train").sum()))
        # warm-up: one small roundtrip through every command
        warm_cfg = self.workdir / "warm.cfg"
        warm_cfg.write_text(config_text(replace(self.cfg, samples=500, epochs=1)), encoding="utf-8")
        warm_out = self.workdir / "warm"
        for command in CLI_COMMANDS:
            self._main([command, "--config", str(warm_cfg), "--out", str(warm_out)])
        shutil.rmtree(warm_out)

    @staticmethod
    def _main(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def op(self, tracer=None) -> OpResult:
        out = self.workdir / f"rep{self.reps}"
        self.reps += 1
        times = {}
        failures = []
        with tracer if tracer is not None else contextlib.nullcontext():
            for command in CLI_COMMANDS:
                argv = [command, "--config", str(self.config_path), "--out", str(out)]
                t0 = perf_counter()
                with tracer.span(f"cli.{command}") if tracer is not None else contextlib.nullcontext():
                    code, text = self._main(argv)
                times[command] = perf_counter() - t0
                if code != 0:
                    failures.append(f"rankprompt {command} exited {code}: {text.strip()}")
                    break
        if failures:
            shutil.rmtree(out, ignore_errors=True)
            return OpResult({}, {}, failures, "", 0.0)
        digests = {name: _digest((out / name).read_bytes()) for name in CLI_OUTPUTS}
        if self.digests is None:
            self.digests = digests
        changed = [name for name in CLI_OUTPUTS if digests[name] != self.digests[name]]
        if changed:
            failures.append(f"outputs differ from the first repetition: {changed}")
        report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        log = [json.loads(line) for line in (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()]
        meta = json.loads((out / "dataset.meta.json").read_text(encoding="utf-8"))
        shutil.rmtree(out)
        quality = {key: report[key] for key in HELDOUT}
        failures += _check_log(log) + _check_heldout(quality, self.expected)
        roundtrip = sum(times.values())
        work = {
            "train_samples_per_s": (meta["train_rows"] * self.cfg.epochs, times["train"]),
            "eval_rows_per_s": (report["n_eval"], times["eval"]),
        }
        return OpResult(
            samples={**_rates(work), "roundtrip_s": roundtrip},
            quality=quality,
            failures=failures,
            state=digests["checkpoint.json"],
            region_s=roundtrip,
            work=work,
        )


def make_runner(name: str, seed: int, expected: dict | None, workdir: Path):
    workload = WORKLOADS[name]
    if workload.kind == "cli":
        return CliRunner(workload, seed, expected, workdir)
    return TrainRunner(workload, seed, expected)


def run_op(runner, tracer=None) -> OpResult:
    """One operation; an exception counts as a failed operation."""
    try:
        return runner.op(tracer)
    except Exception:  # the loop must go on and count the failure
        return OpResult({}, {}, [traceback.format_exc()], "", 0.0)
