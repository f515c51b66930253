"""rankprompt benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 38 --trace 0

Run from the repository root.  It imports rankprompt from ``src/``, sets up
the workload's inputs from the seed (several times, reporting the median),
runs the workload's operation back to back for ``--seconds``, checks every
output, and prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics, measured without tracing;
``--trace 1`` reports the per-layer metrics from a traced run that alternates
untraced and traced operations on the same inputs.  Full results, the
machine fingerprint and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    rankprompt's matmuls are too small to gain from a second BLAS thread (on
    a 2-vCPU VM ``train_large`` took 5.23 s per ``train()`` on two threads and
    5.16 s on one), while a second thread doubles the CPU the benchmark holds
    and makes every matmul wait for the slower of two vCPUs on a shared host.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_seconds() -> float:
    """Import time of numpy and rankprompt in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, rankprompt; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _keep_going(started: float, last_s: float, seconds: float, done: int, minimum: int) -> bool:
    """Closed loop: start another operation while it should end inside the window."""
    return done < minimum or perf_counter() - started + last_s <= seconds


def _report(failures, failed: int) -> None:
    """Print the failures of the first few failed operations only."""
    if failed <= MIN_OPS:
        print("\n".join(failures), file=sys.stderr)


def measure(runner, seconds: float):
    from workloads import run_op

    samples = defaultdict(list)
    work = defaultdict(lambda: [0.0, 0.0])
    quality, attempted, failed = {}, 0, 0
    started, last = perf_counter(), 0.0
    while _keep_going(started, last, seconds, attempted, MIN_OPS):
        gc.collect()  # every operation starts from the same heap, untimed
        t0 = perf_counter()
        result = run_op(runner)
        last = perf_counter() - t0
        attempted += 1
        if result.failures:
            failed += 1
            _report(result.failures, failed)
            continue
        for key, value in result.samples.items():
            samples[key].append(value)
        for key, (units, took) in result.work.items():
            work[key][0] += units
            work[key][1] += took
        quality = result.quality
    metrics = {key: median(values) for key, values in samples.items()}
    # A throughput is all the work of the run over the time it took: the host's
    # speed drifts in phases of seconds, and a median of per-operation rates
    # jumps with whichever phase covers most of the run, a total does not.
    metrics.update({key: units / took for key, (units, took) in work.items()})
    metrics.update({f"heldout_{key}": value for key, value in quality.items()})
    metrics["success_rate"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, dict(samples), attempted, failed


def measure_traced(runner, seconds: float, spans_path: Path):
    from layers import layer_metrics
    from tracer import Tracer, self_times
    from workloads import TRACED_MODULES, run_op

    tracer = Tracer(TRACED_MODULES, "rankprompt")
    untraced, traced, traced_runs = [], [], []
    attempted = failed = 0
    started, last = perf_counter(), 0.0
    while _keep_going(started, last, seconds, attempted // 2, MIN_TRACED_PAIRS):
        t0 = perf_counter()
        gc.collect()
        plain = run_op(runner)
        tracer.run_id = attempted // 2
        gc.collect()
        spanned = run_op(runner, tracer)
        last = perf_counter() - t0
        attempted += 2
        failures = plain.failures + spanned.failures
        if not failures and plain.state != spanned.state:
            failures.append("traced and untraced runs ended with different parameters")
        if failures:
            failed += 2 if plain.failures and spanned.failures else 1
            _report(failures, failed)
            continue
        untraced.append(plain.region_s)
        traced.append(spanned.region_s)
        traced_runs.append(tracer.run_id)
    by_run = layer_metrics(tracer.spans, self_times(tracer.spans), runner.flops)
    per_op = [by_run[run] for run in traced_runs]
    samples = {key: [op[key] for op in per_op] for key in per_op[0]} if per_op else {}
    metrics = {key: median(values) for key, values in samples.items()}
    if untraced:
        metrics["trace_overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
        samples.update(untraced_s=untraced, traced_s=traced)
    tracer.write(spans_path)
    return metrics, samples, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if not (SRC / "rankprompt" / "__init__.py").is_file():
        print(f"error: no rankprompt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RANKPROMPT_SEED", None)  # the CLI would override the config seed with it

    t0 = perf_counter()
    import numpy  # noqa: F401
    import rankprompt

    import_s = perf_counter() - t0
    if Path(rankprompt.__file__).resolve().parent != SRC / "rankprompt":
        print(f"error: imported rankprompt from {rankprompt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from fingerprint import fingerprint
    from layers import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()[args.workload][str(workloads.data_seed(args.seed))]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    runner = workloads.make_runner(args.workload, args.seed, expected, workdir)
    try:
        import_times = [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            runner.setup()
            setup_times.append(perf_counter() - t0)
        setup_s = median(i + s for i, s in zip(import_times, setup_times))
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, samples, attempted, failed = measure_traced(runner, args.seconds, OUT / f"{stem}.spans.jsonl.gz")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values, samples, attempted, failed = measure(runner, args.seconds)
            values["setup_s"] = setup_s
            units = {name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": workloads.data_seed(args.seed),
        "config": workloads.config_mod.config_to_dict(runner.cfg),
        "setup_repeats_s": setup_times,
        "import_repeats_s": import_times,
        "samples": samples,
        "fingerprint": fingerprint(ROOT),
        **result,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("fingerprint: " + json.dumps(detail["fingerprint"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
