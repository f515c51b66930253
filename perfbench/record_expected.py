"""Record the held-out metrics of every workload for every pooled seed.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``, which the benchmark checks each
operation against.  Re-record only when a change is meant to alter what
training learns, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        expected[name] = {}
        for seed in range(workloads.SEED_POOL):
            workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT)
            runner = workloads.make_runner(name, seed, None, run.Path(workdir))
            try:
                runner.setup()
                result = runner.op()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            expected[name][str(workloads.data_seed(seed))] = result.quality
            print(name, workloads.data_seed(seed), result.quality, flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
