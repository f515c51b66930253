"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.x", 5.0, 7.0, 3, 0],
        ["b.y", 6.0, 8.0, 3, 0],  # overlaps b.x: the union counts once
        ["c", 9.5, 12.0, 0, 0],  # runs past its parent: only the inside counts
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 1.0, 2.0, 2.0, 2.5])


def _attributes():
    """Every module and class attribute the tracer may patch, by identity."""
    snapshot = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "rankprompt" or name.startswith("rankprompt."):
            for attr, obj in vars(mod).items():
                snapshot[(name, attr)] = obj
                if inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        snapshot[(name, attr, cattr)] = cobj
    return snapshot


def _tiny_runner(seed=0):
    runner = workloads.TrainRunner(workloads.WORKLOADS["train_default"], seed, None)
    runner.cfg = replace(runner.cfg, samples=200, epochs=2)
    runner.setup()
    return runner


def test_tracer_restores_every_attribute_and_keeps_parameters():
    runner = _tiny_runner()
    before = _attributes()
    plain = runner.op()
    tracer = Tracer(workloads.TRACED_MODULES, "rankprompt")
    traced = runner.op(tracer)
    after = _attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert tracer.spans, "the traced run recorded no spans"
    assert plain.state == traced.state
    names = {span[0] for span in tracer.spans}
    # imported by name into model, and a generator timed per next()
    assert {"sms.calibrate_rows", "data.batch_iter", "core.LabelVector.validate_for"} <= names


def test_generator_spans_exclude_the_consumer():
    runner = _tiny_runner()
    tracer = Tracer(workloads.TRACED_MODULES, "rankprompt")
    runner.op(tracer)
    batches = [s for s in tracer.spans if s[0] == "data.batch_iter"]
    steps = [s for s in tracer.spans if s[0] == "model.model_backward"]
    # one span per yielded batch plus the final StopIteration, per epoch
    assert len(batches) == len(steps) + runner.cfg.epochs
    for step in steps:
        assert not any(b[1] <= step[1] and step[2] <= b[2] for b in batches)


def test_same_seed_gives_same_inputs():
    for name, workload in workloads.WORKLOADS.items():
        make = (
            (lambda seed: workloads.CliRunner(workload, seed, None, HERE).inputs())
            if workload.kind == "cli"
            else (lambda seed: workloads.TrainRunner(workload, seed, None).inputs())
        )
        first, again, other = make(3), make(3), make(4)
        if workload.kind == "cli":
            assert first == again and first != other
        else:
            assert np.array_equal(first.features, again.features)
            assert np.array_equal(first.labels.labels, again.labels.labels)
            assert not np.array_equal(first.features, other.features)


def test_train_default_counts():
    runner = workloads.TrainRunner(workloads.WORKLOADS["train_default"], 0, None)
    runner.setup()
    tracer = Tracer(workloads.TRACED_MODULES, "rankprompt")
    runner.op(tracer)
    m = layers.layer_metrics(tracer.spans, self_times(tracer.spans), runner.flops)[0]
    assert m["model.model_backward.calls"] == 350
    assert m["losses.grad_main.calls"] == 700
    assert m["losses.grad_main.per_step"] == 2.0
    assert m["train.evaluate.calls"] == 50
    assert m["core.validate_for.calls"] == 5950


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_expected_values_cover_the_seed_pool():
    expected = workloads.load_expected()
    for name in workloads.WORKLOADS:
        seeds = {str(workloads.data_seed(s)) for s in range(workloads.SEED_POOL)}
        assert set(expected[name]) == seeds
