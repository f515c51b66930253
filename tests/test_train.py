"""The training loop: input checks at its entry, none per batch, the
divergence guard after every optimizer step, the train-split metrics taken
from the scores of the epoch's own steps, the statistics it returns when
nothing was committed, and the README's library example."""

import json
import math
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import calibrated
from rankprompt import core, data, evaluation, model, sms
from rankprompt import train as train_module
from rankprompt.config import RunConfig
from rankprompt.core import InputError
from rankprompt.data import DatasetSpec, generate_synthetic
from rankprompt.train import STATS_KEYS, TrainResult, calibrated_similarity, load_checkpoint, save_checkpoint, train

TINY = RunConfig(
    seed=5,
    classes=3,
    samples=120,
    feature_dim=4,
    hidden_dim=5,
    embed_dim=3,
    epochs=2,
    batch_size=8,
    learning_rate=0.01,
)


def train_rows(dataset):
    return int((dataset.split == "train").sum())


class TestDivergenceGuard:
    @pytest.mark.parametrize(
        "optimizer, tensor, index",
        [
            pytest.param("adam", "w1", (3, 4), id="adam-w1"),
            pytest.param("adam", "b1", (0,), id="adam-b1"),
            pytest.param("adam", "w2", (2, 1), id="adam-w2"),
            pytest.param("adam", "b2", (2,), id="adam-b2"),
            pytest.param("adam", "text", (1, 0), id="adam-text"),
            pytest.param("sgd", "w2", (0, 0), id="sgd-w2"),
        ],
    )
    def test_nan_gradient_names_epoch_batch_and_tensor(self, monkeypatch, optimizer, tensor, index):
        """A NaN put into one gradient entry at (epoch 1, batch 4) stops
        training right after that step, and the message names the step
        and the tensor the NaN landed in."""
        cfg = replace(TINY, optimizer=optimizer)
        dataset = generate_synthetic(DatasetSpec.from_config(cfg))
        per_epoch = math.ceil(train_rows(dataset) / cfg.batch_size)
        poisoned_call = per_epoch * 1 + 4
        real = model.model_backward
        calls = []

        def backward(*args, **kwargs):
            result = real(*args, **kwargs)
            if len(calls) == poisoned_call:
                getattr(result.grads, tensor)[index] = np.nan
            calls.append(1)
            return result

        monkeypatch.setattr(model, "model_backward", backward)
        with pytest.raises(InputError) as err:
            train(cfg, dataset)
        assert str(err.value) == (
            f"training diverged at epoch 1, batch 4: the optimizer step made parameter {tensor} non-finite"
        )
        assert len(calls) == poisoned_call + 1


class TestBoundaryChecks:
    def test_labels_checked_against_config_once(self):
        """A dataset with more grades than the config fails at the entry of
        train, before any step, and is not reported as divergence."""
        dataset = generate_synthetic(DatasetSpec.from_config(replace(TINY, classes=4)))
        with pytest.raises(InputError, match="^label 3 out of range for 3 classes$"):
            train(TINY, dataset)

    def test_every_grade_needs_train_rows(self, monkeypatch):
        """A 3-grade dataset under a 4-grade config passes the label range
        check, but grade 3 has no train rows, so no epoch could commit
        statistics for it: train fails at its entry, before any step."""
        steps = []
        monkeypatch.setattr(model, "model_backward", lambda *args, **kwargs: steps.append(1))
        with pytest.raises(InputError, match=r"^classes \[3\] have no train samples$"):
            train(replace(TINY, classes=4), generate_synthetic(DatasetSpec.from_config(TINY)))
        assert steps == []

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "K"])
    @pytest.mark.parametrize(
        "boundary",
        ["Dataset", "train", "metrics_report", "class_mean_similarity", "calibrated_similarity", "model_backward"],
    )
    def test_every_label_boundary_rejects_out_of_range(self, boundary, bad):
        """Each entry point that takes labels rejects -1 and K = 3 with
        ``check_labels``'s InputError, which names a label past K."""
        labels = np.array([0, 1, 2, 0, 1, bad])
        scores = np.zeros((6, 3))
        stats = sms.commit_epoch(scores, np.array([0, 1, 2, 0, 1, 2]), RunConfig(sms_sigma=1.0))
        split = np.array(["train"] * 6, dtype=object)

        def train_on(labels):
            dataset = generate_synthetic(DatasetSpec.from_config(TINY))
            object.__setattr__(dataset, "labels", labels[np.arange(dataset.n) % 6])  # past Dataset's own check
            train(TINY, dataset)

        calls = {
            "Dataset": lambda: data.Dataset(np.zeros((6, 2)), labels, split, np.arange(6), 3),
            "train": lambda: train_on(labels),
            "metrics_report": lambda: evaluation.metrics_report(scores, labels, 3),
            "class_mean_similarity": lambda: evaluation.class_mean_similarity(scores, labels, 3),
            "calibrated_similarity": lambda: calibrated_similarity(
                model.init_params(2, 4, 3, 3, 0), stats, np.zeros((6, 2)), labels, RunConfig(classes=3, feature_dim=2)
            ),
            "model_backward": lambda: model.model_backward(
                model.init_params(2, 4, 3, 3, 0), np.zeros((6, 2)), labels, None, RunConfig()
            ),
        }
        message = "^labels must be non-negative class indices$" if bad < 0 else "^label 3 out of range for 3 classes$"
        with pytest.raises(InputError, match=message):
            calls[boundary]()

    def test_feature_width_checked_once(self):
        dataset = generate_synthetic(DatasetSpec.from_config(replace(TINY, feature_dim=6)))
        with pytest.raises(InputError, match=r"^features must be M x 4, got shape"):
            train(TINY, dataset)

    def test_checks_do_not_grow_with_the_batch_count(self, monkeypatch):
        """Beyond the one in each step, batches of 8 and of 64 rows make the
        same number of label checks: every other one belongs to the entry of
        train or to an epoch's ``metrics_report``.  The step runs once per
        batch and checks its labels once."""
        calls = Counter()

        def count(owner, name, key):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for module in (data, sms, train_module, evaluation):  # each imported check_labels by name
            count(module, "check_labels", "check_labels")
        count(model, "check_labels", "step check_labels")
        count(model, "model_backward", "model_backward")
        dataset = generate_synthetic(DatasetSpec.from_config(TINY))
        seen = {}
        for batch_size in (8, 64):
            calls.clear()
            train(replace(TINY, batch_size=batch_size), dataset)
            seen[batch_size] = dict(calls)
            assert calls["model_backward"] == TINY.epochs * math.ceil(train_rows(dataset) / batch_size)
            assert calls["step check_labels"] == calls["model_backward"]
        assert seen[8]["model_backward"] > seen[64]["model_backward"]
        assert seen[8]["check_labels"] == seen[64]["check_labels"]


# A train split of 4,800 rows, over model.FORWARD_TILE_ROWS: one inference chunk in two halves.
LARGE_SPLIT = replace(TINY, samples=6000, batch_size=1024, epochs=3)


@pytest.fixture(scope="module")
def large_split():
    dataset = generate_synthetic(DatasetSpec.from_config(LARGE_SPLIT))
    assert train_rows(dataset) > model.FORWARD_TILE_ROWS
    return dataset


class TestTrainMetrics:
    @pytest.mark.parametrize("sms_enabled", [True, False], ids=["sms-on", "sms-off"])
    @pytest.mark.parametrize("cfg", [TINY, LARGE_SPLIT], ids=["tiny", "large-split"])
    def test_train_fields_are_the_metrics_of_the_scores_each_step_saw(self, monkeypatch, large_split, cfg, sms_enabled):
        """Each epoch's three ``train_*`` values are exactly ``metrics_report``
        over the ``similarity_raw`` rows that the epoch's ``model_backward``
        calls returned, in call order, each calibrated by the statistics that
        step received, and their labels; ``train`` never calls ``evaluate``."""
        dataset = large_split if cfg is LARGE_SPLIT else generate_synthetic(DatasetSpec.from_config(cfg))
        cfg = replace(cfg, sms_enabled=sms_enabled)
        per_epoch = math.ceil(train_rows(dataset) / cfg.batch_size)
        real = model.model_backward
        steps = []

        def backward(params, feats, labels, stats, *args, **kwargs):
            result = real(params, feats, labels, stats, *args, **kwargs)
            steps.append((result.similarity_raw.copy(), labels.copy(), stats))
            return result

        def evaluate(*args, **kwargs):
            raise AssertionError("train called evaluate")

        monkeypatch.setattr(model, "model_backward", backward)
        monkeypatch.setattr(train_module, "evaluate", evaluate)
        log = train(cfg, dataset).log
        assert len(log) == cfg.epochs and len(steps) == cfg.epochs * per_epoch
        previous = None
        for epoch, entry in enumerate(log):
            raws, batch_labels, received = zip(*steps[epoch * per_epoch : (epoch + 1) * per_epoch])
            stats = received[0]
            assert all(step_stats is stats for step_stats in received)
            raw, labels = np.concatenate(raws), np.concatenate(batch_labels)
            scores = raw if stats is None else np.concatenate(
                [calibrated(r, lab, stats) for r, lab in zip(raws, batch_labels)]
            )
            rep = evaluation.metrics_report(scores, labels, cfg.classes, cfg.tau)
            logged = (entry["train_macro_f1"], entry["train_macro_auc"], entry["train_rank_monotonicity"])
            assert logged == (rep.macro_f1, rep.macro_auc, rep.rank_monotonicity)
            # calibrated under the statistics epoch - 1 committed from its raw rows, raw without any
            assert (stats is None) == (epoch == 0 or not sms_enabled)
            if stats is not None:
                assert all(getattr(stats, key).tobytes() == getattr(previous, key).tobytes() for key in STATS_KEYS)
                assert not np.array_equal(scores, raw)
            previous = sms.commit_epoch(raw, labels, cfg)

    @pytest.mark.parametrize("sms_enabled", [True, False], ids=["sms-on", "sms-off"])
    def test_one_commit_per_epoch(self, monkeypatch, sms_enabled):
        """``train`` commits statistics once at the end of every epoch with
        ``sms_enabled = true``, and never with it false."""
        commits = []
        real = sms.commit_epoch
        monkeypatch.setattr(sms, "commit_epoch", lambda *args: commits.append(1) or real(*args))
        cfg = replace(TINY, epochs=3, sms_enabled=sms_enabled)
        train(cfg, generate_synthetic(DatasetSpec.from_config(cfg)))
        assert len(commits) == (cfg.epochs if sms_enabled else 0)


# Two batches of model.FORWARD_TILE_ROWS rows per epoch, split steps, and the 704 rows left.
LARGE_BATCH = replace(LARGE_SPLIT, batch_size=model.FORWARD_TILE_ROWS)


class TestSerialEpochLog:
    """Each epoch logs its own steps, on a train split of any size: a longer run
    logs the same first epochs, and no thread outlives the call that starts it."""

    def test_log_prefix_matches_a_shorter_run(self, large_split):
        """Epochs 0 and 1 log the same bits in a two-epoch and a three-epoch run."""
        three = train(replace(LARGE_SPLIT, epochs=3), large_split).log
        two = train(replace(LARGE_SPLIT, epochs=2), large_split).log
        assert three[:2] == two
        assert len(three) == 3

    def test_no_thread_outlives_train(self, monkeypatch, large_split):
        """With two usable CPUs, split batches and inference start workers;
        each is joined before the call that started it returns."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        started = []
        real = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
        for cfg in (LARGE_SPLIT, LARGE_BATCH):
            threads = threading.active_count()
            result = train(cfg, large_split)
            assert threading.active_count() == threads
            calibrated_similarity(result.params, result.stats, large_split.features, large_split.labels, cfg)
            assert threading.active_count() == threads
        assert started and not any(thread.is_alive() for thread in started)


class TestOneOrTwoCpus:
    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("sms_enabled", [True, False], ids=["sms-on", "sms-off"])
    @pytest.mark.parametrize("widths", [(64, 256), (63, 255)], ids=["64-256", "63-255"])
    def test_same_bytes(self, monkeypatch, widths, sms_enabled, normalize):
        """A split step's parts depend on the batch and the layer widths, not on
        the machine: one usable CPU and two train the same parameters,
        statistics and log, at widths where a cut keeps every bit and where it
        does not."""
        f, h = widths
        cfg = replace(
            LARGE_BATCH, feature_dim=f, hidden_dim=h, embed_dim=64, sms_enabled=sms_enabled, normalize_embeddings=normalize
        )
        dataset = generate_synthetic(DatasetSpec.from_config(cfg))
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_usable_cpus", lambda n=cpus: n)
            result = train(cfg, dataset)
            stats = [] if result.stats is None else [getattr(result.stats, key).tobytes() for key in STATS_KEYS]
            runs.append((result.params.flat.tobytes(), stats, json.dumps(result.log)))
        assert runs[0] == runs[1]


class TestCommittedStatistics:
    @pytest.mark.parametrize(
        "change", [pytest.param({"sms_enabled": False}, id="sms-off"), pytest.param({"epochs": 0}, id="no-epochs")]
    )
    def test_nothing_committed_is_none_and_all_null(self, tmp_path, change):
        """Training that commits no statistics returns None for them, and
        the checkpoint's ``sms`` object is all null."""
        cfg = replace(TINY, **change)
        result = train(cfg, generate_synthetic(DatasetSpec.from_config(cfg)))
        assert result.stats is None
        save_checkpoint(tmp_path / "checkpoint.json", result, cfg)
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        assert doc["sms"] == dict.fromkeys(("count", "mean", "var", "smoothed_mean", "smoothed_var"))


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("sms_enabled", [True, False], ids=["sms-on", "sms-off"])
    def test_load_then_save_rewrites_the_same_bytes(self, tmp_path, sms_enabled):
        """Every value the reader keeps is written back exactly: parameters,
        statistics (or their absence), hyper sizes."""
        cfg = replace(TINY, sms_enabled=sms_enabled)
        result = train(cfg, generate_synthetic(DatasetSpec.from_config(cfg)))
        save_checkpoint(tmp_path / "trained.json", result, cfg)
        params, stats = load_checkpoint(tmp_path / "trained.json", cfg)
        assert (stats is None) == (not sms_enabled)
        save_checkpoint(tmp_path / "again.json", TrainResult(params, stats, result.log), cfg)
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "trained.json").read_bytes()


class TestSelfExcludedSmoothing:
    def test_diverges_where_self_inclusive_smoothing_converges(self):
        """The claim of the comment on ``RunConfig.sms_sigma``: on the README
        config (seed 7) over 100 epochs, smoothing that excludes each grade's
        own statistics drives the final total loss to 173 and the calibration
        scales to 0.45-9.74, while the default self-inclusive kernel ends at
        0.214 with scales of 0.98-1.54."""
        cfg = replace(RunConfig(seed=7), epochs=100)
        dataset = generate_synthetic(DatasetSpec.from_config(cfg))
        ends = {}
        for include_self in (False, True):
            result = train(replace(cfg, sms_include_self=include_self), dataset)
            scale, _ = result.stats.calibration_table
            ends[include_self] = (result.log[-1]["total"], scale.min(), scale.max())
        loss, low, high = ends[False]
        assert loss > 50.0 and low < 0.7 and high > 5.0, ends
        loss, low, high = ends[True]
        assert loss < 1.0 and 0.9 < low and high < 2.0, ends


class TestEachSettingReachesItsLayer:
    @pytest.mark.parametrize(
        "change",
        [
            {"tau": 0.5},
            {"lambda_main": 0.5},
            {"lambda_rank": 0.5},
            {"sms_sigma": 1.0},
            {"sms_include_self": False},
            {"normalize_embeddings": True},
            {"optimizer": "sgd"},
            {"learning_rate": 0.02},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_changing_one_setting_changes_the_trained_parameters(self, change):
        """The loss, smoothing, model and optimizer layers each read their
        setting from the config ``train`` passes them: changing it alone,
        away from both TINY's value and the default, changes the trained
        bytes.  A layer that read a default ``RunConfig`` would not."""
        (key, value), = change.items()
        assert value not in (getattr(TINY, key), getattr(RunConfig(), key))
        dataset = generate_synthetic(DatasetSpec.from_config(TINY))
        base = train(TINY, dataset).params.flat.tobytes()
        assert train(replace(TINY, **change), dataset).params.flat.tobytes() != base


def test_readme_library_example_runs(capsys):
    """The README's Python example runs and prints its two metrics."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Typical library use:\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    macro_f1, monotonicity = map(float, capsys.readouterr().out.split())
    assert 0.0 <= macro_f1 <= 1.0 and 0.0 <= monotonicity <= 1.0
