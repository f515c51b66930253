"""The training loop: input checks at its entry, none per batch, and the
divergence guard after every optimizer step."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rankprompt import core, model
from rankprompt.config import RunConfig
from rankprompt.core import InputError
from rankprompt.data import DatasetSpec, generate_synthetic
from rankprompt.train import train

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


def dataset_for(cfg):
    return generate_synthetic(
        DatasetSpec(samples=cfg.samples, classes=cfg.classes, feature_dim=cfg.feature_dim, seed=cfg.seed)
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
        dataset = dataset_for(cfg)
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
        dataset = dataset_for(replace(TINY, classes=4))
        with pytest.raises(InputError, match="^label 3 out of range for 3 classes$"):
            train(TINY, dataset)

    def test_feature_width_checked_once(self):
        dataset = dataset_for(replace(TINY, feature_dim=6))
        with pytest.raises(InputError, match=r"^features must be M x 4, got shape"):
            train(TINY, dataset)

    def test_checks_do_not_grow_with_the_batch_count(self, monkeypatch):
        """Batches of 8 and of 64 rows make the same number of label vectors
        and label range checks: every one of them belongs to the entry of
        train or to a per-epoch evaluation.  The step still runs once per
        batch."""
        calls = Counter()

        def count(owner, name, key):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(core.LabelVector, "__post_init__", "LabelVector")
        count(core.LabelVector, "validate_for", "validate_for")
        count(model, "model_backward", "model_backward")
        dataset = dataset_for(TINY)
        seen = {}
        for batch_size in (8, 64):
            calls.clear()
            train(replace(TINY, batch_size=batch_size), dataset)
            seen[batch_size] = dict(calls)
            assert calls["model_backward"] == TINY.epochs * math.ceil(train_rows(dataset) / batch_size)
        assert seen[8]["model_backward"] > seen[64]["model_backward"]
        for key in ("LabelVector", "validate_for"):
            assert seen[8][key] == seen[64][key], key
