"""Encoder, initialization, determinism, serialization."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rankprompt import losses, sms
from rankprompt.core import InputError, similarity_matrix
from rankprompt.losses import LossConfig
from rankprompt.model import (
    PARAM_FIELDS,
    _forward,
    forward_similarity,
    init_params,
    model_backward,
    params_from_dict,
    params_to_dict,
)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(4, 8, 3, 5, 42)
        b = init_params(4, 8, 3, 5, 42)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = init_params(4, 8, 3, 5, 0)
        b = init_params(4, 8, 3, 5, 1)
        assert not np.array_equal(a.w1, b.w1)

    def test_shapes(self):
        p = init_params(4, 8, 3, 5, 0)
        assert p.w1.shape == (4, 8)
        assert p.b1.shape == (8,)
        assert p.w2.shape == (8, 3)
        assert p.b2.shape == (3,)
        assert p.text.shape == (5, 3)

    def test_scale_respects_fan_in(self):
        p = init_params(100, 8, 3, 5, 0)
        assert np.max(np.abs(p.w1)) <= 1.0 / 10.0

    def test_rejects_zero_dims(self):
        with pytest.raises(InputError):
            init_params(0, 8, 3, 5, 0)
        with pytest.raises(InputError):
            init_params(4, 8, 3, 0, 0)


def encode_images(p, features, normalize=False):
    """The image embeddings of a model with as many grades as embedding
    dimensions, read through ``forward_similarity`` against identity text rows."""
    return forward_similarity(p.with_values({"text": np.eye(p.embed_dim)}), features, normalize)


class TestEncodeImages:
    def test_zero_parameters_give_zero_embeddings(self):
        p = init_params(3, 4, 2, 2, 0)
        p = p.with_values({name: np.zeros_like(getattr(p, name)) for name in PARAM_FIELDS})
        out = encode_images(p, np.ones((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_single_sample_shape(self):
        p = init_params(3, 4, 2, 2, 0)
        assert encode_images(p, np.ones((1, 3))).shape == (1, 2)

    def test_normalized_rows_have_unit_norm(self):
        p = init_params(3, 4, 2, 2, 1)
        feats = np.random.default_rng(0).normal(size=(6, 3))
        out = encode_images(p, feats, normalize=True)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        unit_text = p.text / np.linalg.norm(p.text, axis=1, keepdims=True)
        np.testing.assert_allclose(forward_similarity(p, feats, normalize=True), out @ unit_text.T, atol=1e-12)

    def test_rejects_width_mismatch(self):
        p = init_params(3, 4, 2, 2, 0)
        with pytest.raises(InputError):
            encode_images(p, np.ones((5, 4)))

    def test_matches_explicit_formula(self):
        p = init_params(3, 4, 2, 2, 7)
        feats = np.random.default_rng(1).normal(size=(5, 3))
        expected = np.tanh(feats @ p.w1 + p.b1) @ p.w2 + p.b2
        np.testing.assert_allclose(encode_images(p, feats), expected)


class TestForwardSimilarity:
    def test_report_matches_manual_pipeline(self):
        rng = np.random.default_rng(2)
        p = init_params(4, 6, 3, 5, 3)
        feats = rng.normal(size=(7, 4))
        s = forward_similarity(p, feats)
        manual = (np.tanh(feats @ p.w1 + p.b1) @ p.w2 + p.b2) @ p.text.T
        np.testing.assert_allclose(s, manual)

    def test_backward_report_is_consistent(self):
        rng = np.random.default_rng(3)
        p = init_params(4, 6, 3, 5, 3)
        feats = rng.normal(size=(7, 4))
        labels = rng.integers(0, 5, 7)
        res = model_backward(p, feats, labels, None, LossConfig())
        assert res.report.total == res.report.main + res.report.rank
        np.testing.assert_allclose(res.similarity_raw, forward_similarity(p, feats))

    def test_rank_only_objective_drops_main_gradient(self):
        """lambda_main = 0 leaves exactly the rank part of the gradient."""
        rng = np.random.default_rng(4)
        p = init_params(4, 6, 3, 5, 5)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 5, 6)
        lam_only = model_backward(p, feats, labels, None, LossConfig(lambda_main=0.0))
        full = model_backward(p, feats, labels, None, LossConfig())
        zero_lam = model_backward(p, feats, labels, None, LossConfig(lambda_rank=0.0))
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(
                getattr(lam_only.grads, name),
                getattr(full.grads, name) - getattr(zero_lam.grads, name),
                atol=1e-12,
            )

    def test_rejects_labels_out_of_range(self):
        """A negative label would wrap to a grade from the end in the loss
        and calibration gathers; the step refuses it, and K itself, with or
        without statistics."""
        p = init_params(4, 6, 3, 5, 3)
        feats = np.random.default_rng(8).normal(size=(3, 4))
        sums = sms.EpochSums(5)
        sms.accumulate_class_stats(sums, np.ones((5, 5)), np.arange(5))
        stats = sms.commit_epoch(sums, sms.KernelSpec(sigma=1.0, include_self=False))
        for bad in ([0, -1, 2], [0, 5, 2]):
            for s in (None, stats):
                with pytest.raises(InputError, match=r"labels must lie in \[0, 5\)"):
                    model_backward(p, feats, np.array(bad), s, LossConfig())
        model_backward(p, feats, np.array([0, 4, 2]), stats, LossConfig())


class TestBackwardSinglePass:
    def test_each_term_and_the_calibration_map_run_once(self, monkeypatch):
        """One step evaluates every loss term once, value and gradient
        together, and builds the frozen calibration map once."""
        calls = Counter()

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        rng = np.random.default_rng(6)
        sums = sms.EpochSums(5)
        sms.accumulate_class_stats(sums, rng.normal(size=(40, 5)), np.arange(40) % 5)
        stats = sms.commit_epoch(sums, sms.KernelSpec(sigma=1.0, include_self=False))
        assert stats.smoothed_mean is not None
        p = init_params(4, 6, 3, 5, 7)
        feats = rng.normal(size=(8, 4))
        labels = rng.integers(0, 5, 8)

        for name in ("image_to_text_term", "text_to_image_term", "rank_term", "total_loss"):
            count(losses, name)
        count(sms, "calibration_map")
        model_backward(p, feats, labels, stats, LossConfig())
        assert calls == {
            "image_to_text_term": 1,
            "text_to_image_term": 1,
            "rank_term": 1,
            "total_loss": 1,
            "calibration_map": 1,
        }


def large_model(seed=0):
    """A model of the ``train_large`` benchmark's sizes: F=64, H=256, D=64, K=8."""
    return init_params(64, 256, 64, 8, seed)


def traced_peak(fn):
    """Bytes ``fn()`` allocates at its peak beyond what exists when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTiledForward:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("rows", [4096, 4097, 8193, 32_004])
    def test_bit_identical_to_one_pass(self, rows, normalize):
        p = large_model(1)
        feats = np.random.default_rng(rows).normal(size=(rows, 64))
        _, _, x, t, _, _ = _forward(p, feats, normalize)
        assert np.array_equal(forward_similarity(p, feats, normalize), similarity_matrix(x, t))

    @pytest.mark.parametrize("rows", [3000, 9000])
    def test_row_indices_match_the_gathered_rows(self, rows):
        """Scoring ``feats[idx]`` through ``rows=idx`` gathers tile by tile and
        matches the scores of the gathered copy bit for bit."""
        p = large_model(2)
        rng = np.random.default_rng(rows)
        feats = rng.normal(size=(rows + 1000, 64))
        idx = np.sort(rng.choice(len(feats), size=rows, replace=False))
        for normalize in (False, True):
            want = forward_similarity(p, feats[idx], normalize)
            assert np.array_equal(forward_similarity(p, feats, normalize, rows=idx), want)

    def test_bad_shapes_raise_the_one_pass_error(self):
        p = large_model()
        for bad in (np.zeros((5000, 63)), np.zeros(5000 * 64), np.zeros((3, 63)), np.zeros(64)):
            with pytest.raises(InputError, match=f"^{re.escape(f'features must be M x 64, got shape {bad.shape}')}$"):
                forward_similarity(p, bad)


class TestMemoryBounds:
    def test_forward_peak_is_bounded_by_a_tile(self):
        """32,004 rows: a single pass holds 62.5 MB of activations alone."""
        p = large_model()
        feats = np.random.default_rng(0).normal(size=(32_004, 64))
        assert traced_peak(lambda: forward_similarity(p, feats)) < 20e6

    def test_backward_holds_two_batch_by_hidden_arrays(self):
        rng = np.random.default_rng(1)
        m, h = 4096, 256
        sums = sms.EpochSums(8)
        sms.accumulate_class_stats(sums, rng.normal(size=(80, 8)), np.arange(80) % 8)
        stats = sms.commit_epoch(sums, sms.KernelSpec(sigma=0.4, include_self=True))
        p = large_model()
        feats = rng.normal(size=(m, 64))
        labels = rng.integers(0, 8, m)
        for s in (None, stats):
            assert traced_peak(lambda: model_backward(p, feats, labels, s, LossConfig())) < 3 * m * h * 8

    def test_backward_leaves_features_unchanged(self):
        rng = np.random.default_rng(2)
        p = large_model()
        feats = rng.normal(size=(300, 64))
        before = feats.copy()
        model_backward(p, feats, rng.integers(0, 8, 300), None, LossConfig(), normalize=True)
        assert np.array_equal(feats, before)


class TestSerialization:
    def test_params_round_trip(self):
        import json

        p = init_params(4, 8, 3, 5, 11)
        q = params_from_dict(json.loads(json.dumps(params_to_dict(p))))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert q.feature_dim == 4 and q.classes == 5
