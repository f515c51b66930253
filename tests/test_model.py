"""Encoder, initialization, determinism, serialization."""

import re
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import is_part, part_threads
from oracles import one_pass_embeddings, one_pass_gradients, traced_peak
from rankprompt import core, losses, model, sms
from rankprompt.config import RunConfig
from rankprompt.core import InputError, similarity_matrix
from rankprompt.data import DatasetSpec, generate_synthetic
from rankprompt.model import (
    PARAM_FIELDS,
    _in_parts,
    forward_similarity,
    init_params,
    model_backward,
)
from rankprompt.train import TrainResult, load_checkpoint, save_checkpoint, train


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
        res = model_backward(p, feats, labels, None, RunConfig())
        assert res.report.total == res.report.main + res.report.rank
        np.testing.assert_allclose(res.similarity_raw, forward_similarity(p, feats))

    def test_rank_only_objective_drops_main_gradient(self):
        """lambda_main = 0 leaves exactly the rank part of the gradient."""
        rng = np.random.default_rng(4)
        p = init_params(4, 6, 3, 5, 5)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 5, 6)
        lam_only = model_backward(p, feats, labels, None, RunConfig(lambda_main=0.0))
        full = model_backward(p, feats, labels, None, RunConfig())
        zero_lam = model_backward(p, feats, labels, None, RunConfig(lambda_rank=0.0))
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(
                getattr(lam_only.grads, name),
                getattr(full.grads, name) - getattr(zero_lam.grads, name),
                atol=1e-12,
            )

    def test_rejects_labels_out_of_range(self):
        """A negative label would wrap to a grade from the end in the loss
        and calibration gathers; the step refuses it, and K itself, with or
        without statistics, with ``check_labels``'s messages."""
        p = init_params(4, 6, 3, 5, 3)
        feats = np.random.default_rng(8).normal(size=(3, 4))
        stats = sms.commit_epoch(np.ones((5, 5)), np.arange(5), RunConfig(sms_sigma=1.0, sms_include_self=False))
        for bad, message in (
            ([0, -1, 2], "labels must be non-negative class indices"),
            ([0, 5, 2], "label 5 out of range for 5 classes"),
        ):
            for s in (None, stats):
                with pytest.raises(InputError, match=f"^{message}$"):
                    model_backward(p, feats, np.array(bad), s, RunConfig())
        model_backward(p, feats, np.array([0, 4, 2]), stats, RunConfig())


class TestBackwardSinglePass:
    def test_each_term_and_calibrate_run_once(self, monkeypatch):
        """One step evaluates every loss term once, value and gradient
        together, and applies the frozen calibration map once."""
        calls = Counter()

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        rng = np.random.default_rng(6)
        kernel = RunConfig(sms_sigma=1.0, sms_include_self=False)
        stats = sms.commit_epoch(rng.normal(size=(40, 5)), np.arange(40) % 5, kernel)
        assert stats.smoothed_mean is not None
        p = init_params(4, 6, 3, 5, 7)
        feats = rng.normal(size=(8, 4))
        labels = rng.integers(0, 5, 8)

        for name in ("image_to_text_term", "text_to_image_term", "rank_term", "total_loss"):
            count(losses, name)
        count(sms, "calibrate")
        model_backward(p, feats, labels, stats, RunConfig())
        assert calls == {
            "image_to_text_term": 1,
            "text_to_image_term": 1,
            "rank_term": 1,
            "total_loss": 1,
            "calibrate": 1,
        }


def large_model(seed=0):
    """A model of the ``train_large`` benchmark's sizes: F=64, H=256, D=64, K=8."""
    return init_params(64, 256, 64, 8, seed)


class TestTiledForward:
    """Inference cuts its rows into chunks of at most ``CHUNK_ROWS`` and runs each
    through the training step's forward pass, in two row halves from
    ``FORWARD_TILE_ROWS`` rows on."""

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("rows", [2048, 4096, 4097, 7996, 8193, 32_004])
    def test_bit_identical_to_one_pass(self, rows, normalize):
        p = large_model(1)
        feats = np.random.default_rng(rows).normal(size=(rows, 64))
        _, x, t = one_pass_embeddings(p, feats, normalize)
        assert np.array_equal(forward_similarity(p, feats, normalize), similarity_matrix(x, t))

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("rows", [2048, 3332, 4097, 7996, 8193, 32_004])
    @pytest.mark.parametrize("widths", [(64, 256), (63, 255)], ids=["64-256", "63-255"])
    def test_same_bits_on_every_call_on_one_cpu_or_two(self, monkeypatch, widths, rows, normalize):
        """A row cut changes last bits against the single pass at 63 -> 255, so
        what holds at every width is this: the chunks and their halves depend on
        the row count alone, and every call gives the same bytes, with one usable
        CPU or two."""
        p = init_params(*widths, 64, 8, 1)
        feats = np.random.default_rng(rows).normal(size=(rows, widths[0]))
        runs = set()
        for cpus in (1, 2, 2, 1):
            monkeypatch.setattr(core, "_usable_cpus", lambda n=cpus: n)
            got = forward_similarity(p, feats, normalize)
            runs.add(got.tobytes())
        assert len(runs) == 1
        _, x, t = one_pass_embeddings(p, feats, normalize)
        assert np.allclose(got, similarity_matrix(x, t), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("widths", [(64, 256), (63, 255)], ids=["64-256", "63-255"])
    @pytest.mark.parametrize("rows", [2048, 3332, 4097, 6144])
    def test_one_chunk_is_the_training_forward_pass(self, widths, rows, normalize):
        """Up to ``CHUNK_ROWS`` rows inference is one chunk through the training
        step's forward pass: the bytes of the step's raw scores at every width."""
        rng = np.random.default_rng(rows)
        p = init_params(*widths, 64, 8, 4)
        feats, labels = rng.normal(size=(rows, widths[0])), rng.integers(0, 8, rows)
        step = model_backward(p, feats, labels, None, RunConfig(normalize_embeddings=normalize))
        assert forward_similarity(p, feats, normalize).tobytes() == step.similarity_raw.tobytes()

    @pytest.mark.parametrize("rows", [6144, 6145, 7996, 32_004])
    def test_tiles_run_in_pairs(self, monkeypatch, rows):
        """On two CPUs inference runs ceil(M / ``CHUNK_ROWS``) chunks, each encoded in
        two row halves, one on the calling thread and one on the call's one worker,
        and every half has 1,536 to 3,072 rows."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        wanted, pairs, halves = [], [], []
        real_worker, real_parts, real_encode = model._worker, model._in_parts, model._encode

        def worker(want):
            wanted.append(want)
            return real_worker(want)

        def in_parts(worker, *args):
            pairs.append(worker)
            real_parts(worker, *args)

        def encode(params, features, *out):
            halves.append((len(features), threading.current_thread()))
            real_encode(params, features, *out)

        monkeypatch.setattr(model, "_worker", worker)
        monkeypatch.setattr(model, "_in_parts", in_parts)
        monkeypatch.setattr(model, "_encode", encode)
        forward_similarity(large_model(), np.zeros((rows, 64)))
        assert wanted == [True]
        assert len(pairs) == -(-rows // model.CHUNK_ROWS)
        assert pairs[0] is not None and all(w is pairs[0] for w in pairs)
        assert len(halves) == 2 * len(pairs)
        assert sum(n for n, _ in halves) == rows
        assert all(1536 <= n <= 3072 for n, _ in halves)
        part = next(thread for _, thread in halves if thread is not threading.current_thread())
        assert is_part(part)
        assert Counter(thread.ident for _, thread in halves) == {threading.get_ident(): len(pairs), part.ident: len(pairs)}

    def test_bad_shapes_raise_the_one_pass_error(self):
        p = large_model()
        for bad in (np.zeros((5000, 63)), np.zeros(5000 * 64), np.zeros((3, 63)), np.zeros(64)):
            with pytest.raises(InputError, match=f"^{re.escape(f'features must be M x 64, got shape {bad.shape}')}$"):
                forward_similarity(p, bad)


class TestParts:
    """Inputs of ``FORWARD_TILE_ROWS`` rows or more run in two parts, the second
    on one worker thread per public call, which the call joins before it returns."""

    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        done, threads = [], threading.active_count()

        def work(part):
            if part == "second":
                raise RuntimeError("the worker's part failed")
            done.append((part, threading.current_thread() is threading.main_thread()))

        with pytest.raises(RuntimeError, match="^the worker's part failed$"):
            with core._worker(True) as worker:
                _in_parts(worker, work, "first", "second")
        assert done == [("first", True)]
        assert threading.active_count() == threads

    def test_inference_worker_exception_is_raised_in_the_caller(self, monkeypatch):
        """The worker's half of an inference chunk raises through ``forward_similarity``."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        real, threads = model._encode, threading.active_count()

        def encode(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("a worker half failed")
            return real(*args)

        monkeypatch.setattr(model, "_encode", encode)
        with pytest.raises(FloatingPointError, match="^a worker half failed$"):
            forward_similarity(large_model(), np.zeros((8193, 64)))
        assert threading.active_count() == threads

    def test_public_callables_stay_on_the_calling_thread(self, monkeypatch):
        """The worker runs private helpers alone: ``similarity_matrix``,
        ``check_labels``, ``sms.calibrate``, the loss terms and ``optimizer_step``
        run on the calling thread, where a tracer that wraps them (perfbench's)
        keeps one span stack.  A large step's rank term runs on the worker through
        ``losses._rank``, so the public ``rank_term`` is seen only in a train run's
        small last batch."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        calls = []

        def record(module, name):
            inner = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        for name in ("similarity_matrix", "check_labels", "_encode", "optimizer_step"):
            record(model, name)
        for name in ("total_loss", "image_to_text_term", "text_to_image_term", "rank_term"):
            record(losses, name)
        record(sms, "calibrate")
        rng = np.random.default_rng(8)
        p = large_model()
        forward_similarity(p, rng.normal(size=(7996, 64)))
        assert Counter(calls) == {("similarity_matrix", True): 2, ("_encode", True): 2, ("_encode", False): 2}
        calls.clear()
        stats = sms.commit_epoch(rng.normal(size=(80, 8)), np.arange(80) % 8, RunConfig())
        cfg = RunConfig(classes=8, feature_dim=64, hidden_dim=256, embed_dim=64)
        model_backward(p, rng.normal(size=(4096, 64)), rng.integers(0, 8, 4096), stats, cfg)
        assert Counter(calls) == {
            ("check_labels", True): 1,
            ("similarity_matrix", True): 1,
            ("calibrate", True): 1,
            ("_encode", True): 1,
            ("_encode", False): 1,
            ("total_loss", True): 1,
            ("image_to_text_term", True): 1,
            ("text_to_image_term", True): 1,
        }
        calls.clear()
        cfg = replace(cfg, samples=2600, batch_size=model.FORWARD_TILE_ROWS, epochs=2)
        train(cfg, generate_synthetic(DatasetSpec.from_config(cfg)))
        assert {name for name, _ in calls} == {
            "check_labels",
            "similarity_matrix",
            "calibrate",
            "_encode",
            "total_loss",
            "image_to_text_term",
            "text_to_image_term",
            "rank_term",
            "optimizer_step",
        }
        assert ("_encode", False) in calls
        assert all(on_caller for name, on_caller in calls if name != "_encode")

    @pytest.mark.parametrize("rows", [2048, 3332, 4096, 7996])
    def test_parts_under_constant_thread_switching(self, monkeypatch, rows):
        """With the interpreter switching threads every microsecond, a split
        step on two CPUs writes the bytes it writes on one."""
        rng = np.random.default_rng(6)
        p = init_params(63, 255, 64, 8, 2)
        feats, labels = rng.normal(size=(rows, 63)), rng.integers(0, 8, rows)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 2, 2):
                monkeypatch.setattr(core, "_usable_cpus", lambda n=cpus: n)
                result = model_backward(p, feats, labels, None, RunConfig(normalize_embeddings=True))
                runs.append((result.grads.flat.tobytes(), result.similarity_raw.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("calibrate", [False, True], ids=["raw", "sms"])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("widths", [(64, 256), (63, 255)], ids=["64-256", "63-255"])
    @pytest.mark.parametrize("rows", [2049, 3332, 4096, 4097, 6145])
    def test_split_step_against_one_pass(self, monkeypatch, rows, widths, normalize, calibrate, cpus):
        """A step split in parts gives every bit of the one-pass gradients and
        scores at 64 -> 256, and agrees to the last bits at 63 -> 255.  At 4,097
        rows its hidden-gradient chunks are balanced, with no one-row tail; 2,049
        and 6,145 rows have odd row halves, and 3,332 rows give the two halves of
        the hidden gradient 3 and 4 chunks."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(9)
        cfg = RunConfig(normalize_embeddings=normalize)
        stats = sms.commit_epoch(rng.normal(size=(80, 8)), np.arange(80) % 8, cfg) if calibrate else None
        p = init_params(*widths, 64, 8, 3)
        feats, labels = rng.normal(size=(rows, widths[0])), rng.integers(0, 8, rows)
        got = model_backward(p, feats, labels, stats, cfg)
        want, s = one_pass_gradients(p, feats, labels, stats, cfg)
        same = np.array_equal if widths == (64, 256) else lambda a, b: np.allclose(a, b, rtol=1e-11, atol=1e-13)
        assert same(got.similarity_raw, s)
        for name in PARAM_FIELDS:
            assert same(getattr(got.grads, name), want[name]), name

    @pytest.mark.parametrize("cpus, started", [(1, 0), (2, 1), (8, 1)])
    def test_one_worker_per_call_and_only_with_two_cpus(self, monkeypatch, cpus, started):
        """A step or an inference of 2,048 rows or more starts one worker for the
        whole call when two CPUs are usable, however many there are, and none on
        one CPU; below 2,048 rows none starts.  No worker outlives its call."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        threads = []
        real = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: threads.append(self) or real(self))
        rng = np.random.default_rng(5)
        p = large_model()
        calls = [
            (2047, lambda m: model_backward(p, rng.normal(size=(m, 64)), rng.integers(0, 8, m), None, RunConfig())),
            (2047, lambda m: forward_similarity(p, rng.normal(size=(m, 64)))),
            (2048, lambda m: model_backward(p, rng.normal(size=(m, 64)), rng.integers(0, 8, m), None, RunConfig())),
            (4096, lambda m: model_backward(p, rng.normal(size=(m, 64)), rng.integers(0, 8, m), None, RunConfig())),
            (2048, lambda m: forward_similarity(p, rng.normal(size=(m, 64)))),
            (7996, lambda m: forward_similarity(p, rng.normal(size=(m, 64)))),
        ]
        for m, call in calls:
            threads.clear()
            call(m)
            assert [is_part(thread) for thread in threads] == [True] * (started if m >= 2048 else 0)
            assert not any(thread.is_alive() for thread in threads)
            assert part_threads() == []

    @pytest.mark.parametrize(
        "call, module, name, on_worker",
        [
            ("step", model, "_encode", True),
            ("step", model, "_encode", False),
            ("step", losses, "_rank", True),
            ("step", losses, "image_to_text_term", False),
            ("inference", model, "_encode", True),
            ("inference", model, "_encode", False),
        ],
        ids=["step-encode-worker", "step-encode-caller", "step-rank-worker", "step-alignment-caller", "inference-worker", "inference-caller"],
    )
    def test_no_worker_outlives_a_failed_part(self, monkeypatch, call, module, name, on_worker):
        """Whichever part raises, on the worker or on the calling thread while the
        worker holds the other part, the call raises it and leaves no worker alive."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        real = getattr(module, name)

        def failing(*args, **kwargs):
            if (threading.current_thread() is not threading.main_thread()) == on_worker:
                raise FloatingPointError("a part failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)
        rng = np.random.default_rng(3)
        p, m = large_model(), 4096
        with pytest.raises(FloatingPointError, match="^a part failed$"):
            if call == "step":
                model_backward(p, rng.normal(size=(m, 64)), rng.integers(0, 8, m), None, RunConfig())
            else:
                forward_similarity(p, rng.normal(size=(m, 64)))
        assert part_threads() == []


class TestMemoryBounds:
    def test_forward_peak_is_bounded_by_a_tile(self):
        """32,004 rows: a single pass holds 62.5 MB of activations alone; six
        chunks of 5,334 rows share one 13.7 MB buffer.  The traced peak counts the
        worker thread's half too."""
        p = large_model()
        feats = np.random.default_rng(0).normal(size=(32_004, 64))
        assert traced_peak(lambda: forward_similarity(p, feats)) < 20e6

    @pytest.mark.parametrize("m", [3332, 4096])
    def test_backward_holds_two_batch_by_hidden_arrays(self, m):
        rng = np.random.default_rng(1)
        h = 256
        kernel = RunConfig(sms_sigma=0.4, sms_include_self=True)
        stats = sms.commit_epoch(rng.normal(size=(80, 8)), np.arange(80) % 8, kernel)
        p = large_model()
        feats = rng.normal(size=(m, 64))
        labels = rng.integers(0, 8, m)
        for s in (None, stats):
            assert traced_peak(lambda: model_backward(p, feats, labels, s, RunConfig())) < 3 * m * h * 8

    def test_backward_leaves_features_unchanged(self):
        rng = np.random.default_rng(2)
        p = large_model()
        feats = rng.normal(size=(300, 64))
        before = feats.copy()
        model_backward(p, feats, rng.integers(0, 8, 300), None, RunConfig(normalize_embeddings=True))
        assert np.array_equal(feats, before)


class TestSerialization:
    def test_params_round_trip(self, tmp_path):
        p = init_params(4, 8, 3, 5, 11)
        cfg = RunConfig(classes=5)
        save_checkpoint(tmp_path / "checkpoint.json", TrainResult(p, None, []), cfg)
        q, _ = load_checkpoint(tmp_path / "checkpoint.json", cfg)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert q.feature_dim == 4 and q.classes == 5
