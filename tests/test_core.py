"""Numeric primitives: similarity, softmax, and the KL and one-hot oracles; the worker primitive."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from conftest import is_part, part_threads
from oracles import kl_divergence_row, one_hot

from rankprompt import core
from rankprompt.core import (
    InputError,
    _log_softmax,
    check_labels,
    similarity_matrix,
    softmax_rows,
)


class TestTypes:
    def test_embedding_rejects_nonfinite(self):
        with pytest.raises(InputError):
            similarity_matrix(np.array([[1.0, np.inf]]), np.ones((2, 2)))

    def test_embedding_rejects_wrong_ndim(self):
        with pytest.raises(InputError):
            similarity_matrix(np.ones(3), np.ones((2, 3)))
        with pytest.raises(InputError):
            similarity_matrix(np.ones((2, 3)), np.ones(3))

    def test_labels_reject_negative(self):
        with pytest.raises(InputError, match="^labels must be non-negative class indices$"):
            check_labels(np.array([0, -1]), 3)

    def test_labels_reject_fractional(self):
        with pytest.raises(InputError, match="^labels must be integers$"):
            check_labels(np.array([0.5]), 3)

    def test_labels_validate_range(self):
        with pytest.raises(InputError, match="^label 3 out of range for 3 classes$"):
            check_labels(np.array([0, 3]), 3)
        check_labels(np.array([0, 2]), 3)

    @pytest.mark.parametrize(
        "labels",
        [[0, 1], np.array([[0, 1]]), np.array([], dtype=np.int64), np.array([0.0, 1.0]), np.array([True])],
        ids=["list", "2-D", "empty", "integral floats", "bool"],
    )
    def test_labels_must_be_a_1d_integer_array(self, labels):
        with pytest.raises(InputError, match="^labels must be"):
            check_labels(labels, 3)


class TestSimilarityMatrix:
    def test_identity_embeddings(self):
        """Identity image and text embeddings give the identity matrix."""
        eye = np.eye(2)
        np.testing.assert_array_equal(similarity_matrix(eye, eye), np.eye(2))

    def test_hand_inner_products(self):
        x = np.array([[1.0, 2.0]])
        t = np.array([[3.0, 4.0], [-1.0, 0.0]])
        np.testing.assert_allclose(similarity_matrix(x, t), [[11.0, -1.0]])

    def test_zero_images(self):
        x = np.zeros((3, 4))
        t = np.ones((5, 4))
        s = similarity_matrix(x, t)
        assert s.shape == (3, 5)
        np.testing.assert_array_equal(s, 0.0)

    def test_bilinear_in_images(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        t = rng.normal(size=(5, 3))
        s1 = similarity_matrix(x, t)
        s2 = similarity_matrix(2.5 * x, t)
        np.testing.assert_allclose(s2, 2.5 * s1)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        s = softmax_rows(np.zeros((1, 3)), 1.0)
        np.testing.assert_allclose(s, [[1 / 3, 1 / 3, 1 / 3]])

    def test_large_magnitudes_stable(self):
        s = softmax_rows(np.array([[1000.0, 1000.0]]), 1.0)
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_hand_values(self):
        s = softmax_rows(np.array([[np.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(s, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(0, 5, size=(4, 6))
            tau = float(rng.uniform(0.2, 3.0))
            p = softmax_rows(z, tau)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
            shifted = z.copy()
            shifted[2] += 17.5
            p2 = softmax_rows(shifted, tau)
            np.testing.assert_allclose(p2, p, atol=1e-12)

    def test_rejects_bad_tau(self):
        with pytest.raises(InputError):
            softmax_rows(np.zeros((1, 2)), 0.0)

    def test_log_softmax_matches_row_max_form_bit_for_bit(self):
        """A tall matrix takes its row max from a transposed copy; the
        result must equal the plain row-wise form byte for byte, ties and
        signed zeros included."""
        rng = np.random.default_rng(9)
        for shape in [(7,), (1, 5), (5, 1), (256, 5), (5, 256), (4096, 8), (3, 3), (40, 2)]:
            for z in (rng.normal(0, 5, size=shape), np.round(rng.normal(size=shape)), -np.zeros(shape)):
                shifted = z - np.max(z, axis=-1, keepdims=True)
                want = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
                assert _log_softmax(z).tobytes() == want.tobytes(), shape


class TestKLDivergenceRow:
    def test_identical_distributions(self):
        assert kl_divergence_row([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_one_hot_vs_uniform(self):
        got = kl_divergence_row([0, 0, 1, 0, 0], [0.2] * 5)
        np.testing.assert_allclose(got, 1.6094379124341003, atol=1e-12)

    def test_hand_value(self):
        got = kl_divergence_row([0.5, 0.5], [0.75, 0.25])
        np.testing.assert_allclose(got, 0.14384103622589042, atol=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_divergence_row(p, q) >= 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            kl_divergence_row([1.0], [0.5, 0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            kl_divergence_row([0.5, 0.6], [0.5, 0.5])

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            kl_divergence_row([1.5, -0.5], [0.5, 0.5])


class TestOneHot:
    def test_single_row(self):
        np.testing.assert_array_equal(one_hot(np.array([1]), 3), [[0, 1, 0]])

    def test_multiple_rows(self):
        got = one_hot(np.array([0, 0, 2]), 3)
        np.testing.assert_array_equal(got, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_last_class(self):
        np.testing.assert_array_equal(one_hot(np.array([4]), 5), [[0, 0, 0, 0, 1]])

    def test_row_sums(self):
        got = one_hot(np.array([0, 1, 2, 1]), 4)
        np.testing.assert_array_equal(got.sum(axis=1), 1.0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            one_hot(np.array([3]), 3)


def record_started_threads(monkeypatch) -> list:
    """The threads started from now on, in a list that fills as they start."""
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or real(thread))
    return started


class TestWorker:
    """``_worker`` starts every thread besides the caller's: one per ``with`` block,
    and only when wanted with two usable CPUs."""

    @pytest.mark.parametrize("wanted, cpus", [(False, 2), (False, 8), (True, 1)])
    def test_gives_none_and_starts_no_thread(self, monkeypatch, wanted, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        started = record_started_threads(monkeypatch)
        with core._worker(wanted) as worker:
            assert worker is None
        assert started == [] and part_threads() == []

    def test_the_affinity_mask_decides_when_nothing_is_patched(self):
        """Under ``taskset -c 0`` this is the one-CPU path, unpatched."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with core._worker(True) as worker:
            assert (worker is not None) == (cpus >= 2)
        assert part_threads() == []

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_one_thread_runs_the_jobs_in_submission_order(self, monkeypatch, cpus):
        """Submission order is part of ``_worker``'s contract, whatever a caller submits;
        the interpreter switches threads every microsecond to shake it."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        started, ran = record_started_threads(monkeypatch), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with core._worker(True) as worker:
                jobs = [worker.submit(lambda i=i: ran.append((i, threading.current_thread()))) for i in range(50)]
                assert [job.result(timeout=10) for job in jobs] == [None] * 50
                assert part_threads() == started
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 1 and is_part(started[0])
        assert ran == [(i, started[0]) for i in range(50)]
        assert not started[0].is_alive() and part_threads() == []

    def test_result_raises_the_jobs_exception_again(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        error = FloatingPointError("a job failed")

        def fail():
            raise error

        with core._worker(True) as worker:
            failed = worker.submit(fail)
            with pytest.raises(FloatingPointError) as caught:
                failed.result(timeout=10)
            assert caught.value is error
            assert worker.submit(abs, -3).result(timeout=10) == 3  # the thread still serves the next job
        assert part_threads() == []

    def test_no_part_thread_outlives_a_block_that_raises(self, monkeypatch):
        """Leaving the block on an exception lets the thread finish the jobs it holds,
        then joins it."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        started, done = record_started_threads(monkeypatch), []
        with pytest.raises(RuntimeError, match="^the caller failed$"):
            with core._worker(True) as worker:
                worker.submit(time.sleep, 0.05)
                worker.submit(done.append, "after the sleep")
                raise RuntimeError("the caller failed")
        assert done == ["after the sleep"]
        assert len(started) == 1 and not started[0].is_alive()
        assert part_threads() == []
