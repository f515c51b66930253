"""Per-class statistics, kernel smoothing, calibration, epoch commits."""

import numpy as np
import pytest

from rankprompt.core import InputError, LabelVector, StateError
from rankprompt.sms import (
    VAR_FLOOR,
    KernelSpec,
    accumulate_class_stats,
    calibrate_rows,
    commit_epoch,
    init_class_stats,
    kernel_weights,
    stats_from_dict,
    stats_to_dict,
)


def committed_from(rows, labels, k, kernel=KernelSpec()):
    """One accumulate + commit round, the normal route to usable stats."""
    stats = init_class_stats(k)
    rows = np.asarray(rows, dtype=float)
    stats = accumulate_class_stats(stats, rows, LabelVector(labels).labels)
    return commit_epoch(stats, kernel)


class TestKernelWeights:
    def test_flat_limit_excludes_self(self):
        """Huge sigma makes both neighbors weigh 1; the self weight stays 0."""
        w = kernel_weights(KernelSpec(sigma=1e6), 1, 3)
        np.testing.assert_allclose(w, [1.0, 0.0, 1.0], atol=1e-9)

    def test_two_classes_single_neighbor(self):
        np.testing.assert_allclose(kernel_weights(KernelSpec(sigma=1.0), 0, 2), [0.0, np.exp(-0.5)])

    def test_unit_sigma_three_classes(self):
        w = kernel_weights(KernelSpec(sigma=1.0), 0, 3)
        np.testing.assert_allclose(w, [0.0, 0.6065306597126334, 0.1353352832366127], atol=1e-12)

    def test_raw_weights_symmetric(self):
        spec = KernelSpec(sigma=1.7, include_self=True)
        k = 6
        for a in range(k):
            wa = kernel_weights(spec, a, k)
            for b in range(k):
                wb = kernel_weights(spec, b, k)
                assert wa[b] == wb[a]

    def test_normalized_weights_sum_to_one(self):
        """One-hot rows, one per class, turn each smoothed-mean row into
        that class's weights as smoothing applies them."""
        for sigma in (0.3, 1.0, 4.0):
            stats = committed_from(np.eye(5), np.arange(5), 5, KernelSpec(sigma=sigma))
            np.testing.assert_allclose(stats.smoothed_mean.sum(axis=1), 1.0, atol=1e-9)
            raw = kernel_weights(KernelSpec(sigma=sigma), 0, 5)
            np.testing.assert_allclose(stats.smoothed_mean[0], raw / raw.sum(), atol=1e-12)

    def test_rejects_single_class(self):
        with pytest.raises(InputError):
            kernel_weights(KernelSpec(), 0, 1)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InputError):
            KernelSpec(sigma=0.0)


class TestAccumulate:
    def test_hand_mean_and_variance(self):
        stats = init_class_stats(2)
        s = np.array([[1.0, 3.0], [3.0, 5.0]])
        stats = accumulate_class_stats(stats, s, LabelVector([1, 1]).labels)
        np.testing.assert_allclose(stats.mean[1], [2.0, 4.0])
        np.testing.assert_allclose(stats.var[1], [1.0, 1.0])

    def test_single_row_floors_variance(self):
        stats = init_class_stats(2)
        stats = accumulate_class_stats(stats, np.array([[7.0, 7.0]]), LabelVector([0]).labels)
        np.testing.assert_allclose(stats.mean[0], [7.0, 7.0])
        np.testing.assert_allclose(stats.var[0], [VAR_FLOOR, VAR_FLOOR])

    def test_empty_class_is_undefined(self):
        stats = init_class_stats(3)
        stats = accumulate_class_stats(stats, np.ones((2, 3)), LabelVector([0, 0]).labels)
        assert stats.epoch_count[1] == 0
        assert np.isnan(stats.mean[1]).all()

    def test_accumulation_spans_batches(self):
        stats = init_class_stats(2)
        a = np.array([[1.0, 3.0]])
        b = np.array([[3.0, 5.0]])
        stats = accumulate_class_stats(stats, a, LabelVector([1]).labels)
        stats = accumulate_class_stats(stats, b, LabelVector([1]).labels)
        np.testing.assert_allclose(stats.mean[1], [2.0, 4.0])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 5))
        labels = rng.integers(0, 5, 40)
        perm = rng.permutation(40)
        one = accumulate_class_stats(init_class_stats(5), rows, labels)
        two = accumulate_class_stats(init_class_stats(5), rows[perm], labels[perm])
        np.testing.assert_allclose(one.mean, two.mean, atol=1e-12)
        np.testing.assert_allclose(one.var, two.var, atol=1e-12)

    def test_sums_match_row_by_row_accumulation_bit_for_bit(self):
        """The running sums equal, byte for byte, adding each row to its
        label's row in batch order, over several batches."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            stats = init_class_stats(k)
            total, totalsq = np.zeros((k, k)), np.zeros((k, k))
            for _ in range(3):
                m = int(rng.integers(1, 300))
                rows = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(m, k))
                labels = rng.integers(0, k, m)
                stats = accumulate_class_stats(stats, rows, labels)
                for row, c in zip(rows, labels):
                    total[c] += row
                    totalsq[c] += row * row
            assert stats.epoch_sum.tobytes() == total.tobytes()
            assert stats.epoch_sumsq.tobytes() == totalsq.tobytes()

    def test_rejects_shape_mismatch(self):
        stats = init_class_stats(3)
        with pytest.raises(InputError):
            accumulate_class_stats(stats, np.ones((2, 4)), LabelVector([0, 1]).labels)
        with pytest.raises(InputError):
            accumulate_class_stats(stats, np.ones((2, 3)), LabelVector([0]).labels)


class TestSmoothStats:
    """Kernel smoothing as ``commit_epoch`` applies it."""

    def test_symmetric_neighbors_average(self):
        """With flat weights the middle class lands on the neighbor mean.
        Smoothing is element-wise, so the scalar case rides in column 0."""
        rows = np.array([[0.0, 5.0, -1.0], [1.0, 7.0, 0.0], [2.0, 9.0, 1.0]])
        smoothed = committed_from(rows, [0, 1, 2], 3, KernelSpec(sigma=1e6))
        np.testing.assert_allclose(smoothed.smoothed_mean[1], [1.0, 7.0, 0.0], atol=1e-9)

    def test_unit_sigma_value(self):
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        smoothed = committed_from(rows, [0, 1, 2], 3, KernelSpec(sigma=1.0))
        np.testing.assert_allclose(smoothed.smoothed_mean[0], [1.1824255238063563] * 3, atol=1e-12)

    def test_constant_field_fixed_point(self):
        smoothed = committed_from(np.full((3, 3), 4.25), [0, 1, 2], 3)
        for j in range(3):
            np.testing.assert_allclose(smoothed.smoothed_mean[j], [4.25] * 3, atol=1e-12)

    def test_absent_class_renormalization(self):
        """A class never seen contributes nothing; weights renormalize."""
        rows = np.array([[0.0, 0.5, 1.0], [2.0, 4.5, 3.0]])
        smoothed = committed_from(rows, [0, 2], 3, KernelSpec(sigma=1e6))
        # class 0's only observed non-self neighbor is class 2
        np.testing.assert_allclose(smoothed.smoothed_mean[0], [2.0, 4.5, 3.0], atol=1e-9)
        assert np.isnan(smoothed.smoothed_mean[1]).all()

    def test_underflowed_neighbors_keep_raw_statistics(self):
        """When every neighbor weight underflows to 0 the class keeps its own statistics."""
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(12, 3))
        smoothed = committed_from(rows, np.arange(12) % 3, 3, KernelSpec(sigma=0.02))
        assert np.array_equal(smoothed.smoothed_mean, smoothed.frozen_mean)
        assert np.array_equal(smoothed.smoothed_var, smoothed.frozen_var)

    def test_too_few_classes_signals(self):
        stats = committed_from(np.ones((4, 3)) * 2, [1, 1, 1, 1], 3)
        assert stats.committed and not stats.calibration_active
        assert stats.smoothed_var is None


class TestCalibrateRows:
    def test_degenerate_smoothing_is_identity(self):
        """Tiny sigma with the self weight kept reproduces each class's own
        statistics, so standard calibration is the identity map."""
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(30, 5))
        labels = rng.integers(0, 5, 30)
        stats = committed_from(rows, labels, 5, KernelSpec(sigma=1e-3, include_self=True))
        fresh = rng.normal(size=(8, 5))
        fresh_labels = LabelVector(rng.integers(0, 5, 8))
        out = calibrate_rows(fresh, fresh_labels, stats)
        np.testing.assert_allclose(out, fresh, atol=1e-12)

    def test_centered_input_maps_to_smoothed_mean(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, 40)
        stats = committed_from(rows, labels, 4)
        for c in range(4):
            s = stats.frozen_mean[c][None, :]
            out = calibrate_rows(s, LabelVector([c]), stats)
            np.testing.assert_allclose(out[0], stats.smoothed_mean[c], atol=1e-12)

    def test_scalar_standard_case(self):
        """mean 1, var 1, smoothed mean 3, smoothed var 4 sends 2 to 5.
        Calibration is element-wise, so the scalar case rides in column 0."""
        stats = init_class_stats(2)
        # class 0 rows give mean 1 var 1 in column 0; class 1 mean 3 var 4
        rows0 = np.array([[0.0, 0.0], [2.0, 2.0]])
        rows1 = np.array([[1.0, 1.0], [5.0, 5.0]])
        stats = accumulate_class_stats(stats, rows0, LabelVector([0, 0]).labels)
        stats = accumulate_class_stats(stats, rows1, LabelVector([1, 1]).labels)
        stats = commit_epoch(stats, KernelSpec(sigma=1.0))
        # the only non-self neighbor of class 0 is class 1
        np.testing.assert_allclose(stats.smoothed_mean[0], [3.0, 3.0])
        np.testing.assert_allclose(stats.smoothed_var[0], [4.0, 4.0])
        out = calibrate_rows(np.array([[2.0, 2.0]]), LabelVector([0]), stats)
        np.testing.assert_allclose(out, [[5.0, 5.0]], atol=1e-12)

    def test_affine_property(self):
        """calibrate(a*s + (1-a)*mean_c) == a*calibrate(s) + (1-a)*smoothed_mean_c."""
        rng = np.random.default_rng(6)
        for case in range(50):
            k = int(rng.integers(2, 6))
            rows = rng.normal(rng.normal(0, 2), rng.uniform(0.5, 2), size=(30, k))
            labels = rng.integers(0, k, 30)
            stats = committed_from(rows, labels, k)
            c = int(rng.integers(0, k))
            s = rng.normal(size=(1, k))
            alpha = float(rng.uniform(-1.5, 1.5))
            lhs = calibrate_rows(
                alpha * s + (1 - alpha) * stats.frozen_mean[c], LabelVector([c]), stats
            )[0]
            rhs = alpha * calibrate_rows(s, LabelVector([c]), stats)[0] + (
                1 - alpha
            ) * stats.smoothed_mean[c]
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_cold_start_is_identity(self):
        stats = init_class_stats(3)
        s = np.array([[1.0, 2.0, 3.0]])
        out = calibrate_rows(s, LabelVector([0]), stats)
        np.testing.assert_array_equal(out, s)

    def test_uncommitted_accumulation_rejected(self):
        stats = init_class_stats(2)
        stats = accumulate_class_stats(stats, np.ones((2, 2)), LabelVector([0, 1]).labels)
        with pytest.raises(StateError):
            calibrate_rows(np.ones((1, 2)), LabelVector([0]), stats)

    def test_disabled_commit_passes_through(self):
        stats = committed_from(np.ones((3, 3)), [1, 1, 1], 3)
        assert stats.committed and not stats.calibration_active
        s = np.array([[1.0, 2.0, 3.0]])
        out = calibrate_rows(s, LabelVector([1]), stats)
        np.testing.assert_array_equal(out, s)

    def test_unseen_class_rows_pass_through(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, 20)  # class 3 never observed
        stats = committed_from(rows, labels, 4)
        s = rng.normal(size=(2, 4))
        out = calibrate_rows(s, LabelVector([3, 0]), stats)
        np.testing.assert_array_equal(out[0], s[0])
        assert not np.allclose(out[1], s[1])

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(25, 5))
        labels = rng.integers(0, 5, 25)
        stats = committed_from(rows, labels, 5)
        s = rng.normal(size=(6, 5))
        lab = LabelVector(rng.integers(0, 5, 6))
        first = calibrate_rows(s, lab, stats)
        second = calibrate_rows(s, lab, stats)
        assert np.array_equal(first, second)


class TestCommitEpoch:
    def test_cold_start_not_committed(self):
        stats = init_class_stats(5)
        assert not stats.committed

    def test_commit_on_empty_epoch_is_noop(self):
        stats = init_class_stats(5)
        assert commit_epoch(stats, KernelSpec()) is stats

    def test_commit_freezes_and_resets(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, 12)
        stats = committed_from(rows, labels, 3)
        assert stats.committed
        assert stats.epoch_count.sum() == 0
        assert stats.frozen_count.sum() == 12

    def test_replay_gives_identical_commits(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(18, 4))
        labels = rng.integers(0, 4, 18)
        first = committed_from(rows, labels, 4)
        second = commit_epoch(accumulate_class_stats(first, rows, np.asarray(labels)), KernelSpec())
        assert np.array_equal(first.frozen_mean, second.frozen_mean)
        assert np.array_equal(first.smoothed_mean, second.smoothed_mean)
        assert np.array_equal(first.smoothed_var, second.smoothed_var)

    def test_frozen_stats_survive_next_epoch_accumulation(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, 10)
        stats = committed_from(rows, labels, 3)
        s = rng.normal(size=(4, 3))
        lab = LabelVector(rng.integers(0, 3, 4))
        before = calibrate_rows(s, lab, stats)
        mid_epoch = accumulate_class_stats(stats, rng.normal(size=(5, 3)), np.zeros(5, dtype=np.int64))
        after = calibrate_rows(s, lab, mid_epoch)
        assert np.array_equal(before, after)


class TestSerialization:
    def test_round_trip_preserves_calibration(self):
        import json

        rng = np.random.default_rng(12)
        rows = rng.normal(size=(30, 5))
        labels = rng.integers(0, 5, 30)
        stats = committed_from(rows, labels, 5)
        loaded = stats_from_dict(json.loads(json.dumps(stats_to_dict(stats))), 5)
        s = rng.normal(size=(7, 5))
        lab = LabelVector(rng.integers(0, 5, 7))
        assert np.array_equal(calibrate_rows(s, lab, stats), calibrate_rows(s, lab, loaded))

    def test_round_trip_pristine(self):
        stats = init_class_stats(4)
        loaded = stats_from_dict(stats_to_dict(stats), 4)
        assert not loaded.committed
        assert loaded.k == 4

    def test_keys_of_older_checkpoints_are_ignored(self):
        rng = np.random.default_rng(13)
        stats = committed_from(rng.normal(size=(20, 3)), np.arange(20) % 3, 3)
        doc = stats_to_dict(stats)
        assert set(doc) == {"count", "mean", "var", "smoothed_mean", "smoothed_var"}
        # what earlier formats also wrote; the grade count now comes from the caller
        doc.update(committed=True, calibration_active=True, k=4, dim=4)
        doc["kernel"] = {"sigma": 9.0, "include_self": False, "normalize": False, "kind": "gaussian"}
        loaded = stats_from_dict(doc, 3)
        assert loaded.k == 3 and loaded.committed and loaded.calibration_active
        for name in ("frozen_count", "frozen_mean", "frozen_var", "smoothed_mean", "smoothed_var"):
            assert np.array_equal(getattr(loaded, name), getattr(stats, name))

    @pytest.mark.parametrize(
        "edit",
        [
            {"mean": None},
            {"smoothed_var": None},
            {"count": None},
            {"count": None, "mean": None, "var": None},  # smoothed rows without frozen ones
            {"var": [[float("nan")] * 3, [1.0] * 3, [1.0] * 3]},
            {"mean": [[0.5], [1.0] * 3, [1.0] * 3]},  # would broadcast across the row
            {"smoothed_var": [[1.0] * 3, [1.0] * 4, [1.0] * 3]},
            {"var": [[1.0] * 3, [1.0, "1.0", 1.0], [1.0] * 3]},
            {"count": [7, -1, 7]},
            {"count": [7, 6.5, 7]},
            {"count": [7, 7, 7, 0]},
        ],
    )
    def test_inconsistent_statistics_rejected(self, edit):
        rng = np.random.default_rng(14)
        doc = stats_to_dict(committed_from(rng.normal(size=(20, 3)), np.arange(20) % 3, 3))
        doc.update(edit)
        with pytest.raises(InputError):
            stats_from_dict(doc, 3)

    def test_unseen_class_rows_stay_null(self):
        doc = stats_to_dict(committed_from(np.arange(12.0).reshape(4, 3), [0, 0, 1, 1], 3))
        assert doc["count"] == [2, 2, 0] and doc["mean"][2] is None
        loaded = stats_from_dict(doc, 3)
        assert np.isnan(loaded.frozen_mean[2]).all() and loaded.calibration_active
