"""Per-class statistics, kernel smoothing, calibration, epoch commits."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import EpochSums, accumulate_class_stats, calibrate_rows, calibrated, calibration_map, commit_sums
from rankprompt.config import RunConfig
from rankprompt.core import InputError
from rankprompt.data import ParseError
from rankprompt.sms import VAR_FLOOR, calibrate, commit_epoch, kernel_weights
from rankprompt.model import forward_similarity, init_params
from rankprompt.train import STATS_KEYS, TrainResult, calibrated_similarity, load_checkpoint, save_checkpoint


UNIT = RunConfig(sms_sigma=1.0, sms_include_self=False)
ROW_KEYS = ("mean", "var", "smoothed_mean", "smoothed_var")


def committed_from(rows, labels, kernel=UNIT):
    """The commit of one epoch's rows, the normal route to usable stats."""
    return commit_epoch(np.asarray(rows, dtype=float), np.array(labels), kernel)


class TestKernelWeights:
    def test_flat_limit_excludes_self(self):
        """Huge sigma makes both neighbors weigh 1; the self weight stays 0."""
        w = kernel_weights(RunConfig(sms_sigma=1e6, sms_include_self=False), 1, 3)
        np.testing.assert_allclose(w, [1.0, 0.0, 1.0], atol=1e-9)

    def test_two_classes_single_neighbor(self):
        np.testing.assert_allclose(kernel_weights(UNIT, 0, 2), [0.0, np.exp(-0.5)])

    def test_unit_sigma_three_classes(self):
        w = kernel_weights(UNIT, 0, 3)
        np.testing.assert_allclose(w, [0.0, 0.6065306597126334, 0.1353352832366127], atol=1e-12)

    def test_raw_weights_symmetric(self):
        spec = RunConfig(sms_sigma=1.7, sms_include_self=True)
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
            stats = committed_from(np.eye(5), np.arange(5), RunConfig(sms_sigma=sigma, sms_include_self=False))
            np.testing.assert_allclose(stats.smoothed_mean.sum(axis=1), 1.0, atol=1e-9)
            raw = kernel_weights(RunConfig(sms_sigma=sigma, sms_include_self=False), 0, 5)
            np.testing.assert_allclose(stats.smoothed_mean[0], raw / raw.sum(), atol=1e-12)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_extreme_sigmas_are_the_delta_and_flat_kernels(self, include_self):
        """A sigma whose square underflows to 0 gives the delta kernel and one
        whose square overflows the flat kernel, with no NaN and no warning."""
        own = 1.0 if include_self else 0.0
        delta = kernel_weights(RunConfig(sms_sigma=1e-200, sms_include_self=include_self), 2, 5)
        flat = kernel_weights(RunConfig(sms_sigma=1e200, sms_include_self=include_self), 2, 5)
        assert delta.tolist() == [0.0, 0.0, own, 0.0, 0.0]
        assert flat.tolist() == [1.0, 1.0, own, 1.0, 1.0]

    @pytest.mark.parametrize("sigma", [1e-150, 1e-3, 0.4, 1.0, 1.7, 1e3, 1e150])
    def test_finite_sigmas_keep_the_gaussian_bits(self, sigma):
        """Where the Gaussian formula is finite, the weights are its bits."""
        d = np.arange(6, dtype=np.float64) - 2.0
        with np.errstate(over="ignore", divide="ignore"):
            want = np.exp(-(d * d) / (2.0 * sigma**2))
        assert kernel_weights(RunConfig(sms_sigma=sigma, sms_include_self=True), 2, 6).tobytes() == want.tobytes()

    def test_rejects_single_class(self):
        with pytest.raises(InputError):
            kernel_weights(UNIT, 0, 1)


class TestAccumulate:
    def test_hand_mean_and_variance(self):
        s = np.array([[1.0, 3.0], [3.0, 5.0], [0.0, 0.0]])
        stats = committed_from(s, [1, 1, 0])
        np.testing.assert_allclose(stats.mean[1], [2.0, 4.0])
        np.testing.assert_allclose(stats.var[1], [1.0, 1.0])

    def test_single_row_floors_variance(self):
        stats = committed_from(np.array([[7.0, 7.0], [0.0, 0.0]]), [0, 1])
        np.testing.assert_allclose(stats.mean[0], [7.0, 7.0])
        np.testing.assert_allclose(stats.var[0], [VAR_FLOOR, VAR_FLOOR])

    def test_commit_names_the_grades_without_rows(self):
        """An epoch that saw only some grades cannot commit: the error names
        every grade without rows."""
        with pytest.raises(InputError, match=r"grades \[1, 3\] have no rows this epoch"):
            commit_epoch(np.ones((3, 4)), np.array([0, 2, 0]), UNIT)

    def test_accumulation_spans_batches(self):
        """An epoch's buffer holds the rows of all its batches: a grade's mean covers both."""
        a = np.array([[1.0, 3.0], [0.0, 0.0]])
        b = np.array([[3.0, 5.0]])
        np.testing.assert_allclose(commit_epoch(np.vstack([a, b]), np.array([1, 0, 1]), UNIT).mean[1], [2.0, 4.0])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 5))
        labels = rng.integers(0, 5, 40)
        perm = rng.permutation(40)
        one = committed_from(rows, labels)
        two = committed_from(rows[perm], labels[perm])
        np.testing.assert_allclose(one.mean, two.mean, atol=1e-12)
        np.testing.assert_allclose(one.var, two.var, atol=1e-12)

    def test_sums_match_row_by_row_accumulation_bit_for_bit(self):
        """The committed mean and variance are, byte for byte, those of sums
        that add each row to its label's row in row order, over a buffer of
        several batches."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            sizes = rng.integers(1, 300, 3)
            rows = np.vstack([rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(m, k)) for m in sizes])
            labels = np.concatenate([np.arange(k), rng.integers(0, k, len(rows) - k)])
            total, totalsq = np.zeros((k, k)), np.zeros((k, k))
            for row, c in zip(rows, labels):
                total[c] += row
                totalsq[c] += row * row
            n = np.bincount(labels)[:, None].astype(np.float64)
            stats = commit_epoch(rows, labels, UNIT)
            assert stats.mean.tobytes() == (total / n).tobytes()
            assert stats.var.tobytes() == np.maximum(totalsq / n - (total / n) ** 2, VAR_FLOOR).tobytes()

    def test_rejects_shape_mismatch(self):
        """Labels must number the rows and lie in [0, K) for the buffer's K."""
        with pytest.raises(InputError, match="^got 1 labels for 2 similarity rows$"):
            commit_epoch(np.ones((2, 3)), np.array([0]), UNIT)
        with pytest.raises(InputError, match="^label 3 out of range for 3 classes$"):
            commit_epoch(np.ones((2, 3)), np.array([0, 3]), UNIT)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_whole_buffer_equals_per_batch_accumulation(self, data):
        """Committing the epoch's buffer at once gives, byte for byte, every
        array that summing its rows batch by batch gave, however the batches
        split it: one grade has a single row, rows span magnitudes 1e-3 to
        1e3, and some entries are -0.0."""
        k = data.draw(st.integers(2, 8), label="k")
        m = data.draw(st.integers(k, 400), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lone = int(rng.integers(0, k))
        others = np.delete(np.arange(k), lone)
        labels = rng.permutation(np.concatenate([[lone], others, rng.choice(others, m - k)]))
        rows = rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
        rows[rng.random((m, k)) < 0.1] = -0.0
        cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)), replace=False))
        kernel = RunConfig(
            sms_sigma=data.draw(st.sampled_from([1e-3, 0.4, 1.0, 3.0]), label="sigma"),
            sms_include_self=data.draw(st.booleans(), label="include_self"),
        )
        sums = EpochSums(k)
        for part_rows, part_labels in zip(np.split(rows, cuts), np.split(labels, cuts)):
            accumulate_class_stats(sums, part_rows, part_labels)
        got, want = commit_epoch(rows, labels, kernel), commit_sums(sums, kernel)
        assert got.count[lone] == 1
        for key in STATS_KEYS:
            assert getattr(got, key).dtype == getattr(want, key).dtype
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


class TestCommitSmoothing:
    """Kernel smoothing as ``commit_epoch`` applies it."""

    def test_symmetric_neighbors_average(self):
        """With flat weights the middle class lands on the neighbor mean.
        Smoothing is element-wise, so the scalar case rides in column 0."""
        rows = np.array([[0.0, 5.0, -1.0], [1.0, 7.0, 0.0], [2.0, 9.0, 1.0]])
        smoothed = committed_from(rows, [0, 1, 2], RunConfig(sms_sigma=1e6, sms_include_self=False))
        np.testing.assert_allclose(smoothed.smoothed_mean[1], [1.0, 7.0, 0.0], atol=1e-9)

    def test_unit_sigma_value(self):
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        smoothed = committed_from(rows, [0, 1, 2], UNIT)
        np.testing.assert_allclose(smoothed.smoothed_mean[0], [1.1824255238063563] * 3, atol=1e-12)

    def test_constant_field_fixed_point(self):
        smoothed = committed_from(np.full((3, 3), 4.25), [0, 1, 2])
        for j in range(3):
            np.testing.assert_allclose(smoothed.smoothed_mean[j], [4.25] * 3, atol=1e-12)

    def test_underflowed_neighbors_keep_raw_statistics(self):
        """When every neighbor weight underflows to 0 the class keeps its own statistics."""
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(12, 3))
        smoothed = committed_from(rows, np.arange(12) % 3, RunConfig(sms_sigma=0.02, sms_include_self=False))
        assert np.array_equal(smoothed.smoothed_mean, smoothed.mean)
        assert np.array_equal(smoothed.smoothed_var, smoothed.var)


class TestCalibrateRows:
    def test_degenerate_smoothing_is_identity(self):
        """Tiny sigma with the self weight kept reproduces each class's own
        statistics, so standard calibration is the identity map."""
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(30, 5))
        labels = rng.integers(0, 5, 30)
        stats = committed_from(rows, labels, RunConfig(sms_sigma=1e-3, sms_include_self=True))
        fresh = rng.normal(size=(8, 5))
        fresh_labels = rng.integers(0, 5, 8)
        out = calibrated(fresh, fresh_labels, stats)
        np.testing.assert_allclose(out, fresh, atol=1e-12)

    def test_centered_input_maps_to_smoothed_mean(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, 40)
        stats = committed_from(rows, labels)
        for c in range(4):
            s = stats.mean[c][None, :]
            out = calibrated(s, np.array([c]), stats)
            np.testing.assert_allclose(out[0], stats.smoothed_mean[c], atol=1e-12)

    def test_scalar_standard_case(self):
        """mean 1, var 1, smoothed mean 3, smoothed var 4 sends 2 to 5.
        Calibration is element-wise, so the scalar case rides in column 0."""
        # class 0 rows give mean 1 var 1 in column 0; class 1 mean 3 var 4
        rows = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [5.0, 5.0]])
        stats = committed_from(rows, [0, 0, 1, 1])
        # the only non-self neighbor of class 0 is class 1
        np.testing.assert_allclose(stats.smoothed_mean[0], [3.0, 3.0])
        np.testing.assert_allclose(stats.smoothed_var[0], [4.0, 4.0])
        out = calibrated(np.array([[2.0, 2.0]]), np.array([0]), stats)
        np.testing.assert_allclose(out, [[5.0, 5.0]], atol=1e-12)

    def test_affine_property(self):
        """calibrate(a*s + (1-a)*mean_c) == a*calibrate(s) + (1-a)*smoothed_mean_c."""
        rng = np.random.default_rng(6)
        for case in range(50):
            k = int(rng.integers(2, 6))
            rows = rng.normal(rng.normal(0, 2), rng.uniform(0.5, 2), size=(30, k))
            labels = rng.integers(0, k, 30)
            stats = committed_from(rows, labels)
            c = int(rng.integers(0, k))
            s = rng.normal(size=(1, k))
            alpha = float(rng.uniform(-1.5, 1.5))
            lhs = calibrated(
                alpha * s + (1 - alpha) * stats.mean[c], np.array([c]), stats
            )[0]
            rhs = alpha * calibrated(s, np.array([c]), stats)[0] + (
                1 - alpha
            ) * stats.smoothed_mean[c]
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_cold_start_is_identity(self):
        """Before the first commit the statistics are None, and inference
        returns the raw similarities."""
        cfg = RunConfig(classes=3, feature_dim=4, hidden_dim=5, embed_dim=2)
        params = init_params(4, 5, 2, 3, 0)
        feats = np.random.default_rng(3).normal(size=(6, 4))
        out = calibrated_similarity(params, None, feats, np.array([0, 1, 2, 0, 1, 2]), cfg)
        np.testing.assert_array_equal(out, forward_similarity(params, feats))

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 7),
        rows=st.integers(1, 60),
        absent=st.integers(0, 6),
        sigma=st.sampled_from([1e-3, 0.4, 1.0, 3.0]),
        include_self=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, rows=1, absent=1, sigma=0.4, include_self=True, seed=0)
    def test_equals_the_two_step_oracle_bit_for_bit(self, k, rows, absent, sigma, include_self, seed):
        """``calibrate`` maps the rows in place to the bits that the per-row
        map and its out-of-place apply give, and returns that map's scale.
        One grade has no rows; rows span magnitudes 1e-3 to 1e3, and some
        entries are -0.0."""
        rng = np.random.default_rng(seed)
        buffer = rng.normal(size=(4 * k, k)) * 10.0 ** rng.uniform(-2, 2, size=(4 * k, 1))
        stats = commit_epoch(buffer, np.arange(4 * k) % k, RunConfig(sms_sigma=sigma, sms_include_self=include_self))
        labels = rng.choice(np.delete(np.arange(k), absent % k), rows)
        s = rng.normal(size=(rows, k)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        s[rng.random((rows, k)) < 0.1] = -0.0
        out = s.copy()
        scale = calibrate(out, labels, stats)
        assert out.tobytes() == calibrate_rows(s, labels, stats).tobytes()
        assert scale.tobytes() == calibration_map(s, labels, stats)[0].tobytes()

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(25, 5))
        labels = rng.integers(0, 5, 25)
        stats = committed_from(rows, labels)
        s = rng.normal(size=(6, 5))
        lab = rng.integers(0, 5, 6)
        first = calibrated(s, lab, stats)
        second = calibrated(s, lab, stats)
        assert np.array_equal(first, second)


class TestCommitEpoch:
    def test_commit_on_empty_epoch_raises(self):
        """An epoch without rows has no labels: the label check rejects it
        before any grade is counted."""
        with pytest.raises(InputError, match="^labels must be a non-empty 1-D numpy array"):
            commit_epoch(np.empty((0, 5)), np.empty(0, dtype=np.int64), UNIT)

    def test_commit_freezes_and_resets(self):
        """The commit holds read-only arrays that share no memory with the
        epoch's buffer or its labels, so the next epoch may overwrite them."""
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(12, 3))
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, 9)])
        stats = commit_epoch(rows, labels, UNIT)
        assert stats.count.sum() == 12
        for arr in (stats.count, stats.mean, stats.var, stats.smoothed_mean, stats.smoothed_var):
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, buf) for buf in (rows, labels))

    def test_replay_gives_identical_commits(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(18, 4))
        labels = rng.integers(0, 4, 18)
        first = committed_from(rows, labels)
        second = commit_epoch(rows.copy(), labels.copy(), UNIT)
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.smoothed_mean, second.smoothed_mean)
        assert np.array_equal(first.smoothed_var, second.smoothed_var)

    def test_frozen_stats_survive_next_epoch_accumulation(self):
        """Overwriting the buffer the commit read, as the next epoch does, and
        committing the next epoch leave the commit's calibration bit-identical."""
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(10, 3))
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, 7)])
        stats = commit_epoch(rows, labels, UNIT)
        s = rng.normal(size=(4, 3))
        lab = rng.integers(0, 3, 4)
        before = calibrated(s, lab, stats)
        rows[...] = rng.normal(size=(10, 3))
        commit_epoch(rows, labels, UNIT)
        after = calibrated(s, lab, stats)
        assert np.array_equal(before, after)


def saved_doc(tmp_path, stats, k):
    """The checkpoint document ``save_checkpoint`` writes for ``stats`` over ``k`` grades."""
    cfg = RunConfig(classes=k)
    params = init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, k, 0)
    save_checkpoint(tmp_path / "checkpoint.json", TrainResult(params, stats, []), cfg)
    return json.loads((tmp_path / "checkpoint.json").read_text())


def loaded_stats(tmp_path, doc, k):
    """The statistics ``load_checkpoint`` reads back from ``doc``."""
    (tmp_path / "checkpoint.json").write_text(json.dumps(doc))
    return load_checkpoint(tmp_path / "checkpoint.json", RunConfig(classes=k))[1]


class TestSerialization:
    def test_round_trip_preserves_calibration(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(30, 5))
        labels = rng.integers(0, 5, 30)
        stats = committed_from(rows, labels)
        loaded = loaded_stats(tmp_path, saved_doc(tmp_path, stats, 5), 5)
        s = rng.normal(size=(7, 5))
        lab = rng.integers(0, 5, 7)
        assert np.array_equal(calibrated(s, lab, stats), calibrated(s, lab, loaded))

    def test_round_trip_pristine(self, tmp_path):
        """Nothing committed writes all-null statistics and reads back as None."""
        doc = saved_doc(tmp_path, None, 4)
        assert doc["sms"] == dict.fromkeys(("count", "mean", "var", "smoothed_mean", "smoothed_var"))
        assert loaded_stats(tmp_path, doc, 4) is None

    def test_keys_of_older_checkpoints_are_ignored(self, tmp_path):
        rng = np.random.default_rng(13)
        stats = committed_from(rng.normal(size=(20, 3)), np.arange(20) % 3)
        doc = saved_doc(tmp_path, stats, 3)
        assert set(doc["sms"]) == {"count", "mean", "var", "smoothed_mean", "smoothed_var"}
        # what earlier formats also wrote; the grade count now comes from params.hyper
        doc["sms"].update(committed=True, calibration_active=True, k=4, dim=4)
        doc["sms"]["kernel"] = {"sigma": 9.0, "include_self": False, "normalize": False, "kind": "gaussian"}
        loaded = loaded_stats(tmp_path, doc, 3)
        assert loaded.k == 3 and loaded.smoothed_mean is not None
        for name in ("count", "mean", "var", "smoothed_mean", "smoothed_var"):
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
    def test_inconsistent_statistics_rejected(self, tmp_path, edit):
        """The message names the first edited key the reader reaches."""
        rng = np.random.default_rng(14)
        doc = saved_doc(tmp_path, committed_from(rng.normal(size=(20, 3)), np.arange(20) % 3), 3)
        doc["sms"].update(edit)
        first = min(edit, key=STATS_KEYS.index)
        with pytest.raises(ParseError, match=f"malformed checkpoint: sms\\.{first} "):
            loaded_stats(tmp_path, doc, 3)

    @pytest.mark.parametrize("key", ["count", *ROW_KEYS])
    def test_zero_count_or_null_row_rejected(self, tmp_path, key):
        """Every grade has rows in a commit, so a zero count or a null row
        (what an epoch missing a grade once wrote) is rejected, naming the key."""
        doc = saved_doc(tmp_path, committed_from(np.arange(12.0).reshape(4, 3), [0, 1, 2, 1]), 3)
        if key == "count":
            doc["sms"]["count"][2] = 0
        else:
            doc["sms"][key][2] = None
        with pytest.raises(ParseError, match=f"malformed checkpoint: sms\\.{key} "):
            loaded_stats(tmp_path, doc, 3)
