"""Metric oracles: macro F1, one-vs-rest AUC, ranking diagnostics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

import rankprompt
from rankprompt.core import InputError
from rankprompt.evaluation import (
    auc_macro_ovr,
    class_mean_similarity,
    confusion_matrix,
    metrics_report,
    own_grade_midranks,
    rank_monotonicity,
)


def smat(rows):
    return np.asarray(rows, dtype=np.float64)


def macro_f1(predictions, truth, k):
    """Macro F1 of ``predictions`` as ``metrics_report`` computes it: from
    one-hot scores, whose row argmax is the prediction."""
    scores = np.eye(k)[predictions]
    return metrics_report(scores, truth, k).macro_f1


class TestMacroF1:
    def test_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y, 3) == 1.0

    def test_all_wrong(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        assert macro_f1(pred, truth, 2) == 0.0

    def test_hand_computed_mixed(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5
        # class 1: tp=1 fp=0 fn=1 -> f1 = 2/3
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 0, 1])
        expected = 0.5 * (0.8 + 2.0 / 3.0)
        assert macro_f1(pred, truth, 2) == pytest.approx(expected, abs=1e-12)

    def test_absent_class_scores_zero(self):
        # class 2 never appears in truth or prediction: 0/0 counts as 0
        truth = np.array([0, 1])
        pred = np.array([0, 1])
        assert macro_f1(pred, truth, 3) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        base = macro_f1(pred, y, 4)
        perm = rng.permutation(50)
        shuffled = macro_f1(pred[perm], y[perm], 4)
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        auc, per = auc_macro_ovr(scores, np.array([0, 0, 1, 1]), 2)
        assert auc == 1.0
        assert per == [1.0, 1.0]

    def test_all_tied_scores_half(self):
        scores = np.full((6, 2), 0.5)
        auc, _ = auc_macro_ovr(scores, np.array([0, 1, 0, 1, 0, 1]), 2)
        assert auc == pytest.approx(0.5, abs=1e-12)

    def test_hand_computed(self):
        # class-0 scores: pos {0.9, 0.4}, neg {0.6, 0.3}
        # pairs won 3, lost 1 -> auc_0 = 0.75; symmetric column -> auc_1 = 0.75
        scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.6, 0.4], [0.3, 0.7]])
        auc, per = auc_macro_ovr(scores, np.array([0, 0, 1, 1]), 2)
        assert per[0] == pytest.approx(0.75, abs=1e-12)
        assert per[1] == pytest.approx(0.75, abs=1e-12)
        assert auc == pytest.approx(0.75, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        a, _ = auc_macro_ovr(raw, y, 3)
        b, _ = auc_macro_ovr(np.tanh(raw) * 5.0 + 2.0, y, 3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_absent_class_skipped(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.8, 0.2, 0.0], [0.2, 0.8, 0.0]])
        auc, per = auc_macro_ovr(scores, np.array([0, 1, 0, 1]), 3)
        assert np.isnan(per[2])
        assert auc == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        with pytest.raises(InputError):
            auc_macro_ovr(scores, np.array([0, 0]), 2)


@st.composite
def score_matrices(draw, min_rows=1):
    """M x K scores, either small integers (heavy ties) or continuous values."""
    m = draw(st.integers(min_rows, 300))
    k = draw(st.integers(2, 8))
    elements = draw(
        st.sampled_from(
            [
                st.integers(0, 3).map(float),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ]
        )
    )
    return draw(hnp.arrays(np.float64, (m, k), elements=elements))


def per_column_auc(scores, labels, k):
    """The one-vs-rest AUC as one scipy ``rankdata`` call per present class."""
    per_class = np.full(k, np.nan)
    for j in np.unique(labels):
        positive = labels == j
        n_pos = int(positive.sum())
        n_neg = positive.size - n_pos
        ranks = rankdata(scores[:, j])
        per_class[j] = float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.nanmean(per_class)), per_class


class TestMidranksMatchScipy:
    @settings(deadline=None, max_examples=50)
    @given(score_matrices(), st.data())
    def test_ranks_equal_rankdata(self, scores, data):
        m, k = scores.shape
        labels = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, k - 1)))
        want = rankdata(scores, axis=0)[np.arange(m), labels]
        np.testing.assert_array_equal(own_grade_midranks(scores, labels), want)

    @settings(deadline=None, max_examples=50)
    @given(score_matrices(min_rows=2), st.data())
    def test_auc_equals_per_column_formula(self, scores, data):
        m, k = scores.shape
        labels = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, k - 1)))
        labels[:2] = data.draw(st.permutations(range(k)))[:2]  # at least two classes present
        macro, per_class = auc_macro_ovr(scores, labels, k)
        want_macro, want_per_class = per_column_auc(scores, labels, k)
        assert macro == want_macro
        np.testing.assert_array_equal(per_class, want_per_class)


def test_import_loads_no_scipy():
    """numpy is the one runtime dependency: the package and its CLI load no
    scipy module, not even the package root."""
    src = str(Path(rankprompt.__file__).resolve().parents[1])
    code = (
        "import sys, rankprompt, rankprompt.cli; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestRankMonotonicity:
    def test_perfect_rows(self):
        s = smat([[3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [0.0, 1.0, 2.0]])
        assert rank_monotonicity(s, np.array([0, 1, 2])) == 1.0

    def test_flat_rows_fail(self):
        s = smat([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert rank_monotonicity(s, np.array([0, 2])) == 0.0

    def test_half_and_half(self):
        # row 0 descends from class 0; row 1 peaks at 1 but carries a tie
        s = smat([[3.0, 2.0, 1.0], [1.0, 3.0, 1.0]])
        assert rank_monotonicity(s, np.array([0, 1])) == 0.5

    def test_tie_on_far_side_still_counts_as_violation(self):
        # strictly rising toward class 2 but first two entries tie
        s = smat([[1.0, 1.0, 2.0]])
        assert rank_monotonicity(s, np.array([2])) == 0.0

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(20, 4))
        y = rng.integers(0, 4, size=20)
        base = rank_monotonicity(smat(raw), y)
        assert rank_monotonicity(smat(raw * 3.0 - 7.0), y) == base

    def test_interior_peak(self):
        s = smat([[0.1, 0.5, 0.9, 0.4, 0.2]])
        assert rank_monotonicity(s, np.array([2])) == 1.0
        assert rank_monotonicity(s, np.array([1])) == 0.0

    @settings(deadline=None, max_examples=50)
    @given(score_matrices(), st.data())
    def test_equals_per_row_definition(self, scores, data):
        """Tie-heavy and continuous rows: a row counts when it rises strictly up to
        its true grade, falls strictly after it, and holds no tie anywhere."""
        m, k = scores.shape
        labels = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, k - 1)))
        ok = [
            all(row[j] < row[j + 1] for j in range(y)) and all(row[j] > row[j + 1] for j in range(y, k - 1))
            and len(set(row.tolist())) == k
            for row, y in zip(scores, labels)
        ]
        assert rank_monotonicity(scores, labels) == float(np.mean(ok))


class TestClassMeanSimilarity:
    def test_hand_means(self):
        s = smat([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        m = class_mean_similarity(s, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(m, [[2.0, 3.0], [5.0, 6.0]])

    def test_absent_class_nan_row(self):
        s = smat([[1.0, 2.0, 3.0]])
        m = class_mean_similarity(s, np.array([0]), 3)
        assert np.all(np.isnan(m[1])) and np.all(np.isnan(m[2]))
        np.testing.assert_allclose(m[0], [1.0, 2.0, 3.0])


class TestConfusionAndPredict:
    def test_predict_argmax_first_wins(self):
        s = smat([[0.5, 0.5, 0.1], [0.0, 0.2, 0.9]])
        rep = metrics_report(s, np.array([1, 2]), 3)
        np.testing.assert_array_equal(rep.confusion, [[0, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_confusion_counts(self):
        truth = np.array([0, 0, 1, 2])
        pred = np.array([0, 1, 1, 0])
        cm = confusion_matrix(pred, truth, 3)
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [1, 0, 0]])
        assert cm.sum() == 4

    def test_confusion_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 5, size=200)
        pred = rng.integers(0, 5, size=200)
        cm = confusion_matrix(pred, y, 5)
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(y, minlength=5))


class TestMetricsReport:
    def test_report_fields_and_serialization(self):
        rng = np.random.default_rng(4)
        s = smat(rng.normal(size=(40, 5)))
        y = rng.integers(0, 5, size=40)
        rep = metrics_report(s, y, 5)
        assert rep.n_eval == 40
        assert 0.0 <= rep.macro_f1 <= 1.0
        assert 0.0 <= rep.rank_monotonicity <= 1.0
        d = rep.to_dict()
        assert set(d) == {
            "macro_f1",
            "macro_auc",
            "per_class_auc",
            "rank_monotonicity",
            "confusion",
            "n_eval",
        }
        assert d["confusion"] == rep.confusion.tolist()

    def test_report_nan_auc_serializes_none(self):
        s = smat([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.5, 0.2, 0.0], [0.2, 0.5, 0.0]])
        rep = metrics_report(s, np.array([0, 1, 0, 1]), 3)
        d = rep.to_dict()
        assert d["per_class_auc"][2] is None

    def test_auc_uses_softmax_not_raw(self):
        # softmax is rowwise monotone so per-class AUC matches raw columns
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        rep = metrics_report(smat(raw), y, 3)
        assert np.isfinite(rep.macro_auc)


class TestEntryChecks:
    """``metrics_report`` and ``class_mean_similarity`` check the shape and
    the label range of their input; the helpers they call trust it."""

    @pytest.mark.parametrize("entry", [metrics_report, class_mean_similarity], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "shape, labels, message",
        [
            ((2, 3), [0, 1, 0], r"^similarity matrix must be 3 x 3, got shape \(2, 3\)$"),
            ((2, 4), [0, 1], r"^similarity matrix must be 2 x 3, got shape \(2, 4\)$"),
            ((2,), [0, 1], r"^similarity matrix must be 2 x 3, got shape \(2,\)$"),
            ((2, 3), [0, 3], r"^label 3 out of range for 3 classes$"),
        ],
        ids=["rows", "width", "ndim", "label"],
    )
    def test_rejects_bad_shape_or_labels(self, entry, shape, labels, message):
        with pytest.raises(InputError, match=message):
            entry(np.zeros(shape), np.array(labels), 3)
