"""Loss values: closed-form oracles, invariances, composition."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, xlogy

from oracles import rank_directional_loss

from rankprompt.core import InputError, _log_softmax
from rankprompt.losses import (
    LossConfig,
    image_to_text_term,
    rank_term,
    text_to_image_term,
    total_loss,
)

CFG = LossConfig()

LN2 = 0.6931471805599453
LN5 = 1.6094379124341003


def smat(rows):
    return np.asarray(rows, dtype=float)


# The loss functions take the plain arrays of the checked types.
def image_to_text_loss(s, labels, cfg):
    return image_to_text_term(s, labels, cfg)[0]


def text_to_image_loss(s, labels, cfg):
    return text_to_image_term(s, labels, cfg)[0]


def main_loss(s, labels, cfg):
    return total_loss(s, labels, cfg).main


def rank_loss(s, labels, cfg):
    return rank_term(s, labels, cfg)[0]


def random_case(seed, m_hi=8, k_hi=6):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, m_hi + 1))
    k = int(rng.integers(2, k_hi + 1))
    s = smat(rng.normal(0, 2, (m, k)))
    labels = rng.integers(0, k, m)
    return s, labels, rng


class TestImageToText:
    """Row softmax over the grades: the image-to-text term."""

    def test_zero_scores_give_log_k(self):
        s = smat(np.zeros((3, 5)))
        got = image_to_text_loss(s, np.array([0, 2, 4]), CFG)
        np.testing.assert_allclose(got, LN5, atol=1e-12)

    def test_saturated_row_vanishes(self):
        row = np.zeros((1, 5))
        row[0, 1] = 50.0
        assert image_to_text_loss(smat(row), np.array([1]), CFG) < 1e-20

    def test_two_row_hand_value(self):
        s = smat([[np.log(2.0), 0.0], [0.0, np.log(2.0)]])
        got = image_to_text_loss(s, np.array([0, 0]), CFG)
        np.testing.assert_allclose(got, 0.7520386983881371, atol=1e-12)

    def test_row_shift_invariance(self):
        s, labels, rng = random_case(20)
        shifted = s.copy()
        shifted[0] += 3.7
        np.testing.assert_allclose(
            image_to_text_loss(smat(shifted), labels, CFG),
            image_to_text_loss(s, labels, CFG),
            atol=1e-12,
        )

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            image_to_text_loss(smat(np.zeros((2, 3))), np.array([0]), CFG)


class TestTextToImage:
    """Column softmax over the images of each present grade: the text-to-image
    term."""

    def test_zero_scores_hand_value(self):
        got = text_to_image_loss(smat(np.zeros((3, 2))), np.array([0, 0, 1]), CFG)
        np.testing.assert_allclose(got, 0.7520386983881371, atol=1e-12)

    def test_single_class_batch_averages_over_one(self):
        """Only the present class row enters the average."""
        rng = np.random.default_rng(21)
        s = smat(rng.normal(size=(4, 5)))
        labels = np.array([2, 2, 2, 2])
        col = s[:, 2]
        # KL(uniform || softmax(col)) = logsumexp(col) - mean(col) - ln(M)
        lse = float(np.log(np.exp(col - col.max()).sum()) + col.max())
        expected = lse - float(col.mean()) - np.log(4.0)
        np.testing.assert_allclose(text_to_image_loss(s, labels, CFG), expected, atol=1e-12)

    def test_single_image_is_zero(self):
        s = smat([[0.3, -1.2, 0.7]])
        assert text_to_image_loss(s, np.array([1]), CFG) == 0.0

    def test_column_shift_invariance(self):
        s, labels, rng = random_case(22)
        shifted = s.copy()
        shifted[:, 0] += 2.2
        np.testing.assert_allclose(
            text_to_image_loss(smat(shifted), labels, CFG),
            text_to_image_loss(s, labels, CFG),
            atol=1e-12,
        )


class TestMainLoss:
    def test_composite_hand_value(self):
        got = main_loss(smat(np.zeros((3, 2))), np.array([0, 0, 1]), CFG)
        np.testing.assert_allclose(got, 0.7225929394740411, atol=1e-12)

    def test_perfect_matching_limit(self):
        s = smat(1e3 * np.eye(4))
        got = main_loss(s, np.array([0, 1, 2, 3]), CFG)
        assert got < 1e-12

    def test_is_mean_of_sub_losses(self):
        for seed in range(10):
            s, labels, _ = random_case(seed)
            expected = 0.5 * (text_to_image_loss(s, labels, CFG) + image_to_text_loss(s, labels, CFG))
            assert main_loss(s, labels, CFG) == expected


class TestRankDirectional:
    def test_uniform_row_two_pairs(self):
        got = rank_directional_loss(np.zeros(5), 2, "rightward", 1.0)
        np.testing.assert_allclose(got, 2 * LN2, atol=1e-12)

    def test_boundary_class_empty_sum(self):
        assert rank_directional_loss(np.zeros(5), 0, "leftward", 1.0) == 0.0
        assert rank_directional_loss(np.zeros(5), 4, "rightward", 1.0) == 0.0

    def test_descending_row_hand_value(self):
        got = rank_directional_loss([3.0, 2.0, 1.0, 0.0, -1.0], 0, "rightward", 1.0)
        np.testing.assert_allclose(got, 1.2530467500728915, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            rank_directional_loss(np.zeros(4), 4, "rightward", 1.0)
        with pytest.raises(InputError):
            rank_directional_loss(np.zeros(4), 0, "up", 1.0)
        with pytest.raises(InputError):
            rank_directional_loss(np.zeros(4), 0, "rightward", 0.0)


class TestRankLoss:
    def test_single_row_matches_directional_sum(self):
        rng = np.random.default_rng(23)
        row = rng.normal(size=6)
        for c in range(6):
            got = rank_loss(smat(row[None, :]), np.array([c]), CFG)
            expected = rank_directional_loss(row, c, "rightward", 1.0) + rank_directional_loss(
                row, c, "leftward", 1.0
            )
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_large_margins_vanish(self):
        row = np.array([[40.0, 30.0, 20.0, 10.0, 0.0]]) * 10
        assert rank_loss(smat(row), np.array([0]), CFG) < 1e-12

    def test_zero_scores_hand_value(self):
        got = rank_loss(smat(np.zeros((2, 5))), np.array([0, 2]), CFG)
        np.testing.assert_allclose(got, 4 * LN2, atol=1e-12)

    def test_all_equal_scores_count_pairs(self):
        for k in (2, 3, 5, 6):
            s = smat(np.full((3, k), 1.7))
            got = rank_loss(s, np.array([0, k // 2, k - 1]), CFG)
            np.testing.assert_allclose(got, LN2 * (k - 1), atol=1e-12)

    def test_row_shift_invariance(self):
        s, labels, _ = random_case(24)
        shifted = s.copy()
        shifted[0] += 5.5
        np.testing.assert_allclose(
            rank_loss(smat(shifted), labels, CFG), rank_loss(s, labels, CFG), atol=1e-12
        )

    def test_widening_gaps_strictly_decreases(self):
        """Scaling a row that already satisfies both chains shrinks the loss."""
        row = np.array([1.0, 2.0, 4.0, 3.0, 0.5])
        labels = np.array([2])
        base = rank_loss(smat(row[None, :]), labels, CFG)
        wider = rank_loss(smat((2.0 * row)[None, :]), labels, CFG)
        assert wider < base

    def test_tau_scales_gaps(self):
        s, labels, _ = random_case(25)
        hot = LossConfig(tau=0.5)
        direct = rank_loss(smat(s / 0.5), labels, CFG)
        np.testing.assert_allclose(rank_loss(s, labels, hot), direct, atol=1e-12)


class TestTotalLoss:
    def test_lambda_zero_is_main_only(self):
        s, labels, _ = random_case(26)
        report = total_loss(s, labels, LossConfig(lambda_rank=0.0))
        assert report.total == report.main

    @pytest.mark.parametrize("key", ["lambda_main", "lambda_rank"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_weight_rejected(self, key, value):
        with pytest.raises(InputError, match=f"{key} must be nonnegative"):
            LossConfig(**{key: value})

    def test_lambda_main_zero_is_rank_only(self):
        """The alignment term's value is still reported, but neither the total
        nor the gradient holds it."""
        s, labels, _ = random_case(27)
        cfg = LossConfig(lambda_main=0.0, lambda_rank=0.5)
        report = total_loss(s, labels, cfg)
        assert report.main > 0 and report.total == 0.5 * report.rank
        np.testing.assert_array_equal(report.grad_similarity, 0.5 * rank_term(s, labels, cfg)[1])

    def test_zero_scores_composite(self):
        report = total_loss(smat(np.zeros((2, 5))), np.array([0, 2]), CFG)
        np.testing.assert_allclose(report.rank, 4 * LN2, atol=1e-12)
        np.testing.assert_allclose(report.total, report.main + 4 * LN2, atol=1e-12)

    def test_total_is_exact_sum(self):
        for seed in range(20):
            s, labels, rng = random_case(seed + 100)
            cfg = LossConfig(lambda_rank=float(rng.uniform(0, 3)))
            report = total_loss(s, labels, cfg)
            assert abs(report.total - (report.main + cfg.lambda_rank * report.rank)) <= 1e-12

    def test_all_terms_nonnegative_and_finite(self):
        for seed in range(30):
            s, labels, _ = random_case(seed + 200)
            report = total_loss(s, labels, CFG)
            assert report.main >= 0 and report.rank >= 0 and report.total >= 0
            assert np.isfinite(report.grad_similarity).all()


@st.composite
def oracle_batches(draw):
    """A batch in which one grade has a single sample and at least one grade
    is absent, with its similarities and a temperature."""
    k = draw(st.integers(3, 8))
    absent = draw(st.sampled_from(range(k)))
    single = draw(st.sampled_from([c for c in range(k) if c != absent]))
    rest = draw(st.lists(st.sampled_from([c for c in range(k) if c not in (absent, single)]), max_size=40))
    labels = np.array(draw(st.permutations([single, *rest])), dtype=np.int64)
    s = draw(hnp.arrays(np.float64, (len(labels), k), elements=st.floats(-10, 10)))
    tau = draw(st.sampled_from([0.07, 0.5, 1.0, 2.0]))
    return s, labels, LossConfig(tau=tau)


class TestScipyOracle:
    """The loss layer runs on numpy alone; scipy.special's forms of the entropy
    and the sigmoid are the oracles."""

    @staticmethod
    def assert_text_to_image_matches_xlogy_form(s, labels, cfg):
        counts = np.bincount(labels, minlength=s.shape[1])
        present = np.flatnonzero(counts > 0)
        y = (labels == present[:, None]) / counts[present, None]
        logq = _log_softmax(s.T[present] / cfg.tau)
        kl = xlogy(y, y).sum(axis=1) - (y * logq).sum(axis=1)
        value, grad = text_to_image_term(s, labels, cfg)
        assert value == float(kl.sum() / len(present))
        want = np.zeros_like(s)
        want[:, present] = ((np.exp(logq) - y) / (len(present) * cfg.tau)).T
        np.testing.assert_array_equal(grad, want)

    @settings(max_examples=200, deadline=None)
    @given(oracle_batches())
    def test_text_to_image_matches_xlogy_form_bit_for_bit(self, batch):
        self.assert_text_to_image_matches_xlogy_form(*batch)

    def test_text_to_image_takes_libm_log_of_large_counts(self):
        """On an AVX-512 host numpy's vectorized log of 1/15105 and of 1/18892
        differs from libm's (and xlogy's) in the last bit."""
        labels = np.repeat([0, 1, 3], [15105, 18892, 1])
        s = np.random.default_rng(31).normal(size=(len(labels), 4))
        self.assert_text_to_image_matches_xlogy_form(s, labels, CFG)

    @staticmethod
    def expit_rank_term(s, labels, tau):
        """The rank term's value and gradient with scipy's expit as the sigmoid,
        and the scaled gaps z it takes."""
        m, k = s.shape
        sign = np.where(np.arange(k - 1)[None, :] >= labels[:, None], 1.0, -1.0)
        z = sign * (s[:, :-1] - s[:, 1:]) / tau
        dz = (expit(z) - 1.0) * sign / (tau * m)
        grad = np.zeros_like(s)
        grad[:, :-1] += dz
        grad[:, 1:] -= dz
        return float(np.logaddexp(0.0, -z).sum() / m), grad, z

    @settings(max_examples=200, deadline=None)
    @given(oracle_batches())
    def test_rank_term_matches_expit_form(self, batch):
        """The value is the same logaddexp sum; the gradient differs from the
        expit form by at most the last bits of numpy's exp."""
        s, labels, cfg = batch
        want_value, want_grad, _ = self.expit_rank_term(s, labels, cfg.tau)
        value, grad = rank_term(s, labels, cfg)
        assert value == want_value
        assert np.abs(grad - want_grad).max() <= 4 * np.finfo(np.float64).eps / (cfg.tau * len(s))

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    def test_huge_gaps_give_finite_gradient_without_warning(self, tau):
        """exp(-z) overflows to inf for a gap of -1000: the sigmoid is 0, as
        expit gives, and no RuntimeWarning is raised."""
        s = smat([[0.0, 1000.0, 0.0, -1000.0, 0.0], [1000.0, 0.0, -1000.0, 0.0, 1000.0]])
        labels = np.array([2, 0])
        cfg = LossConfig(tau=tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = rank_term(s, labels, cfg)
            report = total_loss(s, labels, cfg)
        assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(report.grad_similarity).all()
        want_value, want_grad, z = self.expit_rank_term(s, labels, tau)
        assert z.min() < -np.log(np.finfo(np.float64).max)  # exp(-z) does overflow
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)
