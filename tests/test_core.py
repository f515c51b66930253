"""Numeric primitives: similarity, softmax, KL, one-hot."""

import numpy as np
import pytest

from rankprompt.core import (
    InputError,
    LabelVector,
    SimilarityMatrix,
    kl_divergence_row,
    one_hot,
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

    def test_similarity_needs_two_columns(self):
        with pytest.raises(InputError):
            SimilarityMatrix(np.ones((2, 1)))

    def test_similarity_data_is_readonly(self):
        s = SimilarityMatrix(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            s.data[0, 0] = 1.0

    def test_labels_reject_negative(self):
        with pytest.raises(InputError):
            LabelVector([0, -1])

    def test_labels_reject_fractional(self):
        with pytest.raises(InputError):
            LabelVector([0.5])

    def test_labels_validate_range(self):
        with pytest.raises(InputError):
            LabelVector([0, 3]).validate_for(3)
        LabelVector([0, 2]).validate_for(3)


class TestSimilarityMatrix:
    def test_identity_embeddings(self):
        """Identity image and text embeddings give the identity matrix."""
        eye = np.eye(2)
        np.testing.assert_array_equal(similarity_matrix(eye, eye).data, np.eye(2))

    def test_hand_inner_products(self):
        x = np.array([[1.0, 2.0]])
        t = np.array([[3.0, 4.0], [-1.0, 0.0]])
        np.testing.assert_allclose(similarity_matrix(x, t).data, [[11.0, -1.0]])

    def test_zero_images(self):
        x = np.zeros((3, 4))
        t = np.ones((5, 4))
        s = similarity_matrix(x, t)
        assert s.data.shape == (3, 5)
        np.testing.assert_array_equal(s.data, 0.0)

    def test_bilinear_in_images(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        t = rng.normal(size=(5, 3))
        s1 = similarity_matrix(x, t).data
        s2 = similarity_matrix(2.5 * x, t).data
        np.testing.assert_allclose(s2, 2.5 * s1)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        s = softmax_rows(SimilarityMatrix(np.zeros((1, 3))), 1.0)
        np.testing.assert_allclose(s, [[1 / 3, 1 / 3, 1 / 3]])

    def test_large_magnitudes_stable(self):
        s = softmax_rows(SimilarityMatrix(np.array([[1000.0, 1000.0]])), 1.0)
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_hand_values(self):
        s = softmax_rows(SimilarityMatrix(np.array([[np.log(2.0), 0.0]])), 1.0)
        np.testing.assert_allclose(s, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(0, 5, size=(4, 6))
            tau = float(rng.uniform(0.2, 3.0))
            p = softmax_rows(SimilarityMatrix(z), tau)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
            shifted = z.copy()
            shifted[2] += 17.5
            p2 = softmax_rows(SimilarityMatrix(shifted), tau)
            np.testing.assert_allclose(p2, p, atol=1e-12)

    def test_rejects_bad_tau(self):
        with pytest.raises(InputError):
            softmax_rows(SimilarityMatrix(np.zeros((1, 2))), 0.0)


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
        np.testing.assert_array_equal(one_hot(LabelVector([1]), 3), [[0, 1, 0]])

    def test_multiple_rows(self):
        got = one_hot(LabelVector([0, 0, 2]), 3)
        np.testing.assert_array_equal(got, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_last_class(self):
        np.testing.assert_array_equal(one_hot(LabelVector([4]), 5), [[0, 0, 0, 0, 1]])

    def test_row_sums(self):
        got = one_hot(LabelVector([0, 1, 2, 1]), 4)
        np.testing.assert_array_equal(got.sum(axis=1), 1.0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            one_hot(LabelVector([3]), 3)
