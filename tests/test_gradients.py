"""Analytic gradients against central finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from rankprompt.core import InputError
from rankprompt.losses import LossConfig, image_to_text_term, rank_term, total_loss
from rankprompt.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PARAM_FIELDS,
    init_optimizer,
    init_params,
    model_backward,
    optimizer_step,
)
from rankprompt.sms import EpochSums, KernelSpec, accumulate_class_stats, commit_epoch

H = 1e-5


def smat(rows):
    """A checked similarity matrix's plain array, as the loss functions take it."""
    return np.asarray(rows, dtype=float)


def fd_grad_wrt_similarity(fn, sdata, labels, cfg, h=H):
    g = np.zeros_like(sdata)
    for i in range(sdata.shape[0]):
        for j in range(sdata.shape[1]):
            up = sdata.copy()
            up[i, j] += h
            dn = sdata.copy()
            dn[i, j] -= h
            g[i, j] = (fn(smat(up), labels, cfg) - fn(smat(dn), labels, cfg)) / (2 * h)
    return g


def random_case(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    k = int(rng.integers(2, 7))
    sdata = rng.normal(0, 2, (m, k))
    labels = rng.integers(0, k, m)
    cfg = LossConfig(tau=float(rng.uniform(0.5, 2.0)), lambda_rank=float(rng.uniform(0.0, 2.0)))
    return sdata, labels, cfg


class TestLossGradients:
    def test_main_matches_finite_differences(self):
        for seed in range(25):
            sdata, labels, cfg = random_case(seed)
            cfg = replace(cfg, lambda_rank=0.0)  # the alignment part alone
            fd = fd_grad_wrt_similarity(lambda s, y, c: total_loss(s, y, c).main, sdata, labels, cfg)
            got = total_loss(smat(sdata), labels, cfg).grad_similarity
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)

    def test_rank_matches_finite_differences(self):
        for seed in range(25):
            sdata, labels, cfg = random_case(seed + 1000)
            fd = fd_grad_wrt_similarity(lambda s, y, c: rank_term(s, y, c)[0], sdata, labels, cfg)
            np.testing.assert_allclose(rank_term(smat(sdata), labels, cfg)[1], fd, rtol=1e-4, atol=1e-6)

    def test_total_matches_finite_differences(self):
        def total_value(s, labels, cfg):
            r = total_loss(s, labels, cfg)
            return r.total

        for seed in range(25):
            sdata, labels, cfg = random_case(seed + 2000)
            fd = fd_grad_wrt_similarity(total_value, sdata, labels, cfg)
            got = total_loss(smat(sdata), labels, cfg).grad_similarity
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)

    def test_weighted_main_matches_finite_differences(self):
        """total = 0.3 * main + lambda_rank * rank: the weight scales the alignment gradient."""
        for seed in range(25):
            sdata, labels, cfg = random_case(seed + 6000)
            cfg = replace(cfg, lambda_main=0.3)
            fd = fd_grad_wrt_similarity(lambda s, y, c: total_loss(s, y, c).total, sdata, labels, cfg)
            got = total_loss(smat(sdata), labels, cfg).grad_similarity
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)

    def test_image_to_text_grad_rows_sum_to_zero(self):
        """Softmax minus one-hot: every row of the image-to-text (row-softmax)
        term's gradient sums to 0."""
        for seed in range(10):
            sdata, labels, cfg = random_case(seed + 3000)
            _, g = image_to_text_term(smat(sdata), labels, cfg)
            np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_true_class_entry_has_negative_gradient(self):
        """Raising the true-class score lowers the loss: always for the
        row-softmax term, and for the full total on single-image batches.
        (With several images per class the transposed term can locally
        reward lowering an over-dominant true-class score, so the
        unrestricted claim is not testable.)"""
        for seed in range(10):
            sdata, labels, cfg = random_case(seed + 4000)
            _, g = image_to_text_term(smat(sdata), labels, cfg)
            rows = np.arange(sdata.shape[0])
            assert np.all(g[rows, labels] < 0)
        for seed in range(10):
            rng = np.random.default_rng(seed + 5000)
            k = int(rng.integers(2, 7))
            sdata = rng.normal(0, 2, (1, k))
            labels = rng.integers(0, k, 1)
            cfg = LossConfig(lambda_rank=float(rng.uniform(0.0, 2.0)))
            g = total_loss(smat(sdata), labels, cfg).grad_similarity
            assert g[0, labels[0]] < 0

    def test_rank_gradient_saturates_at_large_margins(self):
        row = np.array([[500.0, 400.0, 300.0, 200.0, 100.0]])
        _, g = rank_term(smat(row), np.array([0]), LossConfig())
        assert np.max(np.abs(g)) < 1e-12


def committed_stats(rng, k):
    sums = EpochSums(k)
    rows = smat(rng.normal(0, 1, (10 * k, k)))
    labels = np.arange(10 * k) % k
    accumulate_class_stats(sums, rows, labels)
    return commit_epoch(sums, KernelSpec(sigma=1.0, include_self=False))


class TestFullChainGradients:
    def test_parameters_match_finite_differences(self):
        """Every encoder weight and text embedding, chained through the
        frozen calibration map and the inner product, 20 seeds."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f = int(rng.integers(2, 7))
            hid = int(rng.integers(2, 9))
            d = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 7))
            normalize = bool(seed % 2)
            use_sms = bool((seed // 2) % 2)
            params = init_params(f, hid, d, k, seed)
            feats = rng.normal(0, 1, (m, f))
            labels = rng.integers(0, k, m)
            cfg = LossConfig(tau=1.0, lambda_rank=float(rng.uniform(0.0, 2.0)))
            stats = committed_stats(rng, k) if use_sms else None

            res = model_backward(params, feats, labels, stats, cfg, normalize=normalize)

            def value(p):
                r = model_backward(p, feats, labels, stats, cfg, normalize=normalize)
                return r.report.total

            for name in PARAM_FIELDS:
                arr = getattr(params, name)
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    up = {name: arr.copy()}
                    up[name][idx] += H
                    dn = {name: arr.copy()}
                    dn[name][idx] -= H
                    fd[idx] = (value(params.with_values(up)) - value(params.with_values(dn))) / (2 * H)
                np.testing.assert_allclose(getattr(res.grads, name), fd, rtol=1e-3, atol=1e-6)

    def test_saturated_optimum_has_tiny_gradients(self):
        """One sample, perfect one-hot-like similarity row, lambda 0: the
        loss sits at its floor and every parameter gradient vanishes."""
        params = init_params(3, 4, 2, 3, 1)
        # collapse the encoder to a constant embedding b2
        params = params.with_values(
            {
                "w2": np.zeros_like(params.w2),
                "b2": np.array([1.0, 0.0]),
                "text": np.array([[50.0, 0.0], [0.0, 50.0], [-50.0, 0.0]]),
            }
        )
        feats = np.random.default_rng(2).normal(size=(1, 3))
        res = model_backward(params, feats, np.array([0]), None, LossConfig(lambda_rank=0.0))
        for name in PARAM_FIELDS:
            assert np.max(np.abs(getattr(res.grads, name))) < 1e-8


def zero_grads(params):
    return params.like(np.zeros_like(params.flat))


class TestOptimizer:
    def test_sgd_arithmetic(self):
        params = init_params(2, 2, 2, 2, 0)
        params = params.with_values({"b2": np.array([1.0, 1.0])})
        state = init_optimizer("sgd", 0.1, params)
        grads = zero_grads(params)
        grads.b2[:] = [2.0, 2.0]
        optimizer_step(params, grads, state)
        np.testing.assert_allclose(params.b2, [0.8, 0.8])

    def test_zero_gradient_keeps_parameters(self):
        params = init_params(3, 3, 3, 3, 1)
        before = {name: value.copy() for name, value in params.as_dict().items()}
        for kind in ("sgd", "adam"):
            optimizer_step(params, zero_grads(params), init_optimizer(kind, 0.05, params))
            for name in PARAM_FIELDS:
                np.testing.assert_array_equal(getattr(params, name), before[name])

    def test_adam_first_step_magnitude(self):
        """Bias correction makes the first Adam step about lr regardless of
        the gradient's scale."""
        params = init_params(2, 2, 2, 2, 3)
        for c in (1e-4, 1.0, 1e4):
            fresh = params.with_values({})  # the step updates its params in place
            state = init_optimizer("adam", 0.01, fresh)
            grads = fresh.like(np.full_like(fresh.flat, c))
            optimizer_step(fresh, grads, state)
            step = params.b1 - fresh.b1
            np.testing.assert_allclose(step, 0.01, rtol=1e-3)

    def test_updates_in_place(self):
        params = init_params(2, 3, 2, 2, 4)
        flat, before = params.flat, params.with_values({})
        state = init_optimizer("adam", 0.1, params)
        grads = params.like(np.ones_like(params.flat))
        assert optimizer_step(params, grads, state) is None
        assert params.flat is flat and np.shares_memory(params.w2, flat)
        assert state.step == 1 and not np.array_equal(params.w2, before.w2)

    def test_small_sgd_step_descends(self):
        """A tiny step along the analytic gradient lowers the total loss."""
        for seed in range(10):
            rng = np.random.default_rng(seed + 50)
            params = init_params(4, 5, 3, 4, seed)
            feats = rng.normal(size=(5, 4))
            labels = rng.integers(0, 4, 5)
            cfg = LossConfig()
            res = model_backward(params, feats, labels, None, cfg)
            state = init_optimizer("sgd", 1e-4, params)
            optimizer_step(params, res.grads, state)
            after = model_backward(params, feats, labels, None, cfg).report.total
            assert after < res.report.total

    def test_rejects_mismatched_shapes(self):
        params = init_params(2, 2, 2, 2, 0)
        # more classes; and the same 16 entries cut into other shapes
        for other in (init_params(2, 2, 2, 3, 0), init_params(1, 2, 2, 3, 0)):
            with pytest.raises(InputError):
                optimizer_step(params, zero_grads(other), init_optimizer("sgd", 0.1, params))
        assert init_params(1, 2, 2, 3, 0).flat.size == params.flat.size


def reference_step(values, grads, state, kind, lr, t):
    """The per-tensor SGD and Adam updates, one array at a time, written out
    as the flat optimizer must reproduce them bit for bit."""
    updated = {}
    for name in PARAM_FIELDS:
        g = grads[name]
        if kind == "sgd":
            updated[name] = values[name] - lr * g
            continue
        state["m"][name] = ADAM_BETA1 * state["m"][name] + (1.0 - ADAM_BETA1) * g
        state["v"][name] = ADAM_BETA2 * state["v"][name] + (1.0 - ADAM_BETA2) * g * g
        mhat = state["m"][name] / (1.0 - ADAM_BETA1**t)
        vhat = state["v"][name] / (1.0 - ADAM_BETA2**t)
        updated[name] = values[name] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return updated


class TestFlatOptimizerBitIdentity:
    STEPS = 60

    def test_matches_per_tensor_formulas(self):
        """SGD and Adam on the flat vector give the same bytes as the
        per-tensor formulas, step after step, on random layouts including
        two classes and a hidden width of 1."""
        layouts = [(3, 1, 2, 2), (1, 1, 1, 2), (5, 7, 3, 2)]
        rng = np.random.default_rng(77)
        layouts += [tuple(int(x) for x in rng.integers(1, 9, 3)) + (int(rng.integers(2, 8)),) for _ in range(5)]
        for case, dims in enumerate(layouts):
            for kind in ("sgd", "adam"):
                lr = float(10.0 ** rng.uniform(-4, 0))
                params = init_params(*dims, seed=case)
                values = {name: v.copy() for name, v in params.as_dict().items()}
                ref_state = {key: {n: np.zeros_like(v) for n, v in values.items()} for key in ("m", "v")}
                state = init_optimizer(kind, lr, params)
                for t in range(1, self.STEPS + 1):
                    scale = 10.0 ** rng.uniform(-6, 3)
                    grads = params.like(rng.normal(scale=scale, size=params.flat.size))
                    ref_grads = {name: g.copy() for name, g in grads.as_dict().items()}
                    optimizer_step(params, grads, state)
                    values = reference_step(values, ref_grads, ref_state, kind, lr, t)
                    for name in PARAM_FIELDS:
                        assert getattr(params, name).tobytes() == values[name].tobytes(), (dims, kind, t, name)
