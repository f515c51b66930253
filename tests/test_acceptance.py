"""Acceptance criteria for the full pipeline.

Each test prints one PASS/FAIL line.  Criteria:
  A1 gradient certification against central finite differences
  A2 rank-structure learnability on an easy balanced dataset
  A3 ablation directions on a hard long-tailed dataset
  A4 closed-form loss oracles
  A5 calibration properties (identity, affinity, kernel, freeze)
  A6 statistical null for an untrained model
  A7 byte determinism and lossless round trips
"""

import json
import time
from dataclasses import replace
from statistics import mean

import numpy as np
import pytest
from oracles import kl_divergence_row, one_hot, rank_directional_loss

from rankprompt.cli import ABLATION_VARIANTS, main, run_battery
from rankprompt.config import RunConfig
from rankprompt.data import TWIN_SUFFIX, DatasetSpec, generate_synthetic, load_csv, write_csv
from rankprompt.losses import rank_term, total_loss
from rankprompt.model import PARAM_FIELDS, init_params, model_backward
from rankprompt.sms import calibrate_rows, commit_epoch, kernel_weights
from rankprompt.train import evaluate, heatmap_matrix, train


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def heatmap_rows_ok(matrix: np.ndarray, k: int) -> int:
    """Count class rows whose mean-similarity profile strictly rises to the
    class and strictly falls after it."""
    good = 0
    for c in range(k):
        d = matrix[c, :-1] - matrix[c, 1:]
        if np.all(np.where(np.arange(k - 1) >= c, d > 0, d < 0)):
            good += 1
    return good


class TestA1GradientCertification:
    H = 1e-5
    LOSS_RTOL = 1e-4
    CHAIN_RTOL = 1e-3
    ATOL = 1e-6

    def fd_wrt_similarity(self, func, s_data):
        grad = np.zeros_like(s_data)
        for idx in np.ndindex(*s_data.shape):
            up = s_data.copy()
            up[idx] += self.H
            down = s_data.copy()
            down[idx] -= self.H
            grad[idx] = (func(up) - func(down)) / (2 * self.H)
        return grad

    def committed_stats(self, rng, k, m_stat=12):
        s = rng.normal(size=(m_stat, k))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=m_stat - k)])
        return commit_epoch(s, labels, RunConfig(sms_sigma=1.0, sms_include_self=True))

    def excess(self, analytic, fd, rtol):
        """Worst |analytic - fd| relative to the allowance rtol*|fd| + atol;
        values <= 1 are within tolerance."""
        return float(np.max(np.abs(analytic - fd) / (rtol * np.abs(fd) + self.ATOL)))

    def test_a1(self):
        t0 = time.monotonic()
        worst_loss = 0.0
        worst_chain = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 9))
            k = int(rng.integers(2, 7))
            s_data = rng.normal(scale=1.5, size=(m, k))
            labels = rng.integers(0, k, size=m)
            cfg = RunConfig(tau=float(rng.uniform(0.5, 2.0)), lambda_rank=float(rng.uniform(0.2, 2.0)))

            def main_term(s):
                """The alignment part alone: total_loss with the rank weight at 0."""
                r = total_loss(s, labels, replace(cfg, lambda_rank=0.0))
                return r.main, r.grad_similarity

            def total_term(s):
                r = total_loss(s, labels, cfg)
                return r.total, r.grad_similarity

            for term in (main_term, lambda s: rank_term(s, labels, cfg), total_term):
                analytic = term(s_data)[1]
                fd = self.fd_wrt_similarity(lambda d: term(d)[0], s_data)
                err = self.excess(analytic, fd, self.LOSS_RTOL)
                worst_loss = max(worst_loss, err)
                assert err <= 1.0, f"A1: FAIL - seed {seed} loss-level tolerance exceeded {err:.2f}x"

            f_dim = int(rng.integers(2, 6))
            hid = int(rng.integers(2, 8))
            d_dim = int(rng.integers(2, 5))
            params = init_params(f_dim, hid, d_dim, k, seed)
            feats = rng.normal(size=(m, f_dim))
            stats = self.committed_stats(rng, k) if seed % 2 == 0 else None
            step_cfg = replace(cfg, normalize_embeddings=seed % 3 == 0)

            bw = model_backward(params, feats, labels, stats, step_cfg)
            packed = np.concatenate([getattr(params, f).ravel() for f in PARAM_FIELDS])
            analytic = np.concatenate([getattr(bw.grads, f).ravel() for f in PARAM_FIELDS])

            def chain_total(vec):
                shapes = [getattr(params, f).shape for f in PARAM_FIELDS]
                sizes = [int(np.prod(sh)) for sh in shapes]
                parts = np.split(vec, np.cumsum(sizes)[:-1])
                p = params.with_values(
                    {f: parts[i].reshape(shapes[i]) for i, f in enumerate(PARAM_FIELDS)}
                )
                r = model_backward(p, feats, labels, stats, step_cfg)
                return r.report.total

            fd = np.zeros_like(packed)
            for i in range(packed.size):
                up = packed.copy()
                up[i] += self.H
                down = packed.copy()
                down[i] -= self.H
                fd[i] = (chain_total(up) - chain_total(down)) / (2 * self.H)
            err = self.excess(analytic, fd, self.CHAIN_RTOL)
            worst_chain = max(worst_chain, err)
            assert err <= 1.0, f"A1: FAIL - seed {seed} full-chain tolerance exceeded {err:.2f}x"

        elapsed = time.monotonic() - t0
        report(
            "A1",
            elapsed < 30.0,
            f"100 seeds, worst tolerance use loss-level {worst_loss:.3f}x, "
            f"full-chain {worst_chain:.3f}x (limit 1.0 = rtol*|fd|+1e-6), {elapsed:.1f}s",
        )


class TestA2RankLearnability:
    def test_a2(self):
        t0 = time.monotonic()
        cfg = RunConfig()  # easy dataset: balanced, class_sep/noise_sigma = 5, N=2000, K=5
        assert cfg.epochs <= 50
        dataset = generate_synthetic(DatasetSpec.from_config(cfg))
        feats, labels = dataset.subset("test")
        result = train(cfg, dataset)
        rep = evaluate(result.params, result.stats, feats, labels, cfg)
        hm = heatmap_matrix(result.params, result.stats, feats, labels, cfg)
        rows = heatmap_rows_ok(hm, cfg.classes)
        elapsed = time.monotonic() - t0
        ok = rep.macro_f1 >= 0.9 and rep.rank_monotonicity >= 0.9 and rows >= 4 and elapsed < 60.0
        report(
            "A2",
            ok,
            f"macro_f1={rep.macro_f1:.4f} (>=0.9), rank_monotonicity={rep.rank_monotonicity:.4f} (>=0.9), "
            f"heatmap rows {rows}/5 (>=4), {elapsed:.1f}s (<60s)",
        )


class TestA3AblationDirections:
    SEEDS = range(5)
    BASE = RunConfig(class_sep=0.75, noise_sigma=0.5, imbalance_ratio=20.0, epochs=10)

    def test_a3(self):
        t0 = time.monotonic()
        variants = {name: ABLATION_VARIANTS[name] for name in ("full", "no_rank", "no_sms")}
        reports = run_battery(self.BASE, variants, self.SEEDS)
        f1 = {name: mean(rep.macro_f1 for rep in runs) for name, runs in reports.items()}
        mono = {name: mean(rep.rank_monotonicity for rep in runs) for name, runs in reports.items()}
        elapsed = time.monotonic() - t0
        ok = (
            mono["full"] > mono["no_rank"]
            and f1["full"] >= f1["no_rank"] - 0.01
            and f1["full"] >= f1["no_sms"] - 0.01
            and elapsed < 600.0
        )
        report(
            "A3",
            ok,
            f"mono full={mono['full']:.4f} > no_rank={mono['no_rank']:.4f}; "
            f"f1 full={f1['full']:.4f} vs no_rank={f1['no_rank']:.4f}, no_sms={f1['no_sms']:.4f} "
            f"(slack 0.01); {elapsed:.1f}s (<600s)",
        )


class TestA4LossOracles:
    TOL = 1e-9

    def test_a4(self):
        lcfg = RunConfig(tau=1.0, lambda_rank=1.0)
        checks = []

        got = rank_directional_loss(np.zeros(5), 2, "rightward", 1.0)
        checks.append(("uniform-row directional rank", got, 2 * np.log(2.0)))

        p = one_hot(np.array([2]), 5)[0]
        got = kl_divergence_row(p, np.full(5, 0.2))
        checks.append(("KL(one-hot||uniform)", got, np.log(5.0)))

        s = np.zeros((3, 2))
        got = total_loss(s, np.array([0, 0, 1]), lcfg).main
        checks.append(("all-zero main composite", got, 0.7225929394740411))

        got = rank_directional_loss(np.array([3.0, 2.0, 1.0, 0.0, -1.0]), 0, "rightward", 1.0)
        checks.append(("unit-gap directional rank", got, 1.2530467500728915))

        s = np.zeros((2, 5))
        got, _ = rank_term(s, np.array([1, 3]), lcfg)
        checks.append(("all-zero rank loss", got, 4 * np.log(2.0)))

        got = kl_divergence_row(np.array([0.5, 0.5]), np.array([0.75, 0.25]))
        checks.append(("two-point KL", got, 0.14384103622589042))

        worst = max(abs(got - want) for _, got, want in checks)
        for label, got, want in checks:
            assert abs(got - want) <= self.TOL, f"A4: FAIL - {label}: {got!r} vs {want!r}"
        report("A4", worst <= self.TOL, f"6 oracles, worst abs err {worst:.2e} (<=1e-9)")


class TestA5CalibrationProperties:
    def committed(self, rng, k=5, kernel=RunConfig(sms_sigma=1.0, sms_include_self=False), m=40):
        """An epoch's buffer of m rows (every grade present), its labels and their commit."""
        s = rng.normal(scale=2.0, size=(m, k))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=m - k)])
        return s, labels, commit_epoch(s, labels, kernel)

    def test_a5(self):
        rng = np.random.default_rng(0)

        # identity under degenerate smoothing: self-only kernel makes the
        # smoothed statistics equal the raw ones
        *_, stats = self.committed(rng, kernel=RunConfig(sms_sigma=1e-3, sms_include_self=True))
        s = rng.normal(size=(12, 5))
        labels = rng.integers(0, 5, size=12)
        out = calibrate_rows(s, labels, stats)
        identity_dev = float(np.max(np.abs(out - s)))

        # per-row affinity on 50 random cases
        affinity_dev = 0.0
        for case in range(50):
            crng = np.random.default_rng(1000 + case)
            k = int(crng.integers(2, 7))
            *_, cstats = self.committed(crng, k=k, m=30)
            row = crng.normal(scale=1.5, size=(1, k))
            c = int(crng.integers(0, k))
            alpha = float(crng.uniform(-1.5, 1.5))
            mu = np.asarray(cstats.mean[c])
            mu_s = np.asarray(cstats.smoothed_mean[c])
            lab = np.array([c])
            blended = calibrate_rows(
                alpha * row + (1 - alpha) * mu, lab, cstats
            )[0]
            direct = alpha * calibrate_rows(row, lab, cstats)[0]
            expect = direct + (1 - alpha) * mu_s
            affinity_dev = max(affinity_dev, float(np.max(np.abs(blended - expect))))

        # kernel symmetry and normalization: committing one-hot rows, one
        # per grade, makes each smoothed-mean row that grade's weights as
        # smoothing applies them, which must sum to 1
        kernel_dev = 0.0
        for sigma in (0.4, 1.0, 3.0):
            spec = RunConfig(sms_sigma=sigma, sms_include_self=True)
            for k in (2, 5, 7):
                w = np.stack([kernel_weights(spec, j, k) for j in range(k)])
                kernel_dev = max(kernel_dev, float(np.max(np.abs(w - w.T))))
                totals = commit_epoch(np.eye(k), np.arange(k), spec).smoothed_mean.sum(axis=1)
                kernel_dev = max(kernel_dev, float(np.max(np.abs(totals - 1.0))))

        # epoch freeze: overwriting the buffer the commit read, as the epoch
        # end does, and committing later epochs must not move the committed
        # stats, whose arrays are unwritable
        buffer, buffer_labels, frozen = self.committed(rng)
        first = calibrate_rows(s, labels, frozen)
        buffer[...] = calibrate_rows(buffer, buffer_labels, frozen)
        for later in (buffer, rng.normal(scale=2.0, size=buffer.shape)):
            commit_epoch(later, buffer_labels, RunConfig(sms_sigma=1.0, sms_include_self=False))
        second = calibrate_rows(s, labels, frozen)
        arrays = (frozen.count, frozen.mean, frozen.var, frozen.smoothed_mean, frozen.smoothed_var)
        freeze_ok = np.array_equal(first, second) and not any(a.flags.writeable for a in arrays)

        ok = identity_dev <= 1e-12 and affinity_dev <= 1e-9 and kernel_dev <= 1e-9 and freeze_ok
        report(
            "A5",
            ok,
            f"identity dev {identity_dev:.2e} (<=1e-12), affinity dev {affinity_dev:.2e} (<=1e-9), "
            f"kernel dev {kernel_dev:.2e} (<=1e-9), freeze bit-identical {freeze_ok}",
        )


class TestA6StatisticalNull:
    def test_a6(self):
        cfg = RunConfig(class_sep=0.01, noise_sigma=1.0)  # features carry ~no class signal
        dataset = generate_synthetic(DatasetSpec.from_config(cfg))
        feats, labels = dataset.subset("test")
        params = init_params(cfg.feature_dim, cfg.hidden_dim, cfg.embed_dim, cfg.classes, cfg.seed)
        stats = None  # never committed: raw scores
        rep = evaluate(params, stats, feats, labels, cfg)
        ok = 0.45 <= rep.macro_auc <= 0.55 and rep.rank_monotonicity <= 0.2
        report(
            "A6",
            ok,
            f"untrained macro_auc={rep.macro_auc:.4f} (in [0.45,0.55]), "
            f"rank_monotonicity={rep.rank_monotonicity:.4f} (<=0.2)",
        )


class TestA7Determinism:
    CONFIG = """
seed = 11
classes = 5
samples = 300
feature_dim = 6
class_sep = 1.0
noise_sigma = 0.3
embed_dim = 8
hidden_dim = 8
epochs = 3
batch_size = 64
"""

    def run_all(self, cfg_path, out):
        for argv in (
            ["generate", "--config", cfg_path, "--out", str(out)],
            ["train", "--config", cfg_path, "--out", str(out)],
            ["eval", "--config", cfg_path, "--out", str(out)],
            ["heatmap", "--config", cfg_path, "--out", str(out)],
        ):
            assert main(argv) == 0, f"A7: FAIL - command {argv[0]} errored"
        return {
            name: (out / name).read_bytes()
            for name in ("dataset.csv", "train_log.jsonl", "checkpoint.json", "metrics.json", "heatmap.csv")
        }

    def test_a7(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG)
        first = self.run_all(str(cfg_path), tmp_path / "a")
        second = self.run_all(str(cfg_path), tmp_path / "b")
        identical = [name for name in first if first[name] == second[name]]
        byte_ok = len(identical) == len(first)

        ds = load_csv(tmp_path / "a" / "dataset.csv")
        write_csv(ds, tmp_path / "rt.csv")
        rt = load_csv(tmp_path / "rt.csv")
        round_trip_ok = (
            np.array_equal(ds.features, rt.features)
            and np.array_equal(ds.labels, rt.labels)
            and np.array_equal(ds.split, rt.split)
        )
        capsys.readouterr()  # drop CLI chatter so the verdict line stands alone
        with capsys.disabled():
            report(
                "A7",
                byte_ok and round_trip_ok,
                f"byte-identical {len(identical)}/{len(first)} artifacts, "
                f"round trip lossless {round_trip_ok}",
            )

    def test_a7_round_trip_without_twin(self, tmp_path):
        """A7's round trip reads through the binary twin ``write_csv`` leaves
        beside each file; without the twins it is lossless through numpy's
        text parse too."""
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG)
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        generated = tmp_path / "a" / "dataset.csv"
        (tmp_path / "a" / f"dataset.csv{TWIN_SUFFIX}").unlink()
        ds = load_csv(generated)
        write_csv(ds, tmp_path / "rt.csv")
        (tmp_path / f"rt.csv{TWIN_SUFFIX}").unlink()
        rt = load_csv(tmp_path / "rt.csv")
        assert (tmp_path / "rt.csv").read_bytes() == generated.read_bytes()
        assert np.array_equal(ds.features, rt.features)
        assert np.array_equal(ds.labels, rt.labels)
        assert np.array_equal(ds.split, rt.split)
