"""Synthetic generation, CSV round trips, batch iteration."""

import numpy as np
import pytest

from rankprompt.core import InputError
from rankprompt.data import (
    Dataset,
    DatasetSpec,
    ParseError,
    batch_iter,
    class_counts,
    generate_synthetic,
    load_csv,
    write_csv,
)


def spec(**kw):
    base = dict(samples=200, classes=5, feature_dim=4, class_sep=1.0, noise_sigma=0.3, seed=0)
    base.update(kw)
    return DatasetSpec(**base)


class TestClassCounts:
    def test_balanced(self):
        assert class_counts(spec(samples=1000, imbalance_ratio=1.0)) == [200] * 5

    def test_geometric_exact(self):
        got = class_counts(spec(samples=620, imbalance_ratio=16.0))
        assert got == [320, 160, 80, 40, 20]

    def test_sum_and_monotone(self):
        for rho in (1.0, 3.0, 20.0, 100.0):
            counts = class_counts(spec(samples=777, imbalance_ratio=rho))
            assert sum(counts) == 777
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_floor_of_two(self):
        counts = class_counts(spec(samples=11, imbalance_ratio=1e6))
        assert sum(counts) == 11
        assert min(counts) >= 2

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            class_counts(spec(samples=9))


class TestGenerateSynthetic:
    def test_zero_noise_hits_centers(self):
        ds = generate_synthetic(spec(noise_sigma=0.0, samples=50))
        for c in range(5):
            rows = ds.features[ds.labels.labels == c]
            np.testing.assert_array_equal(rows[:, 0], c * 1.0)
            np.testing.assert_array_equal(rows[:, 1:], 0.0)

    def test_every_class_in_train(self):
        ds = generate_synthetic(spec(samples=50, imbalance_ratio=20.0))
        for c in range(5):
            assert np.any(ds.labels.labels[ds.split == "train"] == c)

    def test_split_fractions(self):
        ds = generate_synthetic(spec(samples=1000))
        for c in range(5):
            mask = ds.labels.labels == c
            n_c = int(mask.sum())
            n_test = int((ds.split[mask] == "test").sum())
            assert n_test == int(np.floor(0.2 * n_c))

    def test_seeded_repeatability(self):
        a = generate_synthetic(spec(seed=5))
        b = generate_synthetic(spec(seed=5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.split, b.split)

    def test_counts_match_plan(self):
        s = spec(samples=620, imbalance_ratio=16.0)
        ds = generate_synthetic(s)
        got = np.bincount(ds.labels.labels, minlength=5).tolist()
        assert got == class_counts(s)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        ds = generate_synthetic(spec(samples=60, noise_sigma=1.3, seed=9))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        loaded = load_csv(path, expected_classes=5)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels.labels, loaded.labels.labels)
        assert np.array_equal(ds.split, loaded.split)
        assert np.array_equal(ds.ids, loaded.ids)

    def test_byte_format(self, tmp_path):
        ds = generate_synthetic(spec(samples=20, feature_dim=2))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "id,label,split,f0,f1"

    def test_write_is_deterministic(self, tmp_path):
        ds = generate_synthetic(spec(samples=30))
        write_csv(ds, tmp_path / "a.csv")
        write_csv(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestLoadCsvValidation:
    def header(self):
        return "id,label,split,f0,f1\n"

    def test_minimal_valid_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,train,1.5,2.5\n1,1,train,0.5,0.25\n2,0,test,0,1\n")
        ds = load_csv(p)
        assert ds.n == 3 and ds.feature_dim == 2 and ds.classes == 2

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(p)

    def test_label_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,train,1,2\n1,2,train,3,4\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p, expected_classes=2)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,train,1,two\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + f"0,0,train,1,2\n1,1,train,3,{cell}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p)

    def test_bad_split_tag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,dev,1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(p)

    def test_missing_cells(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,train,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(p)

    def test_class_missing_from_train(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + "0,0,train,1,2\n1,1,test,3,4\n")
        with pytest.raises(ParseError):
            load_csv(p, expected_classes=2)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(p)


class TestBatchIter:
    def make(self):
        return generate_synthetic(spec(samples=100, seed=3))

    def test_single_batch_when_large(self):
        ds = self.make()
        batches = list(batch_iter(ds, "train", 10_000, seed=0, epoch=0))
        assert len(batches) == 1
        assert batches[0][0].shape[0] == int((ds.split == "train").sum())

    def test_deterministic_for_seed_epoch(self):
        ds = self.make()
        a = [lab.tolist() for _, lab in batch_iter(ds, "train", 7, seed=5, epoch=2)]
        b = [lab.tolist() for _, lab in batch_iter(ds, "train", 7, seed=5, epoch=2)]
        assert a == b

    def test_epochs_reshuffle(self):
        ds = self.make()
        a = [lab.tolist() for _, lab in batch_iter(ds, "train", 7, seed=5, epoch=0)]
        b = [lab.tolist() for _, lab in batch_iter(ds, "train", 7, seed=5, epoch=1)]
        assert a != b

    def test_batches_partition_split(self):
        ds = self.make()
        feats, labels = ds.subset("train")
        seen = []
        for bf, bl in batch_iter(ds, "train", 13, seed=1, epoch=4):
            assert bf.shape[0] == bl.shape[0] <= 13
            seen.extend(bf[:, 0].tolist())
        assert sorted(seen) == sorted(feats[:, 0].tolist())

    def test_rejects_bad_batch_size(self):
        with pytest.raises(InputError):
            list(batch_iter(self.make(), "train", 0, seed=0, epoch=0))


class TestDatasetInvariants:
    def test_rejects_missing_train_class(self):
        from rankprompt.core import LabelVector

        with pytest.raises(InputError):
            Dataset(
                features=np.zeros((2, 2)),
                labels=LabelVector([0, 1]),
                split=np.array(["train", "test"], dtype=object),
                ids=np.arange(2),
                classes=2,
            )

    def test_rejects_unknown_split(self):
        from rankprompt.core import LabelVector

        with pytest.raises(InputError):
            Dataset(
                features=np.zeros((1, 2)),
                labels=LabelVector([0]),
                split=np.array(["dev"], dtype=object),
                ids=np.arange(1),
                classes=1,
            )
