"""Synthetic generation, CSV round trips, batch iteration."""

import hashlib
import pathlib
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import batch_iter_subset, csv_text, generate_synthetic_concat, load_csv_rows, traced_peak
from rankprompt.core import InputError
from rankprompt.data import (
    BLOCK_ROWS,
    FORMAT_CELLS,
    SPLITS,
    TWIN_SUFFIX,
    Dataset,
    DatasetSpec,
    ParseError,
    _csv_lines,
    _twin_dtype,
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


class TestDatasetSpec:
    @pytest.mark.parametrize("key", ["imbalance_ratio", "noise_sigma"])
    def test_rejects_nan(self, key):
        """A NaN is rejected where the spec is built, by RunConfig's rule: generating
        from an ``imbalance_ratio`` of NaN would never return."""
        with pytest.raises(InputError, match=rf"^config: {key} must be finite, got nan$"):
            spec(**{key: float("nan")})


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
            rows = ds.features[ds.labels == c]
            np.testing.assert_array_equal(rows[:, 0], c * 1.0)
            np.testing.assert_array_equal(rows[:, 1:], 0.0)

    def test_every_class_in_train(self):
        ds = generate_synthetic(spec(samples=50, imbalance_ratio=20.0))
        for c in range(5):
            assert np.any(ds.labels[ds.split == "train"] == c)

    def test_split_fractions(self):
        ds = generate_synthetic(spec(samples=1000))
        for c in range(5):
            mask = ds.labels == c
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
        got = np.bincount(ds.labels, minlength=5).tolist()
        assert got == class_counts(s)


@st.composite
def dataset_specs(draw):
    classes = draw(st.integers(2, 8))
    return DatasetSpec(
        samples=draw(st.integers(2 * classes, 3 * BLOCK_ROWS)),
        classes=classes,
        feature_dim=draw(st.integers(1, 6)),
        class_sep=draw(st.floats(0.01, 10.0)),
        noise_sigma=draw(st.sampled_from([0.0, 0.2, 1.3])),
        imbalance_ratio=draw(st.floats(1.0, 50.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBlockedGeneration:
    """``generate_synthetic`` draws each grade into the one features array
    BLOCK_ROWS rows at a time; the generator that drew whole grades and joined
    them is the oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(s=dataset_specs())
    # grades of 3,000 and 750 rows: one spans three blocks, one fits in one
    @example(s=DatasetSpec(samples=3750, classes=2, feature_dim=3, noise_sigma=0.5, imbalance_ratio=4.0, seed=3))
    # two grades of exactly one block each
    @example(s=DatasetSpec(samples=2 * BLOCK_ROWS, classes=2, feature_dim=2, seed=1))
    @example(s=DatasetSpec(samples=3750, classes=2, feature_dim=1, noise_sigma=0.5, imbalance_ratio=4.0))
    @example(s=DatasetSpec(samples=3750, classes=3, feature_dim=4, noise_sigma=0.0, imbalance_ratio=4.0))
    def test_equals_concatenating_generator(self, s):
        got, want = generate_synthetic(s), generate_synthetic_concat(s)
        assert got.features.dtype == want.features.dtype
        assert got.features.tobytes() == want.features.tobytes()  # also tells -0.0 from 0.0
        assert got.labels.dtype == np.int64 and np.array_equal(got.labels, want.labels)
        assert got.split.dtype == object and got.split.tolist() == want.split.tolist()
        assert got.ids.dtype == want.ids.dtype and np.array_equal(got.ids, want.ids)

    @pytest.mark.parametrize("change", [{"class_sep": 1e308}, {"noise_sigma": 1e308}])
    def test_overflow_message_unchanged(self, change):
        s = spec(**change)
        with pytest.raises(InputError) as want:
            generate_synthetic_concat(s)
        with pytest.raises(InputError, match=f"^{re.escape(str(want.value))}$"):
            generate_synthetic(s)


class TestMemoryBounds:
    def test_generation_peak_is_the_features_array_and_a_block(self):
        """The ``train_large`` benchmark's dataset: the features array, one
        block of noise and the per-row label, split and id arrays."""
        s = DatasetSpec(samples=40_000, classes=8, feature_dim=64, class_sep=0.75, noise_sigma=0.5, imbalance_ratio=20.0)
        assert traced_peak(lambda: generate_synthetic(s)) < 1.25 * 40_000 * 64 * 8

    def test_write_peak_is_the_twin_and_a_block(self, tmp_path):
        """The CSV text and the twin both go out a block of rows at a time: the
        peak is one block of formatted rows (4.8 MiB at 20,000 x 64), not the
        record array of every row that the twin's bytes spell (10.1 MiB)."""
        ds = generate_synthetic(DatasetSpec(samples=20_000, classes=5, feature_dim=64, imbalance_ratio=5.0))
        twin_bytes = ds.n * _twin_dtype(ds.feature_dim).itemsize
        assert twin_bytes > 10 * 2**20
        assert traced_peak(lambda: write_csv(ds, tmp_path / "d.csv")) < 6 * 2**20


    def test_twin_load_peak_is_the_features_array_and_a_block(self, tmp_path):
        """Read from the twin, ``load_csv`` fills the Dataset's arrays a block of
        records at a time: the peak is the features array (9.8 MiB at 20,000 x
        64), a block and the per-row arrays, not the record array of every row
        beside a copy of its features (20.6 MiB)."""
        ds = generate_synthetic(DatasetSpec(samples=20_000, classes=5, feature_dim=64, imbalance_ratio=5.0))
        write_csv(ds, tmp_path / "d.csv")
        with mock.patch.object(np, "loadtxt") as parse:
            peak = traced_peak(lambda: load_csv(tmp_path / "d.csv", expected_classes=5))
        assert parse.call_count == 0
        assert peak < 1.25 * ds.features.nbytes


def text_of(values) -> bytes:
    """``_csv_lines`` of one row of ``values`` with an empty prefix."""
    return _csv_lines([""], np.array([values], dtype=np.float64)).tobytes()


def python_text(values) -> bytes:
    return b"".join(b",%.17g" % v for v in values) + b"\n"


class TestCsvText:
    """The float cells of ``_csv_lines`` are the bytes of Python's ``%.17g``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, values):
        assert text_of(values) == python_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        assert text_of(values) == python_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True), min_size=1, max_size=40))
    def test_fixed_notation_range(self, values):
        assert text_of(values) == python_text(values)

    def test_neighbours_of_powers_of_ten(self):
        """A few doubles on each side of +-10**k, where log10 can put the
        exponent one off; literals with more than 17 nines, which read as a
        power of ten; half-way cases near 1e15."""
        values = [0.99999999999999999, 9999999999999999.0, 1e15 + 0.25, 1e15 + 0.75, 2.0**53 + 2]
        for k in range(-6, 18):
            for power in (float(f"1e{k}"), -float(f"1e{k}")):
                values.append(power)
                below = above = power
                for _ in range(4):
                    below, above = float(np.nextafter(below, -np.inf)), float(np.nextafter(above, np.inf))
                    values += [below, above]
        assert text_of(values) == python_text(values)

    def test_prefixes_and_rows(self):
        values = np.array([[0.5, -2.0], [np.inf, 1e-5], [3.25, 0.0]])
        assert _csv_lines(["a", "", "bc,d"], values).tobytes() == b"a,0.5,-2\n,inf,1.0000000000000001e-05\nbc,d,3.25,0\n"


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        ds = generate_synthetic(spec(samples=60, noise_sigma=1.3, seed=9))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        loaded = load_csv(path, expected_classes=5)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels, loaded.labels)
        assert np.array_equal(ds.split, loaded.split)
        assert np.array_equal(ds.ids, loaded.ids)

    def test_byte_format(self, tmp_path):
        ds = generate_synthetic(spec(samples=20, feature_dim=2))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "id,label,split,f0,f1"

    def test_golden_text(self, tmp_path):
        """The exact bytes of a file whose floats cover the awkward cases of
        17-digit formatting: a rounded decimal, negative zero, the smallest
        subnormal, a large power of ten and a negative exponent."""
        row = [0.1, -0.0, 5e-324, 1e22, -1.2345678901234567e-05]
        ds = Dataset(
            features=np.array([row, [-v for v in row]]),
            labels=np.array([0, 0]),
            split=np.array(["train", "test"], dtype=object),
            ids=np.array([10, 11]),
            classes=1,
        )
        write_csv(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == (
            b"id,label,split,f0,f1,f2,f3,f4\n"
            b"10,0,train,0.10000000000000001,-0,4.9406564584124654e-324,1e+22,-1.2345678901234568e-05\n"
            b"11,0,test,-0.10000000000000001,0,-4.9406564584124654e-324,-1e+22,1.2345678901234568e-05\n"
        )

    @pytest.mark.parametrize("feature_dim", [1, 2, 16, 64])
    def test_generated_file_is_the_reference_text(self, tmp_path, feature_dim):
        ds = generate_synthetic(spec(samples=300, feature_dim=feature_dim, noise_sigma=0.7, seed=5))
        write_csv(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == csv_text(ds)

    def test_chunk_edge_inside_a_block(self, tmp_path):
        """BLOCK_ROWS + 1 rows of 16 features: a chunk ends inside the first
        block, and the last row is a block of its own."""
        assert BLOCK_ROWS % (FORMAT_CELLS // 16) == 0 and FORMAT_CELLS // 16 < BLOCK_ROWS
        ds = generate_synthetic(spec(samples=BLOCK_ROWS + 1, feature_dim=16, seed=6))
        write_csv(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == csv_text(ds)

    @pytest.mark.parametrize("noise_sigma", [1e-6, 1e3])
    def test_tiny_and_large_noise(self, tmp_path, noise_sigma):
        """At noise_sigma 1e-6 most cells are below 1e-4, in exponent form."""
        ds = generate_synthetic(spec(samples=300, feature_dim=8, noise_sigma=noise_sigma, seed=8))
        write_csv(ds, tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_bytes()
        assert text == csv_text(ds)
        assert (b"e-0" in text) == (noise_sigma < 1)

    @pytest.mark.parametrize(
        "features",
        [
            np.random.default_rng(3).normal(0.0, 30.0, (40, 3)).astype(np.float32),
            np.array([[0, -1, 2**53 + 1], [2**62 + 1, -(2**63), 12345]] * 20, dtype=np.int64),
        ],
        ids=["float32", "int64"],
    )
    def test_features_of_other_dtypes(self, tmp_path, features):
        """Cells of other dtypes read as float64 first, as ``%.17g`` reads them."""
        n = len(features)
        ds = Dataset(features, np.arange(n) // 2 % 2, np.array(["train", "test"] * (n // 2), dtype=object), np.arange(n), 2)
        write_csv(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == csv_text(ds)

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

    # Python's default filter ignores DeprecationWarning outside __main__, as when the CLI runs.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("row", ["1,1.5,train,3,4", "1.0,1,train,3,4", "1,2e0,train,3,4", "1,nan,train,3,4"])
    def test_non_integer_id_or_label_names_line(self, tmp_path, row):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + f"0,0,train,1,2\n{row}\n")
        with pytest.raises(ParseError, match="line 3: non-integer id or label"):
            load_csv(p)

    @pytest.mark.parametrize(
        "text, line",
        [(b"id,label,split,f\xff0,f1\n0,0,train,1,2\n", 1), (b"id,label,split,f0,f1\n0,0,train,1,2\n1,1,train,3,\xff\n", 3)],
        ids=["header", "row"],
    )
    def test_non_utf8_byte_names_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_bytes(text)
        with pytest.raises(ParseError, match=f"line {line}: not UTF-8 text$"):
            load_csv(p)

    @pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
    def test_field_over_csv_limit_names_line(self, tmp_path, line):
        """A quoted cell of 200,000 digits is longer than csv's field size limit."""
        big = '"' + "1" * 200_000 + '"'
        header = f"id,label,split,f0,{big}\n" if line == 1 else self.header()
        row = f"1,1,train,3,{big}\n" if line == 3 else "1,1,train,3,4\n"
        p = tmp_path / "d.csv"
        p.write_text(header + "0,0,train,1,2\n" + row)
        with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
            load_csv(p)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_header_only_file(self, tmp_path, body):
        p = tmp_path / "d.csv"
        p.write_text(self.header() + body)
        with pytest.raises(ParseError, match="line 2: no data rows"):
            load_csv(p)


def outcome(loader, path, expected_classes):
    """(dataset, None) when the loader accepts the file, (None, message) when it raises ParseError."""
    try:
        return loader(path, expected_classes), None
    except ParseError as exc:
        return None, str(exc)


def named_line(message):
    found = re.search(r": line (\d+): ", message)
    return int(found.group(1)) if found else None


def assert_same_dataset(a, b):
    assert a.classes == b.classes
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.split.tolist() == b.split.tolist()
    assert np.array_equal(a.ids, b.ids)


# Characters the Python converters of the reference read and load_csv rejects
# in a numeric cell, or numpy's reader would read and the reference rejects.
TIGHTENED = re.compile("[_\x1c-\x1f\x80-\U0010ffff]")
EDITS = list(',"\n\r \t0123456789.-+eE_#xnaift') + ["\x00", "\x1c", "\xa0", "\u0661", "\u01fe", "nan", "-inf", "1e999"]


@st.composite
def csv_texts(draw):
    """A valid three-grade file, optionally quoted, with random line endings,
    then up to three short edits anywhere in it."""
    width = draw(st.integers(1, 3))
    lines = [",".join(["id", "label", "split"] + [f"f{i}" for i in range(width)])]
    for i in range(draw(st.integers(3, 6))):
        label = i if i < 3 else draw(st.integers(0, 2))
        tag = "train" if i < 3 else draw(st.sampled_from(["train", "test"]))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width))
        cells = [str(i), str(label), tag] + [repr(v) for v in values]
        if draw(st.booleans()):
            cells = [f'"{c}"' for c in cells]
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        edit = draw(st.sampled_from(EDITS))
        text = text[:pos] + (edit if op != "delete" else "") + text[pos + (op != "insert") :]
    return text


class TestLoadCsvGrammar:
    """load_csv against the row-by-row reference in tests/oracles.py."""

    HEADER = "id,label,split,f0,f1\n"

    def compare(self, tmp_path, text, expected_classes=None):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        return outcome(load_csv, p, expected_classes), outcome(load_csv_rows, p, expected_classes)

    @pytest.mark.parametrize(
        "body",
        [
            '"0","0","train","1.5","2"\n"1",1,train,"-3e-2",4\n',
            "0,0,train,1.5,2\r\n1,1,train,-3e-2,4\r\n",
            "0,0,train,1.5,2\n\n1,1,train,-3e-2,4\n",
            "0,0,train,1.5,2\n1,1,train,-3e-2,4",
            " 0 ,0,train, 1.5 ,2\n1 , 1,train,\t-3e-2, 4\n",
        ],
        ids=["quoted", "crlf", "blank-line", "no-trailing-newline", "spaces"],
    )
    def test_accepted_like_reference(self, tmp_path, body):
        (got, _), (want, _) = self.compare(tmp_path, self.HEADER + body)
        assert want is not None and got is not None
        assert_same_dataset(got, want)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0,0,train,1,2\n#1,1,train,3,4\n", 3),
            ("0,0,train,1,2\n\n1,1,train,x,4\n", 4),
            ("0,0,train,1,2\n1,1,dev,3,4\n1,1,train,x,4\n", 3),
            ("0,0,train,1,2\n1,1,train,3\n1,1,dev,3,4\n", 3),
            ('0,0,train,1,2\n1,1,"train\n",3,4\n1,1,train,3,x\n', 3),
            ("0,0,train,1,2\n1,1,train,3,4\x1c\n", 3),
            ("0,0,train,nan,2\n1,1,dev,3,4\n", 3),
            ("0,0,train,1,2\n1,1,train\x00,3,4\n", 3),
            ("0,0,test\x00\x00,1,2\n1,1,train,3,4\n0,0,train,1,2\n", 2),
        ],
        ids=[
            "hash-row",
            "after-blank-line",
            "split-before-cell",
            "width-before-split",
            "quoted-newline",
            "separator",
            "non-finite-checked-last",
            "nul-after-tag",
            "nuls-after-test-tag",
        ],
    )
    def test_rejected_at_reference_line(self, tmp_path, body, line):
        (_, got), (_, want) = self.compare(tmp_path, self.HEADER + body)
        assert got == want
        assert named_line(got) == line

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "1\xa0"])
    def test_tightened_cell_names_line(self, tmp_path, cell):
        """The reference reads these with float(); load_csv names their line."""
        (got, message), (want, _) = self.compare(tmp_path, self.HEADER + f"0,0,train,1,2\n1,1,train,3,{cell}\n")
        assert want is not None and got is None
        assert named_line(message) == 3

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), expected_classes=st.sampled_from([None, 3]))
    def test_fuzzed_text_matches_reference(self, tmp_path_factory, text, expected_classes):
        """load_csv returns a Dataset or raises ParseError, nothing else.  On
        text without a tightened character it agrees with the reference in
        full: the same arrays, or the same message.  With one, it names a
        line, no later than the reference's first bad row; a non-finite
        cell is the exception, as both report it only after every other
        row check has passed."""
        tmp_path = tmp_path_factory.mktemp("fuzz")
        (got, message), (want, reason) = self.compare(tmp_path, text, expected_classes)
        if got is not None:
            assert want is not None
            assert_same_dataset(got, want)
        elif not TIGHTENED.search(text):
            assert message == reason
        else:
            assert named_line(message) is not None or message == reason
            if want is None and named_line(reason) is not None and not reason.endswith("non-finite feature cell"):
                assert named_line(message) <= named_line(reason)


# Floats whose 17-digit text is awkward: signed zero, subnormals, the ends of the normal range.
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def twin_datasets(draw):
    """(dataset, expected_classes): every grade below k has a train row, so
    ``load_csv`` accepts the file with expected_classes None or k."""
    k = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), max_size=8))
    split = ["train"] * k + draw(st.lists(st.sampled_from(SPLITS), min_size=len(labels) - k, max_size=len(labels) - k))
    cell = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    n = len(labels)
    features = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    return plain_dataset(features, labels, split, ids, k), draw(st.sampled_from([None, k]))


def plain_dataset(features, labels, split, ids, k):
    return Dataset(
        features=np.array(features, dtype=np.float64),
        labels=np.array(labels),
        split=np.array(split, dtype=object),
        ids=np.array(ids, dtype=np.int64),
        classes=k,
    )


# Every awkward float in one dataset, so each run covers them all.
AWKWARD_DATASET = plain_dataset(
    [AWKWARD_FLOATS, AWKWARD_FLOATS[::-1]], [0, 1], ["train", "train"], [-(2**63), 2**63 - 1], 2
)


def load_counting_parses(path, expected_classes=None):
    """(outcome of load_csv, number of np.loadtxt calls it made): 0 calls
    means the rows came from the twin."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parse:
        result = outcome(load_csv, path, expected_classes)
    return result, parse.call_count


def assert_bit_identical(a, b):
    assert a.features.tobytes() == b.features.tobytes()
    assert a.ids.tobytes() == b.ids.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.split.tolist() == b.split.tolist()
    assert a.classes == b.classes


class Unpickled:
    """Creates a file named by ``sentinel`` if anything unpickles it."""

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def __reduce__(self):
        return pathlib.Path.touch, (pathlib.Path(self.sentinel),)


class TestCsvTwin:
    """``write_csv``'s binary twin: ``load_csv`` reads it only when it matches
    the CSV bytes, and then returns what parsing the text returns."""

    def write(self, tmp_path, dataset=None):
        path = tmp_path / "d.csv"
        write_csv(dataset if dataset is not None else generate_synthetic(spec(samples=40, seed=4)), path)
        return path, pathlib.Path(f"{path}{TWIN_SUFFIX}")

    def parsed(self, path, twin, expected_classes=None):
        """What load_csv gives with the twin moved aside: the text parse."""
        aside = twin.with_name(twin.name + ".aside")
        twin.rename(aside)
        try:
            result, parses = load_counting_parses(path, expected_classes)
        finally:
            aside.rename(twin)
        assert parses == 1
        return result

    def put_twin(self, twin, csv_path, array, allow_pickle=False):
        with open(twin, "wb") as fh:
            fh.write(hashlib.sha256(csv_path.read_bytes()).digest())
            np.save(fh, array, allow_pickle=allow_pickle)

    @settings(max_examples=150, deadline=None)
    @given(drawn=twin_datasets())
    @example(drawn=(AWKWARD_DATASET, None))
    def test_twin_load_equals_parse_and_reference(self, tmp_path_factory, drawn):
        dataset, expected_classes = drawn
        path, twin = self.write(tmp_path_factory.mktemp("twin"), dataset)
        (via_twin, error), parses = load_counting_parses(path, expected_classes)
        assert error is None and parses == 0
        assert_bit_identical(via_twin, dataset)
        twin.unlink()
        (parsed, error), parses = load_counting_parses(path, expected_classes)
        assert error is None and parses == 1
        assert_bit_identical(via_twin, parsed)
        assert_bit_identical(via_twin, load_csv_rows(path, expected_classes))

    def test_written_through_a_temporary_name(self, tmp_path):
        path, twin = self.write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, twin.name]
        assert twin.read_bytes()[:32] == hashlib.sha256(path.read_bytes()).digest()

    @pytest.mark.parametrize("samples", [40, BLOCK_ROWS, 2 * BLOCK_ROWS + 37])
    def test_bytes_are_np_save_of_every_row(self, tmp_path, samples):
        """Written a block at a time, the twin is the digest and then the bytes
        ``np.save`` writes for the record array of every row."""
        dataset = generate_synthetic(spec(samples=samples, seed=4))
        path, twin = self.write(tmp_path, dataset)
        rows = np.empty(dataset.n, dtype=_twin_dtype(dataset.feature_dim))
        rows["id"], rows["label"], rows["f"] = dataset.ids, dataset.labels, dataset.features
        rows["test"] = dataset.split == "test"
        saved = tmp_path / "rows.npy"
        np.save(saved, rows, allow_pickle=False)
        assert twin.read_bytes() == hashlib.sha256(path.read_bytes()).digest() + saved.read_bytes()

    def test_changed_csv_byte_takes_the_parse_path(self, tmp_path):
        path, twin = self.write(tmp_path)
        text = path.read_bytes()
        cut = text.index(b"\n", text.index(b"\n") + 1) - 1  # the last digit of the first row
        path.write_bytes(text[:cut] + (b"1" if text[cut : cut + 1] != b"1" else b"2") + text[cut + 1 :])
        got, parses = load_counting_parses(path)
        assert parses == 1
        assert_bit_identical(got[0], self.parsed(path, twin)[0])

    def test_truncated_twin_takes_the_parse_path(self, tmp_path):
        path, twin = self.write(tmp_path)
        twin.write_bytes(twin.read_bytes()[:-1])
        got, parses = load_counting_parses(path, 5)
        assert parses == 1
        assert_bit_identical(got[0], self.parsed(path, twin, 5)[0])

    def test_twin_of_another_width_takes_the_parse_path(self, tmp_path):
        path, twin = self.write(tmp_path)
        wider = generate_synthetic(spec(samples=40, seed=4, feature_dim=5))
        rows = np.empty(wider.n, dtype=[("id", "<i8"), ("label", "<i8"), ("test", "?"), ("f", "<f8", (5,))])
        rows["id"], rows["label"], rows["f"] = wider.ids, wider.labels, wider.features
        rows["test"] = wider.split == "test"
        self.put_twin(twin, path, rows)
        got, parses = load_counting_parses(path, 5)
        assert parses == 1
        assert_bit_identical(got[0], self.parsed(path, twin, 5)[0])

    def test_pickled_twin_is_not_unpickled(self, tmp_path):
        path, twin = self.write(tmp_path)
        sentinel = tmp_path / "unpickled"
        self.put_twin(twin, path, np.array([Unpickled(sentinel)], dtype=object), allow_pickle=True)
        pickle.loads(pickle.dumps(Unpickled(tmp_path / "probe")))  # the payload works when unpickled
        assert (tmp_path / "probe").exists()
        got, parses = load_counting_parses(path, 5)
        assert parses == 1 and not sentinel.exists()
        assert_bit_identical(got[0], self.parsed(path, twin, 5)[0])

    def test_matching_twin_with_label_out_of_range_raises_like_the_parse(self, tmp_path):
        path, twin = self.write(tmp_path)
        (_, error), parses = load_counting_parses(path, 4)
        assert parses == 1
        assert error == self.parsed(path, twin, 4)[1]
        assert re.search(r": line \d+: label 4 out of range$", error)

    def test_matching_twin_with_non_finite_feature_raises_like_the_parse(self, tmp_path):
        dataset = generate_synthetic(spec(samples=40, seed=4))
        features = dataset.features.copy()
        features[7, 2] = np.inf
        path, twin = self.write(tmp_path, Dataset(features, dataset.labels, dataset.split, dataset.ids, 5))
        assert twin.exists()
        (_, error), parses = load_counting_parses(path, 5)
        assert parses == 1
        assert error == self.parsed(path, twin, 5)[1]
        assert error.endswith("line 9: non-finite feature cell")

    def test_ids_int64_cannot_hold_get_no_twin(self, tmp_path):
        dataset = generate_synthetic(spec(samples=40, seed=4))
        dataset = Dataset(dataset.features, dataset.labels, dataset.split, dataset.ids.astype(np.uint64) + 2**63, 5)
        path, twin = self.write(tmp_path, dataset)
        assert not twin.exists()
        (_, error), _ = load_counting_parses(path, 5)
        assert error.endswith("line 2: id or label outside the int64 range")


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

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_matches_the_subset_oracle(self, batch_size):
        """Gathering through the split's row indices yields the batches of
        permuting a ``subset`` copy: same rows, order, dtypes and layout."""
        for ds in (self.make(), generate_synthetic(spec(samples=300, imbalance_ratio=8.0, seed=11))):
            for split in SPLITS:
                for seed, epoch in ((0, 0), (5, 2), (3, 9)):
                    got = list(batch_iter(ds, split, batch_size, seed, epoch))
                    want = list(batch_iter_subset(ds, split, batch_size, seed, epoch))
                    assert len(got) == len(want)
                    for (gf, gl), (wf, wl) in zip(got, want):
                        assert gf.dtype == wf.dtype and gl.dtype == wl.dtype
                        assert gf.flags.c_contiguous and gl.flags.writeable == wl.flags.writeable
                        assert np.array_equal(gf, wf) and np.array_equal(gl, wl)

    def test_rejects_unknown_split(self):
        with pytest.raises(InputError, match=r"^split must be one of \('train', 'test'\), got 'dev'$"):
            next(batch_iter(self.make(), "dev", 4, seed=0, epoch=0))


class TestDatasetInvariants:
    def test_rejects_missing_train_class(self):
        with pytest.raises(InputError):
            Dataset(
                features=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                split=np.array(["train", "test"], dtype=object),
                ids=np.arange(2),
                classes=2,
            )

    def test_rejects_unknown_split(self):
        with pytest.raises(InputError, match=r"^unknown split tags \['dev', 'val'\]$"):
            Dataset(
                features=np.zeros((4, 2)),
                labels=np.array([0, 0, 0, 0]),
                split=np.array(["val", "train", "dev", "val"], dtype=object),
                ids=np.arange(4),
                classes=1,
            )
