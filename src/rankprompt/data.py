"""Synthetic ordinal long-tailed datasets plus CSV round-tripping.

Class c is a Gaussian blob centered at (c * class_sep, 0, ..., 0) so the
label order is geometrically meaningful; per-class counts decay
geometrically with one knob (imbalance_ratio).  Everything is seeded and
byte-reproducible.  Generation, CSV formatting and the CSV's binary twin
hold one block of BLOCK_ROWS rows beyond the dataset.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from .config import RunConfig
from .core import InputError, check_labels

SPLITS = ("train", "test")
TEST_FRACTION = 0.2
MIN_PER_CLASS = 2
BLOCK_ROWS = 1024
# write_csv leaves the parsed form of the file beside it, at the CSV's path plus this suffix.
TWIN_SUFFIX = ".rows"

# Bytes numpy's reader reads more loosely than Python: its number reader strips the
# separators 0x1c-0x1f as whitespace where float() rejects them, and its fixed-width
# split field drops trailing NULs, so "train\x00" would read as "train".
_NUMPY_LOOSE_BYTES = b"\x00\x1c\x1d\x1e\x1f"
# Characters that int() and float() read and numpy's reader does not, or the reverse.
_OUTSIDE_NUMPY_GRAMMAR = re.compile("[_\x1c-\x1f\x80-\U0010ffff]")
# Bytes that are not UTF-8, as the "surrogateescape" error handler decodes them.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_INT64 = np.iinfo(np.int64)
# One character wider than the longest tag, so a truncated bad tag never reads as a good one.
_TAG_DTYPE = f"U{max(map(len, SPLITS)) + 1}"


class ParseError(InputError):
    """A data file violated the expected schema; message names the line."""


@dataclass(frozen=True)
class DatasetSpec:
    samples: int
    classes: int = 5
    feature_dim: int = 16
    class_sep: float = 1.0
    noise_sigma: float = 0.2
    imbalance_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # the dataset keys obey RunConfig's rules: finite floats, int64 sizes, a seed >= 0
        RunConfig(**{f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_config(cls, cfg: RunConfig) -> DatasetSpec:
        """The dataset of ``cfg``: its keys of the same names, the seed among them."""
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray  # int64 class indices in [0, classes), a read-only copy of the one passed in
    split: np.ndarray
    ids: np.ndarray
    classes: int

    def __post_init__(self):
        check_labels(self.labels, self.classes)
        labels = self.labels.astype(np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if self.features.ndim != 2 or self.features.shape[0] != len(labels):
            raise InputError("features and labels disagree on sample count")
        if self.split.shape != (len(labels),) or self.ids.shape != (len(labels),):
            raise InputError("split and ids must be one entry per sample")
        masks = {name: self.split == name for name in SPLITS}
        unknown = ~(masks["train"] | masks["test"])
        if unknown.any():
            raise InputError(f"unknown split tags {sorted(set(self.split[unknown].tolist()))}")
        object.__setattr__(self, "_masks", masks)
        train_classes = set(labels[masks["train"]].tolist())
        missing = [c for c in range(self.classes) if c not in train_classes]
        if missing:
            raise InputError(f"classes {missing} have no train samples")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def _mask(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise InputError(f"split must be one of {SPLITS}, got {split!r}")
        return self._masks[split]  # built once: comparing the object-dtype tags costs 0.1 ms a call

    def rows(self, split: str) -> np.ndarray:
        """Indices of the split's rows, in file order."""
        return np.flatnonzero(self._mask(split))

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the split's features and labels, in file order."""
        mask = self._mask(split)
        return self.features[mask], self.labels[mask]


def class_counts(spec: DatasetSpec) -> list[int]:
    """Geometric per-class counts, largest-remainder rounded to sum N, each >= 2."""
    k, n = spec.classes, spec.samples
    if n < MIN_PER_CLASS * k:
        raise InputError(f"need at least {MIN_PER_CLASS * k} samples for {k} classes, got {n}")
    weights = spec.imbalance_ratio ** (-np.arange(k) / (k - 1))
    target = n * weights / weights.sum()
    counts = np.floor(target).astype(int)
    remainder = target - counts
    # hand leftover samples to the largest fractional parts, ties to low class
    for j in np.lexsort((np.arange(k), -remainder))[: n - counts.sum()]:
        counts[j] += 1
    # enforce the floor by pulling from the currently largest class
    while (counts < MIN_PER_CLASS).any():
        counts[int(np.argmin(counts))] += 1
        counts[int(np.argmax(counts))] -= 1
    return counts.tolist()


def generate_synthetic(spec: DatasetSpec) -> Dataset:
    """Seeded draw of the blob mixture with a stratified 80/20 split.  Each grade's
    noise is drawn into the one features array a block of rows at a time."""
    counts = class_counts(spec)
    rng = np.random.default_rng(spec.seed)
    features = np.empty((spec.samples, spec.feature_dim))
    split = np.array(["train"] * spec.samples, dtype=object)
    start = 0
    for c, n_c in enumerate(counts):
        center = np.zeros(spec.feature_dim)
        center[0] = c * spec.class_sep
        for lo in range(start, start + n_c, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, start + n_c)
            np.add(center, rng.normal(0.0, spec.noise_sigma, size=(hi - lo, spec.feature_dim)), out=features[lo:hi])
            if not np.isfinite(features[lo:hi]).all():
                raise InputError(
                    f"generated features overflow float64 (class_sep = {spec.class_sep}, noise_sigma = {spec.noise_sigma})"
                )
        n_test = int(np.floor(TEST_FRACTION * n_c))
        split[start + rng.permutation(n_c)[:n_test]] = "test"
        start += n_c
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(spec.classes, dtype=np.int64), counts),
        split=split,
        ids=np.arange(spec.samples, dtype=np.int64),
        classes=spec.classes,
    )


def write_csv(dataset: Dataset, path) -> None:
    """Schema: id,label,split,f0..f{F-1}; floats at 17 significant digits, LF.

    Also writes the binary twin ``<path>.rows`` that ``load_csv`` reads in
    place of parsing the text: the sha256 of the CSV bytes written, then the
    rows as the bytes of one ``np.save`` record array (see ``_write_twin``).
    """
    width = dataset.feature_dim
    template = ",".join(["%d", "%d", "%s"] + ["%.17g"] * width) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(",".join(["id", "label", "split"] + [f"f{i}" for i in range(width)]) + "\n")
        # One block of rows at a time: the whole file's row strings would triple the peak memory.
        for start in range(0, dataset.n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            rows = zip(
                dataset.ids[block].tolist(),
                dataset.labels[block].tolist(),
                dataset.split[block].tolist(),
                dataset.features[block].tolist(),
            )
            put("".join([template % (i, label, tag, *feats) for i, label, tag, feats in rows]))
    _write_twin(dataset, path, digest.digest())


def _twin_dtype(width: int) -> np.dtype:
    return np.dtype([("id", np.int64), ("label", np.int64), ("test", np.bool_), ("f", np.float64, (width,))])


def _write_twin(dataset: Dataset, path, digest: bytes) -> None:
    """Write ``digest`` and the dataset's rows to ``<path>.rows`` through a
    temporary name: the bytes ``np.save`` writes for the record array of every
    row, a header and then ``BLOCK_ROWS`` records at a time, so that array never
    exists.  Ids or features of a dtype that int64 or float64 cannot hold exactly
    get no twin: only the CSV then says what they read as."""
    if not (np.can_cast(dataset.ids.dtype, np.int64) and np.can_cast(dataset.features.dtype, np.float64)):
        return
    dtype = _twin_dtype(dataset.feature_dim)
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (dataset.n,)}
    block = np.empty(min(dataset.n, BLOCK_ROWS), dtype=dtype)
    twin = os.fspath(path) + TWIN_SUFFIX
    tmp = f"{twin}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(digest)
            np.lib.format.write_array_header_1_0(fh, header)  # np.save's header for this dtype
            for start in range(0, dataset.n, BLOCK_ROWS):
                part = slice(start, min(start + BLOCK_ROWS, dataset.n))
                rows = block[: part.stop - start]
                rows["id"], rows["label"], rows["f"] = dataset.ids[part], dataset.labels[part], dataset.features[part]
                rows["test"] = dataset.split[part] == "test"
                fh.write(rows.view(np.uint8))
        os.replace(tmp, twin)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_csv(path, expected_classes: int | None = None) -> Dataset:
    """Parse and validate a dataset file; errors carry the offending line number.

    When the twin ``write_csv`` left beside the file holds the sha256 of the
    file's bytes, and its rows have the header's width and pass the label,
    finiteness and ``Dataset`` checks, the rows come from the twin.  Otherwise
    numpy's C reader parses the body in one call.  Only a file it rejects,
    or whose rows fail the split, label or finiteness check, is read again
    row by row, to name its first bad line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        _, header = next(_csv_rows(path, fh), (1, None))
        if header is None:
            raise ParseError(f"{path}: line 1: empty file")
        if header[:3] != ["id", "label", "split"] or any(
            name != f"f{i}" for i, name in enumerate(header[3:])
        ) or len(header) < 4:
            raise ParseError(f"{path}: line 1: header must be id,label,split,f0,... got {header}")
        # np.loadtxt only warns on a body without data, so find a non-blank line first.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            raise ParseError(f"{path}: line 2: no data rows")
        rows = None
        digest = _strict_digest(path)
        if digest is not None:
            dataset = _twin_dataset(path, digest, len(header) - 3, expected_classes)
            if dataset is not None:
                return dataset
            try:
                with warnings.catch_warnings():
                    # numpy versions that read an integer cell such as "1.5" through
                    # float only warn before truncating it; as an error it is a ValueError.
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(
                        itertools.chain([first], fh),
                        dtype=[
                            ("id", np.int64),
                            ("label", np.int64),
                            ("split", _TAG_DTYPE),
                            ("f", np.float64, (len(header) - 3,)),
                        ],
                        delimiter=",",
                        comments=None,
                        quotechar='"',
                        ndmin=1,
                    )
            except ValueError:
                pass
    if rows is None or not _rows_pass(rows, expected_classes):
        _raise_first_error(path, expected_classes)
    try:
        return _dataset(rows, rows["split"] == "test", expected_classes)
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _dataset(rows: np.ndarray, test: np.ndarray, expected_classes: int | None) -> Dataset:
    return Dataset(
        features=np.ascontiguousarray(rows["f"]),
        labels=rows["label"],
        split=np.array(SPLITS, dtype=object)[test.astype(np.intp)],
        ids=rows["id"].copy(),
        classes=expected_classes if expected_classes is not None else int(rows["label"].max()) + 1,
    )


def _strict_digest(path) -> bytes | None:
    """The sha256 of the file's bytes, or None when the file holds a byte that
    numpy's reader reads more loosely than the row-by-row checks: a non-ASCII
    byte (numpy's integer reader takes "1\\u01fe" for a number) or one of
    _NUMPY_LOOSE_BYTES."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if not chunk.isascii() or any(byte in chunk for byte in _NUMPY_LOOSE_BYTES):
                return None
            digest.update(chunk)
    return digest.digest()


def _twin_dataset(path, digest: bytes, width: int, expected_classes: int | None) -> Dataset | None:
    """The Dataset of the twin ``write_csv`` left beside ``path``, or None
    when there is none, it was written for other bytes or another width, it
    is not a plain array (nothing is unpickled), or its rows fail a check
    that parsing the file would fail too."""
    try:
        with open(os.fspath(path) + TWIN_SUFFIX, "rb") as fh:
            if fh.read(len(digest)) != digest:
                return None
            rows = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, MemoryError):  # MemoryError: a header that claims more rows than fit
        return None
    if rows.dtype != _twin_dtype(width) or rows.ndim != 1 or rows.size == 0:
        return None
    if not _values_pass(rows["label"], rows["f"], expected_classes):
        return None
    try:
        return _dataset(rows, rows["test"], expected_classes)
    except InputError:
        return None


def _rows_pass(rows: np.ndarray, expected_classes: int | None) -> bool:
    tags = rows["split"]
    valid_tags = bool(((tags == "train") | (tags == "test")).all())
    return valid_tags and _values_pass(rows["label"], rows["f"], expected_classes)


def _values_pass(labels: np.ndarray, features: np.ndarray, expected_classes: int | None) -> bool:
    return bool(
        labels.min() >= 0
        and (expected_classes is None or labels.max() < expected_classes)
        and np.isfinite(features).all()
    )


def _csv_rows(path, fh):
    """Yield (line number, cells) for each row of ``fh``, counted from 1; a
    row that is not UTF-8 or that csv rejects (a field over its size limit)
    raises ParseError at its line."""
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if any(_NOT_UTF8.search(cell) for cell in row):
                raise ParseError(f"{path}: line {lineno}: not UTF-8 text")
            yield lineno, row
    except csv.Error as exc:
        raise ParseError(f"{path}: line {lineno + 1}: {exc}") from None


def _number(cell: str, kind):
    """kind(cell) for kind int or float, in the grammar numpy's reader shares
    with Python: no underscore ("1_0"), no non-ASCII digit, no separator."""
    if _OUTSIDE_NUMPY_GRAMMAR.search(cell):
        raise ValueError(cell)
    return kind(cell)


def _raise_first_error(path, expected_classes: int | None) -> NoReturn:
    """Walk the rows with csv and raise a ParseError naming the first bad line.

    The per-row checks run in file order; a non-finite cell is reported only
    when no row has any other fault.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        rows = _csv_rows(path, fh)
        width = len(next(rows)[1])
        nonfinite = None
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} cells, got {len(row)}")
            try:
                ident, label = _number(row[0], int), _number(row[1], int)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer id or label") from None
            if row[2] not in SPLITS:
                raise ParseError(f"{path}: line {lineno}: split must be train or test, got {row[2]!r}")
            try:
                feats = [_number(v, float) for v in row[3:]]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric feature cell") from None
            if label < 0 or (expected_classes is not None and label >= expected_classes):
                raise ParseError(f"{path}: line {lineno}: label {label} out of range")
            if not (_INT64.min <= ident <= _INT64.max and label <= _INT64.max):
                raise ParseError(f"{path}: line {lineno}: id or label outside the int64 range")
            if nonfinite is None and not all(map(math.isfinite, feats)):
                nonfinite = lineno
    if nonfinite is not None:
        raise ParseError(f"{path}: line {nonfinite}: non-finite feature cell")
    raise ParseError(f"{path}: numpy's reader rejected a row that the row-by-row checks accept")


def batch_iter(dataset: Dataset, split: str, batch_size: int, seed: int, epoch: int):
    """Yield (features, plain label array) batches of the split, shuffled per (seed, epoch): the
    batches of permuting a ``subset`` copy, gathered through the split's row indices without the copy."""
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    rows = dataset.rows(split)
    rows = rows[np.random.default_rng([seed, epoch]).permutation(len(rows))]
    for start in range(0, len(rows), batch_size):
        idx = rows[start : start + batch_size]
        yield dataset.features[idx], dataset.labels[idx]
