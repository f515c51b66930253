"""Synthetic ordinal long-tailed datasets plus CSV round-tripping.

Class c is a Gaussian blob centered at (c * class_sep, 0, ..., 0) so the
label order is geometrically meaningful; per-class counts decay
geometrically with one knob (imbalance_ratio).  Everything is seeded and
byte-reproducible.  Generation, CSV formatting and the CSV's binary twin,
written and read, hold one block of BLOCK_ROWS rows beyond the dataset.
``load_csv`` reads the twin in place of the text when it holds the sha256 of
the CSV's bytes; one ``core._worker`` job hashes the CSV while the calling
thread reads the twin (see ``_load_twin``).  Only without a matching twin does
``_scan`` check the bytes, for the ``np.loadtxt`` parse that it gates.

CSV floats are the bytes of ``"%.17g" % v``.  ``_csv_lines`` lays out the
cells with 1e-4 <= |v| < 1e16, where that is fixed notation, in numpy: the
17 correctly rounded digits come from Dekker's exact product of |v| and a
power of ten.  Zeros, subnormals, non-finite values and the other
magnitudes go through ``%.17g`` itself, one cell at a time.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import re
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from .config import RunConfig
from .core import InputError, _worker, check_labels

SPLITS = ("train", "test")
TEST_FRACTION = 0.2
MIN_PER_CLASS = 2
BLOCK_ROWS = 1024
# write_csv formats at most this many float cells at once, within one block of rows.
FORMAT_CELLS = 8192
# write_csv leaves the parsed form of the file beside it, at the CSV's path plus this suffix.
TWIN_SUFFIX = ".rows"
# load_csv reads the CSV this many bytes at a time, to hash it (see _load_twin) or to scan it (see _scan).
CHUNK_BYTES = 1 << 18
_TWIN_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}

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
        missing = np.flatnonzero(np.bincount(labels[masks["train"]], minlength=self.classes) == 0).tolist()
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


# The fast cells of _csv_lines: 1e-4 <= |v| < 1e16, with decimal exponents -4 to 15.
_E_MIN = -4
_POW10 = np.array([10.0**k for k in range(23)])  # each one exact
_VELTKAMP = 2.0**27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a exactly, each with at most 26 significant bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)
# "0000" to "9999" as little-endian ASCII, in uint64 to shift.  Every word of text here is
# little-endian ("<u8"), so byte k of the text is bits 8k to 8k + 7 on any host.
_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype="<u4").astype(np.uint64)
_ASCII_ZEROS = np.uint64(np.frombuffer(b"00000000", dtype="<u8")[0])


def _words(text: bytes) -> np.ndarray:
    """``text`` (at most 24 bytes) as three little-endian uint64 words, NUL-padded."""
    return np.frombuffer(text.ljust(24, b"\0"), dtype="<u8").astype(np.uint64)


def _right_word(text: bytes) -> np.uint64:
    """``text`` (at most 8 bytes) right-aligned in one little-endian uint64 word."""
    return np.uint64(np.frombuffer(text.rjust(8, b"\0"), dtype="<u8")[0])


# A fast cell is 32 bytes of a line buffer: the text before the significand digits (comma,
# sign, "0." and leading zeros) right-aligned in bytes 0-7, then the 17 digits with the
# decimal point among them from byte 8.  One run of bytes, picked from _RUNS by its start
# and its length, is printed.  Per decimal exponent E: the bytes of the digits before the
# point (all 17 when E < 0, where the point is in the text before them) and the point.
_BEFORE_POINT = np.stack([_words(b"\xff" * (e + 1 if e >= 0 else 24)) for e in range(_E_MIN, 16)], axis=1)
_POINT = np.stack([_words(b"\0" * (e + 1) + b"." if e >= 0 else b"") for e in range(_E_MIN, 16)], axis=1)
# Per (E, sign): the text before the digits
_LEADS = [b"," + b"-" * neg + (b"0." + b"0" * (-e - 1) if e < 0 else b"") for e in range(_E_MIN, 16) for neg in (0, 1)]
_LEAD = np.array([_right_word(text) for text in _LEADS])
_LEAD_LEN = np.array([len(text) for text in _LEADS])
_COMMA = _right_word(b",")
# row 25 * lead length + digits' length: the printed bytes of a cell
_RUNS = (
    (np.arange(32) >= 8 - np.arange(8)[:, None, None]) & (np.arange(32) < 8 + np.arange(25)[:, None])
).view("V32").reshape(-1)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, l) with h + l == a * 10**(16 - e) exactly: Dekker's two-product."""
    p = 16 - e
    h = a * _POW10[p]
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    return h, a_lo * b_lo - (((h - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, D) for each a in [1e-4, 1e16): its decimal exponent and its 17 significant
    digits, D = round-half-even(a * 10**(16 - E)) in [10**16, 10**17), as "%.17g" rounds."""
    e = np.floor(np.log10(a)).astype(np.intp)
    h, l = _scaled(a, e)
    while True:
        # h + l against 10**16 and 10**17, exactly: near a power of ten log10 can be one off
        low = (h < 1e16) | ((h == 1e16) & (l < 0))
        high = (h > 1e17) | ((h == 1e17) & (l >= 0))
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        e[off] += np.where(high[off], 1, -1)
        h[off], l[off] = _scaled(a[off], e[off])
    # h >= 2**53 is an even integer, so rounding l rounds h + l half to even.  The sum never
    # rounds up to 10**17: below each power of ten in the range the nearest double is more
    # than 8 units of the 17th digit away.
    return e, h.astype(np.int64) + np.rint(l).astype(np.int64)


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The numbers 0 <= v < 10**8 as eight zero-padded ASCII digits, one little-endian uint64 each."""
    high = v // 10**4
    return _QUADS[high] | (_QUADS[v - high * 10**4] << np.uint64(32))


def _digits_to_last_nonzero(words: np.ndarray) -> np.ndarray:
    """How many of each word's eight ASCII digits run up to its last nonzero one (0 for all zeros)."""
    # each byte of words ^ "00000000" is a digit's value, at most 9, so the bit length is exact
    return (np.frexp((words ^ _ASCII_ZEROS).astype(np.float64))[1] + 7) >> 3


def _csv_lines(prefixes: list[str], values: np.ndarray) -> np.ndarray:
    """One uint8 array of the lines ``prefix,v0,...\\n``, a prefix per row of ``values``,
    each float cell ``"%.17g" % v``: the bytes ``write_csv`` and ``heatmap`` write."""
    rows, width = values.shape
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    e, d = _significands(np.where(fast, a, 1.0))
    tens = d // 10
    first = d // 10**9
    middle = tens - first * 10**8
    last = d - tens * 10
    digits = np.empty((3, d.size), dtype=np.uint64)  # d's 17 ASCII digits in bytes 0-16
    digits[0], digits[1], digits[2] = _ascii8(first), _ascii8(middle), last + ord("0")
    kept = np.where(
        last > 0, 17, np.where(middle > 0, 8 + _digits_to_last_nonzero(digits[1]), _digits_to_last_nonzero(digits[0]))
    )
    kept = np.maximum(kept, e + 1)  # trailing zeros go, integer digits stay
    row = e - _E_MIN
    before = np.take(_BEFORE_POINT, row, axis=1)
    after = digits & ~before
    after[1:] = (after[1:] << np.uint64(8)) | (after[:-1] >> np.uint64(56))  # one byte up, for the point
    after[0] <<= np.uint64(8)
    lead = 2 * row + np.signbit(x)
    run = np.take(_LEAD_LEN, lead) * 25 + kept + ((e >= 0) & (kept > e + 1))

    text = np.array(prefixes, dtype=bytes)
    prefix_width = -(-text.itemsize // 8) * 8
    line = np.empty((rows, prefix_width // 8 + 4 * width + 1), dtype=np.uint64).view(np.uint8)
    shown = np.zeros(line.shape, dtype=bool)
    line[:, : text.itemsize] = text.view(np.uint8).reshape(rows, -1)
    shown[:, :prefix_width] = np.arange(prefix_width) < np.char.str_len(text)[:, None]
    cells = line[:, prefix_width:-8].view("<u8").reshape(rows, width, 4)
    cells[..., 0] = np.take(_LEAD, lead).reshape(rows, width)
    cells[..., 1:] = ((digits & before) | np.take(_POINT, row, axis=1) | after).T.reshape(rows, width, 3)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cell = np.divmod(slow, width)
        texts = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype="S24")
        cells[cell + (0,)] = _COMMA
        cells[cell + (slice(1, None),)] = texts.view("<u8").reshape(-1, 3)
        run[slow] = 25 + np.char.str_len(texts)
    shown[:, prefix_width:-8].view("V32")[...] = np.take(_RUNS, run).reshape(rows, width)
    line[:, -8] = ord("\n")
    shown[:, -8] = True
    return line[shown]


def write_csv(dataset: Dataset, path) -> None:
    """Schema: id,label,split,f0..f{F-1}; floats at 17 significant digits, LF.

    Also writes the binary twin ``<path>.rows`` that ``load_csv`` reads in
    place of parsing the text: the sha256 of the CSV bytes written, then the
    rows as the bytes of one ``np.save`` record array (see ``_write_twin``).
    """
    width = dataset.feature_dim
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(data) -> None:
            digest.update(data)
            fh.write(data)

        put((",".join(["id", "label", "split"] + [f"f{i}" for i in range(width)]) + "\n").encode("utf-8"))
        # At most a block of rows and FORMAT_CELLS cells at a time: the whole file's text would triple the peak memory.
        step = max(1, min(BLOCK_ROWS, FORMAT_CELLS // max(width, 1)))
        for start in range(0, dataset.n, step):
            part = slice(start, start + step)
            rows = zip(dataset.ids[part].tolist(), dataset.labels[part].tolist(), dataset.split[part].tolist())
            put(_csv_lines(["%d,%d,%s" % row for row in rows], dataset.features[part]))
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
    finiteness and ``Dataset`` checks, the rows come from the twin (see
    ``_load_twin``).  Otherwise numpy's C reader parses the body in one call,
    once ``_scan`` has found no byte that it reads more loosely than Python.
    Only a file that fails the scan or the parse, or whose rows fail the split,
    label or finiteness check, is read again row by row, to name its first bad line.
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
        dataset = _load_twin(path, len(header) - 3, expected_classes)
        if dataset is not None:
            return dataset
        rows = None
        if _scan(path):
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
        return _dataset(
            np.ascontiguousarray(rows["f"]), rows["label"], rows["id"].copy(), rows["split"] == "test", expected_classes
        )
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _dataset(features, labels, ids, test: np.ndarray, expected_classes: int | None) -> Dataset:
    return Dataset(
        features=features,
        labels=labels,
        split=np.array(SPLITS, dtype=object)[test.astype(np.intp)],
        ids=ids,
        classes=expected_classes if expected_classes is not None else int(labels.max()) + 1,
    )


def _load_twin(path, width: int, expected_classes: int | None) -> Dataset | None:
    """The Dataset of the twin ``write_csv`` left beside ``path``, or None.

    The twin's stored sha256 and np.save header are read first: unless the header
    is that of a plain array (nothing is unpickled) of at least one record of the
    type for ``width`` features, and the file holds every record, nothing is hashed.
    Else the calling thread reads the records ``BLOCK_ROWS`` at a time into the
    Dataset's arrays, so the record array of every row never exists, and then hashes
    the CSV, unless one ``core._worker`` job hashes it meanwhile (a file of more
    than one ``CHUNK_BYTES`` chunk).  The rows are used only when they pass the
    checks parsing makes and the CSV's sha256 equals the stored one."""
    dtype = _twin_dtype(width)
    with ExitStack() as files:
        try:
            twin = files.enter_context(open(os.fspath(path) + TWIN_SUFFIX, "rb"))
            digest = twin.read(32)
            shape, fortran_order, stored = _TWIN_HEADERS[np.lib.format.read_magic(twin)](twin)
        except (OSError, ValueError, KeyError):
            return None
        n = shape[0] if len(shape) == 1 else 0
        if stored != dtype or fortran_order or n == 0 or os.fstat(twin.fileno()).st_size - twin.tell() < n * dtype.itemsize:
            return None
        fh = files.enter_context(open(path, "rb"))
        buffer = bytearray(CHUNK_BYTES)  # allocated on the calling thread, like every helper's output
        worker = files.enter_context(_worker(os.fstat(fh.fileno()).st_size > CHUNK_BYTES))
        hashing = None if worker is None else worker.submit(_sha256, fh, buffer)
        try:  # MemoryError: more records than fit
            block = np.empty(min(n, BLOCK_ROWS), dtype=dtype)
            features, labels, ids, test = np.empty((n, width)), np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, bool)
            for start in range(0, n, BLOCK_ROWS):
                rows = block[: min(BLOCK_ROWS, n - start)]
                if twin.readinto(rows.view(np.uint8)) != rows.nbytes:
                    return None
                part = slice(start, start + len(rows))
                features[part], labels[part], ids[part], test[part] = rows["f"], rows["label"], rows["id"], rows["test"]
                if not _values_pass(labels[part], features[part], expected_classes):
                    return None
            dataset = _dataset(features, labels, ids, test, expected_classes)
        except (OSError, MemoryError, InputError):
            return None
        return dataset if (_sha256(fh, buffer) if hashing is None else hashing.result()) == digest else None


def _sha256(fh, buffer: bytearray) -> bytes:
    """The sha256 of the rest of ``fh``, read into ``buffer`` a chunk at a time."""
    digest, view = hashlib.sha256(), memoryview(buffer)
    while size := fh.readinto(buffer):
        digest.update(view[:size])
    return digest.digest()


def _scan(path) -> bool:
    """Whether the file holds no byte that numpy's reader reads more loosely than the
    row-by-row checks: a non-ASCII byte (numpy's integer reader takes "1\\u01fe" for a
    number) or one of _NUMPY_LOOSE_BYTES.  It gates ``np.loadtxt``."""
    with open(path, "rb") as fh:
        return all(
            chunk.isascii() and not any(byte in chunk for byte in _NUMPY_LOOSE_BYTES)
            for chunk in iter(lambda: fh.read(CHUNK_BYTES), b"")
        )


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
