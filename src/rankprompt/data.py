"""Synthetic ordinal long-tailed datasets plus CSV round-tripping.

Class c is a Gaussian blob centered at (c * class_sep, 0, ..., 0) so the
label order is geometrically meaningful; per-class counts decay
geometrically with one knob (imbalance_ratio).  Everything is seeded and
byte-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import InputError, LabelVector

SPLITS = ("train", "test")
TEST_FRACTION = 0.2
MIN_PER_CLASS = 2


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
        if self.classes < 2:
            raise InputError(f"classes must be >= 2, got {self.classes}")
        if self.samples < self.classes:
            raise InputError(f"samples must be >= classes, got {self.samples}")
        if self.feature_dim < 1:
            raise InputError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not self.class_sep > 0:
            raise InputError(f"class_sep must be positive, got {self.class_sep}")
        if self.noise_sigma < 0:
            raise InputError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.imbalance_ratio < 1:
            raise InputError(f"imbalance_ratio must be >= 1, got {self.imbalance_ratio}")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: LabelVector
    split: np.ndarray
    ids: np.ndarray
    classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] != len(self.labels):
            raise InputError("features and labels disagree on sample count")
        if self.split.shape != (len(self.labels),) or self.ids.shape != (len(self.labels),):
            raise InputError("split and ids must be one entry per sample")
        self.labels.validate_for(self.classes)
        bad = set(np.unique(self.split)) - set(SPLITS)
        if bad:
            raise InputError(f"unknown split tags {sorted(bad)}")
        object.__setattr__(self, "_masks", {name: self.split == name for name in SPLITS})
        train_classes = set(self.labels.labels[self._masks["train"]].tolist())
        missing = [c for c in range(self.classes) if c not in train_classes]
        if missing:
            raise InputError(f"classes {missing} have no train samples")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, split: str) -> tuple[np.ndarray, LabelVector]:
        if split not in SPLITS:
            raise InputError(f"split must be one of {SPLITS}, got {split!r}")
        mask = self._masks[split]  # built once: comparing the object-dtype tags costs 0.1 ms a call
        return self.features[mask], LabelVector(self.labels.labels[mask])


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
    """Seeded draw of the blob mixture with a stratified 80/20 split."""
    counts = class_counts(spec)
    rng = np.random.default_rng(spec.seed)
    feats, labels, split = [], [], []
    for c, n_c in enumerate(counts):
        center = np.zeros(spec.feature_dim)
        center[0] = c * spec.class_sep
        feats.append(center + rng.normal(0.0, spec.noise_sigma, size=(n_c, spec.feature_dim)))
        labels.extend([c] * n_c)
        n_test = int(np.floor(TEST_FRACTION * n_c))
        tags = np.array(["train"] * n_c, dtype=object)
        tags[rng.permutation(n_c)[:n_test]] = "test"
        split.extend(tags.tolist())
    return Dataset(
        features=np.vstack(feats),
        labels=LabelVector(np.array(labels, dtype=np.int64)),
        split=np.array(split, dtype=object),
        ids=np.arange(len(labels), dtype=np.int64),
        classes=spec.classes,
    )


def write_csv(dataset: Dataset, path) -> None:
    """Schema: id,label,split,f0..f{F-1}; floats at 17 significant digits, LF."""
    header = ["id", "label", "split"] + [f"f{i}" for i in range(dataset.feature_dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [int(dataset.ids[i]), int(dataset.labels.labels[i]), dataset.split[i]]
            row += [f"{v:.17g}" for v in dataset.features[i]]
            writer.writerow(row)


def load_csv(path, expected_classes: int | None = None) -> Dataset:
    """Parse and validate a dataset file; errors carry the offending line number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: line 1: empty file") from None
        if header[:3] != ["id", "label", "split"] or any(
            name != f"f{i}" for i, name in enumerate(header[3:])
        ) or len(header) < 4:
            raise ParseError(f"{path}: line 1: header must be id,label,split,f0,... got {header}")
        width = len(header) - 3
        ids, labels, split, feats, linenos = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                ids.append(int(row[0]))
                labels.append(int(row[1]))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer id or label") from None
            if row[2] not in SPLITS:
                raise ParseError(f"{path}: line {lineno}: split must be train or test, got {row[2]!r}")
            split.append(row[2])
            try:
                feats.append([float(v) for v in row[3:]])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric feature cell") from None
            linenos.append(lineno)
            if labels[-1] < 0 or (expected_classes is not None and labels[-1] >= expected_classes):
                raise ParseError(f"{path}: line {lineno}: label {labels[-1]} out of range")
    if not labels:
        raise ParseError(f"{path}: line 2: no data rows")
    features = np.array(feats, dtype=np.float64).reshape(len(labels), width)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: line {linenos[bad[0]]}: non-finite feature cell")
    classes = expected_classes if expected_classes is not None else max(labels) + 1
    try:
        return Dataset(
            features=features,
            labels=LabelVector(np.array(labels, dtype=np.int64)),
            split=np.array(split, dtype=object),
            ids=np.array(ids, dtype=np.int64),
            classes=classes,
        )
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def batch_iter(dataset: Dataset, split: str, batch_size: int, seed: int, epoch: int):
    """Yield (features, plain label array) batches of the split, shuffled per (seed, epoch)."""
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    feats, labels = dataset.subset(split)
    n = feats.shape[0]
    if n == 0:
        return
    order = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield feats[idx], labels.labels[idx]
