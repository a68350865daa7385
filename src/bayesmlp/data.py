"""Datasets: noisy XOR generation, CSV ingestion and feature standardization.

Label conventions used throughout the package:

* binary classification: labels in {0, 1},
* multiclass classification with K classes: labels in {1, ..., K}.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .schema import from_section, json_file

#: Corner traversal order of the exact XOR truth table.
XOR_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class LabeledDataset:
    """Feature matrix with integer labels and a train/test role."""

    features: np.ndarray
    labels: np.ndarray
    role: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but "
                f"{self.labels.shape[0]} labels"
            )
        if self.role not in ("train", "test"):
            raise ValueError(f"role must be 'train' or 'test', got {self.role!r}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.role)


@dataclass(frozen=True)
class NoisyXorConfig:
    """Generator settings for the noisy XOR task.

    Each exact XOR corner is perturbed along the diagonal by a fresh
    uniform draw u, giving inputs (u +/- c, u +/- c).
    """

    c: float = 0.55
    train_per_corner: int = 125
    test_per_corner: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.c < 1.0:
            raise ValueError(f"c must lie in (0.5, 1), got {self.c}")
        if self.train_per_corner < 1 or self.test_per_corner < 1:
            raise ValueError("per-corner counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature mean and standard deviation of a z-scoring transform."""

    mean: tuple[float, ...]
    std: tuple[float, ...]

    def apply(self, dataset: LabeledDataset) -> LabeledDataset:
        mean = np.asarray(self.mean)
        std = np.asarray(self.std)
        if dataset.num_features != mean.shape[0]:
            raise ValueError("standardization stats do not match feature count")
        return LabeledDataset((dataset.features - mean) / std, dataset.labels, dataset.role)


def exact_xor(a: int, b: int) -> int:
    """XOR truth table: 1 iff exactly one input bit is 1."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("exact_xor expects bits in {0, 1}")
    return a ^ b


def _noisy_corner_point(rng: np.random.Generator, corner, c: float) -> tuple[float, float]:
    # inverse of the corner map: bit 1 -> u + c, bit 0 -> u - c
    u = rng.uniform()
    a, b = corner
    return (u + c if a else u - c, u + c if b else u - c)


def generate_noisy_xor(config: NoisyXorConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Simulate (train, test) noisy XOR datasets.

    Points are generated corner by corner in truth-table order, the
    training set first, from a single RNG stream seeded by the config.
    Defaults give 500 training and 120 test points.
    """
    rng = np.random.default_rng(config.seed)

    def draw(count: int, role: str) -> LabeledDataset:
        xs, ys = [], []
        for corner in XOR_CORNERS:
            label = exact_xor(*corner)
            for _ in range(count):
                xs.append(_noisy_corner_point(rng, corner, config.c))
                ys.append(label)
        return LabeledDataset(np.array(xs), np.array(ys), role)

    return draw(config.train_per_corner, "train"), draw(config.test_per_corner, "test")


def standardize(dataset: LabeledDataset) -> tuple[LabeledDataset, StandardizationStats]:
    """Z-score every feature column; returns the transformed data and stats.

    Raises on zero-variance columns, which cannot be standardized.
    """
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    # exact: a constant column's computed std need not be 0
    bad = np.flatnonzero(np.ptp(dataset.features, axis=0) == 0.0)
    if bad.size:
        raise ValueError(f"zero-variance feature column(s): {bad.tolist()}")
    stats = StandardizationStats(tuple(mean.tolist()), tuple(std.tolist()))
    return stats.apply(dataset), stats


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

#: Cell values treated as missing in dataset CSV files.
MISSING_VALUES = ("", "NA")


def _encode_cell(value: str, encoding: dict, column: str, line: int) -> float:
    kind = encoding.get("kind", "numeric")
    if kind == "numeric":
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"line {line}: cannot parse {value!r} in column {column!r} as a number") from None
    if kind == "categorical":
        levels = encoding["levels"]
        if value not in levels:
            raise ValueError(f"line {line}: unknown level {value!r} for column {column!r}; "
                             f"expected one of {levels}")
        return float(levels.index(value))
    raise ValueError(f"unknown encoding kind {kind!r} for column {column!r}")


def load_csv_dataset(path, feature_columns, label_column: str, label_mapping: dict, role: str = "train",
                     encodings: dict | None = None) -> LabeledDataset:
    """Load a headered CSV file into a LabeledDataset.

    Rows with a missing value (empty cell or "NA") in any used column are
    dropped. Categorical features are integer-coded according to
    ``encodings`` (a column -> {"kind": "categorical", "levels": [...]}
    mapping, "numeric" by default). Label values are translated through
    ``label_mapping``.
    """
    encodings = encodings or {}
    path = Path(path)
    rows, labels = [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing_cols = [c for c in (*feature_columns, label_column) if c not in header]
        if missing_cols:
            raise ValueError(f"{path}: columns not found: {missing_cols}")
        for line, row in enumerate(reader, start=2):
            cells = [row[c] for c in feature_columns] + [row[label_column]]
            if any(c is None or c.strip() in MISSING_VALUES for c in cells):
                continue
            label_raw = row[label_column].strip()
            if label_raw not in label_mapping:
                raise ValueError(f"line {line}: unknown label value {label_raw!r}; "
                                 f"expected one of {sorted(label_mapping)}")
            rows.append([_encode_cell(row[c].strip(), encodings.get(c, {}), c, line) for c in feature_columns])
            labels.append(label_mapping[label_raw])
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    return LabeledDataset(np.array(rows), np.array(labels), role)


def write_dataset_csv(dataset: LabeledDataset, path, feature_names, label_name="label"):
    """Write a dataset as a headered CSV with full float precision."""
    if len(feature_names) != dataset.num_features:
        raise ValueError("feature_names length does not match feature count")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*feature_names, label_name])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([*(f"{v:.17g}" for v in x), int(y)])


# ---------------------------------------------------------------------------
# Vendored datasets
# ---------------------------------------------------------------------------

VENDORED_DATASETS = ("penguins", "hawks")


@dataclass(frozen=True)
class Manifest:
    """A dataset's encoding manifest. A field it leaves out is None, and a
    dataset section's value stands in for it; ``dataset``, ``standardized``,
    ``generator`` and ``provenance`` are its audit trail."""

    feature_columns: tuple[str, ...] | None = None
    label_column: str | None = None
    label_mapping: dict | None = None
    encodings: dict | None = None
    dataset: str | None = None
    standardized: bool = False
    generator: dict | None = None
    provenance: dict | None = None


def read_manifest(path) -> Manifest:
    """The manifest in the file at path, built under the JSON type rule."""
    return from_section(Manifest, "manifest", json_file("manifest", path))


def vendored_manifest(name: str) -> Manifest:
    """The encoding manifest of a vendored dataset."""
    if name not in VENDORED_DATASETS:
        raise ValueError(f"unknown vendored dataset {name!r}; have {VENDORED_DATASETS}")
    with resources.as_file(resources.files("bayesmlp.datasets") / f"{name}_manifest.json") as path:
        return read_manifest(path)


def load_pair(train, test, manifest: Manifest) -> tuple[LabeledDataset, LabeledDataset]:
    """The (train, test) datasets in the CSV files train and test, read as manifest says."""
    train, test = (
        load_csv_dataset(path, manifest.feature_columns, manifest.label_column, manifest.label_mapping,
                         role=role, encodings=manifest.encodings)
        for path, role in ((train, "train"), (test, "test"))
    )
    return train, test


def load_vendored(name: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Load a vendored (train, test) dataset pair by name."""
    manifest = vendored_manifest(name)
    pkg = resources.files("bayesmlp.datasets")
    with (resources.as_file(pkg / f"{name}_train.csv") as train,
          resources.as_file(pkg / f"{name}_test.csv") as test):
        return load_pair(train, test, manifest)
