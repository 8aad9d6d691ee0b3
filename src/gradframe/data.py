"""Dataset model, synthetic data generation, CSV ingestion, and partitioning."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, GradframeError, NumericError, ShapeError
from .rng import derive_seed


@dataclass(frozen=True, eq=False)
class Domain:
    """One domain's points: an (n, d) feature matrix ``x`` and an (n,) 0/1 label vector ``y``.

    Both are float64 copies of the arguments, validated once and stored read-only;
    a -0.0 label is stored as 0.0, so it is written as ``0``.
    """

    id: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64) + 0.0
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ShapeError(
                f"domain {self.id!r} needs an (n, d) feature matrix and n labels, "
                f"got shapes {x.shape} and {y.shape}"
            )
        if x.shape[0] == 0:
            raise DataError(f"domain {self.id!r} is empty")
        if not np.isfinite(x).all():
            raise DataError(f"domain {self.id!r} has a non-finite feature value")
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError(f"domain {self.id!r} has a label other than 0 or 1")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def label_vector(self) -> np.ndarray:  # perfbench/workloads.py's train check reads it
        return self.y


@dataclass(frozen=True)
class Standardization:
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True, eq=False)
class DomainSet:
    """Domains with distinct ids and one feature width; equal only to itself, hashed by identity."""

    domains: tuple[Domain, ...]
    standardization: Standardization | None = None
    feature_names: tuple[str, ...] | None = None  # the CSV columns, set by load_csv_dataset, kept by standardize

    def __post_init__(self):
        doms = tuple(self.domains)
        if not doms:
            raise DataError("domain set is empty")
        ids = [d.id for d in doms]
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate domain ids: {ids}")
        dim = doms[0].feature_dim
        if any(d.feature_dim != dim for d in doms):
            raise ShapeError("domains disagree on feature dimension")
        object.__setattr__(self, "domains", doms)

    @property
    def k(self) -> int:
        return len(self.domains)

    @property
    def feature_dim(self) -> int:
        return self.domains[0].feature_dim

    def domain(self, domain_id: str) -> Domain:
        for d in self.domains:
            if d.id == domain_id:
                return d
        raise DataError(f"no domain with id {domain_id!r}")

    def pooled(self) -> Domain:
        """All points of all domains concatenated in domain order."""
        return Domain(
            "pooled",
            np.concatenate([d.x for d in self.domains]),
            np.concatenate([d.y for d in self.domains]),
        )


@dataclass(frozen=True)
class Boundary:
    """Linear labeling rule: label 0 iff x2 <= a*x1 + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise DataError("boundary coefficients must be finite")


def label_by_boundary(x: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Label of each 2-vector row of ``x``: 0.0 on or under the line, 1.0 above it."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (2,):
        raise ShapeError(f"boundary labeling needs 2-vectors, got shape {x.shape}")
    return np.where(x[..., 1] <= boundary.a * x[..., 0] + boundary.b, 0.0, 1.0)


def generate_gaussian_domain(domain_id: str, blobs, count: int, boundary: Boundary, seed: int) -> Domain:
    """Sample ``count`` points of each isotropic 2-D blob, a ``(mean, variance)`` pair,
    in order, and label every point by the boundary."""
    if not blobs or count < 1:
        raise ConfigError(f"need at least one blob and a positive sample count, got {count}")
    rng = np.random.default_rng(int(seed))
    parts = []
    for mean, var in blobs:
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (2,):
            raise ShapeError(f"blob mean must be a 2-vector, got shape {mean.shape}")
        if not (math.isfinite(var) and var >= 0):
            raise DataError(f"blob variance must be finite and >= 0, got {var}")
        parts.append(mean + math.sqrt(var) * rng.standard_normal((count, 2)))
    x = np.vstack(parts)
    return Domain(domain_id, x, label_by_boundary(x, boundary))


# Canonical simulation setup: two source domains of two blobs each on a
# diagonal boundary, and a shifted target with a rotated boundary.
SIM_SOURCE_BOUNDARY = Boundary(a=-1.0, b=0.0)
SIM_TARGET_BOUNDARY = Boundary(a=-2.0, b=0.0)
SIM_SOURCE_BLOBS = {
    "S1": (((-2.5, -2.5), 0.5), ((2.5, 2.5), 0.5)),
    "S2": (((-3.0, -3.0), 0.5), ((3.0, 3.0), 0.5)),
}
SIM_TARGET_BLOBS = (((-3.5, 1.0), 1.0), ((2.0, 1.0), 1.0))
SIM_POINTS_PER_BLOB = 100
SIM_TARGET_POINTS_PER_BLOB = 50


def simulation_source(
    seed: int,
    points_per_blob: int = SIM_POINTS_PER_BLOB,
    boundary: Boundary = SIM_SOURCE_BOUNDARY,
) -> DomainSet:
    domains = [
        generate_gaussian_domain(did, blobs, points_per_blob, boundary, derive_seed(seed, "data", did))
        for did, blobs in SIM_SOURCE_BLOBS.items()
    ]
    return DomainSet(tuple(domains))


def simulation_target(
    seed: int,
    points_per_blob: int = SIM_TARGET_POINTS_PER_BLOB,
    boundary: Boundary = SIM_TARGET_BOUNDARY,
) -> Domain:
    return generate_gaussian_domain(
        "target", SIM_TARGET_BLOBS, points_per_blob, boundary, derive_seed(seed, "data", "target")
    )


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    ``feature_columns=None`` takes every column except the label and domain
    columns, in header order.  A named domain column must be in the header;
    ``domain_column=None`` loads the file as one domain, ``"all"``.  The three
    roles must not share a column, and no feature is named twice (``ConfigError``).
    """

    label_column: str = "label"
    domain_column: str | None = "domain"
    feature_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.domain_column == self.label_column:
            raise ConfigError(f"{self.label_column!r} is both the label and the domain column")
        features = self.feature_columns or ()
        for name in (self.label_column, self.domain_column):
            if name in features:
                raise ConfigError(f"feature_columns include the label or domain column {name!r}")
        if len(set(features)) < len(features):
            raise ConfigError(f"feature_columns name a column more than once: {list(features)}")


def read_text(path: str | Path, error: type[GradframeError] = DataError) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; a missing, unreadable
    or non-UTF-8 file raises ``error``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"file not found or not a regular file: {path}")
    try:
        return path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read as UTF-8 text ({exc})") from None


def write_json(path: str | Path, payload: dict) -> None:
    """Write a report as indented JSON with sorted keys.

    A non-finite number raises ``NumericError`` naming the report, and
    nothing is written: JSON has no NaN or infinity.
    """
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError(f"{path.name}: non-finite number in the report; not written") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header row, then the rows: each ``float`` cell (``np.float64`` too) as ``%.17g``,
    which ``float()`` reads back bit for bit, and any other cell as ``csv`` writes it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row] for row in rows)


def _feature_cell(path: Path, row_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: row {row_no}, column {column!r}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {row_no}, column {column!r}: non-finite value {text!r}")
    return value


def load_csv_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> DomainSet:
    """One Domain per distinct domain-column value, rows kept in file order."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: file is empty")
    col_index = {name: i for i, name in enumerate(header)}
    if schema.label_column not in col_index:
        raise DataError(f"{path}: missing label column {schema.label_column!r}")
    domain_col: int | None = None
    if schema.domain_column is not None:
        if schema.domain_column not in col_index:
            raise DataError(
                f"{path}: missing domain column {schema.domain_column!r} "
                "(an empty csv.domain_column loads the file as one domain)"
            )
        domain_col = col_index[schema.domain_column]
    if schema.feature_columns is None:
        skip = {schema.label_column, schema.domain_column}
        feature_names = [name for name in header if name not in skip]
    else:
        feature_names = list(schema.feature_columns)
        for name in feature_names:
            if name not in col_index:
                raise DataError(f"{path}: missing feature column {name!r}")
    if not feature_names:
        raise DataError(f"{path}: no feature columns")
    for name in (schema.label_column, schema.domain_column, *feature_names):
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears more than once in the header")
    feat_idx = [col_index[name] for name in feature_names]
    label_idx = col_index[schema.label_column]

    features: list[list[float]] = []
    labels: list[float] = []
    grouped: dict[str, list[int]] = {}  # file rows of each domain
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        features.append(
            [_feature_cell(path, row_no, name, row[i]) for name, i in zip(feature_names, feat_idx)]
        )
        raw_label = row[label_idx].strip()
        if raw_label not in ("0", "1"):
            raise DataError(
                f"{path}: row {row_no}, column {schema.label_column!r}: "
                f"label must be 0 or 1, got {raw_label!r}"
            )
        labels.append(float(raw_label))
        domain_id = row[domain_col] if domain_col is not None else "all"
        grouped.setdefault(domain_id, []).append(row_no - 1)

    if not grouped:
        raise DataError(f"{path}: no data rows")
    x = np.array(features)
    y = np.array(labels)
    domains = tuple(Domain(did, x[rows], y[rows]) for did, rows in grouped.items())
    return DomainSet(domains, feature_names=tuple(feature_names))


def save_csv_dataset(ds: DomainSet, path: str | Path) -> None:
    """Write features as x0..x{d-1} plus label and domain columns."""
    rows = ([*x, y, dom.id] for dom in ds.domains for x, y in zip(dom.x.tolist(), dom.y.tolist()))
    write_csv(path, [f"x{j}" for j in range(ds.feature_dim)] + ["label", "domain"], rows)


def standardize(ds: DomainSet) -> DomainSet:
    """Shift/scale features by moments pooled over all source domains.

    Uses population standard deviation; zero-variance features map to 0.
    The fitted stats ride along on the returned set for held-out data.  A
    feature whose pooled mean or std overflows is a ``DataError``.
    """
    x = ds.pooled().x
    with np.errstate(over="ignore", invalid="ignore"):
        stats = Standardization(mean=x.mean(axis=0), std=x.std(axis=0))
    bad = ~(np.isfinite(stats.mean) & np.isfinite(stats.std))
    if bad.any():
        raise DataError(f"feature column {int(np.argmax(bad))} (0-based): pooled mean or std not finite")
    return DomainSet(
        tuple(apply_standardization(d, stats) for d in ds.domains),
        standardization=stats,
        feature_names=ds.feature_names,
    )


def apply_standardization(domain: Domain, stats: Standardization) -> Domain:
    if domain.feature_dim != len(stats.mean):
        raise ShapeError(
            f"domain {domain.id!r} has {domain.feature_dim} features, "
            f"the standardization {len(stats.mean)}"
        )
    keep = stats.std > 0
    scale = np.where(keep, stats.std, 1.0)
    return Domain(domain.id, np.where(keep, (domain.x - stats.mean) / scale, 0.0), domain.y)


def whole_keys(keys, n: int) -> np.ndarray:
    """``keys``, one per point of n, each converted by ``int()``.  A key that is not a
    whole number (``1.7``, NaN) is a ``DataError`` naming its 1-based row and value,
    as is a count other than n."""
    values = []
    for row_no, key in enumerate(keys, start=1):
        try:
            value = int(key)
        except (ValueError, OverflowError, TypeError):
            value = None
        if value is None or value != key:
            raise DataError(f"row {row_no}: key {key} is not a whole number")
        values.append(value)
    if len(values) != n:
        raise DataError(f"got {len(values)} keys for {n} points")
    return np.array(values)


def split_into_k_domains(domain: Domain, k: int, keys) -> DomainSet:
    """Partition points into k groups of contiguous, near-equal key spans.

    ``keys`` holds one whole number per point (``whole_keys``).  Distinct keys are
    split into k contiguous chunks; any remainder widens the last chunks by one key each.
    """
    if k < 2:
        raise ConfigError(f"need k >= 2, got {k}")
    keys = whole_keys(keys, len(domain))
    # np.unique would do, but on this path it loads numpy.ma, which nothing else needs
    ordered = np.sort(keys)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    if k > len(distinct):
        raise DataError(f"k={k} exceeds the {len(distinct)} distinct key values")
    base, rem = divmod(len(distinct), k)
    group_of_key = np.repeat(np.arange(k), [base] * (k - rem) + [base + 1] * rem)
    group = group_of_key[np.searchsorted(distinct, keys)]
    return DomainSet(
        tuple(
            Domain(f"{domain.id}_g{g + 1}", domain.x[group == g], domain.y[group == g])
            for g in range(k)
        )
    )
