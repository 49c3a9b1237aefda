"""Feature catalog: 24 time-domain + 6 spectral features per record.

Time-domain statistics are computed on the raw signal, its first difference
and its second difference (8 each, same order within every block). Spectral
features come from the magnitude-squared rfft of the mean-removed signal,
P_k = |Y_k|^2 / N over strictly positive frequencies, with a fixed band of
interest at 0.08-0.2 Hz.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, file_errors, parse_label

CATALOG_VERSION = 1

BAND_LOW_HZ = 0.08
BAND_HIGH_HZ = 0.2

_STAT_NAMES = ("mean", "median", "std", "min", "max", "range", "abs_mean", "rms")

FEATURE_NAMES = tuple(
    [f"sig_{s}" for s in _STAT_NAMES]
    + [f"d1_{s}" for s in _STAT_NAMES]
    + [f"d2_{s}" for s in _STAT_NAMES]
    + [
        "total_power",
        "band_power",
        "band_ratio",
        "spectral_centroid",
        "spectral_spread",
        "peak_freq",
    ]
)

N_FEATURES = len(FEATURE_NAMES)  # 30

MIN_FEATURE_SAMPLES = 64


@dataclass
class FeatureMatrix:
    """Row-per-record feature table; values are frozen after construction."""

    values: np.ndarray
    record_ids: list
    labels: list
    catalog_version: int = CATALOG_VERSION

    def __post_init__(self):
        self.values = np.array(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        n = self.values.shape[0]
        if len(self.record_ids) != n or len(self.labels) != n:
            raise ValueError(
                f"row metadata mismatch: {n} rows, {len(self.record_ids)} ids, "
                f"{len(self.labels)} labels"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix has non-finite values")
        self.values.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def restrict(self, catalog_indices) -> "FeatureMatrix":
        """Column subset by 1-based catalog indices (order preserved)."""
        cols = [int(i) - 1 for i in catalog_indices]
        for c in cols:
            if not 0 <= c < self.n_features:
                raise ValueError(f"catalog index {c + 1} out of range 1..{self.n_features}")
        return FeatureMatrix(
            values=self.values[:, cols],
            record_ids=list(self.record_ids),
            labels=list(self.labels),
            catalog_version=self.catalog_version,
        )


def difference(signal: np.ndarray, order: int) -> np.ndarray:
    """order-th forward difference; output is len(signal) - order long."""
    x = np.asarray(signal, dtype=np.float64)
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    if x.size <= order:
        raise ValueError(f"signal length {x.size} too short for order-{order} difference")
    return np.diff(x, n=order)


def _lower_median(x: np.ndarray) -> float:
    """Median as the lower middle order statistic (no averaging for even n)."""
    k = (x.size - 1) // 2
    return float(np.partition(x, k)[k])


def _stat_block(x: np.ndarray) -> list:
    lo = float(x.min())
    hi = float(x.max())
    return [
        float(x.mean()),
        _lower_median(x),
        float(x.std()),
        lo,
        hi,
        hi - lo,
        float(np.abs(x).mean()),
        float(np.sqrt(np.mean(x * x))),
    ]


def _spectral_block(x: np.ndarray, sample_rate_hz: float) -> list:
    n = x.size
    spectrum = np.fft.rfft(x - x.mean())
    powers = (np.abs(spectrum[1:]) ** 2) / n
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)[1:]
    total = float(powers.sum())
    in_band = (freqs >= BAND_LOW_HZ) & (freqs <= BAND_HIGH_HZ)
    band = float(powers[in_band].sum())
    if total > 0.0:
        ratio = band / total
        centroid = float((freqs * powers).sum()) / total
        spread = float(np.sqrt(((freqs - centroid) ** 2 * powers).sum() / total))
        peak = float(freqs[int(np.argmax(powers))])
    else:
        ratio = centroid = spread = peak = 0.0
    return [total, band, ratio, centroid, spread, peak]


def extract_features(signal: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Compute the full 30-value catalog for one signal."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    if x.size < MIN_FEATURE_SAMPLES:
        raise ValueError(
            f"feature extraction needs at least {MIN_FEATURE_SAMPLES} samples, got {x.size}"
        )
    if not sample_rate_hz > 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    d1 = difference(x, 1)
    d2 = difference(x, 2)
    values = (
        _stat_block(x) + _stat_block(d1) + _stat_block(d2)
        + _spectral_block(x, sample_rate_hz)
    )
    return np.array(values)


def extract_dataset_features(dataset: Dataset) -> FeatureMatrix:
    """One catalog row per record, in dataset order.

    A record whose features overflow (samples near 1e200) is rejected by id.
    """
    records = dataset.records
    if not records:
        raise ValueError("cannot extract features from zero records")
    values = np.array([extract_features(rec.samples, rec.sample_rate_hz) for rec in records])
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        record_id = records[int(bad.argmax())].record_id
        raise ValueError(f"feature vector for {record_id!r} has non-finite values")
    return FeatureMatrix(values=values, record_ids=[rec.record_id for rec in records],
                         labels=[rec.label for rec in records])


@dataclass
class FeatureNormalization:
    """Column-wise min/max scaling fitted on a training matrix.

    Degenerate (constant) columns are flagged and map to 0 on apply so they
    carry no information instead of dividing by zero.
    """

    mins: np.ndarray
    maxs: np.ndarray
    degenerate: np.ndarray = field(default=None)

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.degenerate is None:
            self.degenerate = self.maxs <= self.mins
        self.degenerate = np.asarray(self.degenerate, dtype=bool)
        if not (self.mins.shape == self.maxs.shape == self.degenerate.shape):
            raise ValueError("normalization arrays must share one shape")
        if np.any(self.maxs < self.mins):
            raise ValueError("per-column max must be >= min")

    @property
    def n_features(self) -> int:
        return self.mins.size

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Scale a 2-D block of raw rows to [0, 1] per column (0 if degenerate)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.n_features:
            raise ValueError(
                f"rows have shape {values.shape}, normalization expects "
                f"{self.n_features} columns"
            )
        span = np.where(self.degenerate, 1.0, self.maxs - self.mins)
        scaled = (values - self.mins) / span
        scaled[:, self.degenerate] = 0.0
        return scaled


def fit_feature_normalization(matrix: FeatureMatrix) -> FeatureNormalization:
    return FeatureNormalization(
        mins=matrix.values.min(axis=0),
        maxs=matrix.values.max(axis=0),
    )


def apply_feature_normalization(matrix: FeatureMatrix,
                                norm: FeatureNormalization) -> FeatureMatrix:
    return FeatureMatrix(
        values=norm.scale(matrix.values),
        record_ids=list(matrix.record_ids),
        labels=list(matrix.labels),
        catalog_version=matrix.catalog_version,
    )


def column_ids(n_features: int) -> list:
    """Header ids f01..fNN; the id->name mapping is pinned by catalog_version."""
    return [f"f{i:02d}" for i in range(1, n_features + 1)]


def write_feature_csv(matrix: FeatureMatrix, path: str) -> None:
    """Write a feature table; floats use shortest round-trip repr."""
    names = column_ids(matrix.n_features)
    with open(path, "w", newline="") as fh:
        fh.write(f"# catalog_version: {matrix.catalog_version}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "label"] + names)
        for i in range(matrix.n_rows):
            lab = matrix.labels[i]
            row = [matrix.record_ids[i], lab.value if lab is not None else ""]
            row.extend(repr(float(v)) for v in matrix.values[i])
            writer.writerow(row)


def read_feature_csv(path: str) -> FeatureMatrix:
    """Read a table written by write_feature_csv; validates catalog version."""
    with file_errors(path), open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# catalog_version:"):
            raise ValueError("missing catalog_version line")
        try:
            version = int(first.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad catalog_version line {first!r}")
        if version != CATALOG_VERSION:
            raise ValueError(f"catalog_version {version} unsupported (expected {CATALOG_VERSION})")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["record_id", "label"]:
            raise ValueError("header must start with record_id,label")
        if header[2:] != column_ids(N_FEATURES):
            raise ValueError(f"feature columns must be f01..f{N_FEATURES:02d}")
        ids, labels, rows = [], [], []
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            ids.append(row[0])
            labels.append(parse_label(row[1]) if row[1] else None)
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError:
                raise ValueError(f"line {lineno}: bad feature value")
        if not rows:
            raise ValueError("no feature rows")
        return FeatureMatrix(values=np.array(rows), record_ids=ids, labels=labels,
                             catalog_version=version)
