"""Feature catalog: 24 time-domain + 6 spectral features per record.

Time-domain statistics are computed on the raw signal, its first difference
and its second difference (8 each, same order within every block). Spectral
features come from the magnitude-squared rfft of the mean-removed signal,
P_k = |Y_k|^2 / N over strictly positive frequencies, with a fixed band of
interest at 0.08-0.2 Hz.

Extraction runs over a (rows x samples) block of equal-length signals with
one sample rate, and a single signal is a block of one row; a dataset is
extracted a block at a time. Each value is bit-identical to the one the
per-signal computation gives.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import (MIN_SAMPLES, Dataset, file_errors, parse_float, parse_label, read_table,
                      write_table)

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


@dataclass
class FeatureMatrix:
    """Row-per-record feature table; values are frozen after construction."""

    values: np.ndarray
    record_ids: list
    labels: list

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


def _lower_median(x: np.ndarray) -> np.ndarray:
    """Per-row median as the lower middle order statistic (no averaging for even n).

    A copy of the column, so the partitioned block is freed on return.
    """
    k = (x.shape[-1] - 1) // 2
    return np.partition(x, k, axis=-1)[:, k].copy()


def _stat_block(x: np.ndarray) -> list:
    lo = x.min(axis=1)
    hi = x.max(axis=1)
    return [
        x.mean(axis=1),
        _lower_median(x),
        x.std(axis=1),
        lo,
        hi,
        hi - lo,
        np.abs(x).mean(axis=1),
        np.sqrt(np.mean(x * x, axis=1)),
    ]


def _spectral_block(x: np.ndarray, sample_rate_hz: float) -> list:
    n = x.shape[1]
    spectrum = np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1)
    powers = (np.abs(spectrum[:, 1:]) ** 2) / n
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)[1:]
    total = powers.sum(axis=1)
    in_band = (freqs >= BAND_LOW_HZ) & (freqs <= BAND_HIGH_HZ)
    # a masked selection is not C-contiguous, and its row sums would run in
    # another order than the one-signal sum
    band = np.ascontiguousarray(powers[:, in_band]).sum(axis=1)
    has_power = total > 0.0
    safe_total = np.where(has_power, total, 1.0)
    centroid = (freqs * powers).sum(axis=1) / safe_total
    spread = np.sqrt(((freqs - centroid[:, None]) ** 2 * powers).sum(axis=1) / safe_total)
    peak = freqs[np.argmax(powers, axis=1)]
    # a row without power has no spectral shape: ratio, centroid, spread and peak are 0
    shape = [np.where(has_power, v, 0.0) for v in (band / safe_total, centroid, spread, peak)]
    return [total, band] + shape


def extract_features(signal: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """The 30-value catalog of one signal, or one catalog row per row of a
    (rows x samples) block of equal-length signals; one signal runs as a
    block of one row."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"signal must be 1-D or a 2-D block, got shape {x.shape}")
    block = np.atleast_2d(x)
    if block.shape[1] < MIN_SAMPLES:
        raise ValueError(
            f"feature extraction needs at least {MIN_SAMPLES} samples, "
            f"got {block.shape[1]}"
        )
    if not sample_rate_hz > 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not np.all(np.isfinite(block)):
        raise ValueError("signal contains non-finite values")
    columns = (
        _stat_block(block) + _stat_block(np.diff(block, n=1, axis=1))
        + _stat_block(np.diff(block, n=2, axis=1)) + _spectral_block(block, sample_rate_hz)
    )
    values = np.stack(columns, axis=1)
    return values[0] if x.ndim == 1 else values


def extract_dataset_features(dataset: Dataset, blocks=None) -> FeatureMatrix:
    """One catalog row per record, in dataset order, extracted a block at a time.

    blocks yields (positions, samples, sample_rate_hz) and covers every
    record once; by default it is dataset.signal_blocks(), and
    cross-validation passes preprocess_blocks, so no prepared corpus is held.
    A record whose features overflow (samples near 1e200) is rejected by id.
    """
    records = dataset.records
    if not records:
        raise ValueError("cannot extract features from zero records")
    values = np.empty((len(records), N_FEATURES))
    covered = 0
    for rows, block, rate in dataset.signal_blocks() if blocks is None else blocks:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below, by record id
            values[rows] = extract_features(block, rate)
        covered += len(rows)
    if covered != len(records):
        raise ValueError(f"feature blocks cover {covered} rows of {len(records)} records")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        record_id = records[int(bad.argmax())].record_id
        raise ValueError(f"feature vector for {record_id!r} has non-finite values")
    return FeatureMatrix(values=values, record_ids=[rec.record_id for rec in records],
                         labels=[rec.label for rec in records])


@dataclass
class FeatureNormalization:
    """Column-wise min/max scaling fitted on a training matrix.

    A degenerate (constant) column, max == min, maps to 0 so it carries no
    information instead of dividing by zero.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape:
            raise ValueError("normalization arrays must share one shape")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise ValueError("normalization mins and maxs must be finite")
        if np.any(self.maxs < self.mins):
            raise ValueError("per-column max must be >= min")
        with np.errstate(over="ignore"):  # refused below, by column
            wide = ~np.isfinite(self.maxs - self.mins)
        if wide.any():
            raise ValueError(f"column f{int(wide.argmax()) + 1:02d} spans more than "
                             "the float range (max - min overflows)")

    @property
    def n_features(self) -> int:
        return self.mins.size

    def scale(self, values: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Scale a 2-D block of raw rows to [0, 1] per column (0 if degenerate);
        its columns are the normalization's columns at the 0-based positions
        given (default: all)."""
        mins, maxs = self.mins[columns], self.maxs[columns]
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != mins.size:
            raise ValueError(
                f"rows have shape {values.shape}, normalization expects "
                f"{mins.size} columns"
            )
        degenerate = maxs == mins
        span = np.where(degenerate, 1.0, maxs - mins)
        scaled = (values - mins) / span
        scaled[:, degenerate] = 0.0
        return scaled


def fit_feature_normalization(matrix: FeatureMatrix) -> FeatureNormalization:
    return FeatureNormalization(
        mins=matrix.values.min(axis=0),
        maxs=matrix.values.max(axis=0),
    )


def column_ids() -> list:
    """Header ids f01..f30; the id->name mapping is pinned by catalog_version."""
    return [f"f{i:02d}" for i in range(1, N_FEATURES + 1)]


VERSION_LINE = f"# catalog_version: {CATALOG_VERSION}"
HEADER = ["record_id", "label"] + column_ids()


def write_feature_csv(matrix: FeatureMatrix, path: str) -> None:
    """Write a full-catalog feature table; floats use shortest round-trip repr."""
    if matrix.n_features != N_FEATURES:
        raise ValueError(f"a feature table has {N_FEATURES} catalog columns, "
                         f"got {matrix.n_features}")
    write_table(path, VERSION_LINE, HEADER,
                ([rid, lab.value if lab is not None else "", *map(repr, values)]
                 for rid, lab, values in zip(matrix.record_ids, matrix.labels,
                                             matrix.values.tolist())))


def read_feature_csv(path: str) -> FeatureMatrix:
    """Read a table written by write_feature_csv; a row's label may be empty."""
    def columns(fields):
        label = parse_label(fields[1]) if fields[1] else None
        try:
            values = [parse_float(v) for v in fields[2:]]
        except ValueError:
            raise ValueError("bad feature value") from None
        if not np.isfinite(values).all():
            raise ValueError("non-finite feature value")
        return fields[0], label, values

    with file_errors(path):
        rows = read_table(path, VERSION_LINE, HEADER, columns,
                          "catalog_version missing or unsupported")
        if not rows:
            raise ValueError("no feature rows")
        _, ids, labels, values = zip(*rows)
        return FeatureMatrix(values=np.array(values), record_ids=list(ids), labels=list(labels))
