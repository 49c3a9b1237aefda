"""GSR record and dataset containers, their file formats, and the file boundary.

A record is one skin-conductance time series for one subject under one
emotion label. Datasets are flat lists of records addressed by a manifest
file (one record filename per line, relative to the manifest's directory).

A record file holds four `# key: value` metadata lines (record_id, subject,
label, sample_rate_hz), the header `conductance_us`, then one sample per
line as the repr of a float. Sampling is uniform: sample i was taken at
i / sample_rate_hz, so no time column is stored, and a two-column file with
a `t_seconds` column fails the header check.
"""

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MIN_SAMPLES = 64

# Records a signal stage takes at once: enough rows to spread numpy's
# per-call cost thin (128 rows are no faster), few enough that one block's
# temporaries stay small: at 960 samples a block is 0.5 MB and denoise
# peaks near 2.3 MB over it. Cross-validation streams its corpus through
# denoise, normalization and feature extraction one block at a time
# (preprocess.preprocess_blocks), so it holds one prepared block, not the
# prepared corpus. synth generates its records in blocks of this size too.
_BLOCK_ROWS = 64

CSV_HEADER = "conductance_us"


@contextmanager
def file_errors(path: str, kind: str = "file"):
    """Re-raise a missing key, a value of the wrong type or any ValueError
    inside the block as `ValueError("<path>: ...")`, with `kind` naming the
    file in the first two; an OSError passes through unchanged."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: {kind} is missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {kind} has a value of the wrong type ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path: str, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class EmotionLabel(Enum):
    HAPPINESS = "happiness"
    GRIEF = "grief"
    FEAR = "fear"
    ANGER = "anger"
    CALM = "calm"


# Canonical label ordering, the declaration order, used for stratification,
# pairwise machine layout and report rows.
LABEL_ORDER = tuple(EmotionLabel)


def parse_label(text: str) -> EmotionLabel:
    """Parse a label name, case-insensitively."""
    try:
        return EmotionLabel(text.strip().lower())
    except ValueError:
        names = ", ".join(lab.value for lab in LABEL_ORDER)
        raise ValueError(f"unknown emotion label {text!r} (expected one of: {names})")


def _check_id(name: str, value: str) -> None:
    """Refuse an id a record file cannot carry back: its reader strips each line."""
    if not value:
        raise ValueError(f"{name} must be non-empty")
    if value != value.strip() or len(value.splitlines()) > 1:
        raise ValueError(f"{name} {value!r} cannot be stored in a record file: "
                         "it has leading or trailing whitespace or a line break")


@dataclass
class GsrRecord:
    """One conductance time series with identity and acquisition metadata."""

    record_id: str
    subject_id: str
    label: EmotionLabel
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        _check_id("record_id", self.record_id)
        # the id names the record's file, and a manifest skips `#` lines
        if (self.record_id in (".", "..") or self.record_id.startswith("#")
                or "/" in self.record_id or "\\" in self.record_id):
            raise ValueError(f"record_id {self.record_id!r} cannot name a record file: "
                             "it holds '/' or '\\', is '.' or '..', or starts with '#'")
        _check_id("subject_id", self.subject_id)
        if not isinstance(self.label, EmotionLabel):
            raise ValueError(f"label must be an EmotionLabel, got {type(self.label).__name__}")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.samples.size < MIN_SAMPLES:
            raise ValueError(
                f"record {self.record_id!r} has {self.samples.size} samples, "
                f"need at least {MIN_SAMPLES}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"record {self.record_id!r} contains non-finite samples")

    def with_samples(self, samples: np.ndarray) -> "GsrRecord":
        """Copy of this record carrying a new sample array."""
        return GsrRecord(
            record_id=self.record_id,
            subject_id=self.subject_id,
            label=self.label,
            sample_rate_hz=self.sample_rate_hz,
            samples=samples,
        )


@dataclass
class Dataset:
    """Ordered collection of records with unique ids.

    May be empty, though load_dataset refuses a manifest that lists no
    record; operations that need rows reject empty datasets themselves.
    """

    records: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.record_id in seen:
                raise ValueError(f"duplicate record_id {rec.record_id!r}")
            seen.add(rec.record_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def signal_blocks(self, positions=None):
        """Yield (positions, samples, sample_rate_hz) for the records in blocks.

        A block holds up to _BLOCK_ROWS records of one length and one rate as a
        (rows x samples) array; positions are their indices in the dataset.
        positions, if given, names the records to block and their order;
        by default every record, in dataset order.
        """
        groups = {}
        for i in range(len(self.records)) if positions is None else positions:
            rec = self.records[i]
            groups.setdefault((rec.samples.size, rec.sample_rate_hz), []).append(i)
        for (_, rate), positions in groups.items():
            for start in range(0, len(positions), _BLOCK_ROWS):
                rows = positions[start:start + _BLOCK_ROWS]
                yield rows, np.stack([self.records[i].samples for i in rows]), rate


def save_record(record: GsrRecord, path: str) -> None:
    """Write one record: `# key: value` metadata lines, the header, one sample per line."""
    head = (
        f"# record_id: {record.record_id}\n"
        f"# subject: {record.subject_id}\n"
        f"# label: {record.label.value}\n"
        f"# sample_rate_hz: {float(record.sample_rate_hz)!r}\n"
        f"{CSV_HEADER}\n"
    )
    with open(path, "w") as fh:
        fh.write(head + "\n".join(map(repr, record.samples.tolist())) + "\n")


def load_record(path: str) -> GsrRecord:
    """Read one record file written by save_record."""
    meta = {}
    with file_errors(path), open(path) as fh:
        lines = fh.read().splitlines()
        idx = 0
        while idx < len(lines) and lines[idx].startswith("#"):
            body = lines[idx][1:].strip()
            if ":" not in body:
                raise ValueError(f"malformed metadata line {idx + 1}: {lines[idx]!r}")
            key, value = (part.strip() for part in body.split(":", 1))
            if key in meta:
                raise ValueError(f"line {idx + 1}: metadata key {key!r} given twice")
            meta[key] = value
            idx += 1
        if idx >= len(lines) or lines[idx] != CSV_HEADER:
            raise ValueError(f"expected header {CSV_HEADER!r} after metadata")
        body = lines[idx + 1:]
        try:
            # numpy's string-to-float cast accepts exactly what float() does
            samples = np.array(body, dtype=np.float64)
        except ValueError:
            for lineno, value in enumerate(body, start=idx + 2):
                try:
                    float(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad conductance value {value!r}") from None
            raise
        missing = [k for k in ("record_id", "subject", "label", "sample_rate_hz") if k not in meta]
        if missing:
            raise ValueError(f"missing metadata keys: {', '.join(missing)}")
        try:
            rate = float(meta["sample_rate_hz"])
        except ValueError:
            raise ValueError(f"bad sample_rate_hz {meta['sample_rate_hz']!r}")
        return GsrRecord(
            record_id=meta["record_id"],
            subject_id=meta["subject"],
            label=parse_label(meta["label"]),
            sample_rate_hz=rate,
            samples=samples,
        )


def save_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write every record plus manifest.txt listing them; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for rec in dataset.records:
        name = f"{rec.record_id}.csv"
        save_record(rec, os.path.join(out_dir, name))
        names.append(name)
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(names) + "\n")
    return manifest_path


def load_dataset(manifest_path: str) -> Dataset:
    """Load all records named by a manifest file, preserving its order.

    Blank lines and `#` comment lines are ignored; a manifest that lists no
    record is an error.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with file_errors(manifest_path), open(manifest_path) as fh:
        names = [
            line.strip() for line in fh
            if line.strip() and not line.strip().startswith("#")
        ]
        if not names:
            raise ValueError("manifest lists no records")
    records = [load_record(os.path.join(base, name)) for name in names]
    with file_errors(manifest_path):  # records clash: the manifest is at fault
        return Dataset(records=records)


def validate_test_fraction(test_fraction: float) -> float:
    """The share of rows held out by a split, strictly between 0 and 1."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    return test_fraction


def shuffled_label_groups(labels, seed: int) -> dict:
    """Row indices grouped by label, in order of first appearance, each group
    shuffled; one default_rng(seed) shuffles the groups in LABEL_ORDER."""
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    rng = np.random.default_rng(seed)
    for lab in LABEL_ORDER:
        if lab in groups:
            rows = groups[lab]
            groups[lab] = [rows[j] for j in rng.permutation(len(rows))]
    return groups


def stratified_split_indices(labels, test_fraction: float, seed: int):
    """Split row indices into (train, test) stratified by label.

    Per label the test side receives round(test_fraction * n) rows, rounding
    half away from zero, clamped so neither side loses the label entirely.
    Both returned index lists preserve the original row order.
    """
    validate_test_fraction(test_fraction)
    labels = list(labels)
    if not labels:
        raise ValueError("cannot split zero rows")
    groups = shuffled_label_groups(labels, seed)
    test_idx = set()
    for lab, rows in groups.items():
        n = len(rows)
        if n < 2:
            raise ValueError(f"label {lab.value!r} has {n} record(s), need at least 2 to split")
        # floor(x + 0.5) rounds half up; round() would round half to even
        n_test = min(int(np.floor(test_fraction * n + 0.5)), n - 1)
        test_idx.update(rows[:n_test])
    train = [i for i in range(len(labels)) if i not in test_idx]
    test = [i for i in range(len(labels)) if i in test_idx]
    return train, test
