"""GSR record and dataset containers, their file formats, and the file boundary.

A record is one skin-conductance time series for one subject under one
emotion label; a dataset is an ordered list of records. A corpus on disk is
a directory of two files (record format 3): `samples.npy`, every record's
samples as one flat little-endian float64 array (NumPy's .npy layout), and
`manifest.txt`, the line `# record_format: 3` then a CSV table
`record_id,subject,label,sample_rate_hz,n_samples` with one row per record.
Records tile the array in manifest order, so the n_samples sum to its size
and a record's offset is the sum of those before it. Sampling is uniform:
sample i was taken at i / sample_rate_hz, so no time is stored.
"""

import bisect
import contextlib
import csv
import itertools
import json
import math
import os
import tokenize
from dataclasses import dataclass, field, replace
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

SAMPLES_NAME = "samples.npy"
MANIFEST_NAME = "manifest.txt"
FORMAT_LINE = "# record_format: 3"
MANIFEST_HEADER = ["record_id", "subject", "label", "sample_rate_hz", "n_samples"]


@contextlib.contextmanager
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


def _typed(value, kind: type, key: str):
    """value, if json.load made it a kind (int, bool or list): an int is not
    a float, a string or a boolean, and a bool is only true or false."""
    if type(value) is not kind:
        raise TypeError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _plain(text: str) -> bool:
    """Whether text is free of what int and float take but no writer emits:
    non-ASCII characters (digits of other scripts), `_` (PEP 515 grouping)
    and leading or trailing whitespace. parse_word refuses the same."""
    return text.isascii() and "_" not in text and text == text.strip()


def parse_int(text: str) -> int:
    """An integer in Python's int syntax without non-ASCII characters, `_` or
    surrounding whitespace; a refusal carries int's own reason."""
    if not _plain(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A float in Python's float syntax (inf, nan and exponents included)
    without non-ASCII characters, `_` or surrounding whitespace; a refusal
    carries float's own reason."""
    if not _plain(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_word(text: str, words: tuple, what: str) -> str:
    """The word of words (each lower-case) that text names in any case; text
    must be free of what _plain refuses, and a refusal names what it reads."""
    if _plain(text) and text.lower() in words:
        return text.lower()
    raise ValueError(f"unknown {what} {text!r} (expected one of: {', '.join(words)})")


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
LABEL_NAMES = tuple(lab.value for lab in LABEL_ORDER)


def parse_label(text: str) -> EmotionLabel:
    """The label text names in any case, by parse_word: `Calm` reads as calm,
    ` calm` is refused."""
    return EmotionLabel(parse_word(text, LABEL_NAMES, "emotion label"))


def _check_id(name: str, value: str) -> None:
    """Refuse an empty id, or one a line-oriented reader of the manifest or
    the feature table would not carry back unchanged."""
    if not value:
        raise ValueError(f"{name} must be non-empty")
    if value != value.strip() or len(value.splitlines()) > 1:
        raise ValueError(f"{name} {value!r} cannot be stored in a manifest or feature "
                         "table: it has leading or trailing whitespace or a line break")


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
        _check_id("subject_id", self.subject_id)
        if not isinstance(self.label, EmotionLabel):
            raise ValueError(f"label must be an EmotionLabel, got {type(self.label).__name__}")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
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
        return replace(self, samples=samples)


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


def write_table(path: str, version_line: str, header: list, rows) -> None:
    """Write the layout of the manifest and the feature table: version_line,
    then header and rows as UTF-8 CSV (RFC 4180 quoting), record_id first."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(version_line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str, version_line: str, header: list, parse_row, version_hint: str) -> list:
    """(file line, *parse_row(fields)) per row of a table written by write_table.

    Refuses a first line other than version_line (the message ends in
    version_hint), another header, a field csv cannot read, a row without one
    field per column, and a row whose id _check_id refuses or an earlier row
    has. A row's refusal, parse_row's ValueError included, names the file line
    the row starts on.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().strip() != version_line:
            raise ValueError(f"no {version_line!r} line: {version_hint}")
        reader, rows, id_lines, lineno = csv.reader(fh), [], {}, 2
        try:
            if next(reader, None) != header:
                raise ValueError(f"header must be {','.join(header)}")
            lineno = reader.line_num + 2  # the reader starts after the version line
            for fields in reader:
                if len(fields) != len(header):  # a blank row has none
                    raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
                _check_id(header[0], fields[0])
                if id_lines.setdefault(fields[0], lineno) != lineno:
                    raise ValueError(f"{header[0]} {fields[0]!r} is also on line "
                                     f"{id_lines[fields[0]]}")
                rows.append((lineno, *parse_row(fields)))
                lineno = reader.line_num + 2
        except (ValueError, csv.Error) as exc:  # csv.Error: a field over its size limit
            raise ValueError(f"line {lineno}: {exc}") from None
    return rows


def corpus_paths(out_dir: str) -> tuple:
    """(samples path, manifest path) of the corpus in out_dir."""
    return os.path.join(out_dir, SAMPLES_NAME), os.path.join(out_dir, MANIFEST_NAME)


def save_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write the corpus into out_dir and return its manifest path. The old manifest
    goes first and the new one last, so no manifest names samples not written."""
    samples_path, manifest_path = corpus_paths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)
    samples = np.concatenate([np.empty(0)] + [rec.samples for rec in dataset.records])
    np.save(samples_path, samples.astype("<f8", copy=False), allow_pickle=False)
    write_table(manifest_path, FORMAT_LINE, MANIFEST_HEADER,
                ([rec.record_id, rec.subject_id, rec.label.value,
                  repr(float(rec.sample_rate_hz)), rec.samples.size]
                 for rec in dataset.records))
    return manifest_path


def _manifest_row(fields) -> tuple:
    """(record_id, subject, label, rate, n_samples) of a manifest row."""
    record_id, subject, label, rate, n_samples = fields
    try:
        count = parse_int(n_samples)
    except ValueError:
        count = -1
    if count < 0:
        raise ValueError(f"n_samples must be a count, got {n_samples!r}")
    return record_id, subject, parse_label(label), parse_float(rate), count


def load_dataset(manifest_path: str) -> Dataset:
    """The corpus of a manifest, in its order. A fault of a sample or of the
    array names samples.npy; every other fault names the manifest."""
    samples_path, _ = corpus_paths(os.path.dirname(manifest_path))
    with file_errors(manifest_path):
        rows = read_table(manifest_path, FORMAT_LINE, MANIFEST_HEADER, _manifest_row,
                          "record format 2 (one file per record) is no longer read; "
                          "regenerate the corpus with `gsremotion synth`")
        if not rows:
            raise ValueError("manifest lists no records")
    with file_errors(samples_path), open(samples_path, "rb") as fh:
        try:
            samples = np.load(fh, allow_pickle=False)
        except (EOFError, MemoryError, OverflowError, tokenize.TokenError) as exc:
            # besides ValueError, what np.load raises on a cut or corrupt header
            raise ValueError(f"not a readable .npy array ({type(exc).__name__}: {exc})") from None
        if fh.read(1):
            raise ValueError("bytes follow the array")
        if samples.ndim != 1 or samples.dtype.str != "<f8":
            raise ValueError("expected a 1-D little-endian float64 ('<f8') array, "
                             f"got {samples.dtype.str!r} of shape {samples.shape}")
    ends = list(itertools.accumulate(row[-1] for row in rows))
    if ends[-1] != samples.size:
        raise ValueError(f"{manifest_path}: n_samples sum to {ends[-1]}, but "
                         f"{SAMPLES_NAME} holds {samples.size} samples")
    finite = np.isfinite(samples)
    if not finite.all():
        record_id = rows[bisect.bisect_right(ends, int(finite.argmin()))][1]
        raise ValueError(f"{samples_path}: record {record_id!r} contains non-finite samples")
    records = []
    with file_errors(manifest_path):
        for (lineno, record_id, subject, label, rate, n_samples), end in zip(rows, ends):
            try:
                records.append(GsrRecord(record_id, subject, label, rate,
                                         samples[end - n_samples:end]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
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
