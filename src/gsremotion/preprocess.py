"""Record-level preprocessing: wavelet denoising and baseline normalization.

Signal-level normalization rescales every record of a subject by the min/max
range of that subject's own calm-state recording, so all emotions are
expressed relative to the same resting baseline. Feature-level normalization
(column min/max over a training matrix) lives in the features module; this
module only knows which mode is in effect.

preprocess_blocks is the one path: a stream of prepared blocks that denoises
each record once and never holds the prepared corpus. It first denoises the
records that set the ranges, the first calm record of each subject, then
every other record, and scales each block as a whole by per-row (low, span)
columns. preprocess_dataset gathers the stream back into records.
"""

import numpy as np

from .dataset import Dataset, EmotionLabel, parse_word
from .wavelet import denoise

NORM_MODES = ("signal", "feature", "both")
DEFAULT_NORM_MODE = "signal"


def validate_norm_mode(mode: str) -> str:
    return parse_word(mode, NORM_MODES, "norm mode")


def preprocess_blocks(dataset: Dataset, norm_mode: str):
    """Yield (positions, samples, sample_rate_hz) for the records, preprocessed.

    Blocks are those of Dataset.signal_blocks, first over the first calm
    record of each subject (dataset order), then over the other records; a
    row's bits do not depend on the block it is in. A record whose denoised
    signal overflows (samples near 1e308) is rejected by id.

    With norm_mode "signal" or "both", each subject's (min, span) comes from
    their first calm record, taken after denoising, and every record of the
    subject maps through (x - min) / span; values may leave [0, 1]. A subject
    without a calm record, or whose calm record is constant in its file or
    after denoising, is an error in those modes, as is a calm range so small
    that a record of the subject maps to inf.

    Every block is seen before an error is raised, so the error is the one
    first in this order: the lowest overflowed record, the first constant
    calm record, the missing subjects, the lowest record a calm range is
    too small for. From the first fault on, no block is yielded.
    """
    records = dataset.records
    scaled = validate_norm_mode(norm_mode) != "feature"
    firsts = {}
    if scaled:
        for i, rec in enumerate(records):
            if rec.label is EmotionLabel.CALM:
                firsts.setdefault(rec.subject_id, i)
    missing = sorted({rec.subject_id for rec in records} - set(firsts)) if scaled else []
    calm_rows = sorted(firsts.values())
    setters = set(calm_rows)
    others = [i for i in range(len(records)) if i not in setters]
    ranges = {}  # subject -> (calm record id, low, span)
    overflowed, constant, too_small = [], [], []
    for positions in (calm_rows, others):
        for rows, block, rate in dataset.signal_blocks(positions):
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below, by record id
                out = denoise(block)
            finite = np.isfinite(out).all(axis=1)
            overflowed += [rows[j] for j in np.flatnonzero(~finite)]
            if positions is calm_rows:
                low, high = out.min(axis=1), out.max(axis=1)
                # denoising leaves a ~1e-15 wobble on a record flat in its file
                varies = (high > low) & (block.max(axis=1) > block.min(axis=1))
                for j in np.flatnonzero(finite):
                    rec = records[rows[j]]
                    if not varies[j]:
                        constant.append(rows[j])
                    ranges[rec.subject_id] = (rec.record_id, low[j], high[j] - low[j])
            del block  # the consumer of `out` needs no raw samples held beside it
            if overflowed or constant or missing:
                continue  # some rows have no range; only an overflow can still outrank
            if scaled:
                params = [ranges[records[i].subject_id] for i in rows]
                with np.errstate(over="ignore"):  # a range too small to divide by is refused below
                    out -= np.array([[p[1]] for p in params])
                    out /= np.array([[p[2]] for p in params])
                too_small += [(rows[j], params[j][0])
                              for j in np.flatnonzero(~np.isfinite(out).all(axis=1))]
            if not too_small:
                yield rows, out, rate
    if overflowed:
        record_id = records[min(overflowed)].record_id
        raise ValueError(f"record {record_id!r} has non-finite values after denoising")
    if constant:
        raise ValueError(f"calm record {records[min(constant)].record_id!r} is constant "
                         "after denoising and cannot set a range")
    if missing:
        raise ValueError(
            "signal normalization needs a calm record per subject; "
            "missing for: " + ", ".join(missing)
        )
    if too_small:
        i, calm_id = min(too_small)
        raise ValueError(f"calm record {calm_id!r} has a range too small to "
                         f"normalize record {records[i].record_id!r}")


def preprocess_dataset(dataset: Dataset, norm_mode: str) -> Dataset:
    """Denoise every record; apply per-subject calm normalization if requested.

    The records of preprocess_blocks, in dataset order, with its checks.
    """
    samples = [None] * len(dataset.records)
    for rows, block, _ in preprocess_blocks(dataset, norm_mode):
        for i, row in zip(rows, block):
            samples[i] = row
    return Dataset(records=[rec.with_samples(row)
                            for rec, row in zip(dataset.records, samples)])
