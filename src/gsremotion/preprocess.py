"""Record-level preprocessing: wavelet denoising and baseline normalization.

Signal-level normalization rescales every record of a subject by the min/max
range of that subject's own calm-state recording, so all emotions are
expressed relative to the same resting baseline. Feature-level normalization
(column min/max over a training matrix) lives in the features module; this
module only knows which mode is in effect.
"""

import numpy as np

from .dataset import Dataset, EmotionLabel
from .wavelet import denoise

NORM_MODES = ("signal", "feature", "both")


def validate_norm_mode(mode: str) -> str:
    if mode not in NORM_MODES:
        raise ValueError(f"norm mode must be one of {NORM_MODES}, got {mode!r}")
    return mode


def preprocess_dataset(dataset: Dataset, norm_mode: str = "signal") -> Dataset:
    """Denoise every record; apply per-subject calm normalization if requested.

    Records are denoised a block of equal-length records at a time and come
    back in dataset order. A record whose denoised signal overflows
    (samples near 1e308) is rejected by id.

    With norm_mode "signal" or "both", each subject's (min, span) comes from
    their first calm record (dataset order), taken after denoising, and
    every record of the subject maps through (x - min) / span; values may
    leave [0, 1]. A subject without a calm record, or whose calm record is
    constant after denoising, is an error in those modes.
    """
    validate_norm_mode(norm_mode)
    records = dataset.records
    samples = [None] * len(records)
    overflowed = []
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, by record id
        for rows, block, _ in dataset.signal_blocks():
            out = denoise(block)
            overflowed += [rows[j] for j in np.flatnonzero(~np.isfinite(out).all(axis=1))]
            for i, row in zip(rows, out):
                samples[i] = row
    if overflowed:
        record_id = records[min(overflowed)].record_id
        raise ValueError(f"record {record_id!r} has non-finite values after denoising")
    if norm_mode != "feature":
        ranges = {}
        for rec, row in zip(records, samples):
            if rec.label is EmotionLabel.CALM and rec.subject_id not in ranges:
                low, high = row.min(), row.max()
                if not high > low:
                    raise ValueError(f"calm record {rec.record_id!r} is constant after "
                                     "denoising and cannot set a range")
                ranges[rec.subject_id] = (low, high - low)
        missing = sorted({r.subject_id for r in records} - set(ranges))
        if missing:
            raise ValueError(
                "signal normalization needs a calm record per subject; "
                "missing for: " + ", ".join(missing)
            )
        for i, rec in enumerate(records):
            low, span = ranges[rec.subject_id]
            samples[i] = (samples[i] - low) / span
    return Dataset(records=[rec.with_samples(row) for rec, row in zip(records, samples)])
