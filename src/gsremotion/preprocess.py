"""Record-level preprocessing: wavelet denoising and baseline normalization.

Signal-level normalization rescales every record of a subject by the min/max
range of that subject's own calm-state recording, so all emotions are
expressed relative to the same resting baseline. Feature-level normalization
(column min/max over a training matrix) lives in the features module; this
module only knows which mode is in effect.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, EmotionLabel
from .wavelet import denoise

NORM_MODES = ("signal", "feature", "both")


@dataclass(frozen=True)
class NormalizationParams:
    """Affine range parameters from a baseline signal."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not np.isfinite(self.x_min) or not np.isfinite(self.x_max):
            raise ValueError("normalization bounds must be finite")
        if not self.x_max > self.x_min:
            raise ValueError(
                f"x_max ({self.x_max}) must exceed x_min ({self.x_min}); "
                "constant baseline cannot define a range"
            )

    @property
    def span(self) -> float:
        return self.x_max - self.x_min


def fit_calm_baseline(signal: np.ndarray) -> NormalizationParams:
    """Extract min/max range from a calm-state signal."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        raise ValueError("baseline signal is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("baseline signal contains non-finite values")
    return NormalizationParams(x_min=float(x.min()), x_max=float(x.max()))


def normalize_signal(signal: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Map signal through (x - x_min) / (x_max - x_min); values may leave [0, 1]."""
    x = np.asarray(signal, dtype=np.float64)
    return (x - params.x_min) / params.span


def validate_norm_mode(mode: str) -> str:
    if mode not in NORM_MODES:
        raise ValueError(f"norm mode must be one of {NORM_MODES}, got {mode!r}")
    return mode


def preprocess_dataset(dataset: Dataset, norm_mode: str = "signal") -> Dataset:
    """Denoise every record; apply per-subject calm normalization if requested.

    Records are denoised a block of equal-length records at a time and come
    back in dataset order.

    With norm_mode "signal" or "both", each subject's range comes from their
    first calm record (dataset order), fitted after denoising. Subjects
    without a calm record are an error in those modes.
    """
    validate_norm_mode(norm_mode)
    records = dataset.records
    samples = [None] * len(records)
    for rows, block, _ in dataset.signal_blocks():
        for i, row in zip(rows, denoise(block)):
            samples[i] = row
    if norm_mode != "feature":
        baselines = {}
        for rec, row in zip(records, samples):
            if rec.label is EmotionLabel.CALM and rec.subject_id not in baselines:
                baselines[rec.subject_id] = fit_calm_baseline(row)
        missing = sorted({r.subject_id for r in records} - set(baselines))
        if missing:
            raise ValueError(
                "signal normalization needs a calm record per subject; "
                "missing for: " + ", ".join(missing)
            )
        samples = [normalize_signal(row, baselines[rec.subject_id])
                   for rec, row in zip(records, samples)]
    return Dataset(records=[rec.with_samples(row) for rec, row in zip(records, samples)])
