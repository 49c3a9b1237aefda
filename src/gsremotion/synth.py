"""Synthetic GSR corpus generator.

Each record is subject tonic level + label-dependent offset + linear drift
+ phasic events + Gaussian noise. A phasic event is a difference-of-
exponentials bump (fast rise, slow decay) scaled to a target peak
amplitude. Emotions differ by event rate, event amplitude and tonic offset,
with bands chosen so classes overlap at the edges but separate under the
full pipeline.

The tonic base is drawn once per subject, so all of a subject's records sit
on the same resting level and calm-baseline normalization genuinely cancels
the subject effect. Generation is fully deterministic: every record's draws
come from one seeded generator consumed in a fixed order, and dataset-level
seeds are derived by seed-sequence composition.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import LABEL_ORDER, MIN_SAMPLES, Dataset, EmotionLabel, GsrRecord

POSITIVITY_FLOOR_US = 1e-3

# Resting conductance band shared by all subjects.
SUBJECT_TONIC_US = (2.5, 5.5)

# Default per-label record counts for a generated corpus.
DEFAULT_COUNTS = {
    EmotionLabel.HAPPINESS: 57,
    EmotionLabel.GRIEF: 51,
    EmotionLabel.FEAR: 47,
    EmotionLabel.ANGER: 43,
    EmotionLabel.CALM: 59,
}


@dataclass(frozen=True)
class LabelBands:
    """Uniform sampling bands for one emotion's response parameters.

    n_events is per 60 s and scales with record duration. Amplitudes are
    peak heights in microsiemens; tonic_offset_us shifts the subject's
    resting level.
    """

    n_events: tuple
    amplitude_us: tuple
    tonic_offset_us: tuple


# Every label shares the same slow upward drift so the calm min-max range,
# which later normalizes all of a subject's records, spans a stable ~1.9 uS
# regardless of subject or seed, and the same event rise and decay times.
# Emotions then differ by tonic offset, event count and event amplitude.
# Amplitude and offset bands of neighboring labels overlap on purpose: no
# single draw separates the classes, only the joint statistics do. These
# values are tuned once against the classification pipeline and frozen.
DRIFT_US_PER_S = (0.0318, 0.0322)
EVENT_RISE_S = (0.6, 0.9)
EVENT_DECAY_S = (4.2, 4.8)

LABEL_BANDS = {
    EmotionLabel.CALM: LabelBands(
        n_events=(1, 2), amplitude_us=(0.04, 0.06),
        tonic_offset_us=(0.0, 0.0),
    ),
    EmotionLabel.GRIEF: LabelBands(
        n_events=(4, 4), amplitude_us=(0.84, 0.94),
        tonic_offset_us=(0.15, 0.40),
    ),
    EmotionLabel.HAPPINESS: LabelBands(
        n_events=(7, 7), amplitude_us=(0.94, 1.06),
        tonic_offset_us=(0.35, 0.65),
    ),
    EmotionLabel.FEAR: LabelBands(
        n_events=(10, 10), amplitude_us=(1.02, 1.14),
        tonic_offset_us=(0.60, 0.95),
    ),
    EmotionLabel.ANGER: LabelBands(
        n_events=(14, 14), amplitude_us=(1.04, 1.16),
        tonic_offset_us=(0.90, 1.30),
    ),
}


@dataclass
class SynthConfig:
    """Corpus-level generation parameters."""

    per_label_counts: dict = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    duration_s: float = 60.0
    sample_rate_hz: float = 16.0
    seed: int = 42
    noise_std_us: float = 0.02

    def __post_init__(self):
        if not self.per_label_counts:
            raise ValueError("per_label_counts must not be empty")
        for lab, count in self.per_label_counts.items():
            if not isinstance(lab, EmotionLabel):
                raise ValueError(f"per_label_counts key {lab!r} is not an EmotionLabel")
            if count < 0:
                raise ValueError(f"count for {lab.value} cannot be negative")
        if not any(c > 0 for c in self.per_label_counts.values()):
            raise ValueError("at least one label needs a positive count")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not 0 < self.duration_s < np.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(
                f"duration {self.duration_s}s at {self.sample_rate_hz}Hz yields fewer "
                f"than {MIN_SAMPLES} samples"
            )
        if self.noise_std_us < 0:
            raise ValueError(f"noise_std_us cannot be negative, got {self.noise_std_us}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


def _bump(t: np.ndarray, t0: float, amplitude: float, rise: float,
          decay: float) -> np.ndarray:
    """Difference-of-exponentials event, peak-normalized to `amplitude`."""
    s = t - t0
    active = s >= 0.0
    out = np.zeros_like(t)
    sa = s[active]
    shape = np.exp(-sa / decay) - np.exp(-sa / rise)
    # peak of exp(-s/d) - exp(-s/r) sits at s* = ln(d/r) * r*d/(d-r)
    s_star = np.log(decay / rise) * rise * decay / (decay - rise)
    peak = np.exp(-s_star / decay) - np.exp(-s_star / rise)
    out[active] = amplitude * shape / peak
    return out


def generate_record(label: EmotionLabel, seed, config: SynthConfig, subject_id: str,
                    record_id: str, base_tonic_us: float) -> GsrRecord:
    """One deterministic record for (label, seed, config) on the subject's
    resting level base_tonic_us."""
    bands = LABEL_BANDS[label]
    rng = np.random.default_rng(seed)
    n = config.n_samples
    t = np.arange(n) / config.sample_rate_hz

    tonic = base_tonic_us + rng.uniform(*bands.tonic_offset_us)
    drift = rng.uniform(*DRIFT_US_PER_S)
    scale = config.duration_s / 60.0
    ev_lo = int(round(bands.n_events[0] * scale))
    ev_hi = int(round(bands.n_events[1] * scale))
    n_events = int(rng.integers(ev_lo, ev_hi + 1))
    signal = tonic + drift * t
    # Events sit on a jittered grid rather than fully at random: even spacing
    # keeps per-record event energy stable, and capping the last slot keeps
    # every bump's tail inside the record.
    latest = max(config.duration_s - 3.0 * EVENT_DECAY_S[1], config.duration_s * 0.5)
    slot = (latest - 1.0) / n_events if n_events else 0.0
    for k in range(n_events):
        center = 1.0 + (k + 0.5) * slot
        t0 = center + rng.uniform(-0.3, 0.3) * slot
        amplitude = rng.uniform(*bands.amplitude_us)
        rise = rng.uniform(*EVENT_RISE_S)
        decay = rng.uniform(*EVENT_DECAY_S)
        signal = signal + _bump(t, t0, amplitude, rise, decay)
    signal = signal + rng.standard_normal(n) * config.noise_std_us
    signal = np.maximum(signal, POSITIVITY_FLOOR_US)
    return GsrRecord(
        record_id=record_id,
        subject_id=subject_id,
        label=label,
        sample_rate_hz=config.sample_rate_hz,
        samples=signal,
    )


def generate_dataset(config: SynthConfig) -> Dataset:
    """Full corpus: counts per config, subjects assigned round-robin.

    The number of subjects equals the smallest positive per-label count, so
    every subject receives at least one record of every label (in particular
    a calm record, which baseline normalization requires). Each subject's
    tonic base is drawn once and shared by all their records.
    """
    positive = [c for c in config.per_label_counts.values() if c > 0]
    num_subjects = max(min(positive), 1)
    subject_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5AB]))
    subject_base = subject_rng.uniform(*SUBJECT_TONIC_US, size=num_subjects)
    records = []
    for lab_idx, label in enumerate(LABEL_ORDER):
        count = config.per_label_counts.get(label, 0)
        for seq in range(count):
            subject_idx = seq % num_subjects
            subject = f"S{subject_idx + 1:02d}"
            child_seed = np.random.SeedSequence([config.seed, lab_idx, seq])
            record = generate_record(
                label, child_seed, config, subject_id=subject,
                record_id=f"{subject}_{label.value}_{seq + 1:03d}",
                base_tonic_us=float(subject_base[subject_idx]),
            )
            records.append(record)
    return Dataset(records=records)
