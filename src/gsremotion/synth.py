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
come from its own generator, seeded by SeedSequence([seed, label index,
sequence number]) and consumed in a fixed order (_draw).

Generation runs in two parts. The draws are made record by record; the
arithmetic (drift line, events, noise, positivity floor) then runs on up to
_BLOCK_ROWS records at once as one (rows x samples) array. Every step of it
is elementwise per row, in the order one record alone would take it, so a
record's bits do not depend on the block it is in, nor on where in the
block it sits: a corpus generated in blocks of any size, and a record
generated alone (a block of one), carry the same bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    _BLOCK_ROWS,
    LABEL_ORDER,
    MIN_SAMPLES,
    Dataset,
    EmotionLabel,
    GsrRecord,
)

POSITIVITY_FLOOR_US = 1e-3

# The most bytes numpy lets one array hold.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max

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
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}")
        if not 0 < self.duration_s < np.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not self.duration_s * self.sample_rate_hz < np.inf:
            raise ValueError(f"duration {self.duration_s}s at {self.sample_rate_hz}Hz "
                             "yields a sample count that is not finite")
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(
                f"duration {self.duration_s}s at {self.sample_rate_hz}Hz yields fewer "
                f"than {MIN_SAMPLES} samples"
            )
        # _draw takes a record's events as one (n_events x 4) float64 array; a
        # record whose samples alone exceed numpy's size limit is refused when
        # its block is allocated
        most_events = max(round(bands.n_events[1] * (self.duration_s / 60.0))
                          for bands in LABEL_BANDS.values())
        if 4 * 8 * most_events > _MAX_ARRAY_BYTES >= 8 * self.n_samples:
            raise ValueError(f"duration_s {self.duration_s} gives a record up to "
                             f"{most_events:.3g} events, too many to draw as one array")
        if self.noise_std_us < 0:
            raise ValueError(f"noise_std_us cannot be negative, got {self.noise_std_us}")
        if not self.noise_std_us < np.inf:
            raise ValueError(f"noise_std_us must be finite, got {self.noise_std_us}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


def _event_shape(s, rise, decay):
    """exp(-s/decay) - exp(-s/rise): the difference-of-exponentials event
    (fast rise, slow decay) at s seconds after onset, elementwise.

    s must not be negative: a large negative s overflows exp. At s = 0 the
    shape is exactly 0.0, so a pre-onset cell clipped to 0 gets a bump of
    0.0, and adding it keeps the cell's bits.
    """
    slow, fast = (np.exp(-s / tau) for tau in (decay, rise))
    return slow - fast


def _draw(label: EmotionLabel, seed, config: SynthConfig, base_tonic_us: float,
          noise: np.ndarray):
    """One record's draws from its own generator, in a fixed order: tonic
    offset, drift, event count, the events' four uniforms as one
    (n_events x 4) call, then the standard-normal noise, written into noise.

    Returns (tonic, drift, events), events an (n_events x 4) array of onset
    t0, peak amplitude, rise and decay per event.
    """
    bands = LABEL_BANDS[label]
    rng = np.random.default_rng(seed)
    tonic = base_tonic_us + rng.uniform(*bands.tonic_offset_us)
    drift = rng.uniform(*DRIFT_US_PER_S)
    scale = config.duration_s / 60.0
    ev_lo = int(round(bands.n_events[0] * scale))
    ev_hi = int(round(bands.n_events[1] * scale))
    n_events = int(rng.integers(ev_lo, ev_hi + 1))
    # Events sit on a jittered grid rather than fully at random: even spacing
    # keeps per-record event energy stable, and capping the last slot keeps
    # every bump's tail inside the record.
    latest = max(config.duration_s - 3.0 * EVENT_DECAY_S[1], config.duration_s * 0.5)
    slot = (latest - 1.0) / n_events if n_events else 0.0
    events = rng.uniform(
        (-0.3, bands.amplitude_us[0], EVENT_RISE_S[0], EVENT_DECAY_S[0]),
        (0.3, bands.amplitude_us[1], EVENT_RISE_S[1], EVENT_DECAY_S[1]),
        size=(n_events, 4),
    )
    centers = 1.0 + (np.arange(n_events) + 0.5) * slot
    events[:, 0] = centers + events[:, 0] * slot
    rng.standard_normal(out=noise)
    return tonic, drift, events


def _generate_block(specs: list, config: SynthConfig) -> list:
    """Records for specs, a list of (label, seed, subject_id, record_id,
    base_tonic_us), computed as one (rows x samples) block.

    Every step is elementwise per row, in the order a single record would
    take it, so a record's bits do not depend on the block it is in.
    """
    rows, n = len(specs), config.n_samples
    try:
        noise = np.empty((rows, n))
    except ValueError:  # numpy's refusal of a shape whose bytes it cannot index
        raise MemoryError(f"{rows} records of {n:.3g} samples exceed numpy's array size "
                          "limit") from None
    tonic, drift, counts = np.empty(rows), np.empty(rows), np.empty(rows, dtype=np.intp)
    drawn = []
    for i, (label, seed, _, _, base) in enumerate(specs):
        tonic[i], drift[i], events = _draw(label, seed, config, base, noise[i])
        counts[i] = len(events)
        drawn.append(events)
    events = np.zeros((rows, counts.max(), 4))
    for i, row in enumerate(drawn):
        events[i, :counts[i]] = row

    t = np.arange(n) / config.sample_rate_hz
    signal = tonic[:, None] + drift[:, None] * t
    for k in range(events.shape[1]):
        have = counts > k
        at = slice(None) if have.all() else np.flatnonzero(have)
        t0, amplitude, rise, decay = events[at, k].T
        # every cell before column c0 precedes each row's event k, and from
        # column c1 on every cell lies over 40 * EVENT_DECAY_S[1] = 192 s after
        # it. There a bump is below amplitude / peak * exp(-40) <= 1.16 / 0.516
        # * 4.25e-18 < 1e-17, while the cell holds at least tonic + drift * t
        # > 0 + 0.0318 * 192 > 6.1 uS (every tonic level SUBJECT_TONIC_US gives
        # is >= 2.5 uS), whose half-ulp is 4.4e-16: skipping those cells keeps
        # every bit.
        c0 = int(np.searchsorted(t, t0.min()))
        c1 = int(np.searchsorted(t, t0.max() + 40.0 * EVENT_DECAY_S[1], side="right"))
        s = t[c0:c1] - t0[:, None]
        np.maximum(s, 0.0, out=s)
        # peak of exp(-s/d) - exp(-s/r) sits at s* = ln(d/r) * r*d/(d-r)
        s_star = np.log(decay / rise) * rise * decay / (decay - rise)
        peak = _event_shape(s_star, rise, decay)
        bump = amplitude[:, None] * _event_shape(s, rise[:, None], decay[:, None])
        bump /= peak[:, None]
        signal[at, c0:c1] += bump
    noise *= config.noise_std_us
    signal += noise
    np.maximum(signal, POSITIVITY_FLOOR_US, out=signal)
    return [
        GsrRecord(record_id=record_id, subject_id=subject_id, label=label,
                  sample_rate_hz=config.sample_rate_hz, samples=signal[i])
        for i, (label, _, subject_id, record_id, _) in enumerate(specs)
    ]


def generate_dataset(config: SynthConfig) -> Dataset:
    """Full corpus: counts per config, subjects assigned round-robin.

    The number of subjects equals the smallest positive per-label count, so
    every subject receives at least one record of every label (in particular
    a calm record, which baseline normalization requires). Each subject's
    tonic base is drawn once and shared by all their records. Records are
    computed _BLOCK_ROWS at a time.
    """
    positive = [c for c in config.per_label_counts.values() if c > 0]
    num_subjects = max(min(positive), 1)
    subject_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5AB]))
    subject_base = subject_rng.uniform(*SUBJECT_TONIC_US, size=num_subjects)
    specs = []
    for lab_idx, label in enumerate(LABEL_ORDER):
        for seq in range(config.per_label_counts.get(label, 0)):
            subject_idx = seq % num_subjects
            subject = f"S{subject_idx + 1:02d}"
            specs.append((label, np.random.SeedSequence([config.seed, lab_idx, seq]),
                          subject, f"{subject}_{label.value}_{seq + 1:03d}",
                          float(subject_base[subject_idx])))
    records = []
    for start in range(0, len(specs), _BLOCK_ROWS):
        records += _generate_block(specs[start:start + _BLOCK_ROWS], config)
    return Dataset(records=records)
