from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion import synth
from gsremotion.dataset import LABEL_ORDER, EmotionLabel
from gsremotion.synth import (
    DEFAULT_COUNTS,
    LabelBands,
    SynthConfig,
    generate_dataset,
    generate_record,
)


def record(label, seed, config):
    return generate_record(label, seed, config, "S01", f"S01_{label.value}_001", 4.0)


@pytest.fixture
def quiet_table(monkeypatch):
    """No events, no tonic offset and a fixed 0.03 uS/s drift for every label."""
    quiet = LabelBands(n_events=(0, 0), amplitude_us=(0.5, 0.5), tonic_offset_us=(0.0, 0.0))
    monkeypatch.setattr(synth, "LABEL_BANDS", {lab: quiet for lab in EmotionLabel})
    monkeypatch.setattr(synth, "DRIFT_US_PER_S", (0.03, 0.03))


class TestLabelBandsValidation:
    """The frozen label table and its shared bands keep their invariants."""

    def bands(self):
        shared = [synth.DRIFT_US_PER_S, synth.EVENT_RISE_S, synth.EVENT_DECAY_S]
        return shared + [band for entry in synth.LABEL_BANDS.values()
                         for band in (entry.n_events, entry.amplitude_us,
                                      entry.tonic_offset_us)]

    def test_lower_bound_above_upper(self):
        assert all(lo <= hi for lo, hi in self.bands())

    def test_negative_event_count(self):
        for entry in synth.LABEL_BANDS.values():
            assert entry.n_events[0] >= 0 and entry.amplitude_us[0] >= 0

    def test_decay_must_exceed_rise(self):
        assert 0 < synth.EVENT_RISE_S[0]
        assert synth.EVENT_RISE_S[1] < synth.EVENT_DECAY_S[0]


def test_generate_record_is_deterministic():
    config = SynthConfig(duration_s=16.0, seed=9)
    a = record(EmotionLabel.FEAR, 123, config)
    b = record(EmotionLabel.FEAR, 123, config)
    assert_array_equal(a.samples, b.samples)
    c = record(EmotionLabel.FEAR, 124, config)
    assert not np.array_equal(a.samples, c.samples)


def test_zero_events_zero_noise_is_pure_drift(quiet_table):
    config = SynthConfig(duration_s=16.0, noise_std_us=0.0)
    rec = record(EmotionLabel.CALM, 5, config)
    d2 = np.diff(rec.samples, n=2)
    np.testing.assert_allclose(d2, 0.0, atol=1e-9)
    d1 = np.diff(rec.samples)
    np.testing.assert_allclose(d1, 0.03 / 16.0, rtol=1e-9)


def test_events_raise_first_difference_energy():
    # noise off so the contrast is events alone
    config = SynthConfig(duration_s=60.0, noise_std_us=0.0, seed=1)
    calm = record(EmotionLabel.CALM, 1, config)
    anger = record(EmotionLabel.ANGER, 1, config)
    calm_d1 = np.mean(np.abs(np.diff(calm.samples)))
    anger_d1 = np.mean(np.abs(np.diff(anger.samples)))
    assert anger_d1 > 3.0 * calm_d1


def test_samples_stay_positive(default_corpus):
    for rec in default_corpus:
        assert np.all(rec.samples > 0.0)


def test_default_corpus_shape(default_corpus):
    assert len(default_corpus) == 257
    assert Counter(rec.label for rec in default_corpus) == DEFAULT_COUNTS
    ids = [rec.record_id for rec in default_corpus]
    assert len(set(ids)) == 257


def test_every_subject_has_a_calm_record(default_corpus):
    with_calm = {r.subject_id for r in default_corpus if r.label is EmotionLabel.CALM}
    assert {r.subject_id for r in default_corpus} == with_calm


def test_records_grouped_in_label_order(default_corpus):
    labels = [rec.label for rec in default_corpus]
    boundaries = [lab for i, lab in enumerate(labels) if i == 0 or labels[i - 1] != lab]
    assert boundaries == list(LABEL_ORDER)


def test_subject_tonic_shared_within_subject(quiet_table):
    # two zero-noise, zero-event calm records of one subject start at the
    # same tonic level because the base is drawn per subject, not per record
    counts = {lab: 2 for lab in EmotionLabel}
    config = SynthConfig(per_label_counts=counts, duration_s=16.0,
                         noise_std_us=0.0, seed=3)
    ds = generate_dataset(config)
    calm = [r for r in ds if r.label is EmotionLabel.CALM and r.subject_id == "S01"]
    happy = [r for r in ds if r.label is EmotionLabel.HAPPINESS and r.subject_id == "S01"]
    assert calm and happy
    assert calm[0].samples[0] == pytest.approx(happy[0].samples[0], abs=1e-12)


def test_generate_dataset_is_deterministic():
    counts = {EmotionLabel.CALM: 3, EmotionLabel.ANGER: 3}
    config = SynthConfig(per_label_counts=counts, duration_s=16.0, seed=11)
    a = generate_dataset(config)
    b = generate_dataset(config)
    for ra, rb in zip(a, b):
        assert ra.record_id == rb.record_id
        assert_array_equal(ra.samples, rb.samples)


def test_event_count_scales_with_duration(monkeypatch):
    # zero noise, single event band: a 30 s anger record halves its events;
    # count them as upward jumps in the derivative well above drift level
    bands = {lab: LabelBands(n_events=entry.n_events, amplitude_us=(1.0, 1.0),
                             tonic_offset_us=(0.0, 0.0))
             for lab, entry in synth.LABEL_BANDS.items()}
    monkeypatch.setattr(synth, "LABEL_BANDS", bands)
    monkeypatch.setattr(synth, "DRIFT_US_PER_S", (0.0, 0.0))

    def count_events(duration):
        config = SynthConfig(duration_s=duration, noise_std_us=0.0, seed=2)
        rec = record(EmotionLabel.ANGER, 7, config)
        d1 = np.diff(rec.samples)
        rising = d1 > 0.05
        starts = np.sum(rising[1:] & ~rising[:-1]) + int(rising[0])
        return int(starts)

    assert count_events(60.0) == 14
    assert count_events(30.0) == 7


class TestSynthConfigValidation:
    def test_empty_counts(self):
        with pytest.raises(ValueError, match="per_label_counts"):
            SynthConfig(per_label_counts={})

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            SynthConfig(per_label_counts={EmotionLabel.CALM: -1})

    def test_all_zero_counts(self):
        with pytest.raises(ValueError, match="positive count"):
            SynthConfig(per_label_counts={EmotionLabel.CALM: 0})

    def test_too_short_record(self):
        with pytest.raises(ValueError, match="fewer"):
            SynthConfig(duration_s=2.0, sample_rate_hz=16.0)

    def test_too_short_counts_the_rounded_samples(self):
        # 3.975 s at 16 Hz rounds to 64 samples, the minimum a record may hold
        config = SynthConfig(per_label_counts={EmotionLabel.CALM: 1},
                             duration_s=3.975, sample_rate_hz=16.0)
        assert generate_dataset(config).records[0].samples.size == 64
        with pytest.raises(ValueError, match="fewer than 64"):
            SynthConfig(duration_s=3.9, sample_rate_hz=16.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0])
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="duration_s must be positive and finite"):
            SynthConfig(duration_s=duration)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std_us"):
            SynthConfig(noise_std_us=-0.1)

    def test_label_bands_type_check(self):
        # the table is frozen in the module: one LabelBands of 2-tuples per
        # label, and no config field through which a caller replaces it
        assert set(synth.LABEL_BANDS) == set(EmotionLabel)
        for entry in synth.LABEL_BANDS.values():
            assert isinstance(entry, LabelBands)
            assert all(len(band) == 2 for band in
                       (entry.n_events, entry.amplitude_us, entry.tonic_offset_us))
        with pytest.raises(TypeError, match="label_bands"):
            SynthConfig(label_bands={EmotionLabel.CALM: "not bands"})

    def test_n_samples(self):
        assert SynthConfig(duration_s=16.0, sample_rate_hz=16.0).n_samples == 256
