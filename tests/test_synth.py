from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion.dataset import LABEL_ORDER, EmotionLabel
from gsremotion.synth import (
    DEFAULT_COUNTS,
    DEFAULT_LABEL_BANDS,
    LabelBands,
    SynthConfig,
    generate_dataset,
    generate_record,
)


def quiet_bands(n_events=(0, 0)):
    return LabelBands(
        n_events=n_events,
        amplitude_us=(0.5, 0.5),
        tonic_offset_us=(0.0, 0.0),
        drift_us_per_s=(0.03, 0.03),
    )


def test_generate_record_is_deterministic():
    config = SynthConfig(duration_s=16.0, seed=9)
    a = generate_record(EmotionLabel.FEAR, 123, config)
    b = generate_record(EmotionLabel.FEAR, 123, config)
    assert_array_equal(a.samples, b.samples)
    c = generate_record(EmotionLabel.FEAR, 124, config)
    assert not np.array_equal(a.samples, c.samples)


def test_zero_events_zero_noise_is_pure_drift():
    bands = {lab: quiet_bands() for lab in EmotionLabel}
    config = SynthConfig(duration_s=16.0, noise_std_us=0.0, label_bands=bands)
    rec = generate_record(EmotionLabel.CALM, 5, config)
    d2 = np.diff(rec.samples, n=2)
    np.testing.assert_allclose(d2, 0.0, atol=1e-9)
    d1 = np.diff(rec.samples)
    np.testing.assert_allclose(d1, 0.03 / 16.0, rtol=1e-9)


def test_events_raise_first_difference_energy():
    # noise off so the contrast is events alone
    config = SynthConfig(duration_s=60.0, noise_std_us=0.0, seed=1)
    calm = generate_record(EmotionLabel.CALM, 1, config)
    anger = generate_record(EmotionLabel.ANGER, 1, config)
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


def test_subject_tonic_shared_within_subject():
    # two zero-noise, zero-event calm records of one subject start at the
    # same tonic level because the base is drawn per subject, not per record
    bands = {lab: quiet_bands() for lab in EmotionLabel}
    counts = {lab: 2 for lab in EmotionLabel}
    config = SynthConfig(per_label_counts=counts, duration_s=16.0,
                         noise_std_us=0.0, label_bands=bands, seed=3)
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


def test_event_count_scales_with_duration():
    # zero noise, single event band: a 30 s anger record halves its events;
    # count them as upward jumps in the derivative well above drift level
    def count_events(duration):
        bands = {lab: LabelBands(n_events=DEFAULT_LABEL_BANDS[lab].n_events,
                                 amplitude_us=(1.0, 1.0),
                                 tonic_offset_us=(0.0, 0.0),
                                 drift_us_per_s=(0.0, 0.0))
                 for lab in EmotionLabel}
        config = SynthConfig(duration_s=duration, noise_std_us=0.0,
                             label_bands=bands, seed=2)
        rec = generate_record(EmotionLabel.ANGER, 7, config)
        d1 = np.diff(rec.samples)
        rising = d1 > 0.05
        starts = np.sum(rising[1:] & ~rising[:-1]) + int(rising[0])
        return int(starts)

    assert count_events(60.0) == 14
    assert count_events(30.0) == 7


class TestLabelBandsValidation:
    def test_lower_bound_above_upper(self):
        with pytest.raises(ValueError, match="amplitude_us"):
            LabelBands(n_events=(1, 2), amplitude_us=(2.0, 1.0),
                       tonic_offset_us=(0.0, 0.0), drift_us_per_s=(0.0, 0.1))

    def test_negative_event_count(self):
        with pytest.raises(ValueError, match="n_events"):
            LabelBands(n_events=(-1, 2), amplitude_us=(0.1, 0.2),
                       tonic_offset_us=(0.0, 0.0), drift_us_per_s=(0.0, 0.1))

    def test_decay_must_exceed_rise(self):
        with pytest.raises(ValueError, match="decay_s"):
            LabelBands(n_events=(1, 2), amplitude_us=(0.1, 0.2),
                       tonic_offset_us=(0.0, 0.0), drift_us_per_s=(0.0, 0.1),
                       rise_s=(0.5, 1.0), decay_s=(0.9, 2.0))


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

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std_us"):
            SynthConfig(noise_std_us=-0.1)

    def test_label_bands_type_check(self):
        with pytest.raises(ValueError, match="label_bands"):
            SynthConfig(label_bands={EmotionLabel.CALM: "not bands"})

    def test_n_samples(self):
        assert SynthConfig(duration_s=16.0, sample_rate_hz=16.0).n_samples == 256
