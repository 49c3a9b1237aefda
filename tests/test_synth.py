import hashlib
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import signal_reference as ref
from gsremotion import synth
from gsremotion.dataset import LABEL_ORDER, EmotionLabel
from gsremotion.synth import (
    DEFAULT_COUNTS,
    SUBJECT_TONIC_US,
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


def corpus_digest(dataset) -> str:
    """sha256 of every record's id, subject, label, rate and sample bytes, in order."""
    digest = hashlib.sha256()
    for rec in dataset:
        digest.update(f"{rec.record_id}|{rec.subject_id}|{rec.label.value}|"
                      f"{rec.sample_rate_hz!r}\n".encode())
        digest.update(rec.samples.astype("<f8").tobytes())
    return digest.hexdigest()


class TestGoldenCorpora:
    """Seed-42 corpora whose bits are frozen: each digest was computed by the
    record-at-a-time generator that the block generator replaced."""

    GOLDEN = {
        "default": ({}, "ecffb869f9fe5f9afe90e3f4123d5cf8ab8e5f28efb1ed2fcb440e1a92c58e67"),
        "8x": ({"per_label_counts": {lab: 8 * n for lab, n in DEFAULT_COUNTS.items()}},
               "d08ac9a95129cd0a5d9e40c7902f5b7d777f9fee3e900eb43769e74bb098eca5"),
        "37.3s-9hz": ({"duration_s": 37.3, "sample_rate_hz": 9.0},
                      "aa2c7659905222cb7b6b30935349195c421a4514e6d8dbf6466595385d0b48b3"),
        # the shortest records at 64 samples: no record has an event
        "1s-64hz": ({"duration_s": 1.0, "sample_rate_hz": 64.0},
                    "dd1ef0d61a23945a1d94cdbd97a20d2f3287496ebe89506b9b5e9de9f515da54"),
        # long records: a pre-onset cell lies up to 600 s before its event
        "600s": ({"duration_s": 600.0, "per_label_counts": {lab: 4 for lab in EmotionLabel}},
                 "92d9a76b8d2d047c8a7b7ae34f8d09a0ecd5a3bb2620079810ad641651069670"),
        "noise0": ({"noise_std_us": 0.0},
                   "f682879c15ec10d685b9d5ca36cc485f9007c8abbf276428c1fa3cb4e16ed071"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_corpus_keeps_its_bits(self, name):
        overrides, expected = self.GOLDEN[name]
        assert corpus_digest(generate_dataset(SynthConfig(seed=42, **overrides))) == expected


@pytest.mark.parametrize("seed,counts,duration,rate,noise", [
    (5, (3, 0, 2, 5, 4), 23.7, 7.5, 0.3),
    (11, (1, 1, 1, 1, 1), 200.0, 4.0, 0.02),
    (2024, (70, 2, 0, 3, 9), 64.3, 16.0, 0.0),
    (7, (0, 0, 0, 0, 3), 4.0, 50.0, 0.02),
    # long records, whose events skip the cells past 40 slowest decay times
    # after a slot's latest onset, which the reference adds them to
    (42, (1, 1, 1, 1, 1), 3_600.0, 4.0, 0.02),
    (42, (1, 1, 1, 1, 1), 36_000.0, 0.01, 0.02),
])
def test_block_generator_matches_the_record_reference(seed, counts, duration, rate, noise):
    config = SynthConfig(per_label_counts=dict(zip(LABEL_ORDER, counts)), duration_s=duration,
                         sample_rate_hz=rate, seed=seed, noise_std_us=noise)
    expected = ref.generate_dataset(config)
    assert corpus_digest(generate_dataset(config)) == corpus_digest(expected)


class TestBlockIndependence:
    """A record's samples do not depend on the block it is computed in."""

    def test_block_size_does_not_move_any_bit(self, monkeypatch, default_corpus):
        expected = corpus_digest(default_corpus)
        for rows in (1, 7, 100):
            monkeypatch.setattr(synth, "_BLOCK_ROWS", rows)
            assert corpus_digest(generate_dataset(SynthConfig(seed=42))) == expected

    def test_shifted_record_keeps_its_bits(self, default_corpus):
        # 13 more happiness records push every later record 13 rows along,
        # across block boundaries; the subject count (43) stays the same
        counts = {**DEFAULT_COUNTS, EmotionLabel.HAPPINESS: 70}
        shifted = {rec.record_id: rec for rec in generate_dataset(
            SynthConfig(seed=42, per_label_counts=counts))}
        for rec in default_corpus:
            twin = shifted[rec.record_id]
            assert twin.subject_id == rec.subject_id
            assert_array_equal(twin.samples, rec.samples)

    def test_record_alone_equals_its_corpus_copy(self, default_corpus):
        base = np.random.default_rng(np.random.SeedSequence([42, 0x5AB])).uniform(
            *SUBJECT_TONIC_US, size=43)
        for position in (0, 63, 64, 130, 256):
            rec = default_corpus.records[position]
            lab_idx = LABEL_ORDER.index(rec.label)
            seq = int(rec.record_id.rsplit("_", 1)[1]) - 1
            alone = generate_record(
                rec.label, np.random.SeedSequence([42, lab_idx, seq]), SynthConfig(seed=42),
                rec.subject_id, rec.record_id, float(base[int(rec.subject_id[1:]) - 1]))
            assert_array_equal(alone.samples, rec.samples)


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

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_noise_must_be_finite(self, noise):
        with pytest.raises(ValueError, match="noise_std_us must be finite"):
            SynthConfig(noise_std_us=noise)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -16.0])
    def test_sample_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            SynthConfig(sample_rate_hz=rate)

    def test_sample_count_must_be_finite(self):
        with pytest.raises(ValueError, match="sample count that is not finite"):
            SynthConfig(duration_s=1e308, sample_rate_hz=16.0)

    @pytest.mark.parametrize("duration,rate", [(1.3e18, 1e-16), (1e19, 1e-17), (1e21, 1e-19)])
    def test_event_count_too_large_to_draw_names_duration(self, duration, rate):
        # about 100 samples, but an anger record's (n_events x 4) float64
        # events exceed numpy's size limit
        with pytest.raises(ValueError, match=r"^duration_s .* events, too many to draw"):
            SynthConfig(duration_s=duration, sample_rate_hz=rate)

    def test_event_count_that_fits_is_accepted(self):
        # 2.33e17 anger events take 7.5e18 bytes, within numpy's 9.2e18
        SynthConfig(duration_s=1e18, sample_rate_hz=1e-16)

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
