import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion import preprocess
from gsremotion.dataset import Dataset, EmotionLabel, GsrRecord
from gsremotion.preprocess import NORM_MODES, preprocess_dataset, validate_norm_mode
from gsremotion.wavelet import denoise


def record(record_id, subject, label, seed=0, n=128):
    rng = np.random.default_rng(seed)
    return GsrRecord(record_id, subject, label, 16.0, 3.0 + rng.uniform(0, 1, n))


def overflowing(record_id, subject, label):
    """A valid record whose wavelet sums overflow: samples alternate +-1.5e308."""
    return GsrRecord(record_id, subject, label, 16.0, np.resize([1.5e308, -1.5e308], 128))


@pytest.fixture
def identity_denoise(monkeypatch):
    """Normalize the samples as given, so the expected values are exact by hand."""
    monkeypatch.setattr(preprocess, "denoise", lambda block: block)


def normalized(calm, other):
    """(calm, other) after "signal" preprocessing of one subject's two records."""
    ds = Dataset(records=[
        GsrRecord("c1", "S01", EmotionLabel.CALM, 16.0, np.resize(calm, 64)),
        GsrRecord("f1", "S01", EmotionLabel.FEAR, 16.0, np.resize(other, 64)),
    ])
    c1, f1 = preprocess_dataset(ds, "signal")
    return c1.samples, f1.samples


class TestNormalizationParams:
    """Each subject's (min, span) comes from its first calm record, denoised."""

    def test_fit_takes_min_and_max(self, identity_denoise):
        calm, _ = normalized([2.0, 5.0, 3.0], [2.0])
        assert_array_equal(calm, np.resize([0.0, 1.0, 1.0 / 3.0], 64))

    def test_constant_baseline_rejected(self):
        ds = Dataset(records=[GsrRecord("c1", "S01", EmotionLabel.CALM, 16.0, np.zeros(128))])
        assert_array_equal(preprocess_dataset(ds, "feature").records[0].samples, 0.0)
        with pytest.raises(ValueError, match="calm record 'c1' is constant after denoising"):
            preprocess_dataset(ds, "signal")

    def test_non_finite_baseline_rejected(self):
        ds = Dataset(records=[
            record("c0", "S01", EmotionLabel.CALM, seed=1),
            overflowing("c1", "S02", EmotionLabel.CALM),
            overflowing("f1", "S02", EmotionLabel.FEAR),
        ])
        for mode in NORM_MODES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the overflow must not warn on its way
                with pytest.raises(ValueError, match="record 'c1' has non-finite values"):
                    preprocess_dataset(ds, mode)


class TestNormalizeSignal:
    """Every record of the subject maps through (x - min) / span."""

    def test_maps_range_to_unit_interval(self, identity_denoise):
        _, out = normalized([2.0, 5.0, 3.0], [2.0, 5.0, 3.5])
        assert_array_equal(out, np.resize([0.0, 1.0, 0.5], 64))

    def test_values_outside_range_are_not_clipped(self, identity_denoise):
        _, out = normalized([2.0, 5.0, 3.0], [6.5, 0.5])
        assert_array_equal(out, np.resize([1.5, -0.5], 64))

    def test_is_affine(self, identity_denoise):
        x = np.random.default_rng(1).uniform(0, 10, 64)
        _, out = normalized([2.0, 5.0, 3.0], x)
        assert_array_equal(out, (x - 2.0) / 3.0)


def test_preprocess_record_denoises_and_keeps_metadata():
    rec = record("r9", "S03", EmotionLabel.GRIEF, seed=4)
    (out,) = preprocess_dataset(Dataset(records=[rec]), "feature")
    assert out.record_id == "r9"
    assert out.subject_id == "S03"
    assert out.label is EmotionLabel.GRIEF
    assert out.sample_rate_hz == rec.sample_rate_hz
    assert_array_equal(out.samples, denoise(rec.samples))


@pytest.mark.parametrize("mode", NORM_MODES)
def test_validate_norm_mode_accepts_known(mode):
    assert validate_norm_mode(mode) == mode


def test_validate_norm_mode_rejects_unknown():
    with pytest.raises(ValueError, match="norm mode"):
        validate_norm_mode("zscore")


class TestPreprocessDataset:
    def dataset(self):
        return Dataset(records=[
            record("c1", "S01", EmotionLabel.CALM, seed=1),
            record("f1", "S01", EmotionLabel.FEAR, seed=2),
            record("c2", "S01", EmotionLabel.CALM, seed=3),
            record("c3", "S02", EmotionLabel.CALM, seed=4),
            record("a1", "S02", EmotionLabel.ANGER, seed=5),
        ])

    def test_feature_mode_only_denoises(self):
        ds = self.dataset()
        out = preprocess_dataset(ds, "feature")
        for before, after in zip(ds, out):
            assert_array_equal(after.samples, denoise(before.samples))

    @pytest.mark.parametrize("mode", ["signal", "both"])
    def test_signal_mode_scales_by_first_calm_of_subject(self, mode):
        ds = self.dataset()
        out = preprocess_dataset(ds, mode)
        # re-derive subject S01's range from its first calm record, denoised
        base = denoise(ds.records[0].samples)
        span = base.max() - base.min()
        expect = (denoise(ds.records[1].samples) - base.min()) / span
        got = next(r for r in out if r.record_id == "f1").samples
        assert_array_equal(got, expect)

    def test_first_calm_wins_over_later_ones(self):
        ds = self.dataset()
        out = preprocess_dataset(ds, "signal")
        # the c2 calm record of S01 must be scaled by c1's range, not its own
        c1 = denoise(ds.records[0].samples)
        got = next(r for r in out if r.record_id == "c2").samples
        expect = (denoise(ds.records[2].samples) - c1.min()) / (c1.max() - c1.min())
        assert_array_equal(got, expect)

    def test_missing_calm_subject_is_an_error(self):
        ds = Dataset(records=[
            record("c1", "S01", EmotionLabel.CALM, seed=1),
            record("f1", "S01", EmotionLabel.FEAR, seed=2),
            record("a1", "S02", EmotionLabel.ANGER, seed=5),
        ])
        with pytest.raises(ValueError, match="S02"):
            preprocess_dataset(ds, "signal")

    def test_feature_mode_needs_no_calm(self):
        ds = Dataset(records=[record("a1", "S02", EmotionLabel.ANGER, seed=5)])
        out = preprocess_dataset(ds, "feature")
        assert len(out) == 1

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="norm mode"):
            preprocess_dataset(self.dataset(), "minmax")
