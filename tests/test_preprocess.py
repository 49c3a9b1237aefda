import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gsremotion.dataset import Dataset, EmotionLabel, GsrRecord
from gsremotion.preprocess import (
    NORM_MODES,
    NormalizationParams,
    fit_calm_baseline,
    normalize_signal,
    preprocess_dataset,
    validate_norm_mode,
)
from gsremotion.wavelet import denoise


def record(record_id, subject, label, seed=0, n=128):
    rng = np.random.default_rng(seed)
    return GsrRecord(record_id, subject, label, 16.0, 3.0 + rng.uniform(0, 1, n))


class TestNormalizationParams:
    def test_fit_takes_min_and_max(self):
        params = fit_calm_baseline(np.array([2.0, 5.0, 3.0]))
        assert params.x_min == 2.0
        assert params.x_max == 5.0
        assert params.span == 3.0

    def test_constant_baseline_rejected(self):
        with pytest.raises(ValueError, match="x_max"):
            fit_calm_baseline(np.array([4.0, 4.0, 4.0]))

    def test_non_finite_baseline_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_calm_baseline(np.array([1.0, np.nan, 2.0]))

    def test_empty_baseline_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_calm_baseline(np.array([]))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            NormalizationParams(x_min=5.0, x_max=2.0)


class TestNormalizeSignal:
    def test_maps_range_to_unit_interval(self):
        params = NormalizationParams(x_min=2.0, x_max=5.0)
        out = normalize_signal(np.array([2.0, 5.0, 3.5]), params)
        assert_allclose(out, [0.0, 1.0, 0.5])

    def test_values_outside_range_are_not_clipped(self):
        params = NormalizationParams(x_min=2.0, x_max=5.0)
        out = normalize_signal(np.array([6.5, 0.5]), params)
        assert_allclose(out, [1.5, -0.5])

    def test_is_affine(self):
        params = NormalizationParams(x_min=2.0, x_max=5.0)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 50)
        y = rng.uniform(0, 10, 50)
        gx = normalize_signal(x, params)
        gy = normalize_signal(y, params)
        # affine maps commute with convex combinations
        assert_allclose(normalize_signal(0.3 * x + 0.7 * y, params),
                        0.3 * gx + 0.7 * gy, rtol=1e-12)


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
