import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gsremotion import wavelet
from gsremotion.wavelet import (
    MAD_SCALE,
    FilterBank,
    WaveletDecomposition,
    coefficient_lengths,
    daubechies_filter_bank,
    denoise,
    dwt_decompose,
    dwt_reconstruct,
    soft_threshold,
)

from reference_checks import validate_filter_bank
from signal_reference import dwt_decompose as reference_decompose


class TestFilterBank:
    def test_db5_has_10_taps(self):
        bank = daubechies_filter_bank()
        assert bank.length == 10

    def test_lowpass_sums_to_sqrt2(self):
        bank = daubechies_filter_bank()
        assert abs(bank.lowpass_decomp.sum() - np.sqrt(2.0)) <= 1e-12

    def test_highpass_sums_to_zero(self):
        bank = daubechies_filter_bank()
        assert abs(bank.highpass_decomp.sum()) <= 1e-12

    def test_even_shift_orthonormality(self):
        lo = daubechies_filter_bank().lowpass_decomp
        n = lo.size
        for k in range(n // 2):
            got = float(np.dot(lo[2 * k:], lo[:n - 2 * k]))
            expect = 1.0 if k == 0 else 0.0
            assert abs(got - expect) <= 1e-10, f"shift {2 * k}"

    def test_highpass_is_alternating_flip(self):
        bank = daubechies_filter_bank()
        lo, hi = bank.lowpass_decomp, bank.highpass_decomp
        n = lo.size
        alt = np.array([(-1.0) ** i * lo[n - 1 - i] for i in range(n)])
        assert_allclose(hi, alt, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_validate_accepts_every_order(self, order):
        # the spectral factorization at every order, made into a bank as db5 is
        lo = wavelet._daubechies_scaling(order)[::-1]
        hi = (-1.0) ** np.arange(lo.size) * lo[::-1]
        validate_filter_bank(FilterBank(lowpass_decomp=lo, highpass_decomp=hi))

    def test_validate_rejects_corrupt_bank(self):
        good = daubechies_filter_bank()
        lo = good.lowpass_decomp.copy()
        lo[0] += 1e-3
        bad = FilterBank(lowpass_decomp=lo, highpass_decomp=good.highpass_decomp)
        with pytest.raises(ValueError, match="invalid filter bank"):
            validate_filter_bank(bad)

    def test_bank_is_cached(self):
        assert daubechies_filter_bank() is daubechies_filter_bank()


class TestRoundTrip:
    @pytest.mark.parametrize("n", [64, 100, 257, 512])
    def test_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        back = dwt_reconstruct(dwt_decompose(x))
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_reconstruction_at_every_depth(self, levels):
        """dwt_reconstruct inverts an analysis of any depth; the library
        analyses at DEFAULT_LEVELS, so the reference analyses here."""
        rng = np.random.default_rng(levels)
        x = rng.standard_normal(200)
        back = dwt_reconstruct(reference_decompose(x, levels=levels))
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    def test_constant_signal_has_no_detail(self):
        x = np.full(256, 4.2)
        dec = dwt_decompose(x)
        for det in dec.details:
            assert np.max(np.abs(det)) <= 1e-10

    def test_coefficient_lengths_match_decomposition(self):
        x = np.random.default_rng(0).standard_normal(257)
        dec = dwt_decompose(x)
        lengths = coefficient_lengths(257, 5)
        assert lengths == [257, 133, 71, 40, 25, 17]
        assert [d.size for d in dec.details] == lengths[1:]
        assert dec.approximation.size == lengths[-1]

    def test_energy_preserved_away_from_boundaries(self):
        # orthonormal filters preserve energy exactly when nothing spills
        # into the padded regions: keep a wide zero margin on both sides
        rng = np.random.default_rng(0)
        n, margin = 512, 160
        x = np.zeros(n)
        m = n - 2 * margin
        x[margin:margin + m] = rng.standard_normal(m) * np.hanning(m)
        dec = dwt_decompose(x)
        coef = np.sum(dec.approximation ** 2) + sum(np.sum(d ** 2) for d in dec.details)
        sig = np.sum(x ** 2)
        assert abs(coef - sig) <= 1e-6 * sig


class TestDecomposeValidation:
    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            dwt_decompose(np.ones(31))

    def test_block_decomposes_row_by_row(self):
        block = np.random.default_rng(6).standard_normal((4, 97))
        dec = dwt_decompose(block)
        assert dec.original_length == 97
        for r, row in enumerate(block):
            one = dwt_decompose(row)
            assert_array_equal(dec.approximation[r], one.approximation)
            for got, want in zip(dec.details, one.details):
                assert_array_equal(got[r], want)
            assert_array_equal(dwt_reconstruct(dec)[r], dwt_reconstruct(one))

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D or a 2-D block"):
            dwt_decompose(np.ones((2, 4, 64)))

    def test_rejects_nan(self):
        x = np.ones(128)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dwt_decompose(x)


class TestReconstructValidation:
    def test_wrong_approximation_length(self):
        dec = dwt_decompose(np.random.default_rng(1).standard_normal(128))
        dec.approximation = dec.approximation[:-1]
        with pytest.raises(ValueError, match="approximation length"):
            dwt_reconstruct(dec)

    def test_wrong_detail_length(self):
        dec = dwt_decompose(np.random.default_rng(1).standard_normal(128))
        dec.details[1] = dec.details[1][:-2]
        with pytest.raises(ValueError, match="detail level 2"):
            dwt_reconstruct(dec)

    def test_no_levels(self):
        dec = WaveletDecomposition(approximation=np.ones(8), details=[],
                                   original_length=8)
        with pytest.raises(ValueError, match="no detail levels"):
            dwt_reconstruct(dec)


class TestSoftThreshold:
    def test_examples(self):
        v = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        out = soft_threshold(v, 1.0)
        assert_allclose(out, [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_threshold_is_identity(self):
        v = np.random.default_rng(2).standard_normal(50)
        assert_array_equal(soft_threshold(v, 0.0), v)

    def test_never_grows_magnitude_or_flips_sign(self):
        v = np.random.default_rng(3).standard_normal(200)
        out = soft_threshold(v, 0.4)
        assert np.all(np.abs(out) <= np.abs(v))
        assert np.all(out * v >= 0.0)

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            soft_threshold(np.ones(4), -0.1)


def same_bits_nan_as_nan(got, want):
    """Bit for bit, the sign of zero included; a NaN only has to be a NaN.

    numpy's own sign(v) * m gives a NaN the sign of one operand in its SIMD
    body and of the other in its scalar tail, so no sign of NaN is pinned.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def edge_rows(n):
    """Rows of length n with signed zeros, ties, values under a threshold of
    0.5, huge values, and rows holding inf or NaN."""
    rng = np.random.default_rng(n)
    rows = [
        rng.standard_normal(n),
        rng.choice([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 3.0, -3.0], n),
        np.resize([-0.0, 0.0], n),
        rng.choice([1e308, -1e308, 5e-324, -5e-324, 1.0], n),
        np.where(rng.random(n) < 0.3, np.inf, rng.standard_normal(n)),
        np.where(rng.random(n) < 0.3, -np.inf, rng.standard_normal(n)),
        np.where(rng.random(n) < 0.2, np.nan, rng.standard_normal(n)),
    ]
    with np.errstate(invalid="ignore"):
        rows.append(np.where(rng.random(n) < 0.5, np.inf - np.inf, -np.inf))
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 484, 485])
class TestMedianAndThresholdBits:
    """denoise's partition median and one-buffer threshold against the
    np.median and np.sign formulas they replace."""

    def test_median_matches_np_median(self, n):
        d = edge_rows(n)
        got = wavelet._median_abs(d)
        want = np.median(np.abs(d), axis=1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("threshold", [0.0, 0.5, "per_row"])
    def test_threshold_matches_sign_formula(self, n, threshold):
        v = edge_rows(n)
        if threshold == "per_row":
            threshold = np.array([[0.0], [0.5], [0.25], [1e308], [np.inf], [0.0], [np.nan],
                                  [2.0]])
        with np.errstate(invalid="ignore"):
            want = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
            got = soft_threshold(v, threshold)
        same_bits_nan_as_nan(got, want)


def test_threshold_signs_its_zeros_as_np_sign_does():
    """sign(-0.0) is +0.0, so -0.0 shrinks to +0.0; a negative value under the
    threshold shrinks to -0.0."""
    for t in (0.0, 0.5):
        out = soft_threshold(np.array([-0.25, -0.0, 0.0, 0.25]), t)
        assert np.signbit(out).tolist() == [True, False, False, False]


def test_denoise_matches_the_np_median_recipe_on_overflowing_rows():
    rng = np.random.default_rng(9)
    block = 3.0 + rng.standard_normal((4, 130))
    block[1] = np.resize([1.5e308, -1.5e308], 130)
    block[2, ::7] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        got = denoise(block)
        dec = dwt_decompose(block)
        sigma = np.median(np.abs(dec.details[0]), axis=1, keepdims=True) / MAD_SCALE
        threshold = sigma * np.sqrt(2.0 * np.log(block.shape[1]))
        dec.details = [np.sign(d) * np.maximum(np.abs(d) - threshold, 0.0)
                       for d in dec.details]
        want = dwt_reconstruct(dec)
    assert np.isnan(want[1]).any() and np.isfinite(want[0]).all()
    same_bits_nan_as_nan(got, want)


class TestDenoise:
    def sinusoid(self, n=512, rate=16.0, freq=0.1):
        t = np.arange(n) / rate
        return np.sin(2 * np.pi * freq * t)

    def test_matches_documented_recipe(self):
        rng = np.random.default_rng(4)
        x = self.sinusoid() + rng.standard_normal(512) * 0.2
        dec = dwt_decompose(x)
        sigma = float(np.median(np.abs(dec.details[0]))) / MAD_SCALE
        threshold = sigma * np.sqrt(2.0 * np.log(x.size))
        dec.details = [soft_threshold(d, threshold) for d in dec.details]
        assert_array_equal(denoise(x), dwt_reconstruct(dec))

    def test_reduces_error_against_clean_signal(self):
        clean = self.sinusoid()
        rng = np.random.default_rng(7)
        noisy = clean + rng.standard_normal(512) * np.sqrt(0.05)
        den = denoise(noisy)
        assert np.mean((den - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)

    def test_reduces_high_frequency_energy(self):
        clean = self.sinusoid()
        rng = np.random.default_rng(8)
        noisy = clean + rng.standard_normal(512) * 0.2
        den = denoise(noisy)
        assert np.sum(np.diff(den) ** 2) < np.sum(np.diff(noisy) ** 2)

    def test_constant_passes_through(self):
        x = np.full(128, 2.5)
        assert_allclose(denoise(x), x, atol=1e-9)

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="at least 64"):
            denoise(np.ones(32))

    def test_block_peak_memory(self):
        """Each synthesis step adds its highpass sums into the lowpass output:
        a second full-length output array would lift denoise's tracemalloc
        peak over a 64 x 960 block from 3.7 to 4.7 blocks."""
        block = 3.0 + np.random.default_rng(0).standard_normal((64, 960))
        denoise(block)  # build the cached filter bank outside the trace
        tracemalloc.start()
        try:
            denoise(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.2 * block.nbytes, peak / block.nbytes
