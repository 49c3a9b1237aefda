"""The block signal stages give the bits of the per-signal reference.

gsremotion.wavelet.denoise and gsremotion.features.extract_features run over
(rows x samples) blocks; signal_reference holds the per-signal np.convolve
formulation they replaced. Each row must come out bit for bit (the sign of
zero included) as the reference computes it for that signal alone: at odd
lengths, where np.convolve sums the last synthesis output differently, at
the 64-sample minimum, on the seed-42 corpus, and inside blocks of several
sizes.
"""

import numpy as np
import pytest

import signal_reference as ref
from gsremotion import dataset as dataset_module
from gsremotion.dataset import Dataset, EmotionLabel, GsrRecord
from gsremotion.features import extract_dataset_features, extract_features
from gsremotion.preprocess import preprocess_dataset
from gsremotion.wavelet import denoise

RATE = 16.0


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert diff.size == 0, f"{diff.size} values differ, first at flat index {diff[0]}"


def signals(rows, n, seed):
    """Noisy drifting signals, with a constant row and a zero row among them."""
    rng = np.random.default_rng(seed)
    block = 4.0 + np.linspace(0.0, 2.0, n) + 0.3 * rng.standard_normal((rows, n))
    block[rows // 2] = 2.5
    block[-1] = 0.0
    return block


@pytest.mark.parametrize("n", [64, 65, 97, 333, 961])
class TestOddAndMinimumLengths:
    def test_denoise(self, n):
        block = signals(9, n, seed=n)
        out = denoise(block)
        for row, got in zip(block, out):
            assert_bits(got, ref.denoise(row))

    def test_features(self, n):
        block = signals(9, n, seed=n)
        out = extract_features(block, RATE)
        for row, got in zip(block, out):
            assert_bits(got, ref.extract_features(row, RATE))


def test_default_corpus(default_corpus):
    denoised = preprocess_dataset(default_corpus, "feature")
    for before, after in zip(default_corpus, denoised):
        assert_bits(after.samples, ref.denoise(before.samples))
    matrix = extract_dataset_features(denoised)
    want = np.array([ref.extract_features(r.samples, r.sample_rate_hz) for r in denoised])
    assert_bits(matrix.values, want)


def test_mixed_lengths_keep_dataset_order():
    lengths = [97, 64, 961, 97, 333, 64, 65, 961, 97, 333]
    rates = [16.0, 16.0, 8.0, 8.0, 16.0, 16.0, 16.0, 8.0, 16.0, 16.0]
    rng = np.random.default_rng(5)
    records = [
        GsrRecord(f"r{i}", "S01", EmotionLabel.CALM, rate, 3.0 + rng.uniform(0, 1, n))
        for i, (n, rate) in enumerate(zip(lengths, rates))
    ]
    ds = Dataset(records=records)
    denoised = preprocess_dataset(ds, "feature")
    assert [r.record_id for r in denoised] == [r.record_id for r in records]
    for before, after in zip(records, denoised):
        assert_bits(after.samples, ref.denoise(before.samples))
    matrix = extract_dataset_features(denoised)
    assert matrix.record_ids == [r.record_id for r in records]
    for after, got in zip(denoised, matrix.values):
        assert_bits(got, ref.extract_features(after.samples, after.sample_rate_hz))


class TestBlockSizes:
    """One signal gives the same bits alone and at every position of a block."""

    n = 961

    @pytest.fixture(scope="class")
    def block(self):
        return signals(129, self.n, seed=11)

    def test_one_signal_alone(self, block):
        assert_bits(denoise(block[3]), ref.denoise(block[3]))
        assert_bits(extract_features(block[3], RATE), ref.extract_features(block[3], RATE))

    @pytest.mark.parametrize("rows", [1, 7, 128, 129])
    def test_denoise_block(self, block, rows):
        out = denoise(block[:rows])
        assert out.shape == (rows, self.n)
        for i in {0, min(3, rows - 1), rows - 1}:
            assert_bits(out[i], ref.denoise(block[i]))

    @pytest.mark.parametrize("rows", [1, 7, 128, 129])
    def test_features_block(self, block, rows):
        out = extract_features(block[:rows], RATE)
        assert out.shape == (rows, 30)
        for i in {0, min(3, rows - 1), rows - 1}:
            assert_bits(out[i], ref.extract_features(block[i], RATE))

    @pytest.mark.parametrize("rows", [7, 128, 129])
    def test_dataset_blocks(self, block, rows):
        records = [GsrRecord(f"r{i}", "S01", EmotionLabel.CALM, RATE, block[i])
                   for i in range(rows)]
        denoised = preprocess_dataset(Dataset(records=records), "feature")
        matrix = extract_dataset_features(denoised)
        for i in {0, 3, rows - 1}:
            assert_bits(denoised.records[i].samples, ref.denoise(block[i]))
            assert_bits(matrix.values[i],
                        ref.extract_features(denoised.records[i].samples, RATE))

    def test_blocks_cover_the_dataset_in_order(self, block):
        records = [GsrRecord(f"r{i}", "S01", EmotionLabel.CALM, RATE, block[i])
                   for i in range(129)]
        blocks = list(Dataset(records=records).signal_blocks())
        assert len(blocks) > 1
        assert all(len(rows) <= dataset_module._BLOCK_ROWS for rows, _, _ in blocks)
        assert [i for rows, _, _ in blocks for i in rows] == list(range(129))
        for rows, samples, rate in blocks:
            assert rate == RATE
            assert_bits(samples, block[rows])
