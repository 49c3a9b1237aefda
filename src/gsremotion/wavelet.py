"""Daubechies wavelet transform and soft-threshold denoising.

The filter bank is built by spectral factorization: the binomial polynomial
P(y) = sum_{k<p} C(p-1+k, k) y^k is rooted, each root is mapped through
y = (2 - z - 1/z)/4 keeping the solution inside the unit circle, and the
scaling filter is (1+z)^p times the product of those linear factors,
normalized to sum sqrt(2). Decomposition uses symmetric half-sample
extension and keeps ceil((n + L - 1) / 2) coefficients per branch, so
arbitrary (including odd) lengths round-trip exactly.

The transform steps run along axis 1 of a (rows x samples) block of
equal-length signals, and a single signal is a block of one row, so a
corpus is denoised a block at a time with the same code. Every output is
bit-identical to the per-signal np.convolve formulation.
"""

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .dataset import MIN_SAMPLES

DEFAULT_ORDER = 5
DEFAULT_LEVELS = 5

# Scale factor turning the median absolute detail coefficient into a noise
# sigma estimate (median of |N(0,1)| is 0.6745).
MAD_SCALE = 0.6745


@dataclass(frozen=True)
class FilterBank:
    """Two-channel analysis filters. Each synthesis filter is its analysis
    filter reversed, so synthesis takes the analysis filters as its taps."""

    lowpass_decomp: np.ndarray
    highpass_decomp: np.ndarray

    @property
    def length(self) -> int:
        return self.lowpass_decomp.size


@dataclass
class WaveletDecomposition:
    """Multi-level DWT output: one approximation plus per-level details,
    each 1-D for one signal or (rows x m) for a block.

    details[0] is the finest level (level 1); details[-1] matches the
    approximation band. original_length is needed to undo the expansive
    symmetric padding on reconstruction.
    """

    approximation: np.ndarray
    details: list
    original_length: int

    @property
    def levels(self) -> int:
        return len(self.details)


def _daubechies_scaling(order: int) -> np.ndarray:
    """Minimum-phase Daubechies scaling filter of the given order (2*order taps)."""
    p = order
    # Coefficients of P(y), lowest degree first.
    poly_y = [comb(p - 1 + k, k) for k in range(p)]
    yroots = np.roots(poly_y[::-1]) if p > 1 else np.array([])
    zroots = []
    for y in yroots:
        # y = (2 - z - 1/z) / 4  <=>  z^2 - (2 - 4y) z + 1 = 0
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
                break
    h = np.array([1.0 + 0j])
    for _ in range(p):
        h = np.convolve(h, [1.0 + 0j, 1.0 + 0j])
    for zk in zroots:
        h = np.convolve(h, [1.0 + 0j, -zk])
    h = np.real(h)
    h *= np.sqrt(2.0) / h.sum()
    return h


@cache
def daubechies_filter_bank() -> FilterBank:
    """The db(DEFAULT_ORDER) bank, built on first use (so importing skips np.roots)."""
    lo_d = _daubechies_scaling(DEFAULT_ORDER)[::-1].copy()
    length = lo_d.size
    hi_d = np.array([(-1.0) ** n * lo_d[length - 1 - n] for n in range(length)])
    for arr in (lo_d, hi_d):
        arr.setflags(write=False)
    return FilterBank(lowpass_decomp=lo_d, highpass_decomp=hi_d)


def _symmetric_extend(x: np.ndarray, pad: int) -> np.ndarray:
    """Half-sample symmetric extension along axis 1: reflect without repeating the edge twice."""
    return np.concatenate([x[:, :pad][:, ::-1], x, x[:, -pad:][:, ::-1]], axis=1)


def _analysis_step(x: np.ndarray, bank: FilterBank):
    """One level over a (rows x n) block: approximation and detail rows.

    Each coefficient sums its tap products in ascending tap order, the order
    np.convolve(ext, h, "valid")[0::2] sums them, so the bits are the same.
    """
    length = bank.length
    ext = _symmetric_extend(x, length - 1)
    span = ext.shape[1] - length + 1
    out = []
    for h in (bank.lowpass_decomp, bank.highpass_decomp):
        taps = h[::-1]
        acc = ext[:, 0:span:2] * taps[0]
        for t in range(1, length):
            acc += ext[:, t:t + span:2] * taps[t]
        out.append(acc)
    return out


def _upsample_sums(coef: np.ndarray, taps: np.ndarray, out_len: int):
    """Yield (columns, sums) per parity, in one buffer, of coef upsampled through
    the synthesis filter taps[::-1]; taps is the matching analysis filter.

    Output L-1+s meets the taps of the parity of s only, so it is summed over
    those, in ascending tap order like np.convolve; the zero-stuffed products
    it skips add nothing. When out_len is odd, np.convolve computes the last
    output as a partial overlap with a BLAS dot product, which rounds
    differently (fused multiply-add); np.vecdot makes that call for every row.
    """
    half = taps.size // 2
    n = out_len // 2
    acc = np.empty((coef.shape[0], n))
    for parity in (0, 1):
        np.multiply(coef[:, parity:parity + n], taps[parity], out=acc)
        for u in range(1, half):
            acc += coef[:, parity + u:parity + u + n] * taps[2 * u + parity]
        yield slice(parity, 2 * n, 2), acc
    if out_len % 2:
        stuffed = np.zeros((coef.shape[0], taps.size - 1))
        stuffed[:, 0::2] = coef[:, -half:]
        yield -1, np.vecdot(stuffed, taps[:-1])


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, out_len: int,
                    bank: FilterBank) -> np.ndarray:
    """One inverse level over (rows x m) blocks; highpass sums add in place."""
    y = np.empty((approx.shape[0], out_len))
    for columns, sums in _upsample_sums(approx, bank.lowpass_decomp, out_len):
        y[:, columns] = sums
    del sums  # free the lowpass buffer before the highpass one is made
    for columns, sums in _upsample_sums(detail, bank.highpass_decomp, out_len):
        y[:, columns] += sums
    return y


def coefficient_lengths(n: int, levels: int) -> list:
    """Per-level branch lengths: lengths[0] = n, lengths[k] = ceil((prev + L - 1)/2)."""
    out = [n]
    for _ in range(levels):
        out.append((out[-1] + 2 * DEFAULT_ORDER) // 2)
    return out


def _block(signal) -> np.ndarray:
    """One signal as a block of one row, or a (rows x samples) block as is."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"signal must be 1-D or a 2-D block, got shape {x.shape}")
    return np.atleast_2d(x)


def dwt_decompose(signal: np.ndarray, levels: int = DEFAULT_LEVELS) -> WaveletDecomposition:
    """Multi-level analysis of one signal, or of each row of a (rows x samples)
    block into (rows x m) coefficients. Requires at least
    max(2**levels, 2*DEFAULT_ORDER - 1) samples."""
    x = _block(signal)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    bank = daubechies_filter_bank()
    n = x.shape[1]
    min_len = max(2 ** levels, bank.length - 1)
    if n < min_len:
        raise ValueError(
            f"signal length {n} too short for {levels} levels (need at least {min_len})"
        )
    details = []
    for _ in range(levels):
        x, det = _analysis_step(x, bank)
        details.append(det)
    if np.ndim(signal) == 1:
        x, details = x[0], [d[0] for d in details]
    return WaveletDecomposition(approximation=x, details=details, original_length=n)


def dwt_reconstruct(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert dwt_decompose; validates coefficient shapes against the recurrence."""
    if decomp.levels < 1:
        raise ValueError("decomposition has no detail levels")
    lengths = coefficient_lengths(decomp.original_length, decomp.levels)
    y = _block(decomp.approximation)
    if y.shape[1] != lengths[-1]:
        raise ValueError(f"approximation length {y.shape[1]} inconsistent with original "
                         f"length {decomp.original_length} (expected {lengths[-1]})")
    details = [_block(d) for d in decomp.details]
    for lev, det in enumerate(details, start=1):
        if det.shape != (y.shape[0], lengths[lev]):
            raise ValueError(f"detail level {lev} shape {det.shape} inconsistent "
                             f"(expected {(y.shape[0], lengths[lev])})")
    bank = daubechies_filter_bank()
    for det, out_len in zip(details[::-1], lengths[-2::-1]):
        y = _synthesis_step(y, det, out_len, bank)
    return y[0] if np.ndim(decomp.approximation) == 1 else y


def soft_threshold(values: np.ndarray, threshold) -> np.ndarray:
    """Shrink toward zero: sign(v) * max(|v| - threshold, 0), in one buffer.

    threshold is one number, or one per row as a (rows x 1) column.
    The sign comes from np.copysign, except at v = +-0, where np.sign gives
    +0; so a zero keeps the +0 (or the NaN of a NaN threshold) that the
    magnitude already holds. Every value that is not NaN has the bits of the
    formula above.
    """
    if np.any(np.asarray(threshold) < 0):
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    v = np.asarray(values, dtype=np.float64)
    out = np.abs(v, out=np.empty(v.shape))
    out -= threshold
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, v, out=out, where=v != 0)


def _median_abs(d: np.ndarray) -> np.ndarray:
    """np.median(np.abs(d), axis=1, keepdims=True), bit for bit, from one in-place partition.

    The upper middle order statistic is the partition's pivot; for an even
    row length the lower one is the largest value left of it, and the two are
    averaged as np.median averages them. A row holding NaN has median NaN.
    """
    a = np.abs(d)
    n = a.shape[1]
    k = n // 2
    a.partition(k, axis=1)
    mid = a[:, k:k + 1].copy()
    if n % 2 == 0:
        mid += a[:, :k].max(axis=1, keepdims=True)
        mid /= 2
    top = a.max(axis=1, keepdims=True)
    np.copyto(mid, top, where=np.isnan(top))
    return mid


def denoise(signal: np.ndarray) -> np.ndarray:
    """Wavelet shrinkage with the universal threshold, DEFAULT_LEVELS of db(DEFAULT_ORDER).

    signal is one signal or a (rows x samples) block of equal-length signals,
    each denoised on its own; one signal runs as a block of one row. Noise
    scale comes from the finest detail band as median(|d1|) / 0.6745, the
    threshold is sigma * sqrt(2 ln N) with N the signal length, and all
    detail levels are soft-thresholded before reconstruction.
    """
    block = _block(signal)
    n = block.shape[1]
    if n < MIN_SAMPLES:
        raise ValueError(f"denoise needs at least {MIN_SAMPLES} samples, got {n}")
    decomp = dwt_decompose(block)
    sigma = _median_abs(decomp.details[0]) / MAD_SCALE
    threshold = sigma * np.sqrt(2.0 * np.log(n))
    decomp.details = [soft_threshold(d, threshold) for d in decomp.details]
    return dwt_reconstruct(decomp).reshape(np.shape(signal))
