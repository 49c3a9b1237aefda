"""Daubechies wavelet transform and soft-threshold denoising.

The filter bank is built by spectral factorization: the binomial polynomial
P(y) = sum_{k<p} C(p-1+k, k) y^k is rooted, each root is mapped through
y = (2 - z - 1/z)/4 keeping the solution inside the unit circle, and the
scaling filter is (1+z)^p times the product of those linear factors,
normalized to sum sqrt(2). Decomposition uses symmetric half-sample
extension and keeps ceil((n + L - 1) / 2) coefficients per branch, so
arbitrary (including odd) lengths round-trip exactly.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

DEFAULT_ORDER = 5
DEFAULT_LEVELS = 5

# Scale factor turning the median absolute detail coefficient into a noise
# sigma estimate (median of |N(0,1)| is 0.6745).
MAD_SCALE = 0.6745

_BANK_CACHE = {}


@dataclass(frozen=True)
class FilterBank:
    """Two-channel analysis/synthesis filters for one wavelet family."""

    lowpass_decomp: np.ndarray
    highpass_decomp: np.ndarray
    lowpass_recon: np.ndarray
    highpass_recon: np.ndarray

    @property
    def length(self) -> int:
        return self.lowpass_decomp.size


@dataclass
class WaveletDecomposition:
    """Multi-level DWT output: one approximation plus per-level details.

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


def daubechies_filter_bank(order: int = DEFAULT_ORDER) -> FilterBank:
    """Build (and cache) the analysis/synthesis bank for a Daubechies order."""
    if order < 1:
        raise ValueError(f"wavelet order must be >= 1, got {order}")
    bank = _BANK_CACHE.get(order)
    if bank is None:
        h = _daubechies_scaling(order)
        length = h.size
        lo_d = h[::-1].copy()
        hi_d = np.array([(-1.0) ** n * lo_d[length - 1 - n] for n in range(length)])
        bank = FilterBank(
            lowpass_decomp=lo_d,
            highpass_decomp=hi_d,
            lowpass_recon=lo_d[::-1].copy(),
            highpass_recon=hi_d[::-1].copy(),
        )
        for arr in (bank.lowpass_decomp, bank.highpass_decomp,
                    bank.lowpass_recon, bank.highpass_recon):
            arr.setflags(write=False)
        _BANK_CACHE[order] = bank
    return bank


def _symmetric_extend(x: np.ndarray, pad: int) -> np.ndarray:
    """Half-sample symmetric extension: reflect without repeating the edge twice."""
    if pad > x.size:
        raise ValueError(f"cannot extend length-{x.size} signal by {pad} samples")
    return np.concatenate([x[:pad][::-1], x, x[-pad:][::-1]])


def _analysis_step(x: np.ndarray, bank: FilterBank):
    pad = bank.length - 1
    ext = _symmetric_extend(x, pad)
    approx = np.convolve(ext, bank.lowpass_decomp, mode="valid")[0::2]
    detail = np.convolve(ext, bank.highpass_decomp, mode="valid")[0::2]
    return approx, detail


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, out_len: int,
                    bank: FilterBank) -> np.ndarray:
    up_a = np.zeros(2 * approx.size - 1)
    up_a[0::2] = approx
    up_d = np.zeros(2 * detail.size - 1)
    up_d[0::2] = detail
    y = (np.convolve(up_a, bank.lowpass_recon, mode="full")
         + np.convolve(up_d, bank.highpass_recon, mode="full"))
    start = bank.length - 1
    return y[start:start + out_len]


def coefficient_lengths(n: int, levels: int, order: int = DEFAULT_ORDER) -> list:
    """Per-level branch lengths: lengths[0] = n, lengths[k] = ceil((prev + L - 1)/2)."""
    length = 2 * order
    out = [n]
    for _ in range(levels):
        out.append((out[-1] + length - 1 + 1) // 2)
    return out


def dwt_decompose(signal: np.ndarray, levels: int = DEFAULT_LEVELS,
                  order: int = DEFAULT_ORDER) -> WaveletDecomposition:
    """Multi-level analysis. Requires len(signal) >= max(2**levels, 2*order - 1)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    bank = daubechies_filter_bank(order)
    min_len = max(2 ** levels, bank.length - 1)
    if x.size < min_len:
        raise ValueError(
            f"signal length {x.size} too short for {levels} levels "
            f"(need at least {min_len})"
        )
    details = []
    cur = x
    for _ in range(levels):
        cur, det = _analysis_step(cur, bank)
        details.append(det)
    return WaveletDecomposition(approximation=cur, details=details,
                                original_length=x.size)


def dwt_reconstruct(decomp: WaveletDecomposition, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Invert dwt_decompose; validates coefficient lengths against the recurrence."""
    levels = decomp.levels
    if levels < 1:
        raise ValueError("decomposition has no detail levels")
    bank = daubechies_filter_bank(order)
    lengths = coefficient_lengths(decomp.original_length, levels, order)
    if decomp.approximation.size != lengths[levels]:
        raise ValueError(
            f"approximation length {decomp.approximation.size} inconsistent with "
            f"original length {decomp.original_length} (expected {lengths[levels]})"
        )
    for lev, det in enumerate(decomp.details, start=1):
        if det.size != lengths[lev]:
            raise ValueError(
                f"detail level {lev} length {det.size} inconsistent "
                f"(expected {lengths[lev]})"
            )
    cur = np.asarray(decomp.approximation, dtype=np.float64)
    for lev in range(levels, 0, -1):
        det = np.asarray(decomp.details[lev - 1], dtype=np.float64)
        cur = _synthesis_step(cur, det, lengths[lev - 1], bank)
    return cur


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink toward zero: sign(v) * max(|v| - threshold, 0)."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def denoise(signal: np.ndarray) -> np.ndarray:
    """Wavelet shrinkage with the universal threshold, DEFAULT_LEVELS of db(DEFAULT_ORDER).

    Noise scale comes from the finest detail band as median(|d1|) / 0.6745,
    the threshold is sigma * sqrt(2 ln N) with N the signal length, and all
    detail levels are soft-thresholded before reconstruction.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.size < 64:
        raise ValueError(f"denoise needs at least 64 samples, got {x.size}")
    decomp = dwt_decompose(x)
    sigma = float(np.median(np.abs(decomp.details[0]))) / MAD_SCALE
    threshold = sigma * np.sqrt(2.0 * np.log(x.size))
    decomp.details = [soft_threshold(d, threshold) for d in decomp.details]
    return dwt_reconstruct(decomp)
