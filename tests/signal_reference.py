"""Reference signal stages: the per-signal np.convolve code, kept for parity tests.

gsremotion.wavelet and gsremotion.features run over (rows x samples)
blocks. This is the formulation they replaced: one signal at a time, the
wavelet steps as np.convolve calls and every statistic as a scalar. The
block code must give the same bits for every row, so the tests compare the
two on odd lengths, the 64-sample minimum, a corpus and blocks of several
sizes.

generate_dataset is the record-at-a-time synth generator that synth's block
generator replaced: four scalar uniform draws per event and one
full-length bump array per event. synth must give the same bits.
"""

import numpy as np

from gsremotion import synth
from gsremotion.dataset import LABEL_ORDER, MIN_SAMPLES, Dataset, GsrRecord
from gsremotion.features import BAND_HIGH_HZ, BAND_LOW_HZ
from gsremotion.wavelet import (
    DEFAULT_LEVELS,
    MAD_SCALE,
    FilterBank,
    WaveletDecomposition,
    coefficient_lengths,
    daubechies_filter_bank,
)


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
    # each synthesis filter is its analysis filter reversed
    y = (np.convolve(up_a, bank.lowpass_decomp[::-1], mode="full")
         + np.convolve(up_d, bank.highpass_decomp[::-1], mode="full"))
    start = bank.length - 1
    return y[start:start + out_len]


def dwt_decompose(signal: np.ndarray, levels: int = DEFAULT_LEVELS) -> WaveletDecomposition:
    """Multi-level analysis. Requires len(signal) >= max(2**levels, 2*DEFAULT_ORDER - 1)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    bank = daubechies_filter_bank()
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


def dwt_reconstruct(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert dwt_decompose; validates coefficient lengths against the recurrence."""
    levels = decomp.levels
    if levels < 1:
        raise ValueError("decomposition has no detail levels")
    bank = daubechies_filter_bank()
    lengths = coefficient_lengths(decomp.original_length, levels)
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


def difference(signal: np.ndarray, order: int) -> np.ndarray:
    """order-th forward difference; output is len(signal) - order long."""
    x = np.asarray(signal, dtype=np.float64)
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    if x.size <= order:
        raise ValueError(f"signal length {x.size} too short for order-{order} difference")
    return np.diff(x, n=order)


def _lower_median(x: np.ndarray) -> float:
    """Median as the lower middle order statistic (no averaging for even n)."""
    k = (x.size - 1) // 2
    return float(np.partition(x, k)[k])


def _stat_block(x: np.ndarray) -> list:
    lo = float(x.min())
    hi = float(x.max())
    return [
        float(x.mean()),
        _lower_median(x),
        float(x.std()),
        lo,
        hi,
        hi - lo,
        float(np.abs(x).mean()),
        float(np.sqrt(np.mean(x * x))),
    ]


def _spectral_block(x: np.ndarray, sample_rate_hz: float) -> list:
    n = x.size
    spectrum = np.fft.rfft(x - x.mean())
    powers = (np.abs(spectrum[1:]) ** 2) / n
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)[1:]
    total = float(powers.sum())
    in_band = (freqs >= BAND_LOW_HZ) & (freqs <= BAND_HIGH_HZ)
    band = float(powers[in_band].sum())
    if total > 0.0:
        ratio = band / total
        centroid = float((freqs * powers).sum()) / total
        spread = float(np.sqrt(((freqs - centroid) ** 2 * powers).sum() / total))
        peak = float(freqs[int(np.argmax(powers))])
    else:
        ratio = centroid = spread = peak = 0.0
    return [total, band, ratio, centroid, spread, peak]


def extract_features(signal: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Compute the full 30-value catalog for one signal."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    if x.size < MIN_SAMPLES:
        raise ValueError(
            f"feature extraction needs at least {MIN_SAMPLES} samples, got {x.size}"
        )
    if not sample_rate_hz > 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    d1 = difference(x, 1)
    d2 = difference(x, 2)
    values = (
        _stat_block(x) + _stat_block(d1) + _stat_block(d2)
        + _spectral_block(x, sample_rate_hz)
    )
    return np.array(values)


def _bump(t: np.ndarray, t0: float, amplitude: float, rise: float,
          decay: float) -> np.ndarray:
    """Difference-of-exponentials event, peak-normalized to `amplitude`."""
    s = t - t0
    active = s >= 0.0
    out = np.zeros_like(t)
    sa = s[active]
    shape = np.exp(-sa / decay) - np.exp(-sa / rise)
    s_star = np.log(decay / rise) * rise * decay / (decay - rise)
    peak = np.exp(-s_star / decay) - np.exp(-s_star / rise)
    out[active] = amplitude * shape / peak
    return out


def generate_record(label, seed, config, subject_id: str, record_id: str,
                    base_tonic_us: float) -> GsrRecord:
    bands = synth.LABEL_BANDS[label]
    rng = np.random.default_rng(seed)
    n = config.n_samples
    t = np.arange(n) / config.sample_rate_hz
    tonic = base_tonic_us + rng.uniform(*bands.tonic_offset_us)
    drift = rng.uniform(*synth.DRIFT_US_PER_S)
    scale = config.duration_s / 60.0
    ev_lo = int(round(bands.n_events[0] * scale))
    ev_hi = int(round(bands.n_events[1] * scale))
    n_events = int(rng.integers(ev_lo, ev_hi + 1))
    signal = tonic + drift * t
    latest = max(config.duration_s - 3.0 * synth.EVENT_DECAY_S[1], config.duration_s * 0.5)
    slot = (latest - 1.0) / n_events if n_events else 0.0
    for k in range(n_events):
        center = 1.0 + (k + 0.5) * slot
        t0 = center + rng.uniform(-0.3, 0.3) * slot
        amplitude = rng.uniform(*bands.amplitude_us)
        rise = rng.uniform(*synth.EVENT_RISE_S)
        decay = rng.uniform(*synth.EVENT_DECAY_S)
        signal = signal + _bump(t, t0, amplitude, rise, decay)
    signal = signal + rng.standard_normal(n) * config.noise_std_us
    signal = np.maximum(signal, synth.POSITIVITY_FLOOR_US)
    return GsrRecord(record_id, subject_id, label, config.sample_rate_hz, signal)


def generate_dataset(config) -> Dataset:
    positive = [c for c in config.per_label_counts.values() if c > 0]
    num_subjects = max(min(positive), 1)
    subject_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5AB]))
    subject_base = subject_rng.uniform(*synth.SUBJECT_TONIC_US, size=num_subjects)
    records = []
    for lab_idx, label in enumerate(LABEL_ORDER):
        for seq in range(config.per_label_counts.get(label, 0)):
            subject_idx = seq % num_subjects
            subject = f"S{subject_idx + 1:02d}"
            records.append(generate_record(
                label, np.random.SeedSequence([config.seed, lab_idx, seq]), config, subject,
                f"{subject}_{label.value}_{seq + 1:03d}", float(subject_base[subject_idx])))
    return Dataset(records=records)
