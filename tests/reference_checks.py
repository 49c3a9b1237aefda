"""Checks that only the tests use: kernel values and matrices, a KKT gap, filter-bank invariants.

Each is an independent restatement of something the library computes in
bulk (gram matrices, the solver's stopping rule, the Daubechies bank), so
the tests can hold the library to it.
"""

import numpy as np

from gsremotion.kernels import KernelSpec
from gsremotion.svm import _violating_bounds
from gsremotion.wavelet import FilterBank


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for one pair of vectors."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError(f"kernel inputs must be 1-D and same shape, got {xv.shape} vs {yv.shape}")
    spec.require_resolved()
    if spec.kind == "linear":
        return float(xv @ yv)
    diff = xv - yv
    return float(np.exp(-spec.eta * (diff @ diff)))


def gram_reference(spec: KernelSpec, X, Z=None) -> np.ndarray:
    """Kernel matrix from the out-of-place textbook expressions, one
    temporary per operation; kernels.gram must match it bit for bit."""
    Xa = np.asarray(X, dtype=np.float64)
    Za = Xa if Z is None else np.asarray(Z, dtype=np.float64)
    spec.require_resolved()
    inner = Xa @ Za.T
    if spec.kind == "linear":
        return inner
    sq = (Xa * Xa).sum(axis=1)[:, None] + (Za * Za).sum(axis=1)[None, :] - 2.0 * inner
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-spec.eta * sq)


def kkt_violation(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Maximal-violating-pair gap m - M for a candidate dual solution.

    Non-positive (or below tolerance) means the KKT conditions hold. Returns
    0.0 when either index set is empty.
    """
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    Q = K * np.outer(y, y)
    m, M = _violating_bounds(Q @ alpha - 1.0, y, alpha, C)
    return m - M


def validate_filter_bank(bank: FilterBank) -> None:
    """Check the quadrature-mirror invariants; raises ValueError on failure."""
    lo, hi = bank.lowpass_decomp, bank.highpass_decomp
    length = bank.length
    problems = []
    if length % 2 != 0:
        problems.append(f"filter length {length} is odd")
    if abs(lo.sum() - np.sqrt(2.0)) > 1e-12:
        problems.append(f"lowpass sum {lo.sum()!r} != sqrt(2)")
    if abs(hi.sum()) > 1e-12:
        problems.append(f"highpass sum {hi.sum()!r} != 0")
    for k in range(length // 2):
        expect = 1.0 if k == 0 else 0.0
        got = float(np.dot(lo[2 * k:], lo[:length - 2 * k]))
        if abs(got - expect) > 1e-10:
            problems.append(f"lowpass shift-{2 * k} autocorrelation {got!r} != {expect}")
    alt = np.array([(-1.0) ** n * lo[length - 1 - n] for n in range(length)])
    if np.max(np.abs(alt - hi)) > 1e-12:
        problems.append("highpass is not the alternating flip of the lowpass")
    if problems:
        raise ValueError("invalid filter bank: " + "; ".join(problems))
