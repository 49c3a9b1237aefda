"""Kernel functions for the SVM: linear and rbf.

eta is the rbf scale parameter (gamma); left unset it resolves to 1/d at
training time, with d the trained feature dimensionality. The linear kernel
has no parameter and refuses an eta.

Every kernel value is finished by finish_block from an inner product <x, z>
(and, for rbf, the squared norms of x and z): gram finishes a whole matrix
with it, and svm.train_binary finishes single rows, each from its own
matrix-vector product, and the diagonal from the squared norms. The float
operations after the product are the same for every block, but a training
row's inner products come from another BLAS call than gram's and may differ
from gram's in the last bits.
"""

from dataclasses import dataclass, replace

import numpy as np

KERNEL_KINDS = ("linear", "rbf")


def canonical_kind(kind: str) -> str:
    k = kind.strip().lower()
    if k not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r} (expected one of {KERNEL_KINDS})")
    return k


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its scale; eta=None means resolve to 1/d at fit."""

    kind: str = "rbf"
    eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        if self.eta is not None:
            if self.kind == "linear":
                raise ValueError(f"eta {self.eta} given, but the linear kernel takes no eta")
            if not np.isfinite(self.eta) or self.eta <= 0:
                raise ValueError(f"eta must be positive and finite, got {self.eta}")

    def resolved(self, n_features: int) -> "KernelSpec":
        """Fill an unset eta with 1/n_features."""
        if self.kind == "linear" or self.eta is not None:
            return self
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        return replace(self, eta=1.0 / n_features)

    def require_resolved(self) -> None:
        if self.kind != "linear" and self.eta is None:
            raise ValueError(f"{self.kind} kernel used before eta was resolved")


def finish_block(spec: KernelSpec, inner: np.ndarray, norms_x=None, norms_z=None) -> np.ndarray:
    """Turn a block of inner products <x, z> into kernel values, in place.

    The block is a whole matrix (norms_x[:, None] against norms_z), one row t
    (norms_x[t] against norms_z) or the diagonal (norms_x against norms_x);
    the norms are squared and only rbf reads them. Every cell goes through the
    same float operations whatever the block, so a row or diagonal of one
    product, finished here, has the bits of the same cells of that product
    finished whole (not of another product's, such as gram's).
    """
    if spec.kind == "linear":
        return inner
    inner *= -2.0
    inner += np.add(norms_x, norms_z)  # |x|^2 + |z|^2 - 2<x, z>
    np.maximum(inner, 0.0, out=inner)  # what np.clip(inner, 0.0, None) calls
    inner *= -spec.eta
    return np.exp(inner, out=inner)


def gram(spec: KernelSpec, X, Z=None) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Z[j]); Z defaults to X; built in place."""
    Xa = np.asarray(X, dtype=np.float64)
    Za = Xa if Z is None else np.asarray(Z, dtype=np.float64)
    if Xa.ndim != 2 or Za.ndim != 2 or Xa.shape[1] != Za.shape[1]:
        raise ValueError(f"incompatible shapes {Xa.shape} and {Za.shape}")
    spec.require_resolved()
    inner = Xa @ Za.T
    if spec.kind != "rbf":
        return finish_block(spec, inner)
    norms_x = (Xa * Xa).sum(axis=1)
    norms_z = norms_x if Z is None else (Za * Za).sum(axis=1)
    return finish_block(spec, inner, norms_x[:, None], norms_z)
