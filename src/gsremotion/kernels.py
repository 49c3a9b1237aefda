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

squared_norms is the one rule for a squared norm. gram computes the norms
of X and those of Z its caller does not pass; svm.MulticlassSvmModel keeps
its pool's norms from when it is built and passes them. The same expression
on the same row gives the same bits, so passing a norm changes none.

tile_product is the one rule for a product whose rows must not depend on
their neighbours: it forms A @ B, both made C-contiguous, as one 2-D
product per TILE_ROWS rows of A, the last tile zero-padded. BLAS picks its
kernels and orders its sums by a product's shape, so a row of one large
product can differ in its last bits from the same row alone; a tile always
has the same shape, so each row of A @ B has the bits of that row alone,
whatever the batch, its blocks, the BLAS thread count or the memory layout
of the rows. gram forms its inner products this way, and
svm.decision_values its products with the coefficients. The bits still
depend on the CPU's BLAS kernels.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import parse_word

KERNEL_KINDS = ("linear", "rbf")

# The rows of each 2-D product tile_product forms. Measured against the
# seed-42 models' pools on OpenBLAS 0.3.31: heights 1, 4, 16 and 32 kept each
# row's bits at every position of a tile under the SkylakeX, Haswell and
# Sandybridge kernels; 7 and 10 did not under SkylakeX, nor 7 under Haswell.
TILE_ROWS = 16


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its scale; eta=None means resolve to 1/d at fit."""

    kind: str = "rbf"
    eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", parse_word(self.kind, KERNEL_KINDS, "kernel kind"))
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


def squared_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 for each row x of the 2-D float array X."""
    return (X * X).sum(axis=1)


def tile_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for 2-D float arrays, one 2-D product per TILE_ROWS rows of A,
    the last tile zero-padded: each row has the bits of that row alone.

    Both operands are made C-contiguous first. The layout is part of the
    rule: with B a transposed view, rows 12-15 of a tile took other bits
    than rows 0-11 against the 194 x 15 pool of the seed-42 `both` model.
    """
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    n = A.shape[0]
    full = n - n % TILE_ROWS
    out = np.empty((n, B.shape[1]))
    for lo in range(0, full, TILE_ROWS):
        np.matmul(A[lo:lo + TILE_ROWS], B, out=out[lo:lo + TILE_ROWS])
    if full < n:
        tail = np.zeros((TILE_ROWS, A.shape[1]))
        tail[:n - full] = A[full:]
        out[full:] = (tail @ B)[:n - full]
    return out


def gram(spec: KernelSpec, X, Z=None, norms_z=None) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Z[j]); Z defaults to X; built in place.

    The inner products come from tile_product, so each row of K has the bits
    of the same row of X alone. norms_z, when given, must be squared_norms
    of Z; rbf computes the norms not given, and linear reads none.
    """
    Xa = np.ascontiguousarray(X, dtype=np.float64)
    Za = Xa if Z is None else np.asarray(Z, dtype=np.float64)
    if Xa.ndim != 2 or Za.ndim != 2 or Xa.shape[1] != Za.shape[1]:
        raise ValueError(f"incompatible shapes {Xa.shape} and {Za.shape}")
    spec.require_resolved()
    inner = tile_product(Xa, Za.T)
    if spec.kind != "rbf":
        return finish_block(spec, inner)
    norms_x = squared_norms(Xa)
    if norms_z is None:
        norms_z = norms_x if Z is None else squared_norms(Za)
    return finish_block(spec, inner, norms_x[:, None], norms_z)
