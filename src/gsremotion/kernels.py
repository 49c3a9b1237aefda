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
its caller does not pass; svm.BinarySvmModel keeps its support vectors'
norms from when it is built, and svm.predict_batch computes its rows' norms
once per call and passes them to every gram it calls. The same expression
on the same array gives the same bits, so passing a norm changes none.

gram can also score X against several matrices stacked in Z, one tile for
all of them: splits cut Z's rows into parts, each part's inner products are
its own product X @ part.T, written into the part's columns of the tile,
and finish_block finishes the whole tile in one pass. So a part's columns
have the bits of gram(spec, X, part), and the parts share only the
finishing ufuncs' per-call overhead. svm.predict_batch scores a small row
block this way over the stacked support vectors of all its machines.
"""

from dataclasses import dataclass, replace
from itertools import pairwise

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


def squared_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 for each row x of the 2-D float array X."""
    return (X * X).sum(axis=1)


def gram(spec: KernelSpec, X, Z=None, norms_x=None, norms_z=None, splits=None) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Z[j]); Z defaults to X; built in place.

    norms_x and norms_z, when given, must be squared_norms of X and Z; rbf
    computes the ones not given, and linear reads none. splits, when given,
    are row offsets into Z, as np.split takes them: the inner products of
    each part of Z come from their own product with X, so each part's
    columns have the bits of that part's gram alone.
    """
    Xa = np.asarray(X, dtype=np.float64)
    Za = Xa if Z is None else np.asarray(Z, dtype=np.float64)
    if Xa.ndim != 2 or Za.ndim != 2 or Xa.shape[1] != Za.shape[1]:
        raise ValueError(f"incompatible shapes {Xa.shape} and {Za.shape}")
    spec.require_resolved()
    if splits is None:
        inner = Xa @ Za.T
    else:
        inner = np.empty((Xa.shape[0], Za.shape[0]))
        for lo, hi in pairwise((0, *splits, Za.shape[0])):
            np.matmul(Xa, Za[lo:hi].T, out=inner[:, lo:hi])
    if spec.kind != "rbf":
        return finish_block(spec, inner)
    if norms_x is None:
        norms_x = squared_norms(Xa)
    if norms_z is None:
        norms_z = norms_x if Z is None else squared_norms(Za)
    return finish_block(spec, inner, norms_x[:, None], norms_z)
