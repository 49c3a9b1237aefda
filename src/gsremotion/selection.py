"""Covariance analysis and correlation-based feature selection.

Selection is unsupervised backward elimination: repeatedly find the most
correlated remaining pair and drop the member that is on average more
correlated with everything else still in play. Constant columns are removed
up front since their correlation is undefined.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import file_errors, write_json
from .features import CATALOG_VERSION, FEATURE_NAMES, FeatureMatrix


def _as_array(data) -> np.ndarray:
    values = data.values if isinstance(data, FeatureMatrix) else np.asarray(data, dtype=np.float64)
    return np.asarray(values, dtype=np.float64)


@dataclass
class CovarianceMatrix:
    """Symmetric feature-by-feature covariance or correlation matrix."""

    values: np.ndarray
    kind: str = "covariance"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in ("covariance", "correlation"):
            raise ValueError(f"kind must be covariance or correlation, got {self.kind!r}")
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"matrix must be square, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix has non-finite entries")
        if np.max(np.abs(self.values - self.values.T)) > 1e-12:
            raise ValueError("matrix is not symmetric")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def covariance_matrix(data, kind: str = "covariance") -> CovarianceMatrix:
    """Column-wise covariance (or correlation) of a feature table.

    Correlation entries involving a constant column are set to 0 off the
    diagonal and 1 on it, so downstream consumers see a valid matrix.
    """
    X = _as_array(data)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {X.shape[0]}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    cov = (cov + cov.T) / 2.0
    if kind == "covariance":
        return CovarianceMatrix(values=cov, kind="covariance")
    if kind != "correlation":
        raise ValueError(f"kind must be covariance or correlation, got {kind!r}")
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    constant = std == 0.0
    denom = np.outer(std, std)
    denom[denom == 0.0] = 1.0
    corr = np.clip(cov / denom, -1.0, 1.0)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    corr = (corr + corr.T) / 2.0
    return CovarianceMatrix(values=corr, kind="correlation")


@dataclass
class SelectionResult:
    """Outcome of greedy redundancy elimination.

    selected_indices are 1-based catalog indices, ascending. drop_order lists
    dropped indices in drop sequence (constant columns first). scores give,
    per catalog feature, its mean absolute correlation to the selected set
    (0 for constant columns).
    """

    selected_indices: tuple
    k: int
    drop_order: list = field(default_factory=list)
    constant_indices: tuple = ()
    scores: np.ndarray = None
    warnings: list = field(default_factory=list)
    correlation: np.ndarray = None

    def __post_init__(self):
        self.selected_indices = tuple(int(i) for i in self.selected_indices)
        if len(self.selected_indices) != self.k:
            raise ValueError(
                f"{len(self.selected_indices)} selected indices but k={self.k}"
            )
        if sorted(set(self.selected_indices)) != list(self.selected_indices):
            raise ValueError("selected_indices must be unique and ascending")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
            if not np.all(np.isfinite(self.scores)):
                raise ValueError("scores must be finite")


def select_features(matrix: FeatureMatrix, k: int) -> SelectionResult:
    """Reduce a feature table to its k least mutually redundant columns.

    Labels are ignored. Deterministic: pair ties take the first pair in
    (i, j), i < j scan order; within a pair the member with the larger mean
    absolute correlation to the remaining features is dropped, ties dropping
    the larger catalog index.
    """
    n_feat = matrix.n_features
    if not 1 <= k <= n_feat:
        raise ValueError(f"k must be in 1..{n_feat}, got {k}")
    if matrix.n_rows < 2:
        raise ValueError(f"selection needs at least 2 rows, got {matrix.n_rows}")
    X = matrix.values
    std = X.std(axis=0)
    constant = [c for c in range(n_feat) if std[c] == 0.0]
    warnings = [
        f"feature {c + 1} ({FEATURE_NAMES[c] if c < len(FEATURE_NAMES) else '?'}) "
        "is constant and was excluded"
        for c in constant
    ]
    remaining = [c for c in range(n_feat) if std[c] != 0.0]
    if len(remaining) < k:
        raise ValueError(
            f"only {len(remaining)} non-constant features available, cannot select {k}"
        )
    corr = covariance_matrix(matrix, kind="correlation").values
    abs_corr = np.abs(corr)
    drop_order = [c + 1 for c in constant]

    while len(remaining) > k:
        best = (-1.0, -1, -1)
        for a_pos in range(len(remaining) - 1):
            i = remaining[a_pos]
            for j in remaining[a_pos + 1:]:
                if abs_corr[i, j] > best[0]:
                    best = (abs_corr[i, j], i, j)
        _, i, j = best
        rest = np.array(remaining)

        def mean_to_rest(c):
            others = rest[rest != c]
            return float(abs_corr[c, others].mean())

        mi, mj = mean_to_rest(i), mean_to_rest(j)
        if mi > mj:
            drop = i
        elif mj > mi:
            drop = j
        else:
            drop = max(i, j)
        remaining.remove(drop)
        drop_order.append(drop + 1)

    selected = sorted(remaining)
    scores = np.zeros(n_feat)
    sel_arr = np.array(selected)
    for c in range(n_feat):
        if std[c] == 0.0:
            continue
        others = sel_arr[sel_arr != c]
        scores[c] = float(abs_corr[c, others].mean()) if others.size else 0.0
    return SelectionResult(
        selected_indices=tuple(c + 1 for c in selected),
        k=k,
        drop_order=drop_order,
        constant_indices=tuple(c + 1 for c in constant),
        scores=scores,
        warnings=warnings,
        correlation=corr,
    )


def write_selection_json(result: SelectionResult, path: str) -> None:
    payload = {
        "catalog_version": CATALOG_VERSION,
        "k": result.k,
        "selected_indices": list(result.selected_indices),
        "selected_names": [FEATURE_NAMES[i - 1] for i in result.selected_indices],
        "drop_order": list(result.drop_order),
        "constant_indices": list(result.constant_indices),
        "scores": {
            FEATURE_NAMES[c]: float(result.scores[c]) for c in range(len(FEATURE_NAMES))
        } if result.scores is not None else {},
        "warnings": list(result.warnings),
        "correlation": [
            [float(v) for v in row] for row in result.correlation
        ] if result.correlation is not None else None,
    }
    write_json(path, payload)


def read_selection_indices(path: str) -> list:
    """Load selected catalog indices from a selection JSON file."""
    with file_errors(path, "selection file"), open(path) as fh:
        indices = json.load(fh).get("selected_indices")
        if not isinstance(indices, list) or not indices:
            raise ValueError("missing or empty selected_indices")
        return validate_catalog_indices(indices)


def validate_catalog_indices(indices) -> list:
    """Check a 1-based catalog index list: ints in range, unique, ascending.

    Booleans are refused although True == 1: JSON `true` is not an index.
    """
    out = []
    for i in indices:
        if isinstance(i, (bool, np.bool_)):
            raise ValueError(f"catalog index {i!r} is a boolean, not an integer")
        v = int(i)
        if v != i or not 1 <= v <= len(FEATURE_NAMES):
            raise ValueError(f"catalog index {i!r} out of range 1..{len(FEATURE_NAMES)}")
        out.append(v)
    if len(set(out)) != len(out):
        raise ValueError("catalog indices must be unique")
    if out != sorted(out):
        raise ValueError("catalog indices must be ascending")
    return out
