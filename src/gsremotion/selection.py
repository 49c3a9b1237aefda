"""Covariance analysis and correlation-based feature selection.

Selection is unsupervised backward elimination: repeatedly find the most
correlated remaining pair and drop the member that is on average more
correlated with everything else still in play. Constant columns, whose max
equals their min (the rule FeatureNormalization uses), are removed up front
since their correlation is undefined.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import _typed, file_errors, read_json, write_json
from .features import CATALOG_VERSION, FEATURE_NAMES


def covariance_matrix(X) -> np.ndarray:
    """Population covariance of the columns of a (rows x columns) table, symmetrized."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {X.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("table has non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / X.shape[0]
    if not np.isfinite(cov).all():
        raise ValueError("table values are too large: their covariance overflows")
    return (cov + cov.T) / 2.0


def correlation_matrix(X) -> np.ndarray:
    """Column correlation of a table; a constant column (max == min)
    correlates 0 with the others and 1 with itself."""
    cov = covariance_matrix(X)  # first: it checks the table and refuses one too large to square
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    constant = np.ptp(np.asarray(X, dtype=np.float64), axis=0) == 0
    denom = np.outer(std, std)
    denom[denom == 0.0] = 1.0
    corr = np.clip(cov / denom, -1.0, 1.0)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0


@dataclass
class SelectionResult:
    """Outcome of greedy redundancy elimination.

    selected_indices are 1-based catalog indices, ascending. drop_order lists
    dropped indices in drop sequence (constant columns first). scores give,
    per catalog feature, its mean absolute correlation to the selected set
    (0 for constant columns).
    """

    selected_indices: tuple
    drop_order: list = field(default_factory=list)
    constant_indices: tuple = ()
    scores: np.ndarray = None
    warnings: list = field(default_factory=list)
    correlation: np.ndarray = None

    def __post_init__(self):
        self.selected_indices = tuple(int(i) for i in self.selected_indices)
        if sorted(set(self.selected_indices)) != list(self.selected_indices):
            raise ValueError("selected_indices must be unique and ascending")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
            if not np.all(np.isfinite(self.scores)):
                raise ValueError("scores must be finite")

    @property
    def k(self) -> int:
        return len(self.selected_indices)


def validate_k(k: int, n_features: int) -> int:
    """The number of features to keep, 1..n_features."""
    if not 1 <= k <= n_features:
        raise ValueError(f"k must be in 1..{n_features}, got {k}")
    return k


def select_features(X, k: int) -> SelectionResult:
    """Reduce a (rows x columns) table to its k least mutually redundant columns.

    Deterministic: pair ties take the first pair in (i, j), i < j scan
    order; within a pair the member with the larger mean absolute
    correlation to the remaining features is dropped, ties dropping the
    larger catalog index.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {X.shape}")
    n_feat = X.shape[1]
    validate_k(k, n_feat)
    if X.shape[0] < 2:
        raise ValueError(f"selection needs at least 2 rows, got {X.shape[0]}")
    corr = correlation_matrix(X)  # first: it refuses a table too large to square
    is_constant = np.ptp(X, axis=0) == 0
    constant = np.flatnonzero(is_constant)
    warnings = [
        f"feature {c + 1} ({FEATURE_NAMES[c] if c < len(FEATURE_NAMES) else '?'}) "
        "is constant and was excluded"
        for c in constant
    ]
    rest = np.flatnonzero(~is_constant)
    if len(rest) < k:
        raise ValueError(
            f"only {len(rest)} non-constant features available, cannot select {k}"
        )
    abs_corr = np.abs(corr)
    drop_order = [int(c) + 1 for c in constant]

    while len(rest) > k:
        # the first largest entry above the diagonal, in row-major order
        block = abs_corr[np.ix_(rest, rest)]
        block[np.tril_indices(len(rest))] = -1.0
        a, b = divmod(int(np.argmax(block)), len(rest))
        i, j = rest[a], rest[b]

        def mean_to_rest(c):
            others = rest[rest != c]
            return float(abs_corr[c, others].mean())

        drop = i if mean_to_rest(i) > mean_to_rest(j) else j  # a tie drops j, the larger
        rest = rest[rest != drop]
        drop_order.append(int(drop) + 1)

    scores = np.zeros(n_feat)
    for c in range(n_feat):
        if is_constant[c]:
            continue
        others = rest[rest != c]
        scores[c] = float(abs_corr[c, others].mean()) if others.size else 0.0
    return SelectionResult(
        selected_indices=tuple(int(c) + 1 for c in rest),
        drop_order=drop_order,
        constant_indices=tuple(int(c) + 1 for c in constant),
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
    with file_errors(path, "selection file"):
        payload = read_json(path, "selection file")
        return validate_catalog_indices(_typed(payload["selected_indices"], list,
                                               "selected_indices"))


def validate_catalog_indices(indices) -> list:
    """Check a 1-based catalog index list: non-empty, ints in range, unique, ascending.

    Booleans and floats are refused although True == 1 and 1.0 == 1: JSON
    `true` and `1.0` are not indices. Python and numpy integers pass.
    """
    if len(indices) == 0:
        raise ValueError("catalog index list is empty")
    out = []
    for i in indices:
        if isinstance(i, (bool, np.bool_)):
            raise ValueError(f"catalog index {i!r} is a boolean, not an integer")
        v = int(i)
        if v != i or not 1 <= v <= len(FEATURE_NAMES):
            raise ValueError(f"catalog index {i!r} out of range 1..{len(FEATURE_NAMES)}")
        if not isinstance(i, (int, np.integer)):
            raise ValueError(f"catalog index {i!r} is a {type(i).__name__}, not an integer")
        out.append(v)
    if len(set(out)) != len(out):
        raise ValueError("catalog indices must be unique")
    if out != sorted(out):
        raise ValueError("catalog indices must be ascending")
    return out
