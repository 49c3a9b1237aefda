"""C-SVC training via SMO plus one-vs-one multiclass composition.

Binary machines solve the standard dual
    min 0.5 a'Qa - e'a,  0 <= a_i <= C,  y'a = 0,  Q_ij = y_i y_j K(x_i, x_j)
with maximal-violating-pair working-set selection. The multiclass model
holds one machine per unordered label pair and predicts by majority vote,
breaking vote ties by the summed |decision value| of the machines that voted
for each tied label, then by label order.

The solver is LIBSVM's WSS1 loop (Keerthi et al., Neural Computation 2001;
Chang & Lin, ACM TIST 2011) written to touch whole arrays only where it must:
choosing the pair and updating the selection scores.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dataset import LABEL_ORDER, file_errors, parse_label, write_json
from .features import CATALOG_VERSION, N_FEATURES, FeatureMatrix, FeatureNormalization
from .kernels import KernelSpec, gram
from .selection import validate_catalog_indices

MODEL_FORMAT_VERSION = 1

# Floor for non-positive curvature along the working-set direction.
_TAU = 1e-12


@dataclass
class TrainConfig:
    """Hyperparameters shared by every binary machine."""

    c: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    tolerance: float = 1e-3
    max_passes: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not np.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass
class BinarySvmModel:
    """One trained two-class machine: support expansion f(x) = sum coef K + b."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: KernelSpec
    label_pair: tuple | None = None
    iterations: int = 0
    converged: bool = True
    final_violation: float = 0.0
    objective_trace: np.ndarray | None = None  # training-time diagnostic, not serialized

    def __post_init__(self):
        self.support_vectors = np.asarray(self.support_vectors, dtype=np.float64)
        self.dual_coef = np.asarray(self.dual_coef, dtype=np.float64)
        if self.support_vectors.ndim != 2:
            raise ValueError(f"support_vectors must be 2-D, got {self.support_vectors.shape}")
        if self.dual_coef.shape != (self.support_vectors.shape[0],):
            raise ValueError("one dual coefficient per support vector required")
        if not (np.isfinite(self.support_vectors).all() and np.isfinite(self.dual_coef).all()
                and np.isfinite(self.bias)):
            raise ValueError("support vectors, dual coefficients and bias must be finite")
        self.kernel.require_resolved()

    @property
    def n_support(self) -> int:
        return self.support_vectors.shape[0]


@contextmanager
def _kernel_overflow_refused():
    """Kernel evaluation inside the block ends in a ValueError, not a numpy
    warning, when a feature value or kernel parameter overflows it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError("kernel matrix overflows: feature values or kernel "
                         "parameters are too large") from None


def _violating_bounds(G: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                      C: float) -> tuple:
    """(m, M): max of -y*G over I_up and min over I_low; (0.0, 0.0) if either is empty."""
    v = -y * G
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    if not up.any() or not low.any():
        return 0.0, 0.0
    return float(v[up].max()), float(v[low].min())


def _smo_solve(Q, y, C, tol, max_iter, tiebreak):
    """Run SMO on the dual to convergence or the iteration cap.

    Args:
        Q: (n, n) matrix K[i,j] * y[i] * y[j].
        y: (n,) labels in {-1.0, +1.0}.
        C: box constraint, > 0.
        tol: KKT violation threshold (stop when m - M <= tol).
        max_iter: cap on pair updates.
        tiebreak: (n,) floats; the larger wins among exactly tied candidates.

    Returns:
        (alpha, G, iterations, converged, trace) where G = Q @ alpha - e and
        trace[t] = -f(alpha) after t updates (trace[0] = 0).
    """
    C = float(C)
    n = y.size
    # In descending tiebreak order the first argmax/argmin hit is the winner.
    p = np.argsort(-tiebreak, kind="stable")
    yp = y[p]
    ys = yp.tolist()
    # Track v = -y*G. Row i of R = Q * -y moves v exactly as Q[i] moves G,
    # since a sign flip commutes with rounding.
    R = Q[np.ix_(p, p)]
    R *= -yp
    diag = (R.diagonal() * -yp).tolist()
    v = yp.copy()  # G = -1 at alpha = 0
    alpha = [0.0] * n
    # 0 inside I_up (I_low), -inf (+inf) outside: an empty set gives m = -inf
    # (M = +inf), which ends the loop like a closed gap.
    up_pen = np.where(yp > 0, 0.0, -np.inf)
    low_pen = np.where(yp < 0, 0.0, np.inf)
    objective = 0.0
    trace = [0.0]
    converged = False
    iterations = 0

    for _ in range(max_iter):
        vi = v + up_pen
        i = int(vi.argmax())
        vj = v + low_pen
        j = int(vj.argmin())
        if vi.item(i) - vj.item(j) <= tol:
            converged = True
            break

        yi, yj = ys[i], ys[j]
        Gi, Gj = -yi * v.item(i), -yj * v.item(j)
        Qij = -yj * R.item(i, j)
        old_i = ai = alpha[i]
        old_j = aj = alpha[j]
        if yi != yj:
            quad = diag[i] + diag[j] + 2.0 * Qij
            if quad <= 0.0:
                quad = _TAU
            delta = (-Gi - Gj) / quad
            diff = ai - aj
            ai += delta
            aj += delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
            if diff > 0.0:
                if ai > C:
                    ai = C
                    aj = C - diff
            else:
                if aj > C:
                    aj = C
                    ai = C + diff
        else:
            quad = diag[i] + diag[j] - 2.0 * Qij
            if quad <= 0.0:
                quad = _TAU
            delta = (Gi - Gj) / quad
            total = ai + aj
            ai -= delta
            aj += delta
            if total > C:
                if ai > C:
                    ai = C
                    aj = total - C
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = total
            if total > C:
                if aj > C:
                    aj = C
                    ai = total - C
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = total

        alpha[i] = ai
        alpha[j] = aj
        dai = ai - old_i
        daj = aj - old_j
        v += dai * R[i] + daj * R[j]
        iterations += 1
        objective -= dai * Gi + daj * Gj + 0.5 * (
            dai * dai * diag[i] + 2.0 * dai * daj * Qij + daj * daj * diag[j])
        trace.append(objective)
        for t, a in ((i, ai), (j, aj)):
            up_pen[t] = 0.0 if (a < C if ys[t] > 0 else a > 0.0) else -np.inf
            low_pen[t] = 0.0 if (a < C if ys[t] < 0 else a > 0.0) else np.inf

    alpha_out = np.empty(n)
    alpha_out[p] = alpha
    G = np.empty(n)
    G[p] = v * -yp
    return alpha_out, G, iterations, converged, np.array(trace)


def train_binary(X: np.ndarray, y: np.ndarray, config: TrainConfig,
                 label_pair: tuple | None = None) -> BinarySvmModel:
    """Fit one two-class machine on rows X with labels y in {-1, +1}."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("y must contain only -1 and +1")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("both classes must be present")

    spec = config.kernel.resolved(X.shape[1])
    with _kernel_overflow_refused():
        Q = gram(spec, X)
    Q *= np.outer(y, y)
    tiebreak = np.random.default_rng(config.seed).random(y.size)
    alpha, G, iterations, converged, trace = _smo_solve(
        Q, y, config.c, config.tolerance, config.max_passes, tiebreak
    )

    m, M = _violating_bounds(G, y, alpha, config.c)
    free = (alpha > 0) & (alpha < config.c)
    bias = float((-y * G)[free].mean()) if free.any() else (m + M) / 2.0

    support = alpha > 0
    return BinarySvmModel(
        support_vectors=X[support],
        dual_coef=(alpha * y)[support],
        bias=bias,
        kernel=spec,
        label_pair=label_pair,
        iterations=int(iterations),
        converged=bool(converged),
        final_violation=m - M,
        objective_trace=np.asarray(trace),
    )


def decision_values(model: BinarySvmModel, X: np.ndarray) -> np.ndarray:
    """f(x) for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if model.n_support == 0:
        return np.full(X.shape[0], model.bias)
    return gram(model.kernel, X, model.support_vectors) @ model.dual_coef + model.bias


@dataclass
class MulticlassSvmModel:
    """One-vs-one ensemble over the labels seen at training time.

    feature_indices are 1-based catalog columns the machines were trained
    on; normalization, when present, applies to the full catalog row before
    the column restriction.
    """

    machines: list
    label_order: tuple
    feature_indices: tuple
    normalization: FeatureNormalization | None = None
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        self.label_order = tuple(self.label_order)
        self.feature_indices = tuple(int(i) for i in self.feature_indices)
        if not all(1 <= i <= N_FEATURES for i in self.feature_indices):
            raise ValueError(
                f"feature indices {self.feature_indices} outside catalog "
                f"columns 1..{N_FEATURES}"
            )
        if len(self.label_order) < 2 or self.label_order != tuple(
                lab for lab in LABEL_ORDER if lab in self.label_order):
            raise ValueError("multiclass model needs at least 2 labels, once each, in label order")
        if [m.label_pair for m in self.machines] != list(combinations(self.label_order, 2)):
            raise ValueError(f"{len(self.machines)} machines for {len(self.label_order)} labels: "
                             "need one per label pair, in label order")
        widths = {m.support_vectors.shape[1] for m in self.machines}
        if widths != {len(self.feature_indices)}:
            raise ValueError(f"machines are {sorted(widths)} features wide, "
                             f"the model has {len(self.feature_indices)}")
        if len({m.kernel for m in self.machines}) > 1:
            raise ValueError("machines must all share one kernel")
        if self.normalization is not None and self.normalization.n_features != N_FEATURES:
            raise ValueError(f"normalization has {self.normalization.n_features} columns, "
                             f"expected {N_FEATURES}")


def train_multiclass(matrix: FeatureMatrix, config: TrainConfig,
                     feature_indices=None,
                     normalization: FeatureNormalization | None = None) -> MulticlassSvmModel:
    """Train all pairwise machines on a table of full catalog rows.

    The rows go through _prepare_rows, as at prediction: scaled by
    normalization (if any), then cut to feature_indices (default: all
    catalog columns).
    """
    if feature_indices is None:
        feature_indices = range(1, N_FEATURES + 1)
    feature_indices = tuple(validate_catalog_indices(feature_indices))
    values = _prepare_rows(normalization, feature_indices, matrix.values)
    labels = matrix.labels
    if any(lab is None for lab in labels):
        raise ValueError("training rows must all carry labels")
    present = [lab for lab in LABEL_ORDER if lab in labels]
    if len(present) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {len(present)}")

    machines = []
    lab_arr = np.array([present.index(lab) for lab in labels])
    for a, b in combinations(range(len(present)), 2):
        rows = np.flatnonzero((lab_arr == a) | (lab_arr == b))
        y = np.where(lab_arr[rows] == a, 1.0, -1.0)
        machines.append(
            train_binary(values[rows], y, config, label_pair=(present[a], present[b]))
        )
    return MulticlassSvmModel(
        machines=machines,
        label_order=tuple(present),
        feature_indices=feature_indices,
        normalization=normalization,
        config=config,
    )


def _prepare_rows(normalization: FeatureNormalization | None, feature_indices,
                  values: np.ndarray) -> np.ndarray:
    """A model's rows from full catalog rows: checked, scaled by the
    normalization (if any), then cut to the feature_indices columns."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected 2-D rows, got shape {values.shape}")
    if values.shape[1] != N_FEATURES:
        raise ValueError(
            f"rows have {values.shape[1]} columns, the model needs full catalog "
            f"rows of {N_FEATURES} columns"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("rows contain non-finite values")
    if normalization is not None:
        values = normalization.scale(values)
    return values[:, [i - 1 for i in feature_indices]]


def predict_batch(model: MulticlassSvmModel, values: np.ndarray) -> list:
    """Predict a label per full catalog row; one row is a (1, 30) batch."""
    rows = _prepare_rows(model.normalization, model.feature_indices, values)
    order = model.label_order
    # the model's machines are its label pairs in order
    pairs = np.array(list(combinations(range(len(order)), 2)))
    with _kernel_overflow_refused():
        f = np.column_stack([decision_values(m, rows) for m in model.machines])
    winners = np.where(f > 0, pairs[:, 0], pairs[:, 1])
    # add.at sums each row's strengths in machine order, so tie-breaks see the
    # same floats as adding one machine at a time
    at = (np.arange(rows.shape[0])[:, None], winners)
    votes = np.zeros((rows.shape[0], len(order)), dtype=np.int64)
    strengths = np.zeros(votes.shape)
    np.add.at(votes, at, 1)
    np.add.at(strengths, at, np.abs(f))
    # argmax takes the first maximum, so exact strength ties go by label order
    most_votes = votes == votes.max(axis=1, keepdims=True)
    best = np.argmax(np.where(most_votes, strengths, -np.inf), axis=1)
    return [order[i] for i in best]


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_list(values) -> list:
    return [_hex(v) for v in np.asarray(values, dtype=np.float64).ravel()]


def _kernel_payload(spec: KernelSpec) -> dict:
    return {
        "kind": spec.kind,
        "eta": None if spec.eta is None else _hex(spec.eta),
        "r": _hex(spec.r),
        "degree": spec.degree,
    }


def _kernel_from_payload(payload: dict) -> KernelSpec:
    return KernelSpec(
        kind=payload["kind"],
        eta=None if payload["eta"] is None else float.fromhex(payload["eta"]),
        r=float.fromhex(payload["r"]),
        degree=int(payload["degree"]),
    )


def save_model(model: MulticlassSvmModel, path: str) -> None:
    """Serialize to JSON; floats are hex strings so loading is bit-exact."""
    machines = []
    for m in model.machines:
        machines.append({
            "labels": [m.label_pair[0].value, m.label_pair[1].value],
            "kernel": _kernel_payload(m.kernel),
            "bias": _hex(m.bias),
            "dual_coef": _hex_list(m.dual_coef),
            "support_vectors": [_hex_list(row) for row in m.support_vectors],
            "n_features": int(m.support_vectors.shape[1]),
            "iterations": m.iterations,
            "converged": m.converged,
            "final_violation": _hex(m.final_violation),
        })
    norm = None
    if model.normalization is not None:
        norm = {
            "mins": _hex_list(model.normalization.mins),
            "maxs": _hex_list(model.normalization.maxs),
            "degenerate": [bool(b) for b in model.normalization.degenerate],
        }
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "one_vs_one_svm",
        "catalog_version": CATALOG_VERSION,
        "label_order": [lab.value for lab in model.label_order],
        "feature_indices": list(model.feature_indices),
        "normalization": norm,
        "config": {
            "c": _hex(model.config.c),
            "tolerance": _hex(model.config.tolerance),
            "max_passes": model.config.max_passes,
            "seed": model.config.seed,
            "kernel": _kernel_payload(model.config.kernel),
        },
        "machines": machines,
    }
    write_json(path, payload)


def load_model(path: str) -> MulticlassSvmModel:
    """Load a model saved by save_model; errors on foreign or truncated files.

    Every malformed file, a missing key or a value of the wrong type
    included, ends in a ValueError that names the file.
    """
    with file_errors(path, "model file"), open(path) as fh:
        payload = json.load(fh)
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"model format_version {version!r} unsupported "
                f"(expected {MODEL_FORMAT_VERSION})"
            )
        if payload.get("kind") != "one_vs_one_svm":
            raise ValueError("not a one_vs_one_svm model file")
        catalog = int(payload["catalog_version"])
        if catalog != CATALOG_VERSION:
            raise ValueError(
                f"catalog_version {catalog} unsupported (expected {CATALOG_VERSION})")
        machines = []
        for m in payload["machines"]:
            n_features = int(m["n_features"])
            sv_rows = [[float.fromhex(v) for v in row] for row in m["support_vectors"]]
            machines.append(BinarySvmModel(
                support_vectors=np.array(sv_rows, dtype=np.float64).reshape(-1, n_features),
                dual_coef=np.array([float.fromhex(v) for v in m["dual_coef"]]),
                bias=float.fromhex(m["bias"]),
                kernel=_kernel_from_payload(m["kernel"]),
                label_pair=(parse_label(m["labels"][0]), parse_label(m["labels"][1])),
                iterations=int(m["iterations"]),
                converged=bool(m["converged"]),
                final_violation=float.fromhex(m["final_violation"]),
            ))
        norm = None
        if payload.get("normalization") is not None:
            np_payload = payload["normalization"]
            norm = FeatureNormalization(
                mins=np.array([float.fromhex(v) for v in np_payload["mins"]]),
                maxs=np.array([float.fromhex(v) for v in np_payload["maxs"]]),
            )
            if np_payload["degenerate"] != norm.degenerate.tolist():
                raise ValueError("normalization degenerate flags disagree with its mins/maxs")
        cfg_payload = payload["config"]
        config = TrainConfig(
            c=float.fromhex(cfg_payload["c"]),
            kernel=_kernel_from_payload(cfg_payload["kernel"]),
            tolerance=float.fromhex(cfg_payload["tolerance"]),
            max_passes=int(cfg_payload["max_passes"]),
            seed=int(cfg_payload["seed"]),
        )
        return MulticlassSvmModel(
            machines=machines,
            label_order=tuple(parse_label(v) for v in payload["label_order"]),
            feature_indices=tuple(int(i) for i in payload["feature_indices"]),
            normalization=norm,
            config=config,
        )
