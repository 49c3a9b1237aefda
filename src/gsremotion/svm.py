"""C-SVC training via SMO plus one-vs-one multiclass composition.

Binary machines solve the standard dual
    min 0.5 a'Qa - e'a,  0 <= a_i <= C,  y'a = 0,  Q_ij = y_i y_j K(x_i, x_j)
with second-order working-set selection, K being the linear or the rbf
kernel of gsremotion.kernels. The multiclass model holds one
machine per unordered label pair and predicts by majority vote, breaking
vote ties by the summed |decision value| of the machines that voted for each
tied label, then by label order.

The solver is LIBSVM's WSS2 loop (Fan, Chen & Lin, "Working Set Selection
Using Second Order Information for Training SVM", JMLR 2005; Chang & Lin,
ACM TIST 2011) written to touch whole arrays only where it must: choosing
the pair and updating the selection scores. Like LIBSVM (Chang & Lin,
section 4.1) it computes kernel rows on demand and keeps what it reuses:
train_binary hands it the kernel diagonal and a row source that computes
row t the first time the solver reads it, as one matrix-vector product
x_t @ X.T finished into kernel values, and the solver keeps the curvature
vector of each first index it picks. A solve reads only the rows of the
indices it picks, about an eighth of them in a cross-validation of the 8x
corpus, and no n x n array is ever formed.

Prediction follows LIBSVM's model layout (Chang & Lin, ACM TIST 2011):
the model keeps each support vector once, however many machines use it, in
one pool, with a dense (pool x machines) coefficient matrix that is zero
where a machine does not use a vector. A block of rows is then one gram
against the pool and one product with the coefficients, which gives every
machine's decision value at once. Both products go through
kernels.tile_product, so a row's decision values depend on the row alone:
not on the batch, its blocks, the BLAS thread count or the rows' layout.
decision_values scores its rows in blocks of max(1, _KERNEL_BLOCK_CELLS // n)
rows, n the pool size, so no kernel block holds more than
_KERNEL_BLOCK_CELLS cells (or one row's, if n is larger). predict_batch's
_vote counts each row's votes and sums its strengths with one np.bincount
each over the cells row * n_labels + winner.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dataset import LABEL_ORDER, _typed, file_errors, parse_label, read_json, write_json
from .features import CATALOG_VERSION, N_FEATURES, FeatureMatrix, FeatureNormalization
from .kernels import KernelSpec, finish_block, gram, squared_norms, tile_product
from .selection import validate_catalog_indices

MODEL_FORMAT_VERSION = 4

# The SMO stop rule: a machine converges when its KKT gap m - M is at most
# TOLERANCE, and stops short after MAX_PASSES pair updates.
TOLERANCE = 1e-3
MAX_PASSES = 100_000

# Floor for non-positive curvature along the working-set direction.
_TAU = 1e-12

# The most rows x pool kernel cells decision_values forms at once.
_KERNEL_BLOCK_CELLS = 2 ** 17


@dataclass
class TrainConfig:
    """Hyperparameters shared by every binary machine."""

    c: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be positive and finite, got {self.c}")


@dataclass
class BinarySvmModel:
    """One trained two-class machine: support expansion f(x) = sum coef K + b."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: KernelSpec
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


def _smo_solve(row, kdiag, y, C, tol, max_iter):
    """Run SMO on the dual to convergence or the iteration cap.

    Args:
        row: row(t) returns row t of the (n, n) kernel matrix K, which the
            solver only reads; the dual's Q is K[i,j] * y[i] * y[j]. Rows
            come in tie-break order: among exactly tied selection scores the
            lowest index wins. A full matrix serves as K.__getitem__.
        kdiag: (n,) the diagonal of K, read only.
        y: (n,) labels in {-1.0, +1.0}.
        C: box constraint, > 0.
        tol: KKT violation threshold (stop when m - M <= tol).
        max_iter: cap on pair updates.

    Returns:
        (alpha, G, iterations, converged, trace) where G = Q @ alpha - e and
        trace[t] = -f(alpha) after t updates (trace[0] = 0).

    Each step reads rows i and j only. The curvature vector of a first index
    i, max(K_ii + diag(K) - 2 K_i, tau), depends on i alone, so it is built
    once per distinct i and kept: at most one n-vector per distinct i, and
    most steps reuse one (LIBSVM caches kernel columns for the same reason,
    Chang & Lin, ACM TIST 2011, section 4.1).
    """
    C = float(C)
    n = y.size
    ys = y.tolist()
    # Track v = -y*G. Q[i] * -y equals K[i] * -y[i] exactly (factors of +-1
    # are exact), so K[i] * (-y[i]*da) moves v as Q[i] * da moves G.
    diag = kdiag.tolist()
    curvature = {}
    v = y.copy()  # G = -1 at alpha = 0
    alpha = [0.0] * n
    # 0 inside I_up (I_low), -inf (+inf) outside: an empty set gives m = -inf
    # (M = +inf), which ends the loop like a closed gap.
    up_pen = np.where(y > 0, 0.0, -np.inf)
    low_pen = np.where(y < 0, 0.0, np.inf)
    objective = 0.0
    trace = [0.0]
    converged = False
    vi, vj, step = np.empty((3, n))  # each step's temporaries, allocated once

    for _ in range(max_iter):
        np.add(v, up_pen, out=vi)
        i = int(vi.argmax())
        m = vi.item(i)
        np.add(v, low_pen, out=vj)
        if m - vj.item(vj.argmin()) <= tol:
            converged = True
            break
        # j maximises b^2 / a over I_low, where b = m - v_t > 0 and
        # a = K_ii + K_tt - 2 K_it (at least tau): vj becomes
        # min(v - m, 0)^2 / a, which is 0 outside I_low and where v_t >= m.
        Ki = row(i)
        curv = curvature.get(i)
        if curv is None:
            curv = curvature[i] = np.multiply(Ki, -2.0)
            curv += kdiag
            curv += diag[i]
            np.maximum(curv, _TAU, out=curv)
        vj -= m
        np.minimum(vj, 0.0, out=vj)
        vj *= vj
        vj /= curv
        j = int(vj.argmax())

        yi, yj = ys[i], ys[j]
        Gi, Gj = -yi * v.item(i), -yj * v.item(j)
        Qij = yi * yj * Ki.item(j)
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
            elif ai < 0.0:
                ai = 0.0
                aj = -diff
            if diff > 0.0:
                if ai > C:
                    ai = C
                    aj = C - diff
            elif aj > C:
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
            elif aj < 0.0:
                aj = 0.0
                ai = total
            if total > C:
                if aj > C:
                    aj = C
                    ai = total - C
            elif ai < 0.0:
                ai = 0.0
                aj = total

        alpha[i] = ai
        alpha[j] = aj
        dai = ai - old_i
        daj = aj - old_j
        np.multiply(Ki, -yi * dai, out=step)
        step += np.multiply(row(j), -yj * daj, out=vi)  # vi is not read again this step
        v += step
        objective -= dai * Gi + daj * Gj + 0.5 * (
            dai * dai * diag[i] + 2.0 * dai * daj * Qij + daj * daj * diag[j])
        trace.append(objective)
        for t, a in ((i, ai), (j, aj)):
            up_pen[t] = 0.0 if (a < C if ys[t] > 0 else a > 0.0) else -np.inf
            low_pen[t] = 0.0 if (a < C if ys[t] < 0 else a > 0.0) else np.inf

    return np.array(alpha), v * -y, len(trace) - 1, converged, np.array(trace)


def _kernel_bound(spec: KernelSpec, norms: np.ndarray) -> float:
    """A float that no intermediate of any kernel cell exceeds in magnitude.

    It is computed in numpy scalars, N first, so under
    _kernel_overflow_refused a bound that overflows raises: train_binary
    refuses such a table before the solver starts and computes its rows.
    With N = max |x|^2 over the rows, Cauchy-Schwarz gives
    |<x, z>| <= |x| |z| <= N. The rounded norms and products stay within a
    few ulps of the exact ones, and a factor of 2 covers that:
      rbf: |x|^2 + |z|^2 - 2 <x, z> is at most 4N, and eta times it at most
        4 eta N, so 8 N max(eta, 1) covers both; exp of a value <= 0 cannot
        overflow.
      linear: the cell is the inner product itself, so N bounds it.
    """
    N = norms.max()
    if spec.kind == "linear":
        return N
    return N * 8.0 * max(spec.eta, 1.0)


def train_binary(X: np.ndarray, y: np.ndarray, config: TrainConfig) -> BinarySvmModel:
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
    # Rows go to the solver in descending tiebreak order, so its first
    # argmax hit is the tie winner; argsort(p) maps the result back.
    tiebreak = np.random.default_rng(config.seed).random(y.size)
    p = np.argsort(-tiebreak, kind="stable")
    Xp = X[p]
    with _kernel_overflow_refused():
        # The diagonal comes from the squared norms, so an rbf K_tt is
        # exactly 1; the bound covers every row the solver computes later.
        norms = squared_norms(Xp)
        kdiag = finish_block(spec, norms.copy(), norms, norms)
        _kernel_bound(spec, norms)  # raises where a cell could overflow
    # Row t is one matrix-vector product, finished and kept when the solver
    # first reads it; rows it never reads are never computed. Each product
    # sums in a fixed order, so the bits do not depend on BLAS threads.
    XpT = np.ascontiguousarray(Xp.T)
    rows = [None] * y.size

    def row(t):
        Kt = rows[t]
        if Kt is None:
            Kt = rows[t] = finish_block(spec, Xp[t] @ XpT, norms[t], norms)
        return Kt

    alpha, G, iterations, converged, trace = _smo_solve(
        row, kdiag, y[p], config.c, TOLERANCE, MAX_PASSES)
    back = np.argsort(p)
    alpha, G = alpha[back], G[back]

    m, M = _violating_bounds(G, y, alpha, config.c)
    free = (alpha > 0) & (alpha < config.c)
    bias = float((-y * G)[free].mean()) if free.any() else (m + M) / 2.0

    support = alpha > 0
    return BinarySvmModel(
        support_vectors=X[support],
        dual_coef=(alpha * y)[support],
        bias=bias,
        kernel=spec,
        iterations=int(iterations),
        converged=bool(converged),
        final_violation=m - M,
        objective_trace=np.asarray(trace),
    )


def _support_pool(machines: list) -> tuple:
    """(vectors, coef, bias): each support vector of the machines once
    (np.unique's order), the dense (pool x machines) coefficient matrix and
    the machines' biases. A vector that one machine holds twice sums its
    coefficients."""
    stacked = np.concatenate([m.support_vectors for m in machines])
    vectors, inverse = np.unique(stacked, axis=0, return_inverse=True)
    coef = np.zeros((len(vectors), len(machines)))
    owner = np.repeat(np.arange(len(machines)), [m.n_support for m in machines])
    np.add.at(coef, (inverse.ravel(), owner), np.concatenate([m.dual_coef for m in machines]))
    return vectors, coef, np.array([m.bias for m in machines])


@dataclass
class MulticlassSvmModel:
    """One-vs-one ensemble over the labels seen at training time.

    Machine i decides the i-th pair of label_order (combinations order),
    and every machine uses one kernel. feature_indices are 1-based catalog
    columns the machines were trained on; normalization, when present,
    holds the min and max of every catalog column, and each used column is
    scaled by its own. Derived when the model is built, so also by
    load_model and dataclasses.replace, and not serialized: columns, the
    0-based positions of feature_indices; pool, coef and bias, the
    machines' unique support vectors, the (pool x machines) coefficient
    matrix and the biases (see _support_pool); pool_norms, for rbf the
    squared_norms of pool (None for linear, which reads none); and
    block_rows, the rows predict_batch scores at once. Support vectors whose
    norms overflow are refused here, as prediction would refuse them.
    """

    machines: list
    label_order: tuple
    feature_indices: tuple
    normalization: FeatureNormalization | None = None
    config: TrainConfig = field(default_factory=TrainConfig)
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    pool: np.ndarray = field(init=False, repr=False, compare=False)
    pool_norms: np.ndarray | None = field(init=False, repr=False, compare=False)
    coef: np.ndarray = field(init=False, repr=False, compare=False)
    bias: np.ndarray = field(init=False, repr=False, compare=False)
    block_rows: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.label_order = tuple(self.label_order)
        self.feature_indices = tuple(validate_catalog_indices(self.feature_indices))
        if len(self.label_order) < 2 or self.label_order != tuple(
                lab for lab in LABEL_ORDER if lab in self.label_order):
            raise ValueError("multiclass model needs at least 2 labels, once each, in label order")
        if len(self.machines) != len(list(combinations(self.label_order, 2))):
            raise ValueError(f"{len(self.machines)} machines for {len(self.label_order)} labels: "
                             "need one per label pair")
        widths = {m.support_vectors.shape[1] for m in self.machines}
        if widths != {len(self.feature_indices)}:
            raise ValueError(f"machines are {sorted(widths)} features wide, "
                             f"the model has {len(self.feature_indices)}")
        kernels = {m.kernel for m in self.machines}
        if len(kernels) != 1:
            raise ValueError(f"machines must all use one kernel, got {len(kernels)}: "
                             f"{sorted(kernels, key=repr)}")
        if self.normalization is not None and self.normalization.n_features != N_FEATURES:
            raise ValueError(f"normalization has {self.normalization.n_features} columns, "
                             f"expected {N_FEATURES}")
        self.columns = np.subtract(self.feature_indices, 1)
        self.pool, self.coef, self.bias = _support_pool(self.machines)
        self.pool_norms = None
        if self.machines[0].kernel.kind == "rbf":
            with _kernel_overflow_refused():
                self.pool_norms = squared_norms(self.pool)
        self.block_rows = max(1, _KERNEL_BLOCK_CELLS // max(len(self.pool), 1))

    def warnings(self, prefix: str = "") -> list:
        """A line after prefix for each machine that MAX_PASSES stopped short of TOLERANCE."""
        return [f"{prefix}machine {a.value}/{b.value} did not converge: stopped after "
                f"{m.iterations} iterations with KKT gap {m.final_violation:.4g}"
                for m, (a, b) in zip(self.machines, combinations(self.label_order, 2))
                if not m.converged]


def train_multiclass(matrix: FeatureMatrix, config: TrainConfig, feature_indices,
                     normalization: FeatureNormalization | None) -> MulticlassSvmModel:
    """Train all pairwise machines on a table of full catalog rows.

    The rows go through _prepare_rows, as at prediction: cut to
    feature_indices, then scaled by normalization (if not None).
    """
    feature_indices = tuple(validate_catalog_indices(feature_indices))
    values = _prepare_rows(normalization, np.subtract(feature_indices, 1), matrix.values)
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
        machines.append(train_binary(values[rows], y, config))
    return MulticlassSvmModel(
        machines=machines,
        label_order=tuple(present),
        feature_indices=feature_indices,
        normalization=normalization,
        config=config,
    )


def _prepare_rows(normalization: FeatureNormalization | None, columns: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """A model's rows from full catalog rows: checked, cut to the 0-based
    catalog columns, then scaled by the normalization (if any)."""
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
    rows = values[:, columns]
    return rows if normalization is None else normalization.scale(rows, columns)


# Machine i of a model with n labels decides the label positions _PAIRS[n][i].
_PAIRS = {n: np.array(list(combinations(range(n), 2)))
          for n in range(2, len(LABEL_ORDER) + 1)}


def _vote(f: np.ndarray, pairs: np.ndarray, n_labels: int) -> tuple:
    """(votes, strengths), each (rows x n_labels), from the (machines x rows)
    decision table f: machine j votes for label pairs[j, 0] where f > 0, else
    for pairs[j, 1], with strength |f|.

    Each vote lands in cell row * n_labels + winner. np.bincount adds its
    weights in input order, and f is read machine by machine, so each row's
    strengths are summed in machine order from 0.0: the floats that adding
    one machine at a time gives, so tie-breaks see the same bits.
    """
    n_rows = f.shape[1]
    winners = np.where(f > 0, pairs[:, :1], pairs[:, 1:])
    winners += np.arange(n_rows) * n_labels
    cells, size = winners.ravel(), n_rows * n_labels
    votes = np.bincount(cells, minlength=size).reshape(n_rows, n_labels)
    strengths = np.bincount(cells, np.abs(f).ravel(), size).reshape(n_rows, n_labels)
    return votes, strengths


def decision_values(model: MulticlassSvmModel, values: np.ndarray) -> np.ndarray:
    """The (rows x machines) table of decision values of full catalog rows:
    column j is machine j's f(x) = sum coef K(x, sv) + bias.

    Each block of model.block_rows rows is one gram against model.pool and
    one tile_product with model.coef, so a kernel block never exceeds
    _KERNEL_BLOCK_CELLS cells (one row's, if the pool is larger), and each
    row's values have the bits of that row scored alone.
    """
    with _kernel_overflow_refused():  # a used column may overflow its scaling too
        rows = _prepare_rows(model.normalization, model.columns, values)
        f = np.empty((rows.shape[0], len(model.machines)))
        for start in range(0, rows.shape[0], model.block_rows):
            block = slice(start, start + model.block_rows)
            K = gram(model.machines[0].kernel, rows[block], model.pool, model.pool_norms)
            f[block] = tile_product(K, model.coef)
        f += model.bias
    return f


def predict_batch(model: MulticlassSvmModel, values: np.ndarray) -> list:
    """Predict a label per full catalog row; one row is a (1, 30) batch.

    Each row goes to the label with the most votes of its decision_values,
    then the largest summed strength among those, then the first in label
    order (see _vote). A row's label, like its decision values, does not
    depend on the rest of the batch.
    """
    order = model.label_order
    votes, strengths = _vote(decision_values(model, values).T, _PAIRS[len(order)], len(order))
    # argmax takes the first maximum, so exact strength ties go by label order
    most_votes = votes == votes.max(axis=1, keepdims=True)
    best = np.argmax(np.where(most_votes, strengths, -np.inf), axis=1)
    return [order[i] for i in best]


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_list(values) -> list:
    return [_hex(v) for v in np.asarray(values, dtype=np.float64).ravel()]


def save_model(model: MulticlassSvmModel, path: str) -> None:
    """Serialize to JSON; floats are hex strings so loading is bit-exact.
    Each fact is stored once: see load_model for what it derives."""
    spec = model.config.kernel
    if any(m.kernel != spec.resolved(len(model.feature_indices)) for m in model.machines):
        raise ValueError("machines must all use config.kernel, resolved to the model's width")
    machines = [{
        "bias": _hex(m.bias),
        "dual_coef": _hex_list(m.dual_coef),
        "support_vectors": [_hex_list(row) for row in m.support_vectors],
        "iterations": m.iterations,
        "converged": m.converged,
        "final_violation": _hex(m.final_violation),
    } for m in model.machines]
    norm = None
    if model.normalization is not None:
        norm = {
            "mins": _hex_list(model.normalization.mins),
            "maxs": _hex_list(model.normalization.maxs),
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
            "seed": model.config.seed,
            "kernel": {"kind": spec.kind, "eta": None if spec.eta is None else _hex(spec.eta)},
        },
        "machines": machines,
    }
    write_json(path, payload)


def _from_hex(value, key: str) -> float:
    """A model file's hex float; one that is not a hex float, or is too large
    for a double, is a ValueError that names key."""
    try:
        return float.fromhex(value)
    except ValueError:
        raise ValueError(f"{key} {value!r} is not a hex float") from None
    except OverflowError:
        raise ValueError(f"{key} {value!r} is too large for a double") from None


def load_model(path: str) -> MulticlassSvmModel:
    """Load a model saved by save_model; errors on foreign or truncated files.

    Machine i's label pair is the i-th pair of label_order, and its kernel is
    config.kernel resolved to the model's width, the number of feature_indices.
    Every malformed file, a missing key or a value of the wrong type included,
    ends in a ValueError that names the file; catalog_version, seed and
    iterations must be JSON integers and converged a JSON boolean, so a
    number or string that would coerce to one is refused. Every float goes
    through _from_hex, so a hex float too large for a double is refused by
    its key, not raised as an OverflowError.
    """
    with file_errors(path, "model file"):
        payload = read_json(path, "model file")
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"model format_version {version!r} unsupported "
                f"(expected {MODEL_FORMAT_VERSION})"
            )
        if payload.get("kind") != "one_vs_one_svm":
            raise ValueError("not a one_vs_one_svm model file")
        catalog = _typed(payload["catalog_version"], int, "catalog_version")
        if catalog != CATALOG_VERSION:
            raise ValueError(
                f"catalog_version {catalog} unsupported (expected {CATALOG_VERSION})")
        cfg, spec = payload["config"], payload["config"]["kernel"]
        config = TrainConfig(
            c=_from_hex(cfg["c"], "c"),
            kernel=KernelSpec(kind=spec["kind"],
                              eta=None if spec["eta"] is None else _from_hex(spec["eta"], "eta")),
            seed=_typed(cfg["seed"], int, "seed"),
        )
        label_order = tuple(parse_label(v) for v in payload["label_order"])
        feature_indices = tuple(validate_catalog_indices(payload["feature_indices"]))
        width = len(feature_indices)
        kernel = config.kernel.resolved(width)
        machines = []
        for m in payload["machines"]:
            sv_rows = [[_from_hex(v, "support_vectors") for v in row]
                       for row in m["support_vectors"]]
            widths = {len(row) for row in sv_rows}
            if widths - {width}:
                raise ValueError(f"machines are {sorted(widths)} features wide, "
                                 f"the model has {width}")
            machines.append(BinarySvmModel(
                support_vectors=np.array(sv_rows, dtype=np.float64).reshape(len(sv_rows), width),
                dual_coef=np.array([_from_hex(v, "dual_coef") for v in m["dual_coef"]]),
                bias=_from_hex(m["bias"], "bias"),
                kernel=kernel,
                iterations=_typed(m["iterations"], int, "iterations"),
                converged=_typed(m["converged"], bool, "converged"),
                final_violation=_from_hex(m["final_violation"], "final_violation"),
            ))
        norm = payload["normalization"]
        if norm is not None:
            norm = FeatureNormalization(
                mins=np.array([_from_hex(v, "mins") for v in norm["mins"]]),
                maxs=np.array([_from_hex(v, "maxs") for v in norm["maxs"]]),
            )
        return MulticlassSvmModel(
            machines=machines,
            label_order=label_order,
            feature_indices=feature_indices,
            normalization=norm,
            config=config,
        )
