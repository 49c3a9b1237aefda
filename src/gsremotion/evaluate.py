"""Scoring, k-fold cross-validation, and plain-text report tables.

The CV harness wraps each fold's held-out rows in an access-counting guard
that is armed while the fold's model is being fitted: any read of the
held-out values during fitting would be counted, so a zero count certifies
the fit never touched them.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import LABEL_ORDER, Dataset, shuffled_label_groups

# Rows drawn per label for the sampled rates of `eval`.
SAMPLED_PER_LABEL = 3


@dataclass
class ConfusionMatrix:
    """counts[i, j] = rows with true label i predicted as label j."""

    counts: np.ndarray
    label_order: tuple

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.label_order = tuple(self.label_order)
        n = len(self.label_order)
        if self.counts.shape != (n, n):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match {n} labels"
            )
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_predictions(cls, truth, predicted, label_order=None) -> "ConfusionMatrix":
        truth = list(truth)
        predicted = list(predicted)
        if len(truth) != len(predicted):
            raise ValueError(f"{len(truth)} truths vs {len(predicted)} predictions")
        if not truth:
            raise ValueError("cannot build a confusion matrix from zero rows")
        order = tuple(label_order) if label_order is not None else LABEL_ORDER
        pos = {lab: k for k, lab in enumerate(order)}
        counts = np.zeros((len(order), len(order)), dtype=np.int64)
        for t, p in zip(truth, predicted):
            if t not in pos or p not in pos:
                raise ValueError(f"label {t if t not in pos else p} not in label order")
            counts[pos[t], pos[p]] += 1
        return cls(counts=counts, label_order=order)

    def add(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.label_order != other.label_order:
            raise ValueError("cannot add confusion matrices with different label orders")
        return ConfusionMatrix(counts=self.counts + other.counts,
                               label_order=self.label_order)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("accuracy undefined for an empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def per_label_rates(cm: ConfusionMatrix) -> dict:
    """Recognition rate (recall) per label; every label row must be scored."""
    out = {}
    for k, lab in enumerate(cm.label_order):
        row_total = int(cm.counts[k].sum())
        if row_total == 0:
            raise ValueError(f"label {lab.value!r} has no scored rows")
        out[lab] = float(cm.counts[k, k]) / row_total
    return out


class HeldOutGuard:
    """Access-counting wrapper around a fold's held-out feature rows.

    While armed, every read of .values increments access_count. The CV loop
    arms the guard for the duration of model fitting and asserts the count
    stayed at zero before disarming it for prediction.
    """

    def __init__(self, values: np.ndarray):
        hidden = np.array(values, dtype=np.float64)
        hidden.setflags(write=False)
        self._values = hidden
        self._armed = False
        self.access_count = 0

    def arm(self) -> None:
        self._armed = True

    def disarm(self) -> None:
        self._armed = False

    @property
    def values(self) -> np.ndarray:
        if self._armed:
            self.access_count += 1
        return self._values


def stratified_kfold_indices(labels, k: int, seed: int) -> list:
    """k disjoint test-index lists covering all rows, stratified by label.

    Per label, rows are shuffled once (seeded) and dealt round-robin, so
    fold sizes per label differ by at most one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    folds = [[] for _ in range(k)]
    for lab, rows in shuffled_label_groups(labels, seed).items():
        if len(rows) < k:
            raise ValueError(
                f"label {getattr(lab, 'value', lab)!r} has {len(rows)} rows, "
                f"cannot stratify into {k} folds"
            )
        for pos, i in enumerate(rows):
            folds[pos % k].append(i)
    return [sorted(f) for f in folds]


@dataclass
class CvReport:
    """Cross-validation outcome: per-fold and aggregate scores."""

    k: int
    seed: int
    fold_accuracies: list
    confusion: ConfusionMatrix
    heldout_accesses: int
    fold_confusions: list = field(default_factory=list)
    # (fold number, BinarySvmModel) for each machine stopped by max_passes
    unconverged: list = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.fold_accuracies))

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "fold_accuracies": [float(a) for a in self.fold_accuracies],
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "heldout_accesses_during_fit": self.heldout_accesses,
            "label_order": [lab.value for lab in self.confusion.label_order],
            "confusion": self.confusion.counts.tolist(),
        }


def kfold_cross_validate(dataset: Dataset, k: int, config, seed: int) -> CvReport:
    """Stratified k-fold CV of the full pipeline on a raw dataset.

    Record-level preprocessing and feature extraction run once up front
    (they are row-local); per fold, feature normalization, selection and
    training are fitted on the training rows only while the held-out rows
    sit inside an armed HeldOutGuard.
    """
    from . import pipeline  # local import: pipeline orchestrates this module's types
    from .features import extract_dataset_features

    prepared = pipeline.prepare_dataset(dataset, config)
    matrix = extract_dataset_features(prepared)
    folds = stratified_kfold_indices(matrix.labels, k, seed)

    fold_accuracies = []
    fold_confusions = []
    unconverged = []
    total_accesses = 0
    combined = None
    for fold, test_rows in enumerate(folds, start=1):
        test_set = set(test_rows)
        train_rows = [i for i in range(matrix.n_rows) if i not in test_set]
        train_matrix = pipeline.subset_rows(matrix, train_rows)
        guard = HeldOutGuard(matrix.values[test_rows])
        guard.arm()
        fitted = pipeline.fit_from_features(train_matrix, config)
        total_accesses += guard.access_count
        guard.disarm()
        unconverged += [(fold, m) for m in fitted.model.machines if not m.converged]
        predicted = pipeline.predict_rows(fitted.model, guard.values)
        truth = [matrix.labels[i] for i in test_rows]
        cm = ConfusionMatrix.from_predictions(truth, predicted,
                                              fitted.model.label_order)
        fold_accuracies.append(accuracy(cm))
        fold_confusions.append(cm)
        combined = cm if combined is None else combined.add(cm)
    return CvReport(
        k=k,
        seed=seed,
        fold_accuracies=fold_accuracies,
        confusion=combined,
        heldout_accesses=total_accesses,
        fold_confusions=fold_confusions,
        unconverged=unconverged,
    )


def format_confusion(cm: ConfusionMatrix) -> str:
    """Fixed-width text table, rows = true labels, columns = predicted."""
    names = [lab.value for lab in cm.label_order]
    width = max(len(n) for n in names + ["true\\pred"]) + 2
    cell = max(max(len(n) for n in names) + 2, 7)
    lines = ["".join(["true\\pred".ljust(width)] + [n.rjust(cell) for n in names])]
    for k, name in enumerate(names):
        row = [name.ljust(width)]
        row.extend(str(int(v)).rjust(cell) for v in cm.counts[k])
        lines.append("".join(row))
    return "\n".join(lines)


def format_rates(cm: ConfusionMatrix) -> str:
    """Per-label sample counts and recognition rates plus the overall rate."""
    lines = [f"{'label':<12}{'n':>6}{'correct':>9}{'rate':>8}"]
    for k, lab in enumerate(cm.label_order):
        n = int(cm.counts[k].sum())
        good = int(cm.counts[k, k])
        rate = f"{good / n:.4f}" if n else "-"
        lines.append(f"{lab.value:<12}{n:>6}{good:>9}{rate:>8}")
    lines.append(f"{'overall':<12}{cm.total:>6}{int(np.trace(cm.counts)):>9}"
                 f"{accuracy(cm):>8.4f}")
    return "\n".join(lines)


def sampled_label_rates(truth, predicted, seed: int) -> dict:
    """Per-label percent rates over a tiny fixed-size sample of the rows.

    Draws SAMPLED_PER_LABEL rows of each label (seeded; fewer when fewer exist)
    and scores just those. With 3 rows per label the percentages land on the
    0/33.33/66.67/100 grid; a coarse fixed-denominator view, not a statistic.
    """
    truth = list(truth)
    predicted = list(predicted)
    if len(truth) != len(predicted):
        raise ValueError(f"{len(truth)} truths vs {len(predicted)} predictions")
    rng = np.random.default_rng(seed)
    out = {}
    for lab in LABEL_ORDER:
        rows = [i for i, t in enumerate(truth) if t == lab]
        if not rows:
            continue
        take = min(SAMPLED_PER_LABEL, len(rows))
        picked = rng.choice(len(rows), size=take, replace=False)
        correct = sum(1 for j in picked if predicted[rows[j]] == lab)
        out[lab] = {"n": take, "percent": 100.0 * correct / take}
    return out


def format_sampled_rates(rates: dict) -> str:
    """Render a sampled_label_rates mapping; explicitly labeled non-statistical."""
    lines = [f"per-label rates on a {SAMPLED_PER_LABEL}-record sample (coarse view, "
             "not a statistic)"]
    lines.append(f"{'label':<12}{'n':>6}{'rate(%)':>10}")
    for lab, entry in rates.items():
        lines.append(f"{lab.value:<12}{entry['n']:>6}{entry['percent']:>10.2f}")
    return "\n".join(lines)
