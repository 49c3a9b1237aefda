"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 validation error (bad values, unparsable flags,
malformed data, refusing to overwrite), 2 I/O error (missing files,
unwritable outputs).
A --config file supplies defaults as `key = value` lines; explicit flags
win over the file, which wins over built-in defaults.
"""

import argparse
import contextlib
import os
import sys

from .dataset import (
    LABEL_ORDER,
    file_errors,
    load_dataset,
    save_dataset,
    stratified_split_indices,
    validate_test_fraction,
    write_json,
)
from .evaluate import (
    ConfusionMatrix,
    accuracy,
    format_confusion,
    format_sampled_rates,
    format_rates,
    kfold_cross_validate,
    sampled_label_rates,
    per_label_rates,
)
from .features import (
    N_FEATURES,
    extract_dataset_features,
    read_feature_csv,
    write_feature_csv,
)
from .kernels import KernelSpec
from .pipeline import (
    PipelineConfig,
    comparison_report,
    fit_from_features,
    format_comparison,
    predict_rows,
    subset_rows,
)
from .preprocess import preprocess_dataset, validate_norm_mode
from .selection import (
    SelectionResult,
    read_selection_indices,
    select_features,
    validate_catalog_indices,
    validate_k,
    write_selection_json,
)
from .svm import load_model, save_model
from .synth import SynthConfig, generate_dataset

def _check_counts(counts: list) -> None:
    if len(counts) != len(LABEL_ORDER):
        raise ValueError(
            f"counts needs {len(LABEL_ORDER)} values "
            f"({', '.join(l.value for l in LABEL_ORDER)}), got {len(counts)}"
        )
    SynthConfig(per_label_counts=dict(zip(LABEL_ORDER, counts)))


def _check_folds(folds: int) -> None:
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")


# Every key some subcommand reads from a config file (anything else is a
# typo), with the rule a value from the file must meet on its own. A flag
# value meets the same rule later, where the stage uses it; duration_s and
# sample_rate_hz are checked together when cmd_synth builds its SynthConfig.
_CONFIG_KEYS = {
    "c": lambda c: PipelineConfig(c=c),
    "degree": lambda degree: KernelSpec(degree=degree),
    "eta": lambda eta: KernelSpec(eta=eta),
    "features_list": validate_catalog_indices,
    "folds": _check_folds,
    "k": lambda k: validate_k(k, N_FEATURES),
    "kernel": lambda kind: KernelSpec(kind=kind),
    "norm": validate_norm_mode,
    "r": lambda r: KernelSpec(r=r),
    "seed": None,
    "test_fraction": validate_test_fraction,
    "counts": _check_counts,
    "duration_s": None,
    "sample_rate_hz": None,
    "noise_std": lambda std: SynthConfig(noise_std_us=std),
}


def read_config_file(path: str) -> dict:
    """Parse a flat `key = value` defaults file (# starts a comment)."""
    cfg = {}
    with file_errors(path), open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            value = value.strip().strip("'\"")
            if not key:
                raise ValueError(f"line {lineno}: empty key")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            cfg[key] = value
    return cfg


def _resolve(args, cfg: dict, key: str, cast, default=None):
    """flag > config file > default; casts and checks only the config-file string,
    so a bad value from the file names the file and the key."""
    value = getattr(args, key, None)
    if value is not None or key not in cfg:
        return default if value is None else value
    with file_errors(args.config):
        try:
            value = cast(cfg[key])
        except ValueError:
            raise ValueError(f"config key {key}: cannot parse {cfg[key]!r}")
        check = _CONFIG_KEYS[key]
        if check is not None:
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}")
    return value


def _given(**values) -> dict:
    """Keyword arguments for the values that were set, so dataclass defaults fill the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _parse_int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _check_out(path: str, force: bool) -> str:
    if os.path.exists(path) and not force:
        raise ValueError(f"{path} exists; pass --force to overwrite")
    return path


def _load_cfg(args) -> dict:
    return read_config_file(args.config) if args.config else {}


def _pipeline_config(args, cfg: dict, explicit_features=None) -> PipelineConfig:
    kernel = KernelSpec(**_given(
        kind=_resolve(args, cfg, "kernel", str),
        eta=_resolve(args, cfg, "eta", float),
        r=_resolve(args, cfg, "r", float),
        degree=_resolve(args, cfg, "degree", int),
    ))
    return PipelineConfig(kernel=kernel, explicit_features=explicit_features, **_given(
        c=_resolve(args, cfg, "c", float),
        selection_k=_resolve(args, cfg, "k", int),
        norm_mode=_resolve(args, cfg, "norm", str),
        seed=_resolve(args, cfg, "seed", int),
    ))


def _explicit_features(args, cfg: dict):
    """Explicit catalog indices from --features-list or a selection file."""
    listed = _resolve(args, cfg, "features_list", _parse_int_list)
    if isinstance(listed, str):
        listed = _parse_int_list(listed)
    if listed is not None:
        return validate_catalog_indices(listed)
    selection_path = getattr(args, "selection", None)
    if selection_path:
        return read_selection_indices(selection_path)
    return None


def _read_labeled(path: str):
    """The feature table at path, every row of which must carry a label."""
    matrix = read_feature_csv(path)
    with file_errors(path):
        if None in matrix.labels:
            unlabeled = matrix.record_ids[matrix.labels.index(None)]
            raise ValueError(f"row {unlabeled!r} has no label")
    return matrix


def _split(args, matrix, test_fraction: float, seed: int):
    """Stratified (train, test) rows of the --features table. An out-of-range
    fraction is reported as given; a label with too few rows to split is the
    table's fault and names it."""
    validate_test_fraction(test_fraction)
    with file_errors(args.features):
        return stratified_split_indices(matrix.labels, test_fraction, seed)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _warn_unconverged(machines, where: str = "") -> None:
    """One stderr line per machine that stopped at max_passes."""
    for m in machines:
        if not m.converged:
            a, b = m.label_pair
            print(f"warning: {where}machine {a.value}/{b.value} did not converge: "
                  f"stopped after {m.iterations} iterations with KKT gap "
                  f"{m.final_violation:.4g}", file=sys.stderr)


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    counts = _resolve(args, cfg, "counts", _parse_int_list)
    values = _given(
        per_label_counts=None if counts is None else dict(zip(LABEL_ORDER, counts)),
        duration_s=_resolve(args, cfg, "duration_s", float),
        sample_rate_hz=_resolve(args, cfg, "sample_rate_hz", float),
        noise_std_us=_resolve(args, cfg, "noise_std", float),
    )
    # only the file sets these, so a fault in their combination is the file's
    with file_errors(args.config) if values else contextlib.nullcontext():
        config = SynthConfig(**values, **_given(seed=_resolve(args, cfg, "seed", int)))
    manifest = os.path.join(args.out, "manifest.txt")
    _check_out(manifest, args.force)
    dataset = generate_dataset(config)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load_cfg(args)
    norm = _resolve(args, cfg, "norm", str, PipelineConfig.norm_mode)
    manifest = os.path.join(args.out, "manifest.txt")
    _check_out(manifest, args.force)
    dataset = load_dataset(args.manifest)
    processed = preprocess_dataset(dataset, norm)
    save_dataset(processed, args.out)
    print(f"preprocessed {len(processed)} records into {args.out} (norm={norm})")
    return 0


def cmd_features(args) -> int:
    _check_out(args.out, args.force)
    dataset = load_dataset(args.manifest)
    matrix = extract_dataset_features(dataset)
    write_feature_csv(matrix, args.out)
    print(f"wrote {matrix.n_rows} x {matrix.n_features} feature rows to {args.out}")
    return 0


def cmd_select(args) -> int:
    cfg = _load_cfg(args)
    _check_out(args.out, args.force)
    matrix = read_feature_csv(args.features)
    explicit = _explicit_features(args, cfg)
    if explicit is not None:
        result = SelectionResult(selected_indices=tuple(explicit), k=len(explicit))
    else:
        k = _resolve(args, cfg, "k", int, PipelineConfig.selection_k)
        with file_errors(args.features):  # a one-row table is the file's fault
            if matrix.n_rows < 2:
                raise ValueError(f"selection needs at least 2 rows, got {matrix.n_rows}")
        result = select_features(matrix, k)
    write_selection_json(result, args.out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"selected {result.k} features -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    _check_out(args.out, args.force)
    matrix = _read_labeled(args.features)
    explicit = _explicit_features(args, cfg)
    config = _pipeline_config(args, cfg, explicit_features=explicit)
    test_fraction = _resolve(args, cfg, "test_fraction", float)
    if test_fraction is not None:
        if not args.test_out:
            raise ValueError("--test-fraction requires --test-out for the held-out rows")
        _check_out(args.test_out, args.force)
        train_rows, test_rows = _split(args, matrix, test_fraction, config.seed)
        test_matrix = subset_rows(matrix, test_rows)
        matrix = subset_rows(matrix, train_rows)
        write_feature_csv(test_matrix, args.test_out)
        print(f"held out {test_matrix.n_rows} rows -> {args.test_out}")
    fitted = fit_from_features(matrix, config)
    save_model(fitted.model, args.out)
    _warn_unconverged(fitted.model.machines)
    n_machines = len(fitted.model.machines)
    print(
        f"trained {n_machines} machines on {matrix.n_rows} rows "
        f"(k={len(fitted.model.feature_indices)}) -> {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    _check_out(args.out, args.force)
    model = load_model(args.model)
    matrix = read_feature_csv(args.features)
    predicted = predict_rows(model, matrix.values)
    lines = ["record_id,label,predicted"]
    for i in range(matrix.n_rows):
        true = matrix.labels[i]
        lines.append(
            f"{matrix.record_ids[i]},{true.value if true else ''},{predicted[i].value}"
        )
    _write_text(args.out, "\n".join(lines))
    print(f"wrote {matrix.n_rows} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    json_path = _check_out(args.out + ".json", args.force)
    text_path = _check_out(args.out + ".txt", args.force)
    seed = _resolve(args, cfg, "seed", int, PipelineConfig.seed)
    model = load_model(args.model)
    matrix = _read_labeled(args.features)
    predicted = predict_rows(model, matrix.values)
    cm = ConfusionMatrix.from_predictions(matrix.labels, predicted,
                                          model.label_order)
    acc = accuracy(cm)
    rates = per_label_rates(cm)
    sample = sampled_label_rates(matrix.labels, predicted, seed)
    write_json(json_path, {
        "accuracy": acc,
        "n_rows": cm.total,
        "label_order": [lab.value for lab in cm.label_order],
        "per_label_rate": {lab.value: rate for lab, rate in rates.items()},
        "confusion": cm.counts.tolist(),
        "sampled_rates": {
            "note": "3 records per label; coarse fixed-denominator view, "
                    "not a statistic",
            "seed": seed,
            "rates": {lab.value: entry for lab, entry in sample.items()},
        },
    })
    _write_text(text_path, format_confusion(cm) + "\n\n" + format_rates(cm)
                + "\n\n" + format_sampled_rates(sample))
    print(f"accuracy {acc:.4f} on {cm.total} rows -> {json_path}, {text_path}")
    return 0


def cmd_cv(args) -> int:
    cfg = _load_cfg(args)
    json_path = _check_out(args.out + ".json", args.force)
    text_path = _check_out(args.out + ".txt", args.force)
    explicit = _explicit_features(args, cfg)
    config = _pipeline_config(args, cfg, explicit_features=explicit)
    folds = _resolve(args, cfg, "folds", int, 5)
    _check_folds(folds)
    dataset = load_dataset(args.manifest)
    report = kfold_cross_validate(dataset, folds, config, config.seed)
    write_json(json_path, report.to_dict())
    for fold, machine in report.unconverged:
        _warn_unconverged([machine], f"fold {fold}: ")
    fold_lines = [
        f"fold {i + 1}: accuracy {a:.4f}"
        for i, a in enumerate(report.fold_accuracies)
    ]
    text = "\n".join(fold_lines) + (
        f"\n\nmean {report.mean_accuracy:.4f}  std {report.std_accuracy:.4f}"
        f"\nheld-out accesses during fit: {report.heldout_accesses}\n\n"
    ) + format_confusion(report.confusion)
    _write_text(text_path, text)
    print(
        f"cv mean accuracy {report.mean_accuracy:.4f} (std {report.std_accuracy:.4f}) "
        f"over {folds} folds -> {json_path}, {text_path}"
    )
    return 0


def cmd_report(args) -> int:
    cfg = _load_cfg(args)
    json_path = _check_out(args.out + ".json", args.force)
    text_path = _check_out(args.out + ".txt", args.force)
    explicit = _explicit_features(args, cfg)
    config = _pipeline_config(args, cfg, explicit_features=explicit)
    test_fraction = _resolve(args, cfg, "test_fraction", float, 0.3)
    matrix = _read_labeled(args.features)
    _split(args, matrix, test_fraction, config.seed)  # comparison_report splits alike
    report = comparison_report(matrix, config, test_fraction, config.seed)
    write_json(json_path, report)
    for variant, machine in report.unconverged:
        _warn_unconverged([machine], f"{variant} model: ")
    _write_text(text_path, format_comparison(report))
    acc = report["accuracy"]
    print(
        f"test accuracy: {acc['selected']['test']:.4f} with {report['k']} features, "
        f"{acc['all_features']['test']:.4f} with all -> {json_path}, {text_path}"
    )
    return 0


def _add_common(sub, *, seed=False):
    sub.add_argument("--config", help="key = value defaults file")
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")
    if seed:
        sub.add_argument("--seed", type=int, default=None)


def _add_model_flags(sub):
    sub.add_argument("--kernel", default=None,
                     help="linear | poly | rbf | sigmoid (default rbf)")
    sub.add_argument("--c", type=float, default=None, help="box constraint (default 1.0)")
    sub.add_argument("--eta", type=float, default=None,
                     help="kernel scale (default 1/n_features)")
    sub.add_argument("--degree", type=int, default=None,
                     help="polynomial degree (default 3)")
    sub.add_argument("--r", type=float, default=None,
                     help="kernel additive constant (default 0)")
    sub.add_argument("--norm", default=None,
                     help="signal | feature | both (default signal)")


def _add_selection_flags(sub, with_file=False):
    sub.add_argument("--k", type=int, default=None,
                     help="number of features to select (default 15)")
    sub.add_argument("--features-list", dest="features_list", default=None,
                     help="explicit catalog indices, e.g. 3,5,7")
    if with_file:
        sub.add_argument("--selection", default=None,
                         help="selection JSON from the select stage")


class _ArgumentParser(argparse.ArgumentParser):
    """A flag argparse cannot parse is a validation error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gsremotion",
        description="GSR emotion classification pipeline",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("preprocess", help="denoise and normalize records")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--norm", default=None, help="signal | feature | both")
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = commands.add_parser("features", help="extract the feature table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = commands.add_parser("select", help="pick the least redundant features")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--out", required=True, help="output JSON path")
    _add_selection_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = commands.add_parser("train", help="train the one-vs-one SVM model")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=None,
                   help="hold out a stratified test split before training")
    p.add_argument("--test-out", dest="test_out", default=None,
                   help="where to write the held-out rows")
    _add_selection_flags(p, with_file=True)
    _add_model_flags(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="label feature rows with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("eval", help="score a model on labeled rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True,
                   help="output prefix (writes <prefix>.json and <prefix>.txt)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", type=int, default=None, help="fold count (default 5)")
    p.add_argument("--out", required=True,
                   help="output prefix (writes <prefix>.json and <prefix>.txt)")
    _add_selection_flags(p)
    _add_model_flags(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_cv)

    p = commands.add_parser("report", help="selected-k vs all-features comparison")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=None,
                   help="stratified test fraction (default 0.3)")
    p.add_argument("--out", required=True,
                   help="output prefix (writes <prefix>.json and <prefix>.txt)")
    _add_selection_flags(p)
    _add_model_flags(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
