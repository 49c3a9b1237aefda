"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 validation error (bad values, unparsable flags,
malformed data, refusing to overwrite), 2 I/O error (missing files,
unwritable outputs).
Every option, flag or config value alike, arrives as text and is parsed
once, numbers by dataset.parse_int and parse_float, words by parse_word.
A --config file supplies defaults as `key = value` lines; explicit flags
win over the file, which wins over built-in defaults. Keys that conflict
(--features-list with --selection or --k) are refused, whether a flag or
the file sets each, and so is a --test-out without a --test-fraction.

main owns every option and every output, in this order: the config file,
the refusal of conflicting keys, each key of the command's _COMMANDS row
resolved and checked once (_resolve), the model config (PipelineConfig,
with the --selection file), the refusal of each existing file the row's
--out implies (_outputs), then the command, which reads the resolved
values and returns its warning and summary lines for main to print.
"""

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from .dataset import (
    LABEL_ORDER,
    corpus_paths,
    file_errors,
    load_dataset,
    parse_float,
    parse_int,
    save_dataset,
    stratified_split_indices,
    validate_test_fraction,
    write_json,
)
from .evaluate import (
    SAMPLED_PER_LABEL,
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
from .kernels import KERNEL_KINDS, KernelSpec
from .pipeline import (
    PipelineConfig,
    comparison_report,
    fit_from_features,
    format_comparison,
    predict_rows,
    subset_rows,
)
from .preprocess import NORM_MODES, preprocess_dataset, validate_norm_mode
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


def _int_list(text: str) -> list:
    """Comma-separated integers; a list of only empty fields is empty, and an
    empty field among integers is refused, not dropped."""
    fields = [part.strip() for part in text.split(",")]
    if not any(fields):
        return []
    if "" in fields:
        raise ValueError(f"empty field in comma-separated integers {text!r}")
    return [parse_int(part) for part in fields]


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


DEFAULT_FOLDS = 5
REPORT_TEST_FRACTION = 0.3

# Every option key some subcommand reads, as its flag --key (dashes for
# underscores) and as a config-file key (any other key in a file is a typo):
# the parser of its text, the rule its value must meet on its own, and the
# flag's help (None: only a config file sets the key). duration_s and
# sample_rate_hz are checked together when cmd_synth builds its SynthConfig.
_OPTIONS = {
    "c": (parse_float, lambda c: PipelineConfig(c=c),
          f"box constraint (default {PipelineConfig.c})"),
    "eta": (parse_float, lambda eta: KernelSpec(eta=eta),
            "rbf kernel scale (default: one over the number of model features)"),
    "features_list": (_int_list, validate_catalog_indices,
                      "explicit catalog indices, e.g. 3,5,7"),
    "folds": (parse_int, _check_folds, f"fold count (default {DEFAULT_FOLDS})"),
    "k": (parse_int, lambda k: validate_k(k, N_FEATURES),
          f"number of features to select (default {PipelineConfig.selection_k})"),
    "kernel": (str, lambda kind: KernelSpec(kind=kind),
               f"{' | '.join(KERNEL_KINDS)} (default {KernelSpec.kind})"),
    "norm": (str, validate_norm_mode,
             f"{' | '.join(NORM_MODES)} (default {PipelineConfig.norm_mode})"),
    # the rule default_rng applies; a lambda, so importing cli loads no numpy.random
    "seed": (parse_int, lambda seed: np.random.SeedSequence(seed),
             f"random seed (default {PipelineConfig.seed})"),
    "test_fraction": (parse_float, validate_test_fraction,
                      "share of rows held out by a stratified split (train: none unless "
                      f"given; report: default {REPORT_TEST_FRACTION})"),
    "counts": (_int_list, _check_counts, None),
    "duration_s": (parse_float, None, None),
    "sample_rate_hz": (parse_float, None, None),
    "noise_std": (parse_float, lambda std: SynthConfig(noise_std_us=std), None),
}


def read_config_file(path: str) -> dict:
    """Parse a flat `key = value` defaults file (# starts a comment)."""
    cfg = {}
    with file_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            value = value.strip()
            if len(value) > 1 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]  # one pair of quotes around the whole value
            if not key:
                raise ValueError(f"line {lineno}: empty key")
            if key not in _OPTIONS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in cfg:
                raise ValueError(f"line {lineno}: key {key!r} given twice")
            cfg[key] = value
    return cfg


def _resolve(args, key: str):
    """flag > config file > None (unset): the text through the key's parser,
    then the key's rule. A refusal keeps the parser's or the rule's reason
    and names the flag, or the file and the key."""
    parse, check, _ = _OPTIONS[key]
    text = getattr(args, key, None)
    if text is not None:
        name, where = _flag(key), contextlib.nullcontext()
    elif key in args.cfg:
        text, name, where = args.cfg[key], f"config key {key}", file_errors(args.config)
    else:
        return None
    with where:
        try:
            value = parse(text)
            if check is not None:
                check(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return value


# Keys that say the same thing two ways: a command refuses both, whether a
# flag or the config file sets each, so neither is ignored without a word.
_CONFLICTS = (
    ("features_list", "selection", "each names the model's features"),
    ("features_list", "k", "the list sets the number of features"),
)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _set(args, key: str) -> bool:
    """Whether the command takes key and a flag or the config file sets it;
    an empty flag value sets nothing here and is judged by its own rule."""
    return hasattr(args, key) and (getattr(args, key) not in (None, "") or key in args.cfg)


def _pairing(args, *keys):
    """Each key is checked alone, so a config file that sets all of keys is at
    fault for their pairing: its errors then name the file."""
    from_file = all(getattr(args, key, None) is None and key in args.cfg for key in keys)
    return file_errors(args.config) if from_file else contextlib.nullcontext()


def _refuse_pairings(args) -> None:
    """Refuse conflicting keys, and a held-out split missing one of its two
    halves, before any input is read."""
    for key, other, why in _CONFLICTS:
        if _set(args, key) and _set(args, other):
            with _pairing(args, key, other):
                raise ValueError(f"{_flag(key)} and {_flag(other)} cannot both be set: {why}")
    if hasattr(args, "test_out") and _set(args, "test_fraction") != _set(args, "test_out"):
        if _set(args, "test_out"):
            raise ValueError("--test-out requires --test-fraction: without it no rows are held out")
        raise ValueError("--test-fraction requires --test-out for the held-out rows")


def _given(**values) -> dict:
    """Keyword arguments for the values that were set, so dataclass defaults fill the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _pipeline_config(args, values: dict) -> PipelineConfig:
    """The command's model config from its resolved values, with explicit
    catalog indices from --features-list or else a selection file."""
    explicit = values.get("features_list")
    if explicit is None and getattr(args, "selection", None):
        explicit = read_selection_indices(args.selection)
    with _pairing(args, "kernel", "eta"):
        kernel = KernelSpec(**_given(kind=values.get("kernel"), eta=values.get("eta")))
    return PipelineConfig(kernel=kernel, explicit_features=explicit, **_given(
        c=values.get("c"), selection_k=values.get("k"),
        norm_mode=values.get("norm"), seed=values.get("seed")))


def _read_labeled(path: str):
    """The feature table at path, every row of which must carry a label."""
    matrix = read_feature_csv(path)
    with file_errors(path):
        if None in matrix.labels:
            unlabeled = matrix.record_ids[matrix.labels.index(None)]
            raise ValueError(f"row {unlabeled!r} has no label")
    return matrix


def _outputs(args):
    """Each file the command writes: those its _COMMANDS row says --out names, and
    train's --test-out, which _refuse_pairings allows only beside --test-fraction."""
    if args.writes == "corpus":
        yield from corpus_paths(args.out)
    elif args.writes == "prefix":
        yield from (args.out + ".json", args.out + ".txt")
    else:
        yield args.out
        if getattr(args, "test_out", None):
            if os.path.realpath(args.test_out) == os.path.realpath(args.out):
                raise ValueError(f"--test-out and --out both name {args.out}")
            yield args.test_out


def _warn(lines) -> None:
    """Print each line to stderr as a warning; the CLI warns nowhere else."""
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


def _write_prefix(out: str, payload: dict, text: str) -> str:
    """Write a report's <out>.json and <out>.txt; both paths, for its summary line."""
    write_json(out + ".json", payload)
    with open(out + ".txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return f"{out}.json, {out}.txt"


def cmd_synth(args):
    values = _given(
        per_label_counts=None if args.counts is None else dict(zip(LABEL_ORDER, args.counts)),
        duration_s=args.duration_s,
        sample_rate_hz=args.sample_rate_hz,
        noise_std_us=args.noise_std,
    )
    # only the file sets these, so a fault in their combination is the file's,
    # and so is a corpus too large to allocate
    with file_errors(args.config) if values else contextlib.nullcontext():
        config = SynthConfig(**values, **_given(seed=args.seed))
        try:
            dataset = generate_dataset(config)
        except MemoryError as exc:
            raise ValueError(f"cannot allocate the corpus: {exc}") from None
    save_dataset(dataset, args.out)
    return [], [f"wrote {len(dataset)} records to {args.out}"]


def cmd_preprocess(args):
    norm = args.pipeline.norm_mode
    dataset = load_dataset(args.manifest)
    with file_errors(args.manifest):  # a record the stage refuses is the corpus's fault
        processed = preprocess_dataset(dataset, norm)
    save_dataset(processed, args.out)
    return [], [f"preprocessed {len(processed)} records into {args.out} (norm={norm})"]


def cmd_features(args):
    dataset = load_dataset(args.manifest)
    with file_errors(args.manifest):  # a record the stage refuses is the corpus's fault
        matrix = extract_dataset_features(dataset)
    write_feature_csv(matrix, args.out)
    return [], [f"wrote {matrix.n_rows} x {matrix.n_features} feature rows to {args.out}"]


def cmd_select(args):
    matrix = read_feature_csv(args.features)
    explicit = args.pipeline.explicit_features
    if explicit is not None:
        result = SelectionResult(selected_indices=explicit)
    else:
        with file_errors(args.features):  # too few rows or varying columns: the table's fault
            result = select_features(matrix.values, args.pipeline.selection_k)
    write_selection_json(result, args.out)
    return result.warnings, [f"selected {result.k} features -> {args.out}"]


def cmd_train(args):
    matrix = _read_labeled(args.features)
    held_out, lines = None, []
    if args.test_fraction is not None:
        with file_errors(args.features):  # a label with too few rows to split
            train_rows, test_rows = stratified_split_indices(
                matrix.labels, args.test_fraction, args.pipeline.seed)
        held_out, matrix = subset_rows(matrix, test_rows), subset_rows(matrix, train_rows)
    with file_errors(args.features):  # a table the fit refuses is the table's fault
        fitted = fit_from_features(matrix, args.pipeline)
    if held_out is not None:  # written only once the fit succeeded
        write_feature_csv(held_out, args.test_out)
        lines.append(f"held out {held_out.n_rows} rows -> {args.test_out}")
    save_model(fitted.model, args.out)
    return fitted.model.warnings(), lines + [
        f"trained {len(fitted.model.machines)} machines on {matrix.n_rows} rows "
        f"(k={len(fitted.model.feature_indices)}) -> {args.out}"
    ]


def cmd_predict(args):
    model = load_model(args.model)
    matrix = read_feature_csv(args.features)
    with file_errors(args.features):
        predicted = predict_rows(model, matrix.values)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes an id holding a comma
        writer.writerow(["record_id", "label", "predicted"])
        for rid, true, pred in zip(matrix.record_ids, matrix.labels, predicted):
            writer.writerow([rid, true.value if true else "", pred.value])
    return [], [f"wrote {matrix.n_rows} predictions to {args.out}"]


def cmd_eval(args):
    seed = args.pipeline.seed
    model = load_model(args.model)
    matrix = _read_labeled(args.features)
    with file_errors(args.features):  # rows the model cannot score, or a label it never saw
        predicted = predict_rows(model, matrix.values)
        cm = ConfusionMatrix.from_predictions(matrix.labels, predicted, model.label_order)
    acc = accuracy(cm)
    rates = per_label_rates(cm)
    sample = sampled_label_rates(matrix.labels, predicted, seed)
    payload = {
        "accuracy": acc,
        "n_rows": cm.total,
        "label_order": [lab.value for lab in cm.label_order],
        "per_label_rate": {lab.value: rate for lab, rate in rates.items()},
        "confusion": cm.counts.tolist(),
        "sampled_rates": {
            "note": f"{SAMPLED_PER_LABEL} records per label; coarse "
                    "fixed-denominator view, not a statistic",
            "seed": seed,
            "rates": {lab.value: entry for lab, entry in sample.items()},
        },
    }
    text = (format_confusion(cm) + "\n\n" + format_rates(cm)
            + "\n\n" + format_sampled_rates(sample))
    paths = _write_prefix(args.out, payload, text)
    return [], [f"accuracy {acc:.4f} on {cm.total} rows -> {paths}"]


def cmd_cv(args):
    folds = DEFAULT_FOLDS if args.folds is None else args.folds
    dataset = load_dataset(args.manifest)
    # a corpus too small for the folds, or one a fold's fit refuses, is the manifest's fault
    with file_errors(args.manifest):
        report = kfold_cross_validate(dataset, folds, args.pipeline, args.pipeline.seed)
    fold_lines = [
        f"fold {i + 1}: accuracy {a:.4f}"
        for i, a in enumerate(report.fold_accuracies)
    ]
    text = "\n".join(fold_lines) + (
        f"\n\nmean {report.mean_accuracy:.4f}  std {report.std_accuracy:.4f}"
        f"\nheld-out accesses during fit: {report.heldout_accesses}\n\n"
    ) + format_confusion(report.confusion)
    paths = _write_prefix(args.out, report.to_dict(), text)
    return report.warnings, [
        f"cv mean accuracy {report.mean_accuracy:.4f} (std {report.std_accuracy:.4f}) "
        f"over {folds} folds -> {paths}"]


def cmd_report(args):
    config = args.pipeline
    test_fraction = REPORT_TEST_FRACTION if args.test_fraction is None else args.test_fraction
    matrix = _read_labeled(args.features)
    # a label with too few rows to split, or a table the fit refuses, is the table's fault
    with file_errors(args.features):
        report = comparison_report(matrix, config, test_fraction)
    acc = report["accuracy"]
    paths = _write_prefix(args.out, report, format_comparison(report))
    return report.warnings, [
        f"test accuracy: {acc['selected']['test']:.4f} with {report['k']} features, "
        f"{acc['all_features']['test']:.4f} with all -> {paths}"]


def _add_options(sub, *keys):
    """Each key's flag (none for a key only a config file sets), then --config
    and --force. A flag's value stays text for _resolve."""
    for key in keys:
        help_text = _OPTIONS[key][2]
        if help_text is not None:
            sub.add_argument(_flag(key), help=help_text)
    sub.add_argument("--config", help="key = value defaults file")
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")


class _ArgumentParser(argparse.ArgumentParser):
    """An argument argparse refuses (an unknown flag, a flag without its value)
    is a validation error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_INPUT_HELP = {
    "manifest": "manifest.txt of a corpus directory",
    "features": "feature CSV",
    "model": "model JSON from the train stage",
}
_MODEL_KEYS = ("k", "features_list", "kernel", "c", "eta", "norm", "seed")

_CORPUS = ("corpus", "output directory")
_PREFIX = ("prefix", "output prefix (writes <prefix>.json and <prefix>.txt)")

# name, stage, help, required inputs, (what --out names: corpus, prefix or
# file, for _outputs; its help), option keys
_COMMANDS = (
    ("synth", cmd_synth, "generate a synthetic labeled corpus", (), _CORPUS,
     ("counts", "duration_s", "sample_rate_hz", "noise_std", "seed")),
    ("preprocess", cmd_preprocess, "denoise and normalize records", ("manifest",),
     _CORPUS, ("norm",)),
    ("features", cmd_features, "extract the feature table", ("manifest",),
     ("file", "output CSV path"), ()),
    ("select", cmd_select, "pick the least redundant features", ("features",),
     ("file", "output JSON path"), ("k", "features_list")),
    ("train", cmd_train, "train the one-vs-one SVM model", ("features",),
     ("file", "output model JSON"), ("test_fraction", *_MODEL_KEYS)),
    ("predict", cmd_predict, "label feature rows with a model", ("model", "features"),
     ("file", "output CSV path"), ()),
    ("eval", cmd_eval, "score a model on labeled rows", ("model", "features"), _PREFIX,
     ("seed",)),
    ("cv", cmd_cv, "stratified k-fold cross-validation", ("manifest",), _PREFIX,
     ("folds", *_MODEL_KEYS)),
    ("report", cmd_report, "selected-k vs all-features comparison", ("features",), _PREFIX,
     ("test_fraction", *_MODEL_KEYS)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gsremotion",
        description="GSR emotion classification pipeline",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, func, about, inputs, (writes, out_help), keys in _COMMANDS:
        p = commands.add_parser(name, help=about)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True, help=_INPUT_HELP[flag])
        p.add_argument("--out", required=True, help=out_help)
        if name == "train":
            p.add_argument("--test-out", help="where to write the held-out rows")
            p.add_argument("--selection", help="selection JSON from the select stage")
        _add_options(p, *keys)
        p.set_defaults(func=func, keys=keys, writes=writes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.cfg = read_config_file(args.config) if args.config else {}
        _refuse_pairings(args)
        values = {key: _resolve(args, key) for key in args.keys}
        # built before the resolved values replace the flags: _pairing tells them apart
        args.pipeline = _pipeline_config(args, values)
        vars(args).update(values)
        for path in _outputs(args):
            if os.path.exists(path) and not args.force:
                raise ValueError(f"{path} exists; pass --force to overwrite")
        warnings, lines = args.func(args)
        _warn(warnings)
        print(*lines, sep="\n")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
