"""The library names the benchmark and the README depend on.

perfbench/run.py calls library functions by name and perfbench/tracing.py
wraps others by (module, attribute); a name that goes missing would only
show when the benchmark runs. These checks parse run.py, load the TARGETS
of tracing.py, run the README's library example, and check the attributes
both scripts read off the objects the library returns.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re

import numpy as np

from gsremotion.evaluate import ConfusionMatrix, kfold_cross_validate
from gsremotion.features import extract_dataset_features
from gsremotion.pipeline import PipelineConfig, evaluate_model, fit_from_features, prepare_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the entry points the benchmark workloads drive; the scan below must find them
BENCHMARK_CALLS = {
    ("gsremotion.pipeline", "prepare_dataset"),
    ("gsremotion.pipeline", "evaluate_model"),
    ("gsremotion.pipeline", "predict_rows"),
    ("gsremotion.pipeline", "fit_from_features"),
    ("gsremotion.evaluate", "kfold_cross_validate"),
    ("gsremotion.evaluate", "accuracy"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_py_library_names() -> set:
    """(module, attribute) for every library attribute perfbench/run.py reads.

    Module names come from its `from gsremotion import ...` and
    `from gsremotion.<module> import ...` lines; `lib` is the package itself,
    which the script imports by path.
    """
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        tree = ast.parse(fh.read())
    aliases = {"lib": "gsremotion"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gsremotion"):
            for alias in node.names:
                if node.module == "gsremotion":
                    aliases[alias.asname or alias.name] = f"gsremotion.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return names


def unresolved(pairs) -> list:
    return sorted(f"{module}.{attr}" for module, attr in pairs
                  if not hasattr(importlib.import_module(module), attr))


def test_traced_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    assert unresolved(targets) == []


def test_benchmark_calls_resolve():
    names = run_py_library_names()
    assert BENCHMARK_CALLS <= names
    assert unresolved(names) == []


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().startswith("[<EmotionLabel.")


def test_returned_objects_carry_what_perfbench_reads(small_corpus):
    config = PipelineConfig(seed=42)
    matrix = extract_dataset_features(prepare_dataset(small_corpus, config))
    assert matrix.n_rows == len(small_corpus.records)

    fitted = fit_from_features(matrix, config)
    width = len(fitted.model.feature_indices)
    assert width == config.selection_k
    for m in fitted.model.machines:
        assert float(m.bias).hex() == m.bias.hex()
        assert isinstance(m.iterations, int) and m.iterations >= 1
        assert isinstance(m.converged, bool)
        assert m.support_vectors.shape == (m.n_support, width)
    assert np.vstack([m.support_vectors for m in fitted.model.machines]).shape[1] == width

    cm = evaluate_model(fitted.model, matrix)
    assert isinstance(cm, ConfusionMatrix)
    assert cm.counts.sum() == matrix.n_rows

    report = kfold_cross_validate(small_corpus, 4, config, 42)
    payload = report.to_dict()
    json.dumps(payload)
    assert payload["mean_accuracy"] == report.mean_accuracy
    assert payload["heldout_accesses_during_fit"] == report.heldout_accesses == 0
