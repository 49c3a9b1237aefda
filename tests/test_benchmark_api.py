"""The library names the benchmark and the README depend on.

perfbench/run.py calls library functions by name and perfbench/tracing.py
wraps others by (module, attribute); a name that goes missing would only
show when the benchmark runs. These checks parse run.py and test_run.py,
load the TARGETS of tracing.py, import each workload's modules in a fresh
interpreter, run the README's library example, and check the attributes
both scripts read off the objects the library returns.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gsremotion import cli, dataset, pipeline
from gsremotion.evaluate import ConfusionMatrix, kfold_cross_validate
from gsremotion.features import extract_dataset_features, write_feature_csv
from gsremotion.pipeline import PipelineConfig, evaluate_model, fit_from_features, prepare_dataset
from gsremotion.svm import save_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]

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


def perfbench_tree(name: str) -> ast.Module:
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def perfbench_library_names(name: str) -> set:
    """(module, attribute) for every library attribute a perfbench script reads.

    Module names come from its `import gsremotion`, `from gsremotion import ...`
    and `from gsremotion.<module> import ...` lines; `lib` is the package
    itself, which run.py imports by path.
    """
    tree = perfbench_tree(name)
    aliases = {"lib": "gsremotion"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gsremotion"):
                    aliases[alias.asname or alias.name] = alias.name
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
    names = perfbench_library_names("run.py")
    assert BENCHMARK_CALLS <= names
    assert unresolved(names) == []


def test_benchmark_tests_read_only_resolvable_names():
    names = perfbench_library_names("test_run.py")
    assert ("gsremotion", "denoise") in names
    assert unresolved(names) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_imports_load_every_traced_module(workload, tmp_path):
    """Tracer.install looks each target up in sys.modules, so what a workload
    runs before it installs the tracer must load every traced module, in a
    fresh interpreter: the package and the workload's own `from gsremotion
    import ...` lines, and for cli-default also the untraced in-process chain
    that each traced repetition runs first, since cli loads a command's
    modules only when the command runs."""
    function = "run_" + workload.replace("-", "_")
    body = next(node for node in perfbench_tree("run.py").body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    lines = ["import gsremotion"] + [
        ast.unparse(node) for node in ast.walk(body)
        if isinstance(node, ast.ImportFrom) and node.module == "gsremotion"]
    assert len(lines) > 1
    if workload == "cli-default":
        config = tmp_path / "synth.cfg"
        lines.append(f"""
import contextlib, io, sys
sys.path.insert(0, {PERFBENCH!r})
from run import TINY_COUNT, chain_commands
with open({str(config)!r}, "w") as fh:
    fh.write("counts = " + ",".join([str(TINY_COUNT)] * 5) + "\\n")
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in chain_commands({str(tmp_path / "chain")!r}, 42, {str(config)!r}):
        assert cli.main(argv) == 0, name
""")
    code = "\n".join(lines + [
        "import sys",
        "print(sorted(m for m in sys.modules if m.startswith('gsremotion')))"])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    loaded = set(ast.literal_eval(proc.stdout))
    assert {module for module, _ in load_tracing().TARGETS} <= loaded


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


def test_prediction_stays_visible_to_the_tracer(small_features):
    """perfbench's kernels.gram_* metrics are spans around kernels.gram, so
    each predict_rows call must still run the kernel through it: at least
    once, whether per machine or over one pool of support vectors."""
    tracing = load_tracing()
    model = fit_from_features(small_features, PipelineConfig(seed=42)).model
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        for rows in (small_features.values[:1], small_features.values):
            pipeline.predict_rows(model, rows)  # looked up at call time, as perfbench does
    finally:
        tracer.uninstall()
    spans = tracer.take()
    calls = [s.span_id for s in spans if s.name == "svm.predict"]
    assert len(calls) == 2
    for call in calls:
        assert any(s.name == "kernels.gram" and s.parent_id == call for s in spans)


def test_corpus_io_stays_what_the_tracer_measures(small_corpus, tmp_path):
    """perfbench traces save_dataset and load_dataset by name, and reads
    dataset.bytes_written as the bytes of the files directly in
    save_dataset's second positional argument (tracing._dir_bytes does not
    recurse), so the corpus must be written there, every file of it."""
    tracing = load_tracing()
    assert {("gsremotion.dataset", "save_dataset"),
            ("gsremotion.dataset", "load_dataset")} <= set(tracing.TARGETS)
    assert list(inspect.signature(dataset.save_dataset).parameters) == ["dataset", "out_dir"]
    assert list(inspect.signature(dataset.load_dataset).parameters) == ["manifest_path"]
    out = tmp_path / "corpus"
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        # looked up at call time and called positionally, as cli does
        manifest = dataset.save_dataset(small_corpus, str(out))
        loaded = dataset.load_dataset(manifest)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    saved, = [s for s in spans if s.name == "dataset.save"]
    assert [s.name for s in spans].count("dataset.load") == 1
    assert saved.facts["bytes"] == sum(p.stat().st_size for p in out.rglob("*")) > 0
    assert len(loaded) == len(small_corpus)


def test_cli_inputs_stay_visible_to_the_tracer(small_corpus, small_features, tmp_path):
    """perfbench's dataset.load_s, svm.load_model_s and features.csv_read_s
    are spans around the readers cli.main calls for a command's inputs, so
    each input a command reads is one span of its reader."""
    tracing = load_tracing()
    manifest = dataset.save_dataset(small_corpus, str(tmp_path / "corpus"))
    table = str(tmp_path / "features.csv")
    write_feature_csv(small_features, table)
    model = str(tmp_path / "model.json")
    save_model(fit_from_features(small_features, PipelineConfig(seed=42)).model, model)
    runs = [
        (["cv", "--manifest", manifest, "--folds", "2"], {"dataset.load": 1}),
        (["eval", "--model", model, "--features", table],
         {"svm.load_model": 1, "features.csv_read": 1}),
        (["select", "--features", table], {"features.csv_read": 1}),
        (["predict", "--model", model, "--features", table],
         {"svm.load_model": 1, "features.csv_read": 1}),
    ]
    readers = ("dataset.load", "svm.load_model", "features.csv_read")
    for argv, want in runs:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
        finally:
            tracer.uninstall()
        names = [span.name for span in tracer.take()]
        assert {name: names.count(name) for name in readers if name in names} == want, argv[0]
