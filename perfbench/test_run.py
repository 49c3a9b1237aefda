"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs at --size tiny for a second, traced and untraced, and
must print every metric BENCHMARK.json declares, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(proc.stdout.split("record: ", 1)[1].splitlines()[0])
    assert record["environment"]["backend"] in ("python", "compiled")
    assert record["seed"] == 5
    if trace:
        spans = record["spans_last_repetition"]
        assert spans and {"id", "parent", "name", "start", "end"} <= set(spans[0])


def test_layer_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench(str(tmp_path), "--workload", "serve-rows", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer = tracer.open("preprocess.dataset")
    for _ in range(2):
        tracer.close(tracer.open("wavelet.denoise"))
    tracer.close(outer)
    spans = tracer.take()
    for s, (start, end) in zip(spans, [(0.0, 1.0), (0.1, 0.3), (0.5, 0.6)]):
        s.start, s.end = start, end
    metrics = tracing.layer_metrics(spans)
    assert metrics["wavelet.denoise_calls"] == 2
    assert metrics["wavelet.denoise_s"] == pytest.approx(0.3)
    assert metrics["preprocess.self_s"] == pytest.approx(0.7)


def test_install_replaces_every_binding_and_uninstall_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gsremotion
    from gsremotion import preprocess, wavelet
    original = wavelet.denoise
    tracer = tracing.Tracer()
    tracer.install({("gsremotion.wavelet", "denoise"): ("wavelet.denoise", None)})
    try:
        assert preprocess.denoise is not original
        assert gsremotion.denoise is preprocess.denoise is wavelet.denoise
    finally:
        tracer.uninstall()
    assert preprocess.denoise is original and gsremotion.denoise is original
