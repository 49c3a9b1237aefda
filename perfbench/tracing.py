"""Spans around calls into gsremotion, recorded from outside the library.

A Tracer wraps a library function and installs the wrapper on every
``gsremotion`` module attribute that refers to it, which is the name a caller
looks up at call time (``from .wavelet import denoise`` binds
``gsremotion.preprocess.denoise``). ``uninstall`` puts the originals back, so
an untraced run executes the library untouched. Spans stay in memory; the
benchmark turns them into per-layer metrics with ``layer_metrics``.
"""

import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    """One timed call: what ran, when, and which span was open around it."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stack = []
        self._patches = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(next(self._ids), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, facts=None):
        """fn inside a span; facts(args, kwargs, result) adds counts after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if facts is not None:
                span.facts.update(facts(args, kwargs, result))
            return result

        return traced

    def install(self, targets: dict) -> None:
        """targets maps (module, attribute) to (span name, facts or None)."""
        modules = [m for name, m in sys.modules.items()
                   if name == "gsremotion" or name.startswith("gsremotion.")]
        for (module_name, attr), (span_name, facts) in targets.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, facts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _gram_cells(args, kwargs, result):
    return {"cells": int(result.shape[0]) * int(result.shape[1])}


def _support_facts(args, kwargs, result) -> dict:
    """Unique support rows and total support entries over the fitted machines."""
    stacked = np.vstack([m.support_vectors for m in result.model.machines])
    return {"sv_unique": np.unique(stacked, axis=0).shape[0], "sv_total": stacked.shape[0]}


# (module, attribute) -> (span name, facts). The module is where the function
# is defined; install() also replaces every re-export and imported binding.
TARGETS = {
    ("gsremotion.synth", "generate_dataset"): ("synth.generate", None),
    ("gsremotion.dataset", "save_dataset"): (
        "dataset.save", lambda a, k, r: {"bytes": _dir_bytes(a[1])}),
    ("gsremotion.dataset", "load_dataset"): ("dataset.load", None),
    ("gsremotion.wavelet", "denoise"): ("wavelet.denoise", None),
    ("gsremotion.preprocess", "preprocess_dataset"): ("preprocess.dataset", None),
    ("gsremotion.features", "extract_dataset_features"): (
        "features.extract", lambda a, k, r: {"rows": r.n_rows}),
    ("gsremotion.features", "write_feature_csv"): ("features.csv_write", None),
    ("gsremotion.features", "read_feature_csv"): ("features.csv_read", None),
    ("gsremotion.selection", "select_features"): ("selection.select", None),
    ("gsremotion.kernels", "gram"): ("kernels.gram", _gram_cells),
    ("gsremotion.svm", "train_binary"): (
        "svm.train_binary",
        lambda a, k, r: {"iterations": r.iterations, "converged": r.converged}),
    ("gsremotion.svm", "predict_batch"): ("svm.predict", None),
    ("gsremotion.svm", "save_model"): (
        "svm.save_model", lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("gsremotion.svm", "load_model"): ("svm.load_model", None),
    ("gsremotion.evaluate", "kfold_cross_validate"): (
        "evaluate.kfold", lambda a, k, r: {"heldout_accesses": r.heldout_accesses}),
    ("gsremotion.pipeline", "fit_from_features"): (
        "pipeline.fit_from_features", _support_facts),
}

CLI_COMMANDS = ("synth", "preprocess", "features", "select", "train", "eval", "cv", "report")

# Every per-layer metric with its unit; each traced run reports all of them,
# 0 where a workload does not reach the layer.
LAYER_UNITS = {
    "cli.startup_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "synth.generate_s": "s",
    "dataset.save_s": "s",
    "dataset.load_s": "s",
    "dataset.bytes_written": "bytes",
    "wavelet.denoise_s": "s",
    "wavelet.denoise_calls": "count",
    "preprocess.self_s": "s",
    "features.extract_s": "s",
    "features.rows": "count",
    "features.csv_write_s": "s",
    "features.csv_read_s": "s",
    "selection.select_s": "s",
    "kernels.gram_s": "s",
    "kernels.gram_calls": "count",
    "kernels.gram_cells": "count",
    "svm.smo_s": "s",
    "svm.smo_iterations": "count",
    "svm.max_machine_iterations": "count",
    "svm.smo_us_per_iter": "us",
    "svm.converged_ratio": "fraction",
    "svm.predict_s": "s",
    "svm.predict_calls": "count",
    "svm.sv_unique_ratio": "fraction",
    "svm.save_model_s": "s",
    "svm.load_model_s": "s",
    "svm.model_bytes": "bytes",
    "evaluate.cv_fold_fit_s": "s",
    "evaluate.heldout_accesses": "count",
    "pipeline.fit_from_features_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over one traced repetition's spans.

    Self time is a span's duration minus the durations of its direct
    children; only wrapped calls count as children.
    """
    by_id = {s.span_id: s for s in spans}
    child_time = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(s.duration - child_time.get(s.span_id, 0.0) for s in named(name))

    def fact(name, key):
        return sum(s.facts.get(key, 0) for s in named(name))

    def inside(span, ancestor):
        parent = span.parent_id
        while parent is not None:
            if by_id[parent].name == ancestor:
                return True
            parent = by_id[parent].parent_id
        return False

    out = {name: 0.0 for name in LAYER_UNITS}
    for cmd in ("startup",) + CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    machines = named("svm.train_binary")
    iterations = [s.facts["iterations"] for s in machines]
    smo_s = self_total("svm.train_binary")
    fits = named("pipeline.fit_from_features")
    sv_total = fact("pipeline.fit_from_features", "sv_total")
    out.update({
        "synth.generate_s": total("synth.generate"),
        "dataset.save_s": total("dataset.save"),
        "dataset.load_s": total("dataset.load"),
        "dataset.bytes_written": fact("dataset.save", "bytes"),
        "wavelet.denoise_s": total("wavelet.denoise"),
        "wavelet.denoise_calls": len(named("wavelet.denoise")),
        "preprocess.self_s": self_total("preprocess.dataset"),
        "features.extract_s": total("features.extract"),
        "features.rows": fact("features.extract", "rows"),
        "features.csv_write_s": total("features.csv_write"),
        "features.csv_read_s": total("features.csv_read"),
        "selection.select_s": total("selection.select"),
        "kernels.gram_s": total("kernels.gram"),
        "kernels.gram_calls": len(named("kernels.gram")),
        "kernels.gram_cells": fact("kernels.gram", "cells"),
        "svm.smo_s": smo_s,
        "svm.smo_iterations": sum(iterations),
        "svm.max_machine_iterations": max(iterations, default=0),
        "svm.smo_us_per_iter": 1e6 * smo_s / sum(iterations) if sum(iterations) else 0.0,
        "svm.converged_ratio": (sum(s.facts["converged"] for s in machines) / len(machines)
                                if machines else 0.0),
        "svm.predict_s": total("svm.predict"),
        "svm.predict_calls": len(named("svm.predict")),
        "svm.sv_unique_ratio": (fact("pipeline.fit_from_features", "sv_unique") / sv_total
                                if sv_total else 0.0),
        "svm.save_model_s": total("svm.save_model"),
        "svm.load_model_s": total("svm.load_model"),
        "svm.model_bytes": fact("svm.save_model", "bytes"),
        "evaluate.cv_fold_fit_s": sum(s.duration for s in fits if inside(s, "evaluate.kfold")),
        "evaluate.heldout_accesses": fact("evaluate.kfold", "heldout_accesses"),
        "pipeline.fit_from_features_s": sum(
            s.duration for s in fits if not inside(s, "evaluate.kfold")),
    })
    return out


def span_records(spans: list) -> list:
    """Spans as plain dicts with times relative to the first start, for a run record."""
    origin = min((s.start for s in spans), default=0.0)
    return [
        {"id": s.span_id, "parent": s.parent_id, "name": s.name,
         "start": s.start - origin, "end": s.end - origin, **s.facts}
        for s in spans
    ]
