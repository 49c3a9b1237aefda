"""Benchmark of the gsremotion pipeline: one workload per run, in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-default --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 35 --trace 0

Workloads (the seed is the only input; it seeds the synthetic corpus the
program receives):

* ``cli-default``: the README chain ``synth preprocess features select train
  eval cv report`` as 8 subprocesses on the default 257-record corpus, with a
  fresh output directory per repetition.
* ``inproc-8x``: in process, on an in-memory 8x corpus (2,056 records):
  ``prepare_dataset``, ``extract_dataset_features``, ``fit_from_features``,
  ``evaluate_model``, then 5-fold ``kfold_cross_validate``.
* ``serve-rows``: a model fitted at set-up on the default corpus (the README's
  seed 42, so every run serves the same model, as a deployed one would;
  ``norm_mode="both"``) answers single-row ``predict_rows`` calls from one
  closed-loop caller (at least 5,000 calls), then batch ``predict_rows`` calls
  over the same table. The rows are features of the corpus of the workload
  seed (43 in place of 42, so they are never the training rows).

End-to-end metrics (``--trace 0``); every workload reports each of them:

* ``setup_s``: script start to the first timed operation: imports, plus the
  median of ``SETUP_REPEATS`` set-ups (a CLI interpreter start; corpus
  generation; corpus generation, fit and query-table extraction), both
  normalized like the operation times below.
* ``op_p50_ms``: median normalized time of the workload's repeated operation:
  one 8-command chain (``chain_s``), one 5-fold CV (``cv_s``), one single-row
  ``predict_rows`` call (``predict_row_p50_ms``).
* ``rows_per_s``: records per normalized second through the workload's main
  path: corpus records over the median chain time, corpus records over the
  median pass time (``fit_pipeline_s`` plus ``cv_s``; ``fit_pipeline_s`` alone
  spans about 2 s, too short to be steady), table rows over the median batch
  ``predict_rows`` time (``predict_batch_rows_per_s``).
* ``peak_rss_mb``: peak resident set of the workload process; on
  ``cli-default`` that of the largest child.
* ``accuracy``: ``eval`` test accuracy, CV mean accuracy, single-row hit rate.

Normalized times: the speed of a shared 2-core VM drifts by up to 30% from
one stretch of seconds to the next (a fixed loop shows it, with no steal
time), which swamps run-to-run comparisons of wall time. A fixed computation
(``Speed.probe``: small numpy operations in the shape of one single-row RBF
kernel call, written here so that library changes do not move it) is
therefore timed between operations, and each operation's wall time is scaled
by ``NOMINAL_PROBE_S`` over the probe times on either side of it. The process
and its CLI subprocesses are pinned to one core, so the probes time the core
the work runs on. In 8-seed tests on such a VM the numpy probe halved the
spread left by a pure-Python loop probe (CLI chain 8.8% to 5.3%, 5-fold CV
16% to 8%, single-row latency 4.5% to 2.3%), which had itself halved the
spread of raw wall time. The record keeps the raw wall times.

Failed operations (subprocesses, stage calls, predict calls) are the
``failed`` count against ``attempted``. The workload-specific names above, the
p99 single-row latency with its sample count, the run environment and the
sha256 of every CLI artefact go into a ``record:`` line printed before the
result line.

``--trace 1`` runs the same workload with wrappers around the library's public
functions (see tracing.py) and reports the per-layer metrics in
``tracing.LAYER_UNITS``: the median over traced repetitions of each layer's
total per repetition, where a repetition is the workload's set-up plus one
operation (one chain, one pass with CV, one sweep of single-row calls over the
table plus one batch call). Traced and untraced operations alternate, and
``trace.overhead_ratio`` is the traced-minus-untraced median over the untraced
one. The record then also holds the last traced repetition's spans (name,
start, end, parent).

Seeds: changes are developed on ``DEV_SEED``; a claim is confirmed on
``CHECK_SEED`` as well, a seed not used while the change was written.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One process with no extra threads: OpenBLAS worker threads would compete
# with the interpreter for the 2 cores. Set before numpy loads; recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")

DEV_SEED = 42
CHECK_SEED = 20230711
WORKLOADS = ("cli-default", "inproc-8x", "serve-rows")
SETUP_REPEATS = 3
ACCURACY_FLOOR = 0.60  # acceptance test 07's held-out floor
TRAIN_SEED = 42  # split, fold and solver tie-break seed, as in the README chain
MODEL_CORPUS_SEED = 42  # serve-rows model: the default corpus
MIN_SINGLE_CALLS = {"full": 5000, "tiny": 200}
PROBE_CALLS = 200
NOMINAL_PROBE_S = 0.005  # the probe's time in a 2 GHz 2-core VM's faster stretches
PROBE_EVERY = 64  # single-row calls between speed probes
TINY_COUNT = 10  # records per label in --size tiny

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}


def _import_library():
    """Import gsremotion from this checkout's src/, or stop the run."""
    if not os.path.isfile(os.path.join(SRC, "gsremotion", "__init__.py")):
        sys.exit(f"perfbench: no gsremotion sources under {SRC}")
    sys.path.insert(0, SRC)
    import gsremotion
    if os.path.dirname(os.path.dirname(os.path.abspath(gsremotion.__file__))) != SRC:
        sys.exit(f"perfbench: imported gsremotion from {gsremotion.__file__}, not {SRC}")
    return gsremotion


class Outcome:
    """Counts of attempted and failed operations plus named output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class Speed:
    """Follows the machine's speed with a fixed computation timed between operations.

    On a shared machine the same work can take 30% longer from one stretch of
    seconds to the next. An operation's normalized time is its wall time
    scaled by NOMINAL_PROBE_S over the mean probe time on either side of it,
    which removes most of that drift from run-to-run comparisons.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        rng = np.random.default_rng(0)
        self._row = rng.random((1, 15))
        self._table = rng.random((120, 15))

    def probe(self) -> None:
        x, z = self._row, self._table
        t = time.perf_counter()
        for _ in range(PROBE_CALLS):
            sq = (x * x).sum(axis=1)[:, None] + (z * z).sum(axis=1)[None, :] - 2.0 * (x @ z.T)
            np.exp(-0.1 * sq).sum()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def normalized(self, start: float, duration: float) -> float:
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, start + duration)
        near = [self.durations[i] for i in (before, after) if 0 <= i < len(self.starts)]
        return duration * NOMINAL_PROBE_S * len(near) / sum(near)


def timed_setups(ctx, set_up):
    """Call set_up() SETUP_REPEATS times between speed probes; return its last result.

    Each set-up's (start, wall time) goes to ctx["setups"].
    """
    ctx["speed"].probe()
    ctx["setups"] = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        result = set_up()
        ctx["setups"].append((t, time.perf_counter() - t))
        ctx["speed"].probe()
    return result


def timed_reps(seconds: float, min_reps: int, body) -> int:
    """Call body(rep) at least min_reps times, then while another fits in `seconds`."""
    start = last = time.perf_counter()
    rep = 0
    longest = 0.0
    while rep < min_reps or (last - start) + longest <= seconds:
        body(rep)
        rep += 1
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
    return rep


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_hashes(root: str) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = sha256_file(path)
    return dict(sorted(out.items()))


def artefact_digests(hashes: dict) -> dict:
    """One sha256 per artefact: a file's own, or one over a directory's file list."""
    groups = {}
    for rel, digest in hashes.items():
        groups.setdefault(rel.split(os.sep, 1)[0], []).append(f"{digest}  {rel}\n")
    return {top: hashes.get(top) or hashlib.sha256("".join(lines).encode()).hexdigest()
            for top, lines in groups.items()}


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD commit read from .git when the checkout is a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(lib) -> dict:
    return {
        "backend": lib.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "git_commit": git_commit(),
    }


def corpus_counts(lib, scale: int, size: str) -> dict:
    from gsremotion.synth import DEFAULT_COUNTS
    if size == "tiny":
        return {lab: TINY_COUNT for lab in lib.LABEL_ORDER}
    return {lab: count * scale for lab, count in DEFAULT_COUNTS.items()}


# --------------------------------------------------------------------------
# cli-default


def chain_commands(d: str, seed: int, synth_config: str | None) -> list:
    """(name, argv) for the README chain writing every artefact under d."""
    synth = ["synth", "--out", f"{d}/data", "--seed", str(seed)]
    if synth_config:
        synth += ["--config", synth_config]
    s = str(TRAIN_SEED)
    return [
        ("synth", synth),
        ("preprocess", ["preprocess", "--manifest", f"{d}/data/manifest.txt",
                        "--out", f"{d}/clean"]),
        ("features", ["features", "--manifest", f"{d}/clean/manifest.txt",
                      "--out", f"{d}/features.csv"]),
        ("select", ["select", "--features", f"{d}/features.csv", "--k", "15",
                    "--out", f"{d}/selection.json"]),
        ("train", ["train", "--features", f"{d}/features.csv",
                   "--selection", f"{d}/selection.json", "--test-fraction", "0.3",
                   "--test-out", f"{d}/test.csv", "--out", f"{d}/model.json", "--seed", s]),
        ("eval", ["eval", "--model", f"{d}/model.json", "--features", f"{d}/test.csv",
                  "--out", f"{d}/scores", "--seed", s]),
        ("cv", ["cv", "--manifest", f"{d}/data/manifest.txt", "--folds", "5",
                "--out", f"{d}/cv", "--seed", s]),
        ("report", ["report", "--features", f"{d}/features.csv",
                    "--out", f"{d}/comparison", "--seed", s]),
    ]


def run_cli_default(ctx) -> dict:
    from gsremotion import cli
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    outcome, tracer, speed = ctx["outcome"], ctx["tracer"], ctx["speed"]
    synth_config = None
    if ctx["size"] == "tiny":
        synth_config = os.path.join(ctx["work"], "synth.cfg")
        with open(synth_config, "w") as fh:
            fh.write("counts = " + ",".join([str(TINY_COUNT)] * 5) + "\n")

    def startup():
        outcome.op(subprocess.run, [sys.executable, "-c", "import gsremotion.cli"],
                   env=env, check=True, capture_output=True)

    def subprocess_chain(d, spans):
        """Wall and normalized time of the 8 subcommands, a speed probe after each."""
        wall = normalized = 0.0
        speed.probe()
        for name, argv in chain_commands(d, ctx["seed"], synth_config):
            span = tracer.open(f"cli.{name}") if spans else None
            t = time.perf_counter()
            proc = outcome.op(subprocess.run, [sys.executable, "-m", "gsremotion.cli", *argv],
                              env=env, capture_output=True, text=True)
            elapsed = time.perf_counter() - t
            if span:
                tracer.close(span)
            if proc.returncode != 0:
                outcome.failed += 1
                sys.stderr.write(f"{name} exited {proc.returncode}: {proc.stderr}")
                raise RuntimeError(f"cli {name} failed")
            speed.probe()
            wall += elapsed
            normalized += speed.normalized(t, elapsed)
        return wall, normalized

    def inprocess_chain(d):
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in chain_commands(d, ctx["seed"], synth_config):
                if outcome.op(cli.main, argv) != 0:
                    outcome.failed += 1
                    raise RuntimeError(f"cli {name} failed in process")
        return time.perf_counter() - t

    timed_setups(ctx, startup)

    first = {}
    chains, chains_norm, inproc_plain, inproc_traced, layer_reps = [], [], [], [], []
    details = {}

    def inspect(d, check):
        hashes = tree_hashes(d)
        if not first:
            first.update(hashes)
            with open(os.path.join(d, "scores.json")) as fh:
                details["eval_accuracy"] = json.load(fh)["accuracy"]
            with open(os.path.join(d, "cv.json")) as fh:
                cv = json.load(fh)
            with open(os.path.join(d, "model.json")) as fh:
                model = json.load(fh)
            details["cv_mean_accuracy"] = cv["mean_accuracy"]
            details["heldout_accesses"] = cv["heldout_accesses_during_fit"]
            details["nonconverged_machines"] = sum(not m["converged"] for m in model["machines"])
        outcome.check(check, hashes == first)
        shutil.rmtree(d)

    if not ctx["trace"]:
        def body(rep):
            d = os.path.join(ctx["work"], f"rep{rep}")
            wall, normalized = subprocess_chain(d, spans=False)
            chains.append(wall)
            chains_norm.append(normalized)
            inspect(d, "artefacts_identical_across_repetitions")
        timed_reps(ctx["seconds"], 2, body)
    else:
        startup_span = tracer.open("cli.startup")
        startup()
        tracer.close(startup_span)
        startup_spans = tracer.take()

        def body(rep):
            d = os.path.join(ctx["work"], f"rep{rep}")
            subprocess_chain(d, spans=True)
            inspect(d, "artefacts_identical_across_repetitions")
            cli_spans = tracer.take()
            inproc_plain.append(inprocess_chain(d + "p"))
            inspect(d + "p", "in_process_artefacts_match_subprocess")
            tracer.install(tracing.TARGETS)
            try:
                inproc_traced.append(inprocess_chain(d + "t"))
            finally:
                tracer.uninstall()
            inspect(d + "t", "traced_artefacts_match_untraced")
            spans = startup_spans + cli_spans + tracer.take()
            layer_reps.append(tracing.layer_metrics(spans))
            ctx["spans"] = spans
        timed_reps(ctx["seconds"], 1, body)

    n_records = sum(corpus_counts(ctx["lib"], 1, ctx["size"]).values())
    accuracy = details["eval_accuracy"]
    outcome.check("accuracy_floor", accuracy >= ACCURACY_FLOOR)
    outcome.check("heldout_accesses_zero", details["heldout_accesses"] == 0)
    out = {
        "details": {
            **details,
            "corpus_records": n_records,
            "artefact_sha256": artefact_digests(first),
            "artefact_files": len(first),
        },
        "layers": layer_reps,
        "overhead": (inproc_plain, inproc_traced),
    }
    if not ctx["trace"]:
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        out["e2e"] = {
            "op_p50_ms": 1e3 * median(chains_norm),
            "rows_per_s": n_records / median(chains_norm),
            "peak_rss_mb": rss,
            "accuracy": accuracy,
        }
        out["named"] = {
            "chain_s": {"value": median(chains), "unit": "s", "samples": len(chains),
                        "each": chains, "normalized_each": chains_norm},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "accuracy": {"value": accuracy, "unit": "fraction", "source": "eval test split"},
        }
    return out


# --------------------------------------------------------------------------
# inproc-8x


def run_inproc_8x(ctx) -> dict:
    from gsremotion import evaluate, features, pipeline, synth
    lib, outcome, tracer, speed = ctx["lib"], ctx["outcome"], ctx["tracer"], ctx["speed"]
    counts = corpus_counts(lib, 8, ctx["size"])
    config = pipeline.PipelineConfig(seed=TRAIN_SEED)

    def generate():
        return synth.generate_dataset(synth.SynthConfig(seed=ctx["seed"], per_label_counts=counts))

    corpus = timed_setups(ctx, lambda: outcome.op(generate))

    fits, cvs, fingerprints, layer_reps = [], [], [], []
    fits_norm, cvs_norm, passes_norm = [], [], []
    plain, traced = [], []
    results = {}

    def one_pass(dataset):
        gc.collect()  # start every pass from a collected heap
        speed.probe()
        t0 = time.perf_counter()
        prepared = outcome.op(pipeline.prepare_dataset, dataset, config)
        matrix = outcome.op(features.extract_dataset_features, prepared)
        fitted = outcome.op(pipeline.fit_from_features, matrix, config)
        cm = outcome.op(pipeline.evaluate_model, fitted.model, matrix)
        t1 = time.perf_counter()
        speed.probe()
        t2 = time.perf_counter()
        report = outcome.op(evaluate.kfold_cross_validate, dataset, 5, config, TRAIN_SEED)
        t3 = time.perf_counter()
        speed.probe()
        fingerprints.append(json.dumps({
            "fit": [[float(m.bias).hex(), m.iterations, m.n_support]
                    for m in fitted.model.machines],
            "features": list(fitted.model.feature_indices),
            "confusion": cm.counts.tolist(),
            "cv": report.to_dict(),
        }, sort_keys=True))
        results.update(
            fit_accuracy=evaluate.accuracy(cm),
            cv_mean_accuracy=report.mean_accuracy,
            heldout_accesses=report.heldout_accesses,
            nonconverged_machines=sum(not m.converged for m in fitted.model.machines),
            smo_iterations=sum(m.iterations for m in fitted.model.machines),
        )
        return (t0, t1 - t0), (t2, t3 - t2)

    if not ctx["trace"]:
        def body(rep):
            fit, cv = one_pass(corpus)
            fits.append(fit[1])
            cvs.append(cv[1])
            fits_norm.append(speed.normalized(*fit))
            cvs_norm.append(speed.normalized(*cv))
            passes_norm.append(fits_norm[-1] + cvs_norm[-1])
        timed_reps(ctx["seconds"], 2, body)
    else:
        def body(rep):
            fit, cv = one_pass(corpus)
            plain.append(fit[1] + cv[1])
            tracer.install(tracing.TARGETS)
            try:
                traced_corpus = outcome.op(generate)
                fit, cv = one_pass(traced_corpus)
            finally:
                tracer.uninstall()
            traced.append(fit[1] + cv[1])
            spans = tracer.take()
            layer_reps.append(tracing.layer_metrics(spans))
            ctx["spans"] = spans
        timed_reps(ctx["seconds"], 1, body)

    outcome.check("results_identical_across_repetitions",
                  all(f == fingerprints[0] for f in fingerprints))
    outcome.check("accuracy_floor", results["cv_mean_accuracy"] >= ACCURACY_FLOOR
                  and results["fit_accuracy"] >= ACCURACY_FLOOR)
    outcome.check("heldout_accesses_zero", results["heldout_accesses"] == 0)
    n_records = len(corpus.records)
    out = {
        "details": {**results, "corpus_records": n_records},
        "layers": layer_reps,
        "overhead": (plain, traced),
    }
    if not ctx["trace"]:
        out["e2e"] = {
            "op_p50_ms": 1e3 * median(cvs_norm),
            "rows_per_s": n_records / median(passes_norm),
            "peak_rss_mb": peak_rss_mb(),
            "accuracy": results["cv_mean_accuracy"],
        }
        out["named"] = {
            "fit_pipeline_s": {"value": median(fits), "unit": "s", "samples": len(fits),
                               "each": fits, "normalized_each": fits_norm},
            "cv_s": {"value": median(cvs), "unit": "s", "samples": len(cvs), "each": cvs,
                     "normalized_each": cvs_norm},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "accuracy": {"value": results["cv_mean_accuracy"], "unit": "fraction",
                         "source": "5-fold CV mean"},
        }
    return out


# --------------------------------------------------------------------------
# serve-rows


def run_serve_rows(ctx) -> dict:
    from gsremotion import features, pipeline, synth
    lib, outcome, tracer, speed = ctx["lib"], ctx["outcome"], ctx["tracer"], ctx["speed"]
    counts = corpus_counts(lib, 1, ctx["size"])
    config = pipeline.PipelineConfig(norm_mode="both", seed=TRAIN_SEED)
    query_seed = ctx["seed"] + 1 if ctx["seed"] == MODEL_CORPUS_SEED else ctx["seed"]

    def table_for(seed):
        corpus = outcome.op(synth.generate_dataset,
                            synth.SynthConfig(seed=seed, per_label_counts=counts))
        prepared = outcome.op(pipeline.prepare_dataset, corpus, config)
        return outcome.op(features.extract_dataset_features, prepared)

    def set_up():
        fitted = outcome.op(pipeline.fit_from_features, table_for(MODEL_CORPUS_SEED), config)
        return fitted.model, table_for(query_seed)

    model, table = timed_setups(ctx, set_up)

    rows = table.values
    truth = list(table.labels)
    n = rows.shape[0]

    def sweep(model):
        """Every table row as a single-row call, then one batch call."""
        out = []
        for i in range(n):
            out.append(outcome.op(pipeline.predict_rows, model, rows[i:i + 1])[0])
        batch = outcome.op(pipeline.predict_rows, model, rows)
        outcome.check("single_row_matches_batch", out == batch)
        return out

    expected = sweep(model)  # warm-up, not timed
    singles, batches, layer_reps, plain, traced = [], [], [], [], []
    starts, batch_starts, singles_norm, batches_norm = [], [], [], []
    hits = calls = 0
    if not ctx["trace"]:
        start = time.perf_counter()
        single_budget = 0.6 * ctx["seconds"]
        while calls < MIN_SINGLE_CALLS[ctx["size"]] or time.perf_counter() - start < single_budget:
            if calls % PROBE_EVERY == 0:
                speed.probe()
            i = calls % n
            t = time.perf_counter()
            label = outcome.op(pipeline.predict_rows, model, rows[i:i + 1])[0]
            singles.append(time.perf_counter() - t)
            starts.append(t)
            outcome.check("single_row_repeatable", label == expected[i])
            hits += label == truth[i]
            calls += 1

        speed.probe()

        def body(rep):
            t = time.perf_counter()
            labels = outcome.op(pipeline.predict_rows, model, rows)
            batches.append(time.perf_counter() - t)
            batch_starts.append(t)
            if rep % 4 == 3:
                speed.probe()
            outcome.check("batch_repeatable", labels == expected)
        timed_reps(ctx["seconds"] - (time.perf_counter() - start), 20, body)
        speed.probe()
        singles_norm = [speed.normalized(t, d) for t, d in zip(starts, singles)]
        batches_norm = [speed.normalized(t, d) for t, d in zip(batch_starts, batches)]
    else:
        def body(rep):
            t = time.perf_counter()
            sweep(model)
            plain.append(time.perf_counter() - t)
            tracer.install(tracing.TARGETS)
            try:
                traced_model, _ = set_up()
                t = time.perf_counter()
                labels = sweep(traced_model)
                traced.append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            outcome.check("single_row_repeatable", labels == expected)
            spans = tracer.take()
            layer_reps.append(tracing.layer_metrics(spans))
            ctx["spans"] = spans
        timed_reps(ctx["seconds"], 1, body)
        hits = sum(p == t for p, t in zip(expected, truth)) * len(plain)
        calls = n * len(plain)

    accuracy = hits / calls
    outcome.check("accuracy_floor", accuracy >= ACCURACY_FLOOR)
    out = {
        "details": {
            "corpus_records": sum(counts.values()),
            "query_seed": query_seed,
            "query_rows": n,
            "nonconverged_machines": sum(not m.converged for m in model.machines),
        },
        "layers": layer_reps,
        "overhead": (plain, traced),
    }
    if not ctx["trace"]:
        p99 = statistics.quantiles(singles, n=100)[98]
        out["e2e"] = {
            "op_p50_ms": 1e3 * median(singles_norm),
            "rows_per_s": n / median(batches_norm),
            "peak_rss_mb": peak_rss_mb(),
            "accuracy": accuracy,
        }
        out["named"] = {
            "predict_row_p50_ms": {"value": 1e3 * median(singles), "unit": "ms",
                                   "samples": len(singles)},
            "predict_row_p99_ms": {"value": 1e3 * p99, "unit": "ms", "samples": len(singles)},
            "predict_batch_rows_per_s": {"value": n / median(batches), "unit": "rows/s",
                                         "samples": len(batches), "rows_per_call": n},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "accuracy": {"value": accuracy, "unit": "fraction", "source": "single-row hit rate"},
        }
    return out


RUNNERS = {
    "cli-default": run_cli_default,
    "inproc-8x": run_inproc_8x,
    "serve-rows": run_serve_rows,
}


# --------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{workload}] exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 10 records per label, for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)

    lib = _import_library()
    imports_s = time.perf_counter() - _T0
    # The speed probes must time the core the work runs on: keep this process
    # and the CLI subprocesses it starts on one core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer()
    ctx = {
        "lib": lib, "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "size": args.size, "work": work, "outcome": Outcome(), "tracer": tracer,
        "speed": Speed(),
    }
    try:
        result = RUNNERS[args.workload](ctx)
    except Exception:
        # a failed operation leaves the workload without results to report
        outcome = ctx["outcome"]
        print(f"perfbench: {args.workload} stopped after {outcome.failed} failed of "
              f"{outcome.attempted} attempted operations", file=sys.stderr)
        raise
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    outcome = ctx["outcome"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "dev_seed": DEV_SEED,
        "check_seed": CHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(lib),
        "checks": outcome.checks,
        **result["details"],
    }
    if args.trace:
        values = {name: median([rep[name] for rep in result["layers"]])
                  for name in tracing.LAYER_UNITS}
        plain, traced = result["overhead"]
        values["trace.overhead_ratio"] = median(traced) / median(plain) - 1.0
        units = tracing.LAYER_UNITS
        record["traced_repetitions"] = len(result["layers"])
        record["spans_last_repetition"] = tracing.span_records(ctx["spans"])
        for name, unit in units.items():
            print(f"{name}: {values[name]:.6g} {unit}")
    else:
        speed = ctx["speed"]
        setup_s = (speed.normalized(_T0, imports_s)
                   + median(speed.normalized(t, wall) for t, wall in ctx["setups"]))
        values = {"setup_s": setup_s, **result["e2e"]}
        units = E2E_UNITS
        named = {"setup_s": {"value": setup_s, "unit": "s", "imports_s": imports_s,
                             "setups_s": [wall for _, wall in ctx["setups"]]},
                 **result["named"],
                 "ops_failed_ratio": {"value": outcome.failed / outcome.attempted,
                                      "unit": "fraction", "attempted": outcome.attempted}}
        record["named_metrics"] = named
        for name, entry in named.items():
            extra = f" (n={entry['samples']})" if "samples" in entry else ""
            print(f"{name}: {entry['value']:.6g} {entry['unit']}{extra}")
    print(f"nonconverged_machines: {record['nonconverged_machines']}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
