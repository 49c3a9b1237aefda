"""The bit contract: the seed-42 README chain keeps every byte it writes.

The chain runs in process through cli.main in a temporary directory: the
README's synth ... report commands, predict on the held-out and on the full
table, the same model commands under --norm both, and a synth and a report
whose options come from the config files of CONFIGS. Each command's exit
code, stdout and stderr, and the sha256 of every file the chain leaves, must
equal golden_chain.json, and so must the --help text of the CLI and of each
subcommand, formatted at a fixed width of HELP_COLUMNS.

The table holds on the numpy and OpenBLAS code paths of the machine it was
computed on: numpy picks its exp/log SIMD loops and OpenBLAS its kernels by
CPU, so on another CPU (or with NPY_DISABLE_CPU_FEATURES or
OPENBLAS_CORETYPE set) synth, denoise, selection and the model can give
other bits until those paths are made CPU-independent.

Re-pinning has one path: a change that moves bits on purpose runs

    PYTHONPATH=src python3 tests/test_golden_chain.py

which rewrites golden_chain.json, and names each entry that moved, with
the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from gsremotion import cli

GOLDEN = Path(__file__).with_name("golden_chain.json")

COMMANDS = [
    "synth --out data --seed 42",
    "preprocess --manifest data/manifest.txt --out clean",
    "features --manifest clean/manifest.txt --out features.csv",
    "select --features features.csv --k 15 --out selection.json",
    "train --features features.csv --selection selection.json --test-fraction 0.3 "
    "--test-out test.csv --out model.json --seed 42",
    "eval --model model.json --features test.csv --out scores --seed 42",
    "predict --model model.json --features test.csv --out predictions.csv",
    "predict --model model.json --features features.csv --out predictions_all.csv",
    "cv --manifest data/manifest.txt --folds 5 --out cv --seed 42",
    "report --features features.csv --out comparison --seed 42",
    "preprocess --manifest data/manifest.txt --norm both --out clean_both",
    "features --manifest clean_both/manifest.txt --out features_both.csv",
    "train --features features_both.csv --norm both --k 15 --test-fraction 0.3 "
    "--test-out test_both.csv --out model_both.json --seed 42",
    "eval --model model_both.json --features test_both.csv --out scores_both --seed 42",
    "predict --model model_both.json --features features_both.csv "
    "--out predictions_both.csv",
    "cv --manifest data/manifest.txt --norm both --folds 5 --out cv_both --seed 42",
    "report --features features_both.csv --norm both --out comparison_both --seed 42",
    "synth --config synth.cfg --out data_cfg",
    "report --features features.csv --config report.cfg --out comparison_cfg",
]

# "" is the CLI's own --help; argparse wraps at the COLUMNS the environment sets
HELP_COMMANDS = ["", "synth", "preprocess", "features", "select", "train", "predict", "eval",
                 "cv", "report"]
HELP_COLUMNS = "100"

# Written into the directory before the chain runs; their values take the
# file path of every key they set, a quoted value and an exponent included.
CONFIGS = {
    "synth.cfg": "# a small corpus\ncounts = 6,7,6,8,6\nduration_s = 40.0\n"
                 "sample_rate_hz = 2.5\nnoise_std = 2.5e-2\nseed = 7\n",
    "report.cfg": "k = 10\nc = 2.5\nkernel = 'rbf'\neta = 0.125  # over k\n"
                  "seed = 7\ntest-fraction = 0.25\n",
}


def run_chain(directory: Path) -> dict:
    """Run COMMANDS in directory; return what golden_chain.json holds."""
    runs = []
    for name, text in CONFIGS.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.split())
            runs.append({"command": command, "exit": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    files = {path.relative_to(directory).as_posix():
             hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return {"commands": runs, "files": files}


def help_texts() -> dict:
    """Each entry of HELP_COMMANDS with the text its --help prints."""
    texts = {}
    with mock.patch.dict(os.environ, {"COLUMNS": HELP_COLUMNS}):
        for command in HELP_COMMANDS:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    cli.main([*command.split(), "--help"])
            except SystemExit as exc:
                assert exc.code == 0, command
            texts[command] = out.getvalue()
    return texts


def test_chain_keeps_its_bits(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_chain(tmp_path)
    for w, g in zip(want["commands"], got["commands"], strict=True):
        assert g == w, w["command"]
    assert got["files"] == want["files"]


def test_help_keeps_its_text():
    want = json.loads(GOLDEN.read_text())["help"]
    got = help_texts()
    for command in HELP_COMMANDS:
        assert got[command] == want[command], command or "gsremotion"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = run_chain(Path(tmp))
    table["help"] = help_texts()
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['commands'])} commands and {len(table['files'])} files "
          f"to {GOLDEN}", file=sys.stderr)
