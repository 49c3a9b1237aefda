"""Property tests for the six input files the command line reads.

Most tests take a valid file, break it with a mutation that the format
never accepts (truncation, a junk line, a missing key, a value of the wrong
type, a table narrower than the catalog, a manifest whose rows do not tile
its samples), run the command that reads it through cli.main, and check the
error contract: exit code 1 or 2, one `error:` or `io error:` line on
stderr and nothing else, and for a validation error the broken file named
once, right after `error:`. A few apply a mutation that can leave the file
valid (manifest lines dropped, a feature table cut at a row boundary, a
flipped byte in the header of samples.npy) and accept either a consistent
result or that same error contract.
Examples are derandomized and bounded so the suite stays deterministic and
fast.
"""

import contextlib
import io
import json
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsremotion import cli
from gsremotion.dataset import LABEL_ORDER
from gsremotion.selection import read_selection_indices

from conftest import delete_key, key_paths

FUZZ = settings(max_examples=30, derandomize=True, database=None, deadline=None)

LETTERS = string.ascii_letters
# letters-only text never parses as a finite float ("nan" and "inf" parse,
# but every record and feature value must be finite)
junk = st.text(alphabet=LETTERS, min_size=1, max_size=8)
LABEL_NAMES = {lab.value for lab in LABEL_ORDER}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid file of each format: corpus, features, selection, model, config."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    cfg = root / "synth.cfg"
    cfg.write_text("counts = 2,2,2,2,2\nduration_s = 16.0\n")
    assert cli.main(["synth", "--out", str(root / "corpus"), "--config", str(cfg)]) == 0
    manifest = root / "corpus" / "manifest.txt"
    features = root / "features.csv"
    selection = root / "selection.json"
    model = root / "model.json"
    config = root / "train.cfg"
    config.write_text("# defaults\nkernel = rbf\nc = 1.0\nk = 5\nseed = 3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["features", "--manifest", str(manifest), "--out", str(features)]) == 0
        assert cli.main(["select", "--features", str(features), "--out", str(selection),
                         "--k", "5"]) == 0
        assert cli.main(["train", "--features", str(features), "--out", str(model),
                         "--k", "5"]) == 0
    return {"manifest": manifest, "features": features, "selection": selection,
            "model": model, "config": config}


def run(argv):
    """Run the CLI; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_error(rc, err, broken):
    """Check the error contract for the broken file; returns the error line."""
    lines = err.splitlines()
    assert rc in (1, 2), (rc, err)
    assert len(lines) == 1, err
    if rc == 1:
        assert lines[0].startswith(f"error: {broken}: "), lines[0]
        assert lines[0].count(str(broken)) == 1, lines[0]
    else:
        assert lines[0].startswith("io error: "), lines[0]
    return lines[0]


def run_broken(argv, broken):
    return assert_error(*run(argv), broken)


def write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def splice(lines, index, line):
    """lines with `line` inserted before position index (modulo length + 1)."""
    index %= len(lines) + 1
    return lines[:index] + [line] + lines[index:]


def truncated(text, fraction):
    """A strict prefix that drops at least the last non-blank character."""
    return text[:int(fraction * (len(text.rstrip()) - 1))]


@st.composite
def config_mutation(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["no_equals", "unknown_key", "empty_key", "bad_list"]))
    if kind == "no_equals":
        line = draw(st.text(alphabet=LETTERS + string.digits + " ", min_size=1)
                    .filter(str.strip))
    elif kind == "unknown_key":
        key = draw(junk.filter(lambda k: k.replace("-", "_") not in cli._OPTIONS))
        line = f"{key} = {draw(junk)}"
    elif kind == "empty_key":
        line = f" = {draw(junk)}"
    else:  # select reads features_list, which the valid file leaves unset
        line = f"features_list = {draw(junk)}"
    return "\n".join(splice(lines, draw(st.integers(0, 20)), line)) + "\n"


class TestConfigFile:
    @FUZZ
    @given(data=st.data())
    def test_broken_config(self, inputs, data):
        text = data.draw(config_mutation(inputs["config"].read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "train.cfg")
            with open(broken, "w") as fh:
                fh.write(text)
            run_broken(["select", "--features", str(inputs["features"]),
                        "--out", os.path.join(tmp, "sel.json"), "--config", broken], broken)


def corpus_copy(tmp, inputs, manifest_text=None, samples=None):
    """A corpus in tmp from the valid one, with the manifest text or the bytes of
    samples.npy replaced where given; returns the paths of both files."""
    corpus = inputs["manifest"].parent
    manifest, broken = os.path.join(tmp, "manifest.txt"), os.path.join(tmp, "samples.npy")
    with open(manifest, "w") as fh:
        fh.write(inputs["manifest"].read_text() if manifest_text is None else manifest_text)
    with open(broken, "wb") as fh:
        fh.write((corpus / "samples.npy").read_bytes() if samples is None else samples)
    return manifest, broken


@st.composite
def manifest_mutation(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["truncate", "duplicate", "bad_count", "bad_label",
                                 "bad_rate", "junk_line", "swap_fields"]))
    if kind == "truncate":
        return truncated(text, draw(st.floats(0, 1)))
    row = draw(st.integers(2, len(lines) - 1))
    fields = lines[row].split(",")
    if kind == "duplicate":
        lines = splice(lines[2:], draw(st.integers(0, len(lines) - 2)), lines[row])
        return "\n".join(text.splitlines()[:2] + lines) + "\n"
    if kind == "junk_line":
        return "\n".join(splice(lines, draw(st.integers(0, len(lines))), draw(junk))) + "\n"
    if kind == "bad_count":
        fields[4] = str(draw(st.integers(0, 10**6).filter(lambda n: str(n) != fields[4])))
    elif kind == "bad_label":
        fields[2] = draw(junk.filter(lambda s: s.lower() not in LABEL_NAMES))
    elif kind == "bad_rate":
        fields[3] = draw(junk)
    else:  # the count where the rate belongs, and the rate where the count belongs
        fields[3], fields[4] = fields[4], fields[3]
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class TestManifest:
    @FUZZ
    @given(data=st.data())
    def test_broken_manifest(self, inputs, data):
        text = data.draw(manifest_mutation(inputs["manifest"].read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken, _ = corpus_copy(tmp, inputs, manifest_text=text)
            run_broken(["features", "--manifest", broken,
                        "--out", os.path.join(tmp, "features.csv")], broken)

    @FUZZ
    @given(data=st.data())
    def test_manifest_with_lines_dropped(self, inputs, data):
        lines = inputs["manifest"].read_text().splitlines()
        keep = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
        kept = [line for line, k in zip(lines, keep) if k]
        with tempfile.TemporaryDirectory() as tmp:
            manifest, _ = corpus_copy(tmp, inputs, manifest_text="".join(
                line + "\n" for line in kept))
            out = os.path.join(tmp, "features.csv")
            rc, err = run(["features", "--manifest", manifest, "--out", out])
            if kept != lines:  # what is left no longer tiles samples.npy
                assert_error(rc, err, manifest)
                return
            assert (rc, err) == (0, "")
            assert open(out).read() == inputs["features"].read_text()


@st.composite
def samples_mutation(draw, raw):
    """(bytes, whether the result may still be valid) from a valid samples.npy."""
    data_start = 10 + int.from_bytes(raw[8:10], "little")  # a version 1.0 header
    kind = draw(st.sampled_from(["truncate", "append", "flip_header", "non_finite"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))], False
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=16)), False
    if kind == "flip_header":
        # a flipped header byte can leave an equivalent header: '<f8' -> '|f8'
        at = draw(st.integers(0, data_start - 1))
        flipped = raw[at] ^ draw(st.integers(1, 255))
        return raw[:at] + bytes([flipped]) + raw[at + 1:], True
    at = data_start + 8 * draw(st.integers(0, (len(raw) - data_start) // 8 - 1))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return raw[:at] + np.float64(value).tobytes() + raw[at + 8:], False


class TestRecordCsv:
    @FUZZ
    @given(data=st.data())
    def test_broken_record(self, inputs, data):
        raw = (inputs["manifest"].parent / "samples.npy").read_bytes()
        samples, may_stay_valid = data.draw(samples_mutation(raw))
        with tempfile.TemporaryDirectory() as tmp:
            manifest, broken = corpus_copy(tmp, inputs, samples=samples)
            out = os.path.join(tmp, "features.csv")
            rc, err = run(["features", "--manifest", manifest, "--out", out])
            if may_stay_valid and rc == 0:
                assert open(out).read() == inputs["features"].read_text()
            else:
                assert_error(rc, err, broken)


@st.composite
def feature_mutation(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["truncate", "bad_label", "bad_value", "drop_field",
                                 "drop_columns", "repeat_row", "blank_row", "multiline_id"]))
    if kind == "truncate":
        # cut before the first row: version line, header or no rows at all
        return text[:draw(st.integers(0, len(lines[0]) + len(lines[1]) + 2))]
    if kind == "drop_columns":
        # a consistent table that is narrower than the catalog
        j = draw(st.integers(1, 30))
        return "\n".join(lines[:1] + [",".join(ln.split(",")[:-j]) for ln in lines[1:]]) + "\n"
    row = draw(st.integers(2, len(lines) - 1))
    if kind == "repeat_row":  # the row again on a later line: its record_id twice
        lines.insert(draw(st.integers(row + 1, len(lines))), lines[row])
        return "\n".join(lines) + "\n"
    if kind == "blank_row":  # anywhere after the header, also after the last row
        lines.insert(draw(st.integers(2, len(lines))), "")
        return "\n".join(lines) + "\n"
    fields = lines[row].split(",")
    if kind == "bad_label":
        fields[1] = draw(junk.filter(lambda s: s.lower() not in LABEL_NAMES))
    elif kind == "bad_value":
        fields[draw(st.integers(2, len(fields) - 1))] = draw(junk)
    elif kind == "multiline_id":  # quoted, so csv reads one record_id holding a line break
        fields[0] = f'"{fields[0]}\n{draw(junk)}"'
    else:
        del fields[draw(st.integers(0, len(fields) - 1))]
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class TestFeatureCsv:
    @FUZZ
    @given(data=st.data())
    def test_broken_feature_table(self, inputs, data):
        text = data.draw(feature_mutation(inputs["features"].read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "features.csv")
            with open(broken, "w") as fh:
                fh.write(text)
            run_broken(["select", "--features", broken, "--k", "5",
                        "--out", os.path.join(tmp, "sel.json")], broken)

    @FUZZ
    @given(data=st.data())
    def test_feature_table_cut_at_a_row(self, inputs, data):
        lines = inputs["features"].read_text().splitlines()
        n_rows = data.draw(st.integers(0, len(lines) - 2))
        with tempfile.TemporaryDirectory() as tmp:
            table = os.path.join(tmp, "features.csv")
            write(table, lines[:2 + n_rows])  # version line, header, rows
            out = os.path.join(tmp, "sel.json")
            rc, err = run(["select", "--features", table, "--k", "5", "--out", out])
            if rc == 0:
                assert len(read_selection_indices(out)) == 5
            else:
                assert_error(rc, err, table)


# every element is rejected: not an int, a boolean, a non-integral float,
# out of 1..30, a float (1.0 is not an index either), or a container
bad_index = st.one_of(
    st.none(), st.booleans(), st.integers(max_value=0), st.integers(min_value=31),
    st.text(max_size=4), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 30).map(float),
    st.lists(st.integers(1, 30), max_size=2), st.dictionaries(junk, st.integers(), max_size=1),
)


@st.composite
def selection_mutation(draw, text):
    kind = draw(st.sampled_from(["truncate", "bad_indices", "not_an_object"]))
    if kind == "truncate":
        return truncated(text, draw(st.floats(0, 1)))
    if kind == "not_an_object":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(),
                                          st.lists(st.integers(), max_size=3))))
    payload = json.loads(text)
    payload["selected_indices"] = draw(st.one_of(
        st.none(), st.integers(), st.text(), st.just([]), st.just([5, 2]), st.just([3, 3]),
        st.just([True, 3]),
        st.lists(bad_index, min_size=1, max_size=3),
    ))
    return json.dumps(payload)


class TestSelectionJson:
    @FUZZ
    @given(data=st.data())
    def test_broken_selection(self, inputs, data):
        text = data.draw(selection_mutation(inputs["selection"].read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "selection.json")
            with open(broken, "w") as fh:
                fh.write(text)
            run_broken(["train", "--features", str(inputs["features"]), "--selection", broken,
                        "--out", os.path.join(tmp, "model.json")], broken)


# The solver facts a model file keeps: converged is a JSON boolean, the
# others JSON integers. A value that bool() or int() would coerce, such as
# "false" (truthy) or 3.7 (truncated), is refused.
MISTYPED_FACTS = {
    ("machines", 0, "converged"): ["false", "true", 0, 1, None, 0.0],
    ("machines", 0, "iterations"): [3.7, "12", 12.0, True, None],
    ("config", "seed"): [42.9, "42", 42.0, True, False],
    ("catalog_version",): [1.0, "1", True, 1.5],
}


# Hex floats too large for a double, each a ValueError naming its key, not an
# OverflowError.
OVERFLOWING_HEX = ["0x1p+1024", "-0x1p+1024", "0x2p+1023", "0x1p+5000"]


def set_key(payload, key_path, value):
    for step in key_path[:-1]:
        payload = payload[step]
    payload[key_path[-1]] = value


def hex_paths(node, prefix=()):
    """The path of every hex float string in a JSON tree, list items included."""
    if isinstance(node, str) and "0x" in node:
        yield prefix
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from hex_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from hex_paths(value, prefix + (i,))


@st.composite
def model_mutation(draw, text):
    kind = draw(st.sampled_from(["truncate", "drop_key", "not_an_object", "mistyped_fact",
                                 "overflowing_hex"]))
    if kind == "truncate":
        return truncated(text, draw(st.floats(0, 1)))
    if kind == "not_an_object":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(),
                                          st.lists(st.integers(), max_size=3))))
    payload = json.loads(text)
    if kind == "mistyped_fact":
        key_path = draw(st.sampled_from(list(MISTYPED_FACTS)))
        set_key(payload, key_path, draw(st.sampled_from(MISTYPED_FACTS[key_path])))
    elif kind == "overflowing_hex":
        key_path = draw(st.sampled_from(list(hex_paths(payload))))
        set_key(payload, key_path, draw(st.sampled_from(OVERFLOWING_HEX)))
    else:
        delete_key(payload, draw(st.sampled_from(list(key_paths(payload)))))
    return json.dumps(payload)


class TestModelJson:
    @FUZZ
    @given(data=st.data())
    def test_broken_model(self, inputs, data):
        text = data.draw(model_mutation(inputs["model"].read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "model.json")
            with open(broken, "w") as fh:
                fh.write(text)
            run_broken(["predict", "--model", broken, "--features", str(inputs["features"]),
                        "--out", os.path.join(tmp, "predictions.csv")], broken)

    @pytest.mark.parametrize("key_path, value", [
        pytest.param(key_path, value, id=f"{key_path[-1]}={json.dumps(value)}")
        for key_path, values in MISTYPED_FACTS.items() for value in values])
    def test_mistyped_solver_fact_refused(self, inputs, key_path, value):
        """eval refuses the file, naming it and the key; "converged": "false"
        would otherwise load as converged and hide the warning line."""
        payload = json.loads(inputs["model"].read_text())
        set_key(payload, key_path, value)
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "model.json")
            with open(broken, "w") as fh:
                json.dump(payload, fh)
            line = run_broken(["eval", "--model", broken, "--features", str(inputs["features"]),
                               "--out", os.path.join(tmp, "scores")], broken)
        assert f"{key_path[-1]} must be" in line and f"got {value!r}" in line, line

    @pytest.mark.parametrize("command, key_path, value", [
        ("eval", ("machines", 0, "bias"), "0x1p+1024"),
        ("predict", ("config", "c"), "0x1p+5000"),
        ("eval", ("machines", 3, "support_vectors", 1, 2), "-0x1p+1024"),
        ("predict", ("machines", 9, "dual_coef", 0), "0x2p+1023"),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
    def test_overflowing_hex_float_refused(self, inputs, command, key_path, value):
        """A hex float too large for a double ends in exit 1 naming the file
        and the key, not in an OverflowError traceback."""
        payload = json.loads(inputs["model"].read_text())
        set_key(payload, key_path, value)
        key = next(step for step in reversed(key_path) if isinstance(step, str))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "model.json")
            with open(broken, "w") as fh:
                json.dump(payload, fh)
            out = os.path.join(tmp, "scores" if command == "eval" else "predictions.csv")
            line = run_broken([command, "--model", broken, "--features",
                               str(inputs["features"]), "--out", out], broken)
        assert line.endswith(f": {key} {value!r} is too large for a double"), line
