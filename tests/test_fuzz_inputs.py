"""Property tests for the six input files the command line reads.

Each test takes a valid file, breaks it with a mutation that the format
never accepts (truncation, a junk line, a missing key, a value of the wrong
type, a table narrower than the catalog), runs the command that reads it
through cli.main, and checks the error contract: exit code 1 or 2, one
`error:` or `io error:` line on stderr and nothing else, and for a
validation error the broken file named once, right after `error:`.
Examples are derandomized and bounded so the suite stays deterministic and
fast.
"""

import contextlib
import io
import json
import os
import string
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsremotion import cli
from gsremotion.dataset import LABEL_ORDER

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


def run_broken(argv, broken):
    """Run the CLI and check the error contract for the broken file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (1, 2), (rc, err.getvalue())
    assert len(lines) == 1, err.getvalue()
    if rc == 1:
        assert lines[0].startswith(f"error: {broken}: "), lines[0]
        assert lines[0].count(str(broken)) == 1, lines[0]
    else:
        assert lines[0].startswith("io error: "), lines[0]
    return lines[0]


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
        key = draw(junk.filter(lambda k: k.replace("-", "_") not in cli._CONFIG_KEYS))
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


class TestManifest:
    @FUZZ
    @given(data=st.data())
    def test_broken_manifest(self, inputs, data):
        corpus = inputs["manifest"].parent
        names = inputs["manifest"].read_text().splitlines()
        kind = data.draw(st.sampled_from(["duplicate", "partial_name", "missing_file"]))
        index = data.draw(st.integers(0, len(names) - 1))
        if kind == "duplicate":
            lines = splice(names, data.draw(st.integers(0, len(names))), names[index])
        elif kind == "partial_name":
            cut = data.draw(st.integers(1, len(names[index]) - 1))
            lines = names[:index] + [names[index][:cut]]
        else:
            lines = splice(names, index, data.draw(junk) + ".csv")
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, "manifest.txt")
            with open(broken, "w") as fh:
                # absolute record paths: the records stay where synth wrote them
                fh.write("\n".join(os.path.join(corpus, n) for n in lines) + "\n")
            line = run_broken(["features", "--manifest", broken,
                               "--out", os.path.join(tmp, "features.csv")], broken)
        if kind == "duplicate":
            assert "duplicate record_id" in line
        else:
            assert line.startswith("io error: ")


@st.composite
def record_mutation(draw, text):
    lines = text.splitlines()
    header = lines.index("t_seconds,conductance_us")
    kind = draw(st.sampled_from(["truncate", "bad_value", "extra_field", "bad_label",
                                 "drop_metadata"]))
    if kind == "truncate":
        # stop before the 64th sample is complete: never enough samples
        end = len("\n".join(lines[:header + 64]))
        return text[:draw(st.integers(0, end - 1))]
    if kind == "drop_metadata":
        del lines[draw(st.integers(0, header - 1))]
    elif kind == "bad_label":
        label = draw(junk.filter(lambda s: s.strip().lower() not in LABEL_NAMES))
        lines = [f"# label: {label}" if ln.startswith("# label:") else ln for ln in lines]
    else:
        row = draw(st.integers(header + 1, len(lines) - 1))
        t = lines[row].split(",")[0]
        lines[row] = f"{t},{draw(junk)}" if kind == "bad_value" else f"{lines[row]},{t}"
    return "\n".join(lines) + "\n"


class TestRecordCsv:
    @FUZZ
    @given(data=st.data())
    def test_broken_record(self, inputs, data):
        corpus = inputs["manifest"].parent
        name = inputs["manifest"].read_text().splitlines()[0]
        text = data.draw(record_mutation((corpus / name).read_text()))
        with tempfile.TemporaryDirectory() as tmp:
            broken = os.path.join(tmp, name)
            with open(broken, "w") as fh:
                fh.write(text)
            manifest = os.path.join(tmp, "manifest.txt")
            with open(manifest, "w") as fh:
                fh.write(name + "\n")
            run_broken(["features", "--manifest", manifest,
                        "--out", os.path.join(tmp, "features.csv")], broken)


@st.composite
def feature_mutation(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["truncate", "bad_label", "bad_value", "drop_field",
                                 "drop_columns"]))
    if kind == "truncate":
        # cut before the first row: version line, header or no rows at all
        return text[:draw(st.integers(0, len(lines[0]) + len(lines[1]) + 2))]
    if kind == "drop_columns":
        # a consistent table that is narrower than the catalog
        j = draw(st.integers(1, 30))
        return "\n".join(lines[:1] + [",".join(ln.split(",")[:-j]) for ln in lines[1:]]) + "\n"
    row = draw(st.integers(2, len(lines) - 1))
    fields = lines[row].split(",")
    if kind == "bad_label":
        fields[1] = draw(junk.filter(lambda s: s.strip().lower() not in LABEL_NAMES))
    elif kind == "bad_value":
        fields[draw(st.integers(2, len(fields) - 1))] = draw(junk)
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


# every element is rejected: not an int, a boolean, a non-integral float,
# out of 1..30, or a container
bad_index = st.one_of(
    st.none(), st.booleans(), st.integers(max_value=0), st.integers(min_value=31),
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: not f.is_integer()),
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


def key_paths(node, prefix=()):
    """Every key path in a JSON tree; a path ends at a dict key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, prefix + (i,))


@st.composite
def model_mutation(draw, text):
    kind = draw(st.sampled_from(["truncate", "drop_key", "not_an_object"]))
    if kind == "truncate":
        return truncated(text, draw(st.floats(0, 1)))
    if kind == "not_an_object":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(),
                                          st.lists(st.integers(), max_size=3))))
    payload = json.loads(text)
    # normalization is optional (null when the model was fitted without it)
    paths = [p for p in key_paths(payload) if p != ("normalization",)]
    path = draw(st.sampled_from(paths))
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
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
