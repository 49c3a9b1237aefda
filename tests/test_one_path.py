"""Guards for duties with one owner: the CLI prints every `warning:` line
through `cli._warn`, resolves every option, reads every input, blames every
stage refusal on the command's data input and refuses and prints every
output in `cli.main`, and parses every number with `dataset.parse_int` or
`dataset.parse_float`; `dataset.parse_word` reads and words every label,
kernel kind and norm mode; every text-mode `open` names its encoding; only
`svm` words a machine that did not converge; one function of `synth` shapes
every phasic event; and `dataset.read_table` and `dataset.write_table` read
and write the manifest and the feature table (`cli.cmd_predict` writes
`predictions.csv`, which has no version line, with its own `csv.writer`)."""

import ast
from pathlib import Path

import gsremotion
from gsremotion import cli, dataset, synth

SRC = Path(gsremotion.__file__).parent


def strings(node) -> list:
    """Every string constant under node, the literal parts of f-strings included."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def cli_callers(name) -> list:
    """The name of each function of cli, for each call of name in it."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            for n in ast.walk(f) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]


def test_cli_warns_only_through_its_helper():
    tree = ast.parse(Path(cli.__file__).read_text())
    helpers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_warn"]
    assert len(helpers) == 1
    inside = [s for s in strings(helpers[0]) if "warning:" in s]
    assert inside
    assert [s for s in strings(tree) if "warning:" in s] == inside


def test_cli_resolves_options_only_in_main():
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    callers = [f.name for f in functions for n in ast.walk(f)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_resolve"]
    assert callers == ["main"]
    readers = [f.name for f in functions if f.name.startswith("cmd_")
               for n in ast.walk(f) if isinstance(n, ast.Attribute) and n.attr == "cfg"]
    assert readers == []


def test_cli_outputs_only_in_main():
    """main refuses every existing output, from the files _outputs lists, and
    prints every line a command returns; no command prints, warns or refuses."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert cli_callers("_outputs") == cli_callers("_warn") == ["main"]
    assert sorted(set(cli_callers("print"))) == ["_warn", "main"]
    refusers = [f.name for f in functions
                if [text for text in strings(f) if "pass --force to overwrite" in text]]
    assert refusers == ["main"]
    assert not hasattr(cli, "_writes_prefix") and not hasattr(cli, "_check_out")


def test_cli_reads_inputs_only_in_main():
    """main reads each input by its _COMMANDS row's reader and runs the command
    under the one blame of its data input; no command reads an input or blames
    a file, and the readers and the option checks name their own files."""
    names = ("file_errors", "load_dataset", "read_feature_csv", "_read_labeled", "load_model")
    assert [f for name in names for f in cli_callers(name) if f.startswith("cmd_")] == []
    assert sorted(set(cli_callers("file_errors"))) == [
        "_pairing", "_read_labeled", "_resolve", "main", "read_config_file"]
    assert not hasattr(cli, "_INPUT_HELP")


def test_text_files_name_their_encoding():
    """Every text-mode open in src/ passes encoding=, so no file's bytes
    depend on the locale; a binary open (samples.npy's "rb") has none."""
    opens = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "open":
                modes = n.args[1:2] + [kw.value for kw in n.keywords if kw.arg == "mode"]
                binary = any("b" in m.value for m in modes)
                opens.append((path.name, binary,
                              any(kw.arg == "encoding" for kw in n.keywords)))
    assert [o for o in opens if not o[1] and not o[2]] == []
    assert [o for o in opens if o[1]] == [("dataset.py", True, False)]


def test_cli_parses_every_number_one_way():
    """argparse passes every flag on as text, each number key's parser is
    one of the grammar's, and cli itself calls neither int nor float."""
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not [kw for n in calls for kw in n.keywords if kw.arg == "type"]
    assert not [n for n in calls if getattr(n.func, "id", None) in ("int", "float")]
    numbers = {key for key, (parse, _, _) in cli._OPTIONS.items() if parse is not str}
    assert numbers == {"c", "eta", "folds", "k", "seed", "test_fraction", "duration_s",
                       "sample_rate_hz", "noise_std", "features_list", "counts"}
    for key in numbers:
        assert cli._OPTIONS[key][0] in (dataset.parse_int, dataset.parse_float, cli._int_list)


def test_words_are_read_one_way():
    """Only dataset.parse_word lower-cases a text, and only dataset words a
    refusal of a word that is not one of its set."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers += [f"{path.stem}.{getattr(top, 'name', '<module>')}" for top in tree.body
                    for n in ast.walk(top)
                    if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "lower"]
        if path.stem != "dataset":
            assert not [s for s in strings(tree) if "(expected one of" in s], path.name
    assert set(callers) == {"dataset.parse_word"}


def test_only_svm_words_non_convergence():
    holders = sorted(p.name for p in SRC.glob("*.py") if "did not converge" in p.read_text())
    assert holders == ["svm.py"]


def test_one_function_shapes_synth_events():
    tree = ast.parse(Path(synth.__file__).read_text())

    def exp_sites(node) -> list:
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "exp"]

    holders = [n.name for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and exp_sites(n)]
    assert holders == ["_event_shape"]
    assert len(exp_sites(tree)) == 1


def test_csv_tables_have_one_reader_and_one_writer():
    def users(name) -> list:
        """'module.function' of each use of `csv.<name>` in the package."""
        found = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert not [n for n in ast.walk(tree)
                        if isinstance(n, ast.ImportFrom) and n.module == "csv"]
            for top in tree.body:
                owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                found += [owner for n in ast.walk(top) if isinstance(n, ast.Attribute)
                          and n.attr == name and getattr(n.value, "id", None) == "csv"]
        return found

    assert users("reader") == ["dataset.read_table"]
    assert users("writer") == ["cli.cmd_predict", "dataset.write_table"]
