"""Guards for duties with one owner: the CLI prints every `warning:` line
through `cli._warn`, resolves every option in `cli.main` and parses every
number with `dataset.parse_int` or `dataset.parse_float`, `dataset.parse_word`
reads and words every label, kernel kind and norm mode, only `svm`
words a machine that did not converge, one function of `synth` shapes
every phasic event, and `dataset.read_table` and `dataset.write_table` read
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
