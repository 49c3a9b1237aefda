"""Guards for duties with one owner: the CLI prints every `warning:` line
through `cli._warn` and resolves every option in `cli.main`, only `svm`
words a machine that did not converge, and one function of `synth` shapes
every phasic event."""

import ast
from pathlib import Path

import gsremotion
from gsremotion import cli, synth

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
