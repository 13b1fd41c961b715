"""Documented surface: the README's python and command-line examples, the
doctests of every rifclark module, the signatures of the public callables,
no definition that nothing names, and no export without a caller."""

import ast
import doctest
import importlib
import inspect
import pkgutil
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

import rifclark
from rifclark import cli, verification

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(rifclark.__path__))


def _readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert len(_readme_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_readme_blocks())))
def test_readme_python_block_runs(index):
    exec(compile(_readme_blocks()[index], f"README.md block {index}", "exec"), {})


def _readme_commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("rifclark ")]


def test_readme_lists_every_suite_with_its_tolerance():
    # the verify bullet names every suite, in order, with its tolerance, so
    # a renamed suite or a moved bound fails here until the README says so
    text = README.read_text(encoding="utf-8")
    bullet = text[text.index("- `verify INPUT"):]
    bullet = bullet[:bullet.index("\n- `")]
    listed = [(name, float(tol))
              for name, tol in re.findall(r"`(\w+)` \(([^)]+)\)", bullet)]
    assert listed == [(name, tol) for name, (_suite, tol) in verification._SUITES.items()]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 7


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"rifclark.{name}")
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0


def test_doctests_exist():
    finder = doctest.DocTestFinder()
    found = sum(len(t.examples) for name in MODULES
                for t in finder.find(importlib.import_module(f"rifclark.{name}")))
    assert found >= 2


def _public_callables():
    """Public functions and methods; a class's own fields are data (the tol
    of SuiteResult reports a suite's bound), so constructors are left out."""
    for name in rifclark.__all__:
        obj = getattr(rifclark, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_public_callables_take_no_tolerance():
    # one tolerance, polynomials.TOL, serves the whole package; the checks
    # run at one node count, clark.RULE_NODES, and analyze reports the
    # adaptive mass
    fixed_rule = {"run_suites", "ClarkMeasure.to_json", "gram_isometry_check",
                  "orthonormality_check"}
    seen = set()
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert "tol" not in params and "max_iter" not in params, name
        if name in fixed_rule:
            seen.add(name)
            assert "count" not in params, name
    assert seen == fixed_rule


def test_every_definition_is_named_elsewhere():
    # a function, class or method that only its own definition names is dead
    # code; src/, tests/, bench/ and the README count as uses
    texts = [f.read_text(encoding="utf-8") for d in ("src", "tests", "bench")
             for f in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(re.findall(r"\w+", "\n".join(texts + [README.read_text(encoding="utf-8")])))
    defined = Counter(
        node.name
        for path in sorted((ROOT / "src" / "rifclark").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []



def test_every_public_name_has_a_caller():
    # a name exported from rifclark is used by the package itself, outside
    # its own definition (docstring and doctests included), or shown in a
    # README python block; tests alone do not keep an export alive
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "rifclark").glob("*.py"))
             if path.name != "__init__.py"}
    own = {node.name: (path, node.lineno, node.end_lineno)
           for path, tree in trees.items() for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set(re.findall(r"\w+", "\n".join(_readme_blocks())))
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                where = own.get(name)
                if where is None or where[0] != path or not where[1] <= node.lineno <= where[2]:
                    used.add(name)
    assert sorted(set(rifclark.__all__) - used - {"__version__"}) == []
