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


def _annotated_class(node, classes):
    """The package class an annotation names, also as a string, or None."""
    name = node.value if isinstance(node, ast.Constant) else getattr(node, "id", None)
    return name if name in classes else None


def _method_reads() -> set:
    """(class, name) of every attribute the package reads, class None where
    the receiver's class is not known, plus (None, word) for the words of
    the README's python blocks.  The class is known for a class name, for
    self, for a parameter annotated with a class and for self.field where
    the class annotates field; a class body's own names, as in
    __call__ = eval, are read on the class.  A read inside the function of
    the same name, on its own class or an unknown one, is not a caller."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "rifclark").glob("*.py"))
             if path.name != "__init__.py"]
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reads = {(None, word) for word in re.findall(r"\w+", "\n".join(_readme_blocks()))}
    for tree in trees:
        scopes = [(None, [n for n in tree.body if not isinstance(n, ast.ClassDef)])]
        scopes += [(n.name, n.body) for n in tree.body if isinstance(n, ast.ClassDef)]
        for owner, body in scopes:
            fields = {n.target.id: _annotated_class(n.annotation, classes) for n in body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
            for stmt in body:
                fn = stmt.name if isinstance(stmt, ast.FunctionDef) else None
                args = stmt.args.posonlyargs + stmt.args.args if fn else []
                known = {a.arg: _annotated_class(a.annotation, classes)
                         for a in args if a.annotation}
                this = args[0].arg if owner and args else None
                if this:
                    known[this] = owner
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and owner and not fn:
                        reads.add((owner, node.id))
                    if not isinstance(node, ast.Attribute):
                        continue
                    recv = node.value
                    of = None
                    if isinstance(recv, ast.Name):
                        of = known.get(recv.id) or (recv.id if recv.id in classes else None)
                    elif (isinstance(recv, ast.Attribute) and isinstance(recv.value, ast.Name)
                          and recv.value.id == this):
                        of = fields.get(recv.attr)
                    if not (node.attr == fn and of in (None, owner)):
                        reads.add((of, node.attr))
    return reads


def test_every_public_method_has_a_caller():
    # the rule above for the public methods of the exported classes, read
    # per class where the receiver's class is known; TrigPoly.circle_zeros
    # stays because the benchmark's traced run wraps it by name
    reads = _method_reads()
    unused = [name for name, _ in _public_callables() if "." in name
              and not {(None, name.split(".")[1]), tuple(name.split("."))} & reads]
    assert unused == ["TrigPoly.circle_zeros"]

