import ast
import collections
import importlib
import pathlib
import re

import pytest
import setuptools

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_find_packages_sees_flashcrowd():
    # The [tool.setuptools.packages.find] config in pyproject.toml.
    assert "flashcrowd" in setuptools.find_packages(where=str(SRC))


def test_no_dependency_names_numba():
    # Every kernel is plain Python or numpy; nothing installs a compiler.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return {re.split(r"[<>=!~ \[;]", r, maxsplit=1)[0].lower() for r in reqs}

    assert "numba" not in names(project["dependencies"])
    for extra, reqs in project.get("optional-dependencies", {}).items():
        assert "numba" not in names(reqs), extra


def test_declared_scripts_resolve():
    # An entry point whose module or function is missing installs a script
    # that fails on every call.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in {**project.get("scripts", {}), **project.get("gui-scripts", {})}.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_public_name_has_a_reference():
    # A module-level function or class, or a method, whose name occurs
    # nowhere but in its own definition is code that nothing runs. Private
    # names count too; dunders are called by the language.
    words = collections.Counter()
    for tree in ("src", "bench", "tests"):
        for path in (ROOT / tree).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    modules = [ast.parse(path.read_text()) for path in sorted((SRC / "flashcrowd").glob("*.py"))]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions = collections.Counter(
        node.name
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, (*functions, ast.ClassDef))
    )
    defined = []
    for module in modules:
        for node in module.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [m.name for m in node.body if isinstance(m, functions)]
    unused = sorted({name for name in defined
                     if not re.fullmatch(r"__\w+__", name) and words[name] <= definitions[name]})
    assert unused == []


def test_every_import_is_used():
    # A name that a module imports and never mentions outside its import
    # statements is a dependency that nothing needs.
    unused = []
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        text = path.read_text()
        imports = [node for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        lines = text.splitlines()
        for node in imports:
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
        words = collections.Counter(re.findall(r"\w+", "\n".join(lines)))
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if not words[name]:
                    unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == [], unused
