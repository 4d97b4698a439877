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
    # A public function, class or method whose name occurs nowhere but in
    # its own definition is code that nothing runs.
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
    public = []
    for module in modules:
        for node in module.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                public.append(node.name)
            if isinstance(node, ast.ClassDef):
                public += [m.name for m in node.body if isinstance(m, functions)]
    unused = sorted({name for name in public
                     if not name.startswith("_") and words[name] <= definitions[name]})
    assert unused == []
