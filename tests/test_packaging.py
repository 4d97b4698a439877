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


def test_numba_is_an_optional_extra():
    # Only the beta sampler uses numba, and it falls back to plain Python.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return {re.split(r"[<>=!~ \[;]", r, maxsplit=1)[0].lower() for r in reqs}

    assert "numba" not in names(project["dependencies"])
    assert "numba" in names(project["optional-dependencies"]["fast"])


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
