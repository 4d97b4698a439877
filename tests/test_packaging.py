import pathlib

import setuptools

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_find_packages_sees_flashcrowd():
    # The [tool.setuptools.packages.find] config in pyproject.toml.
    assert "flashcrowd" in setuptools.find_packages(where=str(SRC))
