"""Run every docstring example in the package and the README as a test."""

import doctest
import importlib
from pathlib import Path

import pytest

MODULES = [
    "pipedreams.perm",
    "pipedreams.poly",
    "pipedreams.pipedream",
    "pipedreams.bumpless",
    "pipedreams.bijection",
    "pipedreams.monk",
    "pipedreams.verify",
    "pipedreams.render",
    "pipedreams.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
