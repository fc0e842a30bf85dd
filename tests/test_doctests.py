"""Run the docstring examples of every module in the cellspec package, so
that a module gains doctest coverage as soon as it has an example, and the
README quick tour."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import cellspec

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(cellspec.__path__, "cellspec.")
)


@pytest.mark.parametrize("name", ["cellspec", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_every_module_is_collected():
    assert {"cellspec.based_algebra", "cellspec.cli", "cellspec.dihedral"} <= set(MODULES)


def test_readme_quick_tour():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
