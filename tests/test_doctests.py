"""The examples in the module docstrings run and pass.

The modules are found by scanning src/hfpss/*.py for ">>>", so an example
in a new module or docstring is run without being listed here.
"""

import doctest
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hfpss"
WITH_EXAMPLES = sorted(path.stem for path in SRC.glob("*.py")
                       if ">>>" in path.read_text(encoding="utf-8"))


def test_examples_are_found():
    assert {"assembly", "modules", "monomials"} <= set(WITH_EXAMPLES), WITH_EXAMPLES


@pytest.mark.parametrize("name", WITH_EXAMPLES, ids=lambda name: f"hfpss.{name}")
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"hfpss.{name}"))
    assert result.attempted > 0 and result.failed == 0, result
