"""The examples in the module docstrings run and pass."""

import doctest

import pytest

from hfpss import groupexpr, les, modules, monomials, scalars


@pytest.mark.parametrize("module", [monomials, groupexpr, les, modules, scalars],
                         ids=lambda mod: mod.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0, result
