"""The public names of every catmap module import, and its doctests pass."""

import doctest
import importlib
import pkgutil

import pytest

import catmap

MODULES = sorted(
    f"catmap.{info.name}" for info in pkgutil.iter_modules(catmap.__path__)
) + ["catmap"]


@pytest.mark.parametrize("module", ["catmap.arith", "catmap.quadorder"])
def test_star_import_finds_every_name_in_all(module):
    names = {}
    exec(f"from {module} import *", names)
    assert set(importlib.import_module(module).__all__) <= set(names)


def test_every_module_passes_its_doctests():
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 2  # the `factorize` and `order_mod` examples
