"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import acring

MODULES = ["acring"] + [f"acring.{info.name}" for info in pkgutil.iter_modules(acring.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
