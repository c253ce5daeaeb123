import importlib
import pkgutil

import pytest

import nash_horizon

MODULES = [importlib.import_module(f"nash_horizon.{m.name}")
           for m in pkgutil.iter_modules(nash_horizon.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__.rpartition(".")[2])
def test_every_exported_name_resolves(module):
    # a deleted function left in an export list breaks only
    # "from module import *"; cli has no export list
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
