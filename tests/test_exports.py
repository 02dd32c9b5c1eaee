"""Every name a module of the package exports in `__all__` exists on it: a
stale entry does not fail at import, only at `from isdkit.x import *`."""

import importlib
import pkgutil

import pytest

import isdkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(isdkit.__path__, "isdkit."))


def test_every_module_is_checked():
    assert "isdkit.pipeline" in MODULES and "isdkit.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
