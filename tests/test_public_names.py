"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import modeguide

MODULES = sorted(f"modeguide.{m.name}" for m in pkgutil.iter_modules(modeguide.__path__)
                 if m.name != "__main__")


def test_every_module_is_listed():
    assert "modeguide.matching" in MODULES and "modeguide.solve" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
