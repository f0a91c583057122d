"""Every name the package and its modules export resolves."""

import importlib

import pytest

import emgtcn

_MODULES = [
    name for name in emgtcn.__all__ if hasattr(getattr(emgtcn, name), "__file__")
]


def test_package_exports_resolve():
    missing = [name for name in emgtcn.__all__ if not hasattr(emgtcn, name)]
    assert missing == []
    assert len(set(emgtcn.__all__)) == len(emgtcn.__all__)


@pytest.mark.parametrize("module", _MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"emgtcn.{module}")
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)
