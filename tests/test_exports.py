"""Every name the package and its modules export resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_package_runs_without_loading_scipy():
    # scipy is only the tests' oracle; a CLI process pays nothing for it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, emgtcn; from emgtcn import cli; cli.main(['params']); "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
