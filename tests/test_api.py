"""The public surface: every exported name resolves, and the package
re-exports each submodule's public names."""

import importlib
import subprocess
import sys

import pytest

import signcorr

SUBMODULES = ("specfun", "quad", "phi", "series", "mc", "optimize")


def test_all_names_resolve():
    assert len(signcorr.__all__) == len(set(signcorr.__all__))
    for name in signcorr.__all__:
        assert hasattr(signcorr, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_names_reexported(module):
    mod = importlib.import_module(f"signcorr.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"
        assert name in signcorr.__all__, f"{module}.{name}"
        assert getattr(signcorr, name) is getattr(mod, name)


def test_import_loads_no_thread_pool():
    # mc imports concurrent.futures, and with it logging, only when it samples
    code = (
        "import sys, signcorr; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
