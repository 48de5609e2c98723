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
    # mc imports concurrent.futures, and with it logging, only when it samples;
    # a bare import loads no submodule, so no numpy either
    code = (
        "import sys, signcorr; "
        "print(sorted({'concurrent.futures', 'logging', 'numpy'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_star_import_binds_each_submodule_name():
    namespace = {}
    exec("from signcorr import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert len(names) == len(signcorr.__all__) == 34
    assert namespace["__version__"] == signcorr.__version__
    for module in SUBMODULES:
        mod = importlib.import_module(f"signcorr.{module}")
        for name in mod.__all__:
            assert namespace[name] is getattr(mod, name), f"{module}.{name}"


def test_submodules_resolve_after_bare_import():
    # tests patch through these attributes, as in signcorr.quad._BLOCK
    code = (
        "import sys, signcorr\n"
        f"for m in {SUBMODULES}:\n"
        "    assert getattr(signcorr, m) is sys.modules['signcorr.' + m], m\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# (module, name, layer): the names the traced benchmark run rebinds, as
# listed in bench/spans.py's NESTED; each must stay bound to its layer's
# function, even where the module itself no longer calls it
TRACED = (
    ("phi", "bessel_j0", "specfun"),
    ("phi", "integrate_1d", "quad"),
    ("phi", "integrate_2d", "quad"),
    ("series", "integrate_1d", "quad"),
    ("series", "hermite_prob", "specfun"),
    ("mc", "hermite_prob", "specfun"),
)


@pytest.mark.parametrize("module,name,layer", TRACED)
def test_traced_names_are_the_layer_functions(module, name, layer):
    bound = getattr(importlib.import_module(f"signcorr.{module}"), name)
    assert bound is getattr(importlib.import_module(f"signcorr.{layer}"), name)
