"""Numerical toolkit for sign-correlation functionals of Gaussian function
families: multi-method quadrature of the analytically continued correlation
integral, Taylor-coefficient extraction and series reversion, seeded Monte
Carlo cross-validation, and scalar optimization of the family parameter.

`import signcorr` loads no submodule, so it loads no numpy. The first access
to a public name, to `__all__` or to a submodule attribute loads the six
submodules and binds each one's `__all__` names here (PEP 562).
"""

__version__ = "1.0.0"

_SUBMODULES = ("specfun", "quad", "phi", "series", "mc", "optimize")


def __getattr__(name: str):
    # a private or dunder probe (copy, inspect, pickle) loads nothing
    if not name.startswith("_") or name == "__all__":
        from importlib import import_module

        names = ["__version__"]
        for sub in _SUBMODULES:
            mod = import_module(f"{__name__}.{sub}")
            globals().update((n, getattr(mod, n)) for n in mod.__all__)
            names += mod.__all__
        globals()["__all__"] = names
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
