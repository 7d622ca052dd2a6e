import doctest
import importlib
import pkgutil

import lrflags


def test_module_doctests():
    names = ["lrflags", *(f"lrflags.{info.name}" for info in pkgutil.iter_modules(lrflags.__path__))]
    assert {"lrflags.cli", "lrflags.filtered", "lrflags.polynomials"} <= set(names)
    for name in names:
        failures, _ = doctest.testmod(importlib.import_module(name), verbose=False)
        assert failures == 0, name
