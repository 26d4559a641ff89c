"""Every contactcurves module exports exactly the names it defines."""

import importlib
import pkgutil

import pytest

import contactcurves

MODULES = ["contactcurves"] + [
    f"contactcurves.{info.name}"
    for info in pkgutil.iter_modules(contactcurves.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1)
    # a star import raises AttributeError on a name that does not resolve,
    # and imports the package's submodules that __all__ lists
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
