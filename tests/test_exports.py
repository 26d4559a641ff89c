"""Every contactcurves module exports exactly the names it defines and uses
every name it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _imported_names(tree, lines):
    """(name, line) bound by each import of a module, except marked ones."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # no linter runs on the package: an import is read by the module's code,
    # exported through __all__, or marked "# noqa: F401"
    module = importlib.import_module(name)
    source = Path(module.__file__).read_text()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{bound} (line {line})"
              for bound, line in _imported_names(tree, source.splitlines())
              if bound not in read and bound not in module.__all__]
    assert not unused, f"{name} imports names it never uses: {unused}"
