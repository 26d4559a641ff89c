"""Every contactcurves module exports exactly the names it defines and uses
every name it imports, and src reads every private definition."""

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


def _private_definitions_and_reads(tree):
    """Private functions, classes and methods of a module, and every name
    the module reads, each read with the definitions that enclose it."""
    defs, reads = [], []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defs.append(node)
            enclosing = enclosing | {id(node)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defs, reads


def test_every_private_definition_is_read():
    # no linter runs on the package: a function, class or method whose name
    # starts with one underscore is read somewhere in src outside its own body
    defs, reads = [], []
    for name in MODULES:
        path = Path(importlib.import_module(name).__file__)
        module_defs, module_reads = _private_definitions_and_reads(
            ast.parse(path.read_text()))
        defs += [(path.name, node) for node in module_defs]
        reads += module_reads
    unread = [f"{file}:{node.lineno} {node.name}" for file, node in defs
              if not any(read == node.name and id(node) not in enclosing
                         for read, enclosing in reads)]
    assert not unread, f"private definitions nothing reads: {unread}"
