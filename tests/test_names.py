"""Every global name a function or class body uses is bound in its module,
and every name a module imports is used.

A name that is used inside a function but never imported or defined at
module level only fails when that function runs, as a ``NameError``.  This
check finds such names statically with the standard library's ``symtable``:
for every module of the package, each name that a nested scope resolves to
the module's globals must be assigned, imported or defined at module level,
or be a builtin.

The converse, an import left behind when the code that used it was
deleted, is found with the standard library's ``ast``: each name a
module-level import binds must be read somewhere in the module.  An import
marked ``noqa: F401``, as the package's re-exports are, is exempt.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from collections.abc import Iterator
from pathlib import Path

import pytest

import complicial

PACKAGE_DIR = Path(complicial.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _global_references(table: symtable.SymbolTable) -> Iterator[tuple[str, str]]:
    """Yield (scope name, name) for each global name used in a nested scope."""
    for child in table.get_children():
        for sym in child.get_symbols():
            if sym.is_referenced() and sym.is_global():
                yield child.get_name(), sym.get_name()
        yield from _global_references(child)


def undefined_names(source: str, filename: str) -> list[tuple[str, str]]:
    """(scope name, name) pairs whose global name nothing binds or provides."""
    top = symtable.symtable(source, filename, "exec")
    known = set(dir(builtins)) | {
        sym.get_name() for sym in top.get_symbols()
        if sym.is_assigned() or sym.is_imported() or sym.is_namespace()
    }
    return sorted({
        (scope, name) for scope, name in _global_references(top)
        if name not in known
    })


def unused_imports(source: str, filename: str) -> list[str]:
    """The names that module-level imports bind and the module never reads.

    A name counts as read when it is loaded anywhere in the module, or is
    the root of a dotted name in a string annotation.
    """
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        line = lines[node.lineno - 1]
        if "noqa:" in line and "F401" in line:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(name for name in bound if name not in read)


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"adapters.py", "homotopy.py", "core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_undefined_global_names(path):
    assert undefined_names(path.read_text(), str(path)) == []


def test_detects_a_missing_import():
    source = (
        "from dataclasses import dataclass\n"
        "def f(x):\n"
        "    return replace(x, y=1)\n"
        "class K:\n"
        "    attr = missing_name\n"
        "    def g(self):\n"
        "        return [dataclass(v) for v in also_missing]\n"
    )
    assert undefined_names(source, "<example>") == [
        ("K", "missing_name"), ("f", "replace"), ("g", "also_missing"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), str(path)) == []


def test_detects_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, compress as pick\n"
        "from typing import Sequence\n"
        "from .core import Row  # noqa: F401\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return pick(x, x)\n"
    )
    assert unused_imports(source, "<example>") == ["chain", "os"]
