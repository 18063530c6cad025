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
marked ``noqa: F401``, as the package's re-exports are, is exempt.  Both
checks run on the test modules too, and ``tests/reference.py`` takes from
the package only what makes inputs (:func:`engine_uses`).
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
TESTS_DIR = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
CHECKED = MODULES + sorted(TESTS_DIR.glob("*.py"))


def module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE_DIR else f"tests/{path.name}"


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
            except (SyntaxError, UnicodeEncodeError):
                continue
            read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(name for name in bound if name not in read)


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"adapters.py", "homotopy.py", "core.py"}
    assert {"tests/conftest.py", "tests/reference.py"} <= set(map(
        module_id, CHECKED))


@pytest.mark.parametrize("path", CHECKED, ids=module_id)
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


@pytest.mark.parametrize("path", CHECKED, ids=module_id)
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


# -- the reference engine stays independent -----------------------------------

INPUT_MAKERS = {"build_sset", "make_stratified", "SimplexId", "errors"}
ENGINE_ONLY = {"act", "apply_monotone", "face_index"}


def engine_uses(source: str, filename: str) -> list[str]:
    """What a module takes from the package beyond the input makers: the
    other names and modules it imports from ``complicial``, and the
    attributes it reads that are private or in ``ENGINE_ONLY``."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "complicial":
            found.update(alias.name for alias in node.names
                         if node.module != "complicial"
                         or alias.name not in INPUT_MAKERS)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "complicial")
        elif isinstance(node, ast.Attribute) and (
                node.attr in ENGINE_ONLY or node.attr.startswith("_")):
            found.add(node.attr)
    return sorted(found)


def test_the_reference_takes_only_input_makers_from_the_package():
    path = TESTS_DIR / "reference.py"
    assert engine_uses(path.read_text(), str(path)) == []


def test_detects_what_the_reference_must_not_use():
    source = (
        "import complicial.lifting\n"
        "from complicial import build_sset, nerve, errors\n"
        "from complicial.core import _sset\n"
        "def f(u, x):\n"
        "    return u.act(1, [0], [0]), x._thin_idx, u.faces.__getitem__\n"
    )
    assert engine_uses(source, "<example>") == [
        "__getitem__", "_sset", "_thin_idx", "act", "complicial.lifting",
        "nerve"]
