"""Rules every module of the package keeps, read from its source.

An `assert` vanishes under `python -O`, and an `AssertionError` escapes the
CLI's error handling as a traceback with exit code 1.  Internal faults raise
the typed error of their stage instead, with a message that starts with
"internal:".  And a module imports only names it reads, so an import left
behind when code moves out of the package is caught.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mullergames"


def assertion_sites(tree):
    """(line, kind) of every `assert` and every `raise AssertionError`."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            sites.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                sites.append((node.lineno, "raise AssertionError"))
    return sites


def test_no_module_asserts():
    sample = "assert x\nraise AssertionError('no')\nraise AssertionError\nraise ValueError\n"
    assert assertion_sites(ast.parse(sample)) == [
        (1, "assert"),
        (2, "raise AssertionError"),
        (3, "raise AssertionError"),
    ]
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{line}: {kind}"
        for path in modules
        for line, kind in assertion_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def unused_imports(tree):
    """(line, name) of every name an import binds that the module never
    reads; `from __future__` imports are skipped."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_imports():
    sample = "from __future__ import annotations\nimport os, re as r\nfrom x import a, b\n"
    sample += "print(os, a)\n"
    assert unused_imports(ast.parse(sample)) == [(2, "r"), (3, "b")]
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 8
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
