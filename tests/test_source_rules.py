"""Rules every module of the package keeps, read from its source.

An `assert` vanishes under `python -O`, and an `AssertionError` escapes the
CLI's error handling as a traceback with exit code 1.  Internal faults raise
the typed error of their stage instead, with a message that starts with
"internal:".  A module imports only names it reads, so an import left
behind when code moves out of the package is caught.  And every function
the package defines is named by the package, the benchmark's scripts or
the CI workflow, so a helper that only the tests call lives in the tests.
Only `cli.main` writes stdout and stderr, and the CLI reads no private
attribute of the library.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mullergames"


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


def function_definitions(tree):
    """(qualified name, def node, enclosing class or None) of every function
    and method a module defines, nested ones included."""
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child, owner))
                visit(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return found


def names_read(tree):
    """Every identifier a tree reads: names, attributes and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def unnamed_functions(package, others):
    """`module: qualified name` of every function or method defined in the
    package that no code of the package names outside its own body and no
    text in `others` names as a word; dunders and the methods of classes
    that the package's `__init__.py` exports are skipped.  By name: a method
    that shares its name with one that is read counts as read."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = set(names_read(init))
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    read = collections.Counter(name for tree in trees.values() for name in names_read(tree))
    found = []
    for module, tree in trees.items():
        for qualified, node, owner in function_definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or owner in exported:
                continue
            if read[name] > names_read(node).count(name):
                continue
            if not any(re.search(rf"\b{name}\b", text) for text in others):
                found.append(f"{module}: {qualified}")
    return found


def test_every_function_is_named_outside_the_tests(tmp_path):
    sample = (
        "class Kept:\n    def quiet(self): ...\n"
        "class Other:\n    def loud(self): ...\n    def helper(self): self.helper()\n"
        "def used(): ...\ndef spoken(): ...\ndef dead():\n    def inner(): ...\n    inner()\n"
        "used()\n"
    )
    (tmp_path / "__init__.py").write_text("from .m import Kept\n", encoding="utf-8")
    (tmp_path / "m.py").write_text(sample, encoding="utf-8")
    assert unnamed_functions(tmp_path, ["spoken()"]) == [
        "m.py: Other.loud",
        "m.py: Other.helper",
        "m.py: dead",
    ]
    others = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others.append((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    assert unnamed_functions(PACKAGE, others) == []


def stream_sites(tree):
    """(line, name) of every read of `print`, `sys.stdout` and `sys.stderr`."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            sites.append((node.lineno, "print"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            sites.append((node.lineno, f"sys.{node.attr}"))
    return sorted(sites)


def test_only_cli_main_writes_stdout_and_stderr():
    """Every command returns its stdout text and `main` writes it, so a
    failed command leaves stdout empty and one `error:` line on stderr."""
    sample = "import sys\nprint(1)\nsys.stderr.write('x')\nsys.exit(sys.stdout)\n"
    expected = [(2, "print"), (3, "sys.stderr"), (4, "sys.stdout")]
    assert stream_sites(ast.parse(sample)) == expected
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in stream_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for name, node, _ in function_definitions(cli) if name == "main")
    in_main = [f"cli.py:{line}: {name}" for line, name in stream_sites(main)]
    assert len(in_main) >= 2
    assert found == in_main


def private_reads(tree):
    """(line, attribute) of every read of a `_`-prefixed attribute that is
    not a dunder."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]


def test_cli_reads_no_private_attribute():
    """The CLI uses the library through its public names only."""
    sample = "x._hidden()\nx.__class__\nx.shown\n_local()\n"
    assert private_reads(ast.parse(sample)) == [(1, "_hidden")]
    assert private_reads(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))) == []
