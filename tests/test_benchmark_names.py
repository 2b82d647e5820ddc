"""The names the benchmark reads from the package must exist.

`perfbench/tracing.py` wraps its targets by name and skips one that is gone,
so a deleted target would read as a layer that costs nothing; the benchmark's
scripts import the rest by name.  These tests read both without running the
benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    # tracing.py imports only the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, path):
    owner = importlib.import_module(f"mullergames.{module_name}")
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def package_names(tree):
    """(module, attribute) for every name a script reads from `mullergames`:
    `from mullergames.x import a`, and `m.a` where `m` is bound to a package
    module by `import mullergames.x as m` or `from mullergames import m`."""
    modules = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mullergames.") and alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "mullergames":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"mullergames.{alias.name}"
            elif node.module.startswith("mullergames."):
                names.extend((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.append((modules[node.value.id], node.attr))
    return names


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [(m, a) for m, a, _ in tracing.SPANNED] + list(tracing.AGGREGATED)
    assert targets
    missing = [f"{m}.{a}" for m, a in targets if not resolves(m, a)]
    assert missing == []


def test_every_name_the_benchmark_imports_exists():
    read = []
    for path in sorted(PERFBENCH.glob("*.py")):
        read.extend(package_names(ast.parse(path.read_text(encoding="utf-8"))))
    # worker.py's `automata.` and `construction.` attributes are among them.
    assert ("mullergames.construction", "build_gfg_rabin") in read
    assert ("mullergames.automata", "hoa_signature") in read
    missing = [
        f"{module}.{name}"
        for module, name in read
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
