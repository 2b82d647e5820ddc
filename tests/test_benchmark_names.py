"""The names the benchmark reads from the package must exist.

`perfbench/tracing.py` wraps its targets by name and skips one that is gone,
so a deleted target would read as a layer that costs nothing; the benchmark's
scripts import the rest by name.  These tests read both without running the
benchmark, and run the attributes it reads off results: the traced run's
size probes and `record.py`'s winner.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from mullergames.automata import export_hoa
from mullergames.conditions import condition_from_dict
from mullergames.construction import build_gfg_rabin, build_parity_automaton
from mullergames.games import game_from_dict, memory_from_gfg, product_with_automaton
from mullergames.zielonka import build_zielonka

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


RUNNING = {"alphabet": ["a", "b", "c"], "accepting": [["a", "b"], ["a", "c"], ["b"]]}


def one_vertex_game(owner, letters):
    return {
        "vertices": [{"name": "v", "owner": owner}],
        "edges": [{"src": "v", "colour": a, "dst": "v"} for a in letters],
        "initial": "v",
    }


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


def test_every_size_probe_reads_its_targets_result():
    # Only the benchmark's traced run calls these probes; each one reads
    # attributes off what its target returns on the running example.
    condition = condition_from_dict(RUNNING)
    game = game_from_dict(one_vertex_game("Exist", "abc"), condition)
    results = {
        "zielonka.build_zielonka": lambda: build_zielonka(condition),
        "construction.build_gfg_rabin": lambda: build_gfg_rabin(condition),
        "construction.build_parity_automaton": lambda: build_parity_automaton(condition),
        "automata.export_hoa": lambda: export_hoa(build_parity_automaton(condition)),
        "games.product_with_automaton": lambda: product_with_automaton(
            game, build_parity_automaton(condition)
        ),
        "games.memory_from_gfg": lambda: memory_from_gfg(game, build_gfg_rabin(condition)),
    }
    probed = []
    for module, attr, count in load_tracing().SPANNED:
        if count is None:
            continue
        name = f"{module}.{attr}"
        sizes = count(results[name]())
        assert sizes and all(key.startswith(f"{module}.") for key in sizes), name
        assert all(type(value) is int and value > 0 for value in sizes.values()), (name, sizes)
        probed.append(name)
    assert sorted(probed) == sorted(results)


def test_record_reads_the_winner_off_a_parity_solution(monkeypatch):
    # record.py imports its sibling scripts by their bare names.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {name: sys.modules.get(name) for name in ("worker", "instances")}
    try:
        spec = importlib.util.spec_from_file_location("perfbench_record", PERFBENCH / "record.py")
        record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(record)
        assert record.parity_winner(one_vertex_game("Univ", "c"), RUNNING) == "Univ"
        assert record.parity_winner(one_vertex_game("Univ", "b"), RUNNING) == "Exist"
    finally:
        for name, module in loaded.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
