"""Per-layer spans taken from outside the program.

`install` replaces the program's public functions with timing wrappers on
every `mullergames` module attribute that refers to them, so calls made
through `from .x import f` bindings are seen too, and nested calls become
child spans.  Nothing inside the program changes.

Functions called once per item or so get one span per call.  Methods called
hundreds of thousands of times per run are aggregated per parent span into a
call count and a busy time instead.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, size counters read from the return value)
SPANNED = [
    ("zielonka", "build_zielonka", lambda t: {
        "zielonka.tree_nodes": len(t), "zielonka.tree_leaves": len(t.leaves()), "zielonka.memtree": t.memtree()}),
    ("construction", "build_gfg_rabin", lambda g: {
        "construction.gfg_states": len(g.automaton.states),
        "construction.gfg_transitions": len(g.automaton.transitions),
        "construction.gfg_pairs": len(g.automaton.acceptance.pairs)}),
    ("construction", "build_parity_automaton", lambda a: {"construction.parity_states": len(a.states)}),
    ("automata", "export_hoa", lambda text: {"automata.hoa_bytes": len(text)}),
    ("automata", "parse_hoa", None),
    ("games", "solve_muller_game", None),
    ("games", "product_with_automaton", lambda p: {
        "games.product_vertices": len(p.game.vertices), "games.product_edges": len(p.game.edges)}),
    ("games", "solve_parity_game", None),
    ("games", "positional_rabin_strategy", None),
    ("games", "memory_from_gfg", lambda m: {"games.memory_states": m.size}),
    ("games", "verify_strategy", None),
    ("games", "is_chromatic", None),
    ("succinctness", "succinctness_report", None),
]
AGGREGATED = [
    ("zielonka", "ZielonkaTree.step"),
    ("construction", "resolve_run"),
    ("automata", "RabinLassoChecker.accepts"),
    ("automata", "run_deterministic"),
]
ROOT = "cli"


class Tracer:
    """Spans of the current item, kept in memory until the run ends."""

    def __init__(self):
        self.item = None
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.stack: list[int] = []
        self.aggregate_depth = 0
        # (parent span index, name, nested in another aggregated call) -> [calls, busy]
        self.aggregates: dict[tuple, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [name, perf_counter(), None, parent, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    def begin_item(self, item_id: str) -> None:
        self.item = item_id
        self.aggregate_depth = 0
        self._root = self.open(ROOT)

    def end_item(self) -> None:
        # A time-limit interrupt can land between a wrapper's open and close;
        # every span still open ends with the item.
        end = perf_counter()
        for index in self.stack:
            if self.spans[index][2] is None:
                self.spans[index][2] = end
        self.stack.clear()
        self.item = None

    def spanned(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if count is not None:
                for key, value in count(result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def aggregated(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            key = (self.stack[-1], name, self.aggregate_depth > 0)
            self.aggregate_depth += 1
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self.aggregate_depth -= 1
                slot = self.aggregates.get(key)
                if slot is None:
                    slot = self.aggregates[key] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "item": item}) + "\n")
            for (parent, name, nested), (calls, busy) in self.aggregates.items():
                handle.write(json.dumps({"name": name, "parent": parent, "nested": nested, "calls": calls, "busy": busy}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Layer totals: busy and self time per span name, call counts, and counters."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        for (parent, name, nested), (count, elapsed) in self.aggregates.items():
            calls[name] += count
            busy[name] += elapsed
            if not nested:
                child_time[parent] += elapsed
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            busy[name] += end - start
        out: dict[str, float] = {}
        for module, attr, _ in SPANNED:
            name = f"{module}.{attr}"
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.calls"] = calls[name]
        for module, attr in AGGREGATED:
            name = f"{module}.{attr}"
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counters)
        out[f"{ROOT}.self_s"] = self_time[ROOT]
        solves = calls["games.solve_muller_game"]
        out["games.exist_win_share"] = calls["games.memory_from_gfg"] / solves if solves else 0.0
        out["trace.spans"] = len(self.spans)
        return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, getattr(owner, parts[-1])


def install(tracer: Tracer) -> None:
    """Wrap every target on each program module attribute bound to it.

    A target the program no longer defines is skipped and named in
    `tracer.missing`, so its metrics read 0 instead of the run failing.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "mullergames" or n.startswith("mullergames.")]
    targets = [(m, a, c, True) for m, a, c in SPANNED] + [(m, a, None, False) for m, a in AGGREGATED]
    for module_name, path, count, is_span in targets:
        module = sys.modules.get(f"mullergames.{module_name}")
        owner, original = _resolve(module, path) if module is not None else (None, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        name = f"{module_name}.{path}"
        wrapper = tracer.spanned(name, original, count) if is_span else tracer.aggregated(name, original)
        if isinstance(owner, type):
            setattr(owner, path.split(".")[-1], wrapper)
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
