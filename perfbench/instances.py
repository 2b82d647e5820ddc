"""Seeded benchmark instances: generators, the recorded pool, and the item
lists of each workload.

The pool (`pool.json`, written by `record.py`) fixes every instance the
benchmark runs, together with the outputs the program must print for it.
A run's seed sets the order of the items, and the instance files are
generated from the pool's recipes.  This module imports nothing from the
program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")

RUNNING_EXAMPLE = {"alphabet": ["a", "b", "c"], "accepting": [["a", "b"], ["a", "c"], ["b"]]}

# Known succinctness rows (n -> GFG Rabin size, deterministic Rabin lower
# bound) stated by the paper's separation results.
KNOWN_SUCCINCTNESS = {4: (2, 4), 5: (2, 5), 6: (3, 6), 10: (5, 12)}

# Per workload: the per-item time limit; the time one pass over its items
# takes on a 2-core x86-64 cloud VM with Python 3.11, which sets how many
# passes a run of a given length makes; and the pool classes it uses.  Every
# item recorded in the pool finishes within half its limit or, if marked as
# a known timeout, still runs at twice the limit.
WORKLOADS = {
    "build": {
        "limit_s": 8.0,
        "pass_s": 7.6,
        "classes": ["construct/fn", "construct/random5", "construct/random6", "construct/random7",
                    "construct/succinctness", "certify/running", "certify/random4", "certify/random5"],
    },
    "solve-arena": {
        "limit_s": 4.0,
        "pass_s": 1.7,
        "classes": [f"solve-arena/{winner}-{size}" for winner in ("exist", "univ")
                    for size in ("small", "medium", "large")],
    },
    "solve-wide": {
        "limit_s": 4.0,
        "pass_s": 7.5,
        "classes": ["solve-wide/f4-exist", "solve-wide/f4-univ", "solve-wide/f5-exist", "solve-wide/f5-univ",
                    "solve-wide/random-exist", "solve-wide/random-univ"],
    },
}


# -- generators ---------------------------------------------------------------


def fn_condition(n: int) -> dict:
    """F_n: the Muller condition over {1..n} accepting exactly the half-size sets."""
    letters = [str(i) for i in range(1, n + 1)]
    return {"alphabet": letters, "accepting": [list(c) for c in itertools.combinations(letters, n // 2)]}


def random_condition(rng: random.Random, size: int) -> dict:
    """Each non-empty letter set is accepting with probability 1/2 (at least one is)."""
    letters = list("abcdefg"[:size])
    masks = [m for m in range(1, 1 << size) if rng.random() < 0.5]
    if not masks:
        masks = [rng.randrange(1, 1 << size)]
    return {
        "alphabet": letters,
        "accepting": [[x for i, x in enumerate(letters) if m >> i & 1] for m in masks],
    }


def random_game(seed: int, vertices: int, letters: list, exist_share: float) -> dict:
    """A game with out-degree 1-3 (mean 2) and about 5% silent edges.

    Silent edges only go from a vertex to a later one, so no cycle is silent.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(vertices)]
    doc_vertices = [
        {"name": v, "owner": "Exist" if rng.random() < exist_share else "Univ"} for v in names
    ]
    edges = []
    for i in range(vertices):
        seen = set()
        for _ in range(rng.choice((1, 2, 2, 3))):
            j = rng.randrange(vertices)
            colour = None if j > i and rng.random() < 0.05 else rng.choice(letters)
            if (j, colour) not in seen:
                seen.add((j, colour))
                edges.append({"src": names[i], "colour": colour, "dst": names[j]})
    return {"vertices": doc_vertices, "edges": edges, "initial": names[0]}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def lasso_count(letters: int, bound: int) -> int:
    """Lassos u v^omega with |u| <= 2 and 1 <= |v| <= bound, as `check` enumerates them."""
    return sum(letters**k for k in range(3)) * sum(letters**k for k in range(1, bound + 1))


# -- items --------------------------------------------------------------------


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def select(pool: dict, workload: str, seed: int) -> list[dict]:
    """The pool entries of `workload`, in the order the seed gives them.

    Every run of a workload uses the same instances: their costs differ
    too much for a seeded subset to keep run-to-run spreads small.
    """
    chosen = [entry for name in WORKLOADS[workload]["classes"] for entry in pool["classes"][name]]
    random.Random(f"{workload}:{seed}").shuffle(chosen)
    return chosen


def build_items(pool: dict, workload: str, seed: int, work_dir: str) -> list[dict]:
    """Write the instance files of one run into `work_dir` and return its items.

    An item is one CLI invocation or a fixed chain of them (`steps`), with
    the facts its output must show (`expect`).
    """
    conditions = pool["conditions"]
    items = []

    def facts(cid: str) -> dict:
        return {k: v for k, v in conditions[cid].items() if k != "doc"}

    def path(name: str) -> str:
        return os.path.join(work_dir, name)

    def condition_file(cid: str) -> str:
        target = path(f"{cid}.json")
        if not os.path.exists(target):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(conditions[cid]["doc"], handle)
        return target

    for entry in select(pool, workload, seed):
        kind = entry["kind"]
        if kind == "construct":
            cid = entry["condition"]
            expect = facts(cid)
            cfile = condition_file(cid)
            items.append({"id": f"zielonka:{cid}", "kind": "zielonka", "steps": [["zielonka", cfile]], "expect": expect})
            for automaton in ("gfg-rabin", "parity"):
                hoa = path(f"{cid}.{automaton}.hoa")
                items.append({
                    "id": f"build-{automaton}:{cid}",
                    "kind": f"build-{automaton}",
                    "steps": [["build", cfile, "--kind", automaton, "--hoa", hoa]],
                    "condition": cfile,
                    "outputs": [hoa],
                    "expect": expect,
                })
        elif kind == "succinctness":
            items.append({
                "id": f"succinctness:{entry['n']}",
                "kind": "succinctness",
                "steps": [["succinctness", "--n", str(entry["n"])]],
                "expect": entry,
            })
        elif kind == "certify":
            cid, bound = entry["condition"], entry["bound"]
            cfile = condition_file(cid)
            letters = len(conditions[cid]["doc"]["alphabet"])
            expect = dict(facts(cid), lassos=lasso_count(letters, bound))
            items.append({
                "id": f"check-self:{cid}:{bound}",
                "kind": "check",
                "steps": [["check", cfile, "--bound", str(bound)]],
                "expect": expect,
            })
            hoa = path(f"{cid}.chain.hoa")
            items.append({
                "id": f"check-chain:{cid}:{bound}",
                "kind": "check-chain",
                "steps": [
                    ["build", cfile, "--kind", "gfg-rabin", "--hoa", hoa],
                    ["check", cfile, "--automaton", hoa, "--bound", str(bound)],
                ],
                "outputs": [hoa],
                "expect": expect,
            })
        elif kind == "solve":
            cid = entry["condition"]
            cfile = condition_file(cid)
            letters = conditions[cid]["doc"]["alphabet"]
            recipe = entry["game"]
            game = random_game(recipe["seed"], recipe["vertices"], letters, recipe["exist_share"])
            if digest(game) != entry["game_sha256"]:
                raise RuntimeError(f"game generator drifted from the recorded pool ({entry['id']})")
            gfile = path(f"{entry['id']}.json")
            with open(gfile, "w", encoding="utf-8") as handle:
                json.dump(game, handle)
            argv = ["solve", "--game", gfile, "--condition", cfile]
            outputs = []
            if workload == "solve-arena":
                outputs = [path(f"{entry['id']}.memory.json")]
                argv += ["--memory-out", outputs[0]]
            items.append({
                "id": f"solve:{entry['id']}",
                "kind": "solve",
                "steps": [argv],
                "outputs": outputs,
                "expect": dict(entry, memtree=conditions[cid]["memtree"]),
            })
        else:
            raise ValueError(f"unknown pool entry kind {kind!r}")
    return items
