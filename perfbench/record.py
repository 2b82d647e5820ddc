"""Record the benchmark's instance pool and the outputs expected of it.

Run from the repository root:  PYTHONHASHSEED=0 python3 perfbench/record.py

This writes `perfbench/pool.json`.  The benchmark never runs it: the pool
and its expected outputs stay fixed so that later versions of the program
are checked against them.  Re-record only when the pool's design changes,
and then compare the recorded winners against `selftest.py`'s brute-force
oracle.  Expected outputs come from the program at the time of recording;
solve winners of games whose extraction never finishes come from the
parity-product decision alone.

Solve entries carry the time their item took when recorded (`cost_s`),
for reference only.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

import worker  # puts the program on sys.path and provides run_item
from instances import (
    POOL_PATH,
    RUNNING_EXAMPLE,
    WORKLOADS,
    digest,
    fn_condition,
    random_condition,
    random_game,
)
from mullergames.automata import export_hoa
from mullergames.conditions import condition_from_dict
from mullergames.construction import build_gfg_rabin, build_parity_automaton
from mullergames.games import game_from_dict, product_with_automaton, solve_parity_game
from mullergames.succinctness import succinctness_report
from mullergames.zielonka import build_zielonka

WORK = os.path.join(".perfbench", "record")


def sha_text(text: str) -> str:
    return worker._sha(text.encode())


def condition_facts(doc: dict, hoa: bool) -> dict:
    condition = condition_from_dict(doc)
    tree = build_zielonka(condition)
    facts = {"doc": doc, "nodes": len(tree), "leaves": len(tree.leaves()), "memtree": tree.memtree()}
    if hoa:
        gfg = build_gfg_rabin(condition).automaton
        facts["gfg_pairs"] = len(gfg.acceptance.pairs)
        facts["gfg_hoa_sha256"] = sha_text(export_hoa(gfg))
        facts["parity_hoa_sha256"] = sha_text(export_hoa(build_parity_automaton(condition)))
    return facts


def parity_winner(game_doc: dict, condition_doc: dict) -> str:
    condition = condition_from_dict(condition_doc)
    product = product_with_automaton(game_from_dict(game_doc, condition), build_parity_automaton(condition))
    return solve_parity_game(product.game).winners[product.game.initial]


def random_conditions(rng, letters: int, count: int, accept=lambda facts: True, hoa=True) -> list[dict]:
    out = []
    while len(out) < count:
        facts = condition_facts(random_condition(rng, letters), hoa)
        if accept(facts):
            out.append(facts)
    return sorted(out, key=lambda f: f["nodes"])


def timed_solve(game_doc: dict, cid: str, conditions: dict, limit: float):
    """(latency, status, winner, memory size) of `solve` on one game."""
    gfile, cfile = os.path.join(WORK, "game.json"), os.path.join(WORK, "condition.json")
    for path, doc in ((gfile, game_doc), (cfile, conditions[cid]["doc"])):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    item = {"id": "record", "steps": [["solve", "--game", gfile, "--condition", cfile]]}
    worker.reset_invocation_state()
    latency, status, steps = worker.run_item(item, limit, None)
    if status != "done":
        return latency, status, None, None
    fields = dict(line.split(": ", 1) for line in steps[0][1].strip().splitlines())
    memory = int(fields["memory size"]) if "memory size" in fields else None
    return latency, status, fields["winner"], memory


def solve_class(rng, cids, conditions, count, vertices, exist_share, winner, cap, known_timeout=False):
    """`count` games whose `solve` is won by `winner`.

    Finishing items must finish within `cap` seconds; with `known_timeout`,
    items must instead still run after `cap` seconds.
    """
    entries = []
    while len(entries) < count:
        cid = rng.choice(cids)
        recipe = {"seed": rng.randrange(1 << 30), "vertices": rng.randint(*vertices), "exist_share": exist_share}
        game = random_game(recipe["seed"], recipe["vertices"], conditions[cid]["doc"]["alphabet"], exist_share)
        if parity_winner(game, conditions[cid]["doc"]) != winner:
            continue
        latency, status, printed, memory = timed_solve(game, cid, conditions, cap)
        if known_timeout != (status == "timeout"):
            continue
        if not known_timeout and printed != winner:
            raise AssertionError(f"solve and the parity decision disagree on {recipe}")
        entries.append({
            "kind": "solve", "condition": cid, "game": recipe, "game_sha256": digest(game),
            "winner": winner, "memory": memory, "known_timeout": known_timeout,
            "cost_s": round(latency, 3),
        })
    entries.sort(key=lambda e: e["cost_s"])
    return entries


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    signal.signal(signal.SIGALRM, worker._on_alarm)
    rng = random.Random(20220422)
    conditions: dict[str, dict] = {}
    classes: dict[str, list] = {}

    def add(prefix: str, facts_list: list[dict]) -> list[str]:
        for k, facts in enumerate(facts_list):
            conditions[f"{prefix}{k}"] = facts
        return [f"{prefix}{k}" for k in range(len(facts_list))]

    # construct
    for n in range(4, 11):
        conditions[f"F{n}"] = dict(condition_facts(fn_condition(n), True), fn=n)
    classes["construct/fn"] = [{"kind": "construct", "condition": f"F{n}"} for n in range(4, 11)]
    for letters in (5, 6, 7):
        ids = add(f"c{letters}-", random_conditions(rng, letters, 2))
        classes[f"construct/random{letters}"] = [{"kind": "construct", "condition": c} for c in ids]
    classes["construct/succinctness"] = []
    for n in range(2, 11):
        row = succinctness_report(n)
        classes["construct/succinctness"].append(
            {"kind": "succinctness", "n": n, "row": [n, row.gfg_size, row.det_rabin_lower, row.det_parity_upper, row.method]})

    # certify
    conditions["running"] = condition_facts(RUNNING_EXAMPLE, True)
    classes["certify/running"] = [{"kind": "certify", "condition": "running", "bound": 4}]
    for letters, bound in ((4, 4), (5, 3)):
        ids = add(f"k{letters}-", random_conditions(rng, letters, 2))
        classes[f"certify/random{letters}"] = [{"kind": "certify", "condition": c, "bound": bound} for c in ids]

    # solve-arena: the running example and small 3-letter conditions
    arena_ids = ["running"] + add("a3-", random_conditions(rng, 3, 4, lambda f: f["nodes"] <= 7, hoa=False))
    limit = WORKLOADS["solve-arena"]["limit_s"]
    for winner in ("Exist", "Univ"):
        for size, bounds in (("small", (50, 100)), ("medium", (101, 200)), ("large", (201, 300))):
            classes[f"solve-arena/{winner.lower()}-{size}"] = solve_class(
                rng, arena_ids, conditions, 4, bounds, 0.5, winner, limit / 2)
            print(f"recorded solve-arena/{winner.lower()}-{size}", file=sys.stderr)

    # solve-wide: F_4, F_5 and 4-letter conditions with 12-19 tree nodes
    wide_ids = add("w4-", random_conditions(rng, 4, 8, lambda f: 12 <= f["nodes"] <= 19, hoa=False))
    limit = WORKLOADS["solve-wide"]["limit_s"]
    # (conditions, count, vertices, winner, cap, known timeout).  Exist games
    # over the random conditions are kept only when their extraction is cheap,
    # so that they form one cluster of similar latencies; heavier ones hit the
    # same 2^(tree nodes) wall that the F_5 item shows.
    wide = {
        "f4-exist": (["F4"], 2, (4, 8), "Exist", limit / 2, False),
        "f4-univ": (["F4"], 6, (4, 8), "Univ", limit / 2, False),
        # Extraction on F_5 runs into the 2^(tree nodes) Rabin cross-check and
        # does not finish; 4-vertex games let selftest.py confirm the winner.
        "f5-exist": (["F5"], 1, (4, 4), "Exist", 2 * limit, True),
        "f5-univ": (["F5"], 6, (4, 8), "Univ", limit / 2, False),
        "random-exist": (wide_ids, 6, (4, 8), "Exist", 0.25, False),
        "random-univ": (wide_ids, 12, (4, 8), "Univ", limit / 2, False),
    }
    for name, (cids, count, vertices, winner, cap, known_timeout) in wide.items():
        classes[f"solve-wide/{name}"] = solve_class(
            rng, cids, conditions, count, vertices, 0.7, winner, cap, known_timeout)
        print(f"recorded solve-wide/{name}", file=sys.stderr)

    for name, entries in classes.items():
        for k, entry in enumerate(entries):
            entry["id"] = f"{name.replace('/', '-')}-{k}"
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump({"conditions": conditions, "classes": classes}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"pool recorded in {time.perf_counter() - started:.0f} s", file=sys.stderr)
    sys.exit(code)
