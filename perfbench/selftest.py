"""The benchmark's own tests.

Run from the repository root:  python3 perfbench/selftest.py
(or `python3 -m pytest perfbench/selftest.py`).  They take about a minute
and are not part of the repository's test suite.

- The recorded winners of the 4-vertex solve-wide games over F_4 and F_5
  agree with the brute-force oracle, so the expected table does not rest
  only on the program agreeing with itself.
- Injected faults make items fail: a HOA file with one acceptance mark
  removed fails a `check` item, and a wrong recorded winner fails a solve
  item.  Both show in the run's failure count and in a non-zero exit.
- A traced run gives the same outputs as an untraced one.
- Without the program the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import instances  # noqa: E402
import run  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench", "selftest")


def _fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _run_benchmark(argv: list[str], corrupt) -> tuple[int, dict, str]:
    """run.main with `corrupt(items, work_dir)` applied to the generated items."""
    original = run.build_items

    def build_items(pool, workload, seed, work_dir):
        items = original(pool, workload, seed, work_dir)
        corrupt(items, work_dir)
        return items

    out = io.StringIO()
    run.build_items = build_items
    cwd = os.getcwd()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        os.chdir(cwd)
        run.build_items = original
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def test_recorded_winners_match_brute_force():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mullergames.conditions import condition_from_dict
    from mullergames.games import brute_force_winner, game_from_dict

    pool = instances.load_pool()
    checked = []
    for name, entries in pool["classes"].items():
        if not name.startswith("solve-wide/"):
            continue
        for entry in entries:
            # Over the random conditions (memtree up to 6) the oracle's search
            # takes minutes even on 4 vertices; F_4 and F_5 have memtree 2.
            if entry["game"]["vertices"] > 4 or entry["condition"] not in ("F4", "F5"):
                continue
            doc = pool["conditions"][entry["condition"]]["doc"]
            condition = condition_from_dict(doc)
            recipe = entry["game"]
            game = game_from_dict(
                instances.random_game(recipe["seed"], recipe["vertices"], doc["alphabet"], recipe["exist_share"]),
                condition,
            )
            assert brute_force_winner(game, condition) == entry["winner"], entry["id"]
            checked.append(entry["id"])
    # The known-timeout F_5 games have no other check of their recorded winner.
    assert "solve-wide-f5-exist-0" in checked and len(checked) >= 5, checked


def test_flipped_hoa_mark_fails_check_item():
    def corrupt(items, work_dir):
        item = next(i for i in items if i["id"] == "check-chain:running:4")
        condition, hoa = item["steps"][0][1], item["steps"][0][-1]
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from mullergames.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", condition, "--kind", "gfg-rabin", "--hoa", hoa]) == 0
        with open(hoa, encoding="utf-8") as handle:
            text = handle.read()
        # The b-loop of the running example loses its green mark, so (b)^w
        # is no longer accepted.
        bad = text.replace("] 0 {1 2}", "] 0 {2}", 1)
        assert bad != text
        bad_path = os.path.join(work_dir, "flipped.hoa")
        with open(bad_path, "w", encoding="utf-8") as handle:
            handle.write(bad)
        item["kind"] = "check"
        item["steps"] = [["check", condition, "--automaton", bad_path, "--bound", "4"]]
        item["outputs"] = []

    code, result, text = _run_benchmark(["--workload", "build", "--seed", "1", "--seconds", "1"], corrupt)
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1 and result["metrics"]["ok_ratio"]["value"] < 1
    assert "FAILED check-chain:running:4: exit code 1" in text


def test_wrong_winner_fails_solve_item():
    flipped = []

    def corrupt(items, work_dir):
        item = items[0]
        item["expect"]["winner"] = "Univ" if item["expect"]["winner"] == "Exist" else "Exist"
        flipped.append(item["id"])

    code, result, text = _run_benchmark(["--workload", "solve-arena", "--seed", "1", "--seconds", "1"], corrupt)
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1 and result["metrics"]["ok_ratio"]["value"] < 1
    assert f"FAILED {flipped[0]}: winner" in text


def test_traced_outputs_equal_untraced():
    code, result, text = _run_benchmark(
        ["--workload", "solve-arena", "--seed", "2", "--seconds", "2", "--trace", "1"], lambda items, work_dir: None
    )
    assert code == 0 and result["correct"]
    assert "traced outputs equal untraced: True" in text
    assert result["metrics"]["games.solve_parity_game.calls"]["value"] > 0


def test_exits_nonzero_without_the_program():
    bare = _fresh_dir("bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    shutil.rmtree(bare)


if __name__ == "__main__":
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL  {name}: {err}")
    sys.exit(1 if failures else 0)
