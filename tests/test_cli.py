import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mullergames.cli import main


@pytest.fixture
def condition_file(tmp_path):
    path = tmp_path / "running.json"
    path.write_text(
        json.dumps(
            {"alphabet": ["a", "b", "c"], "accepting": [["a", "b"], ["a", "c"], ["b"]]}
        )
    )
    return str(path)


def fn_file(tmp_path, n):
    from mullergames.conditions import condition_to_dict
    from mullergames.succinctness import condition_fn

    path = tmp_path / f"f{n}.json"
    path.write_text(json.dumps(condition_to_dict(condition_fn(n))))
    return str(path)


def test_cmd_zielonka(capsys, condition_file, tmp_path):
    dot = tmp_path / "tree.dot"
    assert main(["zielonka", condition_file, "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "memtree = 2" in out
    assert "n0    {a,b,c}        square" in out
    assert dot.read_text().startswith("digraph zielonka")


def test_cmd_zielonka_single_letter(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"alphabet": ["a"], "accepting": [["a"]]}))
    assert main(["zielonka", str(path)]) == 0
    assert "memtree = 1" in capsys.readouterr().out


def test_cmd_zielonka_f6(capsys, tmp_path):
    assert main(["zielonka", fn_file(tmp_path, 6)]) == 0
    assert "memtree = 3" in capsys.readouterr().out


def test_cmd_build_gfg(capsys, condition_file, tmp_path):
    hoa = tmp_path / "rf.hoa"
    prov = tmp_path / "prov.json"
    code = main(
        [
            "build",
            condition_file,
            "--kind",
            "gfg-rabin",
            "--hoa",
            str(hoa),
            "--provenance",
            str(prov),
        ]
    )
    assert code == 0
    assert "2 states, 2 Rabin pairs" in capsys.readouterr().out
    assert "acc-name: Rabin 2" in hoa.read_text()
    rows = json.loads(prov.read_text())
    assert len(rows) == 9
    assert {"src", "letter", "colour", "dst", "from_leaf", "witness", "to_leaf"} <= set(
        rows[0]
    )


# SHA-256 of `build --provenance`, recorded while the GFG builder still
# named every transition.
PROVENANCE_DIGESTS = {
    "running": "8bebcce8910aca3419511c3a65448667154bc97a187a32767ab5728214710382",
    6: "604857522fab780e38584e3e2c002bb1ed9122fcd4573800c8488ffb647e767d",
    8: "3117e71acdbc493a6310a7c99c04527ec89c6472cabc408796180d3af3253e79",
}


@pytest.mark.parametrize("name", ["running", 6, 8], ids=str)
def test_cmd_build_provenance_bytes_are_pinned(capsys, condition_file, tmp_path, name):
    path = condition_file if name == "running" else fn_file(tmp_path, name)
    prov = tmp_path / "prov.json"
    assert main(["build", path, "--kind", "gfg-rabin", "--provenance", str(prov)]) == 0
    assert hashlib.sha256(prov.read_bytes()).hexdigest() == PROVENANCE_DIGESTS[name]


@pytest.mark.parametrize("name", ["running", 6, 8], ids=str)
def test_cmd_build_simplify_provenance_bytes_are_pinned(capsys, condition_file, tmp_path, name):
    # The provenance document describes the unmerged automaton's
    # transitions, so `--simplify` writes the same bytes.
    path = condition_file if name == "running" else fn_file(tmp_path, name)
    prov = tmp_path / "prov.json"
    args = ["build", path, "--kind", "gfg-rabin", "--simplify", "--provenance", str(prov)]
    assert main(args) == 0
    assert hashlib.sha256(prov.read_bytes()).hexdigest() == PROVENANCE_DIGESTS[name]


def test_cmd_build_parity(capsys, condition_file):
    assert main(["build", condition_file, "--kind", "parity"]) == 0
    assert "3 states" in capsys.readouterr().out


def test_cmd_build_simplify(capsys, condition_file, tmp_path):
    dot = tmp_path / "rf.dot"
    code = main(
        ["build", condition_file, "--kind", "gfg-rabin", "--simplify", "--dot", str(dot)]
    )
    assert code == 0
    assert "2 states, 2 Rabin pairs" in capsys.readouterr().out
    assert dot.read_text().count(" -> ") == 7 + 1


def test_cmd_build_simplify_refuses_duplicated_edges(capsys, condition_file, monkeypatch):
    # The running example's GFG automaton has duplicated edges; a simplifier
    # that keeps them is an internal fault, reported as an error line.
    from mullergames.construction import GfgRabinAutomaton

    monkeypatch.setattr(GfgRabinAutomaton, "merged", property(lambda gfg: gfg.automaton))
    assert main(["build", condition_file, "--kind", "gfg-rabin", "--simplify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal:") and captured.err.count("\n") == 1


PERFBENCH_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"

# SHA-256 of the HOA and DOT files of `build --kind gfg-rabin --simplify`,
# recorded while the merged automaton came from the generic edge merge of
# the unmerged one: the running example, F_6, F_8, F_10 and the benchmark
# pool's random conditions over five to seven letters.
SIMPLIFY_DIGESTS = {
    "running": (
        "9599311d0fb587fdd840640dc1a4bfbfd1ffb65c2d8493a7c9474ea9b8fa1eda",
        "12bf4e19f97bb19e146632786cebd3357b0745ff899f0bc3d363bb2e303b8fe9",
    ),
    6: (
        "43ede2dc9b7769faa7b6bc68fe77ad2d7ca7b8dbad08b0994ad77ea8ff6b7a6c",
        "17f24b4d4b7fbfba16ca676ee0fd777eac2fe7b87900e4f34536f227c1ed3e3d",
    ),
    8: (
        "6401779b4dc4d8b91320677573345480606fead29dab14d2be8646b885b51bf5",
        "d13702572e4a0afd082db44ccf7674c80572d0780fa4e9ad311d5883c909b8fb",
    ),
    10: (
        "1318ba224edf1e099168fab8f772f8922a7b7f7862dc382a000eb1f8debba263",
        "7811bfd2b0bfa5b0b85d6f3bfd086a9cb98d97f6ac4da7bebafa21ac8297cd84",
    ),
    "c5-0": (
        "46cde6cfd77fa666fdf2f2cbf8fd0cbaae0b0e806f9afccd1460ca0184d261ef",
        "c63e38e3dc9e24d6edb95cda66f881220f0de2d292c3bcb6ef75df62a786710c",
    ),
    "c5-1": (
        "f99c70bd718febbb7ddf4e179d37ebfb3ef4d0211896161fb0d3c8ddfe9f822d",
        "fb42b065c1d537befa2fcc48a00a38f0ce79e03016293b768d4ca5c46cf6cc85",
    ),
    "c6-0": (
        "c8c2109739ab2e519b7e61054366e55d2d44bfcd2e0df56ffa4b3d85b1609baa",
        "336b8184824f0abae138550bef6cf2631137a58f8de10884412524459239457b",
    ),
    "c6-1": (
        "d36b3d98b0015f2a67cdba85ff9bc21e526acdf291fb172af663fb5eae6028c6",
        "c4dcfde77e2c1eab731009c02145177e603ba0f56ecbf39e4038740bf6760f71",
    ),
    "c7-0": (
        "575abe3f886ac7eb9d78fba2ca5c08e3011c2e1220fd05e68930c29b210fa97b",
        "2d61d1d8892b5672f88ee92f4fb4bd76fa04cc3e96f425ff3af1ea8871bcd964",
    ),
    "c7-1": (
        "23ddb510cd47cf1ec27a5355fd4d3cebe05801a54f6010c4396749bf15e7ac80",
        "b5cdf70f02182ef89715add7d5f2f4ea14fc4770cbb3002fe1f2a24298a47d89",
    ),
    "k5-0": (
        "d22de59d201c1e2687cedfc8a80776c303533231e298824c4f48464c5365a1e9",
        "e12302b60ae043ece726348f3f9429b28f4c09e360f60b1f98c53b771e1f87dc",
    ),
    "k5-1": (
        "787948a897c8d8dcb5cbec1aee9ee71fc547d51c6c196f0b5ea30f122cb6c2f5",
        "60d9f823112064f0c6225678c686d358b81fb739ffd24444d84a7611863954ce",
    ),
}


@pytest.mark.parametrize("name", list(SIMPLIFY_DIGESTS), ids=str)
def test_cmd_build_simplify_bytes_are_pinned(capsys, condition_file, tmp_path, name):
    if name == "running":
        path = condition_file
    elif isinstance(name, int):
        path = fn_file(tmp_path, name)
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(json.loads(PERFBENCH_POOL.read_text())["conditions"][name]["doc"]))
    hoa, dot = tmp_path / "simple.hoa", tmp_path / "simple.dot"
    argv = ["build", str(path), "--kind", "gfg-rabin", "--simplify", "--hoa", str(hoa), "--dot", str(dot)]
    assert main(argv) == 0
    digests = hashlib.sha256(hoa.read_bytes()).hexdigest(), hashlib.sha256(dot.read_bytes()).hexdigest()
    assert digests == SIMPLIFY_DIGESTS[name]


def test_cmd_build_bad_flags(capsys, condition_file):
    assert main(["build", condition_file, "--kind", "parity", "--simplify"]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_check_self(capsys, condition_file):
    assert main(["check", condition_file, "--bound", "4"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cmd_check_vacuous(capsys, condition_file):
    # Bound 0 would check no lasso, so it is rejected like negative bounds.
    assert main(["check", condition_file, "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cmd_check_counts_every_lasso(capsys, tmp_path):
    path = tmp_path / "four.json"
    path.write_text(
        json.dumps({"alphabet": ["a", "b", "c", "d"], "accepting": [["a", "b"], ["c"], ["a", "c", "d"]]})
    )
    assert main(["check", str(path), "--bound", "4"]) == 0
    # 21 prefixes of length <= 2 times 340 periods of length 1..4.
    assert capsys.readouterr().out == "pass: 7140 lassos agree with the condition (bound 4)\n"


def with_extra_state(automaton, row, start=False):
    """`automaton` with one more state, whose moves on letter a are `row[a]`:
    the only start state when `start`, and otherwise reached from none."""
    from mullergames.automata import Automaton

    extra = len(automaton.states)
    return Automaton(
        tuple(automaton.states) + ("extra",),
        automaton.alphabet,
        [extra] if start else automaton.start,
        list(automaton.moves) + [row],
        automaton.acceptance,
    )


def with_unreachable_state(automaton):
    """`automaton` with a state reached from none that loops on every letter
    with colour 0: it gives every period colour 0's verdict, so it disagrees
    with any condition that accepts some letter sets and rejects others,
    and no lasso's verdict changes."""
    extra = len(automaton.states)
    return with_extra_state(automaton, [[(0, extra)] for _ in automaton.alphabet])


def four_letter_check_work(monkeypatch, tmp_path, edit=lambda automaton: automaton):
    """Run `check --bound 4` on a 4-letter condition, with `edit` applied to
    the GFG automaton, and return the GFG automaton checked and the work
    done: each checker's verdict searches, the periods whose verdicts were
    built and the lassos the Rabin checker was asked."""
    from mullergames import cli
    from mullergames.automata import DeterministicLassoChecker, RabinLassoChecker, _LassoChecker
    from mullergames.conditions import load_condition
    from mullergames.construction import build_gfg_rabin

    path = tmp_path / "four.json"
    path.write_text(
        json.dumps({"alphabet": ["a", "b", "c", "d"], "accepting": [["a", "b"], ["c"], ["a", "c", "d"]]})
    )
    searches, periods, asked = {}, [], []
    for cls in (DeterministicLassoChecker, RabinLassoChecker):

        def counting(self, period, verdicts=cls._verdicts):
            searches[self] = searches.get(self, 0) + 1
            return verdicts(self, period)

        monkeypatch.setattr(cls, "_verdicts", counting)
    period_verdicts, accepts = _LassoChecker._period_verdicts, RabinLassoChecker.accepts

    def counting_periods(self, period):
        periods.append(period)
        return period_verdicts(self, period)

    def counting_accepts(self, w):
        asked.append(w)
        return accepts(self, w)

    monkeypatch.setattr(_LassoChecker, "_period_verdicts", counting_periods)
    monkeypatch.setattr(RabinLassoChecker, "accepts", counting_accepts)
    gfg = build_gfg_rabin(load_condition(str(path)))
    gfg.automaton = edit(gfg.automaton)
    monkeypatch.setattr(cli, "build_gfg_rabin", lambda _tree: gfg)
    assert main(["check", str(path), "--bound", "4"]) == 0
    return gfg.automaton, sorted(searches.values()), periods, asked


def test_cmd_check_searches_each_lyndon_root_once(capsys, monkeypatch, tmp_path):
    # The 340 periods of length 1..4 over 4 letters have 4 + 6 + 20 + 60 = 90
    # Lyndon roots, and each checker searches each root once.  All states
    # of every checker give each root the condition's verdict, so check
    # builds no period's verdicts and asks no lasso.
    _, searches, periods, asked = four_letter_check_work(monkeypatch, tmp_path)
    assert capsys.readouterr().out == "pass: 7140 lassos agree with the condition (bound 4)\n"
    assert searches == [90, 90, 90]
    assert asked == [] and periods == []


def test_cmd_check_sweeps_a_checker_that_disagrees(capsys, monkeypatch, tmp_path):
    # An unreachable state that disagrees makes the Rabin checker sweep: it
    # is asked once per period and class of prefixes reaching the same
    # states, and passes, as no lasso reaches that state.  Each checker
    # still searches each of the 90 roots once.
    from conftest import ReferenceRabinLassoChecker

    automaton, searches, _, asked = four_letter_check_work(
        monkeypatch, tmp_path, with_unreachable_state
    )
    assert capsys.readouterr().out == "pass: 7140 lassos agree with the condition (bound 4)\n"
    assert searches == [90, 90, 90]
    reference = ReferenceRabinLassoChecker(automaton)
    prefixes = [p for n in range(3) for p in itertools.product("abcd", repeat=n)]
    classes = {reference._reach_after(prefix) for prefix in prefixes}
    assert 1 < len(classes) < len(prefixes)
    assert len(asked) == 340 * len(classes)


def test_cmd_check_one_letter_builds_no_period(capsys, monkeypatch, tmp_path):
    # One letter has one Lyndon root, `a`, whichever the bound: a passing
    # run searches it once per checker and builds none of the periods
    # a^1..a^9384, whose letters grow like the square of the bound.
    from mullergames.automata import _LassoChecker

    def refuse(self, period):
        raise AssertionError("a passing check built a period's verdicts")

    monkeypatch.setattr(_LassoChecker, "_period_verdicts", refuse)
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"alphabet": ["a"], "accepting": [["a"]]}))
    assert main(["check", str(one), "--bound", "9384"]) == 0
    assert capsys.readouterr().out == "pass: 28152 lassos agree with the condition (bound 9384)\n"


def test_cmd_check_refuses_too_many_lassos(capsys, tmp_path):
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"alphabet": list("abcde"), "accepting": [["a", "b"], ["c"]]}))
    # The default bound 10 makes 31 prefixes times 12,207,030 periods.
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "378,417,930 lassos" in captured.err and "--bound" in captured.err
    assert main(["check", str(path), "--bound", "1000000000"]) == 2
    assert "more than" in capsys.readouterr().err
    # One letter at bound 9,385: 28,155 lassos, but 3 prefixes times
    # 44,043,805 period letters, whose sweep costs the square of the bound.
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"alphabet": ["a"], "accepting": [["a"]]}))
    assert main(["check", str(one), "--bound", "9385"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "132,131,415 period letters (bound 9385)" in captured.err


def per_lasso_line(condition, verdicts, bound):
    """The first counterexample line of the per-lasso loop: every lasso in
    `check`'s order, then each (name, verdict function) of `verdicts` in
    turn, against the condition."""
    from mullergames.conditions import LassoWord, inf_set, satisfies_muller

    symbols = condition.alphabet.symbols
    for lu in range(3):
        for prefix in itertools.product(symbols, repeat=lu):
            for lv in range(1, bound + 1):
                for period in itertools.product(symbols, repeat=lv):
                    w = LassoWord(prefix, period)
                    expected = satisfies_muller(condition, inf_set(w))
                    for name, verdict in verdicts.items():
                        got = verdict(w)
                        if got != expected:
                            return f"counterexample: {w!r} expected {expected} but {name} gives {got}\n"
    return None


def per_lasso_check(condition, gfg, parity, bound):
    """The first counterexample line of the per-lasso loop on the Rabin
    checker, then one parity run and one resolver run each."""
    from mullergames.automata import run_deterministic
    from mullergames.construction import resolve_run

    from conftest import ReferenceRabinLassoChecker

    verdicts = {
        "rabin": ReferenceRabinLassoChecker(gfg.automaton).accepts,
        "parity": lambda w: run_deterministic(parity, w)[1],
        "resolver": lambda w: resolve_run(gfg, w)[1],
    }
    return per_lasso_line(condition, verdicts, bound)


def assert_same_verdict_as_per_lasso_loop(capsys, condition_file, condition, gfg, parity):
    expected_line = per_lasso_check(condition, gfg, parity, 4)
    capsys.readouterr()
    code = main(["check", condition_file, "--bound", "4"])
    out = capsys.readouterr().out
    if expected_line is None:
        assert code == 0 and out.startswith("pass: ")
    else:
        assert code == 1 and out == expected_line
    return expected_line is not None


def test_cmd_check_flipped_parity_priority(capsys, monkeypatch, condition_file):
    from mullergames import cli
    from mullergames.automata import Transition
    from mullergames.conditions import Alphabet, ParityCondition, load_condition
    from mullergames.construction import build_gfg_rabin, build_parity_automaton

    from conftest import named_automaton

    condition = load_condition(condition_file)
    parity = build_parity_automaton(condition)
    priorities = {int(c) for c in parity.colour_alphabet.symbols}
    detected = 0
    for i, t in enumerate(parity.transitions):
        flipped = int(t.colour) ^ 1
        names = [str(p) for p in sorted(priorities | {flipped})]
        transitions = list(parity.transitions)
        transitions[i] = Transition(t.src, t.letter, str(flipped), t.dst)
        corrupted = named_automaton(
            parity.states,
            parity.alphabet,
            parity.initial,
            transitions,
            ParityCondition(Alphabet(names), {p: int(p) for p in names}),
        )
        monkeypatch.setattr(cli, "build_parity_automaton", lambda _cond: corrupted)
        gfg = build_gfg_rabin(condition)
        detected += assert_same_verdict_as_per_lasso_loop(
            capsys, condition_file, condition, gfg, corrupted
        )
    assert detected, "no flipped priority was detected"


def test_cmd_check_corrupted_step_table_witness(capsys, monkeypatch, condition_file):
    from mullergames import cli
    from mullergames.conditions import load_condition
    from mullergames.construction import build_gfg_rabin, build_parity_automaton

    condition = load_condition(condition_file)
    tree = build_gfg_rabin(condition).tree
    detected = 0
    for leaf in tree.leaves():
        for a in range(len(condition.alphabet)):

            def corrupted_gfg(cond, leaf=leaf, a=a):
                gfg = build_gfg_rabin(cond)
                cell = gfg.resolver.moves[gfg.tree.leaves().index(leaf)][a]
                witness, target = cell[0]
                cell[0] = ((witness + 1) % len(gfg.tree), target)
                return gfg

            monkeypatch.setattr(cli, "build_gfg_rabin", corrupted_gfg)
            gfg = corrupted_gfg(condition)
            detected += assert_same_verdict_as_per_lasso_loop(
                capsys, condition_file, condition, gfg, build_parity_automaton(gfg)
            )
    assert detected, "no corrupted witness was detected"


@pytest.mark.parametrize("kind", ["gfg-rabin", "parity"])
def test_cmd_check_hoa_mutation_keeps_the_first_counterexample(capsys, tmp_path, kind):
    # One move's target or colour (so its marks) changed, in the automata
    # of the running example and of random 4-letter conditions: check reads
    # the HOA file and prints the per-lasso loop's first counterexample.
    from mullergames.automata import Automaton, export_hoa, run_deterministic
    from mullergames.conditions import Alphabet, MullerCondition, condition_to_dict
    from mullergames.construction import build_gfg_rabin, build_parity_automaton

    from conftest import ReferenceRabinLassoChecker, random_muller_condition

    rng = random.Random(1)
    running = MullerCondition(Alphabet("abc"), [["a", "b"], ["a", "c"], ["b"]])
    conditions = [running] + [random_muller_condition(rng, Alphabet("abcd")) for _ in range(3)]
    condition_path, hoa = tmp_path / "condition.json", tmp_path / "mutated.hoa"
    lines = []
    for condition in conditions:
        condition_path.write_text(json.dumps(condition_to_dict(condition)))
        if kind == "gfg-rabin":
            automaton = build_gfg_rabin(condition).automaton
        else:
            automaton = build_parity_automaton(condition)
        bound = 7 - len(condition.alphabet)
        for _ in range(8):
            moves = [[list(cell) for cell in row] for row in automaton.moves]
            s, a = rng.choice([(s, a) for s, row in enumerate(moves) for a in range(len(row))])
            m = rng.randrange(len(moves[s][a]))
            c, d = moves[s][a][m]
            if len(moves) > 1 and rng.random() < 0.5:
                d = rng.choice([q for q in range(len(moves)) if q != d])
            else:
                c = rng.choice([x for x in range(len(automaton.colour_alphabet)) if x != c])
            moves[s][a][m] = (c, d)
            mutated = Automaton(
                automaton.states, automaton.alphabet, automaton.start, moves, automaton.acceptance
            )
            hoa.write_text(export_hoa(mutated))
            if kind == "gfg-rabin":
                verdicts = {"rabin": ReferenceRabinLassoChecker(mutated).accepts}
            else:
                verdicts = {"parity": lambda w: run_deterministic(mutated, w)[1]}
            expected_line = per_lasso_line(condition, verdicts, bound)
            code = main(["check", str(condition_path), "--automaton", str(hoa), "--bound", str(bound)])
            out = capsys.readouterr().out
            if expected_line is None:
                assert code == 0 and out.startswith("pass: ")
            else:
                assert code == 1 and out == expected_line
                lines.append(out)
    assert lines, "no mutation was detected"
    assert any(not line.startswith("counterexample: (") for line in lines), lines


def test_cmd_check_sweeps_what_the_root_searches_cannot_certify(capsys, monkeypatch, tmp_path):
    # Two kinds of Rabin HOA mutation that check must sweep.  An added
    # unreachable state disagrees with the condition on some root but
    # changes no lasso's verdict, so check passes.  A copy of the start
    # state with its moves on one letter dropped, made the start, leaves an
    # empty cell: its other moves reach states that agree, so its root
    # verdicts can all agree while a period read from the middle of a root
    # finds no move.  check prints the per-lasso loop's line for each.
    from mullergames.automata import RabinLassoChecker, export_hoa
    from mullergames.cli import sweep_size
    from mullergames.conditions import Alphabet, MullerCondition, condition_to_dict
    from mullergames.construction import build_gfg_rabin

    from conftest import ReferenceRabinLassoChecker, random_muller_condition

    asked = []
    accepts = RabinLassoChecker.accepts

    def counting_accepts(self, w):
        asked.append(w)
        return accepts(self, w)

    monkeypatch.setattr(RabinLassoChecker, "accepts", counting_accepts)
    rng = random.Random(31)
    running = MullerCondition(Alphabet("abc"), [["a", "b"], ["a", "c"], ["b"]])
    conditions = [running] + [random_muller_condition(rng, Alphabet("abcd")) for _ in range(3)]
    condition_path, hoa = tmp_path / "condition.json", tmp_path / "mutated.hoa"
    outcomes = {"pass": 0, "counterexample": 0}
    for condition in conditions:
        condition_path.write_text(json.dumps(condition_to_dict(condition)))
        automaton = build_gfg_rabin(condition).automaton
        bound = 7 - len(condition.alphabet)
        mutants = [with_unreachable_state(automaton)]
        for a in range(len(condition.alphabet)):
            row = [list(cell) for cell in automaton.moves[automaton.start[0]]]
            row[a] = []
            mutants.append(with_extra_state(automaton, row, start=True))
        for m, mutated in enumerate(mutants):
            hoa.write_text(export_hoa(mutated))
            verdicts = {"rabin": ReferenceRabinLassoChecker(mutated).accepts}
            expected_line = per_lasso_line(condition, verdicts, bound)
            assert m or expected_line is None
            asked.clear()
            code = main(["check", str(condition_path), "--automaton", str(hoa), "--bound", str(bound)])
            out = capsys.readouterr().out
            assert asked, "check skipped the sweep"
            if expected_line is None:
                lassos = sweep_size(len(condition.alphabet), bound)[0]
                assert code == 0
                assert out == f"pass: {lassos} lassos agree with the condition (bound {bound})\n"
                outcomes["pass"] += 1
            else:
                assert code == 1 and out == expected_line
                outcomes["counterexample"] += 1
    assert all(outcomes.values()), outcomes


def test_cmd_check_reports_the_first_of_several_failing_checkers(
    capsys, monkeypatch, condition_file
):
    # A parity move given another priority and a corrupted resolver witness:
    # each checker finds its own first counterexample, and check prints the
    # one the per-lasso loop meets first, which may be the later checker's.
    from mullergames import cli
    from mullergames.automata import Automaton, run_deterministic
    from mullergames.conditions import load_condition
    from mullergames.construction import build_gfg_rabin, build_parity_automaton, resolve_run

    condition = load_condition(condition_file)
    parity = build_parity_automaton(condition)
    tree = build_gfg_rabin(condition).tree
    rng = random.Random(5)
    cells = [(s, a) for s in range(len(parity.states)) for a in range(len(condition.alphabet))]
    leaves = list(tree.leaves())
    earlier = [0, 0]  # cases where parity's, or the resolver's, comes first
    for _ in range(40):
        s, a = rng.choice(cells)
        moves = [[list(cell) for cell in row] for row in parity.moves]
        c, d = moves[s][a][0]
        moves[s][a][0] = (rng.choice([x for x in range(len(parity.colour_alphabet)) if x != c]), d)
        corrupted = Automaton(
            parity.states, parity.alphabet, parity.start, moves, parity.acceptance
        )
        leaf, letter = rng.choice(leaves), rng.randrange(len(condition.alphabet))

        def corrupted_gfg(cond, leaf=leaf, letter=letter):
            gfg = build_gfg_rabin(cond)
            cell = gfg.resolver.moves[gfg.tree.leaves().index(leaf)][letter]
            witness, target = cell[0]
            cell[0] = ((witness + 1) % len(gfg.tree), target)
            return gfg

        monkeypatch.setattr(cli, "build_parity_automaton", lambda _cond: corrupted)
        monkeypatch.setattr(cli, "build_gfg_rabin", corrupted_gfg)
        gfg = corrupted_gfg(condition)
        assert_same_verdict_as_per_lasso_loop(capsys, condition_file, condition, gfg, corrupted)
        alone = [
            per_lasso_line(condition, {"parity": lambda w: run_deterministic(corrupted, w)[1]}, 4),
            per_lasso_line(condition, {"resolver": lambda w: resolve_run(gfg, w)[1]}, 4),
        ]
        if all(alone) and alone[0] != alone[1]:
            first = per_lasso_check(condition, gfg, corrupted, 4)
            earlier[first == alone[1]] += 1
    assert all(earlier), earlier


def test_cmd_check_hoa_file_builds_no_automaton(capsys, monkeypatch, condition_file, tmp_path):
    from mullergames import cli

    hoa = tmp_path / "rf.hoa"
    assert main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(hoa)]) == 0

    def refuse(_condition):
        raise AssertionError("check --automaton FILE built an automaton")

    monkeypatch.setattr(cli, "build_gfg_rabin", refuse)
    monkeypatch.setattr(cli, "build_parity_automaton", refuse)
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 0
    assert capsys.readouterr().out == "pass: 1560 lassos agree with the condition (bound 4)\n"


def test_cmd_check_self_builds_one_tree(capsys, monkeypatch, condition_file):
    from mullergames import cli, construction
    from mullergames.zielonka import build_zielonka

    built = []

    def counting(condition):
        built.append(condition)
        return build_zielonka(condition)

    monkeypatch.setattr(cli, "build_zielonka", counting)
    monkeypatch.setattr(construction, "build_zielonka", counting)
    assert main(["check", condition_file, "--bound", "3"]) == 0
    assert capsys.readouterr().out.startswith("pass: ")
    assert len(built) == 1


def test_cmd_check_negative_bound(capsys, condition_file):
    assert main(["check", condition_file, "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cmd_check_hoa_round_trip(capsys, condition_file, tmp_path):
    hoa = tmp_path / "rf.hoa"
    assert main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(hoa)]) == 0
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 0


def test_cmd_check_detects_corruption(capsys, condition_file, tmp_path):
    hoa = tmp_path / "rf.hoa"
    assert main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(hoa)]) == 0
    # Corrupt one Rabin pair: drop a red mark from every transition line.
    text = hoa.read_text().replace("{0 2}", "{2}")
    assert text != hoa.read_text()
    hoa.write_text(text)
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_cmd_check_parity_hoa_round_trip(capsys, condition_file, tmp_path):
    hoa = tmp_path / "parity.hoa"
    assert main(["build", condition_file, "--kind", "parity", "--hoa", str(hoa)]) == 0
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 0
    assert capsys.readouterr().out == "pass: 1560 lassos agree with the condition (bound 4)\n"


@pytest.mark.parametrize("kind", ["gfg-rabin", "parity"])
def test_cmd_check_reads_back_letters_with_quotes_and_backslashes(capsys, tmp_path, kind):
    """HOA names escape `"` and `\\`, so `check` reads the file `build` wrote."""
    letters = ["a\"b", "c\\d", "e f"]
    condition = tmp_path / "quoted.json"
    condition.write_text(json.dumps({"alphabet": letters, "accepting": [letters[:2], letters[2:]]}))
    hoa = tmp_path / f"{kind}.hoa"
    assert main(["build", str(condition), "--kind", kind, "--hoa", str(hoa)]) == 0
    assert 'AP: 3 "a\\"b" "c\\\\d" "e f"\n' in hoa.read_text()
    capsys.readouterr()
    assert main(["check", str(condition), "--automaton", str(hoa), "--bound", "3"]) == 0
    assert capsys.readouterr().out == "pass: 507 lassos agree with the condition (bound 3)\n"


def test_cmd_check_parity_hoa_detects_a_changed_mark(capsys, condition_file, tmp_path):
    hoa = tmp_path / "parity.hoa"
    assert main(["build", condition_file, "--kind", "parity", "--hoa", str(hoa)]) == 0
    # State 0 (leaf n3) reads a with the odd priority 1; make it even.
    text = hoa.read_text().replace("[0&!1&!2] 0 {1}", "[0&!1&!2] 0 {2}", 1)
    assert text != hoa.read_text()
    hoa.write_text(text)
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 1
    out = capsys.readouterr().out
    assert out == "counterexample: (a)^w expected False but parity gives True\n"


def test_cmd_check_rejects_a_nondeterministic_parity_hoa(capsys, condition_file, tmp_path):
    hoa = tmp_path / "parity.hoa"
    assert main(["build", condition_file, "--kind", "parity", "--hoa", str(hoa)]) == 0
    # A second target for state 0 on letter a.
    text = hoa.read_text().replace("[0&!1&!2] 0 {1}\n", "[0&!1&!2] 0 {1}\n[0&!1&!2] 1 {1}\n", 1)
    assert text != hoa.read_text()
    hoa.write_text(text)
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "deterministic" in captured.err


@pytest.mark.parametrize("kind", ["gfg-rabin", "parity"])
def test_cmd_check_reads_a_repeated_start_line_once(capsys, condition_file, tmp_path, kind):
    """A second `Start: 0` line names the same start state, as a repeated
    edge line names the same edge: the parity file stays deterministic."""
    from mullergames.automata import export_hoa, parse_hoa

    hoa = tmp_path / f"{kind}.hoa"
    assert main(["build", condition_file, "--kind", kind, "--hoa", str(hoa)]) == 0
    lines = hoa.read_text().splitlines(keepends=True)
    assert lines[2] == "Start: 0\n"
    edited = "".join(lines[:3] + ["Start: 0\n"] + lines[3:])
    hoa.write_text(edited)
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "3"]) == 0
    assert capsys.readouterr().out == "pass: 507 lassos agree with the condition (bound 3)\n"
    automaton = parse_hoa(edited)
    assert automaton.start == (0,)
    assert export_hoa(automaton) == "".join(lines)


# Every break at which `str.splitlines`, and so the HOA reader, ends a line.
LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_cmd_build_refuses_a_letter_with_a_line_break(capsys, tmp_path, brk):
    # Its HOA `AP:` line would end at the break, and `check` could not read it.
    letter = f"a{brk}b"
    condition = tmp_path / "broken.json"
    condition.write_text(json.dumps({"alphabet": [letter, "c"], "accepting": [[letter], ["c"]]}))
    hoa = tmp_path / "broken.hoa"
    assert main(["build", str(condition), "--kind", "parity", "--hoa", str(hoa)]) == 2
    assert capsys.readouterr() == ("", f"error: alphabet letter {letter!r} holds a line break\n")
    assert not hoa.exists()


@pytest.mark.parametrize(
    "old, new",
    [("States: 2", "States: two"), ("States: 2\n", ""), ("States: 2\n", "States: 200000\n")],
    ids=["non-integer-states", "missing-states", "states-without-blocks"],
)
def test_cmd_check_reports_malformed_hoa(capsys, condition_file, tmp_path, old, new):
    hoa = tmp_path / "rf.hoa"
    assert main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(hoa)]) == 0
    hoa.write_text(hoa.read_text().replace(old, new))
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa), "--bound", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "States" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("] 1 {3}", "] 9 {3}", "HOA line 12: target state 9 is not one of the 3 declared"),
        ("Start: 0", "Start: 9", "HOA line 3: initial state 9 is not one of the 3 declared"),
        ("Start: 0\n", "", "HOA document has no 'Start:' header line"),
        ('"b" "c"', '"a" "c"', "HOA line 4: alphabet symbols must be unique"),
        ("States: 3", "States: -1", "HOA line 2: negative state count in 'States: -1'"),
    ],
    ids=["unknown-target", "unknown-start", "missing-start", "duplicate-ap", "negative-states"],
)
def test_cmd_check_names_the_hoa_line_of_an_error(
    capsys, condition_file, tmp_path, old, new, message
):
    hoa = tmp_path / "parity.hoa"
    assert main(["build", condition_file, "--kind", "parity", "--hoa", str(hoa)]) == 0
    text = hoa.read_text()
    assert text.count(old) == 1
    hoa.write_text(text.replace(old, new))
    capsys.readouterr()
    assert main(["check", condition_file, "--automaton", str(hoa)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def game_file(tmp_path, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cmd_solve_alternation(capsys, condition_file, tmp_path):
    game = game_file(
        tmp_path,
        {
            "vertices": [
                {"name": "u", "owner": "Univ"},
                {"name": "x", "owner": "Exist"},
            ],
            "edges": [
                {"src": "u", "colour": "a", "dst": "x"},
                {"src": "x", "colour": "b", "dst": "u"},
                {"src": "x", "colour": "c", "dst": "u"},
            ],
            "initial": "u",
        },
    )
    memory_out = tmp_path / "memory.json"
    code = main(
        ["solve", "--game", game, "--condition", condition_file, "--memory-out", str(memory_out)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "winner: Exist" in out
    assert "memory size: 2" in out
    doc = json.loads(memory_out.read_text())
    assert doc["states"] == [1, 2]


def test_cmd_solve_builds_one_tree(capsys, condition_file, tmp_path, monkeypatch):
    # The solver, both automata and the strategy check share one tree.
    from mullergames import cli, construction, games
    from mullergames.zielonka import build_zielonka

    built = []

    def counting(condition):
        built.append(condition)
        return build_zielonka(condition)

    for module in (cli, construction, games):
        monkeypatch.setattr(module, "build_zielonka", counting)
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "u", "owner": "Univ"}, {"name": "x", "owner": "Exist"}],
            "edges": [
                {"src": "u", "colour": "a", "dst": "x"},
                {"src": "x", "colour": "b", "dst": "u"},
                {"src": "x", "colour": "c", "dst": "u"},
            ],
            "initial": "u",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 0
    assert "memory size: 2" in capsys.readouterr().out
    assert len(built) == 1


def test_cmd_solve_failed_memory_certificate_prints_no_winner(
    capsys, condition_file, tmp_path, monkeypatch
):
    from mullergames import games

    monkeypatch.setattr(games, "verify_strategy", lambda memory, condition: False)
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "u", "owner": "Univ"}, {"name": "x", "owner": "Exist"}],
            "edges": [
                {"src": "u", "colour": "a", "dst": "x"},
                {"src": "x", "colour": "b", "dst": "u"},
                {"src": "x", "colour": "c", "dst": "u"},
            ],
            "initial": "u",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    assert capsys.readouterr() == (
        "", "error: internal: extracted memory failed strategy verification\n"
    )


def test_cmd_solve_univ_wins(capsys, condition_file, tmp_path):
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": "Exist"}],
            "edges": [{"src": "x", "colour": "c", "dst": "x"}],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 0
    assert "winner: Univ" in capsys.readouterr().out


def test_cmd_solve_reports_dead_end(capsys, condition_file, tmp_path):
    game = game_file(
        tmp_path,
        {
            "vertices": [
                {"name": "x", "owner": "Exist"},
                {"name": "y", "owner": "Univ"},
            ],
            "edges": [{"src": "x", "colour": "a", "dst": "y"}],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    assert "at least one move from every position" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vertices, edges, initial",
    [
        ([{"name": ["x"], "owner": "Exist"}], [{"src": "x", "colour": "a", "dst": "x"}], "x"),
        ([{"name": "x", "owner": 1}], [{"src": "x", "colour": "a", "dst": "x"}], "x"),
        ([{"name": "x", "owner": "Exist"}], [{"src": 0, "colour": "a", "dst": "x"}], "x"),
        ([{"name": "x", "owner": "Exist"}], [{"src": "x", "colour": 3, "dst": "x"}], "x"),
        ([{"name": "x", "owner": "Exist"}], [{"src": "x", "colour": "a", "dst": "x"}], ["x"]),
        ([{"name": "x", "owner": "Exist"}], {"src": "x"}, "x"),
    ],
    ids=["list-name", "int-owner", "int-src", "int-colour", "list-initial", "edges-object"],
)
def test_cmd_solve_rejects_mistyped_game(
    capsys, condition_file, tmp_path, vertices, edges, initial
):
    game = game_file(tmp_path, {"vertices": vertices, "edges": edges, "initial": initial})
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _loop_game(**changes):
    """A one-vertex Exist game with a loop on each letter, with `changes`
    replacing its fields."""
    doc = {
        "vertices": [{"name": "x", "owner": "Exist"}],
        "edges": [{"src": "x", "colour": c, "dst": "x"} for c in "abc"],
        "initial": "x",
    }
    doc.update(changes)
    return doc


# Each case: (game document, a phrase of its error) under the running
# example's condition.
MALFORMED_GAMES = {
    "not-an-object": (["x"], "must be an object"),
    "vertex-not-an-object": (_loop_game(vertices=["x"]), "malformed vertex entry"),
    "edge-without-colour": (_loop_game(edges=[{"src": "x", "dst": "x"}]), "malformed edge entry"),
    "duplicate-vertex": (
        _loop_game(vertices=[{"name": "x", "owner": "Exist"}, {"name": "x", "owner": "Univ"}]),
        "duplicate vertex 'x'",
    ),
    "owner-Bob": (_loop_game(vertices=[{"name": "x", "owner": "Bob"}]), "Exist or Univ"),
    "unknown-target": (
        _loop_game(edges=[{"src": "x", "colour": "a", "dst": "y"}]), "unknown vertex"
    ),
    "foreign-colour": (
        _loop_game(edges=[{"src": "x", "colour": "d", "dst": "x"}]),
        "'d' is not a condition colour",
    ),
    "missing-initial": (
        {k: v for k, v in _loop_game().items() if k != "initial"},
        "game document lacks field 'initial'",
    ),
    "vertices-object": (_loop_game(vertices={"x": "Exist"}), "field 'vertices' must be a list"),
    "int-name": (
        _loop_game(vertices=[{"name": 7, "owner": "Exist"}]), "vertex name must be a string, got 7"
    ),
    "int-owner": (
        _loop_game(vertices=[{"name": "x", "owner": 0}]), "owner of 'x' must be a string, got 0"
    ),
    "int-source": (
        _loop_game(edges=[{"src": 0, "colour": "a", "dst": "x"}]),
        "edge source must be a string, got 0",
    ),
    "int-target": (
        _loop_game(edges=[{"src": "x", "colour": "a", "dst": 0}]),
        "edge target must be a string, got 0",
    ),
    "int-colour": (
        _loop_game(edges=[{"src": "x", "colour": 3, "dst": "x"}]),
        "edge colour must be a string, got 3",
    ),
    "int-initial": (_loop_game(initial=0), "initial vertex must be a string, got 0"),
    "initial-not-a-vertex": (_loop_game(initial="y"), "initial vertex 'y' is not a vertex"),
    "vertex-without-move": (
        _loop_game(vertices=[{"name": "x", "owner": "Exist"}, {"name": "y", "owner": "Univ"}]),
        "vertex 'y' violates 'at least one move from every position'",
    ),
    "unknown-source": (
        _loop_game(edges=[{"src": "y", "colour": "a", "dst": "x"}]),
        "edge GameEdge(src='y', colour='a', dst='x') uses an unknown vertex",
    ),
    # Documents with two faults: the first one checked names the error.
    "name-before-owner": (
        _loop_game(vertices=[{"name": 7, "owner": 0}]), "vertex name must be a string"
    ),
    "colour-before-source": (
        _loop_game(edges=[{"src": 0, "colour": 3, "dst": 1}]), "edge colour must be a string"
    ),
    "source-before-target": (
        _loop_game(edges=[{"src": 0, "colour": "a", "dst": 1}]), "edge source must be a string"
    ),
    "edge-types-before-vertices": (
        _loop_game(
            vertices=[{"name": "x", "owner": "Exist"}, {"name": "x", "owner": "Univ"}],
            edges=[{"src": 0, "colour": "a", "dst": "x"}],
        ),
        "edge source must be a string",
    ),
    "initial-type-before-vertices": (
        _loop_game(vertices=[{"name": "x", "owner": "Bob"}], initial=0),
        "initial vertex must be a string",
    ),
    "owner-before-duplicate": (
        _loop_game(vertices=[{"name": "x", "owner": "Exist"}, {"name": "x", "owner": "Bob"}]),
        "owner of 'x' must be Exist or Univ",
    ),
    "vertices-before-initial": (
        _loop_game(vertices=[{"name": "x", "owner": "Bob"}], initial="y"), "Exist or Univ"
    ),
    "initial-before-edges": (
        _loop_game(initial="y", edges=[{"src": "z", "colour": "a", "dst": "x"}]),
        "initial vertex 'y' is not a vertex",
    ),
    "unknown-vertex-before-colour": (
        _loop_game(edges=[{"src": "x", "colour": "d", "dst": "y"}]), "uses an unknown vertex"
    ),
    "edges-before-dead-end": (
        _loop_game(
            vertices=[{"name": "x", "owner": "Exist"}, {"name": "y", "owner": "Univ"}],
            edges=[{"src": "x", "colour": "d", "dst": "x"}],
        ),
        "'d' is not a condition colour",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GAMES))
def test_cmd_solve_rejects_malformed_game(capsys, condition_file, tmp_path, case):
    doc, phrase = MALFORMED_GAMES[case]
    assert main(["solve", "--game", game_file(tmp_path, doc), "--condition", condition_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert phrase in err


def test_cmd_solve_reports_product_disagreement(capsys, condition_file, tmp_path, monkeypatch):
    from mullergames import games

    monkeypatch.setattr(
        games,
        "positional_rabin_strategy",
        lambda game, condition=None: games.GameSolution(game, set(), {}),
    )
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": "Exist"}],
            "edges": [{"src": "x", "colour": "b", "dst": "x"}],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: internal: parity product and GFG Rabin product disagree")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "owner, colour, phrase",
    [
        ("Exist", "b", "recursion names Univ the winner of the initial vertex, but the parity"),
        ("Univ", "a", "recursion names Exist the winner of the initial vertex, but the parity and"),
    ],
)
def test_cmd_solve_reports_a_recursion_that_disagrees(
    capsys, condition_file, tmp_path, monkeypatch, owner, colour, phrase
):
    # The recursion names the loser, and a product refutes it.
    from conftest import swap_split_owners

    swap_split_owners(monkeypatch)
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": owner}],
            "edges": [{"src": "x", "colour": colour, "dst": "x"}],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: internal: the tree-guided " + phrase)
    assert captured.err.count("\n") == 1
    assert "winner:" not in captured.out


def test_cmd_solve_reports_failed_certificate(capsys, condition_file, tmp_path, monkeypatch):
    from mullergames import games

    monkeypatch.setattr(games, "_rejected_core", lambda out, split, player=0: [0])
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": "Exist"}],
            "edges": [{"src": "x", "colour": "b", "dst": "x"}],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", condition_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: internal: cycle analysis refutes") and err.count("\n") == 1


def test_cmd_solve_seventeen_letters(capsys, tmp_path):
    # Exist must see every letter: memory 17, one per letter.  A scan of
    # colour subsets would need 2^17 cases to verify her strategy.
    letters = [chr(ord("a") + i) for i in range(17)]
    condition = tmp_path / "all17.json"
    condition.write_text(json.dumps({"alphabet": letters, "accepting": [letters]}))
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": "Exist"}],
            "edges": [{"src": "x", "colour": c, "dst": "x"} for c in letters],
            "initial": "x",
        },
    )
    assert main(["solve", "--game", game, "--condition", str(condition)]) == 0
    out = capsys.readouterr().out
    assert "winner: Exist" in out and "memory size: 17" in out


def test_cmd_solve_memory_out_independent_of_string_hashing(condition_file, tmp_path):
    rng = random.Random(11)
    names = [f"v{i}" for i in range(60)]
    doc = {
        "vertices": [{"name": v, "owner": rng.choice(["Exist", "Univ"])} for v in names],
        "edges": [
            {"src": v, "colour": rng.choice("abc"), "dst": rng.choice(names)}
            for v in names
            for _ in range(rng.randint(1, 3))
        ],
        "initial": names[0],
    }
    game = game_file(tmp_path, doc)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"memory-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["solve", "--game", game, "--condition", condition_file, "--memory-out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "mullergames.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "winner: Exist" in result.stdout
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# SHA-256 of `solve --memory-out` on `pinned_solve_case(seed)`, re-recorded
# when the memory came to be extracted on the merged GFG product.
MEMORY_DIGESTS = {
    3: "945fdf2e5b6ce96ccdbcff113e73c86f2a2e7e3f4b983cf95391dd06f897c417",
    4: "fc5a0fe45f521b9852287780b4f305b342a251b29bcdd9b18e8cd5114316180d",
    5: "78a7eb2fd454afbb4ea76721af0721bcfd765415081ee53bb4c6205e2a0db2a1",
    6: "8cccdcc32446625257835e8498f53322f96af21e07f9734d1b075457228b4887",
    11: "f4bcec7312820851ccfc18e94632d2f7488adf76fab1b1d8586ea176f75d8fe5",
    13: "23526051b08c058d105fa024dd042115f1b5cf9fdd3a66398d805ea023d141ed",
}


# Two Univ vertices and a silent edge: the -1 choice rows and the
# silent-update rows of the memory tables.  Digest recorded before the
# memory was held on arena ids; the same under every hash seed.
THREE_VERTEX_GAME = {
    "vertices": [
        {"name": "u", "owner": "Univ"},
        {"name": "x", "owner": "Exist"},
        {"name": "y", "owner": "Univ"},
    ],
    "edges": [
        {"src": "u", "colour": "a", "dst": "x"},
        {"src": "u", "colour": "b", "dst": "u"},
        {"src": "x", "colour": "b", "dst": "y"},
        {"src": "x", "colour": "c", "dst": "u"},
        {"src": "y", "colour": "b", "dst": "y"},
        {"src": "y", "colour": None, "dst": "u"},
    ],
    "initial": "u",
}
THREE_VERTEX_DIGEST = "9043beb1c67629d647baa82bd460d8055f406598d39f1f3b1766e86410f17397"


def test_cmd_solve_three_vertex_memory_out_is_pinned(capsys, condition_file, tmp_path):
    out = tmp_path / "memory.json"
    game = game_file(tmp_path, THREE_VERTEX_GAME)
    argv = ["solve", "--game", game, "--condition", condition_file]
    assert main(argv + ["--memory-out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["winner: Exist", "memory size: 2"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == THREE_VERTEX_DIGEST


def random_game_doc(rng, letters, low, high):
    """A game document of `low`-`high` vertices over `letters`, out-degree
    1-3, with some forward silent edges."""
    names = [f"v{i}" for i in range(rng.randint(low, high))]
    edges = []
    for i, v in enumerate(names):
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(names))
            colour = None if j > i and rng.random() < 0.1 else rng.choice(letters)
            edges.append({"src": v, "colour": colour, "dst": names[j]})
    owners = [{"name": v, "owner": rng.choice(["Exist", "Univ"])} for v in names]
    return {"vertices": owners, "edges": edges, "initial": names[0]}


def pinned_solve_case(seed):
    """A 20-60 vertex game over a random three-letter condition, out-degree
    1-3, with some forward silent edges."""
    from conftest import random_muller_condition
    from mullergames.conditions import Alphabet, condition_to_dict

    rng = random.Random(seed)
    condition = random_muller_condition(rng, Alphabet("abc"))
    return condition_to_dict(condition), random_game_doc(rng, "abc", 20, 60)


def pinned_fn_case(n, seed, low=60, high=100):
    """A `low`-`high` vertex game over F_n's letters, built as
    `pinned_solve_case` builds its games."""
    from mullergames.conditions import condition_to_dict
    from mullergames.succinctness import condition_fn

    condition = condition_fn(n)
    doc = random_game_doc(random.Random(seed), condition.alphabet.symbols, low, high)
    return condition_to_dict(condition), doc


@pytest.mark.parametrize("seed", sorted(MEMORY_DIGESTS))
def test_cmd_solve_memory_out_bytes_are_pinned(capsys, tmp_path, seed):
    condition, doc = pinned_solve_case(seed)
    condition_path = tmp_path / "condition.json"
    condition_path.write_text(json.dumps(condition))
    out = tmp_path / "memory.json"
    argv = ["solve", "--game", game_file(tmp_path, doc), "--condition", str(condition_path)]
    assert main(argv + ["--memory-out", str(out)]) == 0
    assert "winner: Exist" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MEMORY_DIGESTS[seed]


# SHA-256 of `solve --memory-out` on `pinned_fn_case(n, seed)`: Exist wins
# each, memtree(F_n) = n/2 states, and at several Exist vertices the move
# depends on the memory state.  Re-recorded when the memory came to be
# extracted on the merged GFG product.  CI checks the F_6 seed-9 and the
# F_8 seed-41 files through the installed script.
FN_MEMORY_DIGESTS = {
    (6, 5): "72e4cd630cadc4f1e8bb7e35bb0decf8ebac43ab8b7cc9bfec11214cba650873",
    (6, 9): "94823cca6a4bc04c6dbf887d4c10399194978b66a9e3daaa1f98d7986259b6c2",
    (8, 41): "667f0eded6fa8729c54eb468127eaaa6c0e268b150360790fe3de023056dfd47",
    (8, 117): "63701462cd2827ed5e32f99c96f0aab71fd57751fb0cebcdff32b6df7d71ce71",
}


@pytest.mark.parametrize("n, seed", sorted(FN_MEMORY_DIGESTS))
def test_cmd_solve_fn_memory_out_bytes_are_pinned(capsys, tmp_path, n, seed):
    condition, doc = pinned_fn_case(n, seed)
    condition_path = tmp_path / "condition.json"
    condition_path.write_text(json.dumps(condition))
    out = tmp_path / "memory.json"
    argv = ["solve", "--game", game_file(tmp_path, doc), "--condition", str(condition_path)]
    assert main(argv + ["--memory-out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["winner: Exist", f"memory size: {n // 2}"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FN_MEMORY_DIGESTS[n, seed]


# `pinned_fn_case(*F12_CASE)`: an 18-vertex game over F_12 that Exist wins
# with memtree(F_12) = 6 states; at five Exist vertices the move depends on
# the memory state.  Recorded while the merged GFG automaton came from the
# generic edge merge of the unmerged one.
F12_CASE = (12, 12, 15, 20)
F12_MEMORY_DIGEST = "0d14e9fa3024de67f999abe5022373872dc1458a3f88707d8b7cd7a273d2975a"


def test_cmd_solve_f12_memory_out_is_pinned(capsys, tmp_path):
    condition, doc = pinned_fn_case(*F12_CASE)
    condition_path = tmp_path / "condition.json"
    condition_path.write_text(json.dumps(condition))
    out = tmp_path / "memory.json"
    argv = ["solve", "--game", game_file(tmp_path, doc), "--condition", str(condition_path)]
    assert main(argv + ["--memory-out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["winner: Exist", "memory size: 6"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == F12_MEMORY_DIGEST


# `pinned_fn_case(10, 3)`: a 75-vertex game over F_10 that Univ wins.  The
# recursion decides it and the parity product, over F_10's 1,260 leaves,
# certifies it.  CI solves it through the installed script under a time
# limit.
FN_UNIV_CASE = (10, 3)


def test_cmd_solve_fn_univ_win_is_pinned(capsys, tmp_path):
    condition, doc = pinned_fn_case(*FN_UNIV_CASE)
    condition_path = tmp_path / "condition.json"
    condition_path.write_text(json.dumps(condition))
    argv = ["solve", "--game", game_file(tmp_path, doc), "--condition", str(condition_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "winner: Univ\n"


def test_recursion_agrees_with_the_parity_product_on_fn_games():
    """The tree-guided recursion names the parity product's winner at every
    vertex of the pinned F_6 and F_8 games and of F_4-F_8 games built the
    same way, with both players winning some initial vertices."""
    from conftest import parity_winners, recursion_winners
    from mullergames.conditions import condition_from_dict
    from mullergames.games import game_from_dict
    from mullergames.zielonka import build_zielonka

    cases = sorted(FN_MEMORY_DIGESTS) + [(n, seed) for n in range(4, 9) for seed in (1, 2, 3)]
    initial = []
    for n, seed in cases:
        condition, doc = pinned_fn_case(n, seed)
        tree = build_zielonka(condition_from_dict(condition))
        game = game_from_dict(doc, tree.condition)
        ours = recursion_winners(game, tree)
        assert ours == parity_winners(game, tree), (n, seed)
        initial.append(ours[game.arena.initial])
    assert 5 <= sum(initial) <= len(initial) - 5, initial


def test_cmd_succinctness(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    assert main(["succinctness", "--n", "4", "--exact-chi", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "  4 |         2 |            4 |            12 | exact-chi" in out
    doc = json.loads(out_json.read_text())
    assert doc["gfg_rabin_size"] == 2
    assert doc["det_rabin_lower_bound"] == 4


def test_cmd_succinctness_reports_an_improper_colouring(capsys, monkeypatch):
    from mullergames import succinctness

    monkeypatch.setattr(
        succinctness,
        "_exact_chromatic",
        lambda active, adj, budget: (1, {v: 1 for v in active}),
    )
    assert main(["succinctness", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: improper colouring produced\n"


def test_cmd_succinctness_binomial(capsys):
    assert main(["succinctness", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert " 10 |         5 |           12 |" in out
    assert "binomial" in out


def test_cmd_succinctness_n3(capsys):
    assert main(["succinctness", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "  3 |         1 |" in out


def test_cmd_succinctness_refuses_large_n(capsys):
    start = time.perf_counter()
    assert main(["succinctness", "--n", "40"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "15" in captured.err


def test_cli_outputs_deterministic(capsys, condition_file, tmp_path):
    first = tmp_path / "a.hoa"
    second = tmp_path / "b.hoa"
    main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(first)])
    main(["build", condition_file, "--kind", "gfg-rabin", "--hoa", str(second)])
    assert first.read_text() == second.read_text()
    capsys.readouterr()
    assert main(["succinctness", "--n", "4"]) == 0
    once = capsys.readouterr().out
    assert main(["succinctness", "--n", "4"]) == 0
    again = capsys.readouterr().out
    assert once == again


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff{}")
    return str(path)


def _json_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _hoa_over_ab(tmp_path):
    from mullergames.automata import export_hoa
    from mullergames.conditions import Alphabet, MullerCondition
    from mullergames.construction import build_parity_automaton

    path = tmp_path / "ab.hoa"
    path.write_text(export_hoa(build_parity_automaton(MullerCondition(Alphabet("ab"), [["a"]]))))
    return str(path)


def _exist_game(tmp_path):
    doc = {
        "vertices": [{"name": "x", "owner": "Exist"}],
        "edges": [{"src": "x", "colour": c, "dst": "x"} for c in "abc"],
        "initial": "x",
    }
    return game_file(tmp_path, doc)


# Each case: (argv, a phrase its error names: the path of a file that
# cannot be read) for a tmp_path directory `d` and the running example's
# condition file `c`.
FILE_ERRORS = {
    "zielonka-dir": lambda d, c: (["zielonka", str(d)], str(d)),
    "solve-game-dir": lambda d, c: (["solve", "--game", str(d), "--condition", c], str(d)),
    "check-automaton-dir": lambda d, c: (["check", c, "--automaton", str(d)], str(d)),
    "memory-out-dir": lambda d, c: (
        ["solve", "--game", _exist_game(d), "--condition", c, "--memory-out", str(d)], str(d)
    ),
    "hoa-dir": lambda d, c: (["build", c, "--kind", "gfg-rabin", "--hoa", str(d)], str(d)),
    "dot-dir": lambda d, c: (["build", c, "--kind", "parity", "--dot", str(d)], str(d)),
    "json-dir": lambda d, c: (["succinctness", "--n", "3", "--json", str(d)], str(d)),
    "condition-0xff": lambda d, c: (["zielonka", _not_utf8(d, "c.json")], str(d / "c.json")),
    "game-0xff": lambda d, c: (
        ["solve", "--game", _not_utf8(d, "g.json"), "--condition", c], str(d / "g.json")
    ),
    "hoa-0xff": lambda d, c: (
        ["check", c, "--automaton", _not_utf8(d, "a.hoa"), "--bound", "1"], str(d / "a.hoa")
    ),
    "condition-not-an-object": lambda d, c: (
        ["zielonka", _json_file(d, "c.json", [])], "condition document must be an object"
    ),
    "accepting-not-a-list": lambda d, c: (
        ["zielonka", _json_file(d, "c.json", {"alphabet": ["a", "b"], "accepting": "ab"})],
        "field 'accepting' must be a list of letter lists",
    ),
    "int-letter": lambda d, c: (
        ["zielonka", _json_file(d, "c.json", {"alphabet": ["a", 1], "accepting": []})],
        "alphabet must contain only strings, got 1",
    ),
    "hoa-other-alphabet": lambda d, c: (
        ["check", c, "--automaton", _hoa_over_ab(d)],
        "checked automaton runs over a different alphabet",
    ),
    "parity-provenance": lambda d, c: (
        ["build", c, "--kind", "parity", "--provenance", str(d / "p.json")],
        "--provenance applies to gfg-rabin only",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_cli_file_errors_exit_2_with_one_line(capsys, condition_file, tmp_path, case):
    argv, phrase = FILE_ERRORS[case](tmp_path, condition_file)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert phrase in err


# Each case: the argv of a command that writes `path` once it has its
# result, for the running example's condition file `c` in directory `d`.
OUTPUT_WRITES = {
    "zielonka-dot": lambda d, c, path: ["zielonka", c, "--dot", path],
    "build-hoa": lambda d, c, path: ["build", c, "--kind", "gfg-rabin", "--hoa", path],
    "build-dot": lambda d, c, path: ["build", c, "--kind", "parity", "--dot", path],
    "build-provenance": lambda d, c, path: ["build", c, "--kind", "gfg-rabin", "--provenance", path],
    "solve-memory-out": lambda d, c, path: [
        "solve", "--game", _exist_game(d), "--condition", c, "--memory-out", path
    ],
    "succinctness-json": lambda d, c, path: ["succinctness", "--n", "3", "--json", path],
}


@pytest.mark.parametrize("case", sorted(OUTPUT_WRITES))
def test_cli_failed_output_write_prints_nothing(capsys, condition_file, tmp_path, case):
    """A file that cannot be written ends the command before it prints:
    exit code 2, one `error:` line and an empty stdout."""
    argv = OUTPUT_WRITES[case](tmp_path, condition_file, str(tmp_path / "missing" / "out"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# Each case: (argv, the last library call it makes) of a command on the
# running example's condition file `c` in directory `d`.
LAST_CALLS = {
    "zielonka": lambda d, c: (["zielonka", c], "mullergames.zielonka.ZielonkaTree.memtree"),
    "build": lambda d, c: (
        ["build", c, "--kind", "gfg-rabin", "--hoa", str(d / "a.hoa")], "mullergames.cli.export_hoa"
    ),
    "check": lambda d, c: (["check", c], "mullergames.cli.lyndon_words"),
    "solve": lambda d, c: (
        ["solve", "--game", _exist_game(d), "--condition", c], "mullergames.cli.is_chromatic"
    ),
    "succinctness": lambda d, c: (["succinctness", "--n", "3"], "mullergames.cli.report_to_text"),
}


@pytest.mark.parametrize("case", sorted(LAST_CALLS))
def test_cli_error_in_the_last_call_prints_nothing(
    capsys, monkeypatch, condition_file, tmp_path, case
):
    """A typed error raised by a command's last library call leaves stdout
    empty: `main` writes a command's stdout only once it has returned."""
    from mullergames.games import GameError

    def injected(*args, **kwargs):
        raise GameError("internal: injected")

    argv, target = LAST_CALLS[case](tmp_path, condition_file)
    monkeypatch.setattr(target, injected)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: internal: injected\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_pipe_closed_early_exits_2_with_one_line(tmp_path, unbuffered):
    """F_12's table (201,144 bytes) overflows a pipe whose reader takes 10
    bytes and closes it.  Unbuffered, stdout's raw write stops short there
    instead of failing, and the rest of the text must still raise."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mullergames.cli", "zielonka", fn_file(tmp_path, 12)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_missing_file(capsys):
    assert main(["zielonka", "/nonexistent/cond.json"]) == 2
    assert "error" in capsys.readouterr().err


# Each probe ends in argparse's help or usage error.  "c" and "g" name no
# file: the parser stops before any handler runs.
USAGE_PROBES = [
    [],
    ["-h"],
    ["bogus"],
    ["zielonka", "-h"],
    ["zielonka"],
    ["zielonka", "c", "--dot"],
    ["build", "-h"],
    ["build", "c"],
    ["build", "c", "--kind", "dfa"],
    ["check", "-h"],
    ["check"],
    ["check", "c", "--bound", "two"],
    ["solve", "-h"],
    ["solve", "--game", "g"],
    ["solve", "--game", "g", "--condition", "c", "--memory-out"],
    # The top-level parser reports this one and prints its usage line,
    # which lists every command.
    ["solve", "--game", "g", "--condition", "c", "--bogus"],
    ["succinctness", "-h"],
    ["succinctness"],
    ["succinctness", "--n", "six"],
]


def _stopped(capsys, parse):
    with pytest.raises(SystemExit) as stop:
        parse()
    out, err = capsys.readouterr()
    return stop.value.code, out, err


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", USAGE_PROBES, ids=lambda argv: " ".join(argv) or "none")
def test_usage_texts_match_the_full_parser(capsys, monkeypatch, argv, columns):
    from mullergames.cli import build_arg_parser

    monkeypatch.setenv("COLUMNS", columns)  # 40 wraps the top-level usage line
    expected = _stopped(capsys, lambda: build_arg_parser().parse_args(argv))
    assert _stopped(capsys, lambda: main(argv)) == expected
    monkeypatch.setattr(sys, "argv", ["mullergames", *argv])
    assert _stopped(capsys, lambda: main()) == expected


def test_main_builds_no_parser_per_call(capsys, monkeypatch, condition_file, tmp_path):
    from mullergames import cli

    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_arg_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    game = game_file(
        tmp_path,
        {
            "vertices": [{"name": "x", "owner": "Exist"}],
            "edges": [{"src": "x", "colour": "c", "dst": "x"}],
            "initial": "x",
        },
    )
    for argv in (
        ["zielonka", condition_file],
        ["build", condition_file, "--kind", "parity"],
        ["check", condition_file, "--bound", "1"],
        ["solve", "--game", game, "--condition", condition_file],
        ["succinctness", "--n", "2"],
    ):
        assert main(argv) == 0, argv
    with pytest.raises(SystemExit) as stop:
        main(["-h"])
    assert stop.value.code == 0
    assert "{zielonka,build,check,solve,succinctness}" in capsys.readouterr().out
