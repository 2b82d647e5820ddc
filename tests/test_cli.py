import json
import os
import random
import subprocess
import sys
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


def test_cmd_build_bad_flags(capsys, condition_file):
    assert main(["build", condition_file, "--kind", "parity", "--simplify"]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_check_self(capsys, condition_file):
    assert main(["check", condition_file, "--bound", "4"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cmd_check_vacuous(capsys, condition_file):
    assert main(["check", condition_file, "--bound", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "old, new",
    [("States: 2", "States: two"), ("States: 2\n", "")],
    ids=["non-integer-states", "missing-states"],
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


def test_cmd_solve_reports_product_disagreement(capsys, condition_file, tmp_path, monkeypatch):
    from mullergames import games

    monkeypatch.setattr(
        games,
        "positional_rabin_strategy",
        lambda game, condition=None: games.RabinStrategySolution(frozenset(), {}),
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


def test_cmd_solve_reports_failed_certificate(capsys, condition_file, tmp_path, monkeypatch):
    from mullergames import games

    monkeypatch.setattr(games, "_rejected_core", lambda nodes, out, refine: frozenset(nodes))
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


def test_cmd_succinctness(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    assert main(["succinctness", "--n", "4", "--exact-chi", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "  4 |         2 |            4 |            12 | exact-chi" in out
    doc = json.loads(out_json.read_text())
    assert doc["gfg_rabin_size"] == 2
    assert doc["det_rabin_lower_bound"] == 4


def test_cmd_succinctness_binomial(capsys):
    assert main(["succinctness", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert " 10 |         5 |           12 |" in out
    assert "binomial" in out


def test_cmd_succinctness_n3(capsys):
    assert main(["succinctness", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "  3 |         1 |" in out


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


def test_cli_missing_file(capsys):
    assert main(["zielonka", "/nonexistent/cond.json"]) == 2
    assert "error" in capsys.readouterr().err
