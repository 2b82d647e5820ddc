import hashlib
import itertools
import random
import re

import pytest

from mullergames.automata import (
    Automaton,
    AutomatonError,
    DeterministicLassoChecker,
    RabinLassoChecker,
    Transition,
    export_dot,
    export_hoa,
    has_duplicated_edges,
    hoa_signature,
    lyndon_words,
    parse_hoa,
    run_deterministic,
)
from mullergames.conditions import (
    Alphabet,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)
from mullergames.construction import build_gfg_rabin, build_parity_automaton
from mullergames.succinctness import condition_fn
from mullergames.zielonka import build_zielonka
from conftest import (
    ReferenceRabinLassoChecker,
    letter_pairs,
    named_automaton,
    rabin_from_parity,
    random_muller_condition,
    reference_export_hoa,
    reference_hoa_signature,
    reference_simplify_rabin,
    scan_simplify_rabin,
    transitions_from,
)


def fig2_automaton(running_condition):
    return build_gfg_rabin(running_condition).automaton


def random_rabin_automaton(rng, n_states=3, n_letters=2, n_pairs=3, n_colours=4):
    states = list(range(rng.randint(1, n_states)))
    alphabet = Alphabet("ab"[: rng.randint(1, n_letters)])
    colours = Alphabet([f"c{i}" for i in range(rng.randint(1, n_colours))])
    transitions = []
    for q in states:
        for a in alphabet:
            for _ in range(rng.randint(0, 3)):
                transitions.append(
                    Transition(q, a, rng.choice(colours.symbols), rng.choice(states))
                )
    if not transitions:
        transitions.append(Transition(0, alphabet.symbols[0], colours.symbols[0], 0))
    pairs = []
    for _ in range(rng.randint(1, n_pairs)):
        green = [c for c in colours if rng.random() < 0.4]
        red = [c for c in colours if c not in green and rng.random() < 0.4]
        pairs.append((green, red))
    return named_automaton(
        states,
        alphabet,
        [rng.choice(states)],
        transitions,
        RabinCondition(colours, pairs),
    )


def lassos_up_to(alphabet, max_len, max_prefix=None):
    out = []
    for lu in range((max_len if max_prefix is None else max_prefix) + 1):
        for prefix in itertools.product(alphabet.symbols, repeat=lu):
            for lv in range(1, max_len + 1):
                for period in itertools.product(alphabet.symbols, repeat=lv):
                    out.append(LassoWord(prefix, period))
    return out


def test_run_deterministic_examples(running_condition):
    parity = build_parity_automaton(running_condition)
    run, ok = run_deterministic(parity, LassoWord.from_letters("", "ab"))
    assert ok
    assert {t.colour for t in run.cycle} <= {"1", "2"}
    _, ok = run_deterministic(parity, LassoWord.from_letters("", "c"))
    assert not ok
    loop = named_automaton(
        ["q"],
        Alphabet("a"),
        ["q"],
        [Transition("q", "a", "2", "q")],
        ParityCondition(Alphabet(["2"]), {"2": 2}),
    )
    _, ok = run_deterministic(loop, LassoWord.from_letters("", "a"))
    assert ok


def test_run_deterministic_rejects_nondeterministic(running_condition):
    gfg = build_gfg_rabin(running_condition)
    with pytest.raises(AutomatonError):
        run_deterministic(gfg.automaton, LassoWord.from_letters("", "a"))


def random_deterministic_automaton(rng, acceptance_kind):
    """A complete deterministic automaton with random moves and colours,
    under parity or Rabin acceptance."""
    states = list(range(rng.randint(1, 6)))
    alphabet = Alphabet("abc"[: rng.randint(1, 3)])
    colours = Alphabet([f"c{i}" for i in range(rng.randint(1, 5))])
    if acceptance_kind == "parity":
        acceptance = ParityCondition(
            colours, {c: rng.randrange(5) for c in colours.symbols}
        )
    else:
        pairs = []
        for _ in range(rng.randint(1, 3)):
            green = [c for c in colours if rng.random() < 0.4]
            red = [c for c in colours if c not in green and rng.random() < 0.4]
            pairs.append((green, red))
        acceptance = RabinCondition(colours, pairs)
    transitions = [
        Transition(q, a, rng.choice(colours.symbols), rng.choice(states))
        for q in states
        for a in alphabet.symbols
    ]
    return named_automaton(states, alphabet, [rng.choice(states)], transitions, acceptance)


def test_deterministic_lasso_checker_agrees_with_run_deterministic():
    rng = random.Random(1133)
    for trial in range(300):
        aut = random_deterministic_automaton(rng, ("parity", "rabin")[trial % 2])
        checker = DeterministicLassoChecker.from_automaton(aut)
        for w in lassos_up_to(aut.alphabet, 3):
            assert checker.accepts(w) == run_deterministic(aut, w)[1], (trial, w)


def test_deterministic_lasso_checker_rejects_nondeterministic(running_condition):
    gfg = build_gfg_rabin(running_condition)
    with pytest.raises(AutomatonError):
        DeterministicLassoChecker.from_automaton(gfg.automaton)


def test_is_deterministic_decided_at_construction(running_condition):
    assert build_parity_automaton(running_condition).is_deterministic
    colours = ParityCondition(Alphabet(["2"]), {"2": 2})
    cases = [
        # two initial states
        (["p", "q"], ["p", "q"], [("p", "a", "2", "q"), ("q", "a", "2", "p")]),
        # no move from q
        (["p", "q"], ["p"], [("p", "a", "2", "q")]),
        # two moves from p
        (["p", "q"], ["p"], [("p", "a", "2", "q"), ("p", "a", "2", "p"), ("q", "a", "2", "q")]),
    ]
    for states, initial, transitions in cases:
        aut = named_automaton(states, Alphabet("a"), initial, transitions, colours)
        assert aut.is_deterministic is False
        with pytest.raises(AutomatonError):
            run_deterministic(aut, LassoWord.from_letters("", "a"))
    assert build_gfg_rabin(running_condition).automaton.is_deterministic is False


def test_accepts_lasso_examples(running_condition):
    checker = RabinLassoChecker.from_automaton(fig2_automaton(running_condition))
    assert checker.accepts(LassoWord.from_letters("", "ab"))
    assert not checker.accepts(LassoWord.from_letters("", "c"))
    partial = named_automaton(
        [0],
        Alphabet("ab"),
        [0],
        [Transition(0, "a", "c0", 0)],
        RabinCondition(Alphabet(["c0"]), [(["c0"], [])]),
    )
    assert not RabinLassoChecker.from_automaton(partial).accepts(LassoWord.from_letters("", "b"))


def test_automaton_repr(running_condition):
    gfg, parity = build_gfg_rabin(running_condition), build_parity_automaton(running_condition)
    assert repr(gfg.automaton) == "Automaton(2 states, 9 transitions, Rabin acceptance)"
    assert repr(parity) == "Automaton(3 states, 9 transitions, Parity acceptance)"


def test_has_duplicated_edges(running_condition):
    fig2 = fig2_automaton(running_condition)
    assert has_duplicated_edges(fig2)
    fig4 = build_gfg_rabin(running_condition).merged
    assert not has_duplicated_edges(fig4)
    single = named_automaton(
        [0],
        Alphabet("a"),
        [0],
        [Transition(0, "a", "c0", 0)],
        RabinCondition(Alphabet(["c0"]), [(["c0"], [])]),
    )
    assert not has_duplicated_edges(single)


def test_simplify_rabin_matches_fig4(running_condition):
    fig4 = scan_simplify_rabin(fig2_automaton(running_condition))
    assert fig4.states == (1, 2)
    expected = {
        Transition(1, "a", "(n3n4)", 1),
        Transition(1, "b", "(n0n1)", 1),
        Transition(1, "c", "n0", 1),
        Transition(1, "c", "n2", 2),
        Transition(2, "a", "n2", 1),
        Transition(2, "b", "n0", 1),
        Transition(2, "c", "n5", 2),
    }
    assert set(fig4.transitions) == expected
    pairs = fig4.acceptance
    assert len(pairs) == 2
    (g0, r0), (g1, r1) = letter_pairs(pairs)
    assert set(g0.names()) == {"n1", "(n0n1)"}
    assert set(r0.names()) == {"n0", "n2", "n4", "n5"}
    assert set(g1.names()) == {"n2"}
    assert set(r1.names()) == {"n0", "n1", "n3", "(n0n1)"}


def test_simplify_rabin_without_duplicates_is_identity_up_to_colours():
    aut = named_automaton(
        [0, 1],
        Alphabet("a"),
        [0],
        [Transition(0, "a", "c0", 1), Transition(1, "a", "c1", 0)],
        RabinCondition(Alphabet(["c0", "c1"]), [(["c0"], ["c1"])]),
    )
    out = scan_simplify_rabin(aut)
    assert set(out.transitions) == set(aut.transitions)
    assert [(g.names(), r.names()) for g, r in letter_pairs(out.acceptance)] == [
        (("c0",), ("c1",))
    ]


def test_simplify_rabin_preserves_language_random():
    rng = random.Random(31)
    for _ in range(40):
        aut = random_rabin_automaton(rng)
        out = scan_simplify_rabin(aut)
        assert len(out.states) == len(aut.states)
        assert len(out.acceptance) == len(aut.acceptance)
        assert not has_duplicated_edges(out)
        before = RabinLassoChecker.from_automaton(aut)
        after = RabinLassoChecker.from_automaton(out)
        for w in lassos_up_to(aut.alphabet, 4):
            assert before.accepts(w) == after.accepts(w)


def test_export_hoa_rabin_headers(running_condition):
    fig4 = build_gfg_rabin(running_condition).merged
    text = export_hoa(fig4)
    assert "acc-name: Rabin 2" in text
    assert "Acceptance: 4 (Fin(0)&Inf(1))|(Fin(2)&Inf(3))" in text
    assert 'AP: 3 "a" "b" "c"' in text


def test_export_hoa_parity_header():
    loop = named_automaton(
        ["q"],
        Alphabet("a"),
        ["q"],
        [Transition("q", "a", "2", "q")],
        ParityCondition(Alphabet(["2"]), {"2": 2}),
    )
    text = export_hoa(loop)
    assert "acc-name: parity max even 3" in text
    assert "Acceptance: 3 Inf(2) | (Fin(1) & Inf(0))" in text


def test_hoa_round_trip(running_condition):
    for aut in (
        fig2_automaton(running_condition),
        build_gfg_rabin(running_condition).merged,
        build_parity_automaton(running_condition),
    ):
        text = export_hoa(aut)
        parsed = parse_hoa(text)
        assert hoa_signature(parsed) == hoa_signature(aut)
        assert export_hoa(parsed) == text


def test_export_hoa_rejects_muller():
    aut = named_automaton(
        [0],
        Alphabet("a"),
        [0],
        [Transition(0, "a", "x", 0)],
        MullerCondition(Alphabet(["x"]), [["x"]]),
    )
    with pytest.raises(AutomatonError):
        export_hoa(aut)


@pytest.mark.parametrize("write", [export_hoa, hoa_signature], ids=lambda f: f.__name__)
def test_hoa_writers_refuse_muller_acceptance(write):
    # Both read the marks through one check of the acceptance type.
    aut = named_automaton(
        [0],
        Alphabet("a"),
        [0],
        [Transition(0, "a", "x", 0)],
        MullerCondition(Alphabet(["x"]), [["x"]]),
    )
    with pytest.raises(AutomatonError, match="HOA export supports Rabin and parity acceptance only"):
        write(aut)


def test_export_dot(running_condition):
    fig2 = fig2_automaton(running_condition)
    dot = export_dot(fig2)
    assert dot == export_dot(fig2)
    assert dot.count("shape=circle") == 2
    assert dot.count(" -> ") == 9 + 1  # nine transitions plus the initial arrow
    assert '[label="a : n3"]' in dot
    empty = named_automaton(
        [0],
        Alphabet("a"),
        [0],
        [Transition(0, "a", "x", 0)],
        RabinCondition(Alphabet(["x"]), []),
    )
    nodes_only = export_dot(
        named_automaton([0], Alphabet("a"), [0], [], RabinCondition(Alphabet(["x"]), []))
    )
    assert nodes_only.count("shape=circle") == 1
    assert nodes_only.count('label="a') == 0


QUOTED_LETTERS = ["a\"b", "c\\d", "e f"]


def dot_labels(dot):
    """Every `label="..."` of a DOT text, its `\\"` and `\\\\` escapes read back."""
    return [
        re.sub(r"\\(.)", r"\1", text)
        for text in re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)
    ]


def test_dot_labels_escape_quotes_and_backslashes():
    condition = MullerCondition(Alphabet(QUOTED_LETTERS), [QUOTED_LETTERS[:2], QUOTED_LETTERS[2:]])
    tree = build_zielonka(condition)
    assert dot_labels(tree.to_dot()) == [
        "{%s}" % ",".join(tree.label(n)) for n in range(len(tree))
    ]
    named = named_automaton(
        ['s"0', "t\\1"],
        Alphabet(QUOTED_LETTERS[:2]),
        ['s"0'],
        [Transition('s"0', 'a"b', 'x"y', "t\\1"), Transition("t\\1", "c\\d", 'x"y', 's"0')],
        RabinCondition(Alphabet(['x"y']), [(['x"y'], [])]),
    )
    for automaton in (build_gfg_rabin(condition).automaton, build_parity_automaton(tree), named):
        letters, colours = automaton.alphabet.symbols, automaton.colour_alphabet.symbols
        edges = sorted(
            (s, a, d, colours[c])
            for s, row in enumerate(automaton.moves)
            for a, cell in enumerate(row)
            for c, d in cell
        )
        assert dot_labels(export_dot(automaton)) == [str(q) for q in automaton.states] + [
            f"{letters[a]} : {colour}" for _, a, _, colour in edges
        ]


def test_accepts_lasso_agrees_with_deterministic(running_condition):
    parity = build_parity_automaton(running_condition)
    rabin = named_automaton(
        parity.states,
        parity.alphabet,
        parity.initial,
        parity.transitions,
        rabin_from_parity(parity.acceptance),
    )
    checker = RabinLassoChecker.from_automaton(rabin)
    for w in lassos_up_to(parity.alphabet, 3):
        _, expected = run_deterministic(parity, w)
        assert checker.accepts(w) == expected


def test_accepts_lasso_rotation_and_pumping(running_condition):
    aut = fig2_automaton(running_condition)
    checker = RabinLassoChecker.from_automaton(aut)
    rng = random.Random(71)
    letters = aut.alphabet.symbols
    for _ in range(80):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        base = checker.accepts(LassoWord(u, v))
        assert checker.accepts(LassoWord(u, v + v)) == base
        k = rng.randrange(len(v))
        assert checker.accepts(LassoWord(u + v[:k], v[k:] + v[:k])) == base


def random_nondeterministic_rabin_automaton(rng):
    """1-6 states over 1-3 letters, 0-3 moves per (state, letter), 1-3
    initial states and 1-4 Rabin pairs over 1-5 colours."""
    states = list(range(rng.randint(1, 6)))
    alphabet = Alphabet("abc"[: rng.randint(1, 3)])
    colours = Alphabet([f"c{i}" for i in range(rng.randint(1, 5))])
    transitions = [
        Transition(q, a, rng.choice(colours.symbols), rng.choice(states))
        for q in states
        for a in alphabet
        for _ in range(rng.randint(0, 3))
    ]
    pairs = []
    for _ in range(rng.randint(1, 4)):
        green = [c for c in colours if rng.random() < 0.4]
        red = [c for c in colours if c not in green and rng.random() < 0.4]
        pairs.append((green, red))
    initial = rng.sample(states, min(len(states), rng.randint(1, 3)))
    return named_automaton(states, alphabet, initial, transitions, RabinCondition(colours, pairs))


def test_rabin_lasso_checker_agrees_with_reference_on_longer_periods():
    # Every lasso with |u| <= 2 and |v| <= 4.  Periods of length 4 include
    # powers such as `abab` and rotations of one Lyndon word, whose verdicts
    # the checker derives from that word's; the reference searches every
    # period from scratch.
    rng = random.Random(2204)
    for trial in range(200):
        aut = random_nondeterministic_rabin_automaton(rng)
        checker = RabinLassoChecker.from_automaton(aut)
        reference = ReferenceRabinLassoChecker(aut)
        for w in lassos_up_to(aut.alphabet, 4, max_prefix=2):
            assert checker.accepts(w) == reference.accepts(w), (trial, w)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rabin_lasso_checker_agrees_with_reference_on_fn(n):
    aut = build_gfg_rabin(condition_fn(n)).automaton
    checker = RabinLassoChecker.from_automaton(aut)
    reference = ReferenceRabinLassoChecker(aut)
    for w in lassos_up_to(aut.alphabet, 3, max_prefix=2):
        assert checker.accepts(w) == reference.accepts(w), w


def test_lasso_checkers_read_a_long_prefix_without_recursion(running_condition):
    # A prefix far deeper than Python's recursion limit, read by a fresh
    # checker: the verdict is the short lasso's, and the prefix is memoised.
    checkers = (
        RabinLassoChecker.from_automaton(build_gfg_rabin(running_condition).automaton),
        DeterministicLassoChecker.from_automaton(build_parity_automaton(running_condition)),
    )
    for checker in checkers:
        for prefix in (("a",) * 5000, ("c", "a", "b") * 1667):
            for period in (("b",), ("a", "c"), ("c",), ("a", "b", "c")):
                long, short = LassoWord(prefix, period), LassoWord(prefix[-2:], period)
                assert checker.accepts(long) == checker.accepts(short), (checker, period)
            assert prefix in checker._prefix_memo


def test_lasso_checkers_reject_letters_outside_the_alphabet(running_condition):
    checkers = (
        RabinLassoChecker.from_automaton(fig2_automaton(running_condition)),
        DeterministicLassoChecker.from_automaton(build_parity_automaton(running_condition)),
    )
    for checker in checkers:
        for w in (LassoWord(("z",), ("b",)), LassoWord((), ("a", "z"))):
            with pytest.raises(AutomatonError, match="'z'"):
                checker.accepts(w)


# SHA-256 of export_hoa, recorded before the tree walk moved to integer tables.
HOA_DIGESTS = {
    ("running", "gfg"): "c12eac6dddea48b69c6bc7499c60b6c256f7ebd75132beb0c586b4b38b8b0d70",
    ("running", "parity"): "d73422d4086343d2c4399472912038476ef60ed97b44dc796ffb9993272fd70e",
    ("F6", "gfg"): "675b0e474e29999845bd24385f7de600ec136deac03d44a632771511e3a221d0",
    ("F6", "parity"): "9ba014cd6c5013a782649235c61743546d4aa8f50baab910544d43355acc1be2",
    ("F8", "gfg"): "b7ede6e6748c62904838cdb62a0bf7e98837f92c653f089c6688cb86a307ce54",
    ("F8", "parity"): "32a4ac7bfcbaac906cf6469eab91b02b5e9786417c28da7eb0cf49e1f0ddad46",
    ("random5", "gfg"): "2ff8d9e6d45cc9a5a0b091a4b401e36095f15e7a1f99373281197e57f6aaea27",
    ("random5", "parity"): "3b0b42a5e4012a70db24a69214104b4fece5fa808e8db3eef7adef80b934d9cd",
    ("running", "simplified"): "9599311d0fb587fdd840640dc1a4bfbfd1ffb65c2d8493a7c9474ea9b8fa1eda",
    ("F6", "simplified"): "43ede2dc9b7769faa7b6bc68fe77ad2d7ca7b8dbad08b0994ad77ea8ff6b7a6c",
    ("F8", "simplified"): "6401779b4dc4d8b91320677573345480606fead29dab14d2be8646b885b51bf5",
    ("random5", "simplified"): "e851065d218a8340b05639abf0a48f27af85cefaa3e577b6f1cfa46d02a61a30",
    ("zero-pairs", "rabin"): "85a54facec30c2d7b9de1de394d12ef0a963f63650821f566945c8b747198648",
}


def test_export_hoa_bytes_are_pinned(running_condition):
    conditions = {
        "running": running_condition,
        "F6": condition_fn(6),
        "F8": condition_fn(8),
        "random5": random_muller_condition(random.Random(2204), Alphabet("abcde")),
    }
    for name, cond in conditions.items():
        gfg = build_gfg_rabin(cond)
        built = {
            "gfg": gfg.automaton,
            "simplified": gfg.merged,
            "parity": build_parity_automaton(cond),
        }
        for kind, aut in built.items():
            digest = hashlib.sha256(export_hoa(aut).encode()).hexdigest()
            assert digest == HOA_DIGESTS[(name, kind)], (name, kind)
    # No pairs: `Acceptance: 0 f`, and no transition carries a mark.
    zero = named_automaton(
        [0, 1],
        Alphabet("ab"),
        [0],
        [(0, "a", "x", 1), (0, "b", "y", 0), (1, "a", "x", 1), (1, "b", "x", 0)],
        RabinCondition(Alphabet(["x", "y"]), []),
    )
    text = export_hoa(zero)
    assert hashlib.sha256(text.encode()).hexdigest() == HOA_DIGESTS[("zero-pairs", "rabin")]
    assert export_hoa(parse_hoa(text)) == text


def hoa_oracle_automata():
    """(automaton, whether to round-trip it) for the writer oracle: the GFG,
    simplified and parity automata of F_2..F_11 and of 16 seeded random
    conditions over at most 7 letters.  Parsing F_10's and F_11's GFG files
    (6 and 21 MB) takes about 2 s, so those two are written but not re-read."""
    conditions = [condition_fn(n) for n in range(2, 12)]
    rng = random.Random(1411)
    conditions += [
        random_muller_condition(rng, Alphabet("abcdefg"[: rng.randint(1, 7)])) for _ in range(16)
    ]
    for cond in conditions:
        gfg = build_gfg_rabin(cond)
        yield gfg.automaton, len(gfg.automaton.transitions) < 5000
        yield gfg.merged, True
        yield build_parity_automaton(cond), True


def test_export_hoa_matches_the_reference_writer():
    previous = None
    for aut, round_trip in hoa_oracle_automata():
        text = export_hoa(aut)
        assert text == reference_export_hoa(aut)
        signatures = (hoa_signature(aut), reference_hoa_signature(aut))
        others = [previous] if previous is not None else []
        if round_trip:
            parsed = parse_hoa(text)
            assert export_hoa(parsed) == reference_export_hoa(parsed) == text
            others.append((hoa_signature(parsed), reference_hoa_signature(parsed)))
        # Signatures agree with the reference's verdicts, equal or not.
        for new, old in others:
            assert (new == signatures[0]) == (old == signatures[1])
        previous = signatures


def mark_column_automata():
    """Seeded Rabin automata whose colours share mark columns: each colour
    copies one of three columns, the first of them empty, and each
    (state, letter) sends two to five colours to one target."""
    rng = random.Random(1128)
    for _ in range(40):
        colours = Alphabet([f"c{i}" for i in range(rng.randint(2, 6))])
        column = {c: rng.randrange(3) for c in colours}
        pairs = []
        for _ in range(rng.randint(1, 4)):
            green, red = rng.choice([({1}, {2}), ({2}, {1}), ({1, 2}, set()), (set(), {1, 2})])
            pairs.append(tuple([c for c in colours if column[c] in side] for side in (green, red)))
        states = list(range(rng.randint(1, 3)))
        alphabet = Alphabet("ab"[: rng.randint(1, 2)])
        transitions = [
            Transition(q, a, c, d)
            for q in states
            for a in alphabet
            for d in [rng.choice(states)]
            for c in rng.sample(colours.symbols, rng.randint(2, len(colours)))
        ]
        yield named_automaton(
            states, alphabet, states[:1], transitions, RabinCondition(colours, pairs)
        )


def test_export_hoa_orders_shared_cells_as_the_reference_writer():
    # Lines of one (state, letter, target) cell differ only in their marks,
    # so their order is the sort key's alone.
    rng = random.Random(2204)
    automata = [random_nondeterministic_rabin_automaton(rng) for _ in range(200)]
    shared = 0
    for aut in automata + list(mark_column_automata()):
        assert export_hoa(aut) == reference_export_hoa(aut)
        for row in aut.moves:
            for cell in row:
                targets = [d for _, d in set(cell)]
                shared += sum(1 for d in set(targets) if targets.count(d) > 1)
    assert shared >= 50


def test_export_hoa_matches_the_reference_writer_on_random_marks():
    # Seeded Rabin automata with 1-14 colours and 0-12 pairs: red runs long
    # and short, pairs without red, colours with no mark, and cells that are
    # empty or hold several moves.  The GFG automata of the pins above have
    # only the marks of tree nodes.
    rng = random.Random(3111)
    seen = dict.fromkeys(["no red", "no mark", "empty cell", "shared cell"], 0)
    for _ in range(2000):
        width = rng.randint(1, 14)
        pairs = []
        for _ in range(rng.randint(0, 12)):
            green_share, red_share = rng.choice([0.1, 0.3]), rng.choice([0.0, 0.5, 0.9])
            green = sum(1 << c for c in range(width) if rng.random() < green_share)
            red = sum(
                1 << c for c in range(width) if not green >> c & 1 and rng.random() < red_share
            )
            pairs.append((green, red))
            seen["no red"] += not red
        states, letters = rng.randint(1, 4), rng.randint(1, 3)
        moves = [
            [
                [(rng.randrange(width), rng.randrange(states)) for _ in range(rng.randint(0, 3))]
                for _ in range(letters)
            ]
            for _ in range(states)
        ]
        colours = Alphabet([f"c{i}" for i in range(width)])
        aut = Automaton(
            range(states), Alphabet("abc"[:letters]), [0], moves, RabinCondition(colours, pairs)
        )
        assert export_hoa(aut) == reference_export_hoa(aut)
        marked = 0
        for green, red in pairs:
            marked |= green | red
        cells = [cell for row in moves for cell in row]
        seen["no mark"] += any(not marked >> c & 1 for cell in cells for c, _ in cell)
        seen["empty cell"] += any(not cell for cell in cells)
        seen["shared cell"] += any(len(cell) > 1 for cell in cells)
    assert min(seen.values()) >= 100, seen


def test_lyndon_words_are_the_least_rotations_of_primitive_words():
    for letters in range(1, 5):
        for bound in range(1, 6):
            words = [
                w
                for n in range(1, bound + 1)
                for w in itertools.product(range(letters), repeat=n)
                if all(w < w[i:] + w[:i] for i in range(1, n))
            ]
            assert list(lyndon_words(letters, bound)) == sorted(words), (letters, bound)
    assert len(list(lyndon_words(4, 4))) == 90


def running_hoa_lines(running_condition):
    return export_hoa(fig2_automaton(running_condition)).splitlines()


HOA_DEFECTS = {
    "no-States": (lambda ls: [ln for ln in ls if not ln.startswith("States:")], "'States:'"),
    "no-AP": (lambda ls: [ln for ln in ls if not ln.startswith("AP:")], "'AP:'"),
    "no-acc-name": (lambda ls: [ln for ln in ls if not ln.startswith("acc-name:")], "'acc-name:'"),
    "States-two": (lambda ls: [ln.replace("States: 2", "States: two") for ln in ls], "line 2"),
    "Start-x": (lambda ls: [ln.replace("Start: 0", "Start: x") for ln in ls], "line 3"),
    "State-x": (lambda ls: [ln.replace("State: 1", "State: x") for ln in ls], "line 16"),
    "destination": (lambda ls: ls[:9] + [ls[9].replace("] 0", "] zero")] + ls[10:], "line 10"),
    # A header that contradicts the body: the acc-name's formula, the
    # Acceptance: line itself, and the count of quoted AP names.
    "Acceptance-Inf": (
        lambda ls: [ln.replace("4 (Fin(0)&Inf(1))|(Fin(2)&Inf(3))", "1 Inf(0)") for ln in ls],
        "line 6",
    ),
    "no-Acceptance": (lambda ls: [ln for ln in ls if not ln.startswith("Acceptance:")], "'Acceptance:'"),
    "AP-nine": (lambda ls: [ln.replace("AP: 3", "AP: 9") for ln in ls], "line 4"),
    # One "State:" block for each declared state, and none for any other.
    "State-5": (lambda ls: [ln.replace("State: 1", "State: 5") for ln in ls], "line 16"),
    "State-0-twice": (lambda ls: [ln.replace("State: 1", "State: 0") for ln in ls], "line 16"),
    "States-three": (lambda ls: [ln.replace("States: 2", "States: 3") for ln in ls], "line 2"),
    "no-State-0": (lambda ls: [ln for ln in ls if ln != "State: 0"], "line 9"),
    # Body and acceptance lines the parser does not read.
    "no-BODY": (lambda ls: [ln for ln in ls if ln != "--BODY--"], "--BODY--"),
    "acc-name-Buchi": (lambda ls: [ln.replace("Rabin 2", "Buchi") for ln in ls], "HOA line 5"),
    "two-letter-label": (lambda ls: ls[:9] + ["[0&1&!2] 0 {0}"] + ls[10:], "line 10"),
    "AP-7": (lambda ls: ls[:9] + ["[7] 0 {0}"] + ls[10:], "line 10"),
    "junk-body-line": (lambda ls: ls[:9] + ["junk"] + ls[10:], "line 10"),
    "parity-two-marks": (
        lambda ls: [
            "acc-name: parity max even 4" if ln.startswith("acc-name:")
            else "Acceptance: 4 Fin(3) & (Inf(2) | (Fin(1) & Inf(0)))"
            if ln.startswith("Acceptance:") else ln
            for ln in ls
        ],
        "HOA line 12",
    ),
}


@pytest.mark.parametrize("defect", sorted(HOA_DEFECTS))
def test_parse_hoa_names_the_offending_line(running_condition, defect):
    edit, where = HOA_DEFECTS[defect]
    lines = edit(export_hoa(fig2_automaton(running_condition)).splitlines())
    with pytest.raises(AutomatonError) as err:
        parse_hoa("\n".join(lines) + "\n")
    assert where in str(err.value)


@pytest.mark.parametrize(
    "acc_name, marks",
    [("Rabin 1", "{7}"), ("Rabin 1", "{1 2}"), ("Rabin 0", "{0}"), ("parity max even 3", "{3}"),
     ("parity max even 3", "{-1}")],
)
def test_parse_hoa_rejects_marks_outside_the_declared_sets(acc_name, marks):
    acceptance = {
        "Rabin 0": "0 f", "Rabin 1": "2 (Fin(0)&Inf(1))",
        "parity max even 3": "3 Inf(2) | (Fin(1) & Inf(0))",
    }[acc_name]

    def document(marks):
        return "\n".join([
            "HOA: v1", "States: 1", "Start: 0", 'AP: 1 "a"', f"acc-name: {acc_name}",
            f"Acceptance: {acceptance}", "--BODY--", "State: 0", f"[0] 0 {marks}", "--END--",
        ])

    parse_hoa(document("{0}" if acc_name != "Rabin 0" else ""))
    with pytest.raises(AutomatonError, match="HOA line 9: acceptance mark outside"):
        parse_hoa(document(marks))


def test_parse_hoa_checks_set_counts():
    # The formula an acc-name stands for is built only when the Acceptance:
    # line is long enough to hold it, and without recursing per priority.
    def document(acc_name, acceptance):
        return "\n".join([
            "HOA: v1", "States: 1", "Start: 0", 'AP: 1 "a"', f"acc-name: {acc_name}",
            f"Acceptance: {acceptance}", "--BODY--", "State: 0", "[0] 0 {0}", "--END--",
        ])

    with pytest.raises(AutomatonError, match="HOA line 5: too few"):
        parse_hoa(document("Rabin -1", "-2 f"))
    with pytest.raises(AutomatonError, match="HOA line 5: too few"):
        parse_hoa(document("parity max even 0", "0 Inf(0)"))
    with pytest.raises(AutomatonError, match="HOA line 6"):
        parse_hoa(document("parity max even 100000000", "100000000 Inf(0)"))
    with pytest.raises(AutomatonError, match="HOA line 6"):
        parse_hoa(document("Rabin 100000000", "200000000 f"))
    top = 3000
    formula = export_hoa(named_automaton(
        [0], Alphabet("a"), [0], [Transition(0, "a", "c", 0)],
        ParityCondition(Alphabet(["c"]), {"c": top}),
    )).splitlines()[5].partition(" ")[2]
    parsed = parse_hoa(document(f"parity max even {top + 1}", formula))
    assert dict(zip(parsed.colour_alphabet, parsed.acceptance.priorities)) == {"m0": 0}


def random_table_automaton_args(rng, acceptance_kind):
    """The constructor arguments of a random automaton: 1-6 states over 1-3
    letters, 0-3 moves per (state, letter) with some repeated verbatim, in
    shuffled order, 1-3 initial states, and Rabin or parity acceptance."""
    states = list(range(rng.randint(1, 6)))
    alphabet = Alphabet("abc"[: rng.randint(1, 3)])
    colours = Alphabet([f"c{i}" for i in range(rng.randint(1, 5))])
    if acceptance_kind == "parity":
        acceptance = ParityCondition(colours, {c: rng.randrange(5) for c in colours.symbols})
    else:
        pairs = []
        for _ in range(rng.randint(1, 3)):
            green = [c for c in colours if rng.random() < 0.4]
            red = [c for c in colours if c not in green and rng.random() < 0.4]
            pairs.append((green, red))
        acceptance = RabinCondition(colours, pairs)
    transitions = [
        Transition(q, a, rng.choice(colours.symbols), rng.choice(states))
        for q in states
        for a in alphabet
        for _ in range(rng.randint(0, 3))
    ]
    transitions += rng.sample(transitions, min(len(transitions), rng.randint(0, 2)))
    rng.shuffle(transitions)
    initial = rng.sample(states, min(len(states), rng.randint(1, 3)))
    return states, alphabet, initial, transitions, acceptance


def assert_table_matches_transitions(aut):
    """`moves` and `start` rebuilt by name from `transitions` and `initial`,
    and `is_deterministic` by counting transitions and (state, letter) keys."""
    index = {q: i for i, q in enumerate(aut.states)}
    letter, colour = aut.alphabet.index, aut.colour_alphabet.index
    moves = [[[] for _ in aut.alphabet] for _ in aut.states]
    for t in aut.transitions:
        moves[index[t.src]][letter(t.letter)].append((colour(t.colour), index[t.dst]))
    assert [[list(cell) for cell in row] for row in aut.moves] == moves
    assert list(aut.start) == [index[q] for q in aut.initial]
    keys = {(t.src, t.letter) for t in aut.transitions}
    assert aut.is_deterministic == (
        len(aut.initial) == 1
        and len(aut.transitions) == len(keys) == len(aut.states) * len(aut.alphabet)
    )
    for q in aut.states:
        for a in aut.alphabet:
            expected = tuple(t for t in aut.transitions if (t.src, t.letter) == (q, a))
            assert transitions_from(aut, q, a) == expected


def test_automaton_moves_match_transitions():
    rng = random.Random(1110)
    kinds = 0
    for trial in range(300):
        if trial % 3 == 0:
            aut = random_deterministic_automaton(rng, ("parity", "rabin")[trial % 2])
        else:
            args = random_table_automaton_args(rng, ("parity", "rabin")[trial % 2])
            aut = named_automaton(*args)
            # Repeated transitions keep their first place.
            assert aut.transitions == tuple(dict.fromkeys(args[3]))
        assert_table_matches_transitions(aut)
        kinds |= 1 << aut.is_deterministic
    assert kinds == 3  # both deterministic and nondeterministic automata ran
    for n in range(2, 9):
        tree = build_zielonka(condition_fn(n))
        assert_table_matches_transitions(build_gfg_rabin(tree).automaton)
        assert_table_matches_transitions(build_parity_automaton(tree))


# SHA-256 of export_dot, recorded before export read the move table.
DOT_DIGESTS = {
    "gfg": "3a1fe5f6b33768d618a94d9db37b20ef2e0f2bbff955e8fd65274cd3093f48a7",
    "simplified": "12bf4e19f97bb19e146632786cebd3357b0745ff899f0bc3d363bb2e303b8fe9",
    "parity": "fda6cfcea1455b3ed78a1313f90389f130ae3b0f15116f2eb485b9b2b6f84495",
    "F6-gfg": "814409509fbf3be0541ff4b7a36dfd0d2eaf7f3425936fcba2f0c16545f8fd71",
}


def test_export_dot_bytes_are_pinned(running_condition):
    gfg = build_gfg_rabin(running_condition)
    built = {
        "gfg": gfg.automaton,
        "simplified": gfg.merged,
        "parity": build_parity_automaton(running_condition),
        "F6-gfg": build_gfg_rabin(condition_fn(6)).automaton,
    }
    for name, aut in built.items():
        assert hashlib.sha256(export_dot(aut).encode()).hexdigest() == DOT_DIGESTS[name], name


def assert_simplified_like_reference(aut):
    got, want = scan_simplify_rabin(aut), reference_simplify_rabin(aut)
    assert got.transitions == want.transitions
    assert got.colour_alphabet.symbols == want.colour_alphabet.symbols
    assert got.acceptance.pairs == want.acceptance.pairs
    assert (got.states, got.initial) == (want.states, want.initial)
    return got


def test_simplify_rabin_matches_reference():
    rng = random.Random(4111)
    for _ in range(200):
        assert_simplified_like_reference(random_nondeterministic_rabin_automaton(rng))
    for n in range(4, 9):
        assert_simplified_like_reference(build_gfg_rabin(condition_fn(n)).automaton)
    # The bundle of c0 and c1 would be named "(c0c1)", which is taken twice.
    colours = Alphabet(["c0", "c1", "(c0c1)", "(c0c1)'"])
    aut = named_automaton(
        [0, 1],
        Alphabet("ab"),
        [0],
        [(0, "a", "c1", 1), (0, "a", "c0", 1), (0, "b", "(c0c1)", 0), (1, "a", "c0", 0)],
        RabinCondition(colours, [(["c0"], ["c1", "(c0c1)'"]), (["(c0c1)"], ["c0", "c1"])]),
    )
    out = assert_simplified_like_reference(aut)
    assert out.colour_alphabet.symbols[-1] == "(c0c1)''"
    assert Transition(0, "a", "(c0c1)''", 1) in out.transitions


@pytest.mark.parametrize(
    "states, initial, transitions, message",
    [
        (["p", "p"], ["p"], [], "duplicate states"),
        (["p"], [], [], "at least one initial state is required"),
        (["p"], ["q"], [], "initial state 'q' not among the states"),
        (["p"], ["p"], [("p", "a", "x", "q")], "uses an unknown state"),
        (["p"], ["p"], [("p", "z", "x", "p")], "transition letter 'z' not in input alphabet"),
        (["p"], ["p"], [("p", "a", "y", "p")], "transition colour 'y' not in output alphabet"),
    ],
    ids=["duplicate-state", "no-initial", "unknown-initial", "unknown-target",
         "unknown-letter", "unknown-colour"],
)
def test_named_automaton_constructor_errors(states, initial, transitions, message):
    acceptance = ParityCondition(Alphabet(["x"]), {"x": 0})
    with pytest.raises(AutomatonError, match=message):
        named_automaton(states, Alphabet("ab"), initial, transitions, acceptance)


def test_rabin_tools_refuse_a_parity_automaton(running_condition):
    parity = build_parity_automaton(running_condition)
    with pytest.raises(AutomatonError, match="lasso membership oracle expects Rabin acceptance"):
        RabinLassoChecker.from_automaton(parity)
    with pytest.raises(AutomatonError, match="simplify_rabin expects Rabin acceptance"):
        scan_simplify_rabin(parity)
