import itertools
import json
import random
from pathlib import Path

import pytest

from mullergames.automata import (
    DeterministicLassoChecker,
    RabinLassoChecker,
    Transition,
    export_dot,
    export_hoa,
    run_deterministic,
)
from mullergames.conditions import (
    Alphabet,
    ConditionError,
    LassoWord,
    MullerCondition,
    RabinCondition,
    condition_from_dict,
    inf_set,
    satisfies_muller,
)
from mullergames.construction import (
    build_gfg_rabin,
    build_parity_automaton,
    node_priorities,
    node_rabin_pairs,
    provenance_document,
    resolve_run,
)
from mullergames.games import EXIST, GameGraph, product_with_automaton
from mullergames.succinctness import condition_fn
from mullergames.zielonka import build_zielonka
from conftest import (
    all_muller_conditions,
    check_node_sequence,
    check_quotient,
    letter_pairs,
    pair_colour,
    provenance_rows,
    random_muller_condition,
    reference_build_gfg_rabin,
    reference_build_parity_automaton,
    reference_is_ancestor,
    reference_step,
    scan_simplify_rabin,
    table_oracle_conditions,
    transitions_from,
    used_colours_only,
)

ALPHA, BETA, GAMMA, DELTA, EPS, ZETA = range(6)

PERFBENCH_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


def fn_condition(n):
    alphabet = Alphabet([str(i) for i in range(1, n + 1)])
    return MullerCondition(
        alphabet, list(itertools.combinations(alphabet.symbols, n // 2))
    )


def all_lassos(alphabet, max_prefix, max_period):
    symbols = alphabet.symbols
    for lu in range(max_prefix + 1):
        for prefix in itertools.product(symbols, repeat=lu):
            for lv in range(1, max_period + 1):
                for period in itertools.product(symbols, repeat=lv):
                    yield LassoWord(prefix, period)


def test_node_rabin_pairs_running_example(running_tree):
    pairs = node_rabin_pairs(running_tree)
    assert len(pairs) == 2
    (g0, r0), (g1, r1) = letter_pairs(pairs)
    assert g0.names() == ("n1",) and set(r0.names()) == {"n0", "n2", "n4", "n5"}
    assert g1.names() == ("n2",) and set(r1.names()) == {"n0", "n1", "n3"}


def test_node_rabin_pairs_match_ancestor_comprehension():
    for cond in table_oracle_conditions():
        tree = build_zielonka(cond)
        names = [tree.node_name(m) for m in range(len(tree))]
        expected = [
            (
                (names[n],),
                tuple(
                    names[m]
                    for m in range(len(tree))
                    if m != n and not reference_is_ancestor(tree, n, m)
                ),
            )
            for n in range(len(tree))
            if tree.is_round(n)
        ]
        got = [(g.names(), r.names()) for g, r in letter_pairs(node_rabin_pairs(tree))]
        assert got == expected


def test_node_rabin_pairs_degenerate_trees():
    single = build_zielonka(MullerCondition(Alphabet("a"), [["a"]]))
    pairs = node_rabin_pairs(single)
    assert len(pairs) == 1
    assert letter_pairs(pairs)[0][0].names() == ("n0",)
    assert letter_pairs(pairs)[0][1].names() == ()
    empty = build_zielonka(MullerCondition(Alphabet("a"), []))
    assert len(node_rabin_pairs(empty)) == 0


def test_check_node_sequence_examples(running_tree):
    assert check_node_sequence(running_tree, LassoWord((), ("n2",)))
    assert not check_node_sequence(running_tree, LassoWord((), ("n1", "n2")))
    assert not check_node_sequence(running_tree, LassoWord((), ("n3",)))
    with pytest.raises(ConditionError):
        check_node_sequence(running_tree, LassoWord((), ("n9",)))


def test_check_node_sequence_agreement_random_trees():
    rng = random.Random(41)
    for _ in range(25):
        cond = random_muller_condition(rng, Alphabet("abc"))
        tree = build_zielonka(cond)
        if len(tree) > 8:
            continue
        names = [tree.node_name(n) for n in range(len(tree))]
        for _ in range(40):
            period = tuple(
                rng.choice(names) for _ in range(rng.randint(1, 2 * len(tree)))
            )
            check_node_sequence(tree, LassoWord((), period))


def test_gfg_rabin_matches_fig2(running_condition):
    gfg = build_gfg_rabin(running_condition)
    aut = gfg.automaton
    assert aut.states == (1, 2)
    assert aut.initial == (1,)
    expected = {
        Transition(1, "a", "n3", 1),
        Transition(1, "b", "n1", 1),
        Transition(1, "c", "n0", 1),
        Transition(1, "a", "n4", 1),
        Transition(1, "b", "n0", 1),
        Transition(1, "c", "n2", 2),
        Transition(2, "a", "n2", 1),
        Transition(2, "b", "n0", 1),
        Transition(2, "c", "n5", 2),
    }
    assert set(aut.transitions) == expected
    assert len(aut.transitions) == 9


def acceptance_of(aut):
    if isinstance(aut.acceptance, RabinCondition):
        return aut.acceptance.pairs
    return aut.acceptance.priorities


def test_table_builders_match_the_named_builders():
    for cond in [*table_oracle_conditions(), condition_fn(9), condition_fn(10)]:
        tree = build_zielonka(cond)
        gfg, parity = build_gfg_rabin(tree), build_parity_automaton(tree)
        simple = gfg.merged
        game = GameGraph([("x", EXIST)], [("x", a, "x") for a in cond.alphabet], "x", cond)
        for aut in (gfg.automaton, simple, parity):
            export_hoa(aut)
            export_dot(aut)
            product_with_automaton(game, aut)
        RabinLassoChecker.from_automaton(gfg.automaton)
        RabinLassoChecker.from_automaton(simple)
        DeterministicLassoChecker.from_automaton(parity)
        provenance_document(gfg)
        # No program path above names the moves.
        for aut in (gfg.automaton, simple, parity):
            assert "transitions" not in vars(aut)

        reference, reference_parity = (
            reference_build_gfg_rabin(tree), reference_build_parity_automaton(tree)
        )
        for got, want in ((gfg.automaton, reference.automaton), (parity, reference_parity)):
            assert (got.states, got.initial, got.start) == (want.states, want.initial, want.start)
            assert got.moves == want.moves
            assert got.colour_alphabet.symbols == want.colour_alphabet.symbols
            assert acceptance_of(got) == acceptance_of(want)
            assert set(got.transitions) == set(want.transitions)
            for q in want.states:
                for a in cond.alphabet:
                    assert transitions_from(got, q, a) == transitions_from(want, q, a)
        assert parity.transitions == reference_parity.transitions
        assert provenance_document(gfg) == provenance_rows(reference.provenance, tree)


def test_parity_rows_on_demand_match_the_named_builder(monkeypatch):
    """`parity_automaton_on_demand` climbs no leaf until a row is read, then
    each leaf once, and its rows are the named builder's moves; so are the
    rows `build_parity_automaton` reads off the resolver.  Over every
    condition on at most three letters, F_2-F_10 and 200 seeded conditions
    over 4-6 letters."""
    from mullergames.construction import parity_automaton_on_demand
    from mullergames.zielonka import ZielonkaTree

    climbs = []
    row = ZielonkaTree.row
    monkeypatch.setattr(ZielonkaTree, "row", lambda tree, leaf: climbs.append(leaf) or row(tree, leaf))
    rng = random.Random(2026)
    conditions = [
        *(c for letters in ("a", "ab", "abc") for c in all_muller_conditions(Alphabet(letters))),
        *map(condition_fn, range(2, 11)),
        *(random_muller_condition(rng, Alphabet("abcdef"[: rng.randint(4, 6)])) for _ in range(200)),
    ]
    for cond in conditions:
        tree = build_zielonka(cond)
        want = reference_build_parity_automaton(tree)
        climbs.clear()
        lazy = parity_automaton_on_demand(tree)
        assert lazy.is_deterministic and not climbs
        assert (lazy.states, lazy.initial, lazy.start) == (want.states, want.initial, want.start)
        assert lazy.colour_alphabet.symbols == want.colour_alphabet.symbols
        assert acceptance_of(lazy) == acceptance_of(want)
        rows = [lazy.moves[q] for q in reversed(range(len(lazy.states)))][::-1]
        assert rows == want.moves and [lazy.moves[q] for q in range(len(rows))] == rows
        assert sorted(climbs) == sorted(tree.leaves())
        assert build_parity_automaton(build_gfg_rabin(tree)).moves == want.moves


def test_merged_matches_the_pair_scan():
    """The merged automaton read off the tree equals the generic merge of
    the unmerged automaton (each bundle tested against every pair's masks)
    cut to the colours its moves carry, in their order: colours, pairs,
    moves, states and start.  On the benchmark pool's 30 conditions,
    F_4-F_12 and 200 seeded random ones over one to six letters."""
    pool = json.loads(PERFBENCH_POOL.read_text())["conditions"]
    conditions = [condition_from_dict(entry["doc"]) for entry in pool.values()]
    conditions += [condition_fn(n) for n in range(4, 13)]
    rng = random.Random(4112)
    conditions += [
        random_muller_condition(rng, Alphabet("abcdef"[: rng.randint(1, 6)])) for _ in range(200)
    ]
    bundled = 0
    for cond in conditions:
        gfg = build_gfg_rabin(cond)
        got, want = gfg.merged, used_colours_only(scan_simplify_rabin(gfg.automaton))
        assert got.colour_alphabet.symbols == want.colour_alphabet.symbols
        assert got.acceptance.pairs == want.acceptance.pairs
        assert got.moves == want.moves
        assert (got.states, got.start) == (want.states, want.start)
        bundled += any(name.startswith("(") for name in got.colour_alphabet)
    assert len(conditions) == 239 and bundled >= 100, bundled


def test_gfg_rabin_provenance_first_leaf_wins(running_condition):
    gfg = build_gfg_rabin(running_condition)
    document = provenance_document(gfg)
    # Reading b from leaf eps(4) produces the same quadruple as no other
    # leaf; reading a from delta(3) yields (1,a,n3,1) with witness delta.
    first = {Transition(1, "a", "n3", 1): (3, 3, 3), Transition(1, "b", "n0", 1): (4, 0, 3)}
    for row in provenance_rows(first, gfg.tree):
        assert row in document
    assert document == provenance_rows(reference_build_gfg_rabin(gfg.tree).provenance, gfg.tree)


def test_provenance_document_builds_no_unmerged_automaton(running_condition):
    # The document is read off the tree walk: the unmerged automaton, its
    # node-name colours and its Rabin pairs are never built.
    for condition in (running_condition, condition_fn(6)):
        gfg = build_gfg_rabin(condition)
        provenance_document(gfg)
        assert "automaton" not in vars(gfg)


def test_gfg_rabin_single_letter():
    gfg = build_gfg_rabin(MullerCondition(Alphabet("a"), [["a"]]))
    aut = gfg.automaton
    assert aut.states == (1,)
    assert set(aut.transitions) == {Transition(1, "a", "n0", 1)}
    assert len(aut.acceptance) == 1
    assert letter_pairs(aut.acceptance)[0][1].names() == ()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gfg_rabin_fn_sizes(n):
    gfg = build_gfg_rabin(fn_condition(n))
    assert len(gfg.automaton.states) == n // 2


def test_parity_automaton_matches_fig3(running_condition):
    aut = build_parity_automaton(running_condition)
    assert set(aut.states) == {DELTA, EPS, ZETA}
    assert aut.initial == (DELTA,)
    moves = {(t.src, t.letter): t.dst for t in aut.transitions}
    assert moves == {
        (DELTA, "a"): DELTA,
        (DELTA, "b"): DELTA,
        (DELTA, "c"): EPS,
        (EPS, "a"): EPS,
        (EPS, "b"): DELTA,
        (EPS, "c"): ZETA,
        (ZETA, "a"): EPS,
        (ZETA, "b"): DELTA,
        (ZETA, "c"): ZETA,
    }
    assert aut.is_deterministic


def test_parity_priorities_convention(running_tree, running_condition):
    prio = node_priorities(running_tree)
    assert prio == {ALPHA: 3, BETA: 2, GAMMA: 2, DELTA: 1, EPS: 1, ZETA: 1}
    aut = build_parity_automaton(running_condition)
    by_move = {(t.src, t.letter): int(t.colour) for t in aut.transitions}
    assert by_move[(DELTA, "a")] == 1
    assert by_move[(DELTA, "b")] == 2
    assert by_move[(DELTA, "c")] == 3
    assert by_move[(ZETA, "a")] == 2


def test_parity_single_node_tree():
    accept_all = MullerCondition(Alphabet("a"), [["a"]])
    aut = build_parity_automaton(accept_all)
    assert len(aut.states) == 1
    assert all(int(t.colour) % 2 == 0 for t in aut.transitions)
    reject_all = MullerCondition(Alphabet("a"), [])
    aut2 = build_parity_automaton(reject_all)
    assert all(int(t.colour) % 2 == 1 for t in aut2.transitions)


def test_check_quotient_running_example(running_condition):
    gfg = build_gfg_rabin(running_condition)
    parity = build_parity_automaton(running_condition)
    assert check_quotient(parity, gfg, gfg.eta)
    permuted = {DELTA: 2, EPS: 1, ZETA: 1}
    assert not check_quotient(parity, gfg, permuted)


def test_check_quotient_injective_eta_is_isomorphism():
    cond = MullerCondition(Alphabet("ab"), [["a", "b"]])
    gfg = build_gfg_rabin(cond)
    parity = build_parity_automaton(cond)
    assert len(gfg.automaton.states) == len(parity.states)
    assert check_quotient(parity, gfg, gfg.eta)


def test_check_quotient_rejects_foreign_tree(running_condition):
    gfg = build_gfg_rabin(running_condition)
    other = build_parity_automaton(MullerCondition(Alphabet("abc"), [["a"]]))
    with pytest.raises(ConditionError):
        check_quotient(other, gfg, gfg.eta)


def test_resolve_run_examples(running_condition):
    gfg = build_gfg_rabin(running_condition)
    run, ok = resolve_run(gfg, LassoWord.from_letters("", "ac"))
    assert ok
    cycle_colours = {t.colour for t in run.cycle}
    assert "n2" in cycle_colours
    assert cycle_colours <= {"n2", "n4", "n5"}
    _, ok = resolve_run(gfg, LassoWord.from_letters("", "c"))
    assert not ok
    checker = RabinLassoChecker.from_automaton(gfg.automaton)
    assert not checker.accepts(LassoWord.from_letters("", "c"))
    _, ok = resolve_run(gfg, LassoWord.from_letters("", "b"))
    assert ok


def test_resolver_tracks_eta(running_condition):
    gfg = build_gfg_rabin(running_condition)
    tree, transitions = gfg.tree, set(gfg.automaton.transitions)
    rng = random.Random(2)
    letters = [rng.choice(running_condition.alphabet.symbols) for _ in range(200)]
    run, _ = resolve_run(gfg, LassoWord(tuple(letters), ("a",)))
    assert len(run.prefix) == len(letters)
    # The resolver's state is always eta of the leaf the tree walk is on.
    leaf = tree.leftmost_leaf(tree.root)
    assert gfg.automaton.initial == (gfg.eta[leaf],)
    for letter, t in zip(letters, run.prefix):
        witness, target = reference_step(tree, leaf, letter)
        assert t == Transition(gfg.eta[leaf], letter, tree.node_name(witness), gfg.eta[target])
        assert t in transitions
        leaf = target


def test_gfg_automaton_is_the_resolvers_quotient_by_eta():
    for cond in table_oracle_conditions():
        gfg = build_gfg_rabin(cond)
        resolver = gfg.resolver
        assert resolver.is_deterministic
        assert resolver.initial == gfg.automaton.initial
        assert set(resolver.transitions) == set(gfg.automaton.transitions)


def exhaustive_language_check(cond, max_prefix=2, max_period=None):
    max_period = max_period if max_period is not None else 2 * len(cond.alphabet)
    gfg = build_gfg_rabin(cond)
    parity = build_parity_automaton(cond)
    tree = gfg.tree
    assert len(gfg.automaton.states) == tree.memtree()
    assert check_quotient(parity, gfg, gfg.eta)
    checker = RabinLassoChecker.from_automaton(gfg.automaton)
    for w in all_lassos(cond.alphabet, max_prefix, max_period):
        expected = satisfies_muller(cond, inf_set(w))
        assert checker.accepts(w) == expected
        _, det = run_deterministic(parity, w)
        assert det == expected
        _, res = resolve_run(gfg, w)
        assert res == expected


def lasso_checker_conditions(family):
    """Every condition over at most three letters, F_4..F_6, or 50 seeded
    random 4-letter conditions."""
    if family == "up-to-three-letters":
        for letters in ("a", "ab", "abc"):
            yield from all_muller_conditions(Alphabet(letters))
    elif family == "f4-f6":
        for n in range(4, 7):
            yield condition_fn(n)
    else:
        rng = random.Random(2204)
        for _ in range(50):
            yield random_muller_condition(rng, Alphabet("abcd"))


@pytest.mark.parametrize("family", ["up-to-three-letters", "f4-f6", "random-four-letters"])
def test_lasso_checkers_agree_with_runs(family):
    for cond in lasso_checker_conditions(family):
        gfg = build_gfg_rabin(cond)
        parity = build_parity_automaton(cond)
        parity_checker = DeterministicLassoChecker.from_automaton(parity)
        leaf_walk = DeterministicLassoChecker.from_automaton(gfg.resolver)
        for w in all_lassos(cond.alphabet, 2, 4):
            assert parity_checker.accepts(w) == run_deterministic(parity, w)[1], (cond, w)
            assert leaf_walk.accepts(w) == resolve_run(gfg, w)[1], (cond, w)


def test_language_correctness_small_exhaustive():
    for cond in all_muller_conditions(Alphabet("ab")):
        exhaustive_language_check(cond)


def test_language_correctness_three_letters_sampled():
    rng = random.Random(99)
    for _ in range(12):
        cond = random_muller_condition(rng, Alphabet("abc"))
        exhaustive_language_check(cond, max_prefix=1, max_period=4)


def test_trichotomy_per_transition(running_condition):
    rng = random.Random(17)
    conditions = [running_condition] + [
        random_muller_condition(rng, Alphabet("abc")) for _ in range(10)
    ]
    for cond in conditions:
        gfg = build_gfg_rabin(cond)
        tree = gfg.tree
        pairs = gfg.automaton.acceptance
        round_nodes = [n for n in range(len(tree)) if tree.is_round(n)]
        for t in gfg.automaton.transitions:
            colour_id = int(t.colour[1:])
            for j, n in enumerate(round_nodes):
                status = pair_colour(pairs, j, t.colour)
                if colour_id == n:
                    assert status == "green"
                elif reference_is_ancestor(tree, n, colour_id):
                    assert status == "orange"
                else:
                    assert status == "red"


def test_builders_accept_a_tree():
    from mullergames.automata import export_hoa

    for condition in (condition_fn(5), random_muller_condition(random.Random(8), Alphabet("abcd"))):
        tree = build_zielonka(condition)
        gfg = build_gfg_rabin(tree)
        assert gfg.tree is tree
        assert export_hoa(gfg.automaton) == export_hoa(build_gfg_rabin(condition).automaton)
        assert export_hoa(build_parity_automaton(tree)) == export_hoa(
            build_parity_automaton(condition)
        )
