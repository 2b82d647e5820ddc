"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its elapsed time and asserts the
stated time budget.  Expected values are exact (zero tolerance).
"""

import itertools
import math
import random
import time

import pytest

from mullergames.automata import (
    RabinLassoChecker,
    Transition,
    has_duplicated_edges,
    run_deterministic,
)
from mullergames.conditions import (
    Alphabet,
    ConditionError,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
    inf_set,
    satisfies_muller,
)
from mullergames.construction import (
    build_gfg_rabin,
    build_parity_automaton,
    node_rabin_pairs,
    resolve_run,
)
from mullergames.games import (
    EXIST,
    GameEdge,
    GameError,
    GameGraph,
    UNIV,
    brute_force_winner,
    memory_from_gfg,
    solve_muller_game,
    verify_strategy,
)
from mullergames.succinctness import (
    binomial_lower_bound,
    build_condition_graph,
    chromatic_number,
    condition_fn,
    succinctness_report,
)
from mullergames.zielonka import build_zielonka
from conftest import (
    all_muller_conditions,
    check_node_sequence,
    check_quotient,
    fscc,
    letter_pairs,
    named_automaton,
    rabin_from_parity,
    random_muller_condition,
    reference_is_ancestor,
    reference_leaves_below,
    scan_simplify_rabin,
    transitions_from,
    verify_disjoint_fscc,
)

ALPHA, BETA, GAMMA, DELTA, EPS, ZETA = range(6)


def report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


# -- criterion 1: running-example reproduction ----------------------------------


def test_criterion_1_running_example(running_condition):
    started = time.perf_counter()
    tree = build_zielonka(running_condition)
    labels = {n: (tree.label(n).names(), tree.is_round(n)) for n in range(len(tree))}
    assert labels == {
        ALPHA: (("a", "b", "c"), False),
        BETA: (("a", "b"), True),
        GAMMA: (("a", "c"), True),
        DELTA: (("a",), False),
        EPS: (("a",), False),
        ZETA: (("c",), False),
    }
    assert tree.memtree() == 2
    assert tree.eta() == {DELTA: 1, EPS: 1, ZETA: 2}

    gfg = build_gfg_rabin(running_condition)
    assert gfg.automaton.states == (1, 2)
    assert len(gfg.automaton.transitions) == 9
    assert set(gfg.automaton.transitions) == {
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
    pairs = gfg.automaton.acceptance
    assert [(set(g.names()), set(r.names())) for g, r in letter_pairs(pairs)] == [
        ({"n1"}, {"n0", "n2", "n4", "n5"}),
        ({"n2"}, {"n0", "n1", "n3"}),
    ]

    simplified = scan_simplify_rabin(gfg.automaton)
    assert set(simplified.transitions) == {
        Transition(1, "a", "(n3n4)", 1),
        Transition(1, "b", "(n0n1)", 1),
        Transition(1, "c", "n0", 1),
        Transition(1, "c", "n2", 2),
        Transition(2, "a", "n2", 1),
        Transition(2, "b", "n0", 1),
        Transition(2, "c", "n5", 2),
    }
    assert [(set(g.names()), set(r.names())) for g, r in letter_pairs(simplified.acceptance)] == [
        ({"n1", "(n0n1)"}, {"n0", "n2", "n4", "n5"}),
        ({"n2"}, {"n0", "n1", "n3", "(n0n1)"}),
    ]
    assert not has_duplicated_edges(simplified)

    parity = build_parity_automaton(running_condition)
    moves = {(t.src, t.letter): t.dst for t in parity.transitions}
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
    report("criterion 1 (running example reproduction)", started, 1.0)


# -- criterion 2: language-correctness sweep -------------------------------------


def _parity_tails(parity, period):
    """Tail acceptance of period^omega from every state, via one step map."""
    step: dict = {}
    for s in parity.states:
        cur = s
        best = -1
        for letter in period:
            t = transitions_from(parity, cur, letter)[0]
            best = max(best, int(t.colour))
            cur = t.dst
        step[s] = (cur, best)
    out = {}
    for s in parity.states:
        seen = {}
        cur = s
        while cur not in seen:
            seen[cur] = len(seen)
            cur = step[cur][0]
        cycle = [q for q, i in seen.items() if i >= seen[cur]]
        out[s] = max(step[q][1] for q in cycle) % 2 == 0
    return out


def _resolver_tails(gfg, period):
    """Rabin tail acceptance of the leaf-memory walk from every leaf."""
    tree = gfg.tree
    colours = gfg.automaton.acceptance.colours
    step: dict = {}
    for leaf in tree.leaves():
        cur = leaf
        mask = 0
        for letter in period:
            witness, cur = tree.step(cur, letter)
            mask |= 1 << colours.index(tree.node_name(witness))
        step[leaf] = (cur, mask)
    out = {}
    for leaf in tree.leaves():
        seen = {}
        cur = leaf
        while cur not in seen:
            seen[cur] = len(seen)
            cur = step[cur][0]
        cycle = [q for q, i in seen.items() if i >= seen[cur]]
        mask = 0
        for q in cycle:
            mask |= step[q][1]
        out[leaf] = gfg.automaton.acceptance.accepts_mask(mask)
    return out


def _walk_deterministic(automaton, start, word):
    cur = start
    for letter in word:
        cur = transitions_from(automaton, cur, letter)[0].dst
    return cur


def _walk_resolver(gfg, start_leaf, word):
    cur = start_leaf
    for letter in word:
        _, cur = gfg.tree.step(cur, letter)
    return cur


def _sweep_condition(cond, prefixes, periods, spot_check_every=211):
    tree = build_zielonka(cond)
    gfg = build_gfg_rabin(cond)
    parity = build_parity_automaton(cond)
    assert len(gfg.automaton.states) == tree.memtree()
    assert check_quotient(parity, gfg, gfg.eta)

    checker = RabinLassoChecker.from_automaton(gfg.automaton)
    p0 = parity.initial[0]
    leaf0 = gfg.tree.leftmost_leaf(gfg.tree.root)
    prefix_states = {
        u: (_walk_deterministic(parity, p0, u), _walk_resolver(gfg, leaf0, u))
        for u in prefixes
    }
    count = 0
    for v in periods:
        p_tails = _parity_tails(parity, v)
        r_tails = _resolver_tails(gfg, v)
        for u in prefixes:
            w = LassoWord(u, v)
            expected = satisfies_muller(cond, inf_set(w))
            p_state, r_leaf = prefix_states[u]
            assert checker.accepts(w) == expected, (cond, w)
            assert p_tails[p_state] == expected, (cond, w)
            assert r_tails[r_leaf] == expected, (cond, w)
            count += 1
            if count % spot_check_every == 0:
                # Tie the fast tails back to the public operations.
                _, via_run = run_deterministic(parity, w)
                _, via_resolver = resolve_run(gfg, w)
                assert via_run == expected and via_resolver == expected


def _all_lasso_parts(alphabet, max_prefix, max_period):
    symbols = alphabet.symbols
    prefixes = [
        p
        for lu in range(max_prefix + 1)
        for p in itertools.product(symbols, repeat=lu)
    ]
    periods = [
        p
        for lv in range(1, max_period + 1)
        for p in itertools.product(symbols, repeat=lv)
    ]
    return prefixes, periods


def test_criterion_2_language_sweep():
    started = time.perf_counter()
    for size in (2, 3):
        alphabet = Alphabet("abc"[:size])
        prefixes, periods = _all_lasso_parts(alphabet, 2, 2 * size)
        for cond in all_muller_conditions(alphabet):
            _sweep_condition(cond, prefixes, periods)

    # 500 random conditions over 4- and 5-letter alphabets.  Exhausting all
    # periods up to length 2|alphabet| is astronomically large there, so the
    # sweep is exhaustive up to length 2 and sampled at full depth.
    rng = random.Random(2024)
    for size in (4, 5):
        alphabet = Alphabet("abcde"[:size])
        prefixes, short_periods = _all_lasso_parts(alphabet, 2, 2)
        for _ in range(250):
            cond = random_muller_condition(rng, alphabet)
            deep = [
                tuple(
                    rng.choice(alphabet.symbols)
                    for _ in range(rng.randint(3, 2 * size))
                )
                for _ in range(40)
            ]
            _sweep_condition(cond, prefixes, short_periods + deep)
    report("criterion 2 (language-correctness sweep)", started, 120.0)


# -- criterion 3: memory theorem, upper-bound direction ---------------------------


def _random_game(rng, cond, max_vertices=4, max_edges=8):
    letters = cond.alphabet.symbols
    while True:
        n = rng.randint(1, max_vertices)
        names = [f"v{i}" for i in range(n)]
        vertices = [(v, rng.choice([EXIST, UNIV])) for v in names]
        edges = set()
        for v in names:
            colour = None if rng.random() < 0.1 else rng.choice(letters)
            edges.add((v, colour, rng.choice(names)))
        while len(edges) < rng.randint(n, max_edges):
            colour = None if rng.random() < 0.1 else rng.choice(letters)
            edges.add((rng.choice(names), colour, rng.choice(names)))
        try:
            return GameGraph(vertices, sorted(edges, key=str), names[0], cond)
        except GameError:
            continue


def test_criterion_3_memory_theorem():
    started = time.perf_counter()
    rng = random.Random(4242)
    suite = 0
    attempts = 0
    while suite < 50 and attempts < 2000:
        attempts += 1
        size = rng.choice((2, 2, 3))
        cond = random_muller_condition(rng, Alphabet("abc"[:size]))
        game = _random_game(rng, cond)
        solution = solve_muller_game(game, cond)
        if solution.winner != EXIST:
            continue
        try:
            oracle = brute_force_winner(game, cond, budget=400_000)
        except GameError:
            continue  # enumeration too large; game not admitted to the suite
        assert oracle == EXIST
        bound = build_zielonka(cond).memtree()
        assert solution.memory.size <= bound
        assert verify_strategy(solution.memory, cond)
        suite += 1
    assert suite >= 50
    report(f"criterion 3 (memory theorem on {suite} games)", started, 60.0)


# -- criterion 4: simplification soundness ----------------------------------------


def _random_rabin_automaton(rng):
    states = list(range(rng.randint(1, 3)))
    alphabet = Alphabet("ab"[: rng.randint(1, 2)])
    colours = Alphabet([f"c{i}" for i in range(rng.randint(1, 4))])
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
    for _ in range(rng.randint(1, 3)):
        green = [c for c in colours if rng.random() < 0.4]
        red = [c for c in colours if c not in green and rng.random() < 0.4]
        pairs.append((green, red))
    return named_automaton(
        states, alphabet, [rng.choice(states)], transitions, RabinCondition(colours, pairs)
    )


def test_criterion_4_simplification_soundness():
    started = time.perf_counter()
    rng = random.Random(321)
    for _ in range(200):
        automaton = _random_rabin_automaton(rng)
        simplified = scan_simplify_rabin(automaton)
        assert len(simplified.states) == len(automaton.states)
        assert len(simplified.acceptance) == len(automaton.acceptance)
        assert not has_duplicated_edges(simplified)
        before = RabinLassoChecker.from_automaton(automaton)
        after = RabinLassoChecker.from_automaton(simplified)
        prefixes, periods = _all_lasso_parts(automaton.alphabet, 4, 4)
        for v in periods:
            for u in prefixes:
                w = LassoWord(u, v)
                assert before.accepts(w) == after.accepts(w)
    report("criterion 4 (simplification soundness, 200 automata)", started, 60.0)


# -- criterion 5: succinctness separation ------------------------------------------


def test_criterion_5_succinctness_separation():
    started = time.perf_counter()
    for n in range(2, 11):
        assert build_zielonka(condition_fn(n)).memtree() == n // 2
    assert chromatic_number(build_condition_graph(condition_fn(4)))[0] == 4
    assert chromatic_number(build_condition_graph(condition_fn(5)))[0] == 5
    assert chromatic_number(build_condition_graph(condition_fn(6)))[0] == 6
    assert binomial_lower_bound(10).bound == 12
    assert binomial_lower_bound(15).bound == 13

    row10 = succinctness_report(10)
    assert row10.gfg_size == 5 and row10.det_rabin_lower == 12
    from mullergames.succinctness import report_to_text

    text = report_to_text([row10])
    assert "1.116" in text  # stated asymptotic constant, not recomputed
    report("criterion 5 (succinctness separation)", started, 300.0)


# -- criterion 6: structural invariant suite ---------------------------------------


def _check_star(tree, eta):
    for n in range(len(tree)):
        if not tree.is_round(n):
            continue
        kids = tree.children(n)
        for c1, c2 in itertools.combinations(kids, 2):
            for l1 in reference_leaves_below(tree, c1):
                for l2 in reference_leaves_below(tree, c2):
                    assert eta[l1] != eta[l2]


def test_criterion_6_structural_invariants(running_condition):
    started = time.perf_counter()
    rng = random.Random(77)

    # Property (*) for every generated leaf numbering.
    for _ in range(120):
        size = rng.choice((2, 3, 4))
        cond = random_muller_condition(rng, Alphabet("abcd"[:size]))
        tree = build_zielonka(cond)
        eta = tree.eta()
        assert set(eta.values()) == set(range(1, tree.memtree() + 1))
        _check_star(tree, eta)

        # Trichotomy: per pair, every node colour has exactly one status.
        pairs = node_rabin_pairs(tree)
        round_nodes = [n for n in range(len(tree)) if tree.is_round(n)]
        for j, n in enumerate(round_nodes):
            for m in range(len(tree)):
                name = tree.node_name(m)
                green, red = letter_pairs(pairs)[j]
                statuses = [name in green, name in red]
                if m == n:
                    assert statuses == [True, False]
                elif reference_is_ancestor(tree, n, m):
                    assert statuses == [False, False]
                else:
                    assert statuses == [False, True]

    # The two characterisations of accepting node sequences agree; the
    # assertion lives inside check_node_sequence.
    trees = 0
    while trees < 10:
        cond = random_muller_condition(rng, Alphabet("abc"))
        tree = build_zielonka(cond)
        if len(tree) > 8:
            continue
        trees += 1
        names = [tree.node_name(n) for n in range(len(tree))]
        for _ in range(1000):
            period = tuple(
                rng.choice(names) for _ in range(rng.randint(1, 2 * len(tree)))
            )
            check_node_sequence(tree, LassoWord((), period))

    # FSCC outputs are closed, mutually reachable, pairwise disjoint.
    parity = build_parity_automaton(running_condition)
    for mask in range(1, 8):
        letters = [s for i, s in enumerate("abc") if mask >> i & 1]
        components = fscc(parity, letters)
        assert components
        seen = set()
        for comp in components:
            assert comp and not (comp & seen)
            seen |= comp
            for q in comp:
                for a in letters:
                    assert transitions_from(parity, q, a)[0].dst in comp

    # Disjoint-FSCC check: passes on a correct deterministic Rabin automaton
    # for the half-size condition over four letters, fails on an undersized one.
    cond4 = condition_fn(4)
    p4 = build_parity_automaton(cond4)
    correct = named_automaton(
        p4.states, p4.alphabet, p4.initial, p4.transitions,
        rabin_from_parity(p4.acceptance),
    )
    tiny = named_automaton(
        [0],
        cond4.alphabet,
        [0],
        [Transition(0, a, "x", 0) for a in cond4.alphabet],
        rabin_from_parity(ParityCondition(Alphabet(["x"]), {"x": 2})),
    )
    eligible = 0
    refuted = 0
    for m1 in range(1, 16):
        for m2 in range(1, 16):
            c1 = cond4.alphabet.from_mask(m1)
            c2 = cond4.alphabet.from_mask(m2)
            if cond4.accepts_mask(m1) or cond4.accepts_mask(m2):
                continue
            if not cond4.accepts_mask(m1 | m2):
                continue
            eligible += 1
            assert verify_disjoint_fscc(correct, c1, c2, cond4)
            if not verify_disjoint_fscc(tiny, c1, c2, cond4):
                refuted += 1
    assert eligible > 0 and refuted == eligible
    report("criterion 6 (structural invariants)", started, 60.0)
