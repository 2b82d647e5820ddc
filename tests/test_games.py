import collections
import functools
import hashlib
import json
import operator
import random
import sys

import pytest

from mullergames.automata import condition_colours
from mullergames._graph import reachable
from mullergames.conditions import (
    Alphabet,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)
from mullergames.construction import build_gfg_rabin, build_parity_automaton
from mullergames import games
from mullergames.games import (
    EXIST,
    UNIV,
    GameEdge,
    GameError,
    GameGraph,
    GameSolution,
    NotWonByExist,
    _build_product,
    brute_force_winner,
    game_from_dict,
    is_chromatic,
    load_game,
    memory_from_gfg,
    memory_to_json,
    positional_rabin_strategy,
    product_with_automaton,
    solve_muller_game,
    solve_parity_game,
    verify_strategy,
)
from mullergames.zielonka import ZielonkaTree, build_zielonka
from conftest import (
    exist_strategy,
    exist_vertices,
    memory_from_names,
    memory_to_dict,
    midpoint_rows,
    named_automaton,
    out,
    owner,
    parity_winners,
    random_muller_condition,
    reference_attract,
    reference_brute_force_winner,
    reference_build_parity_automaton,
    reference_positional_rabin_strategy,
    reference_memory_from_gfg,
    reference_product,
    reference_recurrence_sets_satisfy,
    reference_solve_parity_game,
    reference_split_edges,
    reference_zielonka_solve,
    recursion_winners,
    region,
    scan_simplify_rabin,
    strongly_connected_components,
    swap_split_owners,
    transitions_from,
    univ_strategy,
)


def one_vertex_abc_game(condition):
    return GameGraph(
        [("x", EXIST)],
        [("x", "a", "x"), ("x", "b", "x"), ("x", "c", "x")],
        "x",
        condition,
    )


def alternation_game(condition):
    # Univ must emit a; Exist then picks b or c.
    return GameGraph(
        [("u", UNIV), ("x", EXIST)],
        [("u", "a", "x"), ("x", "b", "u"), ("x", "c", "u")],
        "u",
        condition,
    )


def random_game(rng, condition, max_vertices=4, max_edges=8, eps_prob=0.15):
    letters = condition_colours(condition).symbols
    while True:
        n = rng.randint(1, max_vertices)
        names = [f"v{i}" for i in range(n)]
        vertices = [(v, rng.choice([EXIST, UNIV])) for v in names]
        edges = set()
        for v in names:  # guarantee a move from every position
            colour = None if rng.random() < eps_prob else rng.choice(letters)
            edges.add((v, colour, rng.choice(names)))
        while len(edges) < rng.randint(n, max_edges):
            colour = None if rng.random() < eps_prob else rng.choice(letters)
            edges.add((rng.choice(names), colour, rng.choice(names)))
        try:
            return GameGraph(vertices, sorted(edges, key=str), names[0], condition)
        except GameError:
            continue


def test_game_graph_invariants(running_condition):
    with pytest.raises(GameError) as err:
        GameGraph([("x", EXIST), ("y", UNIV)], [("x", "a", "y")], "x", running_condition)
    assert "at least one move" in str(err.value)
    with pytest.raises(GameError) as err:
        GameGraph(
            [("x", EXIST), ("y", UNIV)],
            [("x", None, "y"), ("y", None, "x")],
            "x",
            running_condition,
        )
    assert "exclusively" in str(err.value)
    # Self ep-loop is also a silent cycle.
    with pytest.raises(GameError):
        GameGraph([("x", EXIST)], [("x", None, "x")], "x", running_condition)
    # A silent 2-cycle on the last vertices, after vertices with no silent move.
    with pytest.raises(GameError) as err:
        GameGraph(
            [("u", UNIV), ("v", EXIST), ("x", EXIST), ("y", UNIV)],
            [("u", "a", "v"), ("v", "b", "x"), ("x", None, "y"), ("y", None, "x"), ("y", "c", "u")],
            "u",
            running_condition,
        )
    assert "exclusively" in str(err.value)


def test_product_reachable_size(running_condition):
    gfg = build_gfg_rabin(running_condition)
    product = product_with_automaton(one_vertex_abc_game(running_condition), gfg.automaton)
    state_vertices = [v for v in product.game.vertices if v[0] == "s"]
    choice_vertices = [v for v in product.game.vertices if v[0] == "c"]
    assert len(state_vertices) <= 1 * 2
    assert len(choice_vertices) <= 3 * 2
    assert product.game.initial == ("s", "x", 1)


def test_product_with_deterministic_automaton_collapses(running_condition):
    parity = build_parity_automaton(running_condition)
    product = product_with_automaton(one_vertex_abc_game(running_condition), parity)
    assert product.game.vertices
    assert all(v[0] == "s" for v in product.game.vertices)
    # Each game edge leaves every state vertex once, along its transition.
    assert all(len(out(product.game, v)) == 3 for v in product.game.vertices)
    # A deterministic GFG Rabin automaton leaves Exist nothing to choose
    # either: its product has no choice vertices, and memory_from_gfg still
    # reads a verified memory off it.
    condition = MullerCondition(Alphabet("ab"), [["a", "b"]])
    gfg = build_gfg_rabin(condition)
    assert gfg.automaton.is_deterministic
    game = GameGraph([("x", EXIST)], [("x", "a", "x"), ("x", "b", "x")], "x", condition)
    assert not any(v[0] == "c" for v in product_with_automaton(game, gfg.automaton).game.vertices)
    assert verify_strategy(memory_from_gfg(game, gfg), gfg.tree)


def test_product_alphabet_mismatch(running_condition):
    other = MullerCondition(Alphabet("xy"), [["x"]])
    gfg = build_gfg_rabin(other)
    with pytest.raises(GameError):
        product_with_automaton(one_vertex_abc_game(running_condition), gfg.automaton)


def test_product_epsilon_edges(running_condition):
    gfg = build_gfg_rabin(running_condition)
    game = GameGraph(
        [("u", UNIV), ("x", EXIST)],
        [("u", None, "x"), ("x", "b", "u")],
        "u",
        running_condition,
    )
    product = product_with_automaton(game, gfg.automaton)
    eps_edges = [e for e in product.game.edges if e.colour is None]
    assert any(e.src[0] == "s" and e.dst[0] == "s" for e in eps_edges)


def product_cases(count):
    """Seeded random games over random conditions on one to three letters,
    a third of their edges silent, each with its GFG and parity automata and
    two seedings: the initial vertex, and every vertex."""
    rng = random.Random(2204)
    for _ in range(count):
        condition = random_muller_condition(rng, Alphabet("abc"[: rng.randint(1, 3)]))
        game = random_game(rng, condition, max_vertices=6, max_edges=12, eps_prob=0.3)
        for automaton in (build_gfg_rabin(condition).automaton, build_parity_automaton(condition)):
            for seeds in ([game.initial], list(game.vertices)):
                ids = [game.vertices.index(x) for x in seeds]
                yield game, automaton, ids, reference_product(game, automaton, seeds)


def product_image(automaton, e, q):
    """The (target, colour) of game edge e's product edge from state q: a
    silent move keeps the state, a letter with one transition takes it, any
    other letter goes to its choice vertex."""
    if e.colour is None:
        return ("s", e.dst, q), None
    options = transitions_from(automaton, q, e.colour)
    if len(options) == 1:
        return ("s", e.dst, options[0].dst), options[0].colour
    return ("c", e.dst, e.colour, q), None


def test_product_arena_matches_reference():
    def named(game):  # each midpoint's rows rebuilt from src/dst, colour masks named
        arena = midpoint_rows(game.arena)
        symbols = condition_colours(game.condition).symbols
        colours = [symbols[c.bit_length() - 1] if c else None for c in arena.colours]
        return arena.succ, arena.preds, arena.owners, colours

    silent, merged = 0, collections.Counter()
    for game, automaton, ids, reference in product_cases(300):
        product = _build_product(game, automaton, ids)
        assert product.game.vertices == reference.vertices
        assert product.game.edges == reference.edges
        assert product.game.initial == reference.initial
        split = reference_split_edges(reference)
        assert named(product.game) == split
        assert named(reference) == split  # a named game's own arena
        assert all(product.ids[key] == v for v, key in enumerate(product.keys))
        assert sum(i >= 0 for i in product.ids) == len(product.keys)
        silent += any(e.colour is None for e in game.edges)
        # A state vertex has one product edge per distinct image of its game
        # vertex's moves.
        shortfall = []
        for v in product.game.vertices:
            if v[0] == "s":
                moves = out(game, v[1])
                images = {product_image(automaton, e, v[2]) for e in moves}
                assert len(out(product.game, v)) == len(images)
                shortfall.append(len(moves) - len(images))
        merged[isinstance(automaton.acceptance, ParityCondition)] += max(shortfall) > 0
    assert silent >= 300
    assert merged[True] >= 10 and merged[False] >= 10, merged


def test_merged_extraction_agrees_with_the_unmerged_reference():
    """`memory_from_gfg` on the merged product against the extraction on the
    unmerged automaton with a choice vertex at every lettered move: Univ
    wins the same games, and where Exist wins both memories have the same
    size and pass verification.  Games over four letters join
    `product_cases`' games: their merged automata have more bundles that
    hold colours of different Rabin pairs."""
    unique = {id(game): game for game, _, _, _ in product_cases(250)}
    rng = random.Random(35)
    for _ in range(200):
        condition = random_muller_condition(rng, Alphabet("abcd"[: rng.randint(2, 4)]))
        game = random_game(rng, condition, max_vertices=10, max_edges=25, eps_prob=0.1)
        unique[id(game)] = game
    wins = collections.Counter()
    for game in unique.values():
        gfg = build_gfg_rabin(game.condition)
        try:
            want = reference_memory_from_gfg(game, gfg)
        except NotWonByExist:
            with pytest.raises(NotWonByExist):
                memory_from_gfg(game, gfg)
            wins[UNIV] += 1
            continue
        got = memory_from_gfg(game, gfg)
        assert got.size == want.size
        assert verify_strategy(got, gfg.tree) and verify_strategy(want, gfg.tree)
        wins[EXIST] += 1
    assert len(unique) >= 400 and min(wins.values()) >= 100, wins


def test_merged_split_agrees_with_the_unmerged_colours():
    """On every `_zielonka` call that solves the merged GFG products of
    `product_cases`' games, the merged condition's split equals the split of
    the generic merge that keeps every colour of the unmerged automaton,
    mapped through the renumbering: the used colours keep their order, so
    the same pair is live and Univ's targets come in the same order."""
    splits = collections.Counter()
    for game, automaton, ids, _ in product_cases(300):
        if isinstance(automaton.acceptance, ParityCondition):
            continue
        gfg = build_gfg_rabin(game.condition)
        merged, full = gfg.merged, scan_simplify_rabin(gfg.automaton)
        used = [full.colour_alphabet.index(c) for c in merged.colour_alphabet]

        def widen(mask, used=used):
            return sum(1 << c for i, c in enumerate(used) if mask >> i & 1)

        def split(present, merged=merged, full=full, widen=widen):
            player, targets = merged.acceptance.split(present)
            want_player, want = full.acceptance.split(widen(present))
            assert player == want_player
            if player:  # complements of children of the present colours
                assert [widen(~t) for t in targets] == [~t for t in want]
            else:  # the live pair's green
                assert [widen(t) for t in targets] == [t & widen(-1) for t in want]
            splits[player] += 1
            return player, targets

        games._zielonka(_build_product(game, merged, ids).game, split)
    assert min(splits[0], splits[1]) >= 300, splits


def test_arena_colours_are_masks():
    """Every arena holds mask 0 at its vertices and silent midpoints and a
    single bit of its condition's colours at every other midpoint; a
    product's equal colours are one int, its bit table's."""
    from mullergames.succinctness import condition_fn

    cases = [(game, automaton, ids) for game, automaton, ids, _ in product_cases(100)]
    condition = condition_fn(8)  # a 351-node tree: masks wider than a machine word
    game = random_game(random.Random(8), condition, max_vertices=5, max_edges=10)
    cases.append((game, build_gfg_rabin(condition).automaton, [game.vertices.index(game.initial)]))
    for game, automaton, ids in cases:
        for g in (game, _build_product(game, automaton, ids).game):
            colours, base = g.arena.colours, g.arena.base
            width = len(condition_colours(g.condition))
            assert not any(colours[:base])
            assert all(c & (c - 1) == 0 and c.bit_length() <= width for c in colours[base:])
            assert len({id(c) for c in colours}) == len(set(colours))
            named = [e.colour for e in g.edges]
            assert [c == 0 for c in colours[base:]] == [colour is None for colour in named]
    assert max(g.arena.colours) > 1 << 64  # the F_8 product's


def test_game_graph_repr(running_condition):
    assert repr(one_vertex_abc_game(running_condition)) == "GameGraph(1 vertices, 3 edges)"


def test_solvers_agree_on_both_arenas():
    for game, automaton, ids, reference in product_cases(150):
        product = _build_product(game, automaton, ids).game
        if isinstance(automaton.acceptance, ParityCondition):
            ours, theirs = solve_parity_game(product), solve_parity_game(reference)
            assert ours.winners == theirs.winners
            assert exist_strategy(ours) == exist_strategy(theirs)
            assert univ_strategy(ours) == univ_strategy(theirs)
        else:
            ours, theirs = positional_rabin_strategy(product), positional_rabin_strategy(reference)
            assert region(ours) == region(theirs)
            assert exist_strategy(ours) == exist_strategy(theirs)


def test_plain_and_resolution_products_agree_on_exist_winners():
    """The plain product of a parity automaton and its resolution form,
    where every lettered game edge passes a choice vertex, give Exist the
    same game vertices at the initial state."""
    winners = collections.Counter()
    for game, automaton, ids, _ in product_cases(300):
        seeds = list(game.vertices)
        if not isinstance(automaton.acceptance, ParityCondition) or len(ids) < len(seeds):
            continue
        plain = _build_product(game, automaton, ids).game
        resolved = reference_product(game, automaton, seeds, resolve=True)
        assert not any(v[0] == "c" for v in plain.vertices)
        assert any(v[0] == "c" for v in resolved.vertices) == any(e.colour for e in game.edges)
        q0 = automaton.initial[0]
        ours, theirs = solve_parity_game(plain).winners, solve_parity_game(resolved).winners
        assert [ours[("s", x, q0)] for x in seeds] == [theirs[("s", x, q0)] for x in seeds]
        winners.update(ours[("s", x, q0)] for x in seeds)
    assert winners[EXIST] >= 100 and winners[UNIV] >= 100


def reference_parity_region(game):
    """Exist's region by the two-call recursion, over every node id, on the
    node priorities that `solve_parity_game` gives the arena."""
    condition, arena = game.condition, game.arena
    shift = max(0, 1 - min(condition.priorities))
    shift += shift % 2
    by_colour = [p + shift for p in condition.priorities] + [0]
    prio = [by_colour[c.bit_length() - 1] for c in arena.colours]
    return reference_zielonka_solve(frozenset(range(len(prio))), arena, prio)[0]


def random_parity_game(rng):
    """A random game over a run of priorities in 0-5; one with priority 0
    makes `solve_parity_game` shift every priority."""
    low = rng.randint(0, 5)
    priorities = range(low, rng.randint(low, 5) + 1)
    colours = Alphabet([str(p) for p in priorities])
    condition = ParityCondition(colours, {str(p): p for p in priorities})
    return random_game(rng, condition, max_vertices=20, max_edges=40, eps_prob=0.1)


def test_parity_solver_agrees_with_the_two_call_recursion():
    products = [
        _build_product(game, automaton, ids).game
        for game, automaton, ids, _ in product_cases(300)
        if isinstance(automaton.acceptance, ParityCondition)
    ]
    rng = random.Random(1998)
    randoms = [random_parity_game(rng) for _ in range(3000)]
    shares = set()
    for game in products + randoms:
        won = solve_parity_game(game).won
        assert won == reference_parity_region(game)
        exist = sum(v < game.arena.base for v in won)
        shares.add((exist > 0) + (exist == game.arena.base))
    # Exist wins no vertex, some vertices and every vertex.
    assert shares == {0, 1, 2}


def test_attract_matches_the_reference_on_every_call(monkeypatch):
    """Every `_attract` call that `_zielonka` makes while solving the parity
    and GFG products of 300 seeded games, and 300 random parity games,
    gives `reference_attract`'s set in the same order and the same moves in
    the same order: the order feeds the regions, the next attractor's queue
    and through them the strategies."""
    products = [
        _build_product(game, automaton, ids).game for game, automaton, ids, _ in product_cases(300)
    ]
    rng = random.Random(1998)
    parity = [random_parity_game(rng) for _ in range(300)]
    rows = {id(game.arena): midpoint_rows(game.arena) for game in products + parity}
    calls = collections.Counter()
    attract = games._attract

    def checked(player, base, nodes, arena):
        attr, strat = attract(player, base, nodes, arena)
        ref_attr, ref_strat = reference_attract(player, base, nodes, rows[id(arena)])
        assert list(attr) == list(ref_attr)
        assert list(strat.items()) == list(ref_strat.items())
        calls[player] += 1
        return attr, strat

    monkeypatch.setattr(games, "_attract", checked)
    for game in products + parity:
        if isinstance(game.condition, ParityCondition):
            solve_parity_game(game)
        else:
            positional_rabin_strategy(game)
    assert calls[0] > 1000 and calls[1] > 1000, calls


def test_product_builder_names_bad_automata():
    condition = MullerCondition(Alphabet("ab"), [["a"]])
    game = GameGraph([("x", EXIST)], [("x", "a", "x"), ("x", "b", "x")], "x", condition)
    parity = ParityCondition(Alphabet(["1"]), {"1": 1})
    incomplete = named_automaton([0], Alphabet("ab"), [0], [(0, "a", "1", 0)], parity)
    with pytest.raises(GameError, match="automaton is not complete: no 'b'-transition from 0"):
        product_with_automaton(game, incomplete)
    foreign = named_automaton([0], Alphabet("a"), [0], [(0, "a", "1", 0)], parity)
    with pytest.raises(GameError, match="alphabet mismatch between game condition and automaton"):
        _build_product(game, foreign, [0])
    two_initial = named_automaton([0, 1], Alphabet("ab"), [0, 1], [], parity)
    with pytest.raises(GameError, match="single initial state"):
        product_with_automaton(game, two_initial)


def single_priority_condition():
    return ParityCondition(Alphabet(["1", "2"]), {"1": 1, "2": 2})


def test_solve_parity_trivial_even_loop():
    game = GameGraph(
        [("x", EXIST)], [("x", "2", "x")], "x", single_priority_condition()
    )
    solution = solve_parity_game(game)
    assert solution.winners["x"] == EXIST
    assert exist_strategy(solution)["x"] == GameEdge("x", "2", "x")


def test_solve_parity_univ_picks_odd():
    game = GameGraph(
        [("u", UNIV)],
        [("u", "1", "u"), ("u", "2", "u")],
        "u",
        single_priority_condition(),
    )
    solution = solve_parity_game(game)
    assert solution.winners["u"] == UNIV
    assert univ_strategy(solution)["u"] == GameEdge("u", "1", "u")


def test_solve_parity_on_parity_product(running_condition):
    parity = build_parity_automaton(running_condition)
    product = product_with_automaton(one_vertex_abc_game(running_condition), parity)
    solution = solve_parity_game(product.game)
    assert solution.winners[product.game.initial] == EXIST


def test_solve_parity_mixed_game():
    cond = ParityCondition(Alphabet(["1", "2", "3"]), {"1": 1, "2": 2, "3": 3})
    game = GameGraph(
        [("a", EXIST), ("b", UNIV)],
        [
            ("a", "2", "b"),
            ("a", "3", "a"),
            ("b", "1", "a"),
            ("b", "2", "b"),
        ],
        "a",
        cond,
    )
    solution = solve_parity_game(game)
    # Exist can cycle a->b->a with priorities {2,1}: max 2, even.
    assert solution.winners["a"] == EXIST
    assert exist_strategy(solution)["a"] == GameEdge("a", "2", "b")


@pytest.mark.parametrize(
    "winners, exist_strategy, univ_strategy, message",
    [
        ({"x": EXIST, "u": EXIST}, {}, {}, "missing Exist strategy at 'x'"),
        ({"x": EXIST, "u": UNIV}, {"x": ("x", "2", "u")}, {"u": ("u", "2", "u")},
         "Exist strategy leaves the winning region"),
        ({"x": UNIV, "u": EXIST}, {}, {}, "Exist region is not closed"),
        ({"x": UNIV, "u": UNIV}, {}, {"u": ("u", "2", "u")},
         "cycle analysis refutes the Univ strategy"),
    ],
)
def test_parity_certificate_failures_are_game_errors(
    winners, exist_strategy, univ_strategy, message
):
    # Exist wins everywhere: every cycle's top priority is 2.
    game = GameGraph(
        [("x", EXIST), ("u", UNIV)],
        [("x", "2", "u"), ("u", "1", "x"), ("u", "2", "u")],
        "x",
        single_priority_condition(),
    )
    # The certificate reads node ids: vertex i, and the midpoint of edge j.
    index = {v: i for i, v in enumerate(game.vertices)}
    midpoint = {e: len(game.vertices) + j for j, e in enumerate(game.edges)}
    even = {index[v] for v, w in winners.items() if w == EXIST}
    moves = {
        index[v]: midpoint[GameEdge(*e)]
        for strategy in (exist_strategy, univ_strategy)
        for v, e in strategy.items()
    }
    solution = games.GameSolution(game, even, moves)
    with pytest.raises(GameError, match="internal: " + message):
        games._verify_solution(solution)


# -- Rabin games: reference solver and agreement ------------------------------


def _automaton_for_rabin(condition):
    """The parity automaton of a Rabin condition read as a Muller condition
    over its colours.  Scans all 2^colours masks: small alphabets only."""
    colours = condition.colours
    members = [
        list(colours.from_mask(mask))
        for mask in range(1, 1 << len(colours))
        if condition.accepts_mask(mask)
    ]
    return build_parity_automaton(MullerCondition(colours, members))


def _rabin_region_via_parity(game, automaton=None):
    """Exist's winning region of a Rabin game, decided through the
    parity-automaton product seeded at every vertex."""
    automaton = automaton or _automaton_for_rabin(game.condition)
    product = _build_product(game, automaton, range(len(game.vertices)))
    solution = solve_parity_game(product.game)
    q0 = automaton.initial[0]
    return frozenset(
        x for x in game.vertices if solution.winners[("s", x, q0)] == EXIST
    )


def solved_rabin(game):
    """The solver's region and strategy, after checking the region against
    the reference solver and that the strategy covers Exist's part of it."""
    solution = positional_rabin_strategy(game)
    assert region(solution) == _rabin_region_via_parity(game)
    assert set(exist_strategy(solution)) == {
        v for v in region(solution) if owner(game, v) == EXIST
    }
    return solution


def random_rabin_condition(rng, colours, max_pairs=3):
    """One to `max_pairs` pairs, each colour green, red or neither in each."""
    pairs = []
    for _ in range(rng.randint(1, max_pairs)):
        marks = [rng.choice("gro") for _ in colours]
        pairs.append(
            (
                [c for c, m in zip(colours, marks) if m == "g"],
                [c for c, m in zip(colours, marks) if m == "r"],
            )
        )
    return RabinCondition(Alphabet(colours), pairs)


def random_rabin_game(rng, colours, max_vertices=7, silent_prob=0.2):
    """A game with out-degree 1-3 over a random Rabin condition; silent edges
    only go forward, so no cycle is silent."""
    condition = random_rabin_condition(rng, colours)
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(n)
            silent = j > i and rng.random() < silent_prob
            edges.append((names[i], None if silent else rng.choice(colours), names[j]))
    vertices = [(v, rng.choice([EXIST, UNIV])) for v in names]
    return GameGraph(vertices, edges, names[0], condition)


def all_green_condition():
    return RabinCondition(Alphabet(["g"]), [(["g"], [])])


def test_positional_rabin_all_green():
    game = GameGraph(
        [("x", EXIST), ("y", EXIST)],
        [("x", "g", "y"), ("y", "g", "x"), ("x", "g", "x")],
        "x",
        all_green_condition(),
    )
    solution = solved_rabin(game)
    assert region(solution) == {"x", "y"}
    assert set(exist_strategy(solution)) == {"x", "y"}


def test_positional_rabin_on_gfg_product(running_condition):
    gfg = build_gfg_rabin(running_condition)
    product = product_with_automaton(one_vertex_abc_game(running_condition), gfg.automaton)
    solution = solved_rabin(product.game)
    assert product.game.initial in region(solution)


def test_positional_rabin_losing_region_empty_domain():
    cond = RabinCondition(Alphabet(["g", "r"]), [(["g"], ["r"])])
    game = GameGraph(
        [("x", EXIST)],
        [("x", "r", "x")],
        "x",
        cond,
    )
    solution = solved_rabin(game)
    assert region(solution) == frozenset()
    assert exist_strategy(solution) == {}


def test_positional_rabin_requires_pair_switching():
    # Univ picks which loop to settle in; each loop satisfies a different
    # pair, so no single pair works from the top but Exist still wins.
    colours = Alphabet(["g1", "g2"])
    cond = RabinCondition(colours, [(["g1"], ["g2"]), (["g2"], ["g1"])])
    game = GameGraph(
        [("u", UNIV), ("a", UNIV), ("b", UNIV)],
        [
            ("u", None, "a"),
            ("u", None, "b"),
            ("a", "g1", "a"),
            ("b", "g2", "b"),
        ],
        "u",
        cond,
    )
    solution = solved_rabin(game)
    assert region(solution) == {"u", "a", "b"}


def test_positional_rabin_agrees_with_parity_reference():
    rng = random.Random(2204)
    regions = set()
    for _ in range(3000):
        game = random_rabin_game(rng, list("abcd"[: rng.randint(1, 4)]))
        solution = solved_rabin(game)
        regions.add((len(region(solution)), len(game.vertices)))
    # Both empty, partial and full regions occur.
    assert any(k == 0 for k, _ in regions)
    assert any(0 < k < n for k, n in regions)
    assert any(k == n for k, n in regions)


def random_oracle_game(rng):
    """A game of 1-12 vertices with silent edges, over a run of priorities
    in -2..6 or over one to four Rabin pairs on 1-5 colours."""
    if rng.random() < 0.5:
        low = rng.randint(-2, 6)
        priorities = range(low, rng.randint(low, 6) + 1)
        condition = ParityCondition(
            Alphabet([f"p{p}" for p in priorities]), {f"p{p}": p for p in priorities}
        )
    else:
        colours = list("abcde"[: rng.randint(1, 5)])
        condition = random_rabin_condition(rng, colours, max_pairs=4)
    return random_game(rng, condition, max_vertices=12, max_edges=30, eps_prob=0.2)


def test_shared_loop_agrees_with_the_two_hand_written_solvers():
    """Both solvers give the regions and moves of the recursions they
    replaced: both players' moves in a parity game, Exist's in a Rabin game."""
    rng = random.Random(1998_23)
    shares = collections.Counter()
    for _ in range(2000):
        game = random_oracle_game(rng)
        if isinstance(game.condition, ParityCondition):
            solve, reference = solve_parity_game, reference_solve_parity_game
        else:
            solve, reference = positional_rabin_strategy, reference_positional_rabin_strategy
        ours, theirs = solve(game), reference(game)
        assert ours.won == theirs.won
        assert ours.moves == theirs.moves
        exist = sum(v < game.arena.base for v in ours.won)
        shares[type(game.condition).__name__, (exist > 0) + (exist == game.arena.base)] += 1
    # Each kind of game has regions empty, partial and full for Exist.
    assert len(shares) == 6 and min(shares.values()) >= 50


def test_memory_from_gfg_running_example(running_condition):
    game = one_vertex_abc_game(running_condition)
    gfg = build_gfg_rabin(running_condition)
    memory = memory_from_gfg(game, gfg)
    assert memory.size == 2
    assert verify_strategy(memory, running_condition)


def test_memory_from_gfg_positional_case():
    cond = MullerCondition(Alphabet("a"), [["a"]])
    game = GameGraph([("x", EXIST)], [("x", "a", "x")], "x", cond)
    memory = memory_from_gfg(game, build_gfg_rabin(cond))
    assert memory.size == 1
    assert verify_strategy(memory, cond)


def test_memory_from_gfg_univ_only_game(running_condition):
    game = GameGraph(
        [("u", UNIV)],
        [("u", "b", "u")],
        "u",
        running_condition,
    )
    memory = memory_from_gfg(game, build_gfg_rabin(running_condition))
    assert verify_strategy(memory, running_condition)
    assert memory.choice == [-1] * memory.size


def test_memory_from_gfg_reports_univ(running_condition):
    game = GameGraph(
        [("x", EXIST)],
        [("x", "c", "x")],
        "x",
        running_condition,
    )
    with pytest.raises(NotWonByExist):
        memory_from_gfg(game, build_gfg_rabin(running_condition))


def test_solve_builds_no_unmerged_gfg_automaton(monkeypatch):
    # The memory is extracted on the merged GFG automaton, regrouped from
    # the unmerged move table: the node-named Rabin pairs and the unmerged
    # automaton are built only when `gfg.automaton` is read, which `solve`
    # never does.  The memory is still the pinned F_6 seed-9 file.
    from mullergames import construction
    from mullergames.conditions import condition_from_dict
    from test_cli import FN_MEMORY_DIGESTS, pinned_fn_case

    def refuse(tree):
        raise AssertionError("the unmerged Rabin pairs were built")

    monkeypatch.setattr(construction, "node_rabin_pairs", refuse)
    condition_doc, doc = pinned_fn_case(6, 9)
    condition = condition_from_dict(condition_doc)
    game = game_from_dict(doc, condition)
    solution = solve_muller_game(game)
    assert solution.winner == EXIST
    text = memory_to_json(solution.memory)
    assert hashlib.sha256(text.encode()).hexdigest() == FN_MEMORY_DIGESTS[6, 9]
    gfg = build_gfg_rabin(condition)
    memory_from_gfg(game, gfg)
    assert "automaton" not in vars(gfg)


def test_univ_solve_makes_only_the_parity_rows_it_reaches(monkeypatch):
    # Univ's win is certified on the parity automaton made row by row, as
    # the product reads it: `solve` makes only the rows it reaches, and
    # on the pinned F_10 game it climbs fewer leaves than F_10's 1,260.
    from mullergames.conditions import condition_from_dict
    from test_cli import FN_UNIV_CASE, pinned_fn_case

    climbs = []
    row = ZielonkaTree.row
    monkeypatch.setattr(ZielonkaTree, "row", lambda tree, leaf: climbs.append(leaf) or row(tree, leaf))
    condition_doc, doc = pinned_fn_case(*FN_UNIV_CASE)
    game = game_from_dict(doc, condition_from_dict(condition_doc))
    assert solve_muller_game(game).winner == UNIV
    assert 0 < len(climbs) < len(build_zielonka(game.condition).leaves()) == 1260


def test_products_over_rows_on_demand_equal_the_materialised():
    """The product over `build_parity_automaton` is the product over
    the materialised reference automaton, arena for arena, seeded at the
    initial vertex and at every vertex, on seeded games and the pinned F_8
    and F_10 games."""
    from mullergames.conditions import condition_from_dict
    from test_cli import FN_UNIV_CASE, pinned_fn_case

    cases = list(seeded_muller_games(4711, 100))
    for n, seed in ((8, 41), (10, 4), FN_UNIV_CASE):
        condition_doc, doc = pinned_fn_case(n, seed)
        cases.append(game_from_dict(doc, condition_from_dict(condition_doc)))
    for game in cases:
        tree = build_zielonka(game.condition)
        for seeds in ([game.arena.initial], range(game.arena.base)):
            lazy = _build_product(game, build_parity_automaton(tree), seeds)
            whole = _build_product(game, reference_build_parity_automaton(tree), seeds)
            assert lazy.game.arena == whole.game.arena
            assert (lazy.ids, lazy.keys, lazy.moved) == (whole.ids, whole.keys, whole.moved)
            assert len(lazy.ids) == len(lazy.keys)
            assert lazy.game.vertices == whole.game.vertices


def test_solve_muller_alternation(running_condition):
    solution = solve_muller_game(alternation_game(running_condition))
    assert solution.winner == EXIST
    assert solution.memory is not None
    assert solution.memory.size <= 2
    assert verify_strategy(solution.memory, running_condition)


def test_solve_muller_single_c_loop(running_condition):
    game = GameGraph([("x", EXIST)], [("x", "c", "x")], "x", running_condition)
    solution = solve_muller_game(game)
    assert solution.winner == UNIV
    assert solution.memory is None


def test_solve_muller_splits_only_what_the_initial_vertex_reaches(running_condition, monkeypatch):
    # x reaches only its own a-loop; y, which x never reaches, reads b and c.
    game = GameGraph(
        [("x", EXIST), ("y", UNIV)],
        [("x", "a", "x"), ("y", "b", "y"), ("y", "c", "x")],
        "x",
        running_condition,
    )
    symbols = condition_colours(running_condition).symbols
    unreachable = (1 << symbols.index("b")) | (1 << symbols.index("c"))
    masks, split = [], ZielonkaTree.split

    def recording(tree, present):
        masks.append(present)
        return split(tree, present)

    monkeypatch.setattr(ZielonkaTree, "split", recording)
    assert solve_muller_game(game).winner == UNIV
    assert masks and not any(mask & unreachable for mask in masks)


def test_solve_muller_accept_everything():
    alphabet = Alphabet("ab")
    cond = MullerCondition(alphabet, [["a"], ["b"], ["a", "b"]])
    rng = random.Random(5)
    for _ in range(10):
        game = random_game(rng, cond)
        solution = solve_muller_game(game)
        assert solution.winner == EXIST


def f5_exist_game():
    # Four vertices over the half-size condition F_5 (memtree 2).  Its GFG
    # product has 31 colours, too many for a 2^colours scan of the
    # Rabin condition.
    from mullergames.succinctness import condition_fn

    cond = condition_fn(5)
    edges = [
        ("v0", "1", "v2"),
        ("v1", "2", "v2"),
        ("v1", "1", "v3"),
        ("v1", "5", "v3"),
        ("v2", "5", "v1"),
        ("v2", "2", "v0"),
        ("v3", "2", "v0"),
        ("v3", "1", "v1"),
        ("v3", "1", "v0"),
    ]
    owners = [("v0", EXIST), ("v1", EXIST), ("v2", UNIV), ("v3", EXIST)]
    return GameGraph(owners, edges, "v0", cond), cond


def test_solve_muller_f5_exist_game():
    game, cond = f5_exist_game()
    solution = solve_muller_game(game)
    assert solution.winner == EXIST
    assert solution.memory.size <= build_zielonka(cond).memtree() == 2
    assert verify_strategy(solution.memory, cond)
    assert brute_force_winner(game, cond) == EXIST


def test_solve_muller_reports_product_disagreement(running_condition, monkeypatch):
    monkeypatch.setattr(
        games,
        "positional_rabin_strategy",
        lambda game, condition=None: GameSolution(game, set(), {}),
    )
    with pytest.raises(GameError, match="parity product and GFG Rabin product disagree") as err:
        solve_muller_game(alternation_game(running_condition))
    assert not isinstance(err.value, NotWonByExist)


def seeded_muller_games(seed, count):
    """`count` random games over 2-5 letters with up to 30 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        condition = random_muller_condition(rng, Alphabet("abcde"[: rng.randint(2, 5)]))
        yield random_game(rng, condition, max_vertices=30, max_edges=60, eps_prob=0.1)


def test_recursion_agrees_with_the_parity_product_at_every_vertex():
    """The tree-guided recursion names the parity product's winner at every
    vertex of seeded random games and of the F_5 Exist game; both players
    win initial vertices and both win inside one game."""
    cases = list(seeded_muller_games(1998, 200)) + [f5_exist_game()[0]]
    initial = collections.Counter()
    mixed = 0
    for game in cases:
        tree = build_zielonka(game.condition)
        ours = recursion_winners(game, tree)
        assert ours == parity_winners(game, tree)
        initial[ours[game.arena.initial]] += 1
        mixed += len(set(ours)) == 2
    assert min(initial[True], initial[False]) >= 30 and mixed >= 30, (initial, mixed)


def recursion_depth(game, split):
    """How deep `_zielonka(game, split)` nests its recursive `solve`."""
    solve = next(c for c in games._zielonka.__code__.co_consts if getattr(c, "co_name", "") == "solve")
    depth = [0, 0]

    def profile(frame, event, arg):
        if frame.f_code is solve and event in ("call", "return"):
            depth[0] += 1 if event == "call" else -1
            depth[1] = max(depth)

    sys.setprofile(profile)
    try:
        games._zielonka(game, split)
    finally:
        sys.setprofile(None)
    return depth[1]


def test_recursion_nests_at_most_the_tree_height():
    """The k-th nested call's colours lie inside the label of a node at depth
    k - 1 or more: a call splits at a node at least that deep, and its
    recursive calls' colours lie inside a child's label.  A leaf makes no
    call, so `_zielonka` on a Muller game nests at most the tree's height
    deep, an empty subgame's call included, and reaches it."""
    from mullergames.succinctness import condition_fn

    f8 = condition_fn(8)
    cases = list(seeded_muller_games(1998, 200))
    cases.append(random_game(random.Random(8), f8, max_vertices=30, max_edges=60, eps_prob=0.1))
    deepest = collections.Counter()
    for game in cases:
        tree = build_zielonka(game.condition)
        depth = recursion_depth(game, tree.split)
        assert 1 <= depth <= tree.height
        deepest[depth == tree.height] += 1
    assert deepest[True] >= 100, deepest


def test_product_recursion_nests_at_most_one_deeper_than_its_colours():
    """Each recursive call of `_zielonka` sees fewer colours, and the
    deepest may be on an empty subgame, so on a parity product it nests at
    most one deeper than the distinct priorities present, and on the merged
    GFG Rabin product at most one deeper than the colours present: under
    Python's recursion limit of 1,000 on seeded random games and the pinned
    F_8 and F_10 games, and reaching the bound on many of them."""
    from mullergames.conditions import condition_from_dict
    from test_cli import FN_UNIV_CASE, pinned_fn_case

    cases = list(seeded_muller_games(1998, 200))
    for n, seed in ((8, 41), (10, 4), FN_UNIV_CASE):
        condition_doc, doc = pinned_fn_case(n, seed)
        cases.append(game_from_dict(doc, condition_from_dict(condition_doc)))
    reached = collections.Counter()
    for game in cases:
        tree = build_zielonka(game.condition)
        for automaton in (build_parity_automaton(tree), build_gfg_rabin(tree).merged):
            product = product_with_automaton(game, automaton).game
            present = functools.reduce(operator.or_, product.arena.colours)
            colours = [c for c in range(present.bit_length()) if present >> c & 1]
            if isinstance(product.condition, ParityCondition):
                bound = len({product.condition.priorities[c] for c in colours})
            else:
                bound = len(colours)
            depth = recursion_depth(product, product.condition.split)
            assert 1 <= depth <= bound + 1 < 1000, (type(product.condition).__name__, depth, bound)
            reached[type(product.condition).__name__] += depth == bound + 1
    assert min(reached["ParityCondition"], reached["RabinCondition"]) >= 20, reached


def test_solve_muller_reports_a_recursion_that_disagrees(running_condition, monkeypatch):
    """With owners swapped the recursion names Univ on a game Exist wins,
    which the parity product refutes, and Exist on a game Univ wins, which
    both products refute: each raises `GameError`, not `NotWonByExist`."""
    swap_split_owners(monkeypatch)
    exist_wins = GameGraph([("x", EXIST)], [("x", "b", "x")], "x", running_condition)
    univ_wins = GameGraph([("x", UNIV)], [("x", "a", "x")], "x", running_condition)
    with pytest.raises(GameError, match="recursion names Univ .* parity product names Exist") as err:
        solve_muller_game(exist_wins)
    assert not isinstance(err.value, NotWonByExist)
    with pytest.raises(GameError, match="recursion names Exist .* parity and GFG Rabin products name Univ") as err:
        solve_muller_game(univ_wins)
    assert not isinstance(err.value, NotWonByExist)


def test_swapped_owners_are_refuted_on_multi_vertex_exist_wins(monkeypatch):
    """With owners swapped the recursion names Univ on seeded multi-vertex
    games that Exist wins, and the parity product, where Univ keeps to the
    region it was given and Exist keeps every move, refutes each."""
    cases = [
        game
        for game in seeded_muller_games(1877, 300)
        if game.arena.base > 1 and solve_muller_game(game).winner == EXIST
    ]
    swap_split_owners(monkeypatch)
    refuted = 0
    for game in cases:
        if recursion_winners(game, build_zielonka(game.condition))[game.arena.initial]:
            continue  # Exist wins the complement too, so the swap names her
        with pytest.raises(GameError, match="recursion names Univ .* parity product names Exist"):
            solve_muller_game(game)
        refuted += 1
    assert refuted >= 20, refuted


def test_a_region_univ_cannot_keep_to_is_refuted(running_condition, monkeypatch):
    """A decision that names Univ with a region Exist can leave, or one in
    which a Univ vertex has no move, ends in an internal `GameError`."""
    zielonka, given = games._zielonka, set()

    def lying(game, split, nodes=None, stop=-1):
        if stop < 0:  # a product's solve
            return zielonka(game, split, nodes)
        return GameSolution(game, set(), {}, set(given))

    monkeypatch.setattr(games, "_zielonka", lying)
    # Univ wins x's c-loop, but Exist can move on to y and loop on b.
    leave = GameGraph(
        [("x", EXIST), ("y", EXIST)],
        [("x", "c", "x"), ("x", "a", "y"), ("y", "b", "y")],
        "x",
        running_condition,
    )
    given.add(0)
    with pytest.raises(GameError, match="internal: .* recursion names Univ .* parity product names Exist"):
        solve_muller_game(leave)
    stuck = GameGraph([("x", UNIV)], [("x", "b", "x")], "x", running_condition)
    given.clear()
    with pytest.raises(GameError, match="internal: Univ has no move at 'x'"):
        solve_muller_game(stuck)


def pinned_games():
    """The games the CLI tests pin: the memory files' games, the F_n ones
    and the F_10 game Univ wins."""
    from mullergames.conditions import condition_from_dict
    from test_cli import (
        F12_CASE,
        FN_MEMORY_DIGESTS,
        FN_UNIV_CASE,
        MEMORY_DIGESTS,
        pinned_fn_case,
        pinned_solve_case,
    )

    docs = [pinned_solve_case(seed) for seed in sorted(MEMORY_DIGESTS)]
    docs += [pinned_fn_case(*case) for case in [*sorted(FN_MEMORY_DIGESTS), F12_CASE, FN_UNIV_CASE]]
    return [game_from_dict(doc, condition_from_dict(condition)) for condition, doc in docs]


def test_stopped_decision_names_the_full_recursions_winner():
    """Stopped once an attractor it removes holds the initial vertex, the
    top level of the recursion names the winner that the full recursion
    names, with part of each full region, on 300 seeded games and every
    pinned game, and asks `split` fewer times on some of them."""
    fewer = 0
    for game in [*seeded_muller_games(4242, 300), *pinned_games()]:
        tree = build_zielonka(game.condition)
        succ, _, _, dst, _, _, base, initial = game.arena
        nodes = reachable((initial,), lambda n: succ[n] if n < base else (dst[n],))
        calls = collections.Counter()

        def counted(stopped):
            def split(present):
                calls[stopped] += 1
                return tree.split(present)

            return split

        full = games._zielonka(game, counted(False), set(nodes))
        stopped = games._zielonka(game, counted(True), set(nodes), initial)
        assert (initial in stopped.won) == (initial in full.won) != (initial in stopped.lost)
        assert stopped.won <= full.won and stopped.lost <= full.lost
        assert calls[True] <= calls[False]
        fewer += calls[True] < calls[False]
    assert fewer >= 10, fewer


def test_solve_muller_refuses_a_condition_not_the_games(running_condition):
    other = MullerCondition(Alphabet("abc"), [["a"]])
    with pytest.raises(GameError, match="not the game's condition"):
        solve_muller_game(alternation_game(running_condition), other)
    bare = GameGraph([("x", EXIST)], [("x", "a", "x")], "x", other)
    with pytest.raises(GameError, match="not the game's condition"):
        solve_muller_game(bare, build_zielonka(running_condition))


def dual_game(game):
    """The game with every owner swapped and the condition ¬F, the
    non-empty letter sets outside F: Exist wins it where Univ wins `game`."""
    condition = game.condition
    complement = [m for m in range(1, 1 << len(condition.alphabet)) if m not in condition.masks]
    owners = [(v, (UNIV, EXIST)[who]) for v, who in zip(game.vertices, game.arena.owners)]
    return GameGraph(
        owners, game.edges, game.initial, MullerCondition(condition.alphabet, complement)
    )


def test_solve_muller_names_the_other_winner_of_the_dual_game():
    """Muller games are determined, and Univ's objective is ¬F: the dual
    game's winner is the other player, and where Univ wins the original,
    the dual's memory for Exist needs at most memtree(¬F) states."""
    rng = random.Random(3411)
    winners = collections.Counter()
    for _ in range(300):
        condition = random_muller_condition(rng, Alphabet("abcde"[: rng.randint(2, 5)]))
        game = random_game(rng, condition, max_vertices=30, max_edges=60)
        dual = dual_game(game)
        winner, other = solve_muller_game(game), solve_muller_game(dual)
        assert {winner.winner, other.winner} == {EXIST, UNIV}
        winners[winner.winner] += 1
        if winner.winner == UNIV:
            assert other.memory.size <= build_zielonka(dual.condition).memtree()
            assert verify_strategy(other.memory, dual.condition)
    assert min(winners.values()) >= 100


def test_solve_muller_builds_one_tree(running_condition, monkeypatch):
    from mullergames import construction

    built = []

    def counting(condition):
        built.append(condition)
        return build_zielonka(condition)

    monkeypatch.setattr(games, "build_zielonka", counting)
    monkeypatch.setattr(construction, "build_zielonka", counting)
    solution = solve_muller_game(alternation_game(running_condition))
    assert solution.winner == EXIST and solution.memory.size == 2
    assert len(built) == 1


def test_verify_strategy_rejects_bad_loop(running_condition):
    game = one_vertex_abc_game(running_condition)
    edge_c = GameEdge("x", "c", "x")
    bad = memory_from_names(
        game,
        (1,),
        1,
        {(1, e): 1 for e in game.edges},
        {(1, "x"): edge_c},
    )
    assert not verify_strategy(bad, running_condition)


def test_verify_strategy_forced_win(running_condition):
    game = GameGraph(
        [("u", UNIV)],
        [("u", "b", "u")],
        "u",
        running_condition,
    )
    memory = memory_from_names(game, (1,), 1, {(1, e): 1 for e in game.edges}, {})
    assert verify_strategy(memory, running_condition)


def test_verify_strategy_validates_moves(running_condition):
    game = one_vertex_abc_game(running_condition)
    foreign = GameEdge("x", "d", "x")
    with pytest.raises(GameError, match="strategy at \\(1, 'x'\\) is not a move of 'x'"):
        memory_from_names(
            game, (1,), 1, {(1, e): 1 for e in game.edges}, {(1, "x"): foreign}
        )
    with pytest.raises(GameError, match=r"memory update missing for \(1, GameEdge\(src='x'"):
        memory_from_names(game, (1,), 1, {}, {(1, "x"): game.edges[0]})


def test_memory_is_held_to_its_declared_states(running_condition):
    game = one_vertex_abc_game(running_condition)
    memory = memory_from_gfg(game, build_gfg_rabin(running_condition))
    assert memory.states == (1, 2)
    update, strategy = named_tables(memory_to_dict(memory))
    assert any(update[(1, e)] == 2 for e in game.edges)
    # Declared with one state, the memory still updates to state 2.
    with pytest.raises(GameError, match="undeclared state 2"):
        memory_from_names(game, (1,), 1, update, strategy)
    with pytest.raises(GameError, match="initial memory state 3"):
        memory_from_names(game, memory.states, 3, update, strategy)


def test_verdicts_agree_with_a_tree_and_with_tables():
    """The checks on a memory's tables give a condition's verdicts when
    handed its Zielonka tree."""
    rng = random.Random(1112)
    decided = 0
    verdicts = collections.Counter()
    for _ in range(60):
        condition = random_muller_condition(rng, Alphabet("cba"[-rng.randint(2, 3) :]))
        game = random_game(rng, condition, max_vertices=3, max_edges=6)
        tree = build_zielonka(condition)
        try:
            winner = brute_force_winner(game, tree, budget=20_000)
        except GameError:
            with pytest.raises(GameError, match="budget"):
                brute_force_winner(game, condition, budget=20_000)
        else:
            assert brute_force_winner(game, condition, budget=20_000) == winner
            decided += 1
        # The solver's memory when Exist wins, and a one-state memory that
        # always takes a vertex's first move.
        first = {(0, v): out(game, v)[0] for v in exist_vertices(game)}
        memories = [
            memory_from_names(game, (0,), 0, {(0, e): 0 for e in game.edges}, first)
        ]
        solution = solve_muller_game(game, tree)
        if solution.memory is not None:
            memories.append(solution.memory)
        for memory in memories:
            verdict = verify_strategy(memory, tree)
            assert verify_strategy(memory, condition) == verdict
            verdicts[verdict] += 1
    assert decided >= 40
    assert verdicts[True] >= 10 and verdicts[False] >= 10


def test_checks_refuse_a_condition_not_the_games(running_condition):
    """A game is judged by its own condition only: `verify_strategy` and
    `brute_force_winner` refuse another one or its tree, `memory_from_gfg`
    another condition's GFG automaton, and `GameGraph` refuses an edge
    colour that is not a colour of its condition."""
    game = one_vertex_abc_game(running_condition)
    memory = memory_from_gfg(game, build_gfg_rabin(running_condition))
    assert verify_strategy(memory, running_condition)
    # Equal to the game's condition but a different object: still the game's.
    accepting = [["a", "b"], ["a", "c"], ["b"]]
    twin = MullerCondition(Alphabet("abc"), accepting)
    assert verify_strategy(memory, build_zielonka(twin))
    assert brute_force_winner(game, twin) == EXIST
    for other in (
        MullerCondition(Alphabet("abc"), [["a"]]),
        MullerCondition(Alphabet("abcd"), accepting),
    ):
        for given in (other, build_zielonka(other)):
            with pytest.raises(GameError, match="verify_strategy: .* not the game's condition"):
                verify_strategy(memory, given)
            with pytest.raises(GameError, match="brute_force_winner: .* not the game's"):
                brute_force_winner(game, given)
    with pytest.raises(GameError, match="edge colour 'd' is not a condition colour"):
        GameGraph([("x", EXIST)], [("x", "d", "x")], "x", running_condition)
    # Exist wins an a-loop under {{a}}; the GFG automaton of {{b}} over the
    # same letters is refused before a Rabin product is solved, not taken
    # for a win of Univ.
    alphabet = Alphabet("ab")
    loop = GameGraph([("x", EXIST)], [("x", "a", "x")], "x", MullerCondition(alphabet, [["a"]]))
    assert solve_muller_game(loop).winner == EXIST
    solved = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(games, "positional_rabin_strategy", lambda game: solved.append(game))
        with pytest.raises(GameError, match="memory_from_gfg: .* not the game's") as err:
            memory_from_gfg(loop, build_gfg_rabin(MullerCondition(alphabet, [["b"]])))
    assert not isinstance(err.value, NotWonByExist)
    assert solved == []


def test_checks_accept_an_equal_rabin_or_parity_condition():
    """Rabin and parity conditions compare by content, as Muller conditions
    do: `verify_strategy` accepts a separately built copy of the game's
    condition and still refuses a different one."""
    loop = GameEdge("x", "g", "x")
    two, three = (["g", "r"], ["g", "r", "o"])
    cases = [
        (
            lambda: RabinCondition(Alphabet(two), [(["g"], ["r"])]),
            [
                RabinCondition(Alphabet(two), [(["r"], ["g"])]),
                RabinCondition(Alphabet(two), [(["g"], ["r"]), (["r"], [])]),
                RabinCondition(Alphabet(three), [(["g"], ["r"])]),
            ],
        ),
        (
            lambda: ParityCondition(Alphabet(two), {"g": 2, "r": 1}),
            [
                ParityCondition(Alphabet(two), {"g": 0, "r": 1}),
                ParityCondition(Alphabet(three), {"g": 2, "r": 1, "o": 0}),
            ],
        ),
    ]
    for make, others in cases:
        game = GameGraph([("x", EXIST)], [tuple(loop)], "x", make())
        memory = memory_from_names(game, (0,), 0, {(0, loop): 0}, {(0, "x"): loop})
        twin = make()
        assert twin is not game.condition
        assert twin == game.condition and hash(twin) == hash(game.condition)
        assert verify_strategy(memory, twin)
        for other in others:
            assert other != game.condition
            with pytest.raises(GameError, match="verify_strategy: .* not the game's condition"):
                verify_strategy(memory, other)


def test_parity_positional_passes_verify(running_condition):
    parity = build_parity_automaton(running_condition)
    product = product_with_automaton(one_vertex_abc_game(running_condition), parity)
    solution = solve_parity_game(product.game)
    game = product.game
    strategy = {
        (1, v): exist_strategy(solution)[v]
        for v in game.vertices
        if owner(game, v) == EXIST and solution.winners[v] == EXIST
    }
    for v in exist_vertices(game):
        strategy.setdefault((1, v), out(game, v)[0])
    memory = memory_from_names(game, (1,), 1, {(1, e): 1 for e in game.edges}, strategy)
    assert verify_strategy(memory, game.condition)


# -- the cycle check behind every certificate -----------------------------------


def random_cycle_check_case(rng):
    """A one-player graph of at most seven nodes with coloured self-loops and
    forward-only silent edges, under a random Muller, Rabin or parity
    condition over at most five colours."""
    colours = list("abcde"[: rng.randint(1, 5)])
    alphabet = Alphabet(colours)
    kind = rng.choice(("muller", "rabin", "parity"))
    if kind == "muller":
        condition = random_muller_condition(rng, alphabet)
    elif kind == "rabin":
        condition = random_rabin_condition(rng, colours)
    else:
        condition = ParityCondition(alphabet, {c: rng.randint(0, 5) for c in colours})
    n = rng.randint(1, 7)
    graph = {}
    for v in range(n):
        outs = []
        for _ in range(rng.randint(1, 3)):
            w = rng.randrange(n)
            silent = w > v and rng.random() < 0.25
            outs.append((w, None if silent else rng.choice(colours)))
        if rng.random() < 0.3:
            outs.append((v, rng.choice(colours)))
        graph[v] = outs
    return kind, condition, graph


def test_rejected_core_agrees_with_subset_scan():
    rng = random.Random(1998)
    verdicts = collections.Counter()
    for _ in range(6000):
        kind, condition, graph = random_cycle_check_case(rng)
        avail = {v: [GameEdge(v, c, w) for w, c in outs] for v, outs in graph.items()}
        index = condition_colours(condition).index
        bit = lambda colour: 0 if colour is None else 1 << index(colour)
        out = {v: [(w, bit(c)) for w, c in outs] for v, outs in graph.items()}
        sides = [(condition, 0, condition)]
        if kind == "parity":
            # Univ's side: even priorities lose, which is Exist's view once
            # every priority is raised by one.
            raised = {c: p + 1 for c, p in zip(condition.colours, condition.priorities)}
            sides.append((condition, 1, ParityCondition(condition.colours, raised)))
        for checked, player, reference in sides:
            expected = reference_recurrence_sets_satisfy(graph, avail, reference, 1 << 16)
            split = build_zielonka(checked).split if kind == "muller" else checked.split
            core = games._rejected_core(out, split, player)
            assert (core is None) == expected, (condition, player, graph)
            verdicts[kind, expected] += 1
    for kind in ("muller", "rabin", "parity"):
        assert verdicts[kind, True] >= 300 and verdicts[kind, False] >= 300, verdicts


def test_rejected_core_refuses_a_refinement_that_keeps_the_mask():
    # One node with a loop of colour bit 1: a target that misses the mask
    # would search the same component forever.
    with pytest.raises(GameError, match="internal: a refinement kept the whole colour set"):
        games._rejected_core([[(0, 1)]], lambda mask: (0, [0]))


def test_rejected_core_refuses_a_silent_only_cycle():
    # One node with a silent loop: no colour recurs, which no arena allows.
    with pytest.raises(GameError, match="silent-only recurrence set; the arena is malformed"):
        games._rejected_core([[(0, 0)]], lambda mask: (1, []))


def test_rejected_core_hands_the_cycle_search_no_empty_part(monkeypatch):
    # A target holding every colour left would leave a part of 0: a search
    # over silent edges alone, which no recurrence set can use.
    returned = []
    search = games.refined_cores

    def recording(out, refine, roots, allowed=-1):
        def recorded(mask):
            parts = refine(mask)
            if parts is not None:
                returned.append(parts)
            return parts

        return search(out, recorded, roots, allowed)

    monkeypatch.setattr(games, "refined_cores", recording)
    for game in seeded_muller_games(46, 40):
        solve_muller_game(game)
    assert any(returned)
    assert all(part for parts in returned for part in parts)


@pytest.mark.parametrize(
    "solve, kind, message",
    [
        (lambda game: product_with_automaton(game, build_parity_automaton(
            MullerCondition(Alphabet(["1", "2"]), [["2"]]))), "parity",
         "product_with_automaton expects a game with a Muller condition"),
        (solve_parity_game, "muller", "solve_parity_game expects a parity condition"),
        (positional_rabin_strategy, "parity", "positional_rabin_strategy expects a Rabin condition"),
        (solve_muller_game, "parity", "solve_muller_game expects a Muller condition"),
        (brute_force_winner, "parity", "brute_force_winner expects a Muller condition"),
    ],
    ids=["product", "parity-solver", "rabin-solver", "muller-solver", "brute-force"],
)
def test_a_condition_of_the_wrong_kind_is_a_game_error(running_condition, solve, kind, message):
    game = {
        "muller": one_vertex_abc_game(running_condition),
        "parity": GameGraph([("x", EXIST)], [("x", "2", "x")], "x", single_priority_condition()),
    }[kind]
    with pytest.raises(GameError, match=message):
        solve(game)


def test_brute_force_budget_names_its_size(running_condition):
    # The first search node finds Exist's choice open; trying it is the second.
    with pytest.raises(GameError, match=r"brute-force enumeration budget exceeded \(1\)"):
        brute_force_winner(one_vertex_abc_game(running_condition), budget=1)


def test_is_chromatic_examples(running_condition):
    game = alternation_game(running_condition)
    by_colour = memory_from_names(
        game,
        (1, 2),
        1,
        {
            (m, e): (2 if e.colour == "c" else m)
            for m in (1, 2)
            for e in game.edges
        },
        {
            (m, "x"): GameEdge("x", "b", "u")
            for m in (1, 2)
        },
    )
    assert is_chromatic(by_colour)

    two_b_edges = GameGraph(
        [("u", UNIV), ("x", EXIST)],
        [("u", "a", "x"), ("u", "a", "u"), ("x", "b", "u")],
        "u",
        running_condition,
    )
    edge_sensitive = memory_from_names(
        two_b_edges,
        (1, 2),
        1,
        {
            (m, e): (2 if e == GameEdge("u", "a", "u") else 1)
            for m in (1, 2)
            for e in two_b_edges.edges
        },
        {(m, "x"): GameEdge("x", "b", "u") for m in (1, 2)},
    )
    assert not is_chromatic(edge_sensitive)


def test_is_chromatic_of_extracted_memory(running_condition):
    game = one_vertex_abc_game(running_condition)
    memory = memory_from_gfg(game, build_gfg_rabin(running_condition))
    # R_F's transition function is letter-deterministic per state on the
    # reachable part here, so the memory factors through colours.
    assert is_chromatic(memory)


def test_memory_theorem_upper_bound_random_games():
    rng = random.Random(77)
    produced = 0
    for _ in range(60):
        cond = random_muller_condition(rng, Alphabet("ab"))
        game = random_game(rng, cond)
        solution = solve_muller_game(game)
        if solution.winner != EXIST:
            continue
        produced += 1
        bound = build_zielonka(cond).memtree()
        assert solution.memory.size <= bound
        assert verify_strategy(solution.memory, cond)
    assert produced >= 15


def test_winner_agrees_with_brute_force():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        cond = random_muller_condition(rng, Alphabet("ab"))
        game = random_game(rng, cond, max_vertices=3, max_edges=5)
        winner = solve_muller_game(game).winner
        assert brute_force_winner(game, cond) == winner
        assert recursion_winners(game, build_zielonka(cond))[game.arena.initial] == (winner == EXIST)
        checked += 1
    assert checked == 40


def random_f5_game(rng, condition):
    """Eight vertices, most of them Exist's, out-degree 1-3 over F_5's
    letters, silent edges only forward."""
    names = [f"v{i}" for i in range(8)]
    vertices = [(v, EXIST if rng.random() < 0.7 else UNIV) for v in names]
    edges = []
    for i, v in enumerate(names):
        for _ in range(rng.choice((1, 2, 2, 3))):
            j = rng.randrange(8)
            silent = j > i and rng.random() < 0.05
            edges.append((v, None if silent else rng.choice(condition.alphabet.symbols), names[j]))
    return GameGraph(vertices, edges, names[0], condition)


def test_brute_force_search_follows_the_reference():
    """The table search makes the name-keyed search's decisions in its
    order: the same winner with the reference's count of search nodes as
    budget, and a budget error with one node less."""
    from mullergames.succinctness import condition_fn

    rng = random.Random(2204)
    cases = []
    for _ in range(250):
        cond = random_muller_condition(rng, Alphabet("abc"[: rng.choice((2, 2, 3))]))
        cases.append(("small", random_game(rng, cond, eps_prob=0.1), cond))
    f5 = condition_fn(5)
    cases += [("F_5", random_f5_game(rng, f5), f5) for _ in range(16)]
    seen = collections.Counter()
    for kind, game, cond in cases:
        try:
            winner, count = reference_brute_force_winner(game, cond, budget=3000)
        except GameError:
            continue
        assert brute_force_winner(game, cond, budget=count) == winner
        with pytest.raises(GameError, match="budget exceeded"):
            brute_force_winner(game, cond, budget=count - 1)
        assert recursion_winners(game, build_zielonka(cond))[game.arena.initial] == (winner == EXIST)
        seen[kind, winner] += 1
    assert min(seen[kind, w] for kind in ("small", "F_5") for w in (EXIST, UNIV)) >= 2, seen
    assert seen["small", EXIST] + seen["small", UNIV] >= 200, seen


def test_epsilon_never_sole_cycle_in_products(running_condition):
    rng = random.Random(7)
    gfg = build_gfg_rabin(running_condition)
    for _ in range(10):
        game = random_game(rng, running_condition, eps_prob=0.4)
        product = product_with_automaton(game, gfg.automaton)
        # GameGraph construction would have raised otherwise; assert again
        # structurally on the product.
        eps_succ = {
            v: [e.dst for e in out(product.game, v) if e.colour is None]
            for v in product.game.vertices
        }
        for comp in strongly_connected_components(
            product.game.vertices, lambda v: eps_succ[v]
        ):
            members = set(comp)
            assert not any(
                dst in members for v in comp for dst in eps_succ[v]
            )


def test_game_documents(tmp_path, running_condition):
    doc = {
        "vertices": [{"name": "u", "owner": "Univ"}, {"name": "x", "owner": "Exist"}],
        "edges": [
            {"src": "u", "colour": "a", "dst": "x"},
            {"src": "x", "colour": None, "dst": "u"},
        ],
        "initial": "u",
    }
    game = game_from_dict(doc, running_condition)
    assert owner(game, "u") == UNIV
    assert out(game, "x")[0].colour is None
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert load_game(str(path), running_condition).vertices == game.vertices
    with pytest.raises(GameError):
        game_from_dict({"vertices": [], "edges": []}, running_condition)


def test_memory_document(running_condition):
    game = one_vertex_abc_game(running_condition)
    memory = memory_from_gfg(game, build_gfg_rabin(running_condition))
    doc = memory_to_dict(memory)
    assert set(doc) == {"states", "initial", "update", "strategy"}
    assert doc["states"] == [1, 2]
    assert len(doc["update"]) == 2 * len(game.edges)
    json.dumps(doc)


def named_tables(doc):
    """The name-keyed update and strategy tables of a `memory_to_dict` document."""
    update = {(row["state"], GameEdge(**row["edge"])): row["next"] for row in doc["update"]}
    strategy = {(row["state"], row["vertex"]): GameEdge(**row["edge"]) for row in doc["strategy"]}
    return update, strategy


# Vertex names that JSON escapes and whose `repr` order differs from their
# own order ("v1'" is written with double quotes, so its edges sort before
# those of "v1").
STRING_NAMES = ["v1", "v1'", "v10", 'say "hi"', "back\\slash", "café", "dice \U0001F3B2"]
# Vertex names that are other JSON values: tuples become lists, which the
# row writer indents through `json.dumps`.
OTHER_NAMES = [("v", 1), ("v", ("w", None)), 7, -2, None]


def named_memories(condition, names=STRING_NAMES):
    """Solved memories (int states) and random ones (str states) on random
    games over `names`, until each kind has been seen ten times; over
    STRING_NAMES, that includes games holding both "v1" and "v1'"."""
    kinds = ["solved", "no exist", "silent", "str states"] + ["repr order"] * ("v1'" in names)
    rng = random.Random(2204)
    seen = collections.Counter()
    while min(seen[k] for k in kinds) < 10:
        chosen = rng.sample(names, rng.randint(1, len(names)))
        no_exist = rng.random() < 0.2
        vertices = [(v, UNIV if no_exist else rng.choice([EXIST, UNIV])) for v in chosen]
        edges = {
            (v, None if rng.random() < 0.15 else rng.choice("abc"), rng.choice(chosen))
            for v in chosen
            for _ in range(rng.randint(1, 3))
        }
        try:
            game = GameGraph(vertices, sorted(edges, key=str), chosen[0], condition)
        except GameError:  # a silent cycle
            continue
        solution = solve_muller_game(game)
        if solution.winner == EXIST:
            yield solution.memory
            seen["solved"] += 1
        states = ("m'", "m", "m10")
        yield memory_from_names(
            game,
            states,
            "m",
            {(m, e): rng.choice(states) for m in states for e in game.edges},
            {(m, x): rng.choice(out(game, x)) for m in states for x in exist_vertices(game)},
        )
        seen["str states"] += 1
        seen["no exist"] += not exist_vertices(game)
        seen["silent"] += any(e.colour is None for e in game.edges)
        seen["repr order"] += "v1" in chosen and "v1'" in chosen


def escaped_letter_memories():
    """Exist's memories of n/2 states on pinned F_n games, over letters
    renamed so that JSON escapes them."""
    from mullergames.conditions import condition_from_dict
    from test_cli import pinned_fn_case

    for n, seed in ((6, 5), (6, 9)):
        condition_doc, doc = pinned_fn_case(n, seed)
        name = {a: f'{a} "\\é' for a in condition_doc["alphabet"]}
        condition = condition_from_dict(
            {
                "alphabet": [name[a] for a in condition_doc["alphabet"]],
                "accepting": [[name[a] for a in member] for member in condition_doc["accepting"]],
            }
        )
        edges = [dict(edge, colour=name.get(edge["colour"])) for edge in doc["edges"]]
        solution = solve_muller_game(game_from_dict(dict(doc, edges=edges), condition))
        assert solution.winner == EXIST and solution.memory.size == n // 2
        yield solution.memory


def test_memory_to_json_is_the_indented_dump(running_condition):
    """The row writer's text is `json.dumps` with `indent=2` and sorted
    keys, over string vertex names, over other JSON values, and over
    letters that JSON escapes."""
    for names in (STRING_NAMES, OTHER_NAMES):
        for memory in named_memories(running_condition, names):
            expected = json.dumps(memory_to_dict(memory), indent=2, sort_keys=True) + "\n"
            assert memory_to_json(memory) == expected
    for memory in escaped_letter_memories():
        expected = json.dumps(memory_to_dict(memory), indent=2, sort_keys=True) + "\n"
        assert memory_to_json(memory) == expected


def test_memory_names_round_trip(running_condition):
    """Names to ids and back: `from_names` on the rows `memory_to_dict`
    writes gives the same tables, which write the same bytes."""
    for memory in named_memories(running_condition):
        doc = memory_to_dict(memory)
        update, strategy = named_tables(doc)
        again = memory_from_names(
            memory.game, doc["states"], doc["initial"], update, strategy
        )
        assert (again.states, again.start, again.choice, again.update) == (
            memory.states,
            memory.start,
            memory.choice,
            memory.update,
        )
        assert memory_to_json(again) == memory_to_json(memory)
