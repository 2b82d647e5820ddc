import itertools
import json
import math
import random
from pathlib import Path

import pytest

from mullergames.automata import Transition
from mullergames.conditions import (
    Alphabet,
    ConditionError,
    MullerCondition,
    ParityCondition,
)
from mullergames.construction import build_parity_automaton
from mullergames.succinctness import (
    SearchBudgetError,
    _exact_chromatic,
    _greedy_clique,
    _greedy_colouring,
    binomial_lower_bound,
    build_condition_graph,
    chromatic_number,
    clique_lower_bound,
    condition_fn,
    report_to_dict,
    report_to_text,
    succinctness_report,
)
from mullergames.zielonka import build_zielonka
from conftest import (
    det_rabin_lower_bound,
    fscc,
    independent_bound_chi,
    named_automaton,
    rabin_from_parity,
    random_muller_condition,
    reference_exact_chromatic,
    reference_greedy_clique,
    reference_greedy_colouring,
    set_adjacency,
    transitions_from,
    verify_disjoint_fscc,
)


def test_condition_fn_examples():
    f4 = condition_fn(4)
    assert len(f4.masks) == 6
    f2 = condition_fn(2)
    assert {m.names() for m in f2.members()} == {("1",), ("2",)}
    with pytest.raises(ConditionError):
        condition_fn(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_condition_fn_memtree(n):
    assert build_zielonka(condition_fn(n)).memtree() == n // 2


def neighbours(graph, m):
    """The masks adjacent to m in the condition graph's neighbour bitsets."""
    return [u for u in range(len(graph)) if graph[m] >> u & 1]


def non_isolated(graph):
    return [m for m, nbrs in enumerate(graph) if nbrs]


def edges(graph):
    """The condition graph's edges, each as the pair of its end masks."""
    return {frozenset((a, b)) for a in range(len(graph)) for b in neighbours(graph, a)}


def test_condition_graph_f4_is_singleton_clique():
    graph = build_condition_graph(condition_fn(4))
    singles = [1 << i for i in range(4)]
    expected = {frozenset((a, b)) for a, b in itertools.combinations(singles, 2)}
    assert edges(graph) == expected
    assert set(non_isolated(graph)) == set(singles)


def test_condition_graph_full_set_condition():
    cond = MullerCondition(Alphabet("ab"), [["a", "b"]])
    graph = build_condition_graph(cond)
    # Rejecting pairs jointly covering the alphabet: {a},{b} only.
    assert edges(graph) == {frozenset((0b01, 0b10))}


def test_condition_graph_f6_structure():
    graph = build_condition_graph(condition_fn(6))
    two_sets = [m for m in range(len(graph)) if bin(m).count("1") == 2]
    for m1, m2 in itertools.combinations(two_sets, 2):
        shared = bin(m1 & m2).count("1")
        assert (m2 in neighbours(graph, m1)) == (shared == 1)
    singles = [1 << i for i in range(6)]
    for s in singles:
        for m in two_sets:
            assert (m in neighbours(graph, s)) == (m & s == 0)
        for s2 in singles:
            assert s2 not in neighbours(graph, s)


def size_rule_edges(n):
    half = n // 2
    out = set()
    for m1 in range(1 << n):
        for m2 in range(m1 + 1, 1 << n):
            if (
                bin(m1).count("1") < half
                and bin(m2).count("1") < half
                and bin(m1 | m2).count("1") == half
            ):
                out.add(frozenset((m1, m2)))
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_edge_rule_matches_size_rule_for_fn(n):
    graph = build_condition_graph(condition_fn(n))
    assert edges(graph) == size_rule_edges(n)


def test_chromatic_number_examples():
    g4 = build_condition_graph(condition_fn(4))
    k, colouring = chromatic_number(g4)
    assert k == 4 and len(set(colouring.values())) == 4
    edgeless = build_condition_graph(condition_fn(2))
    assert chromatic_number(edgeless)[0] == 1
    g5 = build_condition_graph(condition_fn(5))
    assert chromatic_number(g5)[0] == 5


def test_chromatic_witness_is_proper_and_greedy_dominates():
    rng = random.Random(3)
    for _ in range(20):
        cond = random_muller_condition(rng, Alphabet("abcd"))
        graph = build_condition_graph(cond)
        exact_k, exact = chromatic_number(graph)
        greedy_k, greedy = _greedy_colouring(non_isolated(graph), graph)
        assert greedy_k >= exact_k
        for assignment in (exact, greedy):
            for m in range(len(graph)):
                for other in neighbours(graph, m):
                    assert assignment[m] != assignment[other]


def test_chromatic_budget_error():
    graph = build_condition_graph(condition_fn(6))
    with pytest.raises(SearchBudgetError):
        chromatic_number(graph, budget=3)


def oracle_conditions():
    """F_2..F_8, then 30 seeded random conditions over each of 3, 4 and 5
    letters."""
    for n in range(2, 9):
        yield f"F{n}", condition_fn(n)
    rng = random.Random(7)
    for letters in ("abc", "abcd", "abcde"):
        for i in range(30):
            yield f"{letters}-{i}", random_muller_condition(rng, Alphabet(letters))


def test_greedy_bounds_match_the_set_based_references():
    for name, condition in oracle_conditions():
        graph = build_condition_graph(condition)
        vertices, adj = non_isolated(graph), set_adjacency(graph)
        assert _greedy_clique(vertices, graph) == reference_greedy_clique(vertices, adj), name
        assert _greedy_colouring(vertices, graph) == reference_greedy_colouring(vertices, adj), name


def exact_or_error(search, vertices, adj, budget):
    try:
        return search(vertices, adj, budget)
    except SearchBudgetError as err:
        return "SearchBudgetError", str(err)


@pytest.mark.parametrize("budget", [3, 50, 10**5, 10**7])
def test_exact_search_matches_the_set_based_reference(budget):
    for name, condition in oracle_conditions():
        if name == "F8" and budget > 10**5:
            continue  # both searches run out after a minute; 10**5 nodes pin the order
        graph = build_condition_graph(condition)
        vertices, adj = non_isolated(graph), set_adjacency(graph)
        ours = exact_or_error(_exact_chromatic, vertices, graph, budget)
        assert ours == exact_or_error(reference_exact_chromatic, vertices, adj, budget), name


@pytest.mark.parametrize("n, chi, nodes", [(6, 6, 190), (7, 8, 54_564)])
def test_exact_search_visits_a_pinned_number_of_nodes(n, chi, nodes):
    # The node at which the budget runs out pins the search order.
    graph = build_condition_graph(condition_fn(n))
    assert chromatic_number(graph, budget=nodes)[0] == chi
    with pytest.raises(SearchBudgetError):
        chromatic_number(graph, budget=nodes - 1)


def test_det_rabin_lower_bound_values():
    assert det_rabin_lower_bound(condition_fn(4)) == 4
    assert det_rabin_lower_bound(condition_fn(5)) == 5
    assert det_rabin_lower_bound(condition_fn(6)) == 6


def test_singleton_clique_detected():
    for n in (4, 5):
        graph = build_condition_graph(condition_fn(n))
        assert clique_lower_bound(graph) >= n


def test_clique_bound_is_one_on_an_edgeless_graph():
    # Every non-empty set accepts, so no two rejecting sets are adjacent.
    graph = build_condition_graph(MullerCondition(Alphabet("ab"), [["a"], ["b"], ["a", "b"]]))
    assert not edges(graph)
    assert clique_lower_bound(graph) == 1


def test_independent_bound_chi():
    assert independent_bound_chi(120, 10) == 12
    assert independent_bound_chi(7, 7) == 1
    assert independent_bound_chi(9, 1) == 9
    graph = build_condition_graph(condition_fn(4))
    assert independent_bound_chi(graph, len(graph)) == 1


def test_binomial_lower_bound_values():
    b10 = binomial_lower_bound(10)
    assert (b10.k, b10.t, b10.bound) == (3, 1, 12)
    b15 = binomial_lower_bound(15)
    assert (b15.k, b15.t, b15.bound) == (4, 1, 13)
    assert b15.bound == math.ceil(math.comb(15, 4) / math.comb(15, 2))
    with pytest.raises(ConditionError):
        binomial_lower_bound(12)
    with pytest.raises(ConditionError):
        binomial_lower_bound(20)  # 20/5 = 4 is not prime
    with pytest.raises(ConditionError):
        binomial_lower_bound(5)  # 5/5 = 1 is not prime


def test_binomial_bound_consistent_with_exact_when_feasible():
    adjacency = build_condition_graph(condition_fn(10))
    bound = binomial_lower_bound(10).bound
    try:
        k, _ = chromatic_number(adjacency, budget=100_000)
    except SearchBudgetError:
        # Too large to colour exactly: bracket the bound between a clique
        # and the colour count of a checked proper colouring instead.
        active = [v for v, nbrs in enumerate(adjacency) if nbrs]
        upper, colour = _greedy_colouring(active, adjacency)
        assert sorted(colour) == active and set(colour.values()) == set(range(1, upper + 1))
        assert all(colour[u] != colour[v] for v in active for u in active if adjacency[v] >> u & 1)
        assert clique_lower_bound(adjacency) <= bound <= upper
        return
    assert bound <= k


PERFBENCH_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


def test_report_rows_match_the_benchmark_pool():
    entries = json.loads(PERFBENCH_POOL.read_text())["classes"]["construct/succinctness"]
    assert [entry["n"] for entry in entries] == list(range(2, 11))
    for entry in entries:
        row = succinctness_report(entry["n"])
        cells = [row.n, row.gfg_size, row.det_rabin_lower, row.det_parity_upper, row.method]
        assert cells == entry["row"]
    # The exact search proves the separation the default row's clique bound hides.
    row = succinctness_report(7, exact_chi=True)
    assert (row.gfg_size, row.det_rabin_lower, row.method) == (3, 8, "exact-chi")


def running_parity(running_condition):
    return build_parity_automaton(running_condition)


def test_fscc_examples(running_condition):
    parity = build_parity_automaton(running_condition)
    assert fscc(parity, ["a"]) == {frozenset({3}), frozenset({4})}
    assert fscc(parity, ["a", "b", "c"]) == {frozenset({3, 4, 5})}
    single = named_automaton(
        ["q"],
        Alphabet("a"),
        ["q"],
        [Transition("q", "a", "1", "q")],
        ParityCondition(Alphabet(["1"]), {"1": 1}),
    )
    assert fscc(single, ["a"]) == {frozenset({"q"})}


def test_fscc_requires_defined_transitions():
    partial = named_automaton(
        [0],
        Alphabet("ab"),
        [0],
        [Transition(0, "a", "1", 0)],
        ParityCondition(Alphabet(["1"]), {"1": 1}),
    )
    with pytest.raises(ConditionError):
        fscc(partial, ["b"])


def test_fscc_outputs_are_closed_and_disjoint(running_condition):
    parity = build_parity_automaton(running_condition)
    for mask in range(1, 8):
        letters = [s for i, s in enumerate("abc") if mask >> i & 1]
        comps = fscc(parity, letters)
        assert comps
        seen = set()
        moves = {
            q: [transitions_from(parity, q, a)[0].dst for a in letters]
            for q in parity.states
        }
        for comp in comps:
            assert not comp & seen
            seen |= comp
            for q in comp:
                for dst in moves[q]:
                    assert dst in comp
                for p in comp:
                    reach = {q}
                    frontier = [q]
                    while frontier:
                        cur = frontier.pop()
                        for dst in moves[cur]:
                            if dst not in reach:
                                reach.add(dst)
                                frontier.append(dst)
                    assert p in reach


def deterministic_rabin_for_f4():
    parity = build_parity_automaton(condition_fn(4))
    return named_automaton(
        parity.states,
        parity.alphabet,
        parity.initial,
        parity.transitions,
        rabin_from_parity(parity.acceptance),
    )


def eligible_pairs(cond):
    n = len(cond.alphabet)
    for m1 in range(1, 1 << n):
        for m2 in range(1, 1 << n):
            if cond.accepts_mask(m1) or cond.accepts_mask(m2):
                continue
            if cond.accepts_mask(m1 | m2):
                yield cond.alphabet.from_mask(m1), cond.alphabet.from_mask(m2)


def test_disjoint_fscc_on_correct_automaton():
    cond = condition_fn(4)
    aut = deterministic_rabin_for_f4()
    count = 0
    for c1, c2 in eligible_pairs(cond):
        assert verify_disjoint_fscc(aut, c1, c2, cond)
        count += 1
    assert count > 0


def test_disjoint_fscc_refutes_undersized_automaton():
    cond = condition_fn(4)
    colours = Alphabet(["x"])
    tiny = named_automaton(
        [0],
        cond.alphabet,
        [0],
        [Transition(0, a, "x", 0) for a in cond.alphabet],
        rabin_from_parity(ParityCondition(colours, {"x": 2})),
    )
    c1, c2 = next(iter(eligible_pairs(cond)))
    assert not verify_disjoint_fscc(tiny, c1, c2, cond)


def test_disjoint_fscc_preconditions():
    cond = condition_fn(4)
    aut = deterministic_rabin_for_f4()
    accepting = ["1", "2"]
    with pytest.raises(ConditionError):
        verify_disjoint_fscc(aut, accepting, accepting, cond)
    with pytest.raises(ConditionError):
        verify_disjoint_fscc(aut, ["1"], ["1"], cond)


def test_succinctness_report_rows():
    row4 = succinctness_report(4)
    assert (row4.gfg_size, row4.det_rabin_lower, row4.det_parity_upper) == (2, 4, 12)
    assert row4.method == "exact-chi"
    row6 = succinctness_report(6)
    assert (row6.gfg_size, row6.det_rabin_lower, row6.det_parity_upper) == (3, 6, 60)
    row10 = succinctness_report(10)
    assert (row10.gfg_size, row10.det_rabin_lower) == (5, 12)
    assert row10.method == "binomial"
    row3 = succinctness_report(3)
    assert row3.gfg_size == 1
    assert row3.method == "exact-chi"


def test_report_documents():
    row = succinctness_report(10)
    doc = report_to_dict(row)
    assert doc["binomial"] == {"k": 3, "t": 1, "bound": 12}
    assert "1.116" in doc["asymptotic_note"]
    text = report_to_text([row, succinctness_report(4)])
    assert "binomial" in text and "exact-chi" in text
    assert "1.116" in text


def test_report_non_5p_without_exact_flag():
    row = succinctness_report(8, exact_chi=False)
    assert row.method == "clique bound only"
    assert row.det_rabin_lower >= 1


def test_exact_chi_over_budget_reports_the_default_bound():
    # A search that runs out proves nothing exact: the row carries the
    # default mode's bound and method, and says the search ran out.
    for n in (7, 10):
        default = succinctness_report(n)
        row = succinctness_report(n, exact_chi=True, budget=10)
        assert row.det_rabin_lower == default.det_rabin_lower
        assert row.binomial == default.binomial
        assert row.method == f"{default.method} (exact search over budget)"
    assert succinctness_report(10, exact_chi=True, budget=10).det_rabin_lower == 12


def test_condition_graph_and_report_refuse_sizes_out_of_range():
    letters = Alphabet([f"l{i}" for i in range(21)])
    with pytest.raises(ConditionError, match="alphabet too large to materialise 2\\^n vertices"):
        build_condition_graph(MullerCondition(letters, []))
    with pytest.raises(ConditionError, match="succinctness report needs n >= 2"):
        succinctness_report(1)
