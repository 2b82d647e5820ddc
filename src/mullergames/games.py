"""Coloured game graphs, memory structures, automaton products, and solvers.

The pipeline for Muller games: compose the arena with the deterministic
parity automaton of the condition to decide the winner, then compose it
with the good-for-games Rabin automaton and extract a positional strategy
of the Rabin product, whose automaton component becomes the memory
structure for the original game.

There is one solver per kind of game, both on the same edge-midpoint split
with integer node ids: Zielonka's recursion for parity games
(`solve_parity_game`) and its Rabin form, where Exist always has a
positional strategy (`positional_rabin_strategy`).  Each result is
re-checked by cycle analysis of the strategy before it is returned, and the
two products must agree on the winner of the initial vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ._graph import strongly_connected_components
from .automata import Automaton, Transition, accepts_colour_set, condition_colours
from .conditions import (
    AnyCondition,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)
from .construction import GfgRabinAutomaton, build_gfg_rabin, build_parity_automaton
from .zielonka import build_zielonka

Vertex = Hashable

EXIST = "Exist"
UNIV = "Univ"
EPSILON = None


class GameError(ValueError):
    """Malformed game, failed precondition, or exceeded search budget."""


class NotWonByExist(GameError):
    """Raised when a memory structure is requested for a game Univ wins."""


@dataclass(frozen=True)
class GameEdge:
    src: Vertex
    colour: Optional[str]
    dst: Vertex


class GameGraph:
    """A two-player arena with colours from an alphabet plus silent edges."""

    def __init__(
        self,
        vertices: Iterable[tuple[Vertex, str]],
        edges: Iterable[GameEdge | tuple],
        initial: Vertex,
        condition: Optional[AnyCondition] = None,
    ):
        self._owner: dict[Vertex, str] = {}
        order: list[Vertex] = []
        for name, owner in vertices:
            owner = owner.capitalize()
            if owner not in (EXIST, UNIV):
                raise GameError(f"owner of {name!r} must be Exist or Univ")
            if name in self._owner:
                raise GameError(f"duplicate vertex {name!r}")
            self._owner[name] = owner
            order.append(name)
        self.vertices = tuple(order)
        if initial not in self._owner:
            raise GameError(f"initial vertex {initial!r} is not a vertex")
        self.initial = initial
        self.condition = condition

        seen: set[GameEdge] = set()
        out: dict[Vertex, list[GameEdge]] = {v: [] for v in self.vertices}
        ordered: list[GameEdge] = []
        colours = condition_colours(condition).symbols if condition is not None else None
        for e in edges:
            e = e if isinstance(e, GameEdge) else GameEdge(*e)
            if e.src not in self._owner or e.dst not in self._owner:
                raise GameError(f"edge {e} uses an unknown vertex")
            if e.colour is not None and colours is not None and e.colour not in colours:
                raise GameError(f"edge colour {e.colour!r} is not a condition colour")
            if e in seen:
                continue
            seen.add(e)
            out[e.src].append(e)
            ordered.append(e)
        self.edges = tuple(ordered)
        self._out = {v: tuple(es) for v, es in out.items()}

        for v in self.vertices:
            if not self._out[v]:
                raise GameError(
                    f"vertex {v!r} violates 'at least one move from every position'"
                )
        self._check_no_epsilon_cycle()

    def _check_no_epsilon_cycle(self) -> None:
        # Colour-free DFS over silent edges only; any back edge is a cycle.
        def silent(v: Vertex):
            return iter([e.dst for e in self._out[v] if e.colour is None])

        state: dict[Vertex, int] = {}
        for root in self.vertices:
            if state.get(root):
                continue
            stack = [(root, silent(root))]
            state[root] = 1
            while stack:
                v, pending = stack[-1]
                for nxt in pending:
                    if state.get(nxt) == 1:
                        raise GameError(
                            "game violates 'no cycle is labelled exclusively by "
                            + "ε'"
                        )
                    if state.get(nxt, 0) == 0:
                        state[nxt] = 1
                        stack.append((nxt, silent(nxt)))
                        break
                else:
                    state[v] = 2
                    stack.pop()

    def owner(self, v: Vertex) -> str:
        return self._owner[v]

    def out(self, v: Vertex) -> tuple[GameEdge, ...]:
        return self._out[v]

    def exist_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if self._owner[v] == EXIST)

    def __repr__(self) -> str:
        return f"GameGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass
class MemoryStructure:
    """Finite-state strategy memory (M, m0, update, choice)."""

    states: tuple[Hashable, ...]
    initial: Hashable
    update: dict[tuple[Hashable, GameEdge], Hashable]
    strategy: dict[tuple[Hashable, Vertex], GameEdge]

    @property
    def size(self) -> int:
        return len(self.states)

    def validate(self, game: GameGraph) -> None:
        for v in game.exist_vertices():
            for m in self.states:
                chosen = self.strategy.get((m, v))
                if chosen is None or chosen not in game.out(v):
                    raise GameError(f"strategy at ({m!r}, {v!r}) is not a move of {v!r}")
        for e in game.edges:
            for m in self.states:
                if (m, e) not in self.update:
                    raise GameError(f"memory update missing for ({m!r}, {e})")


# -- product games -------------------------------------------------------------


@dataclass
class ProductGame:
    """The arena product of a game with an automaton for its condition.

    State vertices pair a game vertex with an automaton state; choice
    vertices remember the pending letter and the automaton state before it,
    so each resolution edge carries the output colour of one transition.
    """

    game: GameGraph
    original: GameGraph
    automaton: Automaton
    move_edge: dict[GameEdge, GameEdge] = field(default_factory=dict)
    resolve_transition: dict[GameEdge, Transition] = field(default_factory=dict)

    def state_vertex(self, x: Vertex, q) -> tuple:
        return ("s", x, q)


def _build_product(game: GameGraph, automaton: Automaton, seeds: Sequence[Vertex]) -> ProductGame:
    if len(automaton.initial) != 1:
        raise GameError("product requires an automaton with a single initial state")
    for e in game.edges:
        if e.colour is not None and e.colour not in automaton.alphabet:
            raise GameError(
                f"alphabet mismatch: game colour {e.colour!r} unknown to the automaton"
            )
    q0 = automaton.initial[0]
    move_edge: dict[GameEdge, GameEdge] = {}
    resolve_transition: dict[GameEdge, Transition] = {}
    vertices: list[tuple[Vertex, str]] = []
    edges: list[GameEdge] = []
    seen: set = set()
    queue: list = []

    def visit(vertex, owner: str) -> None:
        if vertex not in seen:
            seen.add(vertex)
            vertices.append((vertex, owner))
            queue.append(vertex)

    for x in seeds:
        visit(("s", x, q0), game.owner(x))
    while queue:
        vertex = queue.pop()
        if vertex[0] == "s":
            _, x, q = vertex
            for e in game.out(x):
                if e.colour is None:
                    target = ("s", e.dst, q)
                    visit(target, game.owner(e.dst))
                else:
                    target = ("c", e.dst, e.colour, q)
                    visit(target, EXIST)
                pe = GameEdge(vertex, EPSILON, target)
                if pe not in move_edge:
                    edges.append(pe)
                    move_edge[pe] = e
        else:
            _, x, letter, q = vertex
            options = automaton.transitions_from(q, letter)
            if not options:
                raise GameError(
                    f"automaton is not complete: no {letter!r}-transition from {q!r}"
                )
            for t in options:
                target = ("s", x, t.dst)
                visit(target, game.owner(x))
                pe = GameEdge(vertex, t.colour, target)
                if pe not in resolve_transition:
                    edges.append(pe)
                    resolve_transition[pe] = t

    product = GameGraph(
        vertices, edges, ("s", seeds[0], q0), condition=automaton.acceptance
    )
    return ProductGame(product, game, automaton, move_edge, resolve_transition)


def product_with_automaton(game: GameGraph, automaton: Automaton) -> ProductGame:
    """Compose a Muller game with an automaton recognising its condition.

    The automaton's acceptance (Rabin or parity over its output colours)
    becomes the product's winning condition; the game component keeps its
    owners and Exist owns every resolution vertex.
    """
    condition = game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("product_with_automaton expects a game with a Muller condition")
    if condition.alphabet != automaton.alphabet:
        raise GameError("alphabet mismatch between game condition and automaton")
    return _build_product(game, automaton, [game.initial])


# -- parity games --------------------------------------------------------------


@dataclass
class ParitySolution:
    winners: dict[Vertex, str]
    exist_strategy: dict[Vertex, GameEdge]
    univ_strategy: dict[Vertex, GameEdge]

    def region(self, player: str) -> frozenset:
        return frozenset(v for v, w in self.winners.items() if w == player)


def _split_edges(game: GameGraph) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The arena with every edge split by a midpoint, on integer node ids:
    node i < len(game.vertices) is game.vertices[i], and node
    len(game.vertices) + j is the midpoint of game.edges[j].  Returns
    (succ, preds, owners) with owner 0 for Exist and 1 for Univ; a midpoint
    has one successor, so its owner (Univ) never matters."""
    index = {v: i for i, v in enumerate(game.vertices)}
    succ: list[list[int]] = [[] for _ in game.vertices]
    for j, e in enumerate(game.edges):
        succ[index[e.src]].append(len(index) + j)
    succ.extend([index[e.dst]] for e in game.edges)
    preds: list[list[int]] = [[] for _ in succ]
    for u, outs in enumerate(succ):
        for w in outs:
            preds[w].append(u)
    owners = [0 if game.owner(v) == EXIST else 1 for v in game.vertices]
    owners += [1] * len(game.edges)
    return succ, preds, owners


def _attract(
    player: int,
    base: set,
    nodes: set,
    succ: Mapping | Sequence,
    preds: Mapping | Sequence,
    owners: Mapping | Sequence,
) -> tuple[set, dict]:
    """Attractor of `base` for `player` inside `nodes`, with the moves that
    player uses to advance towards the base."""
    attr = set(base)
    strat: dict = {}
    degree = {
        v: sum(1 for w in succ[v] if w in nodes)
        for v in nodes
        if owners[v] != player
    }
    queue = list(base)
    while queue:
        n = queue.pop()
        for p in preds[n]:
            if p not in nodes or p in attr:
                continue
            if owners[p] == player:
                attr.add(p)
                strat[p] = n
                queue.append(p)
            else:
                degree[p] -= 1
                if degree[p] == 0:
                    attr.add(p)
                    queue.append(p)
    return attr, strat


def _zielonka_solve(
    nodes: frozenset,
    succ: Mapping,
    preds: Mapping,
    owners: Mapping,
    prio: Mapping,
) -> tuple[set, set, dict]:
    """Recursive attractor decomposition for max-parity vertex games.

    Returns (win_even, win_odd, strategy) where the strategy maps each node
    to the move its winner takes there.
    """
    if not nodes:
        return set(), set(), {}
    top = max(prio[v] for v in nodes)
    player = top % 2
    local_succ = {v: [w for w in succ[v] if w in nodes] for v in nodes}
    local_preds = {v: [w for w in preds[v] if w in nodes] for v in nodes}
    target = {v for v in nodes if prio[v] == top}
    attr, attr_strat = _attract(player, target, set(nodes), local_succ, local_preds, owners)
    rest = frozenset(nodes - attr)
    w_even, w_odd, strat = _zielonka_solve(rest, succ, preds, owners, prio)
    w_opp = w_odd if player == 0 else w_even
    if not w_opp:
        full_strat = dict(strat)
        full_strat.update(attr_strat)
        for v in target:
            if owners[v] == player and v not in full_strat:
                full_strat[v] = local_succ[v][0]
        win = set(nodes)
        return (win, set(), full_strat) if player == 0 else (set(), win, full_strat)
    opp = 1 - player
    oattr, oattr_strat = _attract(opp, set(w_opp), set(nodes), local_succ, local_preds, owners)
    rest2 = frozenset(nodes - oattr)
    w_even2, w_odd2, strat2 = _zielonka_solve(rest2, succ, preds, owners, prio)
    merged = dict(strat2)
    for v, w in strat.items():
        if v in w_opp and owners[v] == opp:
            merged.setdefault(v, w)
    for v, w in oattr_strat.items():
        merged.setdefault(v, w)
    if player == 0:
        return w_even2, set(w_odd2) | oattr, merged
    return set(w_even2) | oattr, w_odd2, merged


def _edge_priority(condition: ParityCondition, shift: int, colour: Optional[str]) -> int:
    return 0 if colour is None else condition.priority(colour) + shift


def solve_parity_game(
    game: GameGraph, condition: Optional[ParityCondition] = None
) -> ParitySolution:
    """Winning regions and positional strategies for an edge-coloured
    max-even parity game; silent edges never dominate a cycle.

    Both strategies are re-verified by cycle analysis before returning.
    """
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, ParityCondition):
        raise GameError("solve_parity_game expects a parity condition")
    lowest = min(condition.priorities.values())
    shift = 0
    if lowest < 1:
        shift = 1 - lowest
        shift += shift % 2  # keep parities intact

    # Midpoints carry their edge's priority and original vertices are
    # neutral.  No silent-only cycles, so priority 0 never decides anything.
    succ, preds, owners = _split_edges(game)
    base = len(game.vertices)
    prio = [0] * base + [_edge_priority(condition, shift, e.colour) for e in game.edges]
    w_even, w_odd, strat = _zielonka_solve(
        frozenset(range(len(succ))), succ, preds, owners, prio
    )
    winners = {v: EXIST if i in w_even else UNIV for i, v in enumerate(game.vertices)}
    exist_strategy = {}
    univ_strategy = {}
    for i, v in enumerate(game.vertices):
        if i in strat:
            chosen = game.edges[strat[i] - base]
            if game.owner(v) == EXIST and winners[v] == EXIST:
                exist_strategy[v] = chosen
            elif game.owner(v) == UNIV and winners[v] == UNIV:
                univ_strategy[v] = chosen
    solution = ParitySolution(winners, exist_strategy, univ_strategy)
    _verify_parity_solution(game, condition, solution)
    return solution


def _verify_parity_solution(
    game: GameGraph, condition: ParityCondition, solution: ParitySolution
) -> None:
    for player, strategy in (
        (EXIST, solution.exist_strategy),
        (UNIV, solution.univ_strategy),
    ):
        region = solution.region(player)
        avail: dict[Vertex, list[GameEdge]] = {}
        for v in region:
            if game.owner(v) == player:
                chosen = strategy.get(v)
                if chosen is None:
                    raise RuntimeError(f"missing {player} strategy at {v!r}")
                if chosen.dst not in region:
                    raise RuntimeError(f"{player} strategy leaves the winning region")
                avail[v] = [chosen]
            else:
                for e in game.out(v):
                    if e.dst not in region:
                        raise RuntimeError(
                            f"{player} region is not closed under opponent moves"
                        )
                avail[v] = list(game.out(v))
        bad_parity = 1 if player == EXIST else 0
        for p in _occurring_priorities(game, condition, region, avail):
            if p % 2 != bad_parity:
                continue
            restricted = {
                v: [
                    e
                    for e in avail[v]
                    if _edge_priority(condition, 0, e.colour) <= p or e.colour is None
                ]
                for v in region
            }
            for members, core_edges in _realisable_cores(region, restricted):
                if any(
                    e.colour is not None
                    and _edge_priority(condition, 0, e.colour) == p
                    for e in core_edges
                ):
                    raise RuntimeError(
                        f"cycle analysis refutes the {player} strategy at priority {p}"
                    )


def _occurring_priorities(game, condition, region, avail) -> set[int]:
    return {
        condition.priority(e.colour)
        for v in region
        for e in avail[v]
        if e.colour is not None
    }


# -- realisable recurrence sets -------------------------------------------------


def _realisable_cores(
    vertex_set: Iterable[Vertex], avail: Mapping[Vertex, Sequence[GameEdge]]
) -> list[tuple[frozenset, list[GameEdge]]]:
    """Maximal strongly connected edge sets that a play can visit forever.

    `avail` already fixes the strategy of whoever is restricted (those
    vertices carry exactly one edge); vertices without an edge staying in
    the component cannot recur and are pruned.
    """
    out: list[tuple[frozenset, list[GameEdge]]] = []

    def explore(members: frozenset) -> None:
        def succ(v):
            return [e.dst for e in avail[v] if e.dst in members]

        for comp in strongly_connected_components(members, succ):
            comp_set = frozenset(comp)
            internal = {
                v: [e for e in avail[v] if e.dst in comp_set] for v in comp_set
            }
            dead = {v for v in comp_set if not internal[v]}
            if dead:
                rest = comp_set - dead
                if rest and rest != members:
                    explore(rest)
            else:
                edges = [e for v in comp_set for e in internal[v]]
                if edges:
                    out.append((comp_set, edges))

    explore(frozenset(vertex_set))
    return out


def _rejecting_cores(
    vertex_set: Iterable[Vertex],
    avail: Mapping[Vertex, Sequence[GameEdge]],
    condition: RabinCondition,
) -> list[tuple[frozenset, list[GameEdge]]]:
    """All realisable cores whose colour set satisfies no Rabin pair.

    Cores satisfying some pair are refined by deleting the green edges of
    every satisfied pair, since a rejecting subset cannot use them.
    """
    found = []
    for members, edges in _realisable_cores(vertex_set, avail):
        colours = {e.colour for e in edges if e.colour is not None}
        if not colours:
            raise GameError("silent-only recurrence set; the arena is malformed")
        satisfied = [
            (green, red)
            for green, red in condition.pairs
            if any(c in green for c in colours) and not any(c in red for c in colours)
        ]
        if not satisfied:
            found.append((members, edges))
            continue
        banned = {
            e
            for e in edges
            if e.colour is not None
            and any(e.colour in green for green, _ in satisfied)
        }
        refined = {
            v: [e for e in avail[v] if e.dst in members and e not in banned]
            for v in members
        }
        found.extend(_rejecting_cores(members, refined, condition))
    return found


# -- Rabin games ---------------------------------------------------------------


@dataclass
class RabinStrategySolution:
    region: frozenset
    strategy: dict[Vertex, GameEdge]


def _strategy_avail(
    game: GameGraph, region: Iterable[Vertex], strategy: Mapping[Vertex, GameEdge]
) -> dict[Vertex, list[GameEdge]]:
    avail = {}
    for v in region:
        if game.owner(v) == EXIST:
            avail[v] = [strategy[v]]
        else:
            avail[v] = list(game.out(v))
    return avail


def positional_rabin_strategy(
    game: GameGraph, condition: Optional[RabinCondition] = None
) -> RabinStrategySolution:
    """Exist's whole winning region of an edge-coloured Rabin game, with one
    positional strategy that wins from all of it.

    Zielonka's recursion over the set of colours present in a subgame, on
    the edge-midpoint split with integer node ids (so the result does not
    depend on string hashing).  If some pair (g, r) is live on the present
    colours -- g present, r absent -- Exist attracts to g and the rest is
    solved; she wins everything once Univ wins nothing in the rest, and
    otherwise Univ's attractor to his region there is removed.  If no pair
    is live, each child `present & ~r` that still meets its g is tried
    inside the complement of Univ's attractor to the colours outside it;
    Exist's attractor to what she wins there is hers.  Every recursive call
    has strictly fewer colours present.  The strategy is re-checked by the
    one-player rejecting-cycle analysis before returning.
    """
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, RabinCondition):
        raise GameError("positional_rabin_strategy expects a Rabin condition")
    succ, preds, owners = _split_edges(game)
    base = len(game.vertices)
    colour = [0] * base + [
        0 if e.colour is None else 1 << condition.colours.index(e.colour)
        for e in game.edges
    ]
    pairs = [(g.mask, r.mask) for g, r in condition.pairs]

    def attract(player: int, target: set, nodes: set) -> tuple[set, dict]:
        return _attract(player, target, nodes, succ, preds, owners)

    def with_colour(nodes: set, mask: int) -> set:
        return {v for v in nodes if colour[v] & mask}

    def solve(nodes: set) -> tuple[set, dict]:
        won: set = set()
        strategy: dict = {}
        while nodes:
            present = 0
            for v in nodes:
                present |= colour[v]
            live = next((g for g, r in pairs if g & present and not r & present), 0)
            if live:
                attr, attr_strat = attract(0, with_colour(nodes, live), nodes)
                sub_won, sub_strat = solve(nodes - attr)
                lost = nodes - attr - sub_won
                if not lost:
                    strategy.update(sub_strat)
                    strategy.update(attr_strat)
                    return won | nodes, strategy
                nodes = nodes - attract(1, lost, nodes)[0]
                continue
            children = {present & ~r for g, r in pairs if g & present}
            for child in sorted(children):
                rest = nodes - attract(1, with_colour(nodes, ~child), nodes)[0]
                sub_won, sub_strat = solve(rest)
                if sub_won:
                    attr, attr_strat = attract(0, sub_won, nodes)
                    strategy.update(sub_strat)
                    strategy.update(attr_strat)
                    won |= attr
                    nodes = nodes - attr
                    break
            else:
                return won, strategy
        return won, strategy

    won, strat = solve(set(range(len(succ))))
    region = frozenset(v for i, v in enumerate(game.vertices) if i in won)
    strategy = {
        v: game.edges[strat[i] - base]
        for i, v in enumerate(game.vertices)
        if i in strat
    }
    _assert_rabin_strategy_wins(game, condition, region, strategy)
    return RabinStrategySolution(region, strategy)


def _assert_rabin_strategy_wins(game, condition, region, strategy) -> None:
    for v in region:
        if game.owner(v) == UNIV:
            for e in game.out(v):
                if e.dst not in region:
                    raise GameError(
                        "claimed winning region is not closed under Univ moves"
                    )
    avail = _strategy_avail(game, region, strategy)
    if _rejecting_cores(set(region), avail, condition):
        raise GameError("candidate strategy admits a rejecting reachable cycle")


# -- memory extraction and Muller solving ---------------------------------------


def memory_from_gfg(
    game: GameGraph,
    gfg: GfgRabinAutomaton,
    condition: Optional[MullerCondition] = None,
) -> MemoryStructure:
    """Project a positional strategy of the Rabin product onto the game: the
    automaton component becomes the memory, silent moves leave it unchanged."""
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("memory_from_gfg expects a game with a Muller condition")
    if condition.alphabet != gfg.automaton.alphabet:
        raise GameError("alphabet mismatch between game condition and automaton")
    product = _build_product(game, gfg.automaton, [game.initial])
    solution = positional_rabin_strategy(product.game)
    q0 = gfg.automaton.initial[0]
    if ("s", game.initial, q0) not in solution.region:
        raise NotWonByExist("the existential player does not win this game")

    states = tuple(gfg.automaton.states)
    update: dict[tuple[Hashable, GameEdge], Hashable] = {}
    strategy: dict[tuple[Hashable, Vertex], GameEdge] = {}
    for q in states:
        for e in game.edges:
            if e.colour is None:
                update[(q, e)] = q
                continue
            pv = ("c", e.dst, e.colour, q)
            chosen = solution.strategy.get(pv)
            if chosen is not None:
                update[(q, e)] = product.resolve_transition[chosen].dst
            else:
                options = gfg.automaton.transitions_from(q, e.colour)
                update[(q, e)] = options[0].dst if options else q
        for x in game.exist_vertices():
            pv = ("s", x, q)
            chosen = solution.strategy.get(pv)
            if chosen is not None:
                strategy[(q, x)] = product.move_edge[chosen]
            else:
                strategy[(q, x)] = game.out(x)[0]
    return MemoryStructure(states, q0, update, strategy)


@dataclass
class MullerSolution:
    winner: str
    memory: Optional[MemoryStructure]


def solve_muller_game(
    game: GameGraph, condition: Optional[MullerCondition] = None
) -> MullerSolution:
    """Decide a Muller game through the parity-automaton product; when Exist
    wins, extract a memory structure of size memtree from the GFG product.

    The two products are independent certificates of the winner at the
    initial vertex: if the parity product says Exist but her Rabin region
    in the GFG product misses its initial vertex, this raises `GameError`.
    The positional strategy behind the memory is itself re-checked by
    `positional_rabin_strategy`."""
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("solve_muller_game expects a Muller condition")
    parity_automaton = build_parity_automaton(condition)
    if game.condition is not condition:
        game = GameGraph(
            [(v, game.owner(v)) for v in game.vertices],
            game.edges,
            game.initial,
            condition,
        )
    product = product_with_automaton(game, parity_automaton)
    solution = solve_parity_game(product.game)
    winner = solution.winners[product.game.initial]
    if winner != EXIST:
        return MullerSolution(UNIV, None)
    try:
        memory = memory_from_gfg(game, build_gfg_rabin(condition), condition)
    except NotWonByExist:
        raise GameError(
            "internal: parity product and GFG Rabin product disagree on the "
            "winner of the initial vertex"
        ) from None
    return MullerSolution(EXIST, memory)


# -- strategy verification -------------------------------------------------------


def _memory_product(game: GameGraph, memory: MemoryStructure):
    """Reachable (vertex, memory) graph under the induced strategy: Exist
    follows the memory's choice, Univ moves freely."""
    start = (game.initial, memory.initial)
    nodes = {start}
    queue = [start]
    avail: dict = {}
    taken: dict = {}
    while queue:
        node = queue.pop()
        x, m = node
        if game.owner(x) == EXIST:
            moves = [memory.strategy[(m, x)]]
        else:
            moves = list(game.out(x))
        outs = []
        for e in moves:
            nxt = (e.dst, memory.update[(m, e)])
            outs.append(GameEdge(node, e.colour, nxt))
            taken[(node, e.colour, nxt)] = e
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
        avail[node] = outs
    return nodes, avail, taken


def _all_recurrence_sets_satisfy(
    nodes, avail, condition: AnyCondition, budget: int
) -> bool:
    """Check every realisable infinitely-recurring edge set of a one-player
    restricted graph: scan colour subsets, then the recurrence cores of each
    restricted subgraph (whose colour set is then exactly the scanned one)."""
    occurring = sorted(
        {e.colour for outs in avail.values() for e in outs if e.colour is not None}
    )
    if 1 << len(occurring) > budget:
        raise GameError(
            f"colour-subset enumeration needs {1 << len(occurring)} cases, over budget {budget}"
        )
    for mask in range(1, 1 << len(occurring)):
        allowed = {occurring[i] for i in range(len(occurring)) if mask >> i & 1}
        restricted = {
            v: [e for e in outs if e.colour is None or e.colour in allowed]
            for v, outs in avail.items()
        }
        for _, edges in _realisable_cores(nodes, restricted):
            colours = {e.colour for e in edges if e.colour is not None}
            if not colours:
                raise GameError("silent-only recurrence set; the arena is malformed")
            if not accepts_colour_set(condition, colours):
                return False
    return True


def verify_strategy(
    game: GameGraph,
    condition: AnyCondition,
    memory: MemoryStructure,
    budget: int = 1 << 16,
) -> bool:
    """True iff every infinitely recurring edge set that Univ can realise
    against the induced strategy has a colour set satisfying the condition.

    Enumerates colour subsets and checks the recurrence cores of each
    restricted graph; exponential in the number of occurring colours, so
    guarded by `budget`.
    """
    memory.validate(game)
    nodes, avail, _ = _memory_product(game, memory)
    return _all_recurrence_sets_satisfy(nodes, avail, condition, budget)


def is_chromatic(memory: MemoryStructure, game: GameGraph) -> bool:
    """True iff the reachable part of the update function factors through
    edge colours, with silent edges leaving the memory unchanged."""
    _, avail, taken = _memory_product(game, memory)
    seen: dict[tuple[Hashable, Optional[str]], Hashable] = {}
    for node, outs in avail.items():
        _, m = node
        for pe in outs:
            next_m = pe.dst[1]
            if pe.colour is None:
                if next_m != m:
                    return False
                continue
            key = (m, pe.colour)
            if key in seen and seen[key] != next_m:
                return False
            seen[key] = next_m
    return True


# -- brute-force oracle -----------------------------------------------------------


def brute_force_winner(
    game: GameGraph,
    condition: Optional[MullerCondition] = None,
    budget: int = 2_000_000,
) -> str:
    """Exhaustively enumerate Exist strategies with memory up to memtree and
    check each by realisable-edge-set analysis.  Test oracle only."""
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("brute_force_winner expects a Muller condition")
    size = build_zielonka(condition).memtree()
    states = tuple(range(size))
    counter = [0]

    start = (game.initial, 0)

    def closed_reachable(sigma, mu):
        """Reachable (vertex, memory) nodes, or the first missing decision."""
        seen = {start}
        stack = [start]
        while stack:
            x, m = stack.pop()
            if game.owner(x) == EXIST:
                e = sigma.get((m, x))
                if e is None:
                    return None, ("sigma", (m, x))
                moves = [e]
            else:
                moves = game.out(x)
            for e in moves:
                m2 = mu.get((m, e))
                if m2 is None:
                    return None, ("mu", (m, e))
                nxt = (e.dst, m2)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen, None

    def winning(sigma, mu) -> bool:
        nodes, _ = closed_reachable(sigma, mu)
        avail = {}
        for x, m in nodes:
            if game.owner(x) == EXIST:
                moves = [sigma[(m, x)]]
            else:
                moves = game.out(x)
            avail[(x, m)] = [
                GameEdge((x, m), e.colour, (e.dst, mu[(m, e)])) for e in moves
            ]
        return _all_recurrence_sets_satisfy(nodes, avail, condition, budget)

    def search(sigma, mu) -> bool:
        counter[0] += 1
        if counter[0] > budget:
            raise GameError(f"brute-force enumeration budget exceeded ({budget})")
        _, missing = closed_reachable(sigma, mu)
        if missing is None:
            return winning(sigma, mu)
        kind, key = missing
        if kind == "sigma":
            m, x = key
            for e in game.out(x):
                sigma[key] = e
                if search(sigma, mu):
                    del sigma[key]
                    return True
            del sigma[key]
            return False
        for m2 in states:
            mu[key] = m2
            if search(sigma, mu):
                del mu[key]
                return True
        del mu[key]
        return False

    return EXIST if search({}, {}) else UNIV


# -- document formats --------------------------------------------------------------


def game_from_dict(doc: Mapping, condition: Optional[AnyCondition] = None) -> GameGraph:
    """Build a game from the document format used by the CLI: `vertices`
    (name, owner), `edges` (src, colour or null, dst), `initial`."""
    if not isinstance(doc, Mapping):
        raise GameError("game document must be an object")
    for fieldname in ("vertices", "edges", "initial"):
        if fieldname not in doc:
            raise GameError(f"game document lacks field {fieldname!r}")
    for fieldname in ("vertices", "edges"):
        if not isinstance(doc[fieldname], list):
            raise GameError(f"field {fieldname!r} must be a list")
    vertices = []
    for row in doc["vertices"]:
        try:
            name, owner = row["name"], row["owner"]
        except (TypeError, KeyError):
            raise GameError(f"malformed vertex entry {row!r}") from None
        vertices.append((_text(name, "vertex name"), _text(owner, f"owner of {name!r}")))
    edges = []
    for row in doc["edges"]:
        try:
            src, colour, dst = row["src"], row["colour"], row["dst"]
        except (TypeError, KeyError):
            raise GameError(f"malformed edge entry {row!r}") from None
        if colour is not None:
            _text(colour, "edge colour")
        edges.append(GameEdge(_text(src, "edge source"), colour, _text(dst, "edge target")))
    return GameGraph(vertices, edges, _text(doc["initial"], "initial vertex"), condition)


def _text(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise GameError(f"{what} must be a string, got {value!r}")
    return value


def load_game(path: str, condition: Optional[AnyCondition] = None) -> GameGraph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise GameError(f"{path}: invalid JSON ({err})") from None
    return game_from_dict(doc, condition)


def memory_to_dict(memory: MemoryStructure) -> dict:
    def edge_doc(e: GameEdge) -> dict:
        return {"src": e.src, "colour": e.colour, "dst": e.dst}

    return {
        "states": list(memory.states),
        "initial": memory.initial,
        "update": [
            {"state": m, "edge": edge_doc(e), "next": memory.update[(m, e)]}
            for (m, e) in sorted(
                memory.update, key=lambda k: (str(k[0]), str(k[1]))
            )
        ],
        "strategy": [
            {"state": m, "vertex": x, "edge": edge_doc(memory.strategy[(m, x)])}
            for (m, x) in sorted(
                memory.strategy, key=lambda k: (str(k[0]), str(k[1]))
            )
        ],
    }
