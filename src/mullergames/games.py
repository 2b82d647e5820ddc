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
re-checked before it is returned, and the two products must agree on the
winner of the initial vertex.

One cycle check backs every certificate: the solvers' strategies,
`verify_strategy` and the brute-force oracle all ask `_rejected_core`
whether a one-player graph has a cycle whose colour set the condition
rejects.  It refines strongly connected components as the condition directs
(for a Muller condition, down its Zielonka tree), so it takes polynomial
time where a scan of colour subsets would take 2^colours passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from ._graph import strongly_connected_components
from .automata import Automaton, Transition, condition_colours
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
    degree: dict = {}  # opponent node -> its successors in `nodes` not yet in attr
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
                if p not in degree:
                    degree[p] = sum(1 for w in succ[p] if w in nodes)
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
    target = {v for v in nodes if prio[v] == top}
    attr, attr_strat = _attract(player, target, nodes, succ, preds, owners)
    rest = frozenset(nodes - attr)
    w_even, w_odd, strat = _zielonka_solve(rest, succ, preds, owners, prio)
    w_opp = w_odd if player == 0 else w_even
    if not w_opp:
        full_strat = dict(strat)
        full_strat.update(attr_strat)
        for v in target:
            if owners[v] == player and v not in full_strat:
                full_strat[v] = next(w for w in succ[v] if w in nodes)
        win = set(nodes)
        return (win, set(), full_strat) if player == 0 else (set(), win, full_strat)
    opp = 1 - player
    oattr, oattr_strat = _attract(opp, set(w_opp), nodes, succ, preds, owners)
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
    for player, strategy, losing in (
        (EXIST, solution.exist_strategy, 1),
        (UNIV, solution.univ_strategy, 0),
    ):
        region = solution.region(player)
        graph = _strategy_graph(game, region, strategy, player, condition)
        if _rejected_core(region, graph, _refiner(condition, losing)) is not None:
            raise GameError(f"internal: cycle analysis refutes the {player} strategy")


# -- the one cycle check behind every certificate --------------------------------


Refine = Callable[[int], Optional[Sequence[int]]]


def _rejected_core(
    nodes: Iterable[Vertex],
    out: Mapping[Vertex, Sequence[tuple[Vertex, int]]],
    refine: Refine,
) -> Optional[frozenset]:
    """A strongly connected set of nodes whose colours a play can repeat
    forever and the condition rejects, or None if there is none.

    `out[v]` lists (successor, colour bit) pairs, bit 0 for a silent edge.
    A play can stay in a component forever and take every one of its
    edges, so the component's colour mask is realisable.  `refine(mask)`
    returns None when that mask is rejected, and otherwise masks, each a
    proper subset of it, that between them contain every rejected subset;
    the component is searched again under each.
    """
    work = [(frozenset(nodes), -1)]
    while work:
        members, allowed = work.pop()
        local = {
            v: [(w, bit) for w, bit in out[v] if w in members and (not bit or bit & allowed)]
            for v in members
        }
        for comp in strongly_connected_components(members, lambda v: [w for w, _ in local[v]]):
            inside = frozenset(comp)
            inner = [bit for v in comp for w, bit in local[v] if w in inside]
            if not inner:
                continue
            mask = 0
            for bit in inner:
                mask |= bit
            if not mask:
                raise GameError("silent-only recurrence set; the arena is malformed")
            parts = refine(mask)
            if parts is None:
                return inside
            for part in parts:
                if part & mask == mask:  # would search the same component forever
                    raise GameError("internal: a refinement kept the whole colour set")
                work.append((inside, part & mask))
    return None


def _refiner(condition: AnyCondition, losing: int = 1) -> Refine:
    """`refine` for `_rejected_core` under a condition.  For a parity
    condition, `losing` is the parity of the priorities that lose (1 for
    Exist's side, 0 for Univ's)."""
    if isinstance(condition, MullerCondition):
        # The deepest tree node whose label holds the mask is round exactly
        # when the mask is accepted, and then every rejected subset of the
        # mask lies inside one of that node's children.
        tree = build_zielonka(condition)
        labels = [tree.label(n).mask for n in range(len(tree))]

        def refine(mask: int) -> Optional[list[int]]:
            node = tree.root
            while True:
                kids = tree.children(node)
                deeper = next((k for k in kids if not mask & ~labels[k]), None)
                if deeper is None:
                    return [labels[k] for k in kids] if tree.is_round(node) else None
                node = deeper

    elif isinstance(condition, RabinCondition):
        pairs = [(g.mask, r.mask) for g, r in condition.pairs]

        def refine(mask: int) -> Optional[list[int]]:
            # A rejected subset fails every pair the mask satisfies, and it
            # avoids their reds already, so it must avoid their greens.
            greens = 0
            for g, r in pairs:
                if g & mask and not r & mask:
                    greens |= g
            return [mask & ~greens] if greens else None

    else:
        prio = [condition.priority(c) for c in condition.colours]

        def refine(mask: int) -> Optional[list[int]]:
            present = [(p, 1 << i) for i, p in enumerate(prio) if mask >> i & 1]
            if max(p for p, _ in present) % 2 == losing:
                return None
            # A subset whose top priority loses stays at or below the
            # highest losing priority present.
            cap = max((p for p, _ in present if p % 2 == losing), default=None)
            if cap is None:
                return []
            return [sum(bit for p, bit in present if p <= cap)]

    return refine


def _colour_bit(condition: AnyCondition) -> Callable[[Optional[str]], int]:
    """An edge colour's bit in the condition's colour masks; 0 when silent."""
    index = condition_colours(condition).index
    return lambda colour: 0 if colour is None else 1 << index(colour)


def _strategy_graph(
    game: GameGraph,
    region: frozenset,
    strategy: Mapping[Vertex, GameEdge],
    player: str,
    condition: AnyCondition,
) -> dict[Vertex, list[tuple[Vertex, int]]]:
    """The one-player graph of `region` when `player` follows a positional
    strategy and the opponent moves freely, as `_rejected_core` reads it.
    Raises unless the strategy is defined and stays in the region and the
    opponent cannot leave it."""
    bit = _colour_bit(condition)
    graph = {}
    for v in region:
        if game.owner(v) == player:
            chosen = strategy.get(v)
            if chosen is None:
                raise GameError(f"internal: missing {player} strategy at {v!r}")
            if chosen.dst not in region:
                raise GameError(f"internal: {player} strategy leaves the winning region")
            moves = [chosen]
        else:
            moves = game.out(v)
            if any(e.dst not in region for e in moves):
                raise GameError(
                    f"internal: {player} region is not closed under opponent moves"
                )
        graph[v] = [(e.dst, bit(e.colour)) for e in moves]
    return graph


# -- Rabin games ---------------------------------------------------------------


@dataclass
class RabinStrategySolution:
    region: frozenset
    strategy: dict[Vertex, GameEdge]


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
    graph = _strategy_graph(game, region, strategy, EXIST, condition)
    if _rejected_core(region, graph, _refiner(condition)) is not None:
        raise GameError("internal: candidate strategy admits a rejecting reachable cycle")


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
    follows the memory's choice, Univ moves freely.  Maps each node to its
    (game edge, next node) moves."""
    start = (game.initial, memory.initial)
    nodes = {start}
    queue = [start]
    moves_of: dict = {}
    while queue:
        node = queue.pop()
        x, m = node
        if game.owner(x) == EXIST:
            moves = [memory.strategy[(m, x)]]
        else:
            moves = game.out(x)
        outs = moves_of[node] = []
        for e in moves:
            nxt = (e.dst, memory.update[(m, e)])
            outs.append((e, nxt))
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
    return moves_of


def _memory_strategy_wins(
    game: GameGraph,
    memory: MemoryStructure,
    bit: Callable[[Optional[str]], int],
    refine: Refine,
) -> bool:
    """True iff no cycle of the (vertex, memory) graph has a rejected colour set."""
    graph = {
        node: [(nxt, bit(e.colour)) for e, nxt in outs]
        for node, outs in _memory_product(game, memory).items()
    }
    return _rejected_core(graph, graph, refine) is None


def verify_strategy(
    game: GameGraph, condition: AnyCondition, memory: MemoryStructure
) -> bool:
    """True iff every infinitely recurring edge set that Univ can realise
    against the induced strategy has a colour set satisfying the condition.

    One condition-driven SCC refinement of the (vertex, memory) graph (see
    `_rejected_core`), polynomial in that graph and the condition's
    Zielonka tree.
    """
    memory.validate(game)
    return _memory_strategy_wins(game, memory, _colour_bit(condition), _refiner(condition))


def is_chromatic(memory: MemoryStructure, game: GameGraph) -> bool:
    """True iff the reachable part of the update function factors through
    edge colours, with silent edges leaving the memory unchanged."""
    seen: dict[tuple[Hashable, Optional[str]], Hashable] = {}
    for (_, m), outs in _memory_product(game, memory).items():
        for e, (_, next_m) in outs:
            if e.colour is None:
                if next_m != m:
                    return False
                continue
            key = (m, e.colour)
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
    check each complete one by the cycle check of `verify_strategy`; `budget`
    caps the enumeration.  Test oracle only."""
    condition = condition if condition is not None else game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("brute_force_winner expects a Muller condition")
    size = build_zielonka(condition).memtree()
    states = tuple(range(size))
    counter = [0]

    bit = _colour_bit(condition)
    refine = _refiner(condition)
    start = (game.initial, 0)

    def missing_decision(sigma, mu):
        """The first decision a reachable (vertex, memory) node lacks, or None."""
        seen = {start}
        stack = [start]
        while stack:
            x, m = stack.pop()
            if game.owner(x) == EXIST:
                e = sigma.get((m, x))
                if e is None:
                    return "sigma", (m, x)
                moves = [e]
            else:
                moves = game.out(x)
            for e in moves:
                m2 = mu.get((m, e))
                if m2 is None:
                    return "mu", (m, e)
                nxt = (e.dst, m2)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return None

    def search(sigma, mu) -> bool:
        counter[0] += 1
        if counter[0] > budget:
            raise GameError(f"brute-force enumeration budget exceeded ({budget})")
        missing = missing_decision(sigma, mu)
        if missing is None:
            return _memory_strategy_wins(
                game, MemoryStructure(states, 0, mu, sigma), bit, refine
            )
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
