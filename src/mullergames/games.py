"""Coloured game graphs, memory structures, automaton products, and solvers.

The pipeline for Muller games: decide the initial vertex's winner by
Zielonka's recursion, split by the condition's Zielonka tree, on the part
of the arena that vertex reaches, which every move keeps to, and stop as
soon as an attractor the top level removes holds that vertex.  When Exist
wins, compose the arena with the good-for-games Rabin automaton and extract
a positional strategy of the Rabin product, whose automaton component
becomes the memory structure for the original game.  When Univ wins,
compose it with the deterministic parity automaton of the condition,
explored from the initial vertex with Univ's moves kept to the region the
recursion gave it and Exist's all, and made row by row as the product
reads it; the certified solution of that product is Univ's certificate,
which a wrong region cannot pass.  The recursion and both automata
come from one Zielonka tree, which must be the game's own condition's
(`_game_tree`).  The memory is extracted on the product with the merged
GFG automaton (`GfgRabinAutomaton.merged`): it keeps the states, one
transition per (state, letter, target), and only the colours its moves
carry.  One rule builds a state vertex's moves in every product: a silent
move keeps the state, a lettered move takes the one transition of its
cell directly, and passes through a choice vertex, where Exist picks the
transition, only when the cell holds two or more.  So the deterministic
parity automaton gives the plain (vertex, state) product, and the merged
GFG automaton a choice vertex only where Exist has a choice.

Every game has one integer form, its `Arena`, with each edge split by a
midpoint.  A midpoint has one predecessor and one successor, kept in the
flat node-indexed columns `src` and `dst`; only vertices have `succ` and
`preds` lists, of their midpoints.  Every node carries its colour as a mask
over the colours of the game's own condition, `1 << i` for colour i and 0
at vertices and silent midpoints: a game's colours are the letters its
automata read, a product's its automaton's output colours.  So the
solvers, the certificates and the walk below read colour sets straight
off the arena, and only a move table or a name is indexed by a colour's
id, `mask.bit_length() - 1`.  Every game is built straight into its
arena, from edge columns that `GameGraph` and `_build_product` append to,
and names its edges (a product also its vertices) only when a caller reads
them.  There is one loop of Zielonka's recursion (`_zielonka`) on the
arena for every kind of game: Muller games, split by their tree
(`solve_muller_game`), and the products, parity games
(`solve_parity_game`) and Rabin games, where Exist always has a positional
strategy (`positional_rabin_strategy`), each split by its condition.  Only
the `split` of a subgame tells them apart.  Each recursive call sees fewer
colours, so a parity solve recurses at most as deep as its number of
distinct priorities, a Rabin solve as its number of colours, and a Muller
solve as its tree's height, since each recursive call's colours lie inside
the label of a child of the node that split its caller's.  Its attractor
(`_attract`) steps from a vertex to its in-midpoints and from a midpoint
straight to its source vertex.  Each result is re-checked before it is
returned, and a product that names another winner of the initial vertex
than the recursion raises `GameError`.

One cycle check backs every certificate: the solvers' strategies,
`verify_strategy` and the brute-force oracle all ask `_rejected_core`
whether a one-player graph has a cycle whose colour set the condition
gives to the player's opponent.  It asks the `split` that drives the
recursion, in the cycle search it shares with the Rabin lasso checker,
`_graph.refined_cores`, which searches a component whose colours `split`
gives to the player again without each target: polynomial time, where a
scan of colour subsets would take 2^colours passes.

A memory structure lives on the same ids: a choice table and an update
table over the game's arena, which `memory_from_gfg` writes straight from
the product.  Its names leave only through `memory_to_json`, which reads
the arena's edge columns with the text of each name made once; a game's
names enter only through `GameGraph` and leave through its `vertices` and
`edges` and a solution's `winners`.  One walk (`_walk`) over the
(vertex, memory) nodes x|M| + m serves `verify_strategy`, `is_chromatic`
and `brute_force_winner`, which searches by filling the tables in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence

from ._graph import dense_components, reachable, refined_cores
from .automata import Automaton, condition_colours
from .conditions import (
    AnyCondition,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)
from .construction import GfgRabinAutomaton, _tree, build_gfg_rabin, parity_automaton_on_demand
from .zielonka import ZielonkaTree, build_zielonka

Vertex = Hashable

EXIST = "Exist"
UNIV = "Univ"


class GameError(ValueError):
    """Malformed game, failed precondition, or exceeded search budget."""


class NotWonByExist(GameError):
    """Raised when a memory structure is requested for a game Univ wins."""


class GameEdge(NamedTuple):
    src: Vertex
    colour: Optional[str]
    dst: Vertex


class Arena(NamedTuple):
    """A game on integer node ids: node v < base is a vertex, and node
    base + j the midpoint of edge j.  `colours[v]` is node v's colour mask
    over `condition_colours` of its game's condition: `1 << i` for colour
    i, and 0 at vertices and silent midpoints.  A midpoint m has one
    predecessor, the vertex `src[m]`, and one successor, the vertex
    `dst[m]` (both -1 at vertices); `succ[v]` and `preds[v]` list a
    vertex's out- and in-midpoints in edge order.  Owner 0 is Exist and 1
    Univ, which owns every midpoint."""

    succ: list[list[int]]
    preds: list[list[int]]
    src: list[int]
    dst: list[int]
    owners: list[int]
    colours: list[int]
    base: int
    initial: int


def _arena(
    owners: list[int], src: list[int], dst: list[int], colours: list[int], initial: int
) -> Arena:
    """The arena of the vertices `owners` and the edges j from `src[j]` to
    `dst[j]` with colour mask `colours[j]`; vertices get mask 0."""
    base = len(owners)
    succ: list[list[int]] = [[] for _ in owners]
    preds: list[list[int]] = [[] for _ in owners]
    for m, (x, y) in enumerate(zip(src, dst), base):
        succ[x].append(m)
        preds[y].append(m)
    pad = [-1] * base
    owners = owners + [1] * len(src)
    return Arena(succ, preds, pad + src, pad + dst, owners, [0] * base + colours, base, initial)


class GameGraph:
    """A two-player arena whose edges carry colours of its condition, or
    none (silent); `arena` is its integer form, with each colour as its
    mask and silent as 0.  Every game is built straight into its arena, a
    product (`_build_product`) from ids alone, and names its edges (a
    product also its vertices) when they are first read."""

    def __init__(
        self,
        vertices: Iterable[tuple[Vertex, str]],
        edges: Iterable[GameEdge | tuple],
        initial: Vertex,
        condition: AnyCondition,
    ):
        index: dict[Vertex, int] = {}
        owners: list[int] = []
        for name, who in vertices:
            who = who.capitalize()
            if who not in (EXIST, UNIV):
                raise GameError(f"owner of {name!r} must be Exist or Univ")
            if name in index:
                raise GameError(f"duplicate vertex {name!r}")
            index[name] = len(owners)
            owners.append(0 if who == EXIST else 1)
        if initial not in index:
            raise GameError(f"initial vertex {initial!r} is not a vertex")
        colour_bit = {c: 1 << i for i, c in enumerate(condition_colours(condition))} | {None: 0}
        seen: set[tuple[int, int, int]] = set()  # (source, target, colour mask)
        sources: list[int] = []  # the edge columns
        targets: list[int] = []
        colours: list[int] = []
        for src, colour, dst in edges:
            x, y, c = index.get(src), index.get(dst), colour_bit.get(colour)
            if x is None or y is None:
                raise GameError(f"edge {GameEdge(src, colour, dst)} uses an unknown vertex")
            if c is None:
                raise GameError(f"edge colour {colour!r} is not a condition colour")
            if (x, y, c) not in seen:
                seen.add((x, y, c))
                sources.append(x)
                targets.append(y)
                colours.append(c)
        self.vertices, self.initial, self.condition = tuple(index), initial, condition
        self.arena = _arena(owners, sources, targets, colours, index[initial])
        succ, dst, colour = self.arena.succ, self.arena.dst, self.arena.colours
        for v, moves in zip(self.vertices, succ):
            if not moves:
                raise GameError(f"vertex {v!r} violates 'at least one move from every position'")
        # Only a vertex with a silent move can lie on a silent cycle.
        silent = [[dst[m] for m in moves if not colour[m]] for moves in succ]
        roots = [x for x, targets in enumerate(silent) if targets]
        for comp in dense_components(silent.__getitem__, roots, [-1] * len(owners)):
            if len(comp) > 1 or comp[0] in silent[comp[0]]:
                raise GameError("game violates 'no cycle is labelled exclusively by ε'")

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(self._name, range(self.arena.base)))

    @cached_property
    def edges(self) -> tuple[GameEdge, ...]:
        names, arena = self.vertices, self.arena
        src, dst, colours = arena.src, arena.dst, arena.colours
        # A mask's colour id; silent, mask 0, reads id -1, the last entry.
        named = condition_colours(self.condition).symbols + (None,)
        return tuple(
            GameEdge(names[src[m]], named[colours[m].bit_length() - 1], names[dst[m]])
            for m in range(arena.base, len(dst))
        )

    def __repr__(self) -> str:
        base = self.arena.base
        return f"GameGraph({base} vertices, {len(self.arena.dst) - base} edges)"


@dataclass
class MemoryStructure:
    """Finite-state strategy memory (M, m0, update, choice) on `game`'s
    arena ids, with m the index of a state in `states` and W their number:
    `choice[x·W + m]` is the index of Exist's edge at vertex x in state m
    (-1 at Univ's vertices), `update[j·W + m]` the state after edge j, and
    `start` the index of the initial state."""

    game: GameGraph
    states: tuple[Hashable, ...]
    start: int
    choice: list[int]
    update: list[int]

    @property
    def initial(self) -> Hashable:
        return self.states[self.start]

    @property
    def size(self) -> int:
        return len(self.states)


# -- product games -------------------------------------------------------------


@dataclass
class ProductGame:
    """The arena product of a game with an automaton for its condition.

    State vertices pair a game vertex with an automaton state.  Where the
    automaton's cell holds two or more transitions, a choice vertex
    remembers the pending letter and the automaton state before it, so each
    resolution edge carries the output colour of one transition; a
    deterministic automaton's product has none.  `ids` maps a key (see
    `_build_product`) to its node, or -1, and `keys` a node to its key.
    `moved[j]` is the game move (midpoint) that product edge j stands for,
    the first such move, and -1 for an edge of a choice vertex."""

    game: GameGraph
    original: GameGraph
    automaton: Automaton
    ids: list[int]
    keys: list[int]
    moved: list[int]

    def node(self, x: int, q: int, a: int = -1) -> int:
        """The state vertex (x, q), or the choice vertex (x, a, q) of a
        product whose automaton is not deterministic."""
        base, letters = self.original.arena.base, len(self.automaton.alphabet)
        return self.ids[(x if a < 0 else base + x * letters + a) * len(self.automaton.states) + q]


def _build_product(
    game: GameGraph, automaton: Automaton, seeds: Iterable[int], region: Optional[set] = None
) -> ProductGame:
    """The product reachable from the game vertices `seeds`, built into
    its arena, where a Univ vertex keeps only its moves to vertices in
    `region` when one is given (Exist keeps every move).  By index, state
    vertex (x, q) has key x|Q| + q and choice vertex (y, a, q) key
    (|V| + y|A| + a)|Q| + q; `ids` has room for choice keys only when the
    automaton is not deterministic.  Nodes are numbered as first reached,
    depth first.  Each colour mask is read from one bit table, so equal
    colours share one int.

    One loop serves every state vertex (x, q), with one rule per game move
    x -> y.  A silent move leads to (y, q) with colour 0.  A move that reads
    a leads straight to (y, r) with colour c when q's cell on a holds the
    one transition (c, r), and otherwise to the choice vertex (y, a, q) with
    colour 0, whose edges are the cell's transitions (Exist's resolution,
    which `memory_from_gfg` reads).  Each (target, colour) pair is kept
    once, for the first move that gives it, so a state vertex can have fewer
    edges than its game vertex has moves.  A silent product cycle projects
    to a game cycle, which `GameGraph` rejects.  A state vertex left with no
    move, which only `region` can cause, raises `GameError`."""
    if len(automaton.initial) != 1:
        raise GameError("product requires an automaton with a single initial state")
    alphabet, states, moves = automaton.alphabet, automaton.states, automaton.moves
    if condition_colours(game.condition) != alphabet:
        raise GameError("alphabet mismatch between game condition and automaton")
    succ, _, _, target, owner, _, base, _ = game.arena
    if region is not None:
        succ = [[m for m in ms if target[m] in region] if owner[x] else ms for x, ms in enumerate(succ)]
    # A game colour's id is the index of its letter, -1 for a silent edge;
    # an output colour id c has mask bit[c], and bit[-1] is 0.
    letter = [c.bit_length() - 1 for c in game.arena.colours]
    bit = [1 << c for c in range(len(automaton.colour_alphabet))] + [0]
    width, letters = len(states), len(alphabet)
    ids = [-1] * ((base if automaton.is_deterministic else base + base * letters) * width)
    keys: list[int] = []
    owners: list[int] = []
    sources: list[int] = []  # the product's edge columns
    targets: list[int] = []
    colours: list[int] = []
    moved: list[int] = []
    stack: list[int] = []

    def visit(key: int, who: int) -> int:
        node = ids[key]
        if node < 0:
            node = ids[key] = len(keys)
            keys.append(key)
            owners.append(who)
            stack.append(node)
        return node

    for x in seeds:
        visit(x * width + automaton.start[0], owner[x])
    while stack:
        node = stack.pop()
        x, q = divmod(keys[node], width)
        if x < base:
            row, out = moves[q], set()  # out: the (target, colour id) pairs kept
            for m in succ[x]:
                y, a = target[m], letter[m]
                if a >= 0 and len(row[a]) != 1:  # to the choice vertex (y, a, q)
                    edge = (visit((base + y * letters + a) * width + q, 0), -1)
                else:
                    c, r = row[a][0] if a >= 0 else (-1, q)
                    edge = (visit(y * width + r, owner[y]), c)
                if edge not in out:
                    out.add(edge)
                    sources.append(node)
                    targets.append(edge[0])
                    colours.append(bit[edge[1]])
                    moved.append(m)
            if not out:
                raise GameError(
                    f"internal: Univ has no move at {game.vertices[x]!r} in the region it was given"
                )
            continue
        y, a = divmod(x - base, letters)
        options = moves[q][a]
        if not options:
            raise GameError(
                f"automaton is not complete: no {alphabet.symbols[a]!r}-transition "
                f"from {states[q]!r}"
            )
        sources += [node] * len(options)
        targets += [visit(y * width + r, owner[y]) for _, r in options]
        colours += [bit[c] for c, _ in options]
        moved += [-1] * len(options)

    def name(v: int) -> tuple:
        x, q = divmod(keys[v], width)
        if x < base:
            return ("s", game.vertices[x], states[q])
        y, a = divmod(x - base, letters)
        return ("c", game.vertices[y], alphabet.symbols[a], states[q])

    product = GameGraph.__new__(GameGraph)
    product.arena, product._name = _arena(owners, sources, targets, colours, 0), name
    product.initial, product.condition = name(0), automaton.acceptance
    return ProductGame(product, game, automaton, ids, keys, moved)


def product_with_automaton(game: GameGraph, automaton: Automaton) -> ProductGame:
    """Compose a Muller game with an automaton recognising its condition.

    The automaton's acceptance (Rabin or parity over its output colours)
    becomes the product's winning condition; the game component keeps its
    owners and Exist owns every choice vertex, if the product has any.
    """
    condition = game.condition
    if not isinstance(condition, MullerCondition):
        raise GameError("product_with_automaton expects a game with a Muller condition")
    return _build_product(game, automaton, [game.arena.initial])


# -- solvers -------------------------------------------------------------------


class GameSolution:
    """A solver's result on node ids: `won` holds the nodes Exist wins,
    `lost` those Univ wins, and `moves` maps a vertex to the midpoint its
    winner takes; `winners` names each vertex's winner when first read.  A
    decision stopped early (`_zielonka`'s `stop`) leaves some nodes in
    neither region."""

    def __init__(self, game: GameGraph, won: set, moves: dict[int, int], lost: Optional[set] = None):
        self.game, self.won, self.moves, self.lost = game, won, moves, lost

    def strategy_of(self, player: int) -> dict[int, int]:
        """The moves of `player` (0 Exist, 1 Univ) in its region."""
        owners = self.game.arena.owners
        return {
            v: m
            for v, m in self.moves.items()
            if owners[v] == player and (v in self.won) == (player == 0)
        }

    @cached_property
    def winners(self) -> dict[Vertex, str]:
        return {v: EXIST if i in self.won else UNIV for i, v in enumerate(self.game.vertices)}


def _attract(player: int, base: set, nodes: set, arena: Arena) -> tuple[set, dict]:
    """Attractor of `base` for `player` inside `nodes`, with the moves that
    player makes at vertices to advance towards the base.  A midpoint has
    one successor, so it joins as soon as that vertex does; a vertex joins
    through its in-midpoints, at once if `player` owns it and otherwise
    once all its moves inside `nodes` have joined.  The queue is a stack."""
    succ, preds, src, owners = arena.succ, arena.preds, arena.src, arena.owners
    first_mid = arena.base
    attr = set(base)
    add = attr.add
    strat: dict = {}
    degree = [0] * first_mid  # opponent vertex: its moves in `nodes` not yet in attr
    queue = list(base)
    push, pop = queue.append, queue.pop
    while queue:
        n = pop()
        if n < first_mid:
            for m in preds[n]:
                if m in nodes and m not in attr:
                    add(m)
                    push(m)
            continue
        p = src[n]
        if p in attr or p not in nodes:
            continue
        if owners[p] != player:
            left = degree[p] or len(nodes.intersection(succ[p]))
            if left > 1:
                degree[p] = left - 1
                continue
        else:
            strat[p] = n
        add(p)
        push(p)
    return attr, strat


def _zielonka(
    game: GameGraph,
    split: Callable[[int], tuple[int, Sequence[int]]],
    nodes: Optional[set] = None,
    stop: int = -1,
) -> GameSolution:
    """Zielonka's recursion as one loop on the arena, for a parity, Rabin or
    Muller game, on `nodes` (the whole arena when None), which every move
    keeps to.  While nodes remain, `split` of their colour mask (the
    condition's, or a Muller condition's Zielonka tree's) names the player
    who attracts and the colour masks to try.  That mask is never 0: every
    subgame is an attractor's complement, so it holds a cycle, and no cycle
    is silent.  Per mask the player attracts to its nodes and the rest is
    solved.  Once the opponent wins some of the rest, its attractor to that
    is its own and is removed; if it wins none under any mask, the player
    wins every node.  Each recursive call sees fewer colours.  Both players'
    moves at vertices are kept, each in its own region.

    The top level stops as soon as an attractor it removes holds the node
    `stop`, which then has its winner: the nodes not yet removed are in
    neither region.  Univ's region is still a trap for Exist, in which
    every Univ vertex has a move, as each attractor Univ removed is."""
    arena = game.arena
    bit_of = arena.colours.__getitem__

    def solve(nodes: set, stop: int = -1) -> tuple[tuple[set, set], dict]:
        regions: tuple[set, set] = (set(), set())  # Exist's, Univ's
        strategy: dict = {}
        while nodes:
            present = reduce(or_, set(map(bit_of, nodes)))
            player, targets = split(present)
            moves: dict = {}
            for target in targets:
                # The nodes of `target`'s colours, added in `nodes`' order.
                base = set(compress(nodes, map(and_, map(bit_of, nodes), repeat(target))))
                attr, moves = _attract(player, base, nodes, arena)
                sub_regions, sub_moves = solve(nodes - attr)
                lost = sub_regions[1 - player]
                if lost:
                    break
                moves.update(sub_moves)
            else:
                strategy.update(moves)
                regions[player].update(nodes)
                return regions, strategy
            attr, moves = _attract(1 - player, lost, nodes, arena)
            strategy.update((v, m) for v, m in sub_moves.items() if v in lost)
            strategy.update(moves)
            regions[1 - player].update(attr)
            if stop in attr:
                break
            nodes = nodes - attr
        return regions, strategy

    (won, lost), strategy = solve(set(range(len(arena.colours))) if nodes is None else nodes, stop)
    return GameSolution(game, won, strategy, lost)


def solve_parity_game(game: GameGraph) -> GameSolution:
    """Winning regions and positional strategies for an edge-coloured
    max-even parity game; silent edges never dominate a cycle.  `_zielonka`
    recurses at most as deep as the number of distinct priorities, and both
    strategies are re-verified by cycle analysis."""
    if not isinstance(game.condition, ParityCondition):
        raise GameError("solve_parity_game expects a parity condition")
    solution = _zielonka(game, game.condition.split)
    _verify_solution(solution)
    return solution


def positional_rabin_strategy(game: GameGraph) -> GameSolution:
    """Exist's whole winning region of an edge-coloured Rabin game, with one
    positional strategy that wins from all of it.  `_zielonka` recurses at
    most as deep as the number of colours.  Univ may need memory to win a
    Rabin game, so only Exist's moves are kept, and re-verified."""
    if not isinstance(game.condition, RabinCondition):
        raise GameError("positional_rabin_strategy expects a Rabin condition")
    solution = _zielonka(game, game.condition.split)
    solution.moves = solution.strategy_of(0)
    _verify_solution(solution, (0,))
    return solution


def _verify_solution(solution: GameSolution, players=(0, 1)) -> None:
    """Certify each player's positional strategy (0 Exist, 1 Univ): it is
    defined on the player's region and stays there, the opponent cannot
    leave it, and `_rejected_core` finds no cycle in the one-player graph
    left that the game's condition makes the player lose.  Raises `GameError`
    otherwise."""
    game = solution.game
    succ, _, _, dst, owners, colours, base, _ = game.arena
    won, moves = solution.won, solution.moves
    for player in players:
        who = (EXIST, UNIV)[player]
        region = [v for v in range(base) if (v in won) == (player == 0)]
        position = [-1] * base
        for i, v in enumerate(region):
            position[v] = i
        out = []
        for v in region:
            if owners[v] == player:
                chosen = moves.get(v)
                if chosen is None:
                    raise GameError(f"internal: missing {who} strategy at {game.vertices[v]!r}")
                j = position[dst[chosen]]
                if j < 0:
                    raise GameError(f"internal: {who} strategy leaves the winning region")
                out.append(((j, colours[chosen]),))
                continue
            row = []
            for m in succ[v]:
                j = position[dst[m]]
                if j < 0:
                    raise GameError(f"internal: {who} region is not closed under opponent moves")
                row.append((j, colours[m]))
            out.append(row)
        if _rejected_core(out, game.condition.split, player) is not None:
            raise GameError(f"internal: cycle analysis refutes the {who} strategy")


# -- the one cycle check behind every certificate --------------------------------


def _rejected_core(
    out: Sequence[Sequence[tuple[int, int]]],
    split: Callable[[int], tuple[int, Sequence[int]]],
    player: int = 0,
) -> Optional[list[int]]:
    """The first set `refined_cores` finds of positions whose colours a play
    can repeat forever and `split` gives to the opponent of `player` (0
    Exist, 1 Univ), or None.  `out[i]` lists the (j, colour bit) edges from
    position i to position j, bit 0 for a silent one.  Colours that `split`
    gives to `player` are searched again without each of its targets in
    turn: every subset the opponent wins misses one of them, as it lies
    inside a child's label of a Muller tree, avoids the green of a Rabin
    pair that is live, or lacks the top parity priority."""

    def refine(mask: int) -> Optional[list[int]]:
        if not mask:
            raise GameError("silent-only recurrence set; the arena is malformed")
        winner, targets = split(mask)
        if winner != player:
            return None
        if any(not target & mask for target in targets):  # it would loop forever
            raise GameError("internal: a refinement kept the whole colour set")
        # A target holding every colour left leaves no colour to recur.
        return [part for part in (mask & ~target for target in targets) if part]

    return next(refined_cores(out, refine, range(len(out))), None)


# -- memory extraction and Muller solving ---------------------------------------


def _game_tree(
    game: GameGraph, given: Optional[MullerCondition | ZielonkaTree], who: str
) -> ZielonkaTree:
    """The Zielonka tree of `given` (the game's condition when None), which
    must be the game's own Muller condition or its tree; `who` names the
    caller in the `GameError` raised otherwise."""
    given = given if given is not None else game.condition
    if not isinstance(given, (MullerCondition, ZielonkaTree)):
        raise GameError(f"{who} expects a Muller condition")
    tree = _tree(given)
    if tree.condition != game.condition:
        raise GameError(f"{who}: the condition given is not the game's condition")
    return tree


def memory_from_gfg(game: GameGraph, gfg: GfgRabinAutomaton) -> MemoryStructure:
    """Project a positional strategy of the Rabin product onto the game: the
    automaton component becomes the memory, silent moves leave it unchanged.
    The product is built over the merged automaton (`gfg.merged`), which
    keeps the states, one transition per (state, letter, target) and only
    the colours its moves carry, so Exist's choice vertices are the cells
    with two or more targets.  A GFG automaton built for another condition
    than the game's is refused with `GameError` before any product is
    built.  The memory is certified by `verify_strategy` on the GFG's own
    tree."""
    _game_tree(game, gfg.tree, "memory_from_gfg")
    automaton = gfg.merged
    product = product_with_automaton(game, automaton)
    solution = positional_rabin_strategy(product.game)
    if product.game.arena.initial not in solution.won:
        raise NotWonByExist("the existential player does not win this game")

    width, node = len(automaton.states), product.node
    # The product checked that the game's colours are the automaton's
    # letters, so a colour's id is a letter index (-1 for silent).
    succ, _, _, dst, owners, _, base, _ = game.arena
    letter = [c.bit_length() - 1 for c in game.arena.colours]
    target, first_edge = product.game.arena.dst, product.game.arena.base
    moves = solution.moves
    choice = [-1] * (base * width)
    update = [0] * ((len(dst) - base) * width)
    for q, row in enumerate(automaton.moves):
        for j, m in enumerate(range(base, len(dst))):
            a, r = letter[m], q  # a silent edge keeps the state
            if a >= 0 and row[a]:
                r = row[a][0][1]
                if len(row[a]) > 1:  # Exist's choice, where the strategy made one
                    chosen = moves.get(node(dst[m], q, a))
                    if chosen is not None:  # to the state vertex (dst, r)
                        r = product.keys[target[chosen]] % width
            update[j * width + q] = r
        for x in range(base):
            if owners[x] == 0:  # the game move of the chosen product edge
                chosen = moves.get(node(x, q))
                m = succ[x][0] if chosen is None else product.moved[chosen - first_edge]
                choice[x * width + q] = m - base
    memory = MemoryStructure(game, automaton.states, automaton.start[0], choice, update)
    if not verify_strategy(memory, gfg.tree):
        raise GameError("internal: extracted memory failed strategy verification")
    return memory


@dataclass
class MullerSolution:
    winner: str
    memory: Optional[MemoryStructure]


def solve_muller_game(
    game: GameGraph, condition: Optional[MullerCondition | ZielonkaTree] = None
) -> MullerSolution:
    """Decide a Muller game by Zielonka's recursion, split by the
    condition's Zielonka tree (`ZielonkaTree.split`), on the part of the
    arena its initial vertex reaches, where that vertex has its winner in
    the whole game; the recursion stops once an attractor it removes holds
    that vertex.  Then certify that winner on a product.  When Exist wins,
    a memory structure of size memtree is extracted from the product with
    the merged GFG automaton, which has a choice vertex where a cell leaves
    Exist a choice of target, and the memory is her choice there; its
    `verify_strategy` check is her certificate.  When Univ wins, the
    product with the deterministic parity automaton is solved, and its
    certified parity solution is Univ's certificate.  That product is
    explored from the initial vertex with Univ's moves kept to the region
    the recursion gave it, and Exist's all: only the rows it reaches of
    the parity automaton are made (`parity_automaton_on_demand`).  A wrong
    region cannot pass, as Exist then wins the product or a Univ vertex in
    it has no move.

    One Zielonka tree (built here, or given for the game's condition) serves
    the recursion, both automata and the memory's certificate; a condition
    other than the game's raises `GameError`.  Each product is built
    straight into its arena, numbered as `_build_product` explores it.  A
    product that names the other winner than the recursion raises
    `GameError`; when the GFG Rabin product refuses Exist, the parity
    product is solved on the whole game to say which side is at fault."""
    tree = _game_tree(game, condition, "solve_muller_game")
    succ, _, _, dst, _, _, base, initial = game.arena
    nodes = reachable((initial,), lambda n: succ[n] if n < base else (dst[n],))
    decision = _zielonka(game, tree.split, nodes, initial)
    exist = initial in decision.won
    if exist:
        try:
            return MullerSolution(EXIST, memory_from_gfg(game, build_gfg_rabin(tree)))
        except NotWonByExist:
            pass
    region = None if exist else decision.lost
    product = _build_product(game, parity_automaton_on_demand(tree), [initial], region)
    parity_exist = product.game.arena.initial in solve_parity_game(product.game).won
    if exist and parity_exist:
        raise GameError(
            "internal: parity product and GFG Rabin product disagree on the "
            "winner of the initial vertex"
        )
    if exist:
        raise GameError(
            "internal: the tree-guided recursion names Exist the winner of the "
            "initial vertex, but the parity and GFG Rabin products name Univ"
        )
    if parity_exist:
        raise GameError(
            "internal: the tree-guided recursion names Univ the winner of the "
            "initial vertex, but the parity product names Exist"
        )
    return MullerSolution(UNIV, None)


# -- strategy verification -------------------------------------------------------


def _walk(memory: MemoryStructure) -> tuple[list[int], list, Optional[tuple[list[int], int]]]:
    """Depth first over the (vertex, memory) nodes x·W + m reachable from
    the game's initial vertex in the initial state: Exist takes the edge
    `memory.choice` gives, Univ every edge, and edge j leads from memory m
    to `memory.update[j·W + m]`.  Returns (nodes, rows, gap): `nodes` in the
    order first reached, and `rows[i]` the (position of the next node,
    colour mask) pair of each move of nodes[i], mask 0 for a silent one.
    The walk stops at the first -1 entry it needs, with `gap` = (table,
    slot) and the rows incomplete; `gap` is None otherwise."""
    width, choice, update = memory.size, memory.choice, memory.update
    succ, _, _, dst, owners, colours, base, initial = memory.game.arena
    start = initial * width + memory.start
    nodes, rows, position, stack = [start], [None], {start: 0}, [0]
    while stack:
        i = stack.pop()
        node = nodes[i]
        x, m = divmod(node, width)
        if owners[x]:
            moves = succ[x]
        else:
            j = choice[node]
            if j < 0:
                return nodes, rows, (choice, node)
            moves = (base + j,)
        row = []
        for mid in moves:
            j = mid - base
            k = update[j * width + m]
            if k < 0:
                return nodes, rows, (update, j * width + m)
            nxt = dst[mid] * width + k
            p = position.get(nxt)
            if p is None:
                p = position[nxt] = len(nodes)
                nodes.append(nxt)
                rows.append(None)
                stack.append(p)
            row.append((p, colours[mid]))
        rows[i] = row
    return nodes, rows, None


def verify_strategy(memory: MemoryStructure, condition: AnyCondition | ZielonkaTree) -> bool:
    """True iff every infinitely recurring edge set that Univ can realise
    against the induced strategy has a colour set satisfying the condition
    (the memory's game's, given as such or for a Muller condition as its
    Zielonka tree; another condition raises `GameError`).

    The reachable (vertex, memory) graph goes to one condition-driven SCC
    refinement (`_rejected_core`), polynomial in that graph and the
    condition's Zielonka tree.
    """
    given = condition.condition if isinstance(condition, ZielonkaTree) else condition
    if given != memory.game.condition:
        raise GameError("verify_strategy: the condition given is not the game's condition")
    _, rows, _ = _walk(memory)
    if isinstance(condition, MullerCondition):
        condition = build_zielonka(condition)
    return _rejected_core(rows, condition.split) is None


def is_chromatic(memory: MemoryStructure) -> bool:
    """True iff the reachable part of the update function factors through
    edge colours, with silent edges leaving the memory unchanged."""
    width = memory.size
    nodes, rows, _ = _walk(memory)
    seen: dict[tuple[int, int], int] = {}
    for node, row in zip(nodes, rows):
        m = node % width
        for p, colour in row:
            next_m = nodes[p] % width
            expected = m if not colour else seen.setdefault((m, colour), next_m)
            if next_m != expected:
                return False
    return True


# -- brute-force oracle -----------------------------------------------------------


def brute_force_winner(
    game: GameGraph,
    condition: Optional[MullerCondition | ZielonkaTree] = None,
    budget: int = 2_000_000,
) -> str:
    """Exhaustively enumerate Exist strategies with memory up to memtree and
    check each complete one by the cycle check of `verify_strategy`; `budget`
    caps the enumeration.  The condition, the game's, may be given as its
    Zielonka tree; another condition raises `GameError`.
    Test oracle only.  Each search node walks (`_walk`) a `MemoryStructure`
    of -1 tables to its first -1 slot and tries its edges or memory states
    in order there; a walk that needs none goes to `_rejected_core`."""
    tree = _game_tree(game, condition, "brute_force_winner")
    arena, width = game.arena, tree.memtree()
    succ, base = arena.succ, arena.base
    choice, update = [-1] * (base * width), [-1] * ((len(arena.dst) - base) * width)
    memory = MemoryStructure(game, tuple(range(width)), 0, choice, update)
    searched = 0

    def search() -> bool:
        nonlocal searched
        searched += 1
        if searched > budget:
            raise GameError(f"brute-force enumeration budget exceeded ({budget})")
        _, rows, gap = _walk(memory)
        if gap is None:
            return _rejected_core(rows, tree.split) is None
        table, slot = gap
        options = range(width) if table is update else [m - base for m in succ[slot // width]]
        for option in options:
            table[slot] = option
            if search():
                return True
        table[slot] = -1
        return False

    return EXIST if search() else UNIV


# -- document formats --------------------------------------------------------------


def game_from_dict(doc: Mapping, condition: AnyCondition) -> GameGraph:
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
        if not (isinstance(name, str) and isinstance(owner, str)):
            _text(name, "vertex name")
            _text(owner, f"owner of {name!r}")
        vertices.append((name, owner))
    edges = []
    for row in doc["edges"]:
        try:
            src, colour, dst = row["src"], row["colour"], row["dst"]
        except (TypeError, KeyError):
            raise GameError(f"malformed edge entry {row!r}") from None
        if not isinstance(colour, str) and colour is not None:
            _text(colour, "edge colour")
        if not (isinstance(src, str) and isinstance(dst, str)):
            _text(src, "edge source")
            _text(dst, "edge target")
        edges.append((src, colour, dst))
    return GameGraph(vertices, edges, _text(doc["initial"], "initial vertex"), condition)


def _text(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise GameError(f"{what} must be a string, got {value!r}")
    return value


def load_game(path: str, condition: AnyCondition) -> GameGraph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:  # JSON is UTF-8 text
            raise GameError(f"{path}: invalid JSON ({err})") from None
    return game_from_dict(doc, condition)


def _rows(memory: MemoryStructure) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """The rows `memory_to_json` names, in its order: (m, j, next state) for
    each state m and edge j, and (m, x, j) for each state m and Exist vertex
    x with its edge j.  States, edges and vertices are each sorted by the
    text of their names, ties in index order: an edge's is the text of
    `str(GameEdge(...))`, read off the arena's columns with the `repr` of
    each name made once."""
    game, width = memory.game, memory.size
    _, _, src, dst, owners, colours, base, _ = game.arena

    def by_text(names: Sequence, indices: Iterable[int]) -> list[int]:
        return sorted(indices, key=lambda i: str(names[i]))

    states = by_text(memory.states, range(width))
    vertex = list(map(repr, game.vertices))
    # A mask's colour id; silent, mask 0, reads id -1, the last entry.
    colour = list(map(repr, condition_colours(game.condition).symbols)) + ["None"]
    edge_text = [
        "GameEdge(src=%s, colour=%s, dst=%s)"
        % (vertex[src[m]], colour[colours[m].bit_length() - 1], vertex[dst[m]])
        for m in range(base, len(dst))
    ]
    edges = by_text(edge_text, range(len(edge_text)))
    exist = by_text(game.vertices, [x for x in range(base) if not owners[x]])
    return (
        [(m, j, memory.update[j * width + m]) for m in states for j in edges],
        [(m, x, memory.choice[x * width + m]) for m in states for x in exist],
    )


def memory_to_json(memory: MemoryStructure) -> str:
    """The memory by name, as `json.dumps(doc, indent=2, sort_keys=True)`
    and a newline would write it: `doc` holds `states`, `initial`, `update`
    rows {state, edge, next} and `strategy` rows {state, vertex, edge} in
    `_rows`' order, each edge as {src, colour, dst}.  It is written row by
    row: `indent` would send `json` to its pure-Python encoder.  The text of
    each state, vertex and colour is made once, and each edge's is read off
    the arena's columns; strings and ints go through `json`'s C encoders."""

    def text(value: object, indent: str = "      ") -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)

    def listing(rows: list[str]) -> str:
        return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"

    game = memory.game
    _, _, src, dst, _, colours, base, _ = game.arena
    update, strategy = _rows(memory)
    state = [text(m) for m in memory.states]
    vertex = [text(v) for v in game.vertices]
    in_edge = [text(v, "        ") for v in game.vertices]
    colour = [text(c) for c in condition_colours(game.condition).symbols] + ["null"]
    edge = [
        '    {\n      "edge": {\n        "colour": %s,\n        "dst": %s,\n        "src": %s\n'
        "      },\n" % (colour[colours[m].bit_length() - 1], in_edge[dst[m]], in_edge[src[m]])
        for m in range(base, len(dst))
    ]
    return (
        '{\n  "initial": ' + text(memory.initial, "  ")
        + ',\n  "states": ' + listing(["    " + text(m, "    ") for m in memory.states])
        + ',\n  "strategy": ' + listing([
            '%s      "state": %s,\n      "vertex": %s\n    }' % (edge[j], state[m], vertex[x])
            for m, x, j in strategy
        ])
        + ',\n  "update": ' + listing([
            '%s      "next": %s,\n      "state": %s\n    }' % (edge[j], state[k], state[m])
            for m, j, k in update
        ])
        + "\n}\n"
    )
