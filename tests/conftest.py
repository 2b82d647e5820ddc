from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

import pytest

from mullergames._graph import dense_components
from mullergames.automata import (
    Automaton,
    AutomatonError,
    State,
    Transition,
    _hoa_acceptance,
    condition_colours,
)
from mullergames.conditions import (
    Alphabet,
    AnyCondition,
    ConditionError,
    LassoWord,
    LetterLike,
    LetterSet,
    MullerCondition,
    ParityCondition,
    RabinCondition,
    inf_set,
    satisfies_rabin,
)
from mullergames.games import (
    EXIST,
    UNIV,
    Arena,
    GameEdge,
    GameError,
    GameGraph,
    GameSolution,
    MemoryStructure,
    _attract,
    _build_product,
    _rows,
    _verify_solution,
    _zielonka,
    solve_parity_game,
)
from mullergames.succinctness import (
    SearchBudgetError,
    build_condition_graph,
    chromatic_number,
    clique_lower_bound,
)
from mullergames.construction import (
    GfgRabinAutomaton,
    _tree,
    build_parity_automaton,
    node_rabin_pairs,
)
from mullergames.zielonka import ZielonkaTree, build_zielonka

ChildOrder = Callable[[list[int]], list[int]]


@pytest.fixture
def running_condition():
    # Gamma = {a,b,c}, accepting family {{a,b},{a,c},{b}}
    return MullerCondition(Alphabet("abc"), [["a", "b"], ["a", "c"], ["b"]])


@pytest.fixture
def running_tree(running_condition):
    # BFS ids: 0={a,b,c} square, 1={a,b} round, 2={a,c} round,
    #          3={a} leaf under 1, 4={a} and 5={c} leaves under 2
    return build_zielonka(running_condition)


def all_muller_conditions(alphabet):
    """Every Muller condition over `alphabet` (including the empty family)."""
    from itertools import combinations

    masks = [m for m in range(1, 1 << len(alphabet))]
    for r in range(len(masks) + 1):
        for chosen in combinations(masks, r):
            yield MullerCondition(alphabet, [alphabet.from_mask(m) for m in chosen])


def random_muller_condition(rng, alphabet):
    masks = [m for m in range(1, 1 << len(alphabet)) if rng.random() < 0.5]
    if not masks:
        masks = [rng.randrange(1, 1 << len(alphabet))]
    return MullerCondition(alphabet, [alphabet.from_mask(m) for m in masks])


def table_oracle_conditions():
    """The trees the integer tables are checked on: every condition over at
    most three letters, F_2..F_8, and 200 seeded random 4- and 5-letter
    conditions."""
    import random

    from mullergames.succinctness import condition_fn

    for letters in ("a", "ab", "abc"):
        yield from all_muller_conditions(Alphabet(letters))
    for n in range(2, 9):
        yield condition_fn(n)
    rng = random.Random(3311)
    for _ in range(200):
        yield random_muller_condition(rng, Alphabet("abcde"[: rng.choice((4, 5))]))


# Name-keyed constructors and views, for the tests only: the package builds
# and reads its types on ids.  `memory_to_dict` is the oracle that
# `memory_to_json` is checked against.


def named_automaton(
    states: Sequence[State],
    alphabet: Alphabet,
    initial: Iterable[State],
    transitions: Iterable[Transition | tuple],
    acceptance: AnyCondition,
) -> Automaton:
    """The automaton on named states and transitions.  It keeps
    `transitions` in the order given, duplicates dropped."""
    states = tuple(states)
    index = {q: i for i, q in enumerate(states)}
    if len(index) != len(states):
        raise AutomatonError("duplicate states")
    initial = tuple(initial)
    if not initial:
        raise AutomatonError("at least one initial state is required")
    for q in initial:
        if q not in index:
            raise AutomatonError(f"initial state {q!r} not among the states")
    letter = {a: i for i, a in enumerate(alphabet.symbols)}
    colour = {c: i for i, c in enumerate(condition_colours(acceptance).symbols)}
    moves: list[list[list[tuple[int, int]]]] = [[[] for _ in letter] for _ in index]
    ordered: dict[Transition, None] = {}
    for t in transitions:
        t = t if isinstance(t, Transition) else Transition(*t)
        if t.src not in index or t.dst not in index:
            raise AutomatonError(f"transition {t} uses an unknown state")
        if t.letter not in letter:
            raise AutomatonError(f"transition letter {t.letter!r} not in input alphabet")
        if t.colour not in colour:
            raise AutomatonError(f"transition colour {t.colour!r} not in output alphabet")
        if t not in ordered:
            ordered[t] = None
            move = (colour[t.colour], index[t.dst])
            moves[index[t.src]][letter[t.letter]].append(move)
    automaton = Automaton(states, alphabet, [index[q] for q in initial], moves, acceptance)
    automaton.transitions = tuple(ordered)
    return automaton


def owner(game: GameGraph, v) -> str:
    """EXIST or UNIV, the owner of vertex v."""
    return (EXIST, UNIV)[game.arena.owners[game.vertices.index(v)]]


def out(game: GameGraph, v) -> tuple[GameEdge, ...]:
    """The edges from vertex v, in arena order."""
    base = game.arena.base
    return tuple(game.edges[m - base] for m in game.arena.succ[game.vertices.index(v)])


def exist_vertices(game: GameGraph) -> tuple:
    return tuple(v for v, who in zip(game.vertices, game.arena.owners) if who == 0)


def named_moves(game: GameGraph, moves: dict[int, int]) -> dict:
    """A strategy on node ids (vertex -> midpoint) by name."""
    names, edges, base = game.vertices, game.edges, game.arena.base
    return {names[v]: edges[moves[v] - base] for v in range(base) if v in moves}


def region(solution: GameSolution) -> frozenset:
    """Exist's winning region."""
    return frozenset(v for v, w in solution.winners.items() if w == EXIST)


def exist_strategy(solution: GameSolution) -> dict:
    return named_moves(solution.game, solution.strategy_of(0))


def univ_strategy(solution: GameSolution) -> dict:
    return named_moves(solution.game, solution.strategy_of(1))


def recursion_winners(game: GameGraph, tree: ZielonkaTree) -> list[bool]:
    """Whether Exist wins each vertex by Zielonka's recursion on the game
    itself, split by its condition's tree."""
    won = _zielonka(game, tree.split).won
    return [x in won for x in range(game.arena.base)]


def parity_winners(game: GameGraph, tree: ZielonkaTree) -> list[bool]:
    """Whether Exist wins each vertex on the parity product, seeded at every
    game vertex in the automaton's initial state."""
    automaton = build_parity_automaton(tree)
    product = _build_product(game, automaton, range(game.arena.base))
    won = solve_parity_game(product.game).won
    return [product.node(x, automaton.start[0]) in won for x in range(game.arena.base)]


def swap_split_owners(monkeypatch) -> None:
    """Make `ZielonkaTree.split` name the other player of every node."""
    split = ZielonkaTree.split

    def swapped(tree, present):
        player, targets = split(tree, present)
        return 1 - player, targets

    monkeypatch.setattr(ZielonkaTree, "split", swapped)


def memory_from_names(game: GameGraph, states, initial, update, strategy) -> MemoryStructure:
    """The memory whose `update[(m, edge)]` is the state after `edge`
    from state m and `strategy[(m, v)]` Exist's edge at v in state m.
    Raises `GameError` if a choice or an update is missing, a choice is
    not a move of its vertex, or the initial state or an update is not
    in `states`."""
    states = tuple(states)
    index = {m: i for i, m in enumerate(states)}
    if initial not in index:
        raise GameError(f"initial memory state {initial!r} is not a declared state")
    succ, owners, base = game.arena.succ, game.arena.owners, game.arena.base
    choice: list[int] = []
    for x, v in enumerate(game.vertices):
        if owners[x]:
            choice += [-1] * len(states)
            continue
        outs, moves = out(game, v), succ[x]
        for m in states:
            try:
                choice.append(moves[outs.index(strategy.get((m, v)))] - base)
            except ValueError:
                raise GameError(f"strategy at ({m!r}, {v!r}) is not a move of {v!r}") from None
    after: list[int] = []
    missing = object()
    for e in game.edges:
        for m in states:
            k = index.get(update.get((m, e), missing))
            if k is None:
                if (m, e) not in update:
                    raise GameError(f"memory update missing for ({m!r}, {e})")
                raise GameError(
                    f"memory update for ({m!r}, {e}) goes to undeclared state "
                    f"{update[(m, e)]!r}"
                )
            after.append(k)
    return MemoryStructure(game, states, index[initial], choice, after)


def memory_to_dict(memory: MemoryStructure) -> dict:
    """The memory by name, its rows in `_rows`' order."""
    states, names, edges = memory.states, memory.game.vertices, memory.game.edges
    update, strategy = _rows(memory)

    def edge_doc(j: int) -> dict:
        src, colour, dst = edges[j]
        return {"src": src, "colour": colour, "dst": dst}

    return {
        "states": list(states),
        "initial": memory.initial,
        "update": [
            {"state": states[m], "edge": edge_doc(j), "next": states[k]} for m, j, k in update
        ],
        "strategy": [
            {"state": states[m], "vertex": names[x], "edge": edge_doc(j)} for m, x, j in strategy
        ],
    }


def pair_accepts_mask(cond: RabinCondition, j: int, mask: int) -> bool:
    g, r = cond.pairs[j]
    return bool(mask & g) and not mask & r


def pair_colour(cond: RabinCondition, j: int, colour: str) -> str:
    """The green / red / orange status of an output colour for pair j."""
    g, r = cond.pairs[j]
    bit = 1 << cond.colours.index(colour)
    if g & bit:
        return "green"
    if r & bit:
        return "red"
    return "orange"


N = TypeVar("N", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[N], succ: Callable[[N], Iterable[N]]
) -> list[list[N]]:
    """Tarjan's algorithm, iterative; components in reverse topological order.

    Numbers the nodes reachable from `nodes` and runs `dense_components`."""
    roots = list(nodes)
    ids: dict[N, int] = {}
    names: list[N] = []
    for node in roots:
        if node not in ids:
            ids[node] = len(names)
            names.append(node)
    adjacency: list[list[int]] = []
    while len(adjacency) < len(names):
        row = []
        for nxt in succ(names[len(adjacency)]):
            i = ids.get(nxt)
            if i is None:
                i = ids[nxt] = len(names)
                names.append(nxt)
            row.append(i)
        adjacency.append(row)
    components = dense_components(
        adjacency.__getitem__, [ids[node] for node in roots], [-1] * len(names)
    )
    return [[names[i] for i in component] for component in components]


def reference_root_path(tree, n):
    """Root-to-n path by parent pointers."""
    path = [n]
    while tree.parent(path[-1]) is not None:
        path.append(tree.parent(path[-1]))
    return path[::-1]


def reference_is_ancestor(tree, a, b):
    return a in reference_root_path(tree, b)


def reference_leaves_below(tree, n):
    kids = tree.children(n)
    if not kids:
        return (n,)
    return tuple(leaf for k in kids for leaf in reference_leaves_below(tree, k))


def reference_step(tree, leaf, letter):
    """The tree walk by parent pointers: the deepest ancestor whose label
    holds the letter, then the leftmost leaf below its next child."""
    idx = tree.alphabet.index(letter)
    path = reference_root_path(tree, leaf)
    depth = max(d for d, n in enumerate(path) if tree.label(n).mask >> idx & 1)
    witness = path[depth]
    if witness == leaf:
        return witness, leaf
    kids = tree.children(witness)
    target = kids[(kids.index(path[depth + 1]) + 1) % len(kids)]
    while tree.children(target):
        target = tree.children(target)[0]
    return witness, target


def reference_walk(tree):
    """Each leaf with its row of the tree walk's (witness, target) moves per
    letter index, in `leaves()` order, pushed down from the root depth
    first and last child first: a letter in the child's label gets the
    child as witness, and a letter whose witness was the parent now knows
    which child the path took."""
    root = tree.root
    stack = [(root, [(root, root)] * len(tree.alphabet))]
    while stack:
        n, row = stack.pop()
        kids = tree.children(n)
        if not kids:
            yield n, row
            continue
        # The parent is the witness of exactly the letters of its label.
        letters = [i for i in range(len(row)) if tree.mask(n) >> i & 1]
        for c in reversed(kids):
            mask = tree.mask(c)
            here, jump = (c, c), (n, tree.leftmost_leaf(tree.next_child(n, c)))
            child_row = row.copy()
            for i in letters:
                child_row[i] = here if mask >> i & 1 else jump
            stack.append((c, child_row))


@dataclass
class ZNode:
    ident: int
    label: LetterSet
    round: bool
    parent: Optional[int]
    children: list[int] = field(default_factory=list)


class ReferenceZielonkaTree:
    """The ordered Zielonka tree built as `ZNode` records, each holding its
    `LetterSet` label, with depth and memtree in loops of their own: the
    oracle that `ZielonkaTree`'s integer lists are compared against."""

    def __init__(self, condition: MullerCondition, child_order: Optional[ChildOrder] = None):
        self.condition = condition
        self.alphabet = condition.alphabet
        order = child_order if child_order is not None else sorted
        self.nodes: list[ZNode] = []
        root_mask = self.alphabet.full().mask
        self._add_node(root_mask, None)
        # BFS so that ids go level by level, left to right.
        head = 0
        while head < len(self.nodes):
            node = self.nodes[head]
            for mask in order(reference_maximal_flipped_subsets(condition, node.label.mask)):
                node.children.append(self._add_node(mask, node.ident))
            head += 1
        count = len(self.nodes)
        self._depth = [0] * count
        for node in self.nodes[1:]:
            self._depth[node.ident] = self._depth[node.parent] + 1
        self._height = 1 + max(self._depth)
        self._memtree = [1] * count
        for node in reversed(self.nodes):
            kids = node.children
            if kids:
                parts = [self._memtree[k] for k in kids]
                self._memtree[node.ident] = sum(parts) if node.round else max(parts)
        self._number_depth_first()
        self.step_table = self._step_table()

    def _number_depth_first(self) -> None:
        """Pre-order numbers, subtree intervals, leftmost leaves, the leaf
        tuple with each node's slice of it, and cyclic next siblings."""
        count = len(self.nodes)
        order: list[int] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self.nodes[n].children))
        self._pre = [0] * count
        for i, n in enumerate(order):
            self._pre[n] = i
        leaves = [n for n in order if not self.nodes[n].children]
        self._leaves = tuple(leaves)
        leaf_index = {leaf: i for i, leaf in enumerate(leaves)}
        self._last = [0] * count  # largest pre-order number in n's subtree
        self._leftmost = [0] * count
        self._leaf_span = [(0, 0)] * count
        self._next_sibling = list(range(count))
        for n in reversed(order):
            kids = self.nodes[n].children
            if not kids:
                self._last[n] = self._pre[n]
                self._leftmost[n] = n
                self._leaf_span[n] = (leaf_index[n], leaf_index[n] + 1)
                continue
            self._last[n] = self._last[kids[-1]]
            self._leftmost[n] = self._leftmost[kids[0]]
            self._leaf_span[n] = (self._leaf_span[kids[0]][0], self._leaf_span[kids[-1]][1])
            for i, k in enumerate(kids):
                self._next_sibling[k] = kids[(i + 1) % len(kids)]

    def _step_table(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """leaf -> (witness, target) per letter index.

        The witness is the deepest node on the leaf's root path whose label
        holds the letter (labels shrink along the path, and the root holds
        every letter).  The target is the leaf itself when the witness is the
        leaf, and otherwise the leftmost leaf below the next sibling of the
        path's child of the witness.  Rows are pushed down from the root: a
        letter in the child's label gets the child as witness, and a letter
        whose witness was the parent now knows which child the path took.
        """
        rows = {self.root: [(self.root, self.root)] * len(self.alphabet)}
        for node in self.nodes:  # BFS: every parent before its children
            if not node.children:
                continue
            n = node.ident
            row = rows.pop(n)
            # The parent is the witness of exactly the letters of its label.
            letters = [i for i in range(len(row)) if node.label.mask >> i & 1]
            for c in node.children:
                mask = self.nodes[c].label.mask
                here, jump = (c, c), (n, self._leftmost[self._next_sibling[c]])
                rows[c] = child_row = row.copy()
                for i in letters:
                    child_row[i] = here if mask >> i & 1 else jump
        return {leaf: tuple(rows[leaf]) for leaf in self._leaves}

    def _add_node(self, mask: int, parent: Optional[int]) -> int:
        ident = len(self.nodes)
        label = self.alphabet.from_mask(mask)
        self.nodes.append(ZNode(ident, label, self.condition.accepts_mask(mask), parent))
        return ident

    # -- structure queries ------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.nodes)

    def label(self, n: int) -> LetterSet:
        return self.nodes[n].label

    def is_round(self, n: int) -> bool:
        return self.nodes[n].round

    def is_leaf(self, n: int) -> bool:
        return not self.nodes[n].children

    def children(self, n: int) -> tuple[int, ...]:
        return tuple(self.nodes[n].children)

    def parent(self, n: int) -> Optional[int]:
        return self.nodes[n].parent

    def depth(self, n: int) -> int:
        return self._depth[n]

    @property
    def height(self) -> int:
        return self._height

    def node_name(self, n: int) -> str:
        return f"n{n}"

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a lies on the root path of b (a node is its own ancestor)."""
        return self._pre[a] <= self._pre[b] <= self._last[a]

    def leaves(self) -> tuple[int, ...]:
        """All leaves in leftmost-first (depth-first) order."""
        return self._leaves

    def leftmost_leaf(self, n: int) -> int:
        return self._leftmost[n]

    def leaves_below(self, n: int) -> tuple[int, ...]:
        lo, hi = self._leaf_span[n]
        return self._leaves[lo:hi]

    # -- navigation --------------------------------------------------------

    def next_child(self, n: int, c: int) -> int:
        if not 0 <= c < len(self.nodes) or self.nodes[c].parent != n:
            raise ConditionError(f"node {c} is not a child of node {n}")
        return self._next_sibling[c]

    def jump(self, n: int, leaf: int) -> tuple[frozenset[int], int]:
        """Leaves reachable by going up to n, switching to its next child, and
        re-descending; plus the leftmost among them."""
        if n == leaf:
            return frozenset([leaf]), leaf
        if not self.is_ancestor(n, leaf):
            raise ConditionError(f"node {n} is not an ancestor of leaf {leaf}")
        branch = leaf
        while self.nodes[branch].parent != n:
            branch = self.nodes[branch].parent
        target = self._next_sibling[branch]
        return frozenset(self.leaves_below(target)), self._leftmost[target]

    def step(self, leaf: int, letter: str) -> tuple[int, int]:
        """One move of the tree walk: (witness node, next leaf) for a letter."""
        row = self.step_table.get(leaf)
        if row is None:
            raise ConditionError(f"node {leaf} is not a leaf of this tree")
        return row[self.alphabet.index(letter)]

    # -- derived quantities -------------------------------------------------

    def memtree(self, n: Optional[int] = None) -> int:
        return self._memtree[self.root if n is None else n]

    def eta(self) -> dict[int, int]:
        """A leaf numbering into {1..memtree} with distinct values across any
        two branches of a round node; the leftmost leaf gets 1."""
        out: dict[int, int] = {}

        def assign(n: int, offset: int) -> None:
            kids = self.nodes[n].children
            if not kids:
                out[n] = offset + 1
            elif self.nodes[n].round:
                for k in kids:
                    assign(k, offset)
                    offset += self._memtree[k]
            else:
                for k in kids:
                    assign(k, offset)

        assign(self.root, 0)
        return out

    def to_dot(self) -> str:
        lines = ["digraph zielonka {", "  ordering=out;"]
        for node in self.nodes:
            shape = "ellipse" if node.round else "box"
            text = "{%s}" % ",".join(node.label)
            lines.append(f'  {self.node_name(node.ident)} [shape={shape}, label="{text}"];')
        for node in self.nodes:
            for k in node.children:
                lines.append(f"  {self.node_name(node.ident)} -> {self.node_name(k)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def reference_maximal_flipped_subsets(condition: MullerCondition, mask: int) -> list[int]:
    """Maximal non-empty subsets of `mask` whose F-membership differs from it.

    Candidates are scanned from largest cardinality down; a candidate is kept
    when it is not contained in an already-kept one.
    """
    want = not condition.accepts_mask(mask)
    candidates = []
    sub = mask
    while True:
        if sub and condition.accepts_mask(sub) == want:
            candidates.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for cand in candidates:
        if not any(cand & ~k == 0 for k in kept):
            kept.append(cand)
    return kept


def reference_realisable_cores(vertex_set, avail):
    """Maximal strongly connected edge sets that a play can visit forever.

    `avail` already fixes the strategy of whoever is restricted (those
    vertices carry exactly one edge); vertices without an edge staying in
    the component cannot recur and are pruned.
    """
    out = []

    def explore(members):
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


def reference_recurrence_sets_satisfy(nodes, avail, condition, budget):
    """Check every realisable infinitely-recurring edge set of a one-player
    restricted graph: scan colour subsets, then the recurrence cores of each
    restricted subgraph (whose colour set is then exactly the scanned one).
    `avail` maps each node to its `GameEdge`s."""
    from mullergames.games import GameError

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
        for _, edges in reference_realisable_cores(nodes, restricted):
            colours = {e.colour for e in edges if e.colour is not None}
            if not colours:
                raise GameError("silent-only recurrence set; the arena is malformed")
            if not accepts_colour_set(condition, colours):
                return False
    return True


def reference_product(game, automaton, seeds, resolve=False):
    """The product builder the arena builder replaced: a name-keyed
    `GameGraph` of ("s", x, q) state and ("c", y, a, q) choice vertices,
    explored depth first from the game vertices `seeds`, with every edge
    deduplicated through `GameEdge` hashing.  A lettered game edge leads
    from ("s", x, q) straight to ("s", y, q') when q has one transition on
    its letter, along that transition, unless `resolve` is set, and to the
    choice vertex ("c", y, letter, q) otherwise."""
    from mullergames.games import EXIST, GameEdge, GameError, GameGraph

    if len(automaton.initial) != 1:
        raise GameError("product requires an automaton with a single initial state")
    for e in game.edges:
        if e.colour is not None and e.colour not in automaton.alphabet:
            raise GameError(
                f"alphabet mismatch: game colour {e.colour!r} unknown to the automaton"
            )
    q0 = automaton.initial[0]
    vertices, edges, seen, queue, kept = [], [], set(), [], set()

    def visit(vertex, owner):
        if vertex not in seen:
            seen.add(vertex)
            vertices.append((vertex, owner))
            queue.append(vertex)

    def add(edge):
        if edge not in kept:
            kept.add(edge)
            edges.append(edge)

    for x in seeds:
        visit(("s", x, q0), owner(game, x))
    while queue:
        vertex = queue.pop()
        if vertex[0] == "s":
            _, x, q = vertex
            for e in out(game, x):
                colour = None
                options = () if e.colour is None else transitions_from(automaton, q, e.colour)
                if e.colour is None:
                    target = ("s", e.dst, q)
                    visit(target, owner(game, e.dst))
                elif len(options) == 1 and not resolve:
                    target, colour = ("s", e.dst, options[0].dst), options[0].colour
                    visit(target, owner(game, e.dst))
                else:
                    target = ("c", e.dst, e.colour, q)
                    visit(target, EXIST)
                add(GameEdge(vertex, colour, target))
        else:
            _, x, letter, q = vertex
            options = transitions_from(automaton, q, letter)
            if not options:
                raise GameError(
                    f"automaton is not complete: no {letter!r}-transition from {q!r}"
                )
            for t in options:
                target = ("s", x, t.dst)
                visit(target, owner(game, x))
                add(GameEdge(vertex, t.colour, target))
    return GameGraph(vertices, edges, ("s", seeds[0], q0), condition=automaton.acceptance)


def reference_split_edges(game):
    """The edge-midpoint split rebuilt from a game's names: node i <
    len(game.vertices) is game.vertices[i] and node len(game.vertices) + j
    the midpoint of game.edges[j].  Returns (succ, preds, owners, colours),
    owner 0 for Exist and 1 for Univ (every midpoint)."""
    from mullergames.games import EXIST

    index = {v: i for i, v in enumerate(game.vertices)}
    succ = [[] for _ in game.vertices]
    for j, e in enumerate(game.edges):
        succ[index[e.src]].append(len(index) + j)
    succ.extend([index[e.dst]] for e in game.edges)
    preds = [[] for _ in succ]
    for u, outs in enumerate(succ):
        for w in outs:
            preds[w].append(u)
    owners = [0 if owner(game, v) == EXIST else 1 for v in game.vertices]
    owners += [1] * len(game.edges)
    colours = [None] * len(index) + [e.colour for e in game.edges]
    return succ, preds, owners, colours


class ReferenceRabinLassoChecker:
    """The Rabin lasso checker the integer table replaced: it walks the
    automaton's `Transition`s and colour names, rebuilds the red-free edge
    lists and scans for green sources once per Rabin pair and period."""

    def __init__(self, automaton):
        from mullergames.automata import AutomatonError
        from mullergames.conditions import RabinCondition

        if not isinstance(automaton.acceptance, RabinCondition):
            raise AutomatonError("lasso membership oracle expects Rabin acceptance")
        self.automaton = automaton
        colours = automaton.colour_alphabet
        self._bit = {c: 1 << i for i, c in enumerate(colours.symbols)}
        self._pairs = automaton.acceptance.pairs
        self._state_index = {q: i for i, q in enumerate(automaton.states)}
        self._period_memo = {}
        self._prefix_memo = {}

    def accepts(self, w):
        reach = self._reach_after(w.prefix)
        if not reach:
            return False
        good_from = self._analyse_period(w.period)
        return any(good_from.get(q, False) for q in reach)

    def _reach_after(self, prefix):
        if prefix in self._prefix_memo:
            return self._prefix_memo[prefix]
        if not prefix:
            out = frozenset(self.automaton.initial)
        else:
            before = self._reach_after(prefix[:-1])
            out = frozenset(
                t.dst
                for q in before
                for t in transitions_from(self.automaton, q, prefix[-1])
            )
        self._prefix_memo[prefix] = out
        return out

    def _analyse_period(self, period):
        from mullergames._graph import reachable

        if period in self._period_memo:
            return self._period_memo[period]
        aut = self.automaton
        length = len(period)
        index, bit = self._state_index, self._bit
        # Node s * length + i is state number s at phase i of the period;
        # each edge carries its colour's bit.
        edges = []
        for q in aut.states:
            for i, letter in enumerate(period):
                phase = (i + 1) % length
                edges.append(
                    [
                        (index[t.dst] * length + phase, bit[t.colour])
                        for t in transitions_from(aut, q, letter)
                    ]
                )
        present = 0
        for out in edges:
            for _, b in out:
                present |= b
        winning_nodes = set()
        for green, red in self._pairs:
            if not green & present:
                continue
            safe = [[dst for dst, b in out if not b & red] for out in edges]
            sources = [n for n, out in enumerate(edges) if any(b & green for _, b in out)]
            for component in strongly_connected_components(sources, safe.__getitem__):
                members = set(component)
                has_green_inside = any(
                    dst in members and b & green
                    for node in component
                    for dst, b in edges[node]
                    if not b & red
                )
                if has_green_inside:
                    winning_nodes.update(members)
        preds = [[] for _ in edges]
        for node, out in enumerate(edges):
            for dst, _ in out:
                preds[dst].append(node)
        good = reachable(winning_nodes, preds.__getitem__)
        result = {q: s * length in good for s, q in enumerate(aut.states)}
        self._period_memo[period] = result
        return result


def _merge_bundles(automaton: Automaton) -> list[tuple[State, str, State, tuple[str, ...]]]:
    """Group parallel transitions; bundles keep the output-colour order."""
    colour_idx = {c: i for i, c in enumerate(automaton.colour_alphabet.symbols)}
    groups: dict[tuple[State, str, State], list[str]] = {}
    for t in automaton.transitions:
        groups.setdefault((t.src, t.letter, t.dst), []).append(t.colour)
    state_idx = {q: i for i, q in enumerate(automaton.states)}
    letter_idx = {a: i for i, a in enumerate(automaton.alphabet.symbols)}
    out = []
    for (src, letter, dst), colours in groups.items():
        bundle = tuple(sorted(set(colours), key=colour_idx.__getitem__))
        out.append((src, letter, dst, bundle))
    out.sort(key=lambda g: (state_idx[g[0]], letter_idx[g[1]], state_idx[g[2]]))
    return out


def _bundle_names(
    automaton: Automaton, bundles: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], str]:
    """A fresh colour name per multi-colour bundle, rendered like "(ab)"."""
    taken = set(automaton.colour_alphabet.symbols)
    names: dict[tuple[str, ...], str] = {}
    for bundle in bundles:
        if bundle in names:
            continue
        if len(bundle) == 1:
            names[bundle] = bundle[0]
            continue
        name = "(%s)" % "".join(bundle)
        while name in taken:
            name += "'"
        taken.add(name)
        names[bundle] = name
    return names


def reference_simplify_rabin(automaton: Automaton) -> Automaton:
    """The duplicated-edge merge the move table replaced: it groups the
    named transitions, sorts each bundle's colour names and names bundles
    from those.

    Merge duplicated edges of a Rabin automaton, preserving the language.

    Each merged transition gets one colour standing for its bundle: green
    for pair i when some bundled colour was green, red when all of them
    were red.  States and the number of pairs are unchanged.
    """
    if not isinstance(automaton.acceptance, RabinCondition):
        raise AutomatonError("simplify_rabin expects Rabin acceptance")
    merged = _merge_bundles(automaton)
    names = _bundle_names(automaton, (b for *_x, b in merged))
    fresh = [
        names[b] for *_x, b in merged
        if len(b) > 1 and names[b] not in automaton.colour_alphabet
    ]
    seen_fresh: list[str] = []
    for name in fresh:
        if name not in seen_fresh:
            seen_fresh.append(name)
    colours = Alphabet(tuple(automaton.colour_alphabet.symbols) + tuple(seen_fresh))

    old = automaton.acceptance
    pairs = []
    for green, red in letter_pairs(old):
        new_green = list(green)
        new_red = list(red)
        for bundle, name in names.items():
            if len(bundle) == 1:
                continue
            if any(c in green for c in bundle):
                new_green.append(name)
            if all(c in red for c in bundle):
                new_red.append(name)
        pairs.append((new_green, new_red))

    transitions = [
        Transition(src, letter, names[bundle], dst)
        for src, letter, dst, bundle in merged
    ]
    return named_automaton(
        automaton.states,
        automaton.alphabet,
        automaton.initial,
        transitions,
        RabinCondition(colours, pairs),
    )


def scan_simplify_rabin(automaton: Automaton) -> Automaton:
    """Merge duplicated edges of any Rabin automaton, preserving the
    language: each (state, letter, target) keeps one transition, coloured
    by its colour or by a fresh colour like "(ab)" for a bundle of two or
    more, which is tested against every pair's green and red masks.  Every
    colour of the input is kept.  It is the oracle for
    `GfgRabinAutomaton.merged`, with `used_colours_only`."""
    acceptance = automaton.acceptance
    if not isinstance(acceptance, RabinCondition):
        raise AutomatonError("simplify_rabin expects Rabin acceptance")
    symbols = list(acceptance.colours.symbols)
    base, taken = len(symbols), set(symbols)
    colour_of = {1 << c: c for c in range(base)}  # bundle mask -> colour
    fresh: list[int] = []  # the bundle of each colour from `base` on
    moves: list[list[list[tuple[int, int]]]] = [[[] for _ in row] for row in automaton.moves]
    for s, row in enumerate(automaton.moves):
        for a, cell in enumerate(row):
            bundles: dict[int, int] = {}
            for c, d in cell:
                bundles[d] = bundles.get(d, 0) | 1 << c
            for d in sorted(bundles):
                mask = bundles[d]
                if mask not in colour_of:
                    name = "(%s)" % "".join(
                        symbols[c] for c in range(mask.bit_length()) if mask >> c & 1
                    )
                    while name in taken:
                        name += "'"
                    taken.add(name)
                    colour_of[mask] = len(symbols)
                    symbols.append(name)
                    fresh.append(mask)
                moves[s][a].append((colour_of[mask], d))
    colours = Alphabet(symbols)
    pairs = []
    for green, red in acceptance.pairs:
        g, r = green, red
        for c, mask in enumerate(fresh, base):
            if mask & green:
                g |= 1 << c
            if not mask & ~red:
                r |= 1 << c
        pairs.append((g, r))
    return Automaton(
        automaton.states, automaton.alphabet, automaton.start, moves, RabinCondition(colours, pairs)
    )


def used_colours_only(automaton: Automaton) -> Automaton:
    """A Rabin automaton cut to the colours its moves carry, renumbered in
    their order, with each pair's masks cut to them."""
    used = sorted({c for row in automaton.moves for cell in row for c, _ in cell})
    new = {c: i for i, c in enumerate(used)}

    def cut(mask: int) -> int:
        return sum(1 << i for i, c in enumerate(used) if mask >> c & 1)

    acceptance = automaton.acceptance
    colours = Alphabet([acceptance.colours.symbols[c] for c in used])
    return Automaton(
        automaton.states,
        automaton.alphabet,
        automaton.start,
        [[[(new[c], d) for c, d in cell] for cell in row] for row in automaton.moves],
        RabinCondition(colours, [(cut(g), cut(r)) for g, r in acceptance.pairs]),
    )


def reference_memory_from_gfg(game: GameGraph, gfg: GfgRabinAutomaton) -> MemoryStructure:
    """The extraction before the merged product: the product of the
    unmerged GFG automaton with a choice vertex at every lettered move
    (`reference_product` with `resolve`), so a state vertex has its game
    vertex's moves in order, and Exist's choice is read off by position."""
    from mullergames.games import NotWonByExist, positional_rabin_strategy, verify_strategy

    automaton = gfg.automaton
    product = reference_product(game, automaton, [game.initial], resolve=True)
    solution = positional_rabin_strategy(product)
    if product.arena.initial not in solution.won:
        raise NotWonByExist("the existential player does not win this game")
    index = {v: i for i, v in enumerate(product.vertices)}
    states, symbols = automaton.states, automaton.alphabet.symbols
    width = len(states)
    succ, _, _, dst, owners, _, base, _ = game.arena
    names = game.vertices
    letter = [c.bit_length() - 1 for c in game.arena.colours]
    out, target, moves = product.arena.succ, product.arena.dst, solution.moves
    choice = [-1] * (base * width)
    update = [0] * ((len(dst) - base) * width)
    for q, state in enumerate(states):
        for j, m in enumerate(range(base, len(dst))):
            a, r = letter[m], q  # a silent edge keeps the state
            if a >= 0:
                chosen = moves.get(index.get(("c", names[dst[m]], symbols[a], state), -1))
                if chosen is not None:  # to the state vertex (dst, r)
                    r = states.index(product.vertices[target[chosen]][2])
                elif automaton.moves[q][a]:
                    r = automaton.moves[q][a][0][1]
            update[j * width + q] = r
        for x in range(base):
            if owners[x] == 0:  # a state vertex has the moves of its game vertex
                node = index.get(("s", names[x], state), -1)
                chosen = moves.get(node)
                k = 0 if chosen is None else out[node].index(chosen)
                choice[x * width + q] = succ[x][k] - base
    memory = MemoryStructure(game, states, automaton.start[0], choice, update)
    if not verify_strategy(memory, gfg.tree):
        raise GameError("internal: extracted memory failed strategy verification")
    return memory


def _reference_colour_marks(automaton: Automaton) -> dict[int, tuple[int, ...]]:
    """The HOA marks of each colour index on a transition: 2i when it is red
    and 2i + 1 when it is green for Rabin pair i, or its priority for parity
    acceptance."""
    acceptance = automaton.acceptance
    colours = {c for row in automaton.moves for cell in row for c, _ in cell}
    if isinstance(acceptance, RabinCondition):
        pairs = acceptance.pairs
        out = {}
        for colour in colours:
            bit = 1 << colour
            marks = []
            for i, (green, red) in enumerate(pairs):
                if red & bit:
                    marks.append(2 * i)
                if green & bit:
                    marks.append(2 * i + 1)
            out[colour] = tuple(marks)
        return out
    if isinstance(acceptance, ParityCondition):
        return {colour: (acceptance.priorities[colour],) for colour in colours}
    raise AutomatonError("HOA export supports Rabin and parity acceptance only")


def reference_export_hoa(automaton: Automaton) -> str:
    """The HOA writer the selector table replaced: it loops over every
    colour and every pair for the marks, and sorts each state's lines by
    their mark tuples.

    HOA v1 text with transition-based acceptance.

    Input letter k is encoded as the minterm where only AP k holds.
    """
    acc = automaton.acceptance
    if isinstance(acc, RabinCondition):
        acc_name, acceptance = _hoa_acceptance(True, len(acc.pairs))
    elif isinstance(acc, ParityCondition):
        acc_name, acceptance = _hoa_acceptance(False, max(acc.priorities) + 1)
    else:
        raise AutomatonError("HOA export supports Rabin and parity acceptance only")

    lines = ["HOA: v1", f"States: {len(automaton.states)}"]
    for s in sorted(automaton.start):
        lines.append(f"Start: {s}")
    aps = " ".join(f'"{a}"' for a in automaton.alphabet.symbols)
    lines.append(f"AP: {len(automaton.alphabet)} {aps}")
    lines.append(f"acc-name: {acc_name}")
    lines.append(f"Acceptance: {acceptance}")
    lines.append("properties: trans-labels explicit-labels trans-acc")
    lines.append("--BODY--")
    n_ap = len(automaton.alphabet)
    labels = [
        "&".join(("%d" if i == ap else "!%d") % i for i in range(n_ap)) for ap in range(n_ap)
    ]
    marks = _reference_colour_marks(automaton)
    mark_text = {
        c: (" {%s}" % " ".join(map(str, m))) if m else "" for c, m in marks.items()
    }
    for s, row in enumerate(automaton.moves):
        lines.append(f"State: {s}")
        rows = sorted(
            (ap, d, marks[c], mark_text[c]) for ap, cell in enumerate(row) for c, d in cell
        )
        for ap, d, _, text in rows:
            lines.append(f"[{labels[ap]}] {d}{text}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def reference_hoa_signature(automaton: Automaton):
    """The signature over mark tuples that mark texts replaced.

    What HOA preserves: sizes, start states, and mark-labelled edges."""
    marks, letters = _reference_colour_marks(automaton), automaton.alphabet.symbols
    return (
        len(automaton.states),
        tuple(sorted(automaton.start)),
        frozenset(
            (s, letters[a], marks[c], d)
            for s, row in enumerate(automaton.moves)
            for a, cell in enumerate(row)
            for c, d in cell
        ),
    )


def reference_brute_force_winner(game, condition=None, budget=2_000_000):
    """The name-keyed brute force the table search replaced, returning
    (winner, search nodes visited).  It grows `sigma` and `mu` dicts, walks
    the reachable (vertex, memory) pairs from scratch for the first missing
    decision, and checks each complete candidate on a fresh memory product."""
    from mullergames.automata import condition_colours
    from mullergames.games import (
        EXIST,
        UNIV,
        GameError,
        _rejected_core,
    )
    from mullergames.zielonka import ZielonkaTree

    owner_of = {v: owner(game, v) for v in game.vertices}
    moves_from = {v: out(game, v) for v in game.vertices}

    def _memory_product(game, sigma, mu):
        start = (game.initial, 0)
        nodes = {start}
        queue = [start]
        moves_of = {}
        while queue:
            node = queue.pop()
            x, m = node
            if owner_of[x] == EXIST:
                moves = [sigma[(m, x)]]
            else:
                moves = moves_from[x]
            outs = moves_of[node] = []
            for e in moves:
                nxt = (e.dst, mu[(m, e)])
                outs.append((e, nxt))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
        return moves_of

    def _memory_strategy_wins(game, sigma, mu, bit, split):
        moves_of = _memory_product(game, sigma, mu)
        index = {node: i for i, node in enumerate(moves_of)}
        out = [[(index[nxt], bit(e.colour)) for e, nxt in outs] for outs in moves_of.values()]
        return _rejected_core(out, split) is None

    def _colour_bit(condition):
        index = condition_colours(condition).index
        return lambda colour: 0 if colour is None else 1 << index(colour)

    condition = condition if condition is not None else game.condition
    if not isinstance(condition, (MullerCondition, ZielonkaTree)):
        raise GameError("brute_force_winner expects a Muller condition")
    tree = condition if isinstance(condition, ZielonkaTree) else build_zielonka(condition)
    states = tuple(range(tree.memtree()))
    counter = [0]

    bit = _colour_bit(tree.condition)
    split = tree.split
    start = (game.initial, 0)

    def missing_decision(sigma, mu):
        """The first decision a reachable (vertex, memory) node lacks, or None."""
        seen = {start}
        stack = [start]
        while stack:
            x, m = stack.pop()
            if owner_of[x] == EXIST:
                e = sigma.get((m, x))
                if e is None:
                    return "sigma", (m, x)
                moves = [e]
            else:
                moves = moves_from[x]
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
            return _memory_strategy_wins(game, sigma, mu, bit, split)
        kind, key = missing
        if kind == "sigma":
            m, x = key
            for e in moves_from[x]:
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

    return (EXIST if search({}, {}) else UNIV), counter[0]


# The attractor as it was before midpoints kept their one neighbour in the
# `src`/`dst` columns: the oracle for `_attract`'s set order and moves.  It
# reads an arena whose `succ` and `preds` have a row for every node
# (`midpoint_rows`).


def midpoint_rows(arena: Arena) -> Arena:
    """`arena` with each midpoint's one successor and one predecessor
    appended to `succ` and `preds` as one-element rows."""
    base = arena.base
    return arena._replace(
        succ=arena.succ + [[y] for y in arena.dst[base:]],
        preds=arena.preds + [[x] for x in arena.src[base:]],
    )


def reference_attract(player: int, base: set, nodes: set, arena: Arena) -> tuple[set, dict]:
    """Attractor of `base` for `player` inside `nodes`, with the moves that
    player makes at vertices to advance towards the base.  An opponent node
    with one successor (every midpoint) joins as soon as that successor
    does."""
    succ, preds, owners, first_mid = arena.succ, arena.preds, arena.owners, arena.base
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
                if p < first_mid:  # a midpoint's one move needs no record
                    strat[p] = n
                queue.append(p)
            elif len(succ[p]) == 1:
                attr.add(p)
                queue.append(p)
            else:
                if p not in degree:
                    degree[p] = sum(1 for w in succ[p] if w in nodes)
                degree[p] -= 1
                if degree[p] == 0:
                    attr.add(p)
                    queue.append(p)
    return attr, strat


# The two-call form of Zielonka's recursion that `solve_parity_game`'s loop
# replaced: the oracle for its winning regions.


def reference_zielonka_solve(nodes: frozenset, arena: Arena, prio: Sequence[int]) -> tuple[set, set, dict]:
    """Recursive attractor decomposition for max-parity vertex games.

    Returns (win_even, win_odd, strategy) where the strategy maps each node
    to the move its winner takes there.
    """
    if not nodes:
        return set(), set(), {}
    succ, owners = arena.succ, arena.owners
    top = max(prio[v] for v in nodes)
    player = top % 2
    target = {v for v in nodes if prio[v] == top}
    attr, attr_strat = _attract(player, target, nodes, arena)
    rest = frozenset(nodes - attr)
    w_even, w_odd, strat = reference_zielonka_solve(rest, arena, prio)
    w_opp = w_odd if player == 0 else w_even
    if not w_opp:
        full_strat = dict(strat)
        full_strat.update(attr_strat)
        for v in target:
            if owners[v] == player and v not in full_strat:
                moves = succ[v] if v < arena.base else (arena.dst[v],)
                full_strat[v] = next(w for w in moves if w in nodes)
        win = set(nodes)
        return (win, set(), full_strat) if player == 0 else (set(), win, full_strat)
    opp = 1 - player
    oattr, oattr_strat = _attract(opp, set(w_opp), nodes, arena)
    rest2 = frozenset(nodes - oattr)
    w_even2, w_odd2, strat2 = reference_zielonka_solve(rest2, arena, prio)
    merged = dict(strat2)
    for v, w in strat.items():
        if v in w_opp and owners[v] == opp:
            merged.setdefault(v, w)
    for v, w in oattr_strat.items():
        merged.setdefault(v, w)
    if player == 0:
        return w_even2, set(w_odd2) | oattr, merged
    return set(w_even2) | oattr, w_odd2, merged


# The two hand-written forms of Zielonka's recursion that `_zielonka` in
# games.py replaced, one per kind of game: the oracle for its regions and
# moves.


def reference_solve_parity_game(game: GameGraph) -> GameSolution:
    """Winning regions and positional strategies for an edge-coloured
    max-even parity game; silent edges never dominate a cycle.

    Zielonka's recursion in `positional_rabin_strategy`'s loop form: while
    nodes remain, the player of the top priority attracts to it and the
    rest is solved.  If the opponent wins nothing there, the player wins
    all of the nodes; otherwise the opponent's attractor to its region
    there is the opponent's, and is removed.  The one recursive call has a
    lower top priority, so the depth is at most the number of distinct
    priorities.  Both strategies are re-verified by cycle analysis.
    """
    condition = game.condition
    if not isinstance(condition, ParityCondition):
        raise GameError("solve_parity_game expects a parity condition")
    shift = max(0, 1 - min(condition.priorities))
    shift += shift % 2  # keep parities intact

    # Midpoints carry their edge's priority and original vertices are
    # neutral.  No silent-only cycles, so a top priority is never 0 and
    # its nodes are coloured midpoints, which need no move.
    arena = game.arena
    by_colour = [p + shift for p in condition.priorities] + [0]
    prio = [by_colour[c.bit_length() - 1] for c in arena.colours]

    def solve(nodes: set) -> tuple[set, dict]:
        won: set = set()
        strategy: dict = {}
        while nodes:
            top = max(prio[v] for v in nodes)
            player = top % 2
            attr, attr_strat = _attract(player, {v for v in nodes if prio[v] == top}, nodes, arena)
            sub_won, sub_strat = solve(nodes - attr)
            lost = sub_won if player else nodes - attr - sub_won
            if not lost:
                strategy.update(sub_strat)
                strategy.update(attr_strat)
                return (won if player else won | nodes), strategy
            attr, attr_strat = _attract(1 - player, lost, nodes, arena)
            strategy.update((v, m) for v, m in sub_strat.items() if v in lost)
            strategy.update(attr_strat)
            if player:
                won |= attr
            nodes = nodes - attr
        return won, strategy

    solution = GameSolution(game, *solve(set(range(len(prio)))))
    _verify_solution(solution)
    return solution


def reference_positional_rabin_strategy(game: GameGraph) -> GameSolution:
    """Exist's whole winning region of an edge-coloured Rabin game, with one
    positional strategy that wins from all of it.

    Zielonka's recursion over the set of colours present in a subgame, on
    the arena (so the result does not depend on string hashing).  If some
    pair (g, r) is live on the present colours -- g present, r absent --
    Exist attracts to g and the rest is solved; she wins everything once
    Univ wins nothing in the rest, and otherwise Univ's attractor to his
    region there is removed.  If no pair is live, each child `present & ~r`
    that still meets its g is tried inside the complement of Univ's
    attractor to the colours outside it; Exist's attractor to what she wins
    there is hers.  Every recursive call has strictly fewer colours
    present.  The strategy is re-checked by `_verify_solution`.
    """
    condition = game.condition
    if not isinstance(condition, RabinCondition):
        raise GameError("positional_rabin_strategy expects a Rabin condition")
    arena = game.arena
    colour = arena.colours
    pairs = condition.pairs

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
                attr, attr_strat = _attract(0, with_colour(nodes, live), nodes, arena)
                sub_won, sub_strat = solve(nodes - attr)
                lost = nodes - attr - sub_won
                if not lost:
                    strategy.update(sub_strat)
                    strategy.update(attr_strat)
                    return won | nodes, strategy
                nodes = nodes - _attract(1, lost, nodes, arena)[0]
                continue
            children = {present & ~r for g, r in pairs if g & present}
            for child in sorted(children):
                rest = nodes - _attract(1, with_colour(nodes, ~child), nodes, arena)[0]
                sub_won, sub_strat = solve(rest)
                if sub_won:
                    attr, attr_strat = _attract(0, sub_won, nodes, arena)
                    strategy.update(sub_strat)
                    strategy.update(attr_strat)
                    won |= attr
                    nodes = nodes - attr
                    break
            else:
                return won, strategy
        return won, strategy

    solution = GameSolution(game, *solve(set(range(len(colour)))))
    _verify_solution(solution, (0,))
    return solution


def det_rabin_lower_bound(
    condition: MullerCondition, budget: int = 10**7
) -> int:
    """Chromatic number of the condition graph: a lower bound on the size of
    any deterministic Rabin automaton for the condition.  Falls back to the
    clique bound when the exact search exceeds its budget."""
    graph = build_condition_graph(condition)
    try:
        k, _ = chromatic_number(graph, budget)
        return k
    except SearchBudgetError:
        return clique_lower_bound(graph)


# The set-based colouring searches the condition graph was coloured with
# while it was a dict of neighbour sets.  The bitset searches of
# mullergames.succinctness must return the same cliques, the same greedy
# colourings, and the same (chi, witness) or the same SearchBudgetError.
def set_adjacency(adjacency: list[int]) -> dict[int, set[int]]:
    """Neighbour bitsets as the neighbour sets of the non-isolated vertices."""
    vertices = range(len(adjacency))
    return {m: {u for u in vertices if nbrs >> u & 1} for m, nbrs in enumerate(adjacency) if nbrs}


def reference_greedy_clique(vertices: list[int], adj: dict[int, set[int]]) -> list[int]:
    clique: list[int] = []
    candidates = sorted(vertices, key=lambda v: (-len(adj[v]), v))
    for v in candidates:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def reference_greedy_colouring(
    vertices: list[int], adj: dict[int, set[int]]
) -> tuple[int, dict[int, int]]:
    colouring: dict[int, int] = {}
    for v in sorted(vertices, key=lambda v: (-len(adj[v]), v)):
        used = {colouring[u] for u in adj[v] if u in colouring}
        c = 1
        while c in used:
            c += 1
        colouring[v] = c
    return max(colouring.values(), default=1), colouring


def reference_exact_chromatic(
    vertices: list[int], adj: dict[int, set[int]], budget: int
) -> tuple[int, dict[int, int]]:
    if not vertices:
        return 1, {}
    clique = reference_greedy_clique(vertices, adj)
    upper, greedy = reference_greedy_colouring(vertices, adj)
    lower = max(1, len(clique))
    rest = sorted(
        (v for v in vertices if v not in clique), key=lambda v: (-len(adj[v]), v)
    )
    order = clique + rest
    visited = [0]

    def assign(i: int, colouring: dict[int, int], k: int) -> bool:
        visited[0] += 1
        if visited[0] > budget:
            raise SearchBudgetError(f"exact colouring exceeded {budget} nodes")
        if i == len(order):
            return True
        v = order[i]
        taken = {colouring[u] for u in adj[v] if u in colouring}
        top = min(k, max(colouring.values(), default=0) + 1)
        for c in range(1, top + 1):
            if c in taken:
                continue
            colouring[v] = c
            if assign(i + 1, colouring, k):
                return True
            del colouring[v]
        return False

    for k in range(lower, upper):
        # The clique forces pairwise-distinct colours 1..|clique|.
        colouring = {v: i + 1 for i, v in enumerate(clique)}
        if assign(len(clique), colouring, k):
            return k, colouring
    return upper, greedy


@dataclass
class ReferenceGfgRabinAutomaton:
    """What the name-based GFG builder returned: the automaton, its tree and
    eta, and the provenance map it filled while naming the transitions."""

    automaton: Automaton
    tree: ZielonkaTree
    eta: dict[int, int]
    provenance: dict[Transition, tuple[int, int, int]]


def reference_build_gfg_rabin(source: MullerCondition | ZielonkaTree) -> ReferenceGfgRabinAutomaton:
    """The GFG builder the move table replaced: it names one `Transition`
    per (leaf, letter), and the named constructor dedupes them.

    The GFG Rabin automaton with memtree(Z_F) states recognising L_F, from
    the condition F or its Zielonka tree."""
    tree = _tree(source)
    condition = tree.condition
    eta = tree.eta()
    size = tree.memtree()
    transitions: list[Transition] = []
    provenance: dict[Transition, tuple[int, int, int]] = {}
    names = [tree.node_name(n) for n in range(len(tree))]
    # First leaf provenance wins when two leaves induce the same transition.
    for leaf, row in reference_walk(tree):
        for letter, (witness, target) in zip(condition.alphabet.symbols, row):
            t = Transition(eta[leaf], letter, names[witness], eta[target])
            if t not in provenance:
                provenance[t] = (leaf, witness, target)
                transitions.append(t)
    automaton = named_automaton(
        range(1, size + 1),
        condition.alphabet,
        [eta[tree.leftmost_leaf(tree.root)]],
        transitions,
        node_rabin_pairs(tree),
    )
    return ReferenceGfgRabinAutomaton(automaton, tree, eta, provenance)


def provenance_rows(
    provenance: dict[Transition, tuple[int, int, int]], tree: ZielonkaTree
) -> list[dict]:
    """A transition -> (leaf, witness node, leaf') map as the rows of
    `provenance_document`, in the map's order."""
    name = tree.node_name
    return [
        {
            "src": t.src,
            "letter": t.letter,
            "colour": t.colour,
            "dst": t.dst,
            "from_leaf": name(leaf),
            "witness": name(witness),
            "to_leaf": name(target),
        }
        for t, (leaf, witness, target) in provenance.items()
    ]


def node_priorities(tree: ZielonkaTree) -> dict[int, int]:
    """Priorities decreasing with depth, parity-aligned so that round nodes
    are even; the unique minimal node recurring in a run then decides
    acceptance through the maximum."""
    height = tree.height
    base = {n: height - tree.depth(n) for n in range(len(tree))}
    root_even = base[tree.root] % 2 == 0
    offset = 0 if root_even == tree.is_round(tree.root) else 1
    return {n: p + offset for n, p in base.items()}


def reference_build_parity_automaton(source: MullerCondition | ZielonkaTree) -> Automaton:
    """The parity builder the move table replaced: it names one
    `Transition` per (leaf, letter).

    The deterministic parity automaton whose states are the leaves of the
    Zielonka tree of the condition (or of the given tree)."""
    tree = _tree(source)
    condition = tree.condition
    prio = node_priorities(tree)
    colours = Alphabet([str(p) for p in sorted(set(prio.values()))])
    priorities = {str(p): p for p in set(prio.values())}
    transitions = [
        Transition(leaf, letter, str(prio[witness]), target)
        for leaf, row in reference_walk(tree)
        for letter, (witness, target) in zip(condition.alphabet.symbols, row)
    ]
    return named_automaton(
        tree.leaves(),
        condition.alphabet,
        [tree.leftmost_leaf(tree.root)],
        transitions,
        ParityCondition(colours, priorities),
    )


# Spec-level checks that no command runs: each has its own tests.


def transitions_from(automaton: Automaton, state: State, letter: str) -> tuple[Transition, ...]:
    """The transitions from `state` on `letter`, in transition order."""
    if state not in automaton.states or letter not in automaton.alphabet:
        return ()
    s, colours = automaton.states.index(state), automaton.colour_alphabet.symbols
    cell = automaton.moves[s][automaton.alphabet.index(letter)]
    return tuple(Transition(state, letter, colours[c], automaton.states[d]) for c, d in cell)


def accepts_colour_set(acceptance: AnyCondition, colours: Iterable[str]) -> bool:
    alphabet = condition_colours(acceptance)
    return acceptance.accepts_mask(alphabet.letters(colours).mask)


def letter_pairs(cond: RabinCondition) -> list[tuple[LetterSet, LetterSet]]:
    """The (green, red) colour masks of each Rabin pair, as letter sets."""
    return [(cond.colours.from_mask(g), cond.colours.from_mask(r)) for g, r in cond.pairs]


def rabin_from_parity(cond: ParityCondition) -> RabinCondition:
    """The Rabin condition equivalent to a max-even parity condition.

    One pair per even priority d: green = colours of priority d,
    red = colours of priority above d.
    """
    pairs = []
    named = dict(zip(cond.colours, cond.priorities))
    for d in sorted({p for p in cond.priorities if p % 2 == 0}):
        green = [c for c, p in named.items() if p == d]
        red = [c for c, p in named.items() if p > d]
        pairs.append((green, red))
    return RabinCondition(cond.colours, pairs)


def check_node_sequence(tree: ZielonkaTree, w: LassoWord) -> bool:
    """Rabin satisfaction of a node sequence, cross-checked against the
    characterisation "a unique minimal node recurs and it is round"."""
    pairs = node_rabin_pairs(tree)
    letters = inf_set(w)
    by_rabin = satisfies_rabin(pairs, letters)

    name_to_id = {tree.node_name(n): n for n in range(len(tree))}
    try:
        members = [name_to_id[name] for name in letters]
    except KeyError as err:
        raise ConditionError(f"unknown node id {err.args[0]!r}") from None
    minimal = [
        n
        for n in members
        if not any(m != n and reference_is_ancestor(tree, m, n) for m in members)
    ]
    by_tree = len(minimal) == 1 and tree.is_round(minimal[0])
    if by_rabin != by_tree:
        raise AssertionError(
            "Rabin evaluation and unique-minimal-round characterisation disagree"
        )
    return by_rabin


def check_quotient(parity: Automaton, gfg: GfgRabinAutomaton, eta: dict[int, int]) -> bool:
    """True iff merging the parity automaton's leaf states through eta and
    relabelling each transition by its witness node yields exactly the GFG
    Rabin automaton's transitions."""
    tree = gfg.tree
    if set(parity.states) != set(tree.leaves()):
        raise ConditionError("parity automaton does not run over this tree's leaves")
    if set(eta) != set(tree.leaves()):
        raise ConditionError("eta labelling does not cover this tree's leaves")
    merged = set()
    for t in parity.transitions:
        witness, expected_target = tree.step(t.src, t.letter)
        if expected_target != t.dst:
            raise ConditionError("parity automaton does not follow this tree's jumps")
        merged.add(Transition(eta[t.src], t.letter, tree.node_name(witness), eta[t.dst]))
    return merged == set(gfg.automaton.transitions)


def independent_bound_chi(graph_or_size, m: int) -> int:
    """ceil(|V| / m) for an upper bound m on independent-set size."""
    if m < 1:
        raise ValueError("independence bound must be at least 1")
    if isinstance(graph_or_size, list):
        size = len(graph_or_size)
    else:
        size = int(graph_or_size)
    return -(-size // m)


def fscc(automaton: Automaton, letters: LetterLike) -> set[frozenset]:
    """All final strongly connected components for a letter set: state sets
    mutually reachable and closed under transitions on those letters."""
    mask = automaton.alphabet.letters(letters).mask
    states, symbols = automaton.states, automaton.alphabet.symbols
    succ: list[list[int]] = []
    for s, row in enumerate(automaton.moves):
        for a, cell in enumerate(row):
            if mask >> a & 1 and len(cell) != 1:
                raise ConditionError(
                    f"undefined or ambiguous {symbols[a]!r}-transition from {states[s]!r}"
                )
        succ.append([cell[0][1] for a, cell in enumerate(row) if mask >> a & 1])
    out = set()
    for comp in dense_components(succ.__getitem__, range(len(states)), [-1] * len(states)):
        members = set(comp)
        if all(d in members for s in comp for d in succ[s]):
            out.add(frozenset(states[s] for s in comp))
    return out


def verify_disjoint_fscc(
    automaton: Automaton,
    letters1: LetterLike,
    letters2: LetterLike,
    condition: MullerCondition,
) -> bool:
    """True iff every FSCC for the first rejecting set is disjoint from every
    FSCC for the second; a shared state would merge two rejecting cycles
    into an accepting one, refuting the automaton."""
    c1 = condition.alphabet.letters(letters1)
    c2 = condition.alphabet.letters(letters2)
    if condition.accepts_mask(c1.mask) or condition.accepts_mask(c2.mask):
        raise ConditionError("both letter sets must be rejecting")
    if not condition.accepts_mask(c1.mask | c2.mask):
        raise ConditionError("the union of the letter sets must be accepting")
    first = fscc(automaton, c1)
    second = fscc(automaton, c2)
    return all(not (p1 & p2) for p1 in first for p2 in second)
