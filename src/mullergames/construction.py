"""From a Zielonka tree to automata: the minimal good-for-games Rabin
automaton, its merged form, its leaf-memory resolver, and the
deterministic parity automaton over the tree's leaves.

States of the Rabin automaton are the values of a leaf numbering with
distinct values across branches of round nodes; its transitions follow the
tree walk "climb to the deepest ancestor containing the letter, output that
node, switch to its next child, descend leftmost".  The merged form keeps
one transition per (state, letter, target), as in the paper's running
example.  Every leaf row comes from one climb of the leaf's root path
(`ZielonkaTree.row`), which keeps no table: the GFG move table and the
provenance document climb each leaf once, first leaf first, and every
automaton over the tree's leaves, the resolver and the parity automaton,
is a `RowsOnDemand` table that makes a row when it is first read, so a
product that reaches few leaves pays for few rows.  The parity automaton
of a GFG automaton recolours the resolver's rows as they are read, so the
two climb each leaf once between them.  The GFG automaton is the
resolver's quotient by eta, and the merged form is regrouped from its
move table by target.  Both GFG forms take their Rabin pairs from one
backward sweep over the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from .automata import Automaton, Run, RowsOnDemand, run_deterministic
from .conditions import (
    Alphabet,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)
from .zielonka import ZielonkaTree, build_zielonka


def _round_pairs(
    tree: ZielonkaTree, colours: Alphabet, holders: Callable[[int], int]
) -> RabinCondition:
    """One Rabin pair per round node n, in id order: green is `holders(n)`,
    the mask of the colours that hold n, and red is every colour that holds
    no node of n's subtree (a colour that holds only strict descendants of
    n stays orange)."""
    full = colours.full().mask
    # BFS ids put every child after its parent, so a backward sweep has
    # finished a node's subtree mask when it reaches the node: its pair is
    # built then, and the mask is merged into the parent's and dropped.
    below = [0] * len(tree)
    pairs = []
    for n in range(len(tree) - 1, -1, -1):
        green = holders(n)
        mask = below[n] | green
        below[n] = 0
        if tree.is_round(n):
            pairs.append((green, full & ~mask))
        if n:
            below[tree.parent(n)] |= mask
    pairs.reverse()
    return RabinCondition(colours, pairs)


def node_rabin_pairs(tree: ZielonkaTree) -> RabinCondition:
    """One Rabin pair per round node n: green is n itself, red is every node
    that is neither n nor a descendant of n (strict descendants stay orange)."""
    names = Alphabet([tree.node_name(n) for n in range(len(tree))])
    return _round_pairs(tree, names, lambda n: 1 << n)


@dataclass
class GfgRabinAutomaton:
    """The good-for-games Rabin automaton's move table plus its construction
    context: `moves[s][a]` holds each (witness node, target state index) of
    state index s on letter a once, first leaf first.  The unmerged
    `automaton` and the `merged` one are both built from it when first
    read, and so is `resolver`, the deterministic automaton over the
    tree's leaves whose quotient by eta the unmerged automaton is.  Only
    `build` without `--simplify`, `check` and the benchmark's traced
    `build_gfg_rabin` size probe build the unmerged automaton; `solve`
    reads `merged`, and `provenance_document` the tree and eta."""

    tree: ZielonkaTree
    eta: dict[int, int]
    moves: list[list[list[tuple[int, int]]]]

    @cached_property
    def automaton(self) -> Automaton:
        """The move table as an automaton: colour n is node n."""
        return self._over(self.moves, node_rabin_pairs(self.tree))

    @cached_property
    def resolver(self) -> Automaton:
        """The leaf-memory resolver: state i is leaf `tree.leaves()[i]`,
        named by its eta value, the state of `automaton` it stands for.  It
        starts at the root's leftmost leaf and moves by the tree walk, with
        colour n node n under `automaton`'s pairs; each row is made when
        first read."""
        tree, acceptance = self.tree, self.automaton.acceptance
        states = [self.eta[leaf] for leaf in tree.leaves()]
        return Automaton(states, tree.alphabet, [0], _leaf_rows(tree, range(len(tree))), acceptance)

    def _over(self, moves: list, acceptance: RabinCondition) -> Automaton:
        """An automaton on the GFG states, letters and start state."""
        tree, start = self.tree, self.eta[self.tree.leftmost_leaf(self.tree.root)] - 1
        return Automaton(range(1, tree.memtree() + 1), tree.alphabet, [start], moves, acceptance)

    @cached_property
    def merged(self) -> Automaton:
        """The automaton with one move per (state, letter, target),
        regrouped from the unmerged move table: its colour is the witness
        node, or the bundle of two or more witnesses, named "(" + their
        names in id order + ")".  The colours are the used nodes in id
        order, then the bundles in first use (by state, letter, target).
        A bundle is green for a round node's pair when it holds the node,
        and red when it holds no node of the node's subtree."""
        tree, flip, target = self.tree, itemgetter(1, 0), itemgetter(1)
        # Each cell's moves by target: (target, its witnesses in id order).
        runs = [[groupby(sorted(cell, key=flip), target) for cell in row] for row in self.moves]
        grouped = [[[(d, tuple(w for w, _ in g)) for d, g in cell] for cell in row] for row in runs]
        used = [g for row in grouped for cell in row for _, g in cell]
        bundles = dict.fromkeys(g for g in used if len(g) > 1)
        groups = sorted({g for g in used if len(g) == 1}) + list(bundles)
        colour = {g: c for c, g in enumerate(groups)}
        holders = [0] * len(tree)
        for g, c in colour.items():
            for n in g:
                holders[n] |= 1 << c
        names = Alphabet(
            "(%s)" % "".join(map(tree.node_name, g)) if len(g) > 1 else tree.node_name(g[0])
            for g in groups
        )
        return self._over(
            [[[(colour[g], d) for d, g in cell] for cell in row] for row in grouped],
            _round_pairs(tree, names, holders.__getitem__),
        )


def _tree(source: MullerCondition | ZielonkaTree) -> ZielonkaTree:
    return source if isinstance(source, ZielonkaTree) else build_zielonka(source)


def build_gfg_rabin(source: MullerCondition | ZielonkaTree) -> GfgRabinAutomaton:
    """The GFG Rabin automaton with memtree(Z_F) states recognising L_F, from
    the condition F or its Zielonka tree."""
    tree = _tree(source)
    eta = tree.eta()
    cells = [[{} for _ in tree.alphabet] for _ in range(tree.memtree())]
    # Leaf l moves as state eta[l]; a cell keeps each move once, first leaf first.
    for leaf in tree.leaves():
        for cell, (witness, target) in zip(cells[eta[leaf] - 1], tree.row(leaf)):
            cell[witness, eta[target] - 1] = None
    return GfgRabinAutomaton(tree, eta, [[list(cell) for cell in row] for row in cells])


def _leaf_rows(tree: ZielonkaTree, colour: Sequence[int]) -> RowsOnDemand:
    """The table over `tree.leaves()`, the root's leftmost first, whose row
    i is made when first read from one climb of `ZielonkaTree.row` of the
    leaf at index i: its move on a letter is (colour[witness], next leaf's
    index), the index read from a list over the node ids."""
    leaves, index = tree.leaves(), [0] * len(tree)
    for i, leaf in enumerate(leaves):
        index[leaf] = i
    return RowsOnDemand(len(leaves), lambda i: [[(colour[w], index[t])] for w, t in tree.row(leaves[i])])


def _parity_colours(tree: ZielonkaTree) -> tuple[list[int], ParityCondition]:
    """Each node's output colour and the parity condition on the priorities'
    names.  Node n's priority is height - depth(n) + offset, decreasing
    with depth and parity-aligned so that round nodes are even: the unique
    minimal node recurring in a run then decides acceptance through the
    maximum.  Every depth occurs, so the priorities are 1 + offset ..
    height + offset, and a node's colour, its priority's rank among them,
    is its distance from the deepest level."""
    height = tree.height
    offset = int((height % 2 == 0) != tree.is_round(tree.root))
    priorities = range(1 + offset, height + 1 + offset)
    acceptance = ParityCondition(Alphabet(map(str, priorities)), {str(p): p for p in priorities})
    return [height - 1 - tree.depth(n) for n in range(len(tree))], acceptance


def build_parity_automaton(source: MullerCondition | ZielonkaTree | GfgRabinAutomaton) -> Automaton:
    """The deterministic parity automaton whose states are the leaves of the
    Zielonka tree of the condition (or of the given tree), with each row
    made when first read: a product reads only the rows of the states it
    reaches.  From a GFG automaton each row is recoloured from the
    resolver's row, whose colours are the witness nodes, so the tree's rows
    are made once for both."""
    tree = source.tree if isinstance(source, GfgRabinAutomaton) else _tree(source)
    colour, acceptance = _parity_colours(tree)
    if isinstance(source, GfgRabinAutomaton):
        rows = source.resolver.moves
        moves = RowsOnDemand(len(rows), lambda i: [[(colour[w], t)] for ((w, t),) in rows[i]])
    else:
        moves = _leaf_rows(tree, colour)
    return Automaton(tree.leaves(), tree.alphabet, [0], moves, acceptance)


def resolve_run(gfg: GfgRabinAutomaton, w: LassoWord) -> tuple[Run, bool]:
    """The run of the GFG automaton driven by the leaf-memory resolver, as
    the run of `gfg.resolver`, whose states are named as the GFG states
    they stand for.

    Accepting whenever the lasso's letter set is a member of the condition:
    this is the good-for-games guarantee.
    """
    return run_deterministic(gfg.resolver, w)


def provenance_document(gfg: GfgRabinAutomaton) -> list[dict]:
    """Each GFG transition with the (leaf, witness node, leaf') of the first
    leaf that induces it, read off one `row` climb per leaf, first leaf
    first: a transition is the id tuple (state, letter index, witness, next
    state), named only as a row of the document."""
    tree, eta, letters, name = gfg.tree, gfg.eta, gfg.tree.alphabet.symbols, gfg.tree.node_name
    first: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for leaf in tree.leaves():
        for a, (witness, target) in enumerate(tree.row(leaf)):
            first.setdefault((eta[leaf], a, witness, eta[target]), (leaf, target))
    return [
        {
            "src": src,
            "letter": letters[a],
            "colour": name(witness),
            "dst": dst,
            "from_leaf": name(leaf),
            "witness": name(witness),
            "to_leaf": name(target),
        }
        for (src, a, witness, dst), (leaf, target) in first.items()
    ]
