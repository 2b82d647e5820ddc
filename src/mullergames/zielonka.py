"""Ordered Zielonka trees: construction, memtree, cyclic jumps, leaf numbering.

The tree of a Muller condition alternates round (accepting) and square
(rejecting) nodes; every node's children carry the maximal subsets of its
label with the opposite membership.  Node ids are dense integers in BFS
construction order and children are kept sorted by label bit pattern, so
the whole structure is reproducible.

The constructor also fills integer tables that every later query reads:
depth-first pre-order numbers with the last number inside each subtree (so
`is_ancestor` is an interval test), the leftmost leaf and the cyclic next
sibling of every node, the leaf tuple with each node's slice of it, and
`step_table`, which maps a leaf and a letter index to the tree walk's
(witness, target) move.  The automaton builders, the resolver and the
quotient check all read that one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .conditions import ConditionError, LetterSet, MullerCondition


@dataclass
class ZNode:
    ident: int
    label: LetterSet
    round: bool
    parent: Optional[int]
    children: list[int] = field(default_factory=list)


ChildOrder = Callable[[list[int]], list[int]]


class ZielonkaTree:
    """The ordered Zielonka tree of a Muller condition."""

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
            for mask in order(_maximal_flipped_subsets(condition, node.label.mask)):
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

    def ancestors(self, n: int) -> list[int]:
        """Path from the root down to n, inclusive."""
        path = [n]
        while self.nodes[path[-1]].parent is not None:
            path.append(self.nodes[path[-1]].parent)
        path.reverse()
        return path

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


def _maximal_flipped_subsets(condition: MullerCondition, mask: int) -> list[int]:
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


# -- spec-level operation surface -------------------------------------------


def build_zielonka(
    condition: MullerCondition, child_order: Optional[ChildOrder] = None
) -> ZielonkaTree:
    return ZielonkaTree(condition, child_order)
