"""Ordered Zielonka trees: construction, memtree, the tree walk, leaf numbering.

The tree of a Muller condition alternates round (accepting) and square
(rejecting) nodes; every node's children carry the maximal subsets of its
label with the opposite membership.  Node ids are dense integers in BFS
construction order and children are kept sorted by label bit pattern, so
the whole structure is reproducible.

Nodes with equal labels have equal children, so a build finds each
label's children once (the build-time half of Hunter & Dawar's Zielonka
DAG), from F_S, the members of F inside label S, instead of from the 2^|S|
subsets of S.  A child's F_S is filtered from its parent's.

The tree is stored once, as integer lists indexed by node id: the label's
letter mask, the round flag, the parent, the children and the depth.  A
label is made into a `LetterSet` only when `label` reads it.  One
depth-first numbering then fills the tables that the automata read:
memtree, the leftmost leaf and the cyclic next sibling of every node, the
leaf tuple, and the leaf numbering eta, filled top-down in the same pass.
From those, `step_table` maps a leaf and a letter index to the tree walk's
(witness, target) move; both automaton builders and the resolver's walk
read that one table, which is built when first read.  `refine` (the cycle
check's query) and `split` (Zielonka's recursion on a Muller game) share
one descent to the deepest node whose label holds a colour mask.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .conditions import ConditionError, LetterSet, MullerCondition, quoted


class ZielonkaTree:
    """The ordered Zielonka tree of a Muller condition."""

    def __init__(self, condition: MullerCondition):
        self.condition = condition
        self.alphabet = condition.alphabet
        full = self.alphabet.full().mask
        masks, rounds, depth = [full], [full in condition.masks], [0]
        parents: list[Optional[int]] = [None]
        children: list[tuple[int, ...]] = []
        # BFS so that ids go level by level, left to right: node `head`'s
        # children take the next free ids, in one run, and have the other
        # round flag.  Each label's children, and F_S for label S, are found
        # once per build.
        kids_of: dict[int, list[int]] = {}
        inside = {full: list(condition.masks)}
        head = 0
        while head < len(masks):
            mask, accepted = masks[head], rounds[head]
            if mask not in kids_of:
                members = inside.pop(mask)
                kids_of[mask] = _maximal_flipped_subsets(condition, mask, accepted, members)
                for k in kids_of[mask]:
                    if k not in kids_of and k not in inside:
                        inside[k] = _masks_inside(condition, k, members)
            if kids_of[mask]:
                kids = sorted(kids_of[mask])
                first = len(masks)
                children.append(tuple(range(first, first + len(kids))))
                masks += kids
                rounds += [not accepted] * len(kids)
                parents += [head] * len(kids)
                depth += [depth[head] + 1] * len(kids)
            else:  # a leaf
                children.append(())
            head += 1
        self._mask, self._round, self._parent, self._children = masks, rounds, parents, children
        self._depth, self._height = depth, 1 + max(depth)
        self._number_depth_first()

    def _number_depth_first(self) -> None:
        """Memtree, leftmost leaves, cyclic next siblings, the leaf tuple in
        depth-first order, and eta.  A node's children have consecutive
        ids, so each one's next sibling is the next id but for the last."""
        count, children, memtree = len(self._mask), self._children, [1] * len(self._mask)
        order: list[int] = []
        leaves: list[int] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            order.append(n)
            if children[n]:
                stack.extend(reversed(children[n]))
            else:
                leaves.append(n)
        self._leaves = tuple(leaves)
        self._leftmost = leftmost = list(range(count))
        self._next_sibling = list(range(1, count + 1))
        self._next_sibling[self.root] = self.root
        # Reversed pre-order: every child is finished before its parent.
        for n in reversed(order):
            kids = children[n]
            if kids:
                parts = [memtree[k] for k in kids]
                memtree[n] = sum(parts) if self._round[n] else max(parts)
                leftmost[n] = leftmost[kids[0]]
                self._next_sibling[kids[-1]] = kids[0]
        self._memtree = memtree
        # Pre-order, parents first: eta counts from a node's offset; a round
        # node's children take consecutive ranges, a square node's share one.
        offset = [0] * count
        for n in order:
            base = offset[n]
            for k in children[n]:
                offset[k] = base
                if self._round[n]:
                    base += memtree[k]
        self._eta = {leaf: offset[leaf] + 1 for leaf in leaves}

    @cached_property
    def step_table(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """leaf -> (witness, target) per letter index, built on first read.

        The witness is the deepest node on the leaf's root path whose label
        holds the letter (labels shrink along the path, and the root holds
        every letter).  The target is the leaf itself when the witness is the
        leaf, and otherwise the leftmost leaf below the next sibling of the
        path's child of the witness.  Rows are pushed down from the root: a
        letter in the child's label gets the child as witness, and a letter
        whose witness was the parent now knows which child the path took.
        """
        rows = {self.root: [(self.root, self.root)] * len(self.alphabet)}
        for n, kids in enumerate(self._children):  # BFS: parents first
            if not kids:
                continue
            row = rows.pop(n)
            # The parent is the witness of exactly the letters of its label.
            letters = [i for i in range(len(row)) if self._mask[n] >> i & 1]
            for c in kids:
                mask = self._mask[c]
                here, jump = (c, c), (n, self._leftmost[self._next_sibling[c]])
                rows[c] = child_row = row.copy()
                for i in letters:
                    child_row[i] = here if mask >> i & 1 else jump
        return {leaf: tuple(rows[leaf]) for leaf in self._leaves}

    # -- structure queries ------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self._mask)

    def label(self, n: int) -> LetterSet:
        return self.alphabet.from_mask(self._mask[n])

    def mask(self, n: int) -> int:
        """The letter mask of node n's label."""
        return self._mask[n]

    def is_round(self, n: int) -> bool:
        return self._round[n]

    def is_leaf(self, n: int) -> bool:
        return not self._children[n]

    def children(self, n: int) -> tuple[int, ...]:
        return self._children[n]

    def parent(self, n: int) -> Optional[int]:
        return self._parent[n]

    def depth(self, n: int) -> int:
        return self._depth[n]

    @property
    def height(self) -> int:
        return self._height

    def node_name(self, n: int) -> str:
        return f"n{n}"

    def leaves(self) -> tuple[int, ...]:
        """All leaves in leftmost-first (depth-first) order."""
        return self._leaves

    def leftmost_leaf(self, n: int) -> int:
        return self._leftmost[n]

    # -- navigation --------------------------------------------------------

    def next_child(self, n: int, c: int) -> int:
        if not 0 <= c < len(self._mask) or self._parent[c] != n:
            raise ConditionError(f"node {c} is not a child of node {n}")
        return self._next_sibling[c]

    def step(self, leaf: int, letter: str) -> tuple[int, int]:
        """One move of the tree walk: (witness node, next leaf) for a letter."""
        row = self.step_table.get(leaf)
        if row is None:
            raise ConditionError(f"node {leaf} is not a leaf of this tree")
        return row[self.alphabet.index(letter)]

    def _holder(self, mask: int) -> int:
        """The deepest node on the leftmost descent whose label holds `mask`:
        no child's label holds it, so the mask has that node's membership
        in F, and every subset of the other membership lies inside a child."""
        labels, children, node = self._mask, self._children, self.root
        while True:
            deeper = next((k for k in children[node] if not mask & ~labels[k]), None)
            if deeper is None:
                return node
            node = deeper

    def refine(self, mask: int) -> Optional[list[int]]:
        """None if the condition rejects `mask`, else the children's labels
        of the deepest node whose label holds it.  That node is round
        exactly when the mask is accepted, and then every rejected subset of
        the mask lies inside one of its children."""
        node = self._holder(mask)
        return [self._mask[k] for k in self._children[node]] if self._round[node] else None

    def split(self, present: int) -> tuple[int, list[int]]:
        """Zielonka's recursion on a Muller game: the owner of the deepest
        node whose label holds `present` (0 Exist if round, 1 Univ if
        square) attracts to the colours `present & ~label` outside each
        child's label, in child order, each distinct target once: a repeat
        gives the same attractor and subgame.  What is left after one lies
        inside that child.  A leaf gives no target, and its owner wins."""
        node = self._holder(present)
        labels = self._mask
        targets = dict.fromkeys(present & ~labels[k] for k in self._children[node])
        return (0 if self._round[node] else 1), list(targets)

    # -- derived quantities -------------------------------------------------

    def memtree(self, n: Optional[int] = None) -> int:
        return self._memtree[self.root if n is None else n]

    def eta(self) -> dict[int, int]:
        """A leaf numbering into {1..memtree} with distinct values across any
        two branches of a round node; the leftmost leaf gets 1.  Each call
        returns a new dict."""
        return dict(self._eta)

    def to_dot(self) -> str:
        lines = ["digraph zielonka {", "  ordering=out;"]
        for n in range(len(self)):
            shape = "ellipse" if self._round[n] else "box"
            text = quoted("{%s}" % ",".join(self.label(n)))
            lines.append(f"  {self.node_name(n)} [shape={shape}, label={text}];")
        for n, kids in enumerate(self._children):
            for k in kids:
                lines.append(f"  {self.node_name(n)} -> {self.node_name(k)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _maximal_flipped_subsets(
    condition: MullerCondition, mask: int, accepted: bool, inside: list[int]
) -> list[int]:
    """Maximal non-empty subsets of label S = `mask` whose F-membership
    differs from S's, `accepted`, in (-popcount, mask) order, from `inside`
    = F_S.

    For a rejected S the candidates are F_S.  For an accepted S, a maximal
    rejected T gains membership with any letter a of S - T, so it is one of
    the rejected A - {a} for A in F_S.  Sets of one size never contain each
    other, so a candidate is tested only against the larger kept sets."""
    candidates = inside
    if accepted:
        drops = {a & ~(1 << i) for a in inside for i in range(a.bit_length())}
        candidates = [t for t in drops if t and t not in condition.masks]
    kept: list[int] = []
    larger, size = (), 0
    for cand in sorted(candidates, key=lambda m: (-m.bit_count(), m)):
        if cand.bit_count() != size:
            larger, size = tuple(kept), cand.bit_count()
        if not any(cand & ~k == 0 for k in larger):
            kept.append(cand)
    return kept


def _masks_inside(condition: MullerCondition, mask: int, pool: list[int]) -> list[int]:
    """F's members within `mask`, filtered from `pool`, a list that holds
    them all, or from mask's subsets when those are fewer."""
    if 1 << mask.bit_count() < len(pool):
        pool, sub = [], mask
        while sub:
            pool.append(sub)
            sub = (sub - 1) & mask
    return [a for a in pool if not a & ~mask and a in condition.masks]


# -- spec-level operation surface -------------------------------------------


def build_zielonka(condition: MullerCondition) -> ZielonkaTree:
    return ZielonkaTree(condition)
