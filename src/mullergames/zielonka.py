"""Ordered Zielonka trees: construction, memtree, the tree walk, leaf numbering.

The tree of a Muller condition alternates round (accepting) and square
(rejecting) nodes; every node's children carry the maximal subsets of its
label with the opposite membership.  Node ids are dense integers in BFS
construction order and children are kept sorted by label bit pattern, so
the whole structure is reproducible.

Nodes with equal labels have equal children, so a build finds each
label's children once (the build-time half of Hunter & Dawar's Zielonka
DAG), from F_S, the members of F inside label S, instead of from the 2^|S|
subsets of S.  A rejected S's children are its maximal members, whose F_T
gather the rest ([T] if F_S has one size); an accepted S's F_T filter F_S.

The tree is stored once, as integer lists indexed by node id: the label's
letter mask, the round flag, the parent, the children and the depth.  A
label is made into a `LetterSet` only when `label` reads it.  A backward
and a forward sweep over ids then fill the tables that the automata read:
memtree, the leftmost leaf and the cyclic next sibling of every node, the
leaf tuple in depth-first order, and the leaf numbering eta.
From those, `walk` yields each leaf's row of the tree walk's (witness,
target) moves per letter index, pushed down from the root, and keeps no
row; the GFG builder and the provenance document read the rows of their
own pass.  `row` climbs one leaf's root path for that leaf's row, which
the parity automaton and the resolver read, and `step` is one move of it.
`split`, the one query that both Zielonka's recursion on a Muller game and
the certificates' cycle search ask, descends to the deepest node whose
label holds a colour mask.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from .conditions import ConditionError, LetterSet, MullerCondition, quoted


class ZielonkaTree:
    """The ordered Zielonka tree of a Muller condition."""

    def __init__(self, condition: MullerCondition):
        self.condition = condition
        self.alphabet = condition.alphabet
        full, accepting = self.alphabet.full().mask, condition.masks
        masks, rounds, depth = [full], [full in accepting], [0]
        parents: list[Optional[int]] = [None]
        children: list[tuple[int, ...]] = []
        # BFS so that ids go level by level, left to right: node `head`'s
        # children take the next free ids, in one run, with the other round
        # flag.  Each label's children are found once, from its F_S.
        kids_of: dict[int, list[int]] = {}
        inside = {full: sorted(accepting, key=_larger_first)}
        for head, mask in enumerate(masks):
            kids = kids_of.get(mask)
            if kids is None:
                found = _flipped_children(accepting, mask, rounds[head], inside.pop(mask))
                inside.update(found)  # each F_T is the same from every parent
                kids = kids_of[mask] = sorted(found)
            if kids:
                first, count = len(masks), len(kids)
                children.append(tuple(range(first, first + count)))
                masks += kids
                rounds += [not rounds[head]] * count
                parents += [head] * count
                depth += [depth[head] + 1] * count
            else:  # a leaf
                children.append(())
        self._mask, self._round, self._parent, self._children = masks, rounds, parents, children
        self._depth, self._height = depth, 1 + max(depth)
        self._number_by_sweeps()

    def _number_by_sweeps(self) -> None:
        """Memtree, leftmost leaves and next siblings children first, then the
        depth-first leaf tuple and eta parents first: in depth-first order, a
        node's subtree is followed by its next sibling's leftmost leaf, or
        for a last child by what follows its parent's."""
        count, children, rounds = len(self._mask), self._children, self._round
        self._memtree = memtree = [1] * count
        self._leftmost = leftmost = list(range(count))
        self._next_sibling = [self.root, *range(2, count + 1)]  # the root's is itself
        after, offset = [-1] * count, [0] * count
        for n in range(count - 1, -1, -1):
            kids = children[n]
            if kids:
                a, b = kids[0], kids[-1] + 1
                memtree[n] = sum(memtree[a:b]) if rounds[n] else max(memtree[a:b])
                leftmost[n] = leftmost[a]
                self._next_sibling[b - 1] = a
        # eta counts from a node's offset: a round node's children take
        # consecutive ranges, a square node's share one.
        for n, kids in enumerate(children):
            if kids:
                a, b, base = kids[0], kids[-1] + 1, offset[n]
                after[a : b - 1], after[b - 1] = leftmost[a + 1 : b], after[n]
                for k in kids:
                    offset[k] = base
                    if rounds[n]:
                        base += memtree[k]
        leaves, leaf = [], leftmost[self.root]
        while leaf >= 0:
            leaves.append(leaf)
            leaf = after[leaf]
        self._leaves = tuple(leaves)
        self._eta = {leaf: offset[leaf] + 1 for leaf in leaves}

    def walk(self) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        """Each leaf with its row of `step`'s (witness, target) moves per
        letter index, in `leaves()` order; nothing is kept.  Rows are pushed
        down from the root, depth first and last child first: a letter in
        the child's label gets the child as witness, and a letter whose
        witness was the parent now knows which child the path took."""
        stack = [(self.root, [(self.root, self.root)] * len(self.alphabet))]
        while stack:
            n, row = stack.pop()
            kids = self._children[n]
            if not kids:
                yield n, row
                continue
            # The parent is the witness of exactly the letters of its label.
            letters = [i for i in range(len(row)) if self._mask[n] >> i & 1]
            for c in reversed(kids):
                mask = self._mask[c]
                here, jump = (c, c), (n, self._leftmost[self._next_sibling[c]])
                child_row = row.copy()
                for i in letters:
                    child_row[i] = here if mask >> i & 1 else jump
                stack.append((c, child_row))

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

    def row(self, leaf: int) -> list[tuple[int, int]]:
        """The tree walk's (witness node, next leaf) move of a leaf for every
        letter index, from one climb of its root path.

        A letter's witness is the deepest node on the path whose label holds
        it (labels shrink along the path, and the root holds every letter).
        Its target is the leaf itself when the witness is the leaf, and
        otherwise the leftmost leaf below the next sibling of the path's
        child of the witness.  `walk` yields the same rows for every leaf."""
        if not 0 <= leaf < len(self._mask) or self._children[leaf]:
            raise ConditionError(f"node {leaf} is not a leaf of this tree")
        masks, parent, leftmost, after = self._mask, self._parent, self._leftmost, self._next_sibling
        row = [(leaf, leaf)] * len(self.alphabet)
        left, child = masks[self.root] & ~masks[leaf], leaf
        while left:  # the letters no node below `child`'s parent holds
            node = parent[child]
            held = left & masks[node]
            if held:
                move = (node, leftmost[after[child]])
                left ^= held
                while held:
                    low = held & -held
                    row[low.bit_length() - 1] = move
                    held ^= low
            child = node
        return row

    def step(self, leaf: int, letter: str) -> tuple[int, int]:
        """One move of the tree walk: `row`'s (witness node, next leaf) for
        one letter."""
        return self.row(leaf)[self.alphabet.index(letter)]

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

    def split(self, present: int) -> tuple[int, list[int]]:
        """The owner of the deepest node whose label holds `present` (0
        Exist if round, 1 Univ if square), who wins a cycle on exactly those
        colours, attracts to the colours `present & ~label` outside each
        child's label, in child order, each distinct target once: a repeat
        gives the same attractor and subgame.  What is left after one lies
        inside that child, and every subset of `present` that the other
        player wins lies inside some child.  A leaf gives no target, and its
        owner wins."""
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
            text = quoted(repr(self.label(n)))
            lines.append(f"  {self.node_name(n)} [shape={shape}, label={text}];")
        for n, kids in enumerate(self._children):
            for k in kids:
                lines.append(f"  {self.node_name(n)} -> {self.node_name(k)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _larger_first(mask: int) -> tuple[int, int]:
    return -mask.bit_count(), mask


def _subsets(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _flipped_children(
    accepting: frozenset[int], mask: int, accepted: bool, inside: list[int]
) -> dict[int, list[int]]:
    """The maximal non-empty subsets T of label S = `mask` whose F-membership
    differs from S's, `accepted`, each mapped to F_T, from `inside` = F_S,
    all larger first.  For a rejected S the candidates are F_S.  For an
    accepted S, a maximal rejected T is put back in F by every letter of
    S - T, so it is such a rejected A - {a}, A in F_S (the S - {a} if F_S
    is {S}), or, if S has fewer subsets than drops, a rejected subset of S.
    Sets of one size never contain each other, so a candidate is kept, or
    joins the list of each larger kept set holding it: F_T if S is rejected.
    Else F_T is filtered from F_S, or tested among T's subsets where those
    cost less, at about four filtered members a subset."""
    found: dict[int, list[int]] = {}
    width, candidates, larger, size = mask.bit_count(), inside, (), 0
    if accepted and len(inside) == 1:
        rest = mask if width > 1 else 0
        while rest:  # the S - {a}, in increasing order
            top = 1 << rest.bit_length() - 1
            rest ^= top
            found[mask ^ top] = []
        return found
    if accepted:
        if 1 << width <= len(inside) * width:
            candidates = _subsets(mask)
        else:
            bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
            drops = Counter(a ^ b for a in inside for b in bits if a & b and a != b)
            candidates = [t for t, c in drops.items() if c + t.bit_count() == width]
        candidates = sorted([t for t in candidates if t not in accepting], key=_larger_first)
    for a in candidates:
        if a.bit_count() != size:
            larger, size = tuple(found), a.bit_count()
        held = False
        for t in larger:
            if not a & ~t:
                found[t].append(a)
                held = True
        if not held:
            found[a] = [a]
    if not accepted:
        return found
    return {
        t: [a for a in inside if not a & ~t] if 4 << t.bit_count() >= len(inside)
        else sorted([a for a in _subsets(t) if a in accepting], key=_larger_first)
        for t in found
    }


# -- spec-level operation surface -------------------------------------------


def build_zielonka(condition: MullerCondition) -> ZielonkaTree:
    return ZielonkaTree(condition)
