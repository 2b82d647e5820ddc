import itertools
import random

import pytest

from mullergames.conditions import Alphabet, ConditionError, MullerCondition, restrict
from mullergames.succinctness import condition_fn
from mullergames import zielonka
from mullergames.zielonka import ZielonkaTree, build_zielonka
from conftest import (
    ReferenceZielonkaTree,
    all_muller_conditions,
    random_muller_condition,
    reference_leaves_below,
    reference_step,
    reference_walk,
    table_oracle_conditions,
)

ALPHA, BETA, GAMMA, DELTA, EPS, ZETA = range(6)


def condition_fn4():
    alphabet = Alphabet(["1", "2", "3", "4"])
    return MullerCondition(
        alphabet,
        [pair for pair in itertools.combinations(alphabet.symbols, 2)],
    )


def brute_memtree(tree, n=None):
    n = tree.root if n is None else n
    kids = tree.children(n)
    if not kids:
        return 1
    parts = [brute_memtree(tree, k) for k in kids]
    return sum(parts) if tree.is_round(n) else max(parts)


def check_star_property(tree, eta):
    for n in range(len(tree)):
        if not tree.is_round(n):
            continue
        kids = tree.children(n)
        for c1, c2 in itertools.combinations(kids, 2):
            for l1 in reference_leaves_below(tree, c1):
                for l2 in reference_leaves_below(tree, c2):
                    assert eta[l1] != eta[l2]


def test_running_example_tree_shape(running_tree):
    t = running_tree
    assert len(t) == 6
    assert t.label(ALPHA).names() == ("a", "b", "c") and not t.is_round(ALPHA)
    assert t.label(BETA).names() == ("a", "b") and t.is_round(BETA)
    assert t.label(GAMMA).names() == ("a", "c") and t.is_round(GAMMA)
    assert t.label(DELTA).names() == ("a",) and not t.is_round(DELTA)
    assert t.label(EPS).names() == ("a",) and not t.is_round(EPS)
    assert t.label(ZETA).names() == ("c",) and not t.is_round(ZETA)
    assert t.children(ALPHA) == (BETA, GAMMA)
    assert t.children(BETA) == (DELTA,)
    assert t.children(GAMMA) == (EPS, ZETA)
    assert t.leaves() == (DELTA, EPS, ZETA)


def test_singleton_accepting_tree():
    cond = MullerCondition(Alphabet("a"), [["a"]])
    t = build_zielonka(cond)
    assert len(t) == 1 and t.is_round(t.root) and t.is_leaf(t.root)


def test_fn4_tree_shape():
    t = build_zielonka(condition_fn4())
    assert len(t) == 19
    assert not t.is_round(t.root)
    round_children = t.children(t.root)
    assert len(round_children) == 6
    for n in round_children:
        assert t.is_round(n) and len(t.label(n)) == 2
        kids = t.children(n)
        assert len(kids) == 2
        for leaf in kids:
            assert t.is_leaf(leaf) and len(t.label(leaf)) == 1


def test_memtree_examples(running_tree):
    assert running_tree.memtree() == 2
    single = build_zielonka(MullerCondition(Alphabet("a"), [["a"]]))
    assert single.memtree() == 1
    assert build_zielonka(condition_fn4()).memtree() == 2


def test_next_child_examples(running_tree):
    assert running_tree.next_child(ALPHA, BETA) == GAMMA
    assert running_tree.next_child(ALPHA, GAMMA) == BETA
    assert running_tree.next_child(BETA, DELTA) == DELTA
    with pytest.raises(ConditionError):
        running_tree.next_child(ALPHA, DELTA)


def test_jump_examples(running_condition):
    tree = ReferenceZielonkaTree(running_condition)
    assert tree.jump(ALPHA, DELTA) == (frozenset({EPS, ZETA}), EPS)
    assert tree.jump(GAMMA, ZETA) == (frozenset({EPS}), EPS)
    assert tree.jump(DELTA, DELTA) == (frozenset({DELTA}), DELTA)
    with pytest.raises(ConditionError):
        tree.jump(BETA, ZETA)


def test_eta_running_example(running_tree):
    assert running_tree.eta() == {DELTA: 1, EPS: 1, ZETA: 2}


def test_eta_single_leaf():
    t = build_zielonka(MullerCondition(Alphabet("a"), [["a"]]))
    assert t.eta() == {t.root: 1}


def test_eta_fn4_satisfies_star():
    t = build_zielonka(condition_fn4())
    eta = t.eta()
    assert set(eta.values()) == {1, 2}
    for n in t.children(t.root):
        assert sorted(eta[leaf] for leaf in t.children(n)) == [1, 2]
    check_star_property(t, eta)


def test_random_trees_structure_and_eta():
    rng = random.Random(23)
    alphabets = [Alphabet("ab"), Alphabet("abc"), Alphabet("abcd"), Alphabet("abcde")]
    for _ in range(120):
        cond = random_muller_condition(rng, rng.choice(alphabets))
        t = build_zielonka(cond)
        assert t.label(t.root) == cond.alphabet.full()
        for n in range(len(t)):
            assert t.is_round(n) == cond.accepts_mask(t.label(n).mask)
            kids = t.children(n)
            for k in kids:
                assert t.is_round(k) != t.is_round(n)
                assert t.label(k).mask & ~t.label(n).mask == 0
                assert t.label(k).mask != t.label(n).mask
            for k1, k2 in itertools.combinations(kids, 2):
                m1, m2 = t.label(k1).mask, t.label(k2).mask
                assert m1 & ~m2 and m2 & ~m1
        assert t.memtree() == brute_memtree(t)
        eta = t.eta()
        assert set(eta.values()) == set(range(1, t.memtree() + 1))
        assert eta[t.leftmost_leaf(t.root)] == 1
        check_star_property(t, eta)


def test_subtrees_are_restriction_trees(running_tree, running_condition):
    # The subtree below gamma is the Zielonka tree of F restricted to {a,c}.
    sub = build_zielonka(restrict(running_condition, ["a", "c"]))
    assert len(sub) == 3
    assert sub.label(sub.root).names() == ("a", "c")
    assert [sub.label(k).names() for k in sub.children(sub.root)] == [("a",), ("c",)]


def test_fn_tree_shape_formulas():
    # F_n's root is rejected, with F_n's C(n, k) members as round children;
    # each k-set's k children are its rejected (k-1)-subsets, which are
    # leaves.  For n = 2 and 3 the round singletons are the leaves.
    import math

    for n in range(2, 15):
        k = n // 2
        t = build_zielonka(condition_fn(n))
        labels = {t.mask(v) for v in range(len(t))}
        if n < 4:
            assert (len(t), len(labels), len(t.leaves())) == (1 + n, 1 + n, n)
        else:
            assert len(t) == 1 + math.comb(n, k) * (1 + k)
            assert len(labels) == 1 + math.comb(n, k) + math.comb(n, k - 1)
            assert len(t.leaves()) == k * math.comb(n, k)
        assert t.memtree() == k


def test_size_and_memtree_independent_of_child_order():
    rng = random.Random(5)
    alphabets = [Alphabet("abc"), Alphabet("abcd")]
    for _ in range(40):
        cond = random_muller_condition(rng, rng.choice(alphabets))
        base = build_zielonka(cond)

        def reverse_order(masks):
            return sorted(masks, reverse=True)

        def shuffled(masks, rng=rng):
            masks = list(masks)
            rng.shuffle(masks)
            return masks

        for order in (reverse_order, shuffled):
            other = ReferenceZielonkaTree(cond, child_order=order)
            assert len(other) == len(base)
            assert other.memtree() == base.memtree()


def test_dot_export_is_stable(running_tree):
    dot = running_tree.to_dot()
    assert dot == running_tree.to_dot()
    assert 'n0 [shape=box, label="{a,b,c}"]' in dot
    assert 'n1 [shape=ellipse, label="{a,b}"]' in dot
    assert dot.index("n0 -> n1") < dot.index("n0 -> n2")


def test_step_table_matches_parent_pointer_walk():
    for cond in table_oracle_conditions():
        tree = build_zielonka(cond)
        assert tree.leaves() == reference_leaves_below(tree, tree.root)
        walked = list(reference_walk(tree))
        assert tuple(leaf for leaf, _ in walked) == tree.leaves()
        for leaf, row in walked:
            for letter, move in zip(cond.alphabet.symbols, row, strict=True):
                assert move == tree.step(leaf, letter) == reference_step(tree, leaf, letter)


def test_builders_leave_the_tree_as_built():
    # The tree keeps no row table: each builder climbs the leaves it
    # reads, and the resolver is an automaton of its own.
    from mullergames.construction import (
        build_gfg_rabin,
        build_parity_automaton,
        provenance_document,
    )

    tree = build_zielonka(condition_fn(6))
    before = set(vars(tree))
    gfg = build_gfg_rabin(tree)
    build_parity_automaton(tree)
    provenance_document(gfg)
    assert set(vars(tree)) == before
    gfg.resolver
    assert set(vars(tree)) == before


def test_leaf_tables_match_recursive_descent():
    for cond in table_oracle_conditions():
        tree = build_zielonka(cond)
        for n in range(len(tree)):
            assert tree.leftmost_leaf(n) == reference_leaves_below(tree, n)[0]
            parent = tree.parent(n)
            if parent is not None:
                kids = tree.children(parent)
                expected = kids[(kids.index(n) + 1) % len(kids)]
                assert tree.next_child(parent, n) == expected


def test_step_rejects_inner_nodes_and_foreign_letters(running_tree):
    assert running_tree.step(DELTA, "c") == (ALPHA, EPS)
    with pytest.raises(ConditionError):
        running_tree.step(GAMMA, "a")
    with pytest.raises(ConditionError):
        running_tree.step(DELTA, "z")


def reference_oracle_conditions():
    """F_2..F_10, the running example, and 300 seeded random conditions over
    at most seven letters."""
    from mullergames.succinctness import condition_fn

    for n in range(2, 11):
        yield condition_fn(n)
    yield MullerCondition(Alphabet("abc"), [["a", "b"], ["a", "c"], ["b"]])
    rng = random.Random(1998)
    for _ in range(300):
        yield random_muller_condition(rng, Alphabet("abcdefg"[: rng.randint(1, 7)]))


def build_in_order(cond, order):
    """`build_zielonka(cond)` with each label's children put in `order`
    (sorted when None).  The builder has no order option: it sorts the
    children with its one `sorted` call that takes no key, which this
    replaces, so its ids, walk tables and eta are checked under other
    sibling orders too."""
    if order is None:
        return build_zielonka(cond)

    def ordered(items, key=None):
        return sorted(items, key=key) if key else order(list(items))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zielonka, "sorted", ordered, raising=False)
        return build_zielonka(cond)


def test_integer_tree_matches_the_record_tree():
    for cond in reference_oracle_conditions():
        for order in (None, lambda ms: sorted(ms, reverse=True)):
            tree, ref = build_in_order(cond, order), ReferenceZielonkaTree(cond, order)
            assert len(tree) == len(ref)
            for n in range(len(ref)):
                assert tree.label(n) == ref.label(n)  # alphabet and mask
                assert tree.mask(n) == ref.label(n).mask
                assert tree.is_round(n) == ref.is_round(n)
                assert tree.parent(n) == ref.parent(n)
                assert tree.children(n) == ref.children(n)
                assert tree.depth(n) == ref.depth(n)
                assert tree.memtree(n) == ref.memtree(n)
                assert tree.leftmost_leaf(n) == ref.leftmost_leaf(n)
                if ref.parent(n) is not None:
                    assert tree.next_child(ref.parent(n), n) == ref.next_child(ref.parent(n), n)
            assert tree.height == ref.height
            assert tree.leaves() == ref.leaves()
            assert list(tree.eta().items()) == list(ref.eta().items())
            assert {leaf: tuple(tree.row(leaf)) for leaf in tree.leaves()} == ref.step_table
            assert tree.to_dot() == ref.to_dot()


def assert_same_tree(tree, ref):
    """Every node field of `tree` equals that of the record-based `ref`."""
    assert len(tree) == len(ref)
    for n in range(len(ref)):
        assert tree.label(n) == ref.label(n)
        assert tree.mask(n) == ref.label(n).mask
        assert tree.is_round(n) == ref.is_round(n)
        assert tree.parent(n) == ref.parent(n)
        assert tree.children(n) == ref.children(n)
        assert tree.depth(n) == ref.depth(n)
        assert tree.memtree(n) == ref.memtree(n)
        assert tree.leftmost_leaf(n) == ref.leftmost_leaf(n)
        if ref.parent(n) is not None:
            assert tree.next_child(ref.parent(n), n) == ref.next_child(ref.parent(n), n)
    assert tree.height == ref.height
    assert tree.leaves() == ref.leaves()
    assert list(tree.eta().items()) == list(ref.eta().items())
    assert {leaf: tuple(tree.row(leaf)) for leaf in tree.leaves()} == ref.step_table
    assert tree.to_dot() == ref.to_dot()


def density_oracle_conditions():
    """Seeded random conditions over 1-8 letters at densities 0.05, 0.2, 0.8
    and 0.95, each also with the full set added, F = {} and F = {full} over
    every alphabet, then F_11 and F_12."""
    from mullergames.succinctness import condition_fn

    rng = random.Random(2005)
    for letters in range(1, 9):
        alphabet, full = Alphabet("abcdefgh"[:letters]), (1 << letters) - 1
        yield MullerCondition(alphabet, [])
        yield MullerCondition(alphabet, [full])
        for density in (0.05, 0.2, 0.8, 0.95):
            for _ in range(3):
                masks = {m for m in range(1, full + 1) if rng.random() < density}
                yield MullerCondition(alphabet, sorted(masks))
                yield MullerCondition(alphabet, sorted(masks | {full}))
    yield condition_fn(11)
    yield condition_fn(12)


@pytest.mark.parametrize(
    "order",
    [None, lambda ks: ks.sort(reverse=True) or ks, lambda ks: ks.reverse() or ks],
    ids=["sorted", "sorted-in-place-reversed", "reversed-in-place"],
)
def test_integer_tree_matches_the_record_tree_at_other_densities(order):
    # An order that changes its argument in place must not reach the
    # children that the builder keeps for a label seen again; reversing in
    # place would show it, as a second reversal undoes the first.
    for cond in density_oracle_conditions():
        assert_same_tree(build_in_order(cond, order), ReferenceZielonkaTree(cond, order))


def test_mixed_sizes_under_a_rejected_label():
    # F_6..F_10 with one extra set of size k - 1 or k + 1: the root's members
    # have two sizes, so a child's F_T is not itself alone, and a smaller
    # member falls into the F_T of every larger child that holds it.
    for n in range(6, 11):
        base, k = condition_fn(n), n // 2
        for extra in ((1 << k - 1) - 1, (1 << k + 1) - 1):
            cond = MullerCondition(base.alphabet, sorted(base.masks | {extra}))
            for order in (None, lambda ms: sorted(ms, reverse=True)):
                assert_same_tree(build_in_order(cond, order), ReferenceZielonkaTree(cond, order))


def test_tree_meets_its_definition_on_24_letter_conditions():
    # No subset scan can run over 24 letters, so each node is checked
    # against F directly: the children flip membership, form an antichain,
    # and hold every maximal flipped subset, each of which is a member of
    # F_S below a square node and some rejected S - {a} or A - {a} below a
    # round one.
    rng = random.Random(24)
    alphabet = Alphabet([f"x{i}" for i in range(24)])
    for _ in range(5):
        accepting = set()
        while len(accepting) < 30:
            accepting.add(rng.randrange(1, 1 << 24))
        tree = build_zielonka(MullerCondition(alphabet, sorted(accepting)))
        assert tree.mask(tree.root) == (1 << 24) - 1
        for n in range(len(tree)):
            label, kids = tree.mask(n), [tree.mask(k) for k in tree.children(n)]
            assert tree.is_round(n) == (label in accepting)
            for k in kids:
                assert k and not k & ~label and k != label
                assert (k in accepting) != tree.is_round(n)
            for a, b in itertools.permutations(kids, 2):
                assert a & ~b
            inside = [a for a in accepting | {label} if not a & ~label]
            if tree.is_round(n):
                drops = {a & ~(1 << i) for a in inside for i in range(24) if a >> i & 1}
                must = [t for t in drops if t and t not in accepting]
            else:
                must = [a for a in inside if a != label]
            for t in must:
                assert any(not t & ~k for k in kids), (n, t)


def test_eta_returns_a_new_dict_on_each_call(running_condition):
    from mullergames.construction import build_gfg_rabin

    tree = build_zielonka(running_condition)
    gfg = build_gfg_rabin(tree)
    first = tree.eta()
    assert first is not tree.eta()
    first.clear()
    assert tree.eta() == {DELTA: 1, EPS: 1, ZETA: 2}
    assert gfg.eta == {DELTA: 1, EPS: 1, ZETA: 2}
