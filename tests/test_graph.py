import random

from mullergames._graph import dense_components, reachable, refined_cores
from mullergames.conditions import Alphabet
from mullergames.zielonka import build_zielonka
from conftest import random_muller_condition, strongly_connected_components


def random_graph(rng):
    """At most twelve nodes: some isolated, some with self-loops, sparse or dense."""
    n = rng.randint(0, 12)
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    succ = [[w for w in range(n) if rng.random() < density] for _ in range(n)]
    for row in succ:
        rng.shuffle(row)
    return n, succ


def mutual_reachability(nodes, succ):
    """The components of the nodes reachable from `nodes`: v and w share
    one iff each reaches the other."""
    reach = {v: reachable([v], succ.__getitem__) for v in reachable(nodes, succ.__getitem__)}
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in reach}


def assert_reverse_topological(components, succ):
    position = {v: i for i, comp in enumerate(components) for v in comp}
    for v in position:
        for w in succ[v]:
            if w in position:
                assert position[w] <= position[v]


def test_dense_components_equal_mutual_reachability():
    rng = random.Random(11333)
    for _ in range(2500):
        n, succ = random_graph(rng)
        roots = rng.sample(range(n), rng.randint(0, n))
        components = dense_components(succ.__getitem__, roots, [-1] * n)
        got = [frozenset(c) for c in components]
        assert len(got) == len(set(got))
        assert set(got) == mutual_reachability(roots, succ)
        assert_reverse_topological(components, succ)

        # Nodes whose entry is preset to len(index) are left out.
        left_out = set(rng.sample(range(n), rng.randint(0, n)))
        index = [n if v in left_out else -1 for v in range(n)]
        induced = [[w for w in row if w not in left_out] for row in succ]
        components = dense_components(succ.__getitem__, range(n), index)
        kept = [v for v in range(n) if v not in left_out]
        assert {frozenset(c) for c in components} == mutual_reachability(kept, induced)
        assert index == [n] * n


def test_generic_components_run_the_dense_kernel():
    rng = random.Random(2204)
    for _ in range(2000):
        n, succ = random_graph(rng)
        name = [("node", v) for v in range(n)]
        by_name = {name[v]: [name[w] for w in row] for v, row in enumerate(succ)}
        roots = rng.sample(range(n), rng.randint(0, n))
        # Duplicated roots, and successors only reached through `succ`.
        generic = strongly_connected_components([name[v] for v in roots + roots], by_name.__getitem__)
        expected = mutual_reachability(roots, succ)
        assert {frozenset(v for _, v in comp) for comp in generic} == expected
        assert len(generic) == len(expected)
        assert_reverse_topological([[v for _, v in comp] for comp in generic], succ)


def random_coloured_graph(rng, colours):
    """At most six nodes, each with up to three edges carrying 0-3 of the
    colour bits: some silent, some with more than one bit."""
    n = rng.randint(1, 6)
    out = []
    for _ in range(n):
        row = []
        for _ in range(rng.randint(0, 3)):
            chosen = rng.sample(range(colours), rng.randint(0, min(3, colours)))
            row.append((rng.randrange(n), sum(1 << c for c in chosen)))
        out.append(row)
    return out


def core_masks(out, nodes, allowed, colours):
    """For each mask inside `allowed` under which the inner edges of `nodes`
    that it keeps are at least one and strongly connect them, those edges'
    bits ORed together."""
    found = set()
    for keep in range(1 << colours):
        if keep & ~allowed:
            continue
        edges = [
            (v, w, bits) for v in nodes for w, bits in out[v] if w in nodes and not bits & ~keep
        ]
        succ = {v: [w for u, w, _ in edges if u == v] for v in nodes}
        if edges and all(reachable([v], succ.__getitem__) == nodes for v in nodes):
            mask = 0
            for _, _, bits in edges:
                mask |= bits
            found.add(mask)
    return found


def test_refined_cores_agree_with_subset_scan():
    # Partial roots, multi-bit and silent edges, and refiners that really
    # refine: every yielded set is a core reachable from the roots, and
    # some set is yielded exactly when a scan of node subsets finds a core.
    rng = random.Random(30)
    outcomes = {}
    for case in range(3000):
        colours = rng.randint(1, 4)
        out = random_coloured_graph(rng, colours)
        n = len(out)
        roots = rng.sample(range(n), rng.randint(1, n))
        if case % 2:
            kind, allowed = "zielonka", -1
            split = build_zielonka(random_muller_condition(rng, Alphabet("abcd"[:colours]))).split

            def refine(mask, split=split):
                player, targets = split(mask)
                return None if player else [mask & ~t for t in targets]

        else:
            kind = "rabin pair"
            green, red = rng.sample([1 << c for c in range(colours)] + [0], 2)
            green = green or 1
            red &= ~green
            allowed = ~red
            refine = lambda mask, green=green: None if mask & green else []
        kept = lambda v: [w for w, bits in out[v] if not bits & ~allowed]
        reach = reachable(roots, kept)

        def is_core(nodes):
            return any(refine(mask) is None for mask in core_masks(out, nodes, allowed, colours))

        cores = list(refined_cores(out, refine, roots, allowed))
        for core in cores:
            assert set(core) <= reach and is_core(set(core)), (out, roots, core)
        subsets = [{v for v in range(n) if k >> v & 1} for k in range(1, 1 << n)]
        expected = any(nodes <= reach and is_core(nodes) for nodes in subsets)
        assert bool(cores) == expected, (out, roots, kind)
        outcomes[kind, expected] = outcomes.get((kind, expected), 0) + 1
    for kind in ("zielonka", "rabin pair"):
        assert outcomes[kind, True] >= 200 and outcomes[kind, False] >= 200, outcomes
