import random

from mullergames._graph import dense_components, reachable
from conftest import strongly_connected_components


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
