"""Desk-scale succinctness separation between GFG and deterministic Rabin
automata: the half-size conditions, their condition graphs, exact and
greedy chromatic numbers, and the binomial counting bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .conditions import Alphabet, ConditionError, MullerCondition
from .zielonka import build_zielonka

ASYMPTOTIC_NOTE = (
    "asymptotically the deterministic-Rabin lower bound grows at least like "
    "1.116^n (known analysis, not recomputed here)"
)


# The largest n `succinctness_report` takes.  F_n has C(n, n/2) accepting
# sets and its Zielonka tree more nodes still: n = 15 takes seconds, n = 16
# minutes, and n = 40 would not fit in memory.
MAX_REPORT_N = 15


class SearchBudgetError(RuntimeError):
    """An exact search exceeded its node budget."""


def condition_fn(n: int) -> MullerCondition:
    """The Muller condition over {1..n} accepting exactly the half-size sets."""
    if n < 2:
        raise ConditionError("condition_fn needs n >= 2")
    alphabet = Alphabet([str(i) for i in range(1, n + 1)])
    return MullerCondition(
        alphabet, list(itertools.combinations(alphabet.symbols, n // 2))
    )


@dataclass
class ConditionGraph:
    """Undirected graph on all letter subsets: two rejecting sets are
    adjacent exactly when their union is accepting."""

    condition: MullerCondition
    adjacency: dict[int, set[int]] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return 1 << len(self.condition.alphabet)

    def vertices(self) -> range:
        return range(self.n_vertices)

    def non_isolated(self) -> list[int]:
        return sorted(m for m, nbrs in self.adjacency.items() if nbrs)


def build_condition_graph(condition: MullerCondition) -> ConditionGraph:
    """Materialise the condition graph; edges are enumerated per accepting
    set by splitting it into two covering rejecting subsets."""
    n = len(condition.alphabet)
    if n > 20:
        raise ConditionError("alphabet too large to materialise 2^n vertices")
    adjacency: dict[int, set[int]] = {}
    for accepted in condition.masks:
        sub = accepted
        while True:
            c1 = sub
            rest = accepted & ~c1
            if not condition.accepts_mask(c1):
                extra = c1
                while True:
                    c2 = rest | extra
                    if c1 != c2 and not condition.accepts_mask(c2):
                        adjacency.setdefault(c1, set()).add(c2)
                        adjacency.setdefault(c2, set()).add(c1)
                    if extra == 0:
                        break
                    extra = (extra - 1) & c1
            if sub == 0:
                break
            sub = (sub - 1) & accepted
    return ConditionGraph(condition, adjacency)


def _greedy_clique(vertices: list[int], adj: dict[int, set[int]]) -> list[int]:
    clique: list[int] = []
    candidates = sorted(vertices, key=lambda v: (-len(adj[v]), v))
    for v in candidates:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _greedy_colouring(
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


def _exact_chromatic(
    vertices: list[int], adj: dict[int, set[int]], budget: int
) -> tuple[int, dict[int, int]]:
    if not vertices:
        return 1, {}
    clique = _greedy_clique(vertices, adj)
    upper, greedy = _greedy_colouring(vertices, adj)
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


def chromatic_number(graph: ConditionGraph, budget: int = 10**7) -> tuple[int, dict[int, int]]:
    """Chromatic number of the condition graph with a witness colouring,
    vertex -> colour in 1..k.

    Isolated vertices (including the empty set and all accepting sets) are
    skipped by the search and coloured 1 afterwards; they never affect the
    result.  The search is iterative deepening over a clique-seeded
    branch-and-bound and honours `budget`.
    """
    active = graph.non_isolated()
    adj = graph.adjacency
    k, assignment = _exact_chromatic(active, adj, budget)
    full = {v: assignment.get(v, 1) for v in graph.vertices()}
    for v in active:
        for u in adj[v]:
            if full[v] == full[u]:
                raise ConditionError("internal: improper colouring produced")
    return k, full


def clique_lower_bound(graph: ConditionGraph) -> int:
    active = graph.non_isolated()
    if not active:
        return 1
    adj = graph.adjacency
    return max(1, len(_greedy_clique(active, adj)))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class BinomialBound:
    n: int
    k: int
    t: int
    bound: int


def binomial_lower_bound(n: int) -> BinomialBound:
    """The counting bound on the chromatic number of the half-size condition
    graph, via the subgraph of the sets of size floor(3n/10): valid for
    n = 5p with p prime, where no independent set exceeds C(n, n/5 - 1)."""
    if n % 5 != 0 or not _is_prime(n // 5):
        raise ConditionError("binomial bound needs n = 5p with p prime")
    k = (3 * n) // 10
    t = n // 10
    vertices = math.comb(n, k)
    independent = math.comb(n, n // 5 - 1)
    return BinomialBound(n, k, t, -(-vertices // independent))


@dataclass
class SuccinctnessRow:
    n: int
    gfg_size: int
    det_parity_upper: int
    det_rabin_lower: int
    method: str
    binomial: Optional[BinomialBound] = None

    @property
    def ratio(self) -> float:
        return self.det_rabin_lower / self.gfg_size


def succinctness_report(n: int, exact_chi: bool = False, budget: int = 10**7) -> SuccinctnessRow:
    """One separation row for the half-size condition over n letters: the
    GFG Rabin size (memtree), the deterministic parity upper bound (leaf
    count), and the best available deterministic Rabin lower bound.  The
    exact colouring runs for n <= 6, or for every n when `exact_chi` is set."""
    if n < 2:
        raise ConditionError("succinctness report needs n >= 2")
    if n > MAX_REPORT_N:
        raise ConditionError(f"succinctness report needs n <= {MAX_REPORT_N}, not {n}")
    condition = condition_fn(n)
    tree = build_zielonka(condition)
    gfg_size = tree.memtree()
    det_parity_upper = len(tree.leaves())
    graph, binomial, note = None, None, ""
    if exact_chi or n <= 6:
        graph = build_condition_graph(condition)
        try:
            lower, _ = chromatic_number(graph, budget)
            return SuccinctnessRow(n, gfg_size, det_parity_upper, lower, "exact-chi")
        except SearchBudgetError:
            # Report what the default mode proves, and say the search ran out.
            note = " (exact search over budget)"
    if n % 5 == 0 and _is_prime(n // 5):
        binomial = binomial_lower_bound(n)
        lower = binomial.bound
        method = "binomial"
    else:
        lower = clique_lower_bound(graph or build_condition_graph(condition))
        method = "clique bound only"
    return SuccinctnessRow(n, gfg_size, det_parity_upper, lower, method + note, binomial)


def report_to_dict(row: SuccinctnessRow) -> dict:
    doc = {
        "n": row.n,
        "gfg_rabin_size": row.gfg_size,
        "det_parity_upper_bound": row.det_parity_upper,
        "det_rabin_lower_bound": row.det_rabin_lower,
        "lower_bound_method": row.method,
        "lower_over_gfg_ratio": row.ratio,
        "asymptotic_note": ASYMPTOTIC_NOTE,
    }
    if row.binomial is not None:
        doc["binomial"] = {
            "k": row.binomial.k,
            "t": row.binomial.t,
            "bound": row.binomial.bound,
        }
    return doc


def report_to_text(rows: Iterable[SuccinctnessRow]) -> str:
    rows = list(rows)
    header = f"{'n':>3} | {'GFG Rabin':>9} | {'det Rabin >=':>12} | {'det parity <=':>13} | method"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.n:>3} | {row.gfg_size:>9} | {row.det_rabin_lower:>12} | "
            f"{row.det_parity_upper:>13} | {row.method}"
        )
    lines.append(ASYMPTOTIC_NOTE)
    return "\n".join(lines) + "\n"
