"""Desk-scale succinctness separation between GFG and deterministic Rabin
automata: the half-size conditions, their condition graphs as one neighbour
bitset per letter subset, exact and greedy chromatic numbers over those
bitsets, and the binomial counting bound."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


def build_condition_graph(condition: MullerCondition) -> list[int]:
    """The condition graph on all letter subsets as neighbour bitsets: bit u
    of entry m is set when m and u are rejecting with an accepting union.
    Each edge splits an accepting set into two covering rejecting subsets,
    and is met once from each end and recorded there."""
    n = len(condition.alphabet)
    if n > 20:
        raise ConditionError("alphabet too large to materialise 2^n vertices")
    adjacency = [0] * (1 << n)
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
                        adjacency[c1] |= 1 << c2
                    if extra == 0:
                        break
                    extra = (extra - 1) & c1
            if sub == 0:
                break
            sub = (sub - 1) & accepted
    return adjacency


def _by_degree(vertices: list[int], adj: list[int]) -> list[int]:
    return sorted(vertices, key=lambda v: (-adj[v].bit_count(), v))


def _colours(classes: list[int], vertices: list[int]) -> dict[int, int]:
    # classes[c] is the bitset of the vertices coloured c + 1.
    return {v: c + 1 for c, members in enumerate(classes) for v in vertices if members >> v & 1}


def _greedy_clique(vertices: list[int], adj: list[int]) -> list[int]:
    clique: list[int] = []
    common = -1  # the vertices adjacent to every clique member
    for v in _by_degree(vertices, adj):
        if common >> v & 1:
            clique.append(v)
            common &= adj[v]
    return clique


def _greedy_colouring(vertices: list[int], adj: list[int]) -> tuple[int, dict[int, int]]:
    classes: list[int] = []
    for v in _by_degree(vertices, adj):
        c = next((c for c, members in enumerate(classes) if not members & adj[v]), len(classes))
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
    return max(1, len(classes)), _colours(classes, vertices)


def _exact_chromatic(
    vertices: list[int], adj: list[int], budget: int
) -> tuple[int, dict[int, int]]:
    clique = _greedy_clique(vertices, adj)
    upper, greedy = _greedy_colouring(vertices, adj)
    order = clique + [v for v in _by_degree(vertices, adj) if v not in clique]
    visited = [0]

    def assign(i: int, k: int) -> bool:
        visited[0] += 1
        if visited[0] > budget:
            raise SearchBudgetError(f"exact colouring exceeded {budget} nodes")
        if i == len(order):
            return True
        v = order[i]
        # Colours 1..len(classes) are in use; at most one new one opens.
        for c in range(min(k, len(classes) + 1)):
            if c == len(classes):
                classes.append(0)
            elif classes[c] & adj[v]:
                continue
            classes[c] |= 1 << v
            if assign(i + 1, k):
                return True
            classes[c] ^= 1 << v
            if not classes[c]:
                classes.pop()
        return False

    for k in range(max(1, len(clique)), upper):
        # The clique forces pairwise-distinct colours 1..|clique|.
        classes = [1 << v for v in clique]
        if assign(len(clique), k):
            return k, _colours(classes, vertices)
    return upper, greedy


def chromatic_number(adjacency: list[int], budget: int = 10**7) -> tuple[int, dict[int, int]]:
    """Chromatic number of the condition graph, given as neighbour bitsets,
    with a witness colouring, vertex -> colour in 1..k.  The search skips the
    isolated vertices (the empty set and all accepting sets among them) and
    colours them 1.  It is iterative deepening over a clique-seeded
    branch-and-bound, and honours `budget`."""
    active = [v for v, nbrs in enumerate(adjacency) if nbrs]
    k, assignment = _exact_chromatic(active, adjacency, budget)
    full = {v: assignment.get(v, 1) for v in range(len(adjacency))}
    classes: dict[int, int] = {}
    for v in active:
        classes[full[v]] = classes.get(full[v], 0) | 1 << v
    if any(adjacency[v] & classes[full[v]] for v in active):
        raise ConditionError("internal: improper colouring produced")
    return k, full


def clique_lower_bound(adjacency: list[int]) -> int:
    """Size of a greedy clique of the bitset graph: a lower bound on its chromatic number."""
    active = [v for v, nbrs in enumerate(adjacency) if nbrs]
    return max(1, len(_greedy_clique(active, adjacency)))


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
