"""Small graph helpers shared across modules: reachability, Tarjan SCCs
on dense node ids, and `refined_cores`, the one cycle search that the
games' certificates and the Rabin lasso checker share."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)
_target = itemgetter(0)  # of a (target, colour bits) edge


def reachable(starts: Iterable[N], succ: Callable[[N], Iterable[N]]) -> set[N]:
    seen = set(starts)
    stack = list(seen)
    while stack:
        node = stack.pop()
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def dense_components(
    succ: Callable[[int], Iterable[int]], roots: Iterable[int], index: list[int]
) -> list[list[int]]:
    """Tarjan's algorithm on node ids, iterative; the components reachable
    from `roots`, in reverse topological order.

    `succ(v)` is called once for each node the search enters, and
    `index[v]` is -1 for a node not yet visited.  The search numbers the
    nodes it visits, and sets a node's entry to `len(index)` once its
    component is out, so a finished node never lowers a link and is never
    entered again: a caller may pre-set a node's entry to `len(index)` to
    leave it out of the graph.
    """
    done = len(index)
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = counter
        counter += 1
        stack.append(root)
        # A frame is (node, its successor iterator, its stack height), and
        # `lows` holds the frames' low links.
        work = [(root, iter(succ(root)), 0)]
        lows = [index[root]]
        while work:
            node, it, height = work[-1]
            low = lows[-1]
            for nxt in it:
                seen = index[nxt]
                if seen < 0:
                    lows[-1] = low
                    index[nxt] = counter
                    work.append((nxt, iter(succ(nxt)), len(stack)))
                    lows.append(counter)
                    counter += 1
                    stack.append(nxt)
                    break
                if seen < low:
                    low = seen
            else:
                work.pop()
                lows.pop()
                if low == index[node]:
                    component = stack[height:]
                    del stack[height:]
                    component.reverse()
                    for member in component:
                        index[member] = done
                    out.append(component)
                elif low < lows[-1]:
                    lows[-1] = low
    return out


def refined_cores(
    out: Sequence[Sequence[tuple[int, int]]],
    refine: Callable[[int], Optional[Iterable[int]]],
    roots: Sequence[int],
    allowed: int = -1,
) -> Iterator[list[int]]:
    """The strongly connected sets reachable from `roots` whose colour masks
    `refine` answers with None.  `out[v]` lists v's (w, colour bits) edges,
    bits 0 for a silent one; a mask keeps the edges whose bits it holds,
    starting from `allowed`.  A component's mask is the OR of its inner
    edges, which a play can all take forever; otherwise `refine` returns
    masks, each holding a proper subset of it, to search the component under.
    """
    # Narrower masks keep fewer edges, so no search reaches a node the one
    # before left unvisited; `index` keeps each finished node at len(out).
    index = [-1] * len(out)
    component = [0] * len(out)
    found = 0
    work = [(roots, allowed)]
    while work:
        members, allowed = work.pop()
        blocked = ~allowed
        for v in members:
            index[v] = -1
        if allowed == -1:  # nothing blocked: every edge, unfiltered
            succ = lambda v: map(_target, out[v])
        else:
            succ = lambda v: [w for w, bits in out[v] if not bits & blocked]
        for comp in dense_components(succ, members, index):
            found += 1
            for v in comp:
                component[v] = found
            inner = False
            mask = 0
            for v in comp:
                for w, bits in out[v]:
                    if component[w] == found and not bits & blocked:
                        inner = True
                        mask |= bits
            parts = refine(mask) if inner else ()
            if parts is None:
                yield comp
            else:
                for part in parts:
                    work.append((comp, part & mask))
