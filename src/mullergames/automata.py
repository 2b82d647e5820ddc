"""Transition-based omega-automata over output colours.

Acceptance (Muller, Rabin, or parity) is evaluated on the colours that a
run produces infinitely often.  Lasso words give finite witnesses for
membership.  The lasso checkers compute verdicts per (state after prefix,
period): each period is analysed once for every state and each prefix is
run once, so sweeping many lassos shares both.  Duplicated edges can be
merged without changing the language.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from ._graph import reachable, strongly_connected_components
from .conditions import (
    Alphabet,
    AnyCondition,
    ConditionError,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)

State = Hashable


class AutomatonError(ValueError):
    """Malformed automaton or unsupported operation for its acceptance type."""


@dataclass(frozen=True)
class Transition:
    src: State
    letter: str
    colour: str
    dst: State


def condition_colours(acceptance: AnyCondition) -> Alphabet:
    if isinstance(acceptance, MullerCondition):
        return acceptance.alphabet
    return acceptance.colours


def accepts_colour_set(acceptance: AnyCondition, colours: Iterable[str]) -> bool:
    alphabet = condition_colours(acceptance)
    return acceptance.accepts_mask(alphabet.letters(colours).mask)


class Automaton:
    """A non-deterministic automaton with colours on transitions."""

    def __init__(
        self,
        states: Sequence[State],
        alphabet: Alphabet,
        initial: Iterable[State],
        transitions: Iterable[Transition | tuple],
        acceptance: AnyCondition,
    ):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError("duplicate states")
        self.alphabet = alphabet
        self.acceptance = acceptance
        self.initial = tuple(initial)
        if not self.initial:
            raise AutomatonError("at least one initial state is required")
        known = set(self.states)
        for q in self.initial:
            if q not in known:
                raise AutomatonError(f"initial state {q!r} not among the states")
        colours = condition_colours(acceptance)
        seen: set[Transition] = set()
        ordered: list[Transition] = []
        for t in transitions:
            t = t if isinstance(t, Transition) else Transition(*t)
            if t.src not in known or t.dst not in known:
                raise AutomatonError(f"transition {t} uses an unknown state")
            if t.letter not in alphabet:
                raise AutomatonError(f"transition letter {t.letter!r} not in input alphabet")
            if t.colour not in colours:
                raise AutomatonError(f"transition colour {t.colour!r} not in output alphabet")
            if t not in seen:
                seen.add(t)
                ordered.append(t)
        self.transitions = tuple(ordered)
        self._by_source: dict[tuple[State, str], list[Transition]] = {}
        for t in self.transitions:
            self._by_source.setdefault((t.src, t.letter), []).append(t)
        # Single initial state and exactly one transition per (state, letter):
        # every key above is a valid pair, so the three counts agree exactly
        # when each pair has one transition.
        self.is_deterministic = len(self.initial) == 1 and (
            len(self.transitions) == len(self._by_source) == len(self.states) * len(alphabet)
        )

    def transitions_from(self, state: State, letter: str) -> tuple[Transition, ...]:
        return tuple(self._by_source.get((state, letter), ()))

    @property
    def colour_alphabet(self) -> Alphabet:
        return condition_colours(self.acceptance)

    def state_index(self, state: State) -> int:
        return self.states.index(state)

    def __repr__(self) -> str:
        kind = type(self.acceptance).__name__.replace("Condition", "")
        return (
            f"Automaton({len(self.states)} states, {len(self.transitions)} transitions, "
            f"{kind} acceptance)"
        )


@dataclass(frozen=True)
class Run:
    """A finite presentation of an ultimately periodic run."""

    prefix: tuple[Transition, ...]
    cycle: tuple[Transition, ...]

    def cycle_colours(self) -> frozenset[str]:
        return frozenset(t.colour for t in self.cycle)


def run_deterministic(automaton: Automaton, w: LassoWord) -> tuple[Run, bool]:
    """The unique run of a deterministic complete automaton on u v^omega,
    and whether the colours of its eventual cycle satisfy the acceptance."""
    if not automaton.is_deterministic:
        raise AutomatonError("run_deterministic needs a deterministic, complete automaton")
    moves = automaton._by_source
    state = automaton.initial[0]
    steps: list[Transition] = []

    def advance(letter: str) -> None:
        nonlocal state
        t = moves[(state, letter)][0]
        steps.append(t)
        state = t.dst

    for letter in w.prefix:
        advance(letter)
    # Iterate whole periods until the state at the period boundary repeats;
    # the transitions between the two occurrences form the eventual cycle.
    seen: dict[State, int] = {}
    while state not in seen:
        seen[state] = len(steps)
        for letter in w.period:
            advance(letter)
    start = seen[state]
    run = Run(tuple(steps[:start]), tuple(steps[start:]))
    accepted = accepts_colour_set(automaton.acceptance, run.cycle_colours())
    return run, accepted


class DeterministicLassoChecker:
    """Membership oracle for a deterministic complete automaton on lasso words.

    Works on integer tables: `table[s][a]` is the (colour bit, next state
    index) of state index s on letter index a, and a colour bit is
    `1 << i` for colour i of `acceptance`.  The verdict on u v^omega
    depends only on the state after u and on v, so verdicts are computed
    per (state after prefix, period).  For each new period one pass over
    all states gives each start state's end state and the colours it saw;
    following that functional graph of end states to its cycle, every start
    state gets the cycle's verdict through `acceptance.accepts_mask`.
    Period verdicts and prefix states are memoised.
    """

    def __init__(
        self,
        table: Sequence[Sequence[tuple[int, int]]],
        initial: int,
        alphabet: Alphabet,
        acceptance: AnyCondition,
    ):
        letters = range(len(alphabet))
        self._colour = [[row[a][0] for row in table] for a in letters]
        self._next = [[row[a][1] for row in table] for a in letters]
        self._size = len(table)
        self._letter = {symbol: a for a, symbol in enumerate(alphabet.symbols)}
        self._accepts_mask = acceptance.accepts_mask
        self._period_memo: dict[tuple[str, ...], list[bool]] = {}
        self._prefix_memo: dict[tuple[str, ...], int] = {(): initial}

    @classmethod
    def from_automaton(cls, automaton: Automaton) -> "DeterministicLassoChecker":
        if not automaton.is_deterministic:
            raise AutomatonError("lasso checker needs a deterministic, complete automaton")
        index = {q: i for i, q in enumerate(automaton.states)}
        colour = automaton.colour_alphabet.index
        moves = automaton._by_source
        table = [
            [
                (1 << colour(t.colour), index[t.dst])
                for t in (moves[(q, a)][0] for a in automaton.alphabet.symbols)
            ]
            for q in automaton.states
        ]
        return cls(table, index[automaton.initial[0]], automaton.alphabet, automaton.acceptance)

    def accepts(self, w: LassoWord) -> bool:
        return self._verdicts(w.period)[self._state_after(w.prefix)]

    def _state_after(self, prefix: tuple[str, ...]) -> int:
        state = self._prefix_memo.get(prefix)
        if state is None:
            state = self._next[self._letter[prefix[-1]]][self._state_after(prefix[:-1])]
            self._prefix_memo[prefix] = state
        return state

    def _verdicts(self, period: tuple[str, ...]) -> list[bool]:
        verdict = self._period_memo.get(period)
        if verdict is not None:
            return verdict
        size = self._size
        end = list(range(size))
        seen = [0] * size
        for symbol in period:
            a = self._letter[symbol]
            colour, nxt = self._colour[a], self._next[a]
            seen = [m | colour[s] for m, s in zip(seen, end)]
            end = [nxt[s] for s in end]
        # Period after period, a run from s visits s, end[s], end[end[s]],
        # ...; the colours of the cycle it runs into recur forever.
        verdict = [None] * size
        walk = [-1] * size  # the start whose walk visited each state
        for start in range(size):
            if verdict[start] is not None:
                continue
            path = []
            s = start
            while verdict[s] is None and walk[s] != start:
                walk[s] = start
                path.append(s)
                s = end[s]
            if verdict[s] is None:  # s is on this walk: a new cycle
                mask = 0
                for q in path[path.index(s):]:
                    mask |= seen[q]
                outcome = self._accepts_mask(mask)
            else:
                outcome = verdict[s]
            for q in path:
                verdict[q] = outcome
        self._period_memo[period] = verdict
        return verdict


class RabinLassoChecker:
    """Nondeterministic membership oracle for Rabin automata on lasso words.

    Searches the product of states with the lasso phase for a reachable
    cycle avoiding some pair's red colours while using one of its greens.
    Period analyses are memoised, so sweeping many lassos against one
    automaton stays cheap.
    """

    def __init__(self, automaton: Automaton):
        if not isinstance(automaton.acceptance, RabinCondition):
            raise AutomatonError("lasso membership oracle expects Rabin acceptance")
        self.automaton = automaton
        colours = automaton.colour_alphabet
        self._bit = {c: 1 << i for i, c in enumerate(colours.symbols)}
        self._pairs = [(g.mask, r.mask) for g, r in automaton.acceptance.pairs]
        self._state_index = {q: i for i, q in enumerate(automaton.states)}
        self._period_memo: dict[tuple[str, ...], dict[State, bool]] = {}
        self._prefix_memo: dict[tuple[str, ...], frozenset[State]] = {}

    def accepts(self, w: LassoWord) -> bool:
        reach = self._reach_after(w.prefix)
        if not reach:
            return False
        good_from = self._analyse_period(w.period)
        return any(good_from.get(q, False) for q in reach)

    def _reach_after(self, prefix: tuple[str, ...]) -> frozenset[State]:
        if prefix in self._prefix_memo:
            return self._prefix_memo[prefix]
        if not prefix:
            out = frozenset(self.automaton.initial)
        else:
            before = self._reach_after(prefix[:-1])
            out = frozenset(
                t.dst
                for q in before
                for t in self.automaton.transitions_from(q, prefix[-1])
            )
        self._prefix_memo[prefix] = out
        return out

    def _analyse_period(self, period: tuple[str, ...]) -> dict[State, bool]:
        if period in self._period_memo:
            return self._period_memo[period]
        aut = self.automaton
        length = len(period)
        index, bit = self._state_index, self._bit
        # Node s * length + i is state number s at phase i of the period;
        # each edge carries its colour's bit.
        edges: list[list[tuple[int, int]]] = []
        for q in aut.states:
            for i, letter in enumerate(period):
                phase = (i + 1) % length
                edges.append(
                    [
                        (index[t.dst] * length + phase, bit[t.colour])
                        for t in aut._by_source.get((q, letter), ())
                    ]
                )
        present = 0
        for out in edges:
            for _, b in out:
                present |= b
        winning_nodes: set[int] = set()
        for green, red in self._pairs:
            if not green & present:
                continue
            safe = [[dst for dst, b in out if not b & red] for out in edges]
            # Only a component holding a green edge wins, and the search
            # from that edge's source finds it.
            sources = [n for n, out in enumerate(edges) if any(b & green for _, b in out)]
            for component in strongly_connected_components(sources, safe.__getitem__):
                members = set(component)
                has_green_inside = any(
                    dst in members and b & green
                    for node in component
                    for dst, b in edges[node]
                    if not b & red
                )
                if has_green_inside:
                    winning_nodes.update(members)
        # A lasso from q is accepted iff some winning cycle is reachable
        # from (q, 0) in the full period graph.
        preds: list[list[int]] = [[] for _ in edges]
        for node, out in enumerate(edges):
            for dst, _ in out:
                preds[dst].append(node)
        good = reachable(winning_nodes, preds.__getitem__)
        result = {q: s * length in good for s, q in enumerate(aut.states)}
        self._period_memo[period] = result
        return result


def accepts_lasso(automaton: Automaton, w: LassoWord) -> bool:
    """True iff some run of the Rabin automaton over u v^omega is accepting."""
    return RabinLassoChecker(automaton).accepts(w)


def has_duplicated_edges(automaton: Automaton) -> bool:
    """True iff two transitions share source, input letter, and target."""
    seen = set()
    for t in automaton.transitions:
        key = (t.src, t.letter, t.dst)
        if key in seen:
            return True
        seen.add(key)
    return False


def _merge_bundles(automaton: Automaton) -> list[tuple[State, str, State, tuple[str, ...]]]:
    """Group parallel transitions; bundles keep the output-colour order."""
    colour_idx = {c: i for i, c in enumerate(automaton.colour_alphabet.symbols)}
    groups: dict[tuple[State, str, State], list[str]] = {}
    for t in automaton.transitions:
        groups.setdefault((t.src, t.letter, t.dst), []).append(t.colour)
    state_idx = {q: i for i, q in enumerate(automaton.states)}
    letter_idx = {a: i for i, a in enumerate(automaton.alphabet.symbols)}
    out = []
    for (src, letter, dst), colours in groups.items():
        bundle = tuple(sorted(set(colours), key=colour_idx.__getitem__))
        out.append((src, letter, dst, bundle))
    out.sort(key=lambda g: (state_idx[g[0]], letter_idx[g[1]], state_idx[g[2]]))
    return out


def _bundle_names(
    automaton: Automaton, bundles: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], str]:
    """A fresh colour name per multi-colour bundle, rendered like "(ab)"."""
    taken = set(automaton.colour_alphabet.symbols)
    names: dict[tuple[str, ...], str] = {}
    for bundle in bundles:
        if bundle in names:
            continue
        if len(bundle) == 1:
            names[bundle] = bundle[0]
            continue
        name = "(%s)" % "".join(bundle)
        while name in taken:
            name += "'"
        taken.add(name)
        names[bundle] = name
    return names


def simplify_rabin(automaton: Automaton) -> Automaton:
    """Merge duplicated edges of a Rabin automaton, preserving the language.

    Each merged transition gets one colour standing for its bundle: green
    for pair i when some bundled colour was green, red when all of them
    were red.  States and the number of pairs are unchanged.
    """
    if not isinstance(automaton.acceptance, RabinCondition):
        raise AutomatonError("simplify_rabin expects Rabin acceptance")
    merged = _merge_bundles(automaton)
    names = _bundle_names(automaton, (b for *_x, b in merged))
    fresh = [
        names[b] for *_x, b in merged
        if len(b) > 1 and names[b] not in automaton.colour_alphabet
    ]
    seen_fresh: list[str] = []
    for name in fresh:
        if name not in seen_fresh:
            seen_fresh.append(name)
    colours = Alphabet(tuple(automaton.colour_alphabet.symbols) + tuple(seen_fresh))

    old = automaton.acceptance
    pairs = []
    for green, red in old.pairs:
        new_green = list(green)
        new_red = list(red)
        for bundle, name in names.items():
            if len(bundle) == 1:
                continue
            if any(c in green for c in bundle):
                new_green.append(name)
            if all(c in red for c in bundle):
                new_red.append(name)
        pairs.append((new_green, new_red))

    transitions = [
        Transition(src, letter, names[bundle], dst)
        for src, letter, dst, bundle in merged
    ]
    return Automaton(
        automaton.states,
        automaton.alphabet,
        automaton.initial,
        transitions,
        RabinCondition(colours, pairs),
    )


def simplify_muller(automaton: Automaton, budget: int = 1 << 18) -> Automaton:
    """Merge duplicated edges of a transition-coloured Muller automaton.

    A merged colour set is accepting when non-empty sub-bundles can be
    picked whose union is accepting in the original automaton; this is
    materialised by scanning every subset of the merged colour alphabet,
    which is exponential and therefore guarded by `budget`.
    """
    if not isinstance(automaton.acceptance, MullerCondition):
        raise AutomatonError("simplify_muller expects Muller acceptance")
    merged = _merge_bundles(automaton)
    names = _bundle_names(automaton, (b for *_x, b in merged))
    seen_fresh: list[str] = []
    for *_x, bundle in merged:
        name = names[bundle]
        if name not in automaton.colour_alphabet and name not in seen_fresh:
            seen_fresh.append(name)
    colours = Alphabet(tuple(automaton.colour_alphabet.symbols) + tuple(seen_fresh))
    bundle_of: dict[str, frozenset[str]] = {c: frozenset([c]) for c in automaton.colour_alphabet}
    for bundle, name in names.items():
        bundle_of[name] = frozenset(bundle)

    if (1 << len(colours)) > budget:
        raise AutomatonError(
            f"bundle-subset enumeration needs {1 << len(colours)} subsets, over budget {budget}"
        )

    old = automaton.acceptance
    old_alphabet = old.alphabet
    old_members = [frozenset(old_alphabet.from_mask(m)) for m in old.masks]
    symbols = colours.symbols
    accepted = []
    for mask in range(1, 1 << len(symbols)):
        chosen = [symbols[i] for i in range(len(symbols)) if mask >> i & 1]
        union = frozenset().union(*(bundle_of[c] for c in chosen))
        for member in old_members:
            # Witness form of the sub-bundle rule: picking S_x = member & bundle(x)
            # works exactly when the member sits inside the union and meets
            # every chosen bundle.
            if member <= union and all(member & bundle_of[c] for c in chosen):
                accepted.append(chosen)
                break

    transitions = [
        Transition(src, letter, names[bundle], dst)
        for src, letter, dst, bundle in merged
    ]
    return Automaton(
        automaton.states,
        automaton.alphabet,
        automaton.initial,
        transitions,
        MullerCondition(colours, accepted),
    )


# -- HOA / DOT export ---------------------------------------------------------


def _parity_formula(top: int) -> str:
    atom = ("Inf(%d)" if top % 2 == 0 else "Fin(%d)") % top
    if top == 0:
        return atom
    inner = _parity_formula(top - 1)
    wrapped = inner if " " not in inner else f"({inner})"
    op = "|" if top % 2 == 0 else "&"
    return f"{atom} {op} {wrapped}"


def _colour_marks(acceptance: AnyCondition, colours: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """The HOA marks of each colour: 2i when it is red and 2i + 1 when it is
    green for Rabin pair i, or its priority for parity acceptance."""
    if isinstance(acceptance, RabinCondition):
        index = acceptance.colours.index
        pairs = [(g.mask, r.mask) for g, r in acceptance.pairs]
        out = {}
        for colour in colours:
            bit = 1 << index(colour)
            marks = []
            for i, (green, red) in enumerate(pairs):
                if red & bit:
                    marks.append(2 * i)
                if green & bit:
                    marks.append(2 * i + 1)
            out[colour] = tuple(marks)
        return out
    if isinstance(acceptance, ParityCondition):
        return {colour: (acceptance.priority(colour),) for colour in colours}
    raise AutomatonError("HOA export supports Rabin and parity acceptance only")


def export_hoa(automaton: Automaton) -> str:
    """HOA v1 text with transition-based acceptance.

    Input letter k is encoded as the minterm where only AP k holds.
    """
    acc = automaton.acceptance
    if isinstance(acc, RabinCondition):
        r = len(acc.pairs)
        acc_name = f"Rabin {r}"
        formula = (
            "|".join(f"(Fin({2 * i})&Inf({2 * i + 1}))" for i in range(r)) if r else "f"
        )
        n_sets = 2 * r
    elif isinstance(acc, ParityCondition):
        n_sets = max(acc.priorities.values()) + 1
        acc_name = f"parity max even {n_sets}"
        formula = _parity_formula(n_sets - 1)
    else:
        raise AutomatonError("HOA export supports Rabin and parity acceptance only")

    idx = {q: i for i, q in enumerate(automaton.states)}
    lines = ["HOA: v1", f"States: {len(automaton.states)}"]
    for q in sorted(automaton.initial, key=idx.__getitem__):
        lines.append(f"Start: {idx[q]}")
    aps = " ".join(f'"{a}"' for a in automaton.alphabet.symbols)
    lines.append(f"AP: {len(automaton.alphabet)} {aps}")
    lines.append(f"acc-name: {acc_name}")
    lines.append(f"Acceptance: {n_sets} {formula}")
    lines.append("properties: trans-labels explicit-labels trans-acc")
    lines.append("--BODY--")
    n_ap = len(automaton.alphabet)
    labels = [
        "&".join(("%d" if i == ap else "!%d") % i for i in range(n_ap)) for ap in range(n_ap)
    ]
    marks = _colour_marks(acc, {t.colour for t in automaton.transitions})
    mark_text = {
        c: (" {%s}" % " ".join(map(str, m))) if m else "" for c, m in marks.items()
    }
    for q in automaton.states:
        lines.append(f"State: {idx[q]}")
        rows = []
        for ap, a in enumerate(automaton.alphabet.symbols):
            for t in automaton.transitions_from(q, a):
                rows.append((ap, idx[t.dst], marks[t.colour], mark_text[t.colour]))
        for ap, dst, _, text in sorted(rows):
            lines.append(f"[{labels[ap]}] {dst}{text}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def parse_hoa(text: str) -> Automaton:
    """Parse a document produced by export_hoa.

    Output colours are reconstructed from acceptance marks, so the result
    equals the exported automaton up to colour renaming.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]

    def integer(value: str, no: int, line: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise AutomatonError(f"HOA line {no}: expected an integer in {line!r}") from None

    headers: dict[str, list[tuple[str, int, str]]] = {}
    body_at = None
    for i, (no, line) in enumerate(lines):
        if line == "--BODY--":
            body_at = i
            break
        key, _, value = line.partition(" ")
        headers.setdefault(key.rstrip(":"), []).append((value, no, line))
    if body_at is None:
        raise AutomatonError("HOA document has no --BODY-- marker")

    def header(name: str) -> tuple[str, int, str]:
        if name not in headers:
            raise AutomatonError(f"HOA document has no '{name}:' header line")
        return headers[name][0]

    n_states = integer(*header("States"))
    starts = [integer(*entry) for entry in headers.get("Start", [])]
    alphabet = Alphabet(header("AP")[0].split('"')[1::2])
    acc_name, acc_no, acc_line = header("acc-name")

    # Transitions, keyed by the current "State:" block.
    transitions: list[tuple[int, str, tuple[int, ...], int]] = []
    current = None
    for no, line in lines[body_at + 1 :]:
        if line == "--END--":
            break
        if line.startswith("State:"):
            parts = line.split()
            current = integer(parts[1] if len(parts) > 1 else "", no, line)
            continue
        if not line.startswith("[") or "]" not in line:
            raise AutomatonError(f"HOA line {no}: unexpected body line {line!r}")
        label, rest = line[1:].split("]", 1)
        positive = [term for term in label.split("&") if not term.startswith("!")]
        if len(positive) != 1:
            raise AutomatonError(
                f"HOA line {no}: expected an exactly-one letter encoding: {label!r}"
            )
        ap = integer(positive[0], no, line)
        if not 0 <= ap < len(alphabet):
            raise AutomatonError(f"HOA line {no}: atomic proposition {ap} out of range")
        rest = rest.strip()
        if "{" in rest:
            dst_text, marks_text = rest.split("{", 1)
            marks = tuple(sorted(integer(m, no, line) for m in marks_text.rstrip("}").split()))
        else:
            dst_text, marks = rest, ()
        dst = integer(dst_text.strip(), no, line)
        transitions.append((current, alphabet.symbols[ap], marks, dst))

    mark_sets = sorted({marks for _, _, marks, _ in transitions})
    colour_names = {marks: ("-" if not marks else "m" + "_".join(map(str, marks))) for marks in mark_sets}
    colours = Alphabet([colour_names[m] for m in mark_sets]) if mark_sets else Alphabet(["-"])

    acceptance: AnyCondition
    if acc_name.startswith("Rabin"):
        r = integer(acc_name.split()[1], acc_no, acc_line) if len(acc_name.split()) > 1 else 0
        pairs = []
        for i in range(r):
            green = [colour_names[m] for m in mark_sets if 2 * i + 1 in m]
            red = [colour_names[m] for m in mark_sets if 2 * i in m]
            pairs.append((green, red))
        acceptance = RabinCondition(colours, pairs)
    elif acc_name.startswith("parity max even"):
        priorities = {}
        for marks in mark_sets:
            if len(marks) != 1:
                raise AutomatonError("parity transitions must carry exactly one mark")
            priorities[colour_names[marks]] = marks[0]
        if not mark_sets:
            priorities["-"] = 1
        acceptance = ParityCondition(colours, priorities)
    else:
        raise AutomatonError(f"unsupported acc-name: {acc_name!r}")

    return Automaton(
        range(n_states),
        alphabet,
        starts,
        [
            Transition(src, letter, colour_names[marks], dst)
            for src, letter, marks, dst in transitions
        ],
        acceptance,
    )


def hoa_signature(automaton: Automaton):
    """What HOA preserves: sizes, start states, and mark-labelled edges."""
    idx = {q: i for i, q in enumerate(automaton.states)}
    marks = _colour_marks(automaton.acceptance, {t.colour for t in automaton.transitions})
    return (
        len(automaton.states),
        tuple(sorted(idx[q] for q in automaton.initial)),
        frozenset(
            (idx[t.src], t.letter, marks[t.colour], idx[t.dst])
            for t in automaton.transitions
        ),
    )


def export_dot(automaton: Automaton) -> str:
    idx = {q: i for i, q in enumerate(automaton.states)}
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in automaton.states:
        lines.append(f'  q{idx[q]} [shape=circle, label="{q}"];')
    for q in sorted(automaton.initial, key=idx.__getitem__):
        lines.append(f"  init{idx[q]} [shape=point];")
        lines.append(f"  init{idx[q]} -> q{idx[q]};")
    letter_idx = {a: i for i, a in enumerate(automaton.alphabet.symbols)}
    rows = sorted(
        automaton.transitions,
        key=lambda t: (idx[t.src], letter_idx[t.letter], idx[t.dst], t.colour),
    )
    for t in rows:
        lines.append(f'  q{idx[t.src]} -> q{idx[t.dst]} [label="{t.letter} : {t.colour}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
