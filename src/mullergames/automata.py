"""Transition-based omega-automata over output colours.

Acceptance (Muller, Rabin, or parity) is evaluated on the colours that a
run produces infinitely often.  Lasso words give finite witnesses for
membership.  Both lasso checkers read one table form, decoded from an
`Automaton` in one place: the (colour bit, next state index) moves of each
state index on each letter index.  They compute verdicts per (state,
period): each period is analysed once for every state and each prefix is
run once, so sweeping many lassos shares both.  Duplicated edges can be
merged without changing the language.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ._graph import dense_components, reachable
from .conditions import (
    Alphabet,
    AnyCondition,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
)

State = Hashable
# table[s][a]: the (colour bit, next state index) moves of state s on letter a.
MoveTable = Sequence[Sequence[Sequence[tuple[int, int]]]]


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


class _LassoChecker:
    """Membership oracle on lasso words u v^omega over an integer table.

    `table[s][a]` lists the (colour bit, next state index) moves of state
    index s on letter index a, and a colour bit is `1 << i` for colour i of
    `acceptance`.  A prefix maps to the tuple of states it reaches, and a
    subclass's `_verdicts` gives, for one period, each state's verdict on
    that period repeated forever; u v^omega is accepted when some state
    after u accepts v.  Verdicts are computed once per (state, period) and
    each prefix is run once, so sweeping many lassos shares both.
    """

    def __init__(
        self, table: MoveTable, initial: Sequence[int], alphabet: Alphabet, acceptance: AnyCondition
    ):
        self._table = table
        self._letter = {symbol: a for a, symbol in enumerate(alphabet.symbols)}
        self._acceptance = acceptance
        self._period_memo: dict[tuple[str, ...], list[bool]] = {}
        self._prefix_memo: dict[tuple[str, ...], tuple[int, ...]] = {(): tuple(initial)}

    @classmethod
    def from_automaton(cls, automaton: Automaton):
        """The checker on `automaton`'s moves; the one place an `Automaton`
        becomes a move table, deterministic or not."""
        index = {q: i for i, q in enumerate(automaton.states)}
        colour = automaton.colour_alphabet.index
        moves = automaton._by_source
        table = [
            [
                [(1 << colour(t.colour), index[t.dst]) for t in moves.get((q, a), ())]
                for a in automaton.alphabet.symbols
            ]
            for q in automaton.states
        ]
        initial = [index[q] for q in automaton.initial]
        return cls(table, initial, automaton.alphabet, automaton.acceptance)

    def accepts(self, w: LassoWord) -> bool:
        verdict = self._period_memo.get(w.period)
        if verdict is None:
            verdict = self._verdicts([self._index(symbol) for symbol in w.period])
            self._period_memo[w.period] = verdict
        states = self._prefix_memo.get(w.prefix)
        if states is None:
            states = self._states_after(w.prefix)
        for state in states:
            if verdict[state]:
                return True
        return False

    def _index(self, symbol: str) -> int:
        a = self._letter.get(symbol)
        if a is None:
            raise AutomatonError(f"lasso letter {symbol!r} not in the automaton's alphabet")
        return a

    def _states_after(self, prefix: tuple[str, ...]) -> tuple[int, ...]:
        states = self._prefix_memo.get(prefix)
        if states is None:
            a = self._index(prefix[-1])
            before = self._states_after(prefix[:-1])
            states = tuple(sorted({nxt for s in before for _, nxt in self._table[s][a]}))
            self._prefix_memo[prefix] = states
        return states

    def _verdicts(self, period: list[int]) -> list[bool]:
        raise NotImplementedError


class DeterministicLassoChecker(_LassoChecker):
    """Membership oracle for a deterministic complete automaton: one initial
    state and exactly one move per (state, letter).

    For each new period one pass over all states gives each start state's
    end state and the colours it saw; following that functional graph of
    end states to its cycle, every start state gets the cycle's verdict
    through `acceptance.accepts_mask`.
    """

    def __init__(
        self, table: MoveTable, initial: Sequence[int], alphabet: Alphabet, acceptance: AnyCondition
    ):
        super().__init__(table, initial, alphabet, acceptance)
        letters = range(len(alphabet))
        if len(initial) != 1 or any(
            len(row) != len(letters) or any(len(moves) != 1 for moves in row) for row in table
        ):
            raise AutomatonError("lasso checker needs a deterministic, complete automaton")
        self._colour = [[row[a][0][0] for row in table] for a in letters]
        self._next = [[row[a][0][1] for row in table] for a in letters]

    def _verdicts(self, period: list[int]) -> list[bool]:
        size = len(self._table)
        end = list(range(size))
        seen = [0] * size
        for a in period:
            colour, nxt = self._colour[a], self._next[a]
            seen = [m | colour[s] for m, s in zip(seen, end)]
            end = [nxt[s] for s in end]
        # Period after period, a run from s visits s, end[s], end[end[s]],
        # ...; the colours of the cycle it runs into recur forever.
        accepts_mask = self._acceptance.accepts_mask
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
                outcome = accepts_mask(mask)
            else:
                outcome = verdict[s]
            for q in path:
                verdict[q] = outcome
        return verdict


class RabinLassoChecker(_LassoChecker):
    """Nondeterministic membership oracle for Rabin automata.

    For each new period it builds the graph of (state, phase) nodes once
    and searches it, pair by pair, for a reachable cycle that avoids the
    pair's red colours and uses one of its greens.  A node's red edges are
    filtered out only when the search reaches it.
    """

    def __init__(
        self, table: MoveTable, initial: Sequence[int], alphabet: Alphabet, acceptance: AnyCondition
    ):
        if not isinstance(acceptance, RabinCondition):
            raise AutomatonError("lasso membership oracle expects Rabin acceptance")
        super().__init__(table, initial, alphabet, acceptance)
        self._pairs = [(g.mask, r.mask) for g, r in acceptance.pairs]

    def _verdicts(self, period: list[int]) -> list[bool]:
        length = len(period)
        # Node s * length + i is state s at phase i of the period; `bits`
        # holds the colour bit of each edge in `succ`, and `seen` their OR.
        succ: list[list[int]] = []
        bits: list[list[int]] = []
        seen: list[int] = []
        for row in self._table:
            for i, a in enumerate(period):
                phase = (i + 1) % length
                moves = row[a]
                succ.append([nxt * length + phase for _, nxt in moves])
                colours = [b for b, _ in moves]
                bits.append(colours)
                mask = 0
                for b in colours:
                    mask |= b
                seen.append(mask)
        present = 0
        for mask in seen:
            present |= mask
        winning: set[int] = set()
        for green, red in self._pairs:
            if not green & present:
                continue

            def safe(n: int) -> list[int]:
                if not seen[n] & red:
                    return succ[n]
                return [d for d, b in zip(succ[n], bits[n]) if not b & red]

            # Only a component holding a green edge wins, and the search
            # from that edge's source finds it.
            sources = [n for n, mask in enumerate(seen) if mask & green]
            for component in dense_components(safe, sources, [-1] * len(succ)):
                members = set(component)
                # Green and red are disjoint, so a green edge is never red.
                if any(
                    b & green and d in members
                    for n in component
                    if seen[n] & green
                    for d, b in zip(succ[n], bits[n])
                ):
                    winning.update(component)
        # A lasso from s is accepted iff some winning cycle is reachable
        # from (s, 0) in the full period graph.
        preds: list[list[int]] = [[] for _ in succ]
        for n, out in enumerate(succ):
            for d in out:
                preds[d].append(n)
        good = reachable(winning, preds.__getitem__)
        return [s * length in good for s in range(len(self._table))]


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
