"""Transition-based omega-automata over output colours.

Acceptance (Muller, Rabin, or parity) is evaluated on the colours that a
run produces infinitely often.  Lasso words give finite witnesses for
membership.  An `Automaton` is built from one integer move table, which
the builders and `parse_hoa` write and the lasso checkers, the products
and HOA/DOT export read; its named `transitions` are made only when first
read.
The checkers run one verdict search per Lyndon root of the periods and
each prefix once, so sweeping many lassos shares both; a checker whose
every state gives each root the condition's verdict agrees on every lasso.
`has_duplicated_edges` finds two transitions that differ only in their
colour; the GFG automaton's merged form (`GfgRabinAutomaton.merged`) has
none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ._graph import reachable, refined_cores
from .conditions import (
    Alphabet,
    AnyCondition,
    ConditionError,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
    quoted,
)

State = Hashable
# table[s][a]: the (colour index, next state index) moves of state s on letter a.
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


class RowsOnDemand:
    """A deterministic move table over `size` states whose row s
    is `row(s)`, made when first read and kept: a reader that reaches few
    states makes few rows.  Each cell of a row must hold one move, which is
    checked as the row is made, so `Automaton` knows the table deterministic
    without reading it."""

    def __init__(self, size: int, row: Callable[[int], list[list[tuple[int, int]]]]):
        self._rows: list = [None] * size
        self._row = row

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, s: int) -> list[list[tuple[int, int]]]:
        row = self._rows[s]
        if row is None:
            row = self._rows[s] = self._row(s)
            if any(len(cell) != 1 for cell in row):
                raise AutomatonError(f"internal: row {s} of an on-demand table is not deterministic")
        return row


class Automaton:
    """A non-deterministic automaton with colours on transitions.

    State i is `states[i]`.  `moves[s][a]` lists the (colour index, target
    index) of each transition from state index s on letter index a; `start`
    holds the indices of the initial states.  `transitions` names the moves
    when first read.  A `RowsOnDemand` table is deterministic by its type,
    and no row of it is read here."""

    def __init__(
        self,
        states: Sequence[State],
        alphabet: Alphabet,
        start: Iterable[int],
        moves: MoveTable,
        acceptance: AnyCondition,
    ):
        self.states, self.alphabet, self.acceptance = tuple(states), alphabet, acceptance
        self.start = tuple(start)
        self.initial = tuple(self.states[s] for s in self.start)
        self.moves: MoveTable = moves
        self.is_deterministic = len(self.start) == 1 and (
            isinstance(moves, RowsOnDemand) or all(len(cell) == 1 for row in moves for cell in row)
        )

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """Every move named, ordered by state, then letter, then move."""
        states, letters, colours = self.states, self.alphabet.symbols, self.colour_alphabet.symbols
        return tuple(
            Transition(q, letters[a], colours[c], states[d])
            for q, row in zip(states, self.moves) for a, cell in enumerate(row) for c, d in cell
        )

    @property
    def colour_alphabet(self) -> Alphabet:
        return condition_colours(self.acceptance)

    def __repr__(self) -> str:
        kind = type(self.acceptance).__name__.replace("Condition", "")
        count = sum(len(cell) for row in self.moves for cell in row)
        return f"Automaton({len(self.states)} states, {count} transitions, {kind} acceptance)"


Step = tuple[int, int, int, int]  # (state, letter, colour, next state) indices


class Run:
    """A finite presentation of an ultimately periodic run on integer steps,
    the cycle starting at `steps[begin]`.  `prefix` and `cycle` name them
    when first read, through `names` = (state names, letters, colours)."""

    def __init__(self, steps: Sequence[Step], begin: int, names: tuple[Sequence, ...]):
        self.steps, self.begin, self.names = steps, begin, names

    def _named(self, steps: Sequence[Step]) -> tuple[Transition, ...]:
        state, letters, colours = self.names
        return tuple(Transition(state[s], letters[a], colours[c], state[d]) for s, a, c, d in steps)

    @cached_property
    def prefix(self) -> tuple[Transition, ...]:
        return self._named(self.steps[: self.begin])

    @cached_property
    def cycle(self) -> tuple[Transition, ...]:
        return self._named(self.steps[self.begin :])


def run_deterministic(automaton: Automaton, w: LassoWord) -> tuple[Run, bool]:
    """The unique run of a deterministic complete automaton on u v^omega,
    and whether the colours of its eventual cycle satisfy the acceptance.

    Whole periods are walked until the state at a period boundary repeats;
    the steps between the two occurrences form the eventual cycle."""
    if not automaton.is_deterministic:
        raise AutomatonError("run_deterministic needs a deterministic, complete automaton")
    index, moves = automaton.alphabet.index, automaton.moves
    prefix, period = [index(a) for a in w.prefix], [index(a) for a in w.period]
    steps: list[Step] = []
    state = automaton.start[0]
    for a in prefix:
        c, d = moves[state][a][0]
        steps.append((state, a, c, d))
        state = d
    seen: dict[int, int] = {}
    while state not in seen:
        seen[state] = len(steps)
        for a in period:
            c, d = moves[state][a][0]
            steps.append((state, a, c, d))
            state = d
    begin = seen[state]
    mask = 0
    for _, _, c, _ in steps[begin:]:
        mask |= 1 << c
    names = (automaton.states, automaton.alphabet.symbols, automaton.colour_alphabet.symbols)
    return Run(steps, begin, names), automaton.acceptance.accepts_mask(mask)


def lyndon_words(letters: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Every Lyndon word of length 1..bound over letter ids 0..letters-1 (the
    least rotation of each primitive word, once), in lexicographic order, by
    Duval's algorithm."""
    word = [-1]
    while word:
        word[-1] += 1
        yield tuple(word)
        size = len(word)
        while len(word) < bound:
            word.append(word[len(word) - size])
        while word and word[-1] == letters - 1:
            word.pop()


class _LassoChecker:
    """Membership oracle on lasso words u v^omega over an integer table.

    `table` is a move table like `Automaton.moves`, kept with each colour
    index i turned into its bit `1 << i`.  A prefix maps to the tuple of
    states it reaches, and a subclass's `_verdicts` gives, for one period,
    each state's verdict on that period repeated forever; u v^omega is
    accepted when some state after u accepts v.  As v^omega = t r^omega
    for the Lyndon root r of v and a prefix t of v, `_verdicts` runs once
    per root and v's verdicts step back from r's through t.  Each prefix is
    run once, so sweeping many lassos shares both.

    So when every state gives each root the condition's verdict on its
    letters, there is a start state and no cell is empty, every lasso gets
    that verdict from every prefix: `agrees_on_roots` tells, and `accepts`
    is needed only to name a lasso that fails.
    """

    def __init__(
        self, table: MoveTable, initial: Sequence[int], alphabet: Alphabet, acceptance: AnyCondition
    ):
        self._table = [[[(1 << c, d) for c, d in cell] for cell in row] for row in table]
        self._letter = {symbol: a for a, symbol in enumerate(alphabet.symbols)}
        self._acceptance = acceptance
        self._period_memo: dict[tuple[str, ...], list[bool]] = {}
        self._root_memo: dict[str, list[bool]] = {}  # Lyndon root, letter ids as chr
        self._prefix_memo: dict[tuple[str, ...], tuple[int, ...]] = {(): tuple(initial)}

    @classmethod
    def from_automaton(cls, automaton: Automaton):
        """The checker on `automaton`'s move table, deterministic or not."""
        return cls(automaton.moves, automaton.start, automaton.alphabet, automaton.acceptance)

    def accepts(self, w: LassoWord) -> bool:
        verdict = self._period_memo.get(w.period)
        if verdict is None:
            verdict = self._period_verdicts([self._index(symbol) for symbol in w.period])
            self._period_memo[w.period] = verdict
        states = self._prefix_memo.get(w.prefix)
        if states is None:
            states = self.states_after(w.prefix)
        for state in states:
            if verdict[state]:
                return True
        return False

    def agrees_on_roots(self, roots: Iterable[tuple[Sequence[int], bool]]) -> bool:
        """Whether every lasso whose period has one of `roots` as its Lyndon
        root gets that root's verdict, from every prefix: `roots` holds
        (Lyndon word as letter ids, expected verdict) pairs.  Each root is
        searched, so a later sweep searches none again."""
        # A verdict every state shares survives the steps back through any
        # prefix t of a period when no cell is empty, and then every prefix
        # of a lasso reaches some state when there is a start state.
        agree = bool(self._prefix_memo[()]) and all(cell for row in self._table for cell in row)
        for root, expected in roots:
            if any(verdict != expected for verdict in self._root_verdicts("".join(map(chr, root)))):
                agree = False
        return agree

    def _root_verdicts(self, lyndon: str) -> list[bool]:
        verdict = self._root_memo.get(lyndon)
        if verdict is None:
            verdict = self._root_memo[lyndon] = self._verdicts(list(map(ord, lyndon)))
        return verdict

    def _period_verdicts(self, period: list[int]) -> list[bool]:
        # v = s^k for its primitive root s, and s^omega = s[:i] r^omega for
        # the least rotation r = s[i:] + s[:i], a Lyndon word.
        word = "".join(map(chr, period))
        root = word[: (word + word).find(word, 1)]
        lyndon, i = min((root[j:] + root[:j], j) for j in range(len(root)))
        verdict = self._root_verdicts(lyndon)
        # A state accepts a.x when one of its moves on a reaches a state
        # that accepts x.
        for a in reversed(period[:i]):
            verdict = [any(verdict[d] for _, d in row[a]) for row in self._table]
        return verdict

    def _index(self, symbol: str) -> int:
        a = self._letter.get(symbol)
        if a is None:
            raise AutomatonError(f"lasso letter {symbol!r} not in the automaton's alphabet")
        return a

    def states_after(self, prefix: tuple[str, ...]) -> tuple[int, ...]:
        # A loop, not one call per letter: a prefix may be far longer than
        # the recursion limit.
        states = self._prefix_memo.get(prefix)
        if states is None:
            states = self._prefix_memo[()]
            for symbol in prefix:
                a = self._index(symbol)
                states = tuple(sorted({nxt for s in states for _, nxt in self._table[s][a]}))
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
        self._colour = [[row[a][0][0] for row in self._table] for a in letters]
        self._next = [[row[a][0][1] for row in self._table] for a in letters]

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
    and asks the shared cycle search (`_graph.refined_cores`), pair by pair,
    for the components reachable from a green edge that avoid the pair's
    red colours and hold a green one, filtering red edges lazily.
    """

    def __init__(
        self, table: MoveTable, initial: Sequence[int], alphabet: Alphabet, acceptance: AnyCondition
    ):
        if not isinstance(acceptance, RabinCondition):
            raise AutomatonError("lasso membership oracle expects Rabin acceptance")
        super().__init__(table, initial, alphabet, acceptance)
        self._seen = [[sum({b for b, _ in cell}) for cell in row] for row in self._table]

    def _verdicts(self, period: list[int]) -> list[bool]:
        length = len(period)
        # Node s * length + i is state s at phase i of the period; `out` holds
        # its (next node, colour bit) edges, and `seen` their OR, which
        # `_seen` holds per (state, letter) as the sum of the distinct bits.
        out = [
            [(nxt * length + (i + 1) % length, b) for b, nxt in row[a]]
            for row in self._table
            for i, a in enumerate(period)
        ]
        seen = [masks[a] for masks in self._seen for a in period]
        present = sum({b for edges in out for _, b in edges})
        winning: set[int] = set()
        for green, red in self._acceptance.pairs:
            if not green & present:
                continue
            # Only a component holding a green edge wins, and the search
            # from that edge's source finds it.
            sources = [n for n, mask in enumerate(seen) if mask & green]
            for core in refined_cores(out, lambda m: None if m & green else [], sources, ~red):
                winning.update(core)
        # A lasso from s is accepted iff some winning cycle is reachable
        # from (s, 0) in the full period graph.
        preds: list[list[int]] = [[] for _ in out]
        for n, edges in enumerate(out):
            for d, _ in edges:
                preds[d].append(n)
        good = reachable(winning, preds.__getitem__)
        return [s * length in good for s in range(len(self._table))]


def has_duplicated_edges(automaton: Automaton) -> bool:
    """True iff two transitions share source, input letter, and target."""
    return any(
        len({d for _, d in cell}) < len(cell) for row in automaton.moves for cell in row
    )


# -- HOA / DOT export ---------------------------------------------------------


def _parity_formula(top: int) -> str:
    """Inf(top) | (Fin(top-1) & (... Inf(0))) for an even top, with Fin and
    & at the odd priorities."""
    heads = [
        ("Inf(%d) | " if p % 2 == 0 else "Fin(%d) & ") % p + ("(" if p > 1 else "")
        for p in range(top, 0, -1)
    ]
    return "".join(heads) + "Inf(0)" + ")" * max(top - 1, 0)


def _hoa_acceptance(rabin: bool, count: int) -> tuple[str, str]:
    """The `acc-name:` and `Acceptance:` values for `count` Rabin pairs, or
    for parity max even over `count` priorities."""
    if rabin:
        formula = "|".join(f"(Fin({2 * i})&Inf({2 * i + 1}))" for i in range(count)) or "f"
        return f"Rabin {count}", f"{2 * count} {formula}"
    return f"parity max even {count}", f"{count} {_parity_formula(count - 1)}"


def _hoa_marks(automaton: Automaton) -> tuple[dict[int, str], dict[int, object]]:
    """The HOA mark text of each colour index on a transition, and a key
    that orders colours as their tuples of marks do.

    A colour carries mark 2i when it is red and 2i + 1 when it is green for
    Rabin pair i, or its priority for parity acceptance."""
    acceptance = automaton.acceptance
    used = {c for row in automaton.moves for cell in row for c, _ in cell}
    if isinstance(acceptance, RabinCondition):
        # Row m of `table` selects the colours that carry mark m, one 0/1
        # byte per colour, so table[c::width] is colour c's selector over
        # the marks: red bytes at even places, green at odd.  The sort key
        # writes a held mark as 1 and a missing one as 2 up to the last held
        # mark, so keys sort as the mark tuples do.
        width, pairs = len(acceptance.colours), len(acceptance.pairs)
        bits = bytes.maketrans(b"01", b"\0\1")
        rows = [
            format(mask, f"0{width}b")[::-1].encode().translate(bits)
            for green, red in acceptance.pairs
            for mask in (red, green)
        ]
        table = b"".join(rows)
        # Red marks 2i..2j-2 are the one slice evens[at[i]:at[j]]: in GFG
        # automata red marks come in long runs and green ones are few.
        reds = [f"{2 * i} " for i in range(pairs)]
        at = list(accumulate(map(len, reds), initial=0))
        evens = "".join(reds)
        ranks = bytes.maketrans(b"\0\1", b"\2\1")
        text, key = {}, {}
        for c in used:
            column = table[c::width]
            red, green = column[0::2], column[1::2]
            parts = []
            i, g = 0, green.find(1)
            while True:
                # The red runs up to pair g's, then g's green mark 2g + 1.
                end = pairs if g < 0 else g + 1
                i = red.find(1, i, end)
                while i >= 0:
                    j = red.find(0, i, end)
                    j = end if j < 0 else j
                    parts.append(evens[at[i] : at[j]])
                    i = red.find(1, j, end)
                if g < 0:
                    break
                parts.append(f"{2 * g + 1} ")
                i, g = end, green.find(1, end)
            joined = "".join(parts)
            text[c] = " {%s}" % joined[:-1] if joined else ""
            key[c] = column.rstrip(b"\0").translate(ranks)
        return text, key
    if isinstance(acceptance, ParityCondition):
        key = {c: acceptance.priorities[c] for c in used}
        return {c: " {%s}" % p for c, p in key.items()}, key
    raise AutomatonError("HOA export supports Rabin and parity acceptance only")


def export_hoa(automaton: Automaton) -> str:
    """HOA v1 text with transition-based acceptance.

    Input letter k is encoded as the minterm where only AP k holds.
    """
    text, key = _hoa_marks(automaton)  # refuses other than Rabin or parity acceptance
    acc = automaton.acceptance
    if isinstance(acc, RabinCondition):
        acc_name, acceptance = _hoa_acceptance(True, len(acc.pairs))
    else:
        acc_name, acceptance = _hoa_acceptance(False, max(acc.priorities) + 1)

    lines = ["HOA: v1", f"States: {len(automaton.states)}"]
    for s in sorted(automaton.start):
        lines.append(f"Start: {s}")
    aps = " ".join(map(quoted, automaton.alphabet.symbols))
    lines.append(f"AP: {len(automaton.alphabet)} {aps}")
    lines.append(f"acc-name: {acc_name}")
    lines.append(f"Acceptance: {acceptance}")
    lines.append("properties: trans-labels explicit-labels trans-acc")
    lines.append("--BODY--")
    n_ap = len(automaton.alphabet)
    labels = [
        "&".join(("%d" if i == ap else "!%d") % i for i in range(n_ap)) for ap in range(n_ap)
    ]
    for s, row in enumerate(automaton.moves):
        lines.append(f"State: {s}")
        rows = sorted((ap, d, key[c], text[c]) for ap, cell in enumerate(row) for c, d in cell)
        for ap, d, _, marks in rows:
            lines.append(f"[{labels[ap]}] {d}{marks}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# A double-quoted HOA v1 string, and an escape (`\"` or `\\`) in its body.
_HOA_STRING, _HOA_ESCAPE = re.compile(r'"((?:[^"\\]|\\.)*)"'), re.compile(r"\\(.)")


def parse_hoa(text: str) -> Automaton:
    """Parse a document produced by export_hoa.

    Output colours are reconstructed from acceptance marks, so the result
    equals the exported automaton up to colour renaming.  Every error names
    the line it was found on, or the header line that is missing.
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

    states_value, states_no, states_line = header("States")
    n_states = integer(states_value, states_no, states_line)
    if n_states < 0:
        raise AutomatonError(f"HOA line {states_no}: negative state count in {states_line!r}")

    def state(value: str, no: int, line: str, what: str) -> int:
        s = integer(value, no, line)
        if not 0 <= s < n_states:
            raise AutomatonError(f"HOA line {no}: {what} {s} is not one of the {n_states} declared")
        return s

    header("Start")
    # Each start state once, in order of appearance, as repeated edges are.
    starts = list(dict.fromkeys(state(*entry, "initial state") for entry in headers["Start"]))
    ap_value, ap_no, ap_line = header("AP")
    names = [_HOA_ESCAPE.sub(r"\1", name) for name in _HOA_STRING.findall(ap_value)]
    try:
        alphabet = Alphabet(names)
    except ConditionError as err:
        raise AutomatonError(f"HOA line {ap_no}: {err}") from None
    if integer(ap_value.partition(" ")[0], ap_no, ap_line) != len(alphabet):
        raise AutomatonError(
            f"HOA line {ap_no}: AP count differs from the {len(alphabet)} names in {ap_line!r}"
        )
    acc_name, acc_no, acc_line = header("acc-name")
    # The acceptance sets declared: a mark is one of 0..sets-1.
    words = acc_name.split()
    rabin = acc_name.startswith("Rabin")
    if rabin:
        count = integer(words[1], acc_no, acc_line) if len(words) > 1 else 0
        sets = 2 * count
    elif acc_name.startswith("parity max even"):
        count = sets = integer(words[3] if len(words) > 3 else "", acc_no, acc_line)
    else:
        raise AutomatonError(f"HOA line {acc_no}: unsupported acc-name: {acc_name!r}")
    if count < (0 if rabin else 1):
        raise AutomatonError(f"HOA line {acc_no}: too few acceptance sets in {acc_line!r}")
    # The Acceptance: formula must be the one the acc-name stands for.  It
    # names every set, so a line shorter than the set count cannot match.
    value, no, line = header("Acceptance")
    expected = _hoa_acceptance(rabin, count)[1] if sets <= len(value) else ""
    if "".join(value.split()) != "".join(expected.split()):
        raise AutomatonError(f"HOA line {no}: {line!r} does not match acc-name {acc_name!r}")

    # Distinct (state, letter, marks, target) edges in order of appearance,
    # keyed by the current "State:" block.  Each declared state has exactly
    # one block, so the move table is allocated only for states the body
    # describes.  Labels and mark texts repeat, so each is read once.
    edges: dict[tuple[int, int, tuple[int, ...], int], None] = {}
    read_label: dict[str, int] = {}  # a label -> its letter index
    read_marks: dict[str, tuple[int, ...]] = {"": ()}  # a mark text -> its sorted marks
    blocks: set[int] = set()
    current = None
    for no, line in lines[body_at + 1 :]:
        if line == "--END--":
            break
        if line.startswith("State:"):
            parts = line.split()
            current = state(parts[1] if len(parts) > 1 else "", no, line, "state")
            if current in blocks:
                raise AutomatonError(f"HOA line {no}: a second block for state {current}")
            blocks.add(current)
            continue
        label, bracket, rest = line[1:].partition("]")
        if not line.startswith("[") or not bracket or current is None:
            raise AutomatonError(f"HOA line {no}: unexpected body line {line!r}")
        ap = read_label.get(label)
        if ap is None:
            positive = [term for term in label.split("&") if not term.startswith("!")]
            if len(positive) != 1:
                raise AutomatonError(
                    f"HOA line {no}: expected an exactly-one letter encoding: {label!r}"
                )
            ap = integer(positive[0], no, line)
            if not 0 <= ap < len(alphabet):
                raise AutomatonError(f"HOA line {no}: atomic proposition {ap} out of range")
            read_label[label] = ap
        dst_text, _, marks_text = rest.partition("{")
        marks = read_marks.get(marks_text)
        if marks is None:
            marks = tuple(sorted(integer(m, no, line) for m in marks_text.rstrip("}").split()))
            if marks and not 0 <= marks[0] <= marks[-1] < sets:
                raise AutomatonError(
                    f"HOA line {no}: acceptance mark outside the {sets} declared sets in {line!r}"
                )
            read_marks[marks_text] = marks
        if not rabin and len(marks) != 1:
            raise AutomatonError(
                f"HOA line {no}: parity transitions must carry exactly one mark: {line!r}"
            )
        edges[current, ap, marks, state(dst_text, no, line, "target state")] = None

    if len(blocks) < n_states:
        missing = next(s for s in range(n_states) if s not in blocks)
        raise AutomatonError(
            f"HOA line {states_no}: declared state {missing} has no 'State:' block"
            f" ({states_line!r})"
        )

    # Colour c is the c-th distinct mark set in sorted order.
    mark_sets = sorted({marks for _, _, marks, _ in edges})
    colour = {marks: c for c, marks in enumerate(mark_sets)}
    moves: list[list[list[tuple[int, int]]]] = [[[] for _ in alphabet] for _ in range(n_states)]
    for src, ap, marks, dst in edges:
        moves[src][ap].append((colour[marks], dst))
    colours = Alphabet(["m" + "_".join(map(str, m)) if m else "-" for m in mark_sets] or ["-"])
    acceptance: AnyCondition
    if rabin:
        holders = [0] * sets  # the colours with each mark
        for c, marks in enumerate(mark_sets):
            for mark in marks:
                holders[mark] |= 1 << c
        green, red = holders[1::2], holders[::2]
        acceptance = RabinCondition(colours, zip(green, red))
    else:
        acceptance = ParityCondition(colours, dict(zip(colours, [m[0] for m in mark_sets] or [1])))
    return Automaton(range(n_states), alphabet, starts, moves, acceptance)


def hoa_signature(automaton: Automaton):
    """What HOA preserves: sizes, start states, and mark-labelled edges."""
    marks, letters = _hoa_marks(automaton)[0], automaton.alphabet.symbols
    return (
        len(automaton.states),
        tuple(sorted(automaton.start)),
        frozenset(
            (s, letters[a], marks[c], d)
            for s, row in enumerate(automaton.moves)
            for a, cell in enumerate(row)
            for c, d in cell
        ),
    )


def export_dot(automaton: Automaton) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for s, q in enumerate(automaton.states):
        lines.append(f"  q{s} [shape=circle, label={quoted(q)}];")
    for s in sorted(automaton.start):
        lines.append(f"  init{s} [shape=point];")
        lines.append(f"  init{s} -> q{s};")
    letters, colours = automaton.alphabet.symbols, automaton.colour_alphabet.symbols
    rows = sorted(
        (s, a, d, colours[c])
        for s, row in enumerate(automaton.moves)
        for a, cell in enumerate(row)
        for c, d in cell
    )
    for s, a, d, colour in rows:
        lines.append(f"  q{s} -> q{d} [label={quoted(f'{letters[a]} : {colour}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
