"""Alphabets, letter sets, and Muller / Rabin / parity acceptance conditions.

Letter sets are bit-indexed subsets of a fixed alphabet, so all the
subset combinatorics downstream (trees, acceptance tests, condition
graphs) reduce to integer mask operations.  Acceptance conditions are held
on colour ids the same way: a Rabin pair is a (green, red) pair of masks
and a parity condition a tuple of priorities indexed by colour.  Colour
names appear only in what the constructors take and what `repr` prints.
Everything here is immutable after construction.

Each acceptance type answers what `games` asks of a colour mask:
`accepts_mask`, and `split`, the player who wins a cycle on exactly those
colours and the colour masks that player attracts to.  Zielonka's
recursion attracts to them, and the certificates' cycle search goes on
under the mask without each one.  A Muller condition answers `split`
through its Zielonka tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union


class ConditionError(ValueError):
    """Malformed condition, unknown letter, or mismatched alphabet."""


class Alphabet:
    """An ordered list of distinct colour names with stable indices 0..n-1."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ConditionError("alphabet must be non-empty")
        if len(("".join(syms) + "_").splitlines()) > 1:  # HOA files are read line by line
            letter = next(s for s in syms if len((s + "_").splitlines()) > 1)
            raise ConditionError(f"alphabet letter {letter!r} holds a line break")
        if len(set(syms)) != len(syms):
            raise ConditionError("alphabet symbols must be unique")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Alphabet) and self.symbols == other.symbols)

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ConditionError(f"letter {symbol!r} not in alphabet") from None

    def letters(self, members: "LetterLike") -> "LetterSet":
        """Coerce a LetterSet, a mask or an iterable of symbols into a LetterSet."""
        if isinstance(members, LetterSet) and members.alphabet == self:
            return members
        return LetterSet(self, self.mask_of(members))

    def mask_of(self, members: "LetterLike") -> int:
        """The mask of a LetterSet, a range-checked mask or symbols."""
        if isinstance(members, LetterSet):
            if members.alphabet != self:
                raise ConditionError("letter set belongs to a different alphabet")
            return members.mask
        if isinstance(members, int):
            if members < 0 or members >> len(self.symbols):
                raise ConditionError("mask out of range for this alphabet")
            return members
        mask = 0
        for symbol in members:
            mask |= 1 << self.index(symbol)
        return mask

    def from_mask(self, mask: int) -> "LetterSet":
        return LetterSet(self, self.mask_of(mask))

    def full(self) -> "LetterSet":
        return LetterSet(self, (1 << len(self.symbols)) - 1)


@dataclass(frozen=True)
class LetterSet:
    """A subset of an alphabet, stored as a bit mask over symbol indices."""

    alphabet: Alphabet
    mask: int

    def __contains__(self, symbol: str) -> bool:
        return bool(self.mask >> self.alphabet.index(symbol) & 1)

    def __iter__(self) -> Iterator[str]:
        for i, symbol in enumerate(self.alphabet.symbols):
            if self.mask >> i & 1:
                yield symbol

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        return "{%s}" % ",".join(self)

    def names(self) -> tuple[str, ...]:
        return tuple(self)


LetterLike = Union[LetterSet, int, Iterable[str]]


class MullerCondition:
    """An acceptance family F of non-empty letter sets over an alphabet."""

    __slots__ = ("alphabet", "masks")

    def __init__(self, alphabet: Alphabet, accepting: Iterable[LetterLike]):
        self.alphabet = alphabet
        masks: set[int] = set()
        for member in accepting:
            mask = alphabet.mask_of(member)
            if mask == 0:
                raise ConditionError("accepting sets must be non-empty")
            if mask in masks:
                raise ConditionError(
                    "duplicate accepting set {%s}" % ",".join(alphabet.from_mask(mask))
                )
            masks.add(mask)
        self.masks = frozenset(masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MullerCondition)
            and self.alphabet == other.alphabet
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.masks))

    def __repr__(self) -> str:
        return f"MullerCondition({self.alphabet!r}, {sorted(self.masks)!r})"

    def members(self) -> tuple[LetterSet, ...]:
        return tuple(self.alphabet.from_mask(m) for m in sorted(self.masks))

    def accepts_mask(self, mask: int) -> bool:
        return mask in self.masks


class RabinCondition:
    """Rabin pairs over an output alphabet: `pairs[i]` is the (green, red)
    pair of disjoint colour masks of pair i.  Pairs are given by colour
    names, letter sets or masks and printed by name."""

    __slots__ = ("colours", "pairs")

    def __init__(
        self,
        colours: Alphabet,
        pairs: Iterable[tuple[LetterLike, LetterLike]],
    ):
        self.colours = colours
        built = []
        for green, red in pairs:
            g, r = colours.mask_of(green), colours.mask_of(red)
            if g & r:
                raise ConditionError("green and red sets of a Rabin pair must be disjoint")
            built.append((g, r))
        self.pairs: tuple[tuple[int, int], ...] = tuple(built)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, RabinCondition)
            and self.colours == other.colours
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.colours, self.pairs))

    def __repr__(self) -> str:
        named = tuple((self.colours.from_mask(g), self.colours.from_mask(r)) for g, r in self.pairs)
        return f"RabinCondition({self.colours!r}, {named!r})"

    def __len__(self) -> int:
        return len(self.pairs)

    def accepts_mask(self, mask: int) -> bool:
        return any(mask & g and not mask & r for g, r in self.pairs)

    def split(self, present: int) -> tuple[int, Sequence[int]]:
        """Exist (0) attracts to the green of a live pair (green present,
        red absent); with none live, Univ (1) to the colours outside each
        child `present & ~red` of a pair whose green is present, in order,
        and with no such pair Univ wins."""
        live = next((g for g, r in self.pairs if g & present and not r & present), 0)
        if live:
            return 0, (live,)
        # No pair is live, so each child misses a red that is present.
        return 1, [~child for child in sorted({present & ~r for g, r in self.pairs if g & present})]


class ParityCondition:
    """A priority for every output colour, `priorities[c]` for colour id c;
    accepting iff the max priority seen infinitely often is even.  The
    priorities are given as a colour name -> priority mapping and printed
    that way."""

    __slots__ = ("colours", "priorities")

    def __init__(self, colours: Alphabet, priorities: Mapping[str, int]):
        self.colours = colours
        missing = [c for c in colours if c not in priorities]
        extra = [c for c in priorities if c not in colours]
        if missing or extra:
            raise ConditionError(
                f"priorities must cover the colour alphabet exactly "
                f"(missing {missing!r}, extra {extra!r})"
            )
        self.priorities: tuple[int, ...] = tuple(int(priorities[c]) for c in colours)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ParityCondition)
            and self.colours == other.colours
            and self.priorities == other.priorities
        )

    def __hash__(self) -> int:
        return hash((self.colours, self.priorities))

    def __repr__(self) -> str:
        named = dict(zip(self.colours.symbols, self.priorities))
        return f"ParityCondition({self.colours!r}, {named!r})"

    def accepts_mask(self, mask: int) -> bool:
        if mask == 0:
            raise ConditionError("empty letter set has no maximal priority")
        return max(p for i, p in enumerate(self.priorities) if mask >> i & 1) % 2 == 0

    def split(self, present: int) -> tuple[int, Sequence[int]]:
        """The top priority's player attracts to its colours; `present`
        is never 0."""
        top = max(p for i, p in enumerate(self.priorities) if present >> i & 1)
        return top % 2, (sum(1 << i for i, p in enumerate(self.priorities) if p == top),)


AnyCondition = Union[MullerCondition, RabinCondition, ParityCondition]


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word prefix . period^omega."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ConditionError("lasso period must be non-empty")

    @classmethod
    def from_letters(cls, prefix: str, period: str) -> "LassoWord":
        """Build a lasso from strings of single-character letters."""
        return cls(tuple(prefix), tuple(period))

    def __repr__(self) -> str:
        return f"{''.join(self.prefix)}({''.join(self.period)})^w"


def inf_set(w: LassoWord) -> frozenset[str]:
    """The letters occurring infinitely often in w, i.e. the letters of its period."""
    return frozenset(w.period)


def satisfies_muller(cond: MullerCondition, letters: LetterLike) -> bool:
    """True iff the set of infinitely occurring letters is a member of F.

    The empty set never satisfies: members of F are non-empty.
    """
    return cond.accepts_mask(cond.alphabet.mask_of(letters))


def satisfies_rabin(cond: RabinCondition, letters: LetterLike) -> bool:
    """True iff some pair sees a green colour in `letters` and no red one."""
    current = cond.colours.letters(letters)
    if not current:
        raise ConditionError("Rabin satisfaction is undefined on the empty set")
    return cond.accepts_mask(current.mask)


def satisfies_parity(cond: ParityCondition, letters: LetterLike) -> bool:
    """True iff the maximum priority over `letters` is even."""
    current = cond.colours.letters(letters)
    if not current:
        raise ConditionError("parity satisfaction is undefined on the empty set")
    return cond.accepts_mask(current.mask)


def restrict(cond: MullerCondition, letters: LetterLike) -> MullerCondition:
    """The restriction F|_C: alphabet C, accepting sets the members of F inside C."""
    sub = cond.alphabet.letters(letters)
    if not sub:
        raise ConditionError("cannot restrict a condition to the empty letter set")
    members = []
    for mask in sorted(cond.masks):
        if mask & ~sub.mask == 0:
            members.append(list(cond.alphabet.from_mask(mask)))
    return MullerCondition(Alphabet(sub.names()), members)


def condition_from_dict(doc: Mapping) -> MullerCondition:
    """Build a Muller condition from the document format used by the CLI.

    Expected fields: `alphabet` (list of strings) and `accepting`
    (list of lists of strings).  Duplicate accepting sets are an error.
    """
    if not isinstance(doc, Mapping):
        raise ConditionError("condition document must be an object")
    for field in ("alphabet", "accepting"):
        if field not in doc:
            raise ConditionError(f"condition document lacks field {field!r}")
    alphabet = Alphabet(_string_list(doc["alphabet"], "alphabet"))
    accepting = doc["accepting"]
    if not isinstance(accepting, Sequence) or isinstance(accepting, (str, bytes)):
        raise ConditionError("field 'accepting' must be a list of letter lists")
    return MullerCondition(
        alphabet,
        [_string_list(member, "accepting set") for member in accepting],
    )


def load_condition(path: str) -> MullerCondition:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:  # JSON is UTF-8 text
            raise ConditionError(f"{path}: invalid JSON ({err})") from None
    return condition_from_dict(doc)


def condition_to_dict(cond: MullerCondition) -> dict:
    return {
        "alphabet": list(cond.alphabet.symbols),
        "accepting": [list(member) for member in cond.members()],
    }


def quoted(text: object) -> str:
    """The text of `text` in double quotes, with `\\` and `"` escaped as
    HOA v1 and DOT strings write them."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _string_list(value: object, what: str) -> list[str]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConditionError(f"{what} must be a list of strings")
    out = []
    for item in value:
        if not isinstance(item, str):
            raise ConditionError(f"{what} must contain only strings, got {item!r}")
        out.append(item)
    return out
