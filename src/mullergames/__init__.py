"""Muller conditions, Zielonka trees, good-for-games Rabin automata, and
memory-optimal solving of Muller games."""

from .conditions import (
    Alphabet,
    ConditionError,
    LassoWord,
    LetterSet,
    MullerCondition,
    ParityCondition,
    RabinCondition,
    inf_set,
    load_condition,
    restrict,
    satisfies_muller,
    satisfies_parity,
    satisfies_rabin,
)
from .zielonka import ZielonkaTree, build_zielonka

__all__ = [
    "Alphabet",
    "ConditionError",
    "LassoWord",
    "LetterSet",
    "MullerCondition",
    "ParityCondition",
    "RabinCondition",
    "ZielonkaTree",
    "build_zielonka",
    "inf_set",
    "load_condition",
    "restrict",
    "satisfies_muller",
    "satisfies_parity",
    "satisfies_rabin",
]
