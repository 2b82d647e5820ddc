import json
import random
import re

import pytest

from mullergames.conditions import (
    Alphabet,
    ConditionError,
    LassoWord,
    MullerCondition,
    ParityCondition,
    RabinCondition,
    condition_from_dict,
    inf_set,
    load_condition,
    restrict,
    satisfies_muller,
    satisfies_parity,
    satisfies_rabin,
)
from conftest import letter_pairs, pair_accepts_mask, pair_colour, rabin_from_parity

NODES = Alphabet(["alpha", "beta", "gamma", "delta", "eps", "zeta"])

# The Rabin pairs of the running example's automaton, one per round node.
RUNNING_PAIRS = RabinCondition(
    NODES,
    [
        (["beta"], ["alpha", "gamma", "eps", "zeta"]),
        (["gamma"], ["alpha", "beta", "delta"]),
    ],
)


def test_satisfies_muller_running_example(running_condition):
    assert satisfies_muller(running_condition, ["a", "b"])
    assert not satisfies_muller(running_condition, ["a"])
    assert not satisfies_muller(running_condition, [])


def test_satisfies_muller_rejects_foreign_letters(running_condition):
    with pytest.raises(ConditionError):
        satisfies_muller(running_condition, ["d"])
    other = Alphabet("ab").letters(["a"])
    with pytest.raises(ConditionError):
        satisfies_muller(running_condition, other)


def test_muller_condition_names_the_first_duplicate():
    alphabet = Alphabet("abc")
    with pytest.raises(ConditionError, match=r"^duplicate accepting set \{a,b\}$"):
        MullerCondition(alphabet, [["a", "b"], ["c"], ["b", "a"], ["c"]])
    with pytest.raises(ConditionError, match=r"^duplicate accepting set \{c\}$"):
        MullerCondition(alphabet, [["c"], ["a"], ["c"], ["a"]])
    assert MullerCondition(alphabet, [["a"], ["a", "b"]]).masks == {0b001, 0b011}


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x85", "\u2028"])
def test_alphabet_refuses_a_line_break_in_code(brk):
    # A built automaton's HOA `AP:` line would split at the break, so the
    # alphabet itself refuses it, as a condition document does.
    from mullergames.automata import export_hoa
    from mullergames.construction import build_parity_automaton

    letter = f"a{brk}b"
    message = f"^alphabet letter {re.escape(repr(letter))} holds a line break$"
    with pytest.raises(ConditionError, match=message):
        export_hoa(
            build_parity_automaton(MullerCondition(Alphabet([letter, "c"]), [[letter], ["c"]]))
        )
    with pytest.raises(ConditionError, match=message):
        Alphabet(["", "x", letter, f"{letter}!"])
    assert Alphabet(["", "a b", "a\tb"]).symbols == ("", "a b", "a\tb")


def test_satisfies_rabin_examples():
    assert satisfies_rabin(RUNNING_PAIRS, ["gamma"])
    # alpha is red for both pairs
    assert not satisfies_rabin(RUNNING_PAIRS, ["alpha"])
    # beta is green for the first pair and delta is orange there
    assert satisfies_rabin(RUNNING_PAIRS, ["beta", "delta"])
    with pytest.raises(ConditionError):
        satisfies_rabin(RUNNING_PAIRS, [])


def test_rabin_pair_invariants():
    with pytest.raises(ConditionError):
        RabinCondition(NODES, [(["alpha"], ["alpha"])])
    assert pair_colour(RUNNING_PAIRS, 0, "beta") == "green"
    assert pair_colour(RUNNING_PAIRS, 0, "alpha") == "red"
    assert pair_colour(RUNNING_PAIRS, 0, "delta") == "orange"


def test_rabin_pairs_given_as_masks():
    # beta = 1 << 1, and alpha, gamma, eps, zeta = 1 << 0, 2, 4, 5.
    masks = RabinCondition(NODES, [(0b10, 0b110101), (0b100, 0b1011)])
    assert masks == RUNNING_PAIRS
    assert masks.pairs == ((0b10, 0b110101), (0b100, 0b1011))
    as_sets = [(NODES.from_mask(g), NODES.from_mask(r)) for g, r in masks.pairs]
    assert RabinCondition(NODES, as_sets) == masks
    assert NODES.letters(0b110101) == NODES.from_mask(0b110101)
    assert NODES.letters(0b110101).names() == ("alpha", "gamma", "eps", "zeta")
    for green, red in ((1 << 6, 0), (0, 1 << 6), (-1, 0)):
        with pytest.raises(ConditionError, match="^mask out of range for this alphabet$"):
            RabinCondition(NODES, [(green, red)])
    with pytest.raises(ConditionError, match="^mask out of range for this alphabet$"):
        NODES.letters(1 << 6)
    with pytest.raises(ConditionError, match="must be disjoint"):
        RabinCondition(NODES, [(0b11, 0b110)])


def test_red_growth_only_turns_pairs_rejecting():
    # Adding a colour of C to some red set can only flip that pair from
    # accepting to rejecting, never the other way round.
    rng = random.Random(7)
    for _ in range(200):
        n_pairs = rng.randint(1, 3)
        pairs = []
        for _ in range(n_pairs):
            green = [c for c in NODES if rng.random() < 0.3]
            red = [c for c in NODES if c not in green and rng.random() < 0.3]
            pairs.append((green, red))
        cond = RabinCondition(NODES, pairs)
        c_letters = [c for c in NODES if rng.random() < 0.5] or ["alpha"]
        cmask = NODES.letters(c_letters).mask
        for j in range(n_pairs):
            before = pair_accepts_mask(cond, j, cmask)
            for letter in c_letters:
                green, red = letter_pairs(cond)[j]
                if letter in green:
                    continue
                grown = RabinCondition(
                    NODES,
                    [
                        (g, r) if i != j else (g, list(r) + [letter])
                        for i, (g, r) in enumerate(letter_pairs(cond))
                    ],
                )
                after = pair_accepts_mask(grown, j, cmask)
                assert not after
                assert before or not after


def test_satisfies_parity_examples():
    one = ParityCondition(Alphabet(["x"]), {"x": 2})
    assert satisfies_parity(one, ["x"])
    two = ParityCondition(Alphabet(["x", "y"]), {"x": 1, "y": 2})
    assert satisfies_parity(two, ["x", "y"])
    odd = ParityCondition(Alphabet(["x"]), {"x": 1})
    assert not satisfies_parity(odd, ["x"])
    with pytest.raises(ConditionError):
        satisfies_parity(odd, [])


def test_parity_requires_total_priorities():
    with pytest.raises(ConditionError):
        ParityCondition(Alphabet(["x", "y"]), {"x": 1})
    with pytest.raises(ConditionError):
        ParityCondition(Alphabet(["x"]), {"x": 1, "y": 2})


def test_restrict_examples(running_condition):
    to_ab = restrict(running_condition, ["a", "b"])
    assert {m.names() for m in to_ab.members()} == {("a", "b"), ("b",)}
    full = restrict(running_condition, ["a", "b", "c"])
    assert full == running_condition
    to_c = restrict(running_condition, ["c"])
    assert to_c.members() == ()


def test_parity_mask_and_restriction_refuse_the_empty_set(running_condition):
    with pytest.raises(ConditionError, match="empty letter set has no maximal priority"):
        ParityCondition(Alphabet(["x"]), {"x": 1}).accepts_mask(0)
    with pytest.raises(ConditionError, match="cannot restrict a condition to the empty letter set"):
        restrict(running_condition, [])


def test_restrict_composes(running_condition):
    rng = random.Random(11)
    alphabet = running_condition.alphabet
    for _ in range(50):
        m1 = rng.randrange(1, 8)
        m2_bits = [s for i, s in enumerate(alphabet.symbols) if m1 >> i & 1]
        m2 = [s for s in m2_bits if rng.random() < 0.7] or m2_bits[:1]
        once = restrict(restrict(running_condition, alphabet.from_mask(m1)), m2)
        direct = restrict(running_condition, m2)
        assert once == direct


def test_inf_set_examples():
    assert inf_set(LassoWord.from_letters("", "ab")) == {"a", "b"}
    assert inf_set(LassoWord.from_letters("ccc", "b")) == {"b"}
    assert inf_set(LassoWord.from_letters("", "aab")) == {"a", "b"}
    with pytest.raises(ConditionError):
        LassoWord.from_letters("a", "")


def test_muller_satisfaction_stable_under_rotation_and_pumping(running_condition):
    rng = random.Random(3)
    letters = running_condition.alphabet.symbols
    for _ in range(100):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        base = satisfies_muller(running_condition, inf_set(LassoWord(u, v)))
        k = rng.randrange(len(v))
        rotated = LassoWord(u + v[:k], v[k:] + v[:k])
        pumped = LassoWord(u, v + v)
        assert satisfies_muller(running_condition, inf_set(rotated)) == base
        assert satisfies_muller(running_condition, inf_set(pumped)) == base


def test_muller_condition_validation():
    with pytest.raises(ConditionError):
        MullerCondition(Alphabet("ab"), [[]])
    with pytest.raises(ConditionError):
        MullerCondition(Alphabet("ab"), [["a"], ["a"]])
    with pytest.raises(ConditionError):
        Alphabet([])
    with pytest.raises(ConditionError):
        Alphabet(["a", "a"])


def test_rabin_from_parity_matches_parity():
    rng = random.Random(13)
    colours = Alphabet(["c0", "c1", "c2", "c3"])
    for _ in range(50):
        prios = {c: rng.randint(0, 5) for c in colours}
        parity = ParityCondition(colours, prios)
        rabin = rabin_from_parity(parity)
        for mask in range(1, 16):
            letters = colours.from_mask(mask)
            assert satisfies_parity(parity, letters) == satisfies_rabin(rabin, letters)


def test_condition_file_round_trip(tmp_path, running_condition):
    doc = {"alphabet": ["a", "b", "c"], "accepting": [["a", "b"], ["a", "c"], ["b"]]}
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(doc))
    assert load_condition(str(path)) == running_condition


def test_condition_file_rejects_duplicates_and_junk(tmp_path):
    with pytest.raises(ConditionError):
        condition_from_dict({"alphabet": ["a"], "accepting": [["a"], ["a"]]})
    with pytest.raises(ConditionError):
        condition_from_dict({"alphabet": ["a"]})
    with pytest.raises(ConditionError):
        condition_from_dict({"alphabet": "ab", "accepting": []})
    with pytest.raises(ConditionError):
        condition_from_dict({"alphabet": ["a"], "accepting": [["b"]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConditionError):
        load_condition(str(bad))


def test_condition_letters_may_hold_spaces_and_tabs_or_be_empty():
    doc = {"alphabet": ["", "a b", "c\td"], "accepting": [[""], ["a b", "c\td"]]}
    assert condition_from_dict(doc).alphabet.symbols == ("", "a b", "c\td")


def test_conditions_print_by_name_and_hash_by_content(running_condition):
    letters = running_condition.alphabet
    assert repr(letters) == "Alphabet(['a', 'b', 'c'])"
    assert repr(letters.letters(["c", "a"])) == "{a,c}"
    assert repr(running_condition) == "MullerCondition(Alphabet(['a', 'b', 'c']), [2, 3, 5])"
    same = MullerCondition(Alphabet("abc"), [["b"], ["a", "c"], ["a", "b"]])
    assert same == running_condition and hash(same) == hash(running_condition)
    assert repr(RabinCondition(Alphabet("xy"), [(["x"], ["y"])])) == (
        "RabinCondition(Alphabet(['x', 'y']), (({x}, {y}),))"
    )
    assert repr(ParityCondition(Alphabet("xy"), {"x": 1, "y": 2})) == (
        "ParityCondition(Alphabet(['x', 'y']), {'x': 1, 'y': 2})"
    )
