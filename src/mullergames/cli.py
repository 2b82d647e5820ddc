"""Command-line interface: inspect Zielonka trees, build automata, certify
them on lasso words, solve games with minimal memory, and print the
succinctness separation report.  One parser, `PARSER`, built at import
from the command table `COMMANDS`, serves every `main` call.  Each `cmd_*`
handler writes its files and returns (exit code, stdout text); only `main`
writes stdout and stderr, so a typed error leaves stdout empty."""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from typing import Optional, Sequence

from .automata import (
    AutomatonError,
    DeterministicLassoChecker,
    RabinLassoChecker,
    export_dot,
    export_hoa,
    has_duplicated_edges,
    lyndon_words,
    parse_hoa,
)
from .conditions import (
    ConditionError,
    LassoWord,
    ParityCondition,
    load_condition,
    satisfies_muller,
)
from .construction import (
    build_gfg_rabin,
    build_parity_automaton,
    provenance_document,
)
from .games import (
    GameError,
    is_chromatic,
    load_game,
    memory_to_json,
    solve_muller_game,
)
from .succinctness import (
    SearchBudgetError,
    report_to_dict,
    report_to_text,
    succinctness_report,
)
from .zielonka import build_zielonka

# `check` refuses to run more lassos than this (10^7 take minutes), or to read
# more period letters than two or more letters ever do within it (two, bound 19).
LASSO_LIMIT, LETTER_LIMIT = 10**7, 132_120_590


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(path: str, doc) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_zielonka(args) -> tuple[int, str]:
    condition = load_condition(args.condition)
    tree = build_zielonka(condition)
    if args.dot:
        _write(args.dot, tree.to_dot())
    eta = tree.eta()
    lines = ["node  label          kind    eta"]
    labels: dict[int, str] = {}  # letter mask -> its text, made once per label
    for n in range(len(tree)):
        mask = tree.mask(n)
        label = labels.get(mask)
        if label is None:
            label = labels[mask] = repr(tree.label(n))
        kind = "round" if tree.is_round(n) else "square"
        lines.append(f"{tree.node_name(n):<5} {label:<14} {kind:<7} {eta.get(n, '-')}")
    lines.append(f"memtree = {tree.memtree()}\n")
    return 0, "\n".join(lines)


def cmd_build(args) -> tuple[int, str]:
    condition = load_condition(args.condition)
    if args.kind == "gfg-rabin":
        gfg = build_gfg_rabin(condition)
        automaton = gfg.merged if args.simplify else gfg.automaton
        if args.simplify and has_duplicated_edges(automaton):
            raise AutomatonError("internal: the simplified automaton keeps duplicated edges")
        summary = f"{len(automaton.states)} states, {len(automaton.acceptance)} Rabin pairs"
        if args.provenance:
            _write_json(args.provenance, provenance_document(gfg))
    else:
        if args.simplify:
            raise AutomatonError("--simplify applies to gfg-rabin only")
        if args.provenance:
            raise AutomatonError("--provenance applies to gfg-rabin only")
        automaton = build_parity_automaton(condition)
        prios = automaton.acceptance.priorities
        summary = f"{len(automaton.states)} states, priorities {min(prios)}..{max(prios)}"
    if args.hoa:
        _write(args.hoa, export_hoa(automaton))
    if args.dot:
        _write(args.dot, export_dot(automaton))
    return 0, summary + "\n"


def sweep_size(letters: int, bound: int) -> tuple[int, int]:
    """How many lassos `check` runs and period letters it reads: each of the
    1 + |A| + |A|^2 prefixes with the |A|^L periods of each length L <= bound."""
    prefixes = 1 + letters + letters * letters
    if letters == 1:
        return prefixes * bound, prefixes * bound * (bound + 1) // 2
    periods = [letters**n for n in range(1, bound + 1)]
    return prefixes * sum(periods), prefixes * sum(n * p for n, p in enumerate(periods, 1))


def cmd_check(args) -> tuple[int, str]:
    """Certify automata against L_F on every lasso u v^omega with |u| <= 2
    and 1 <= |v| <= bound, and report the first failure in the order of u,
    then |v|, then v, then checker.

    Each checker first gives every state's verdict on every Lyndon root of
    length <= bound, one search per root.  A checker with a start state, a
    move in every cell and each root's verdict from every state agrees on
    every lasso (`_LassoChecker.agrees_on_roots`).  Only a checker that
    disagrees runs the per-lasso sweep, which names its first failure: the
    expected verdict once per period, and the checker asked once per period
    and class of prefixes that reach the same states.  `self` checks the GFG
    Rabin automaton, the parity automaton and the resolver's leaf walk; a
    HOA file is checked alone, as `parity` when it has parity acceptance
    and as `rabin` otherwise, and nothing else is built for it.
    """
    condition = load_condition(args.condition)
    bound = args.bound if args.bound is not None else 2 * len(condition.alphabet)
    if bound < 1:
        raise ConditionError(f"--bound must be at least 1, not {bound}")
    letters = len(condition.alphabet)
    # Two or more letters pass the limit from bound 20 on; counting period
    # lengths up to 64 keeps the number short.
    counted = bound if letters == 1 else min(bound, 64)
    lassos, read = sweep_size(letters, counted)
    more = "more than " if counted < bound else ""
    for verb, size, what, limit in (
        ("run", lassos, "lassos", LASSO_LIMIT), ("read", read, "period letters", LETTER_LIMIT)
    ):
        if size > limit:
            raise ConditionError(
                f"check would {verb} {more}{size:,} {what} (bound {bound}), over the "
                f"limit of {limit:,}; pass a smaller --bound"
            )
    if args.automaton == "self":
        # One tree serves all three automata, and the parity automaton is
        # read off the resolver's moves: each leaf's row is made once.
        gfg = build_gfg_rabin(build_zielonka(condition))
        checkers = {
            "rabin": RabinLassoChecker.from_automaton(gfg.automaton),
            "parity": DeterministicLassoChecker.from_automaton(build_parity_automaton(gfg)),
            "resolver": DeterministicLassoChecker.from_automaton(gfg.resolver),
        }
    else:
        with open(args.automaton, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as err:
                raise AutomatonError(f"{args.automaton}: not UTF-8 text ({err})") from None
        automaton = parse_hoa(text)
        if automaton.alphabet != condition.alphabet:
            raise AutomatonError("checked automaton runs over a different alphabet")
        if isinstance(automaton.acceptance, ParityCondition):
            checkers = {"parity": DeterministicLassoChecker.from_automaton(automaton)}
        else:
            checkers = {"rabin": RabinLassoChecker.from_automaton(automaton)}
    # The sum of a root's distinct letter bits is the mask of its letters.
    roots = [
        (root, condition.accepts_mask(sum({1 << a for a in root})))
        for root in lyndon_words(letters, bound)
    ]
    suspects = [
        (c, checker)
        for c, checker in enumerate(checkers.values())
        if not checker.agrees_on_roots(roots)
    ]
    found = []  # each failing checker's least (prefix index, period index, checker index)
    if suspects:
        symbols = condition.alphabet.symbols
        prefixes = [p for length in range(3) for p in itertools.product(symbols, repeat=length)]
        periods = [
            (period, satisfies_muller(condition, period))
            for length in range(1, bound + 1)
            for period in itertools.product(symbols, repeat=length)
        ]
        for c, checker in suspects:
            # Prefixes that reach the same states get the same verdicts: ask the first.
            classes: dict[tuple[int, ...], int] = {}
            for i, prefix in enumerate(prefixes):
                classes.setdefault(checker.states_after(prefix), i)
            for i, k in itertools.product(classes.values(), range(len(periods))):
                if checker.accepts(LassoWord(prefixes[i], periods[k][0])) != periods[k][1]:
                    found.append((i, k, c))
                    break
    if found:
        i, k, c = min(found)
        period, expected = periods[k]
        w, name = LassoWord(prefixes[i], period), list(checkers)[c]
        return 1, f"counterexample: {w!r} expected {expected} but {name} gives {not expected}\n"
    return 0, f"pass: {lassos} lassos agree with the condition (bound {bound})\n"


def cmd_solve(args) -> tuple[int, str]:
    condition = load_condition(args.condition)
    game = load_game(args.game, condition)
    solution = solve_muller_game(game)
    memory = solution.memory
    if memory is not None and args.memory_out:
        _write(args.memory_out, memory_to_json(memory))
    out = f"winner: {solution.winner}\n"
    if memory is not None:
        chromatic = "yes" if is_chromatic(memory) else "no"
        out += f"memory size: {memory.size}\nchromatic: {chromatic}\n"
    return 0, out


def cmd_succinctness(args) -> tuple[int, str]:
    row = succinctness_report(args.n, exact_chi=args.exact_chi)
    if args.json:
        _write_json(args.json, report_to_dict(row))
    return 0, report_to_text([row])


def _zielonka_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("condition", help="condition file (JSON)")
    p.add_argument("--dot", metavar="PATH", help="write the tree as DOT")


def _build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("condition", help="condition file (JSON)")
    p.add_argument("--kind", choices=["gfg-rabin", "parity"], required=True)
    p.add_argument("--simplify", action="store_true", help="merge duplicated edges")
    p.add_argument("--hoa", metavar="PATH", help="write the automaton as HOA v1")
    p.add_argument("--dot", metavar="PATH", help="write the automaton as DOT")
    p.add_argument(
        "--provenance", metavar="PATH", help="write the transition provenance map"
    )


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("condition", help="condition file (JSON)")
    p.add_argument(
        "--automaton",
        default="self",
        help="'self' for the built automata, or a HOA file emitted by 'build'",
    )
    p.add_argument("--bound", type=int, default=None, help="max period length")


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, help="game file (JSON)")
    p.add_argument("--condition", required=True, help="condition file (JSON)")
    p.add_argument("--memory-out", metavar="PATH", help="write the memory structure")


def _succinctness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact-chi", action="store_true", help="force the exact colouring")
    p.add_argument("--json", metavar="PATH", help="write the machine-readable report")


# name -> (help, handler, arguments), in the order `--help` lists them
COMMANDS = {
    "zielonka": ("print a condition's Zielonka tree and memtree", cmd_zielonka, _zielonka_args),
    "build": ("build the GFG Rabin or parity automaton", cmd_build, _build_args),
    "check": ("certify automata against the condition on lassos", cmd_check, _check_args),
    "solve": ("solve a Muller game and extract a memory", cmd_solve, _solve_args),
    "succinctness": ("print the separation report for F_n", cmd_succinctness, _succinctness_args),
}


def build_arg_parser() -> argparse.ArgumentParser:
    """The `mullergames` parser, with one subparser per entry of `COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="mullergames",
        description=(
            "Zielonka trees, minimal good-for-games Rabin automata, and "
            "memory-optimal Muller game solving"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        arguments(p)
        p.set_defaults(handler=handler)
    return parser


PARSER = build_arg_parser()  # from static tables; each parse makes a fresh namespace


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command `argv` names (`sys.argv[1:]` when None), write all of
    its stdout once it returns, and return its exit code: 2, with one
    `error:` line on stderr and nothing on stdout, when a typed error ends
    it, and also when the write fails, as into a pipe closed early."""
    args = PARSER.parse_args(argv)
    try:
        code, out = args.handler(args)
        raw = getattr(sys.stdout, "buffer", None)
        if isinstance(raw, io.RawIOBase):
            # Unbuffered stdout (`python -u`) hands the text to its file in
            # one raw write and drops what a short write leaves; the rest is
            # written again, so a closed pipe raises.
            data = memoryview(out.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[raw.write(data) :]
        else:
            sys.stdout.write(out)
        return code
    except (OSError, ConditionError, AutomatonError, GameError, SearchBudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
