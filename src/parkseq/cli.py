"""Command-line front end: simulate, check, enumerate, count, verify.

Exit codes: 0 success or predicate true, 1 predicate false (a failed parking
counts), 2 usage error (an input too large to compute with or to hold in
memory too), 3 verification mismatch, 4 enumeration budget exceeded, 141
(128 + SIGPIPE, as for a process the signal ends) with nothing on stderr when
the reader closes stdout early (``parkseq enumerate ... | head``).

Every answer takes one path.  A handler returns its document (``params``,
``result`` and, for verify, ``records``), its text lines and its exit code;
``run`` prints ``{"command": ..., **document}`` under ``--json``, else the
lines, and ``enumerate --out FILE`` writes the file the same way, the
document when FILE ends in ``.json``.  The text lines are built as they are
printed, so ``--json`` builds none.

Each flag is declared once, in ``_FLAGS``: its type, default, help and any
second spelling.  ``_COMMANDS`` gives each command its flags: ``simulate`` and
``verify`` name their own, ``check`` and ``enumerate`` add the flags their
``--family`` choices need or read in ``_FAMILIES``, ``count`` has only the
flags its ``--formula`` choices read in ``_FORMULAS``, and every command takes
``--json``.  A choice refuses a flag that only other choices read, set to
anything but its default, as a usage error.

Importing this module loads :mod:`parkseq.core`, :mod:`parkseq.classify`
(with :mod:`parkseq.biject`, which it imports) and :mod:`parkseq.count`,
which ``simulate``, ``check`` and ``count`` use, and builds no parser.
``enumerate`` loads :mod:`parkseq.enumeration` and ``verify`` loads
:mod:`parkseq.verify` when they run.  One argparse tree serves the process.
Its commands' parsers, whose defaults set ``command`` and ``func``, start
with no arguments, and each gets them the first time it is used;
``verify``'s choices and ``--seed`` default are read from
:mod:`parkseq.verify` then.  A request whose first word is a command is
parsed by that command's parser alone.  The whole tree, every command's
parser completed first, parses every other request (help, a missing or
unknown command) and every request that the command's parser leaves
arguments over from, so argparse's messages come from one place.  Each
parse returns a fresh namespace and every default is immutable, so no state
passes from one call to the next; handlers may write to their own namespace
but must never mutate a parser.  Every ``--json`` document is printed by
one encoder, which checks for no cycles: a document is a tree that its
handler has just built.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

from .classify import (
    is_increasing_ps,
    is_k_strong,
    is_parking_sequence,
    is_permutation_invariant,
    is_strong_ps,
    is_u_parking_function,
)
from .core import (
    DEFAULT_BUDGET, BudgetExceededError, FailureReason, ParkingInstance, ParkOutcome, _positive, simulate,
)
from .count import (
    count_inv_constant,
    count_inv_strictly_increasing,
    count_inv_two_block,
    count_ips_constant,
    count_ips_determinant,
    count_ps_product,
    count_sps,
    count_sps_k,
    fuss_catalan,
)
EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_BROKEN_PIPE = 141

# what a handler returns: its document past "command", its text lines, its exit code
_Answer = tuple[dict, Iterable, int]


def _instance(args) -> ParkingInstance:
    return ParkingInstance(args.lengths, args.trailer)


# family: (flags it needs, flags it reads besides, check predicate or None,
# enumerator).  The predicate takes the parsed arguments; the enumerator
# takes :mod:`parkseq.enumeration`, which ``enumerate`` loads when it runs,
# and the parsed arguments.  ``check`` offers the families with a
# predicate.  The enumerator gives the family's listing.
_FAMILIES = {
    "ps": (("lengths",), ("trailer",), lambda a: is_parking_sequence(_instance(a), a.prefs),
           lambda e, a: e._ps_walk(_instance(a), a.budget)),
    "ips": (("lengths",), ("trailer",), lambda a: is_increasing_ps(_instance(a), a.prefs),
            lambda e, a: e._ips(_instance(a), a.budget)),
    "inv": (("lengths",), ("trailer",), lambda a: is_permutation_invariant(_instance(a), a.prefs),
            lambda e, a: e._inv(_instance(a), a.budget)),
    "strong": (("lengths",), ("trailer", "definitional"),
               lambda a: is_strong_ps(a.lengths, a.trailer, a.prefs, definitional=a.definitional),
               lambda e, a: e._strong(a.lengths, a.trailer, a.budget, a.definitional)),
    "kstrong": (("n", "k"), ("trailer", "definitional"),
                lambda a: is_k_strong(a.n, a.k, a.trailer, a.prefs, definitional=a.definitional),
                lambda e, a: e._kstrong(a.n, a.k, a.trailer, a.budget, a.definitional)),
    "upf": (("boundary",), (), lambda a: is_u_parking_function(a.boundary, a.prefs),
            lambda e, a: e._upf(a.boundary, a.budget)),
    "paths": (("boundary",), ("width",), None, lambda e, a: e._paths(a.boundary, a.width, a.budget)),
}

# formula: (the flags it reads, in the order of the JSON params and the
# positional arguments, count function); --trailer, which defaults to 1, is never missing
_FORMULAS = {
    "ps": (("lengths", "trailer"), count_ps_product),
    "ips-det": (("lengths", "trailer"), count_ips_determinant),
    "ips-const": (("k", "n", "trailer"), count_ips_constant),
    "fuss": (("k", "n"), fuss_catalan),
    "inv-inc": (("n", "trailer"), count_inv_strictly_increasing),
    "inv-const": (("n", "trailer"), count_inv_constant),
    "inv-two-block": (("n", "r", "trailer"), count_inv_two_block),
    "sps": (("lengths", "trailer"), count_sps),
    "sps-k": (("n", "k", "trailer"), count_sps_k),
}


def _need(args, needs: Sequence[str], reads: Sequence[str] = ()) -> None:
    """Refuse a flag that only other choices of the selector read, when set; then a needed one unset.

    A flag is set when it holds neither its default nor False, a switch's.
    """
    selector = _COMMANDS[args.command][2]
    what = f"--{selector} {getattr(args, selector)}"
    unread = [flag for flag in _choice_flags(args.command) if flag not in needs and flag not in reads
              and getattr(args, flag) is not False and getattr(args, flag) != _FLAGS[flag].get("default")]
    if unread:
        raise ValueError(f"{what} does not take " + ", ".join(f"--{flag}" for flag in unread))
    missing = [flag for flag in needs if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{what} needs " + ", ".join(f"--{flag}" for flag in missing))


@functools.cache
def _choice_flags(command: str) -> tuple[str, ...]:
    """The flags that some choice of ``command``'s selector reads, in ``_FLAGS`` order."""
    return tuple(flag for flag in _FLAGS if any(flag in flags for flags in _COMMANDS[command][3].values()))


def _ints_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _positive_int(text: str) -> int:
    """The ``--max-n`` and ``--budget`` values: one integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return _positive(value, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_JSON = json.JSONEncoder(indent=2, check_circular=False)


def _print_answer(command: str, doc: dict, lines: Iterable, as_json: bool, file=None) -> None:
    """Print one answer to ``file`` (stdout when None): the document, else the text lines."""
    if as_json:
        print(_JSON.encode({"command": command, **doc}), file=file)
    else:
        for line in lines:
            print(line, file=file)


def _street_lines(instance: ParkingInstance, prefs, outcome: ParkOutcome) -> list[str]:
    """Fixed-width text diagram of the street after the process stops.

    One cell per spot: the trailer as T, parked cars as C1, C2, ... and empty
    spots as dots, with the spot numbers beneath.  A failed run gets a marker
    under the blocking spot plus a one-line explanation.  ``outcome`` is
    :func:`parkseq.core.simulate` of ``instance`` and ``prefs``.
    """
    spots = instance.street_length
    labels = [""] * (spots + 1)
    for spot in range(1, instance.trailer_z):
        labels[spot] = "T"
    for car, (start, end) in enumerate(outcome.placements, start=1):
        for spot in range(start, end + 1):
            labels[spot] = f"C{car}"
    width = max(2, len(str(spots)), 1 + len(str(instance.car_count)))
    cells = "|" + "|".join((labels[s] or ".").rjust(width) for s in range(1, spots + 1)) + "|"
    numbers = "|" + "|".join(str(s).rjust(width) for s in range(1, spots + 1)) + "|"
    lines = [cells, numbers]
    if not outcome.success:
        marker, reason = _failure(instance, prefs, outcome)
        lines.append(" " * (1 + (marker - 1) * (width + 1)) + "^" * width)
        lines.append(f"car {outcome.failed_car} cannot park: {reason}")
    return lines


def _failure(instance: ParkingInstance, prefs, outcome: ParkOutcome) -> tuple[int, str]:
    """The spot a failed run marks under the street, and why its car cannot park."""
    pref = prefs[outcome.failed_car - 1]
    if outcome.reason is FailureReason.OFF_STREET:
        return min(pref, instance.street_length), f"no empty spot at or past {pref}"
    if outcome.blocked_spot is not None:
        return outcome.blocked_spot, f"collision at spot {outcome.blocked_spot}"
    start = outcome.attempted_start
    end = start + instance.lengths[outcome.failed_car - 1] - 1
    return start, f"needs spots {start}-{end} but the street ends at {instance.street_length}"


def _outcome_result(instance: ParkingInstance, outcome: ParkOutcome) -> dict:
    result = {"street_length": instance.street_length, "success": outcome.success,
              "placements": outcome.placements}
    if outcome.success:
        result["configuration"] = outcome.configuration
    else:
        result.update(failed_car=outcome.failed_car, reason=outcome.reason,
                      blocked_spot=outcome.blocked_spot)
    return result


def _describe_outcome(instance: ParkingInstance, prefs, outcome: ParkOutcome) -> Iterator[str]:
    if instance.trailer_z > 1:
        yield f"spots 1-{instance.trailer_z - 1}: trailer"
    for car, (start, end) in enumerate(outcome.placements, start=1):
        yield f"car {car} -> spots {start}-{end}"
    if outcome.success:
        order = ["T"] if instance.trailer_z > 1 else []
        yield "configuration: " + " ".join(order + [f"C{car}" for car in outcome.configuration])
    else:
        car = outcome.failed_car
        off_street = outcome.reason is FailureReason.OFF_STREET
        reason = "off street" if off_street else _failure(instance, prefs, outcome)[1]
        yield f"car {car} cannot park: {reason} (preference {prefs[car - 1]})"


def _cmd_simulate(args) -> _Answer:
    instance = ParkingInstance(args.lengths, args.trailer)
    outcome = simulate(instance, args.prefs)
    params = {"lengths": args.lengths, "trailer": args.trailer, "prefs": args.prefs}
    result = _outcome_result(instance, outcome)
    if args.render:
        result["diagram"] = lines = _street_lines(instance, args.prefs, outcome)
    else:
        lines = _describe_outcome(instance, args.prefs, outcome)
    return {"params": params, "result": result}, lines, EXIT_OK if outcome.success else EXIT_FALSE


def _cmd_check(args) -> _Answer:
    needs, reads, predicate, _ = _FAMILIES[args.family]
    if args.family == "kstrong" and args.k is None:  # its car count defaults to the number of preferences
        args.k = len(args.prefs)
    _need(args, needs, reads)
    params = {"family": args.family, "prefs": args.prefs, "trailer": args.trailer}
    params.update((flag, getattr(args, flag)) for flag in needs)
    value = predicate(args)
    lines = ["true" if value else "false"]
    return {"params": params, "result": {"value": value}}, lines, EXIT_OK if value else EXIT_FALSE


def _cmd_enumerate(args) -> _Answer:
    from . import enumeration

    needs, reads, _, enumerator = _FAMILIES[args.family]
    _need(args, needs, reads)
    listing = enumerator(enumeration, args)  # refused here, before --out opens its file
    if args.out is None:
        return (*_listing_answer(listing, args.count_only), EXIT_OK)
    try:  # a failed open, write or close is the same usage error
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _print_answer("enumerate", *_listing_answer(listing, args.count_only),
                          args.out.endswith(".json"), handle)
    except BrokenPipeError:  # FILE is a pipe whose reader left: the quiet 141
        raise
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    doc, _ = _listing_answer(listing, True)
    return doc, [f"wrote {listing.cardinality} members to {args.out}"], EXIT_OK


def _listing_answer(listing, count_only: bool) -> tuple[dict, Iterable]:
    """The enumerate document and text lines: the cardinality alone, else every member as a CSV row."""
    params = dict(listing.params, family=listing.family)
    if count_only:
        return {"params": params, "result": {"cardinality": listing.cardinality}}, [listing.cardinality]
    members = listing.members
    result = {"cardinality": listing.cardinality, "members": members}
    return {"params": params, "result": result}, (",".join(map(str, member)) for member in members)


def _cmd_count(args) -> _Answer:
    flags, formula = _FORMULAS[args.formula]
    _need(args, flags)
    params = {flag: getattr(args, flag) for flag in flags}
    value = formula(*params.values())
    return {"params": dict(params, formula=args.formula), "result": {"value": value}}, [value], EXIT_OK


def _cmd_verify(args) -> _Answer:
    from .verify import run_suite

    records = run_suite(args.suite, max_n=args.max_n, seed=args.seed, budget=args.budget)
    failed = sum(not record.passed for record in records)
    doc = {
        "params": {"suite": args.suite, "max_n": args.max_n, "seed": args.seed},
        "result": {"total": len(records), "passed": len(records) - failed, "failed": failed},
        "records": [{"check": record.check, "params": record.params, "expected": record.expected,
                     "computed": record.computed, "pass": record.passed, "note": record.note}
                    for record in records],
    }
    return doc, _verify_lines(args.suite, records, failed), EXIT_MISMATCH if failed else EXIT_OK


def _verify_lines(suite: str, records, failed: int) -> Iterator[str]:
    """One line per record, a failed one with both values, then the tally."""
    for record in records:
        params = " ".join(f"{key}={value}" for key, value in record.params.items())
        line = f"{'PASS' if record.passed else 'FAIL'}  {record.check}  {params}"
        yield line if record.passed else f"{line}  expected={record.expected} computed={record.computed}"
    yield f"suite {suite}: {len(records)} checks, {len(records) - failed} passed, {failed} failed"


# flag: its add_argument keywords, and "aliases", its spellings past
# --flag-name.  A command takes its flags in this order.
_FLAGS = {
    "family": {"help": "the family to test or list"},
    "formula": {"help": "the closed form to evaluate"},
    "suite": {"help": "the cross-checks to run; all is the repository gate"},
    "lengths": {"type": _ints_csv, "help": "comma-separated car lengths, e.g. 1,2,2,3"},
    "trailer": {"aliases": ("--z",), "type": int, "default": 1,
                "help": "trailer parameter z; spots 1..z-1 start occupied (default 1)"},
    "prefs": {"type": _ints_csv, "help": "comma-separated preferred spots, one per car"},
    "n": {"type": int, "help": "total car length (kstrong, sps-k), else car count"},
    "k": {"type": int, "help": "car count (kstrong, sps-k; check defaults it to the number of"
                               " preferences), car length (ips-const) or order (fuss)"},
    "r": {"type": int, "help": "leading block length (inv-two-block)"},
    "boundary": {"type": _ints_csv, "help": "nondecreasing bounds (upf) or path boundary (paths)"},
    "width": {"type": int, "help": "east steps of the path rectangle (paths)"},
    "count_only": {"action": "store_true", "help": "print only the cardinality"},
    "max_n": {"type": _positive_int, "help": "cap the sweep size where applicable"},
    "seed": {"type": int, "help": "seed for sampled checks"},
    "budget": {"type": _positive_int, "default": DEFAULT_BUDGET, "help": "candidate-space cap"},
    "definitional": {"action": "store_true", "help": "strong, kstrong: sweep every rearrangement"
                                                     " or composition instead of the characterization"},
    "out": {"help": "write the listing to FILE (.json, else CSV rows)"},
    "render": {"action": "store_true", "help": "include the text diagram"},
    "json": {"action": "store_true", "help": "machine-readable output"},
}

# command: (help, handler, selector flag, {choice: the flags it reads}, own
# flags, the own flags argparse requires); the selector is required and
# takes the choices.  verify's choices, its suites, are read from
# parkseq.verify when its parser gets its arguments, as is its --seed default.
_COMMANDS = {
    "simulate": ("run the parking process once", _cmd_simulate, None, {},
                 ("lengths", "trailer", "prefs", "render"), ("lengths", "prefs")),
    "check": ("test one sequence against a family", _cmd_check, "family",
              {name: needs + reads for name, (needs, reads, check, _) in _FAMILIES.items() if check},
              ("prefs",), ("prefs",)),
    "enumerate": ("list a family exhaustively", _cmd_enumerate, "family",
                  {name: needs + reads for name, (needs, reads, _, _) in _FAMILIES.items()},
                  ("count_only", "budget", "out"), ()),
    "count": ("evaluate a closed-form count", _cmd_count, "formula",
              {name: flags for name, (flags, _) in _FORMULAS.items()}, (), ()),
    "verify": ("run formula-versus-sweep cross-checks", _cmd_verify, "suite", {},
               ("max_n", "seed", "budget"), ()),
}


@functools.cache
def _tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``parkseq`` parser and its command parsers by name, which have no arguments yet."""
    parser = argparse.ArgumentParser(
        prog="parkseq",
        description="Exact tools for parking sequences of cars with lengths behind a trailer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, *_) in _COMMANDS.items():
        commands.add_parser(command, help=text).set_defaults(command=command, func=handler)
    return parser, commands.choices


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """``command``'s parser in the tree, given its arguments on first use (module docstring)."""
    _, _, selector, choices, own, required = _COMMANDS[command]
    sub = _tree()[1][command]
    if command == "verify":
        from .verify import DEFAULT_SEED, SUITE_NAMES

        choices = dict.fromkeys(SUITE_NAMES, ())
        sub.set_defaults(seed=DEFAULT_SEED)  # the default of --seed, added below
    takes = {selector, *own, *(flag for flags in choices.values() for flag in flags), "json"}
    for flag in filter(takes.__contains__, _FLAGS):
        keywords = dict(_FLAGS[flag], required=flag in (selector, *required))
        if flag == selector:
            keywords["choices"] = choices
        names = (f"--{flag.replace('_', '-')}", *keywords.pop("aliases", ()))
        sub.add_argument(*names, **keywords)
    return sub


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole ``parkseq`` tree, every command's parser given its arguments (module docstring)."""
    for command in _COMMANDS:
        _command_parser(command)
    return _tree()[0]


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace of one request, by its command's parser when it names one (module docstring)."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, answer and print (module docstring); returns the exit code, never SystemExit."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        doc, lines, code = args.func(args)
        _print_answer(args.command, doc, lines, args.json)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # a MemoryError carries no text: huge car lengths ask for a free-spot
        # mask that size, and --render for one cell per spot, trailer included
        print(f"error: {str(exc) or 'input too large to hold in memory'}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the
        # interpreter's own flush at exit cannot fail and print again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
