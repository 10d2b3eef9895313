"""Command-line front end: simulate, check, enumerate, count, verify.

Exit codes: 0 success or predicate true, 1 predicate false (a failed parking
counts), 2 usage error (an input too large to compute with or to hold in
memory too), 3 verification mismatch, 4 enumeration budget exceeded, 141
(128 + SIGPIPE, as for a process the signal ends) with nothing on stderr when
the reader closes stdout early (``parkseq enumerate ... | head``).
``--json`` swaps the text output for one stable document with top-level fields
``command``, ``params``, ``result`` and, for verify, ``records``.

Each flag is declared once, in ``_FLAGS``: its type, default, help and any
second spelling.  ``_COMMANDS`` gives each command its flags: ``simulate`` and
``verify`` name their own, ``check`` and ``enumerate`` add the flags their
``--family`` choices need in ``_FAMILIES``, ``count`` has only the flags its
``--formula`` choices need in ``_FORMULAS``, and every command takes ``--json``.

The argparse tree is built once per process, on the first ``run`` call (so
importing this module builds nothing), and every later call parses with the
same parser.  ``parse_args`` returns a fresh namespace each time and every
default is immutable, so no state passes from one call to the next; handlers
may write to their own namespace but must never mutate the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .classify import (
    is_increasing_ps,
    is_k_strong,
    is_parking_sequence,
    is_permutation_invariant,
    is_strong_ps,
    is_u_parking_function,
)
from .core import FailureReason, ParkingInstance, ParkOutcome, _positive, simulate
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
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _inv,
    _ips,
    _kstrong,
    _paths,
    _ps_walk,
    _strong,
    _upf,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_BROKEN_PIPE = 141


def _instance(args) -> ParkingInstance:
    return ParkingInstance(args.lengths, args.trailer)


# family: (required flags, check predicate or None, enumerator); each callable
# takes the parsed arguments.  ``check`` offers the families with a predicate.
# The enumerator gives the listing: family, params, cardinality and members;
# each spells its members only when they are read.
_FAMILIES = {
    "ps": (("lengths",), lambda a: is_parking_sequence(_instance(a), a.prefs),
           lambda a: _ps_walk(_instance(a), a.budget)),
    "ips": (("lengths",), lambda a: is_increasing_ps(_instance(a), a.prefs),
            lambda a: _ips(_instance(a), a.budget)),
    "inv": (("lengths",), lambda a: is_permutation_invariant(_instance(a), a.prefs),
            lambda a: _inv(_instance(a), a.budget)),
    "strong": (("lengths",),
               lambda a: is_strong_ps(a.lengths, a.trailer, a.prefs, definitional=a.definitional),
               lambda a: _strong(a.lengths, a.trailer, a.budget, a.definitional)),
    "kstrong": (("n", "k"),
                lambda a: is_k_strong(a.n, a.k, a.trailer, a.prefs, definitional=a.definitional),
                lambda a: _kstrong(a.n, a.k, a.trailer, a.budget, a.definitional)),
    "upf": (("boundary",), lambda a: is_u_parking_function(a.boundary, a.prefs),
            lambda a: _upf(a.boundary, a.budget)),
    "paths": (("boundary",), None, lambda a: _paths(a.boundary, a.width, a.budget)),
}

# formula: (flags in the order of the JSON params and the positional
# arguments, count function)
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


def _need(args, what: str, flags: Sequence[str]) -> None:
    """Raise the usage error naming every required flag left unset."""
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{what} needs " + ", ".join(f"--{flag}" for flag in missing))


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


def _document(command: str, params: dict, result: dict, records=None) -> str:
    """The ``--json`` document, also written by ``enumerate --out FILE.json``."""
    doc = {"command": command, "params": params, "result": result}
    if records is not None:
        doc["records"] = records
    return json.dumps(doc, indent=2)


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
    result = {
        "street_length": instance.street_length,
        "success": outcome.success,
        "placements": outcome.placements,
    }
    if outcome.success:
        result["configuration"] = outcome.configuration
    else:
        result["failed_car"] = outcome.failed_car
        result["reason"] = outcome.reason
        result["blocked_spot"] = outcome.blocked_spot
    return result


def _describe_outcome(instance: ParkingInstance, prefs, outcome: ParkOutcome) -> list[str]:
    lines = []
    if instance.trailer_z > 1:
        lines.append(f"spots 1-{instance.trailer_z - 1}: trailer")
    for car, (start, end) in enumerate(outcome.placements, start=1):
        lines.append(f"car {car} -> spots {start}-{end}")
    if outcome.success:
        order = ["T"] if instance.trailer_z > 1 else []
        order += [f"C{car}" for car in outcome.configuration]
        lines.append("configuration: " + " ".join(order))
    else:
        car = outcome.failed_car
        off_street = outcome.reason is FailureReason.OFF_STREET
        reason = "off street" if off_street else _failure(instance, prefs, outcome)[1]
        lines.append(f"car {car} cannot park: {reason} (preference {prefs[car - 1]})")
    return lines


def _cmd_simulate(args) -> int:
    instance = ParkingInstance(args.lengths, args.trailer)
    outcome = simulate(instance, args.prefs)
    params = {"lengths": args.lengths, "trailer": args.trailer, "prefs": args.prefs}
    diagram = _street_lines(instance, args.prefs, outcome) if args.render else None
    if args.json:
        result = _outcome_result(instance, outcome)
        if diagram is not None:
            result["diagram"] = diagram
        print(_document(args.command, params, result))
    elif diagram is not None:
        print("\n".join(diagram))
    else:
        print("\n".join(_describe_outcome(instance, args.prefs, outcome)))
    return EXIT_OK if outcome.success else EXIT_FALSE


def _cmd_check(args) -> int:
    flags, predicate, _ = _FAMILIES[args.family]
    if args.k is None:  # kstrong's car count defaults to the number of preferences
        args.k = len(args.prefs)
    _need(args, f"--family {args.family}", flags)
    params = {"family": args.family, "prefs": args.prefs, "trailer": args.trailer}
    params.update((flag, getattr(args, flag)) for flag in flags)
    value = predicate(args)
    if args.json:
        print(_document("check", params, {"value": value}))
    else:
        print("true" if value else "false")
    return EXIT_OK if value else EXIT_FALSE


def _cmd_enumerate(args) -> int:
    flags, _, enumerator = _FAMILIES[args.family]
    _need(args, f"--family {args.family}", flags)
    listing = enumerator(args)  # refused here, before --out opens its file
    if args.out is None:
        _print_listing(listing, args.json, args.count_only)
        return EXIT_OK
    try:  # a failed open, write or close is the same usage error
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _print_listing(listing, args.out.endswith(".json"), args.count_only, handle)
    except BrokenPipeError:  # FILE is a pipe whose reader left: the quiet 141
        raise
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    if args.json:
        _print_listing(listing, True, True)
    else:
        print(f"wrote {listing.cardinality} members to {args.out}")
    return EXIT_OK


def _print_listing(listing, document: bool, count_only: bool, file=None) -> None:
    """Print the enumerate output of ``listing`` to ``file`` (stdout when None).

    The ``--json`` document, else the cardinality alone with ``--count-only``,
    else one CSV row per member; the members are read only when printed.
    """
    if document:
        result = {"cardinality": listing.cardinality}
        if not count_only:
            result["members"] = listing.members
        params = dict(listing.params, family=listing.family)
        print(_document("enumerate", params, result), file=file)
    elif count_only:
        print(listing.cardinality, file=file)
    else:
        for member in listing.members:
            print(",".join(str(v) for v in member), file=file)


def _cmd_count(args) -> int:
    flags, formula = _FORMULAS[args.formula]
    _need(args, f"--formula {args.formula}", flags)
    params = {flag: getattr(args, flag) for flag in flags}
    value = formula(*params.values())
    if args.json:
        print(_document("count", dict(params, formula=args.formula), {"value": value}))
    else:
        print(value)
    return EXIT_OK


def _cmd_verify(args) -> int:
    records = run_suite(args.suite, max_n=args.max_n, seed=args.seed, budget=args.budget)
    failed = [record for record in records if not record.passed]
    if args.json:
        doc = _document(
            "verify",
            {"suite": args.suite, "max_n": args.max_n, "seed": args.seed},
            {"total": len(records), "passed": len(records) - len(failed), "failed": len(failed)},
            [
                {
                    "check": record.check,
                    "params": record.params,
                    "expected": record.expected,
                    "computed": record.computed,
                    "pass": record.passed,
                    "note": record.note,
                }
                for record in records
            ],
        )
        print(doc)
    else:
        for record in records:
            tag = "PASS" if record.passed else "FAIL"
            params = " ".join(f"{key}={value}" for key, value in record.params.items())
            line = f"{tag}  {record.check}  {params}"
            if not record.passed:
                line += f"  expected={record.expected} computed={record.computed}"
            print(line)
        print(
            f"suite {args.suite}: {len(records)} checks,"
            f" {len(records) - len(failed)} passed, {len(failed)} failed"
        )
    return EXIT_MISMATCH if failed else EXIT_OK


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
    "seed": {"type": int, "default": DEFAULT_SEED, "help": "seed for sampled checks"},
    "budget": {"type": _positive_int, "default": DEFAULT_BUDGET, "help": "candidate-space cap"},
    "definitional": {"action": "store_true", "help": "strong, kstrong: sweep every rearrangement"
                                                     " or composition instead of the characterization"},
    "out": {"help": "write the listing to FILE (.json, else CSV rows)"},
    "render": {"action": "store_true", "help": "include the text diagram"},
    "json": {"action": "store_true", "help": "machine-readable output"},
}

# command: (help, handler, selector flag, {choice: the flags it needs}, own
# flags, the own flags argparse requires); the selector is required and
# takes the choices.
_COMMANDS = {
    "simulate": ("run the parking process once", _cmd_simulate, None, {},
                 ("lengths", "trailer", "prefs", "render"), ("lengths", "prefs")),
    "check": ("test one sequence against a family", _cmd_check, "family",
              {name: flags for name, (flags, check, _) in _FAMILIES.items() if check},
              ("trailer", "prefs", "definitional"), ("prefs",)),
    "enumerate": ("list a family exhaustively", _cmd_enumerate, "family",
                  {name: flags for name, (flags, _, _) in _FAMILIES.items()},
                  ("trailer", "width", "count_only", "budget", "definitional", "out"), ()),
    "count": ("evaluate a closed-form count", _cmd_count, "formula",
              {name: flags for name, (flags, _) in _FORMULAS.items()}, (), ()),
    "verify": ("run formula-versus-sweep cross-checks", _cmd_verify, "suite",
               dict.fromkeys(SUITE_NAMES, ()), ("max_n", "seed", "budget"), ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``parkseq`` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="parkseq",
        description="Exact tools for parking sequences of cars with lengths behind a trailer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, selector, needs, own, required) in _COMMANDS.items():
        sub = commands.add_parser(command, help=text)
        takes = {selector, *own, *(flag for flags in needs.values() for flag in flags), "json"}
        for flag in filter(takes.__contains__, _FLAGS):
            keywords = dict(_FLAGS[flag], required=flag in (selector, *required))
            if flag == selector:
                keywords["choices"] = needs
            names = (f"--{flag.replace('_', '-')}", *keywords.pop("aliases", ()))
            sub.add_argument(*names, **keywords)
        sub.set_defaults(func=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit.

    Every call parses with the one parser ``build_parser`` built for this
    process; the handler gets that call's own namespace and must not mutate
    the parser.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # a MemoryError (a trailer near 2**63 asks for a mask that size) carries no text
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
