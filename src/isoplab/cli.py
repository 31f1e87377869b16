"""Command-line front end.

Exit codes: 0 success (all verdicts hold), 1 a verdict failed, 2 parse or
usage error, 3 budget exceeded, 4 precondition violated.  One flag table
per command declares the defaults, the required flags and growth's two
modes.  A well-formed line is parsed from the table directly; argparse,
built from the same table, parses every other line and reports its usage
errors, so help text and exit codes stay argparse's.  Machine
formats carry the exact rationals; the human format prints the same
fractions unrounded.  Every report line echoes the run's settings,
defaults included.
"""

from __future__ import annotations

import csv as _csv
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from .acceptance import DEFAULT_SEED, run_acceptance
from .errors import (
    BudgetExceeded,
    InternalContradiction,
    ParseError,
    PreconditionViolated,
    Unattainable,
)
from .groups import parse_group
from .isoperimetry import (
    boundary_comparison,
    canonical_json,
    displacement_bound_check,
    half_mass_witness,
    lemma31_check,
    preimage_bound_check,
    transport_map,
    verify_csc,
    verify_theorem,
)
from .metric import DEFAULT_BALL_CAP, growth, phi
from .search import (
    exhaustive_profile,
    generate_sets,
    parse_set_descriptor,
    parse_size_range,
    sharpness_of_subsets,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4

# Namespace entries that are not settings of the run, so never echoed
_NOT_SETTINGS = {"check"}


class _Echo:
    """A file for csv.writer whose write returns the line it is given, so
    that writerow returns the CSV line it renders."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_lines(header: list[str], rows):
    """The CSV lines of header and rows, each with its newline, rendered as
    they are read."""
    return map(_csv.writer(_Echo, lineterminator="\n").writerow, chain([header], rows))


def _emit(args: SimpleNamespace, records, header: list[str], rows, human) -> None:
    """Render one command's output in args.format and write each line as it
    is rendered.

    records, rows and human are callables returning the JSON records, the
    CSV rows under header, and the human lines; only the one the format
    asks for is called.  Every JSON record carries the run configuration,
    its settings that are not None; the CSV and human outputs open with it.
    """
    run_config = {
        key: value for key, value in vars(args).items()
        if value is not None and key not in _NOT_SETTINGS
    }
    if args.format == "jsonl":
        lines = (canonical_json({**rec, "run_config": run_config}) + "\n" for rec in records())
    else:
        echo = canonical_json(run_config)
        if args.format == "csv":
            lines = chain([f"# config: {echo}\n"], _csv_lines(header, rows()))
        else:
            lines = chain([f"config: {echo}\n"], (line + "\n" for line in human()))
    if not args.out:
        sys.stdout.writelines(lines)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ParseError(f"cannot write --out {args.out}: {exc}") from None


_REPORT_HEADER = [
    "kind", "group", "set_descriptor", "d", "gamma0",
    "lhs_num", "lhs_den", "rhs_num", "rhs_den",
    "verdict", "sharpness_num", "sharpness_den",
]


def _csv_row(header: list[str], record: dict) -> list:
    """The record's value under each header field; "" where it is missing or None."""
    return ["" if record.get(key) is None else record[key] for key in header]


def _report_lines(reports) -> list[str]:
    """Human lines for verification reports."""
    lines = []
    for r in reports:
        parts = [f"{r.kind} group={r.group} set={r.set_descriptor}"]
        if r.d is not None:
            parts.append(f"d={r.d}")
        if r.gamma0 is not None:
            parts.append(f"gamma0={r.gamma0}")
        verdict = "holds" if r.verdict else "FAILS"
        line = " ".join(parts) + f": {r.lhs} {r.relation} {r.rhs} -> {verdict}"
        if r.sharpness is not None and r.relation.startswith(">"):
            line += f" (sharpness {r.sharpness})"
        lines.append(line)
    return lines


def _cmd_growth(args: SimpleNamespace) -> int:
    group = parse_group(args.group)
    if args.phi is not None:
        v = args.phi
        value = phi(group, v, ball_cap=args.ball_cap)
        _emit(
            args,
            lambda: [{"v": v, "phi": value}],
            ["v", "phi"],
            lambda: [[v, value]],
            lambda: [f"phi({v}) = {value}"],
        )
        return EXIT_OK
    rows = list(enumerate(growth(group, args.max_radius, ball_cap=args.ball_cap)))
    _emit(
        args,
        lambda: ({"r": r, "gamma": v} for r, v in rows),
        ["r", "gamma"],
        lambda: rows,
        lambda: (f"gamma({r}) = {v}" for r, v in rows),
    )
    return EXIT_OK


def _drawn_sets(group, args: SimpleNamespace):
    """The sets of --set, drawn --trials times (once by default) for a random:
    descriptor; --trials with a set that is not drawn exits 2."""
    desc = parse_set_descriptor(args.set)
    if args.trials is not None and desc.kind not in ("connected", "uniform"):
        raise ParseError(
            f"{args.command} --trials counts random: draws; {desc.text} is not drawn"
        )
    trials = args.trials if args.trials is not None else 1
    return generate_sets(group, desc, trials, ball_cap=args.ball_cap)


def _cmd_verify(args: SimpleNamespace) -> int:
    check = args.check
    if check == "lemma31" and args.d is None:
        raise ParseError("verify lemma31 needs --d")
    if check == "transport" and args.gamma0 is None:
        raise ParseError("verify transport needs --gamma0")
    if args.d is not None and check not in ("lemma31", "transport"):
        raise ParseError(f"verify {check} takes no --d")
    if args.gamma0 is not None and check != "transport":
        raise ParseError(f"verify {check} takes no --gamma0")
    group = parse_group(args.group)
    subsets = _drawn_sets(group, args)
    cap = args.ball_cap
    d = args.d
    if check == "transport":
        gamma0 = group.parse_word(args.gamma0)

    def transport(s):
        record = transport_map(group, gamma0, s, ball_cap=cap)
        k = record.length if d is None else d  # --d defaults to the word length of gamma0
        return [preimage_bound_check(record, k), displacement_bound_check(record, k)]

    verifiers = {
        "lemma31": lambda s: [lemma31_check(group, s, d, ball_cap=cap)],
        "halfmass": lambda s: [half_mass_witness(group, s, ball_cap=cap)[1]],
        "transport": transport,
        "theorem": lambda s: [verify_theorem(group, s, ball_cap=cap)],
        "csc": lambda s: [verify_csc(group, s, ball_cap=cap)],
        "boundary-cmp": lambda s: [boundary_comparison(group, s)],
    }
    reports = [rep for subset in subsets for rep in verifiers[check](subset)]
    _emit(
        args,
        lambda: (r.to_json_dict() for r in reports),
        _REPORT_HEADER,
        lambda: (_csv_row(_REPORT_HEADER, r.to_json_dict()) for r in reports),
        lambda: _report_lines(reports),
    )
    return EXIT_OK if all(r.verdict for r in reports) else EXIT_FAILED_VERDICT


def _cmd_profile(args: SimpleNamespace) -> int:
    group = parse_group(args.group)
    lo, hi = parse_size_range(args.sizes)
    rows = exhaustive_profile(group, range(lo, hi + 1))
    dicts = [row.to_json_dict() for row in rows]
    header = ["n", "min_boundary", "bound_num", "bound_den", "witness"]
    _emit(
        args,
        lambda: dicts,
        header,
        lambda: (_csv_row(header, d) for d in dicts),
        lambda: (
            f"n={d['n']}: min boundary {d['min_boundary']} "
            f"(strict bound {row.bound}, gap {row.gap}) witness {d['witness']}"
            for row, d in zip(rows, dicts)
        ),
    )
    return EXIT_OK


def _cmd_sharpness(args: SimpleNamespace) -> int:
    group = parse_group(args.group)
    summary = sharpness_of_subsets(group, _drawn_sets(group, args), ball_cap=args.ball_cap)
    entries = summary.entries
    _emit(
        args,
        lambda: [summary.to_json_dict()],
        ["set", "factor_num", "factor_den"],
        lambda: ([name, f.numerator, f.denominator] for name, f in entries),
        lambda: [
            *(f"{name}: factor {f}" for name, f in entries),
            f"min factor {summary.min_factor}, median factor {summary.median_factor}",
        ],
    )
    return EXIT_OK if all(r.verdict for r in summary.reports) else EXIT_FAILED_VERDICT


def _cmd_accept(args: SimpleNamespace) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    outcome = run_acceptance(seed, bool(args.quick))
    results = outcome.results

    def records():
        yield from outcome.report_dicts
        yield from (res.to_json_dict() for res in results)
        yield {"all_passed": outcome.all_passed}

    def human():
        for res in results:
            yield res.line()
            yield from (f"  finding: {finding}" for finding in res.findings)
        passed = sum(1 for r in results if r.passed)
        status = "ALL PASS" if outcome.all_passed else "FAILED"
        yield f"acceptance: {status} ({passed}/{len(results)} criteria)"

    _emit(
        args,
        records,
        ["criterion", "name", "passed", "detail"],
        lambda: ([r.index, r.name, "pass" if r.passed else "fail", r.detail] for r in results),
        human,
    )
    return EXIT_OK if outcome.all_passed else EXIT_FAILED_VERDICT


_CONFIG_MINIMUM = {"d": 0, "trials": 1, "max_radius": 0, "phi": 0, "ball_cap": 1}


def _check_values(args: SimpleNamespace) -> None:
    """The usage errors the flag table cannot declare: an integer flag below its
    least value, and an --out path in no directory."""
    for key, least in _CONFIG_MINIMUM.items():
        value = getattr(args, key, None)
        if value is not None and value < least:
            raise ParseError(f"{key.replace('_', '-')} must be >= {least}, got {value}")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ParseError(f"cannot write --out {args.out}: no such directory")


_FORMATS = ("jsonl", "csv", "human")
_CHECKS = ("lemma31", "halfmass", "transport", "theorem", "csc", "boundary-cmp")

# A flag maps to (type, choices, default, required).  The type is int or
# str, or None for a switch, which stores True when given; verify's check,
# the one name without dashes, is a positional argument.
_STR = (str, None, None, False)
_INT = (int, None, None, False)
_REQUIRED = (str, None, None, True)
_COMMON = {"--format": (str, _FORMATS, "human", False), "--out": _STR}
_BALL_CAP = {"--ball-cap": (int, None, DEFAULT_BALL_CAP, False)}
# accept runs fixed instances and profile groups of at most 24 elements,
# so a cap could only abort them: they take no --ball-cap, and their echo
# records the default cap
_DEFAULT_CAP = {"ball_cap": DEFAULT_BALL_CAP}
_HELP = {"--phi": "emit the least r with gamma(r) > v instead of a table"}

# each command: its help line, its flags in usage order, the flags of which
# it needs exactly one, and the settings it fixes without a flag
_COMMANDS = {
    "growth": (
        "growth table or inverse growth value",
        {"--group": _REQUIRED, "--max-radius": _INT, "--phi": _INT, **_COMMON, **_BALL_CAP},
        ("--max-radius", "--phi"),
        {},
    ),
    "verify": (
        "run one verifier over generated sets",
        {"check": (str, _CHECKS, None, True), "--group": _REQUIRED, "--set": _REQUIRED,
         "--d": _INT, "--gamma0": _STR, "--trials": _INT, **_COMMON, **_BALL_CAP},
        (),
        {},
    ),
    "profile": (
        "exhaustive isoperimetric profile",
        {"--group": _REQUIRED, "--sizes": _REQUIRED, **_COMMON},
        (),
        _DEFAULT_CAP,
    ),
    "sharpness": (
        "sharpness factors of the strict bound",
        {"--group": _REQUIRED, "--set": _REQUIRED, "--trials": _INT, **_COMMON, **_BALL_CAP},
        (),
        {},
    ),
    "accept": (
        "run the acceptance suite and print a scorecard",
        {"--quick": (None, None, None, False), "--seed": _INT, **_COMMON},
        (),
        _DEFAULT_CAP,
    ),
}


def _parse_well_formed(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace build_parser() gives argv, read from the flag table, or
    None for a line this loop does not fully understand.

    It understands `COMMAND [CHECK] (--flag VALUE | --flag=VALUE | --switch)...`
    with each flag at most once, no value starting with "-", every int and
    choice valid, every required flag given, and exactly one of a command's
    one-of flags.  argparse parses every other line, so help, usage errors
    and their exit codes stay its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, flags, one_of, fixed = _COMMANDS[argv[0]]
    rest = argv[1:]
    given = {}
    if "check" in flags:
        if not rest:
            return None
        given["check"], rest = rest[0], rest[1:]
    tokens = iter(rest)
    for token in tokens:
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name not in flags or name in given:
            return None
        if flags[name][0] is None:
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        given[name] = value
    if one_of and sum(name in given for name in one_of) != 1:
        return None
    args = {"command": argv[0], **fixed}
    for name, (kind, choices, default, required) in flags.items():
        value = given.get(name, default)
        if name not in given:
            if required:
                return None
        elif kind is not None:
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
        args[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, built from the flag table.
    Flags are spelled in full: a prefix is an unrecognized argument."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="isoplab",
        allow_abbrev=False,
        description="Exact word metrics, boundaries, and isoperimetric verification "
                    "on Cayley graphs of concrete finitely generated groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, one_of, fixed) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        mode = sp.add_mutually_exclusive_group(required=True) if one_of else None
        for flag, (kind, choices, default, required) in flags.items():
            if kind is None:
                sp.add_argument(flag, action="store_true", default=None)
                continue
            options = {"choices": choices, "default": default, "help": _HELP.get(flag)}
            if kind is int:
                options["type"] = int
            if flag in one_of:
                mode.add_argument(flag, **options)
            elif flag.startswith("--"):
                sp.add_argument(flag, required=required, **options)
            else:
                sp.add_argument(flag, **options)
        sp.set_defaults(**fixed)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_well_formed(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return int(exc.code) if exc.code else EXIT_OK
    try:
        _check_values(args)
        if args.command == "growth":
            return _cmd_growth(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "sharpness":
            return _cmd_sharpness(args)
        return _cmd_accept(args)
    except ParseError as exc:
        print(f"isoplab: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"isoplab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionViolated, Unattainable) as exc:
        print(f"isoplab: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalContradiction as exc:
        print(f"isoplab: falsified construction: {exc}", file=sys.stderr)
        return EXIT_FAILED_VERDICT
    except MemoryError:
        # exit 1 means a falsified verdict, so running out of memory is a budget
        print("isoplab: budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
