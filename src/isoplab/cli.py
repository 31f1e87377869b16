"""Command-line front end.

Exit codes: 0 success (all verdicts hold), 1 a verdict failed, 2 parse or
usage error, 3 budget exceeded, 4 precondition violated.  The parser
declares the defaults, the required flags and growth's two modes.  Machine
formats carry the exact rationals; the human format prints the same
fractions unrounded.  Every report line echoes the run's settings,
defaults included.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import os
import sys
from typing import Optional, Sequence

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

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4

# Namespace entries that are not settings of the run, so never echoed
_NOT_SETTINGS = {"check"}


def _csv_lines(header: list[str], rows) -> list[str]:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


def _emit(args: argparse.Namespace, records, header: list[str], rows, human) -> None:
    """Render one command's output in args.format and write it.

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
        lines = [canonical_json({**rec, "run_config": run_config}) for rec in records()]
    else:
        echo = canonical_json(run_config)
        if args.format == "csv":
            lines = [f"# config: {echo}", *_csv_lines(header, rows())]
        else:
            lines = [f"config: {echo}", *human()]
    text = "\n".join(lines) + ("\n" if lines else "")
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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


def _cmd_growth(args: argparse.Namespace) -> int:
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


def _drawn_sets(group, args: argparse.Namespace):
    """The sets of --set, drawn --trials times (once by default) for a random:
    descriptor; --trials with a set that is not drawn exits 2."""
    desc = parse_set_descriptor(args.set)
    if args.trials is not None and desc.kind not in ("connected", "uniform"):
        raise ParseError(
            f"{args.command} --trials counts random: draws; {desc.text} is not drawn"
        )
    trials = args.trials if args.trials is not None else 1
    return generate_sets(group, desc, trials, ball_cap=args.ball_cap)


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_profile(args: argparse.Namespace) -> int:
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


def _cmd_sharpness(args: argparse.Namespace) -> int:
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


def _cmd_accept(args: argparse.Namespace) -> int:
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


def _check_values(args: argparse.Namespace) -> None:
    """The usage errors argparse cannot declare: an integer flag below its
    least value, and an --out path in no directory."""
    for key, least in _CONFIG_MINIMUM.items():
        value = getattr(args, key, None)
        if value is not None and value < least:
            raise ParseError(f"{key.replace('_', '-')} must be >= {least}, got {value}")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ParseError(f"cannot write --out {args.out}: no such directory")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=["jsonl", "csv", "human"], default="human")
    sp.add_argument("--out")


def _add_ball_cap(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ball-cap", type=int, default=DEFAULT_BALL_CAP)


def _add_growth(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--group", required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-radius", type=int)
    mode.add_argument("--phi", type=int,
                      help="emit the least r with gamma(r) > v instead of a table")
    _add_common(sp)
    _add_ball_cap(sp)


def _add_verify(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("check", choices=[
        "lemma31", "halfmass", "transport", "theorem", "csc", "boundary-cmp",
    ])
    sp.add_argument("--group", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--d", type=int)
    sp.add_argument("--gamma0")
    sp.add_argument("--trials", type=int)
    _add_common(sp)
    _add_ball_cap(sp)


# accept runs fixed instances and profile groups of at most 24 elements,
# so a cap could only abort them: they take no --ball-cap, and their echo
# records the default cap
def _add_profile(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--group", required=True)
    sp.add_argument("--sizes", required=True)
    _add_common(sp)
    sp.set_defaults(ball_cap=DEFAULT_BALL_CAP)


def _add_sharpness(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--group", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--trials", type=int)
    _add_common(sp)
    _add_ball_cap(sp)


def _add_accept(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--quick", action="store_true", default=None)
    sp.add_argument("--seed", type=int)
    _add_common(sp)
    sp.set_defaults(ball_cap=DEFAULT_BALL_CAP)  # no --ball-cap: see _add_profile


# each command: its help line and the function that adds its arguments
_COMMANDS = {
    "growth": ("growth table or inverse growth value", _add_growth),
    "verify": ("run one verifier over generated sets", _add_verify),
    "profile": ("exhaustive isoperimetric profile", _add_profile),
    "sharpness": ("sharpness factors of the strict bound", _add_sharpness),
    "accept": ("run the acceptance suite and print a scorecard", _add_accept),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.  The one-command
    parser names every command in its usage line, as the full one does.
    Flags are spelled in full: a prefix is an unrecognized argument."""
    parser = argparse.ArgumentParser(
        prog="isoplab",
        allow_abbrev=False,
        description="Exact word metrics, boundaries, and isoperimetric verification "
                    "on Cayley graphs of concrete finitely generated groups.",
    )
    # a metavar on the full parser would rename the command in its errors
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds only its command's parser; --help, no command and an
    # unknown command get the full one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
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
