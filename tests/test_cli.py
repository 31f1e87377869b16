import argparse
import json

import pytest

from isoplab.cli import build_parser, main
from isoplab import VerificationReport, parse_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- growth

def test_growth_csv(capsys):
    code, out, _ = run(capsys, "growth", "--group", "z", "--max-radius", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "r,gamma"
    assert lines[2:] == ["0,1", "1,3", "2,5", "3,7", "4,9"]


def test_growth_jsonl_has_config_echo(capsys):
    code, out, _ = run(capsys, "growth", "--group", "zd:2", "--max-radius", "2", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["gamma"] for row in rows] == [1, 5, 13]
    assert all(row["run_config"]["group"] == "zd:2" for row in rows)


def test_growth_final_row_saturates(capsys):
    code, out, _ = run(capsys, "growth", "--group", "cyclic:12", "--max-radius", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "6,12"


def test_growth_phi_mode(capsys):
    code, out, _ = run(capsys, "growth", "--group", "z", "--phi", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "10,5"


# ------------------------------------------------------------------- verify

def test_verify_lemma31_example(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma31", "--group", "z", "--set", "explicit:0,1",
        "--d", "1", "--format", "jsonl",
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["kind"] == "lemma31"
    assert row["lhs_num"] == 2 and row["rhs_num"] == 2
    assert row["extra"]["mid_b"] == 2
    assert row["verdict"] == "holds"
    assert row["run_config"]["set"] == "explicit:0,1"


def test_verify_theorem_ball(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--group", "z", "--set", "ball:3")
    assert code == 0
    assert "holds" in out


def test_verify_transport_example(capsys):
    code, out, _ = run(
        capsys, "verify", "transport", "--group", "z", "--set", "explicit:0,1,2,3,4",
        "--gamma0", "+1+1+1", "--d", "3", "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    kinds = {row["kind"] for row in rows}
    assert kinds == {"preimage_bound", "displacement_bound"}
    pre = next(r for r in rows if r["kind"] == "preimage_bound")
    assert pre["lhs_num"] == 3 and pre["rhs_num"] == 3 and pre["verdict"] == "holds"


def test_verify_halfmass_and_boundary_cmp(capsys):
    code, out, _ = run(capsys, "verify", "halfmass", "--group", "free:2", "--set", "random:8:3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "boundary-cmp", "--group", "free:2", "--set", "random:8:3")
    assert code == 0


def test_verify_trials_are_sorted_and_reproducible(capsys):
    args = (
        "verify", "theorem", "--group", "heisenberg", "--set", "random:10:7",
        "--trials", "5", "--format", "jsonl",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.splitlines()]
    assert [r["set_descriptor"] for r in rows] == [
        f"random:10:7#trial={t}" for t in range(5)
    ]


# ----------------------------------------------------------- profile/sharpness

def test_profile_csv(capsys):
    code, out, _ = run(capsys, "profile", "--group", "cyclic:8", "--sizes", "1..3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,min_boundary,bound_num,bound_den,witness"
    assert lines[2] == "1,2,1,2,{0}"
    assert lines[3] == "2,2,1,2,{0;1}"
    assert lines[4] == "3,2,1,2,{0;1;2}"


def test_sharpness_intervals(capsys):
    code, out, _ = run(
        capsys, "sharpness", "--group", "z", "--set", "interval:1..50", "--format", "jsonl",
    )
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["min_num"] == 4 and payload["min_den"] == 1
    assert payload["median_num"] == 4
    assert len(payload["trials"]) == 50


# ------------------------------------------------------------------ exit codes

def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "growth", "--group", "bogus", "--max-radius", "2")
    assert code == 2 and "error" in err


def test_exit_code_missing_required(capsys):
    code, _, err = run(capsys, "verify", "lemma31", "--group", "z", "--set", "explicit:0,1")
    assert code == 2  # missing --d


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "growth", "--group", "free:2", "--max-radius", "9", "--ball-cap", "100")
    assert code == 3


def test_exit_code_precondition(capsys):
    code, _, err = run(
        capsys, "verify", "theorem", "--group", "cyclic:12", "--set", "explicit:0,1,2,3,4,5"
    )
    assert code == 4
    code, _, err = run(capsys, "growth", "--group", "cyclic:12", "--phi", "12")
    assert code == 4


@pytest.mark.parametrize("command", [("verify", "theorem"), ("sharpness",)])
def test_exhaustive_range_above_the_order_exits_4(capsys, command):
    code, out, err = run(capsys, *command, "--group", "cyclic:8", "--set", "exhaustive:30..40")
    assert code == 4 and out == ""
    assert err == (
        "isoplab: precondition violated: "
        "cyclic:8 has 8 elements, so exhaustive:30..40 denotes no subsets\n"
    )


def test_usage_error_returns_2(capsys):
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ("growth", "--group", "z", "--max-radius", "2", "--out", "/nonexistent-dir/x"),
    ("verify", "lemma31", "--group", "z", "--set", "explicit:0,1", "--d", "-1"),
    ("growth", "--group", "z", "--max-radius", "-2"),
    ("growth", "--group", "z", "--phi", "-1"),
    ("verify", "theorem", "--group", "z", "--set", "ball:2", "--trials", "0"),
    ("verify", "theorem", "--group", "z", "--set", "ball:2", "--trials", "-3"),
    ("verify", "transport", "--group", "z", "--set", "ball:2", "--gamma0", "+01"),
    ("growth", "--group", "free:26", "--max-radius", "1"),
    ("growth", "--group", "z", "--max-radius", "2", "--ball-cap", "-5"),
    ("growth", "--group", "z", "--max-radius", "0", "--ball-cap", "0"),
    ("sharpness", "--group", "z", "--set", "interval:0..3"),
])
def test_bad_values_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("isoplab: error:")


@pytest.mark.parametrize("argv", [
    ("verify", "theorem", "--group", "cyclic:12", "--set", "explicit:0,13"),
    ("verify", "theorem", "--group", "z", "--set", "explicit:(0),(1,2)"),
    ("verify", "theorem", "--group", "free:2", "--set", "explicit:a,c"),
    ("verify", "theorem", "--group", "heisenberg:3", "--set", "explicit:(0,0,0),(0,0,3)"),
    # malformed lists: each piece's own parser rejects what the split lets through
    ("verify", "theorem", "--group", "zd:2", "--set", "explicit:(1,2),(3"),
    ("verify", "theorem", "--group", "zd:2", "--set", "explicit:(1,2)),(3)"),
    ("verify", "theorem", "--group", "zd:2", "--set", "explicit:1,2)"),
    ("verify", "theorem", "--group", "symmetric:3", "--set", "explicit:[1,2,3],[2,1"),
    ("verify", "transport", "--group", "free:2", "--set", "ball:2", "--gamma0", "c"),
    ("verify", "transport", "--group", "z", "--set", "ball:2", "--gamma0", "+2"),
])
def test_parsed_elements_are_validated(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("isoplab: error:")


def test_out_to_directory_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "growth", "--group", "z", "--max-radius", "2", "--out", str(tmp_path))
    assert code == 2 and "cannot write" in err


def test_seed_is_read_by_accept_alone(capsys):
    # --seed is read by accept alone, so no other command has such a flag
    for command in (
        ("growth", "--max-radius", "2"),
        ("verify", "theorem", "--set", "random:5:7"),
        ("profile", "--sizes", "1..3"),
        ("sharpness", "--set", "interval:1..3"),
    ):
        code, out, err = run(capsys, *command, "--group", "z", "--seed", "99")
        assert code == 2 and out == "" and "--seed" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_accept_seed_outside_splitmix64_range_exits_2(capsys, seed):
    # SplitMix64 reduces seeds mod 2^64: -1 and 2^64 - 1 would run the same stream
    code, out, err = run(capsys, "accept", "--quick", "--seed", seed)
    assert code == 2 and out == "" and "isoplab: error: seed must lie in 0..2^64-1" in err


def test_random_descriptor_seed_outside_splitmix64_range_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem", "--group", "z", "--set", f"random:20:{2**64}")
    assert code == 2 and out == "" and "0..2^64-1" in err


def test_random_seed_is_refused_before_the_transport_word_is_measured(capsys):
    # without --d, the word length of gamma0 comes from the transport map, after the draw
    code, out, err = run(
        capsys, "verify", "transport", "--group", "free:2", "--set", f"random:5:{2**64}",
        "--gamma0", "aaaa", "--ball-cap", "3",
    )
    assert code == 2 and out == "" and "0..2^64-1" in err


@pytest.mark.parametrize("radius", ["\u00b2", "\u0663"])
def test_ball_radius_outside_ascii_digits_exits_2(capsys, radius):
    code, out, err = run(capsys, "verify", "theorem", "--group", "z", "--set", f"ball:{radius}")
    assert code == 2 and out == ""
    assert err.startswith("isoplab: error: bad ball descriptor") and "Traceback" not in err


@pytest.mark.parametrize("command, settings, needle", [
    (("growth",), {"group": "z", "phi": "3", "max_radius": "2"}, "not allowed with argument"),
    (("verify", "theorem"), {"group": "z", "set": "ball:2", "d": "1"}, "no --d"),
    (("verify", "halfmass"), {"group": "z", "set": "ball:2", "d": "1"}, "no --d"),
    (("verify", "lemma31"), {"group": "z", "set": "ball:2", "d": "1", "gamma0": "a"}, "no --gamma0"),
    (("verify", "csc"), {"group": "z", "set": "ball:2", "gamma0": "a"}, "no --gamma0"),
    (
        ("sharpness",), {"group": "z", "set": "interval:1..3", "trials": "2"},
        "error: sharpness --trials counts random: draws; interval:1..3 is not drawn",
    ),
    (
        ("verify", "theorem"), {"group": "z", "set": "interval:1..3", "trials": "2"},
        "error: verify --trials counts random: draws; interval:1..3 is not drawn",
    ),
    # only random: sets are drawn, so no other set reads --trials
    (
        ("verify", "theorem"), {"group": "z", "set": "explicit:0,1", "trials": "4"},
        "error: verify --trials counts random: draws; explicit:0,1 is not drawn",
    ),
    (
        ("verify", "halfmass"), {"group": "cyclic:8", "set": "exhaustive:1..2", "trials": "2"},
        "error: verify --trials counts random: draws; exhaustive:1..2 is not drawn",
    ),
    (
        ("sharpness",), {"group": "z", "set": "ball:2", "trials": "3"},
        "error: sharpness --trials counts random: draws; ball:2 is not drawn",
    ),
])
def test_flags_the_mode_never_reads_exit_2(capsys, command, settings, needle):
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    code, out, err = run(capsys, *command, *flags)
    assert code == 2 and out == "" and needle in err


def test_accept_takes_no_ball_cap(capsys):
    # accept runs fixed instances, so a cap could only abort it
    code, out, err = run(capsys, "accept", "--quick", "--ball-cap", "13121")
    assert code == 2 and out == "" and "unrecognized arguments: --ball-cap 13121" in err


@pytest.mark.parametrize("command, setting", [
    # intervals are a --set descriptor, interval:<lo>..<hi>
    (("sharpness", "--group", "z", "--set", "interval:1..3"), ("family", "intervals")),
    (("sharpness", "--group", "z", "--set", "interval:1..3"), ("max_n", "3")),
    # profile walks groups of at most 24 elements, so a cap could only abort it
    (("profile", "--group", "cyclic:8", "--sizes", "1..3"), ("ball_cap", "5")),
])
def test_removed_settings_exit_2(capsys, command, setting):
    key, value = setting
    flag = f"--{key.replace('_', '-')}"
    code, out, err = run(capsys, *command, flag, value)
    assert code == 2 and out == "" and f"unrecognized arguments: {flag} {value}" in err


def test_intervals_exist_on_z_alone(capsys):
    code, out, err = run(capsys, "sharpness", "--group", "zd:2", "--set", "interval:1..3")
    assert code == 4 and out == ""
    assert err == "isoplab: precondition violated: interval family is defined on the group z only\n"


def test_profile_refuses_the_first_inadmissible_size(capsys):
    # sizes are checked as read: a long range stops at n = 4, not at its end
    code, out, err = run(capsys, "profile", "--group", "cyclic:8", "--sizes", "1..4000000")
    assert code == 4 and out == ""
    assert err.endswith("n < Card(group)/2 = 8/2, got n = 4\n")


def test_profile_over_the_cap_exits_3_before_the_size_check(capsys):
    # dihedral:13 has 26 elements, above the exhaustive cap, and 13 is not < 26/2
    code, out, err = run(capsys, "profile", "--group", "dihedral:13", "--sizes", "13")
    assert code == 3 and out == "" and "above the exhaustive cap 24" in err


def test_word_flags_checked_before_sets_are_generated(capsys):
    # random:50 cannot be drawn from cyclic:4 (exit 4); the word errors win
    base = ("--group", "cyclic:4", "--set", "random:50:1")
    code, _, err = run(capsys, "verify", "lemma31", *base)
    assert code == 2 and "--d" in err
    code, _, err = run(capsys, "verify", "transport", *base)
    assert code == 2 and "--gamma0" in err
    code, _, err = run(capsys, "verify", "transport", *base, "--gamma0", "q")
    assert code == 2 and "generator word" in err


# ---------------------------------------------------------------------- parser

def test_config_echo_holds_the_settings_and_the_defaults(capsys):
    # the echo holds the set settings plus the format and ball_cap defaults,
    # never the verify check
    code, out, _ = run(
        capsys, "verify", "theorem", "--group", "heisenberg", "--set", "random:12:7", "--trials", "2"
    )
    assert code == 0
    echo = out.splitlines()[0]
    assert echo.startswith("config: ")
    assert json.loads(echo[len("config: "):]) == {
        "ball_cap": 5000000, "command": "verify", "format": "human",
        "group": "heisenberg", "set": "random:12:7", "trials": 2,
    }


# per command, argument lists that stop in the parser: an unknown flag, a
# missing value, a bad choice or type, and help
BAD_ARGUMENTS = {
    "growth": [["--bogus"], ["--group"], ["--format", "xml"], ["--max-radius", "x"], ["-h"]],
    "verify": [
        ["theorem", "--bogus"], ["theorem", "--group"], ["theorem", "--format", "xml"],
        ["theorem", "--trials", "x"], ["-h"], ["theorem", "-h"], ["bogus"], [],
    ],
    "profile": [["--bogus"], ["--sizes"], ["--format", "xml"], ["--group", "z", "extra"], ["-h"]],
    "sharpness": [["--bogus"], ["--set"], ["--format", "xml"], ["--ball-cap", "x"], ["-h"]],
    "accept": [["--bogus"], ["--seed"], ["--format", "xml"], ["--quick", "1"], ["-h"]],
}


@pytest.mark.parametrize("argv", [
    [command, *rest] for command, table in BAD_ARGUMENTS.items() for rest in table
], ids=" ".join)
def test_bad_arguments_fail_as_argparse_reports_them(capsys, argv):
    code, out, err = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert (code, out, err) == (exc.value.code or 0, full.out, full.err)


def test_a_well_formed_run_builds_no_parser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    # a well-formed line is read from the flag table and builds no parser
    code, _, _ = run(capsys, "profile", "--group", "cyclic:8", "--sizes", "1..3")
    assert code == 0 and built == []


@pytest.mark.parametrize("argv, needle", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    # argparse reports missing required flags first, so these rows give them
    (["profile", "--group", "cyclic:8", "--sizes", "1..3", "--config", "x"],
     "unrecognized arguments: --config x"),
    (["verify", "theorem", "--group", "z", "--set", "ball:2", "--config", "x"],
     "unrecognized arguments: --config x"),
    # a prefix of a flag is not that flag, so a new flag cannot break a command line
    (["growth", "--group", "z", "--max-radius", "2", "--ball", "7"],
     "unrecognized arguments: --ball 7"),
    (["profile", "--group", "cyclic:8", "--sizes", "1..2", "--form", "csv"],
     "unrecognized arguments: --form csv"),
])
def test_top_level_usage_errors_exit_2(capsys, argv, needle):
    # no command, or an unknown one, gets the full parser; no command takes --config
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and needle in err


@pytest.mark.parametrize("argv, message", [
    (["growth", "--max-radius", "2"], "the following arguments are required: --group"),
    (["growth", "--group", "z"], "one of the arguments --max-radius --phi is required"),
    (["verify", "theorem", "--set", "ball:2"], "the following arguments are required: --group"),
    (["verify", "theorem", "--group", "z"], "the following arguments are required: --set"),
    (["profile", "--sizes", "1..3"], "the following arguments are required: --group"),
    (["profile", "--group", "cyclic:8"], "the following arguments are required: --sizes"),
    (["sharpness", "--set", "ball:2"], "the following arguments are required: --group"),
    (["sharpness", "--group", "z"], "the following arguments are required: --set"),
])
def test_missing_required_flags_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"isoplab {argv[0]}: error: {message}\n")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "growth", "--group", "z", "--max-radius", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "2,5"


# ------------------------------------------------------------- generator words

def test_generator_word_parsing():
    z2 = parse_group("zd:2")
    assert z2.parse_word("+1-2+1") == (2, -1)
    f2 = parse_group("free:2")
    assert f2.parse_word("abA") == f2.parse("abA")
    d6 = parse_group("dihedral:6")
    assert d6.parse_word("rrs") == (2, 1)
    h = parse_group("heisenberg")
    assert h.parse_word("xy") == (1, 1, 1)
    s3 = parse_group("symmetric:3")
    assert s3.parse_word("t1t2") == s3.mul((2, 1, 3), (1, 3, 2))
    c12 = parse_group("cyclic:12")
    assert c12.parse_word("+1+1-1") == 1


def test_generator_word_errors():
    from isoplab import ParseError
    z = parse_group("z")
    for bad in ("", "+2", "q", "+1x", "+01", "+1 +1"):
        with pytest.raises(ParseError):
            z.parse_word(bad)


def test_generator_word_longest_token_first():
    z12 = parse_group("zd:12")
    assert z12.parse_word("+12+1-10") == (1,) + (0,) * 8 + (-1, 0, 1)
    s12 = parse_group("symmetric:12")
    assert s12.parse_word("t11") == s12.generator_tokens()["t11"]
    f5 = parse_group("free:5")
    assert f5.parse_word("e") == 1  # the identity, a marker bit over no digits
    assert f5.parse_word("fF") == 1


# --------------------------------------------------------------------- accept

def test_accept_quick_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "accept", "--quick", "--seed", "7")
    assert code == 0
    assert "acceptance: ALL PASS" in out
    assert out.count("criterion") == 8


def test_accept_encodes_each_report_once_per_pass(capsys, monkeypatch):
    # one to_json_dict per report in each of the two passes; stdout reuses the reported pass's
    calls = 0
    to_json_dict = VerificationReport.to_json_dict

    def counted(self):
        nonlocal calls
        calls += 1
        return to_json_dict(self)

    monkeypatch.setattr(VerificationReport, "to_json_dict", counted)
    code, out, _ = run(capsys, "accept", "--quick", "--seed", "7", "--format", "jsonl")
    assert code == 0
    reports = sum(1 for line in out.splitlines() if '"kind":' in line)
    assert reports > 1000
    assert calls == 2 * reports
