"""Byte-level pins of the CLI report stream.

Every command is run in every output format on a small input, and the
first 16 hex digits of the sha256 of stdout are compared with digests
recorded before the output code was consolidated.  A change here means the
report bytes changed; that must be deliberate and recorded in CHANGES.md.
"""

import hashlib

import pytest

import isoplab.cli
from isoplab.acceptance import AcceptanceOutcome, _run_criteria
from isoplab.cli import main

COMMANDS = {
    "growth": ("growth", "--group", "zd:2", "--max-radius", "3"),
    "growth-phi": ("growth", "--group", "heisenberg", "--phi", "20"),
    "theorem": ("verify", "theorem", "--group", "heisenberg", "--set", "random:12:7", "--trials", "3"),
    # ROADMAP golden: 200 reseeded connected draws
    "theorem-trials": (
        "verify", "theorem", "--group", "heisenberg", "--set", "random:50:7", "--trials", "200",
    ),
    "transport": (
        "verify", "transport", "--group", "zd:2", "--set", "random:10:3",
        "--gamma0", "+1+2", "--trials", "2",
    ),
    "lemma31": ("verify", "lemma31", "--group", "free:2", "--set", "random:8:5", "--d", "2", "--trials", "2"),
    "halfmass": ("verify", "halfmass", "--group", "dihedral:5", "--set", "explicit:(0,0),(1,0),(0,1)"),
    "profile": ("profile", "--group", "dihedral:4", "--sizes", "1..3"),
    # ROADMAP golden, a perfbench exhaustive-profile job, and the 2^24-mask
    # case the Gray walk took 13.7 s over
    "profile-dihedral:6": ("profile", "--group", "dihedral:6", "--sizes", "1..5"),
    "profile-cyclic:16": ("profile", "--group", "cyclic:16", "--sizes", "1..7"),
    "profile-symmetric:4": ("profile", "--group", "symmetric:4", "--sizes", "1..3"),
    # the exhaustive: stream, including a range far below the order of symmetric:4
    "stream-cyclic:12": ("verify", "theorem", "--group", "cyclic:12", "--set", "exhaustive:1..5"),
    "stream-dihedral:5": ("verify", "boundary-cmp", "--group", "dihedral:5", "--set", "exhaustive:3..7"),
    "stream-symmetric:4": ("verify", "theorem", "--group", "symmetric:4", "--set", "exhaustive:1..1"),
    # witnesses and transport images that tie-break by the order within a BFS
    # layer: free words, residues, unitriangular triples and permutations
    "halfmass-free:2": ("verify", "halfmass", "--group", "free:2", "--set", "random:40:3:ball=4"),
    "halfmass-cyclic:12": ("verify", "halfmass", "--group", "cyclic:12", "--set", "explicit:0,1,2,3,5"),
    "halfmass-heisenberg:3": ("verify", "halfmass", "--group", "heisenberg:3", "--set", "random:9:4"),
    "halfmass-symmetric:4": ("verify", "halfmass", "--group", "symmetric:4", "--set", "random:7:2"),
    # uniform ball draws whose scans skip translates after their inverses and
    # drop those that move fewer points than a translate of the outer layer
    "halfmass-zd:2": ("verify", "halfmass", "--group", "zd:2", "--set", "random:40:1:ball=6"),
    "halfmass-heisenberg": ("verify", "halfmass", "--group", "heisenberg", "--set", "random:60:1:ball=4"),
    "transport-free:2": (
        "verify", "transport", "--group", "free:2", "--set", "random:20:4", "--gamma0", "abA",
    ),
    # the two verify checks whose relation is not > or =
    "csc": ("verify", "csc", "--group", "z", "--set", "ball:5"),
    "boundary-cmp": ("verify", "boundary-cmp", "--group", "free:2", "--set", "random:12:3"),
    "sharpness-intervals": ("sharpness", "--group", "z", "--set", "interval:1..12"),
    "sharpness-set": ("sharpness", "--group", "free:2", "--set", "random:6:1", "--trials", "3"),
    "accept": ("accept", "--quick", "--seed", "7"),
}

DIGESTS = {
    ("growth", "jsonl"): "12cd3a39388b1191",
    ("growth", "csv"): "1f86e36c8aaa178b",
    ("growth", "human"): "94c86c445e25287d",
    ("growth-phi", "jsonl"): "e2fc8902c32aabfa",
    ("growth-phi", "csv"): "d5ceb57f95e19837",
    ("growth-phi", "human"): "904a8ef17adeb081",
    ("theorem", "jsonl"): "7ed1180ebc7f52ea",
    ("theorem", "csv"): "ae2b4c49807664b9",
    ("theorem", "human"): "9825c0c7bb28f0a5",
    ("theorem-trials", "jsonl"): "5d70a4b6291ae087",
    ("transport", "jsonl"): "7d9e7cc7ed25d75a",
    ("transport", "csv"): "9b64ceb5d5249b07",
    ("transport", "human"): "b190406aa63ebbaa",
    ("lemma31", "jsonl"): "4effa0411f8515d3",
    ("lemma31", "csv"): "56f4a9fefb244848",
    ("lemma31", "human"): "2ba41dfe008580fc",
    ("halfmass", "jsonl"): "319d2efe19876866",
    ("halfmass", "csv"): "3da802b579f45c82",
    ("halfmass", "human"): "71ca3def52a12e3a",
    ("profile", "jsonl"): "a62f37d9135b7704",
    ("profile", "csv"): "a75064c4e75b15cd",
    ("profile", "human"): "4f4a0b520260ebb4",
    ("profile-dihedral:6", "csv"): "60be03964f6302dc",
    ("profile-cyclic:16", "csv"): "56950f02dfeb3f9d",
    ("profile-symmetric:4", "csv"): "117cc6fc48158899",
    ("stream-cyclic:12", "jsonl"): "f0fca123697eb659",
    ("stream-dihedral:5", "csv"): "bb3e85a395288d17",
    ("stream-symmetric:4", "jsonl"): "3ad1380a9b098bfa",
    ("halfmass-free:2", "jsonl"): "5115a7de41327aa4",
    ("halfmass-cyclic:12", "jsonl"): "5c540913e1deb1ae",
    ("halfmass-heisenberg:3", "jsonl"): "783cd3dff39fc029",
    ("halfmass-symmetric:4", "jsonl"): "6bc747845a2e7962",
    ("halfmass-zd:2", "jsonl"): "32bbb2402e105d4d",
    ("halfmass-heisenberg", "jsonl"): "081db116346f3f69",
    ("transport-free:2", "jsonl"): "13d1c0ad0de4076d",
    ("csc", "jsonl"): "5c03ede6e714ad30",
    ("csc", "csv"): "e0dcf67b53a9e933",
    ("csc", "human"): "a537054d56091f4e",
    ("boundary-cmp", "jsonl"): "0daeb92893d763c5",
    ("boundary-cmp", "csv"): "bc210bdc3553de3e",
    ("boundary-cmp", "human"): "7b0d9f4b6da33a89",
    ("sharpness-intervals", "jsonl"): "c72b4bde64d472ad",
    ("sharpness-intervals", "csv"): "b17a8cdb5bca8740",
    ("sharpness-intervals", "human"): "852b2ade10b7e649",
    ("sharpness-set", "jsonl"): "75a66295f5020f9e",
    ("sharpness-set", "csv"): "6b5465ac0dac73e2",
    ("sharpness-set", "human"): "f3718067fe29a964",
    ("accept", "jsonl"): "60872b3ab45f746d",
    ("accept", "csv"): "22a75c3fe41d35bf",
    ("accept", "human"): "6fa04d9b567786ce",
}


@pytest.fixture(scope="module")
def quick_outcome():
    """One real quick pass of the seven criteria (no determinism rerun),
    shared by the three accept formats."""
    return AcceptanceOutcome(7, True, *_run_criteria(7, True))


@pytest.mark.parametrize("name,fmt", sorted(DIGESTS))
def test_stdout_digest(name, fmt, capsys, monkeypatch, request):
    if name == "accept":
        outcome = request.getfixturevalue("quick_outcome")
        monkeypatch.setattr(isoplab.cli, "run_acceptance", lambda *args, **kwargs: outcome)
    code = main([*COMMANDS[name], "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == DIGESTS[name, fmt]
