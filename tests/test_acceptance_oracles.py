"""The word levels shared by criteria 1 and 7 against brute word
enumeration and the BFS layers, and the independence of the word oracles
of both criteria from the metric module whose BFS tables they check."""

import ast
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import acceptance, ball, isoperimetry, parse_group
from isoplab.acceptance import FAMILIES, _ORACLE_RADII, _oracle_word_length
from isoplab.isoperimetry import _word_levels
from oracle_helpers import word_length_by_enumeration

GROUPS = {fam: parse_group(fam) for fam in FAMILIES}
LEVELS = {fam: _word_levels(GROUPS[fam], _ORACLE_RADII[fam]) for fam in FAMILIES}
# two layers past each oracle radius, so some draws lie beyond it
POOLS = {fam: list(ball(GROUPS[fam], _ORACLE_RADII[fam] + 2).elements()) for fam in FAMILIES}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6))
def test_level_sets_match_word_enumeration(fam, pick):
    group = GROUPS[fam]
    g = POOLS[fam][pick % len(POOLS[fam])]
    expected = word_length_by_enumeration(group, g, _ORACLE_RADII[fam])
    assert _oracle_word_length(LEVELS[fam], g) == expected


@pytest.mark.parametrize("fam", FAMILIES)
def test_level_sets_at_the_identity_and_past_the_radius(fam):
    group = GROUPS[fam]
    radius = _ORACLE_RADII[fam]
    levels = LEVELS[fam]
    # dihedral:6 has no element of word length 5, so its levels end at 4
    assert len(levels) == (5 if fam == "dihedral:6" else radius + 1)
    assert _oracle_word_length(levels, group.identity()) == 0
    beyond = ball(group, radius + 1).layers[radius + 1]
    assert all(_oracle_word_length(levels, g) is None for g in beyond)
    assert all(word_length_by_enumeration(group, g, radius) is None for g in beyond)


def test_level_sets_are_disjoint_and_hold_word_length_n():
    z = GROUPS["z"]
    levels = LEVELS["z"]
    assert levels[:3] == [{(0,)}, {(-1,), (1,)}, {(-2,), (2,)}]
    assert _oracle_word_length(levels, (12,)) == 12
    assert _oracle_word_length(levels, (13,)) is None
    assert _oracle_word_length(levels, (-13,)) is None
    assert word_length_by_enumeration(z, (13,), 12) is None


def _names_from_metric(module) -> tuple[set, dict]:
    """The names a module imports from metric, and its top-level functions."""
    tree = ast.parse(inspect.getsource(module))
    from_metric = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("metric", "isoplab.metric")
        for alias in node.names
    }
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    return from_metric, functions


def _uses_nothing_from_metric(module, name: str) -> None:
    from_metric, functions = _names_from_metric(module)
    assert "ball" in from_metric  # lemma31_check and criterion 7 themselves do use it
    used = {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(functions[name])
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    assert not used & (from_metric | {"metric"}), name


def test_word_oracles_use_nothing_imported_from_metric():
    for name in ("_oracle_word_length", "_distance_one_oracle"):
        _uses_nothing_from_metric(acceptance, name)


def test_word_ball_uses_nothing_imported_from_metric():
    # the word levels behind criterion 1's word ball and criterion 7's oracle
    _uses_nothing_from_metric(isoperimetry, "_word_levels")


@pytest.mark.parametrize("fam", FAMILIES)
def test_word_ball_is_the_bfs_ball(fam):
    group = GROUPS[fam]
    # a finite group's levels stop before their first empty one
    radii = [0, 1, 2, 3] + ([10**12] if group.order() is not None else [])
    for d in radii:
        table = ball(group, d)
        levels = _word_levels(group, d)
        for r, level in enumerate(levels):
            assert level == set(table.layer(r)), (d, r)
        assert len(levels) == d + 1 or not table.layer(len(levels)), d
