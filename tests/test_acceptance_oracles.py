"""Criterion 7's word-length oracle against brute word enumeration, and the
independence of the word oracles of criteria 1 and 7 from the metric module
whose BFS tables they check."""

import ast
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import acceptance, ball, isoperimetry, parse_group
from isoplab.acceptance import FAMILIES, _ORACLE_RADII, _oracle_word_length, _word_levels
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
    assert len(levels) == radius + 1
    assert _oracle_word_length(levels, group.identity()) == 0
    beyond = ball(group, radius + 1).layers[radius + 1]
    assert all(_oracle_word_length(levels, g) is None for g in beyond)
    assert all(word_length_by_enumeration(group, g, radius) is None for g in beyond)


def test_level_sets_hold_products_of_exactly_n_generators():
    z = GROUPS["z"]
    levels = LEVELS["z"]
    assert levels[:3] == [{(0,)}, {(-1,), (1,)}, {(-2,), (0,), (2,)}]
    assert _oracle_word_length(levels, (12,)) == 12
    assert _oracle_word_length(levels, (13,)) is None
    assert _oracle_word_length(levels, (-13,)) is None
    assert word_length_by_enumeration(z, (13,), 12) is None


def test_word_oracles_use_nothing_imported_from_metric():
    tree = ast.parse(inspect.getsource(acceptance))
    from_metric = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("metric", "isoplab.metric")
        for alias in node.names
    }
    assert {"ball", "word_length"} <= from_metric  # the criterion itself does use them
    oracles = {"_word_levels", "_oracle_word_length", "_distance_one_oracle"}
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert oracles <= set(functions)
    for name in sorted(oracles):
        used = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(functions[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        assert not used & (from_metric | {"metric"}), name


def test_word_ball_uses_nothing_imported_from_metric():
    tree = ast.parse(inspect.getsource(isoperimetry))
    from_metric = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("metric", "isoplab.metric")
        for alias in node.names
    }
    assert "ball" in from_metric  # lemma31_check itself does use it
    word_ball = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_word_ball"
    )
    used = {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(word_ball)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    assert not used & (from_metric | {"metric"})


@pytest.mark.parametrize("fam", FAMILIES)
def test_word_ball_is_the_bfs_ball(fam):
    group = GROUPS[fam]
    # a finite group's word ball stops at its first empty level
    radii = [0, 1, 2, 3] + ([10**12] if group.order() is not None else [])
    for d in radii:
        assert isoperimetry._word_ball(group, d) == set(ball(group, d).elements())
