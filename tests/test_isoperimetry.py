import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (
    FiniteSubset,
    Group,
    ParseError,
    PreconditionViolated,
    SplitMix64,
    TransportEntry,
    ball,
    boundary_comparison,
    displacement,
    displacement_bound_check,
    exhaustive_profile,
    half_mass_witness,
    inner_boundary_left,
    inner_boundary_right,
    lemma31_check,
    minimal_d,
    outer_boundary,
    parse_group,
    parse_set_descriptor,
    generate_set,
    preimage_bound_check,
    smoothed_density,
    translate,
    transport_map,
    verify_csc,
    verify_theorem,
    word_length,
)
from isoplab.acceptance import FAMILIES, acceptance_instances
from isoplab.isoperimetry import _require_admissible, admissible, canonical_json
from oracle_helpers import (
    displacement_bound_by_direct_count,
    half_mass_by_full_scan,
    lemma31_route_a_by_fractions,
    naive_inner_boundary,
    naive_outer_boundary,
)

Z = parse_group("z")
F2 = parse_group("free:2")
C12 = parse_group("cyclic:12")


def zset(*values, provenance="zset"):
    return FiniteSubset.from_iterable(Z, [(v,) for v in values], provenance=provenance)


def interval(n, provenance="interval"):
    return zset(*range(n), provenance=provenance)


# ---------------------------------------------------------------- boundaries

def test_outer_boundary_examples():
    assert outer_boundary(Z, interval(3)).elements == ((-1,), (3,))
    assert set(outer_boundary(Z, zset(0)).elements) == {(-1,), (1,)}
    dea = FiniteSubset.from_iterable(F2, [F2.parse("e"), F2.parse("a")], "dea")
    got = {F2.format(e) for e in outer_boundary(F2, dea).elements}
    assert got == {"A", "b", "B", "aa", "ba", "Ba"}


def test_inner_boundary_examples():
    assert inner_boundary_right(Z, interval(10)).elements == ((0,), (9,))
    assert inner_boundary_left(Z, interval(10)).elements == ((0,), (9,))
    dea = FiniteSubset.from_iterable(F2, [F2.parse("e"), F2.parse("a")], "dea")
    assert set(inner_boundary_right(F2, dea).elements) == set(dea.elements)
    assert set(inner_boundary_left(F2, dea).elements) == set(dea.elements)
    s3 = parse_group("symmetric:3")
    singleton = FiniteSubset.from_iterable(s3, [s3.identity()], "singleton")
    assert inner_boundary_left(s3, singleton).elements == (s3.identity(),)
    # a proper ball in a finite group still has inner boundary
    c12_ball = FiniteSubset.from_iterable(C12, ball(C12, 5).elements(), "c12_ball")
    assert len(inner_boundary_right(C12, c12_ball)) > 0


@pytest.mark.parametrize("spec,seed,size", [
    ("zd:2", 11, 7), ("free:2", 12, 7), ("dihedral:6", 13, 7),
    ("heisenberg", 14, 7), ("symmetric:3", 15, 5), ("symmetric:4", 16, 9),
])
def test_boundaries_match_naive_oracles(spec, seed, size):
    group = parse_group(spec)
    subset = generate_set(group, parse_set_descriptor(f"random:{size}:{seed}"))
    members = set(subset.elements)
    assert set(outer_boundary(group, subset).elements) == naive_outer_boundary(group, members)
    assert set(inner_boundary_right(group, subset).elements) == naive_inner_boundary(
        group, members, "right"
    )
    assert set(inner_boundary_left(group, subset).elements) == naive_inner_boundary(
        group, members, "left"
    )


BOUNDARY_FAMILIES = [
    "z", "zd:2", "free:2", "heisenberg", "heisenberg:3", "cyclic:12", "dihedral:6", "symmetric:4",
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BOUNDARY_FAMILIES),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_counted_boundary_sizes_match_built_boundaries(spec, size, seed, uniform, pick):
    group = parse_group(spec)
    table = ball(group, 4)
    order = group.order()
    # stay inside the group for the connected sampler, inside B(e, 4) for the uniform one
    size = min(size, table.size if uniform else order or size)
    text = f"random:{size}:{seed}" + (":ball=4" if uniform else "")
    D = generate_set(group, parse_set_descriptor(text))
    members = set(D.elements)
    outer = naive_outer_boundary(group, members)
    left = naive_inner_boundary(group, members, "left")
    right = naive_inner_boundary(group, members, "right")
    for built, naive, label in (
        (outer_boundary(group, D), outer, "outer"),
        (inner_boundary_left(group, D), left, "inner_l"),
        (inner_boundary_right(group, D), right, "inner_r"),
    ):
        want = FiniteSubset.from_iterable(group, naive, provenance=f"{label}({D.provenance})")
        assert (built.elements, built.provenance) == (want.elements, want.provenance)
    extra = boundary_comparison(group, D).extra
    assert (extra["outer_size"], extra["inner_left_size"], extra["inner_right_size"]) == (
        len(outer), len(left), len(right),
    )
    pool = [g for layer in table.layers[1:] for g in layer]
    assert transport_map(group, pool[pick % len(pool)], D).boundary_size == len(outer)
    if order is None or 2 * size < order:
        assert verify_theorem(group, D).extra["boundary_size"] == len(outer)
        assert verify_csc(group, D).extra["inner_right_size"] == len(right)


def test_from_iterable_validates_every_element():
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(Z, [(1, 2)], "D")
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(Z, [(0,), (1, 2)], "D")
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(F2, [0b1_10_01], "D")  # aA, not reduced
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(F2, [(3,)], "D")  # a tuple, not an int
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(F2, [F2.identity(), (3,)], "D")  # refused before sorting
    with pytest.raises(ParseError):
        FiniteSubset.from_iterable(C12, [12], "D")


def test_translate_and_displacement_examples():
    d5 = interval(5)
    assert displacement(Z, (1,), d5) == 1
    assert displacement(Z, (0,), d5) == 0
    assert displacement(Z, (5,), d5) == 5
    assert set(translate(Z, (2,), interval(3)).elements) == {(2,), (3,), (4,)}


# ------------------------------------------------------------------ smoothing

def test_smoothed_density_examples():
    d01 = interval(2)
    assert smoothed_density(Z, d01, 1, (0,)) == Fraction(2, 3)
    assert smoothed_density(Z, d01, 1, (5,)) == 0
    assert smoothed_density(Z, d01, 0, (0,)) == 1


def test_smoothed_density_bounds_and_extremes():
    group = parse_group("dihedral:6")
    subset = generate_set(group, parse_set_descriptor("random:4:3"))
    members = set(subset.elements)
    smoothing_ball = list(ball(group, 2).elements())
    for y in ball(group, 3).elements():
        value = smoothed_density(group, subset, 2, y)
        assert 0 <= value <= 1
        ball_of_y = {group.mul(x, y) for x in smoothing_ball}
        assert (value == 0) == (not (ball_of_y & members))
        assert (value == 1) == (ball_of_y <= members)


def test_smoothing_is_strictly_below_half_at_minimal_d():
    # the strictness engine: gamma(d) > 2|D| forces density < 1/2 on D
    for spec, seed in (("z", 5), ("free:2", 6), ("cyclic:12", 7), ("heisenberg", 8)):
        group = parse_group(spec)
        size = 4 if group.order() is not None else 9
        subset = generate_set(group, parse_set_descriptor(f"random:{size}:{seed}"))
        d, _ = minimal_d(group, 2 * len(subset))
        for y in subset.elements:
            assert smoothed_density(group, subset, d, y) < Fraction(1, 2)


# -------------------------------------------------------- smoothing identity

def test_lemma31_hand_example():
    rep = lemma31_check(Z, interval(2), 1)
    assert rep.lhs == rep.rhs == Fraction(2)
    assert rep.extra["mid_b"] == 2
    assert rep.verdict


def test_lemma31_degenerate_smoothing_radius():
    eab = FiniteSubset.from_iterable(F2, [F2.parse(w) for w in ("e", "a", "b")], "eab")
    for subset in (interval(4), eab):
        group = subset.group
        rep = lemma31_check(group, subset, 0)
        assert rep.lhs == rep.rhs == Fraction(0)
        assert rep.verdict


def test_lemma31_brute_force_on_cyclic8():
    # exhaustive oracle over all 8 elements of cyclic:8
    c8 = parse_group("cyclic:8")
    members = {0, 1, 2}
    d = 2
    ball_elems = set(ball(c8, d).elements())
    b = sum(
        sum(1 for x in ball_elems if c8.mul(x, y) not in members) for y in members
    )
    c = sum(
        sum(1 for y in members if c8.mul(x, y) not in members) for x in ball_elems
    )
    assert b == c  # the oracle itself is consistent
    rep = lemma31_check(c8, FiniteSubset.from_iterable(c8, members, "D"), d)
    assert rep.verdict
    assert rep.lhs == Fraction(b) == rep.rhs


@pytest.mark.parametrize("spec", ["z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg"])
def test_lemma31_randomized(spec):
    group = parse_group(spec)
    rng = SplitMix64(99)
    cap = group.order() or 20
    for t in range(6):
        size = 1 + rng.below(cap)
        subset = generate_set(group, parse_set_descriptor(f"random:{size}:{rng.child_seed(t)}"))
        rep = lemma31_check(group, subset, rng.below(4))
        assert rep.verdict, (spec, subset.provenance)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(-8, 8), min_size=1, max_size=9), st.integers(0, 3))
def test_lemma31_property_on_z(values, d):
    rep = lemma31_check(Z, zset(*values), d)
    assert rep.verdict


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 30), st.integers(0, 2**32), st.integers(0, 4))
def test_lemma31_route_a_matches_the_fraction_route(fam, size, seed, d):
    group = parse_group(fam)
    size = min(size, group.order() or size)
    subset = generate_set(group, parse_set_descriptor(f"random:{size}:{seed}"))
    assert lemma31_check(group, subset, d).lhs == lemma31_route_a_by_fractions(group, subset, d)


@pytest.mark.parametrize("spec,seed", [("zd:2", 41), ("free:2", 42), ("dihedral:6", 43)])
def test_translation_ball_duality(spec, seed):
    # |B(y,d) \ D| built as an explicit set difference equals the indicator
    # sum over the centered ball, for y in D
    group = parse_group(spec)
    subset = generate_set(group, parse_set_descriptor(f"random:6:{seed}"))
    members = set(subset.elements)
    d = 2
    table = ball(group, d)
    for y in subset.elements:
        ball_of_y = {group.mul(x, y) for x in table.elements()}
        direct = len(ball_of_y - members)
        indicator_sum = sum(1 for x in table.elements() if group.mul(x, y) not in members)
        assert direct == indicator_sum


# ------------------------------------------------------------------ half mass

def test_half_mass_witness_examples():
    x, rep = half_mass_witness(Z, interval(5))
    assert rep.d == 5
    assert x == (-5,)  # canonical tie-break between -5 and 5
    assert (rep.lhs, rep.rhs) == (5, Fraction(5, 2))
    assert rep.verdict and rep.strict

    x, rep = half_mass_witness(Z, zset(0))
    assert rep.d == 1
    assert rep.lhs == 1
    assert rep.verdict

    x, rep = half_mass_witness(C12, FiniteSubset.from_iterable(C12, [0, 1, 2, 3, 4], "D"))
    assert rep.d == 5
    assert rep.lhs >= 3
    assert rep.verdict


def test_half_mass_precondition():
    full_half = FiniteSubset.from_iterable(C12, list(range(6)), "full_half")
    with pytest.raises(PreconditionViolated):
        half_mass_witness(C12, full_half)
    with pytest.raises(PreconditionViolated):
        half_mass_witness(Z, FiniteSubset.from_iterable(Z, [], "D"))


@pytest.mark.parametrize("spec", ["z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg:3"])
def test_half_mass_never_fails_on_admissible_sets(spec):
    group = parse_group(spec)
    order = group.order()
    rng = SplitMix64(123)
    for t in range(8):
        cap = 15 if order is None else (order - 1) // 2
        size = 1 + rng.below(cap)
        subset = generate_set(group, parse_set_descriptor(f"random:{size}:{rng.child_seed(t)}"))
        x, rep = half_mass_witness(group, subset)
        assert rep.verdict
        assert rep.lhs == displacement(group, x, subset) and rep.rhs == Fraction(len(subset), 2)
        assert rep.lhs > rep.rhs
        assert word_length(group, x) <= rep.d
        assert rep.extra["witness"] == group.format(x)


class CountingGroup(Group):
    """Delegates to `inner` and counts its `mul` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.mul_calls = 0

    def mul(self, a, b):
        self.mul_calls += 1
        return self.inner.mul(a, b)

    def identity(self):
        return self.inner.identity()

    def inv(self, a):
        return self.inner.inv(a)

    def order(self):
        return self.inner.order()

    def sort_key(self, e):
        return self.inner.sort_key(e)

    def format(self, e):
        return self.inner.format(e)

    def generator_tokens(self):
        return self.inner.generator_tokens()


def scan_mul_calls(scan, group, D):
    """Run scan over D through a CountingGroup; return its result and the
    mul calls it made beyond building the ball B(e, d).

    CountingGroups share one growth table, their own.  `bfs` asks for B(e,
    d) twice: the second query costs what the scan's own query does, nothing
    when the first filled the cache, the whole BFS for a table too large to
    keep.
    """
    bfs = CountingGroup(group)
    minimal_d(bfs, 2 * len(D))
    bfs.mul_calls = 0
    minimal_d(bfs, 2 * len(D))
    counted = CountingGroup(group)
    result = scan(counted, FiniteSubset(counted, D.elements, D.provenance))
    return result, counted.mul_calls - bfs.mul_calls


HALF_MASS_FAMILIES = [
    "z", "zd:2", "free:2", "heisenberg", "heisenberg:3", "cyclic:12", "dihedral:6", "symmetric:4",
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(HALF_MASS_FAMILIES),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.sampled_from([None, 2, 3, 5]),
)
def test_half_mass_pruned_scan_matches_full_scan(spec, size, seed, radius):
    group = parse_group(spec)
    # stay inside the group for the connected sampler, inside B(e, radius) for the uniform one
    room = ball(group, radius).size if radius is not None else (group.order() or size)
    size = min(size, room)
    text = f"random:{size}:{seed}" + ("" if radius is None else f":ball={radius}")
    D = generate_set(group, parse_set_descriptor(text))
    if group.order() is not None and 2 * size >= group.order():
        with pytest.raises(PreconditionViolated) as new_exc:
            half_mass_witness(group, D)
        with pytest.raises(PreconditionViolated) as old_exc:
            half_mass_by_full_scan(group, D)
        assert str(new_exc.value) == str(old_exc.value)
        return
    assert_pruned_scan_matches_full_scan(group, D)


@pytest.mark.parametrize("text,outside", [("random:40:5", 18), ("random:30:11", 4)])
def test_half_mass_pruned_scan_matches_full_scan_with_points_outside_the_ball(text, outside):
    # the scan counts D centre first and the points outside B(e, d) last
    group = parse_group("free:2")
    D = generate_set(group, parse_set_descriptor(text))
    table = minimal_d(group, 2 * len(D))[1]
    assert sum(y not in table for y in D.elements) == outside
    assert_pruned_scan_matches_full_scan(group, D)


def assert_pruned_scan_matches_full_scan(group, D):
    (x, report), pruned_calls = scan_mul_calls(half_mass_witness, group, D)
    (old_x, old_report), full_calls = scan_mul_calls(half_mass_by_full_scan, group, D)
    assert x == old_x
    assert report.to_json_dict() == old_report.to_json_dict()
    assert pruned_calls <= full_calls


@pytest.mark.parametrize("spec,elems,x,disp", [
    # 4, 8, 5 and 7 all move 4 of 5 points; 4 comes first in scan order
    ("cyclic:12", [0, 1, 2, 3, 5], 4, 4),
    # 1, 11, 2 and 10 tie at 3 before 4 moves more
    ("cyclic:12", [0, 1, 3, 4, 6], 4, 4),
    # -5 and 5 both move all of D; -5 comes first
    ("z", [(v,) for v in range(5)], (-5,), 5),
])
def test_half_mass_first_of_tied_translates_wins(spec, elems, x, disp):
    group = parse_group(spec)
    D = FiniteSubset.from_iterable(group, elems, "D")
    witness, report = half_mass_witness(group, D)
    assert (witness, report.lhs) == (x, disp)
    old_witness, old_report = half_mass_by_full_scan(group, D)
    assert witness == old_witness
    assert report.to_json_dict() == old_report.to_json_dict()


@pytest.mark.parametrize("spec,elems,case", [
    ("dihedral:6", [(1, 1), (2, 0), (4, 0), (5, 0), (5, 1)], "probe is the only maximizer"),
    ("symmetric:4", [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2), (2, 1, 3, 4), (2, 3, 1, 4)],
     "probe is the only maximizer"),
    # both tie below Card(D), where only the probe's floor b0 - 1 keeps the earlier one
    ("zd:2", [(-1, -1), (-1, 1), (0, 1), (0, 2), (1, 1)], "an earlier translate ties the probe"),
    ("heisenberg", [(-1, -1, 0), (-1, 0, 0), (-1, 1, -1), (0, 0, 0), (0, 2, 0), (1, 1, 1)],
     "an earlier translate ties the probe"),
    # an involution is its own inverse: it is never skipped in favour of it
    ("dihedral:6", [(0, 1), (2, 0)], "the witness is an involution"),
    ("symmetric:4", [(1, 2, 4, 3), (1, 3, 2, 4)], "the witness is an involution"),
])
def test_half_mass_pruning_keeps_the_first_maximizer(spec, elems, case):
    # the probe is the first translate of the outermost layer, counted before the scan
    group = parse_group(spec)
    D = FiniteSubset.from_iterable(group, elems, "D")
    witness, report = half_mass_witness(group, D)
    old_witness, old_report = half_mass_by_full_scan(group, D)
    assert witness == old_witness
    assert report.to_json_dict() == old_report.to_json_dict()
    table = minimal_d(group, 2 * len(D))[1]
    probe = table.layers[-1][0]
    maximizers = [x for x in table.elements() if displacement(group, x, D) == report.lhs]
    assert maximizers[0] == witness
    if case == "probe is the only maximizer":
        assert maximizers == [probe]
    elif case == "an earlier translate ties the probe":
        assert probe in maximizers[1:] and report.lhs < len(D)
    else:
        assert group.inv(witness) == witness != group.identity()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(HALF_MASS_FAMILIES),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
    st.integers(0, 10**6),
)
def test_inverse_translate_moves_as_much_at_the_same_length(spec, picks, pick):
    # the two facts behind skipping x when x^-1 precedes it in the scan
    group = parse_group(spec)
    pool = list(ball(group, 4).elements())
    D = FiniteSubset.from_iterable(group, [pool[i % len(pool)] for i in picks], "D")
    x = pool[pick % len(pool)]
    assert displacement(group, x, D) == displacement(group, group.inv(x), D)
    assert word_length(group, group.inv(x)) == word_length(group, x)


@pytest.mark.parametrize("spec,text,calls", [
    # the scan without the inverse skip and the probe made 2,356 and 3,592,
    # and with them but counting D in canonical order 1,189 and 2,023
    ("zd:2", "random:40:1:ball=6", 807),
    ("heisenberg", "random:60:1:ball=4", 1293),
])
def test_half_mass_scan_work_is_pinned(spec, text, calls):
    group = parse_group(spec)
    D = generate_set(group, parse_set_descriptor(text))
    (_, report), pruned_calls = scan_mul_calls(half_mass_witness, group, D)
    assert report.extra["witness_length"] == report.d  # the witness is in the outer layer
    assert pruned_calls == calls


def test_half_mass_scan_stops_at_a_full_move():
    group = parse_group("free:2")
    D = generate_set(group, parse_set_descriptor("random:300:845294:ball=7"))
    n = len(D)
    (x, report), pruned_calls = scan_mul_calls(half_mass_witness, group, D)
    _, full_calls = scan_mul_calls(half_mass_by_full_scan, group, D)
    assert report.lhs == n == 300
    scan = list(minimal_d(group, 2 * n)[1].elements())
    position = scan.index(x)
    assert full_calls == len(scan) * n
    # the witness itself is counted in full; no translate after it adds a call
    assert n <= pruned_calls <= (position + 1) * n < len(scan) * n


# -------------------------------------------------------------- transport map

def test_transport_map_hand_example():
    d5 = interval(5)
    record = transport_map(Z, (3,), d5)
    assert [Z.format(e.moved) for e in record.entries] == ["5", "6", "7"]
    by_moved = {e.moved: e for e in record.entries}
    assert by_moved[(5,)].hit_index == 3 and by_moved[(5,)].image == (5,)
    assert by_moved[(6,)].hit_index == 2 and by_moved[(6,)].image == (5,)
    assert by_moved[(7,)].hit_index == 1 and by_moved[(7,)].image == (5,)
    assert [e.image for e in record.entries] == [(5,)] * 3 and record.max_preimage() == 3

    single = transport_map(Z, (1,), d5)
    assert len(single.entries) == 1
    assert single.entries[0].moved == (5,) and single.entries[0].origin == (4,)
    assert single.entries[0].hit_index == 1 and single.entries[0].image == (5,)


def test_transport_records_are_values():
    entries = transport_map(Z, (3,), interval(5)).entries
    assert entries == transport_map(Z, (3,), interval(5)).entries
    assert entries[0] == TransportEntry(moved=(5,), origin=(2,), hit_index=3, image=(5,))
    assert entries[0] != entries[1]


def test_sets_and_reports_compare_by_identity():
    a, b = interval(3), interval(3)
    assert a.elements == b.elements and a.provenance == b.provenance
    assert a == a and a != b and len({a, b}) == 2
    r, s = verify_theorem(Z, a), verify_theorem(Z, a)
    assert r.to_json_dict() == s.to_json_dict()
    assert r == r and r != s and len({r, s}) == 2


def test_transport_map_free_group_example():
    dea = FiniteSubset.from_iterable(F2, [F2.parse("e"), F2.parse("a")], "dea")
    record = transport_map(F2, F2.parse("aa"), dea)
    moved = {F2.format(e.moved) for e in record.entries}
    assert moved == {"aa", "aaa"}
    boundary = set(outer_boundary(F2, dea).elements)
    assert all(e.image in boundary for e in record.entries)
    assert record.max_preimage() <= 2
    by_moved = {F2.format(e.moved): e for e in record.entries}
    assert by_moved["aa"].hit_index == 2 and F2.format(by_moved["aa"].image) == "aa"
    assert by_moved["aaa"].hit_index == 1 and F2.format(by_moved["aaa"].image) == "aa"


def test_transport_map_rejects_identity():
    with pytest.raises(PreconditionViolated):
        transport_map(Z, (0,), interval(3))


@pytest.mark.parametrize("spec", ["z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg"])
def test_transport_map_totality_and_bounds(spec):
    group = parse_group(spec)
    order = group.order()
    rng = SplitMix64(321)
    pool = [g for layer in ball(group, 4).layers[1:] for g in layer]
    for t in range(6):
        cap = 12 if order is None else order
        size = 1 + rng.below(cap)
        subset = generate_set(group, parse_set_descriptor(f"random:{size}:{rng.child_seed(t)}"))
        gamma0 = pool[rng.below(len(pool))]
        record = transport_map(group, gamma0, subset)  # InternalContradiction must not fire
        boundary = set(outer_boundary(group, subset).elements)
        k = record.length
        assert k == word_length(group, gamma0)
        for entry in record.entries:
            assert entry.image in boundary
            assert entry.origin in subset
            assert 1 <= entry.hit_index <= k
            assert group.mul(gamma0, entry.origin) == entry.moved
        assert record.max_preimage() <= k
        assert len(record.entries) == displacement(group, gamma0, subset)
        assert len(record.entries) <= k * len(boundary)


# ------------------------------------------------------------ preimage bound

def test_preimage_bound_examples():
    rep = preimage_bound_check(transport_map(Z, (3,), interval(5)), 3)
    assert rep.lhs == Fraction(3) and rep.rhs == Fraction(3)
    assert rep.verdict and rep.extra["max_le_word_length"]

    rep = preimage_bound_check(transport_map(Z, (1,), interval(5)), 5)
    assert rep.lhs == Fraction(1) and rep.verdict

    record = transport_map(C12, 4, FiniteSubset.from_iterable(C12, [0, 1, 2, 3, 4], "D"))
    rep = preimage_bound_check(record, 5)
    assert rep.verdict and rep.lhs <= Fraction(4)


def test_preimage_bound_precondition():
    record = transport_map(Z, (3,), interval(5))
    with pytest.raises(PreconditionViolated):
        preimage_bound_check(record, 2)  # word length 3 > d


# ------------------------------------------------------- displacement bound

def test_displacement_bound_examples():
    rep = displacement_bound_check(transport_map(Z, (3,), interval(5)), 3)
    assert rep.lhs == Fraction(3) and rep.rhs == Fraction(6)
    assert rep.verdict

    rep = displacement_bound_check(transport_map(Z, (1,), interval(10)), 1)
    assert rep.lhs == Fraction(1) and rep.rhs == Fraction(2)
    assert rep.verdict

    dea = FiniteSubset.from_iterable(F2, [F2.parse("e"), F2.parse("a")], "dea")
    rep = displacement_bound_check(transport_map(F2, F2.parse("aa"), dea), 2)
    assert rep.lhs == Fraction(2) and rep.rhs == Fraction(12)
    assert rep.extra["k_times_boundary"] == 12
    assert rep.verdict and rep.extra["holds_at_word_length"]


def test_displacement_bound_precondition():
    with pytest.raises(PreconditionViolated):
        displacement_bound_check(transport_map(Z, (3,), interval(5)), 2)


DISPLACEMENT_FAMILIES = ["z", "zd:2", "free:2", "heisenberg", "cyclic:12", "dihedral:6", "symmetric:4"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(DISPLACEMENT_FAMILIES),
    st.integers(1, 30),
    st.integers(0, 2**32),
    st.booleans(),
    st.integers(0, 10**6),
    st.integers(-1, 2),
)
def test_displacement_bound_from_record_matches_direct_count(spec, size, seed, uniform, pick, slack):
    group = parse_group(spec)
    table = ball(group, 4)
    # stay inside the group for the connected sampler, inside B(e, 4) for the uniform one
    size = min(size, table.size if uniform else group.order() or size)
    text = f"random:{size}:{seed}" + (":ball=4" if uniform else "")
    D = generate_set(group, parse_set_descriptor(text))
    pool = [g for layer in table.layers[1:] for g in layer]
    gamma0 = pool[pick % len(pool)]
    d = word_length(group, gamma0) + slack
    record = transport_map(group, gamma0, D)
    assert record.boundary_size == len(naive_outer_boundary(group, set(D.elements)))
    if slack < 0:
        with pytest.raises(PreconditionViolated) as new_exc:
            displacement_bound_check(record, d)
        with pytest.raises(PreconditionViolated) as old_exc:
            displacement_bound_by_direct_count(group, gamma0, D, d)
        assert str(new_exc.value) == str(old_exc.value)
        return
    new = displacement_bound_check(record, d).to_json_dict()
    assert new == displacement_bound_by_direct_count(group, gamma0, D, d).to_json_dict()


# -------------------------------------------------------------------- theorem

def test_theorem_examples():
    rep = verify_theorem(Z, interval(10))
    assert rep.lhs == Fraction(2, 10) and rep.rhs == Fraction(1, 20)
    assert rep.verdict and rep.strict and rep.sharpness == 4

    rep = verify_theorem(Z, zset(0))
    assert rep.lhs == Fraction(2) and rep.rhs == Fraction(1, 2)
    assert rep.verdict

    rep = verify_theorem(C12, FiniteSubset.from_iterable(C12, [0, 1, 2], "D"))
    assert rep.lhs == Fraction(2, 3) and rep.rhs == Fraction(1, 6)
    assert rep.verdict


def test_theorem_precondition():
    with pytest.raises(PreconditionViolated):
        verify_theorem(C12, FiniteSubset.from_iterable(C12, list(range(6)), "D"))


@pytest.mark.parametrize("spec, n, expected", [
    ("cyclic:12", 5, True), ("cyclic:12", 6, False),
    ("heisenberg:2", 3, True), ("heisenberg:2", 4, False),
    ("z", 1, True), ("z", 40, True), ("free:2", 1, True), ("free:2", 40, True),
])
def test_admissible_boundary(spec, n, expected):
    # 2n < Card(group); the verifiers and the profile refuse exactly the rest
    group = parse_group(spec)
    assert admissible(group, n) is expected
    D = generate_set(group, parse_set_descriptor(f"random:{n}:1"))
    if expected:
        _require_admissible(group, D)
    else:
        with pytest.raises(PreconditionViolated, match="need Card"):
            _require_admissible(group, D)
    if group.order() is None:
        assert admissible(group, 10**9)
        with pytest.raises(PreconditionViolated, match="is infinite"):
            exhaustive_profile(group, [n])
    elif expected:
        assert [row.size for row in exhaustive_profile(group, [n])] == [n]
    else:
        with pytest.raises(PreconditionViolated, match="profile sizes must satisfy"):
            exhaustive_profile(group, [n])


@pytest.mark.parametrize(
    "spec, other, elements",
    # zd:2's pairs would pass for z's elements; cyclic residues are no dihedral pairs
    [("z", "zd:2", [(0, 0), (1, 0)]), ("dihedral:6", "cyclic:12", [0, 1, 2])],
)
def test_verifiers_refuse_a_set_of_another_group(spec, other, elements):
    group = parse_group(spec)
    D = FiniteSubset.from_iterable(parse_group(other), elements, "D")
    gamma0 = group.generating_set[0]
    for check in (
        verify_theorem, verify_csc, boundary_comparison, outer_boundary, inner_boundary_left,
        inner_boundary_right, half_mass_witness, lambda g, D: lemma31_check(g, D, 1),
        lambda g, D: smoothed_density(g, D, 1, gamma0), lambda g, D: transport_map(g, gamma0, D),
    ):
        with pytest.raises(PreconditionViolated, match="not of " + spec):
            check(group, D)


def test_csc_examples():
    rep = verify_csc(Z, interval(10))
    assert rep.lhs == Fraction(2, 10) and rep.rhs == Fraction(1, 80)
    assert rep.verdict and not rep.strict

    rep = verify_csc(Z, zset(0))
    assert rep.lhs == Fraction(1) and rep.rhs == Fraction(1, 8)
    assert rep.verdict

    d6 = parse_group("dihedral:6")
    ball1 = FiniteSubset.from_iterable(d6, ball(d6, 1).elements(), "ball1")
    rep = verify_csc(d6, ball1)
    # frozen from exhaustive enumeration: inner_r = {r, r^-1, s} and
    # gamma(2) = 8 is not strictly above 8, so phi(8) = 3
    assert rep.lhs == Fraction(3, 4)
    assert rep.rhs == Fraction(1, 36)
    assert rep.verdict


def test_boundary_comparison_examples():
    rep = boundary_comparison(Z, interval(10))
    assert rep.lhs == Fraction(2) and rep.rhs == Fraction(4)
    assert rep.verdict and rep.extra["right_holds"]

    dea = FiniteSubset.from_iterable(F2, [F2.parse("e"), F2.parse("a")], "dea")
    rep = boundary_comparison(F2, dea)
    assert rep.lhs == Fraction(6) and rep.rhs == Fraction(8)
    assert rep.extra["inner_left_size"] == 2 and rep.extra["inner_right_size"] == 2
    assert rep.verdict and rep.extra["right_holds"]

    s3 = parse_group("symmetric:3")
    singleton = FiniteSubset.from_iterable(s3, [s3.identity()], "singleton")
    rep = boundary_comparison(s3, singleton)
    assert rep.extra["outer_size"] == len(s3.generating_set)
    assert rep.verdict


def test_singleton_profile_boundary_is_generating_set():
    for spec in ("z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg", "symmetric:4"):
        group = parse_group(spec)
        singleton = FiniteSubset.from_iterable(group, [group.identity()], "singleton")
        assert len(outer_boundary(group, singleton)) == len(group.generating_set)


# -------------------------------------------------------------------- reports

def test_report_json_schema():
    rep = verify_theorem(Z, interval(4, provenance="interval:4"))
    payload = json.loads(canonical_json(rep.to_json_dict()))
    for key in (
        "kind", "group", "set_descriptor", "lhs_num", "lhs_den",
        "rhs_num", "rhs_den", "verdict", "sharpness_num", "sharpness_den",
    ):
        assert key in payload
    assert payload["kind"] == "theorem"
    assert payload["group"] == "z"
    assert payload["set_descriptor"] == "interval:4"
    assert payload["verdict"] == "holds"
    assert Fraction(payload["lhs_num"], payload["lhs_den"]) == rep.lhs
    assert Fraction(payload["sharpness_num"], payload["sharpness_den"]) == rep.sharpness
    # verdict is recomputable from the stored quantities
    assert (Fraction(payload["lhs_num"], payload["lhs_den"])
            > Fraction(payload["rhs_num"], payload["rhs_den"])) == (payload["verdict"] == "holds")


RELATIONS = {"=": operator.eq, ">": operator.gt, ">=": operator.ge, "<=": operator.le}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(1, 20),
    st.integers(0, 2**32),
    st.integers(0, 10**6),
    st.integers(0, 3),
)
def test_every_verdict_is_its_reported_relation(fam, size, seed, pick, slack):
    group = parse_group(fam)
    order = group.order()
    size = min(size, (order - 1) // 2) if order else size  # Card(D) < Card(group)/2
    D = generate_set(group, parse_set_descriptor(f"random:{size}:{seed}"))
    pool = [g for layer in ball(group, 3).layers[1:] for g in layer]
    record = transport_map(group, pool[pick % len(pool)], D)
    d = record.length + slack
    lemma = lemma31_check(group, D, slack)
    reports = [
        lemma,
        half_mass_witness(group, D)[1],
        preimage_bound_check(record, d),
        displacement_bound_check(record, d),
        verify_theorem(group, D),
        verify_csc(group, D),
        boundary_comparison(group, D),
    ]
    for r in reports:
        assert r.relation in RELATIONS, r.kind
        assert r.verdict == RELATIONS[r.relation](r.lhs, r.rhs), r.kind
        assert r.strict == (r.relation == ">")
    # lemma31 holds only when all three routes agree
    assert lemma.verdict == (lemma.lhs == lemma.rhs == lemma.extra["mid_b"])


def test_acceptance_reports_of_every_kind_keep_the_verdict_contract():
    reports = []
    for group, D, d in acceptance_instances(7, quick=True):
        reports += [lemma31_check(group, D, d), boundary_comparison(group, D)]
        order = group.order()
        if order is None or 2 * len(D) < order:
            reports += [half_mass_witness(group, D)[1], verify_theorem(group, D), verify_csc(group, D)]
        if d >= 1:
            # the last element of the ball has word length at most d
            record = transport_map(group, list(ball(group, d).elements())[-1], D)
            reports += [preimage_bound_check(record, d), displacement_bound_check(record, d)]
    assert {r.kind for r in reports} == {
        "lemma31", "boundary_cmp", "half_mass", "theorem", "csc", "preimage_bound",
        "displacement_bound",
    }
    for r in reports:
        assert r.verdict == RELATIONS[r.relation](r.lhs, r.rhs), r.kind
        if r.kind == "lemma31":
            assert r.extra["mid_b"] == r.lhs


def test_report_line_is_deterministic():
    rep1 = lemma31_check(Z, interval(3), 2)
    rep2 = lemma31_check(Z, interval(3), 2)
    assert canonical_json(rep1.to_json_dict()) == canonical_json(rep2.to_json_dict())
