from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoplab import (
    BudgetExceeded,
    SplitMix64,
    Unattainable,
    ball,
    distance,
    enumerate_group,
    geodesic_word,
    growth,
    minimal_d,
    parse_group,
    phi,
    word_length,
)
from oracle_helpers import encoding_order_key, word_ball, word_length_by_enumeration


def test_growth_closed_forms():
    # frozen from the closed forms gamma_z(r) = 2r+1, gamma_{z^2}(r) = 2r^2+2r+1,
    # gamma_{free:2}(r) = 2*3^r - 1, checked for r <= 8
    assert growth(parse_group("z"), 8) == (1, 3, 5, 7, 9, 11, 13, 15, 17)
    assert growth(parse_group("zd:2"), 4) == (1, 5, 13, 25, 41)
    assert growth(parse_group("free:2"), 8) == (
        1, 5, 17, 53, 161, 485, 1457, 4373, 13121,
    )
    assert growth(parse_group("zd:2"), 8) == tuple(
        2 * r * r + 2 * r + 1 for r in range(9)
    )


def _mahonian_growth(n):
    """gamma(r) on symmetric:n: the permutations with at most r inversions,
    since word length in adjacent transpositions is the inversion count."""
    counts = [1]
    for m in range(2, n + 1):  # times 1 + q + ... + q^(m-1)
        counts = [sum(counts[max(0, i - m + 1): i + 1]) for i in range(len(counts) + m - 1)]
    return list(accumulate(counts))


# spec -> gamma(0), gamma(1), ... from a closed form, one radius past the
# checked range for infinite groups and up to saturation for finite ones
CLOSED_GROWTH = {
    **{f"zd:{k}": [sum(2**i * comb(k, i) * comb(r, i) for i in range(k + 1)) for r in range(10)]
       for k in range(1, 5)},
    **{f"free:{k}": [1 + k * ((2 * k - 1) ** r - 1) // (k - 1) for r in range(7)]
       for k in range(2, 5)},
    **{f"cyclic:{n}": [min(2 * r + 1, n) for r in range(n // 2 + 1)] for n in range(2, 13)},
    # the Cayley graph of {r, R, s} is the prism C_n x K_2: the rotations
    # reach min(2r+1, n) points by radius r, the reflections min(2r-1, n)
    **{f"dihedral:{n}": [1] + [min(2 * r + 1, n) + min(2 * r - 1, n)
                               for r in range(1, (n + 4) // 2)]
       for n in range(3, 31)},
    **{f"symmetric:{n}": _mahonian_growth(n) for n in range(3, 6)},
}


@pytest.mark.parametrize("spec", sorted(CLOSED_GROWTH))
def test_growth_and_phi_match_closed_forms(spec):
    group = parse_group(spec)
    values = CLOSED_GROWTH[spec]
    order = group.order()
    assert order in (None, values[-1])  # a finite group's form runs to saturation
    checked = len(values) - (order is None)
    assert growth(group, checked - 1) == tuple(values[:checked])
    # phi(v) is the least r with gamma(r) > v; probe both sides of each gamma(r)
    for r in range(checked):
        for v in (values[r] - 1, values[r]):
            if order is not None and v >= order:
                continue  # no ball exceeds the whole group
            assert phi(group, v) == next(k for k, g in enumerate(values) if g > v), (spec, v)


def test_ball_layer_sizes_on_z():
    table = ball(parse_group("z"), 3)
    assert [len(layer) for layer in table.layers] == [1, 2, 2, 2]
    assert growth(parse_group("z"), 3)[3] == 7


def test_ball_tables_compare_by_identity():
    a, b = ball(parse_group("z"), 3), ball(parse_group("z"), 3)
    assert a.layers == b.layers and a.size == b.size == 7
    assert a == a and a != b and len({a, b}) == 2


def test_ball_saturates_on_finite_groups():
    c12 = parse_group("cyclic:12")
    assert ball(c12, 6).size == 12
    assert growth(parse_group("dihedral:4"), 5)[-1] == 8
    # saturated layers stay empty
    table = ball(c12, 9)
    assert table.layers[7] == () and table.size == 12


@pytest.mark.parametrize("spec,radius", [
    ("z", 4), ("zd:2", 3), ("free:2", 3), ("cyclic:12", 4),
    ("dihedral:6", 4), ("heisenberg", 3), ("symmetric:3", 3), ("heisenberg:2", 4),
])
def test_ball_matches_word_enumeration(spec, radius):
    group = parse_group(spec)
    table = ball(group, radius)
    assert set(table.elements()) == word_ball(group, radius)


@pytest.mark.parametrize("spec,radius", [
    ("z", 5), ("free:2", 3), ("dihedral:6", 4), ("heisenberg", 3),
])
def test_layers_are_disjoint_sorted_and_parented(spec, radius):
    group = parse_group(spec)
    table = ball(group, radius)
    seen = set()
    for k, layer in enumerate(table.layers):
        assert list(layer) == sorted(layer, key=group.sort_key)
        for g in layer:
            assert g not in seen
            seen.add(g)
            assert table.layer_of(g) == k
            if k > 0:
                i, pred = table.parent(g)
                s = group.generating_set[i]
                assert group.mul(s, pred) == g
                assert table.layer_of(pred) == k - 1


# spec -> radius of the ball the order test reads
ORDER_RADII = {
    "z": 6, "zd:3": 3, "free:2": 4, "free:3": 3, "cyclic:12": 6,
    "dihedral:6": 6, "heisenberg": 3, "heisenberg:3": 4, "symmetric:4": 6,
}
ORDER_POOLS = {spec: ball(parse_group(spec), r) for spec, r in ORDER_RADII.items()}


@settings(max_examples=200, deadline=None)
@example("free:2", [0, 1, 5, 17, 2, 53])  # e, B, BB, BBB, A, BBBB: lexicographic order puts A last
@given(st.sampled_from(sorted(ORDER_RADII)), st.lists(st.integers(0, 10**6), max_size=40))
def test_canonical_order_is_the_encoding_order(spec, picks):
    # every BFS layer is sorted without a key; sort_key orders mixed lengths
    table = ORDER_POOLS[spec]
    group = table.group
    old_key = encoding_order_key(group)
    for layer in table.layers:
        assert list(layer) == sorted(layer, key=old_key)
    pool = list(table.elements())
    xs = [pool[i % len(pool)] for i in picks]
    assert sorted(xs, key=group.sort_key) == sorted(xs, key=old_key)


def test_phi_examples():
    z = parse_group("z")
    assert phi(z, 10) == 5
    assert phi(z, 0) == 0
    assert phi(parse_group("free:2"), 10) == 2
    c12 = parse_group("cyclic:12")
    assert phi(c12, 10) == 5
    assert phi(c12, 11) == 6


def test_phi_unattainable_on_finite_group():
    c12 = parse_group("cyclic:12")
    with pytest.raises(Unattainable):
        phi(c12, 12)
    with pytest.raises(Unattainable):
        phi(parse_group("dihedral:3"), 6)


def test_word_length_examples():
    assert word_length(parse_group("zd:2"), (2, -1)) == 3
    f2 = parse_group("free:2")
    assert word_length(f2, f2.parse("aBa")) == 3
    # frozen from the word-enumeration oracle on dihedral:6
    d6 = parse_group("dihedral:6")
    assert word_length_by_enumeration(d6, (3, 1), 6) == 4
    assert word_length(d6, (3, 1)) == 4
    assert word_length(f2, f2.identity()) == 0


def test_geodesic_word_examples():
    z = parse_group("z")
    word = geodesic_word(z, (-3,))
    assert len(word) == 3
    assert geodesic_word(z, (0,)) == ()
    h = parse_group("heisenberg")
    word = geodesic_word(h, (1, 1, 1))
    assert len(word) == 2
    # re-multiplying the word (first index applied first) reproduces the element
    acc = h.identity()
    for i in word:
        acc = h.mul(h.generating_set[i], acc)
    assert acc == (1, 1, 1)


@pytest.mark.parametrize("spec", ["z", "zd:2", "free:2", "dihedral:6", "heisenberg", "symmetric:3"])
def test_geodesic_reproduces_and_is_deterministic(spec):
    group = parse_group(spec)
    table = ball(group, 3)
    for g in table.elements():
        word = geodesic_word(group, g)
        assert len(word) == table.layer_of(g) == word_length(group, g)
        acc = group.identity()
        for i in word:
            acc = group.mul(group.generating_set[i], acc)
        assert acc == g
        assert geodesic_word(group, g) == word


def test_distance_examples():
    z = parse_group("z")
    assert distance(z, (4,), (1,)) == 3
    f2 = parse_group("free:2")
    assert distance(f2, f2.parse("ab"), f2.parse("ab")) == 0
    s3 = parse_group("symmetric:3")
    assert distance(s3, (2, 1, 3), (1, 3, 2)) == 2


@pytest.mark.parametrize("spec", ["zd:2", "free:2", "dihedral:6", "heisenberg:3", "symmetric:3"])
def test_distance_is_right_invariant(spec):
    group = parse_group(spec)
    pool = list(ball(group, 3).elements())
    rng = SplitMix64(2024)
    for _ in range(25):
        x = pool[rng.below(len(pool))]
        y = pool[rng.below(len(pool))]
        g = pool[rng.below(len(pool))]
        base = distance(group, x, y)
        assert base == distance(group, group.mul(x, g), group.mul(y, g))
        assert base == distance(group, y, x)  # symmetric generating set


@pytest.mark.parametrize("spec", ["z", "free:2", "cyclic:12", "heisenberg"])
def test_translated_ball_is_ball_of_translate(spec):
    group = parse_group(spec)
    table = ball(group, 2)
    pool = list(ball(group, 3).elements())
    rng = SplitMix64(7)
    for _ in range(5):
        y = pool[rng.below(len(pool))]
        translated = {group.mul(x, y) for x in table.elements()}
        # exact set equality with {a : dist(a, y) <= 2}, checked inside a
        # strictly larger region so both inclusions are exercised
        region = {group.mul(x, y) for x in ball(group, 3).elements()}
        expected = {a for a in region if distance(group, a, y) <= 2}
        assert translated == expected
        assert translated == {group.mul(x, y) for x in word_ball(group, 2)}


def test_minimal_d_examples_and_phi_agreement():
    z = parse_group("z")
    d, table = minimal_d(z, 10)
    assert d == 5 and table.size == 11
    c12 = parse_group("cyclic:12")
    assert minimal_d(c12, 10)[0] == 5
    f2 = parse_group("free:2")
    assert minimal_d(f2, 4)[0] == 1
    for spec in ("z", "zd:2", "free:2", "dihedral:6"):
        group = parse_group(spec)
        for v in (0, 1, 2, 5, 9):
            assert minimal_d(group, v)[0] == phi(group, v)


def test_minimal_d_unattainable():
    with pytest.raises(Unattainable):
        minimal_d(parse_group("cyclic:12"), 12)


def test_ball_cap_is_a_hard_error():
    with pytest.raises(BudgetExceeded):
        ball(parse_group("free:2"), 9, ball_cap=1000)
    with pytest.raises(BudgetExceeded):
        word_length(parse_group("zd:2"), (500, 500), ball_cap=1000)


@pytest.mark.parametrize("spec,cap", [("free:3", 1000), ("free:2", 1000), ("zd:2", 39), ("z", 1)])
def test_ball_cap_trips_at_the_first_element_past_it(spec, cap):
    # the whole radius-5 layer of free:3 would hold 3750 elements
    with pytest.raises(BudgetExceeded) as info:
        ball(parse_group(spec), 12, ball_cap=cap)
    assert (info.value.size, info.value.cap) == (cap + 1, cap)
    if spec == "free:3":
        assert str(info.value) == "free:3: ball outgrew cap 1000 at radius 5"


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("query", [
    lambda z, cap: ball(z, 0, ball_cap=cap),
    lambda z, cap: growth(z, 0, ball_cap=cap),
    lambda z, cap: phi(z, 0, ball_cap=cap),
    lambda z, cap: minimal_d(z, 0, ball_cap=cap),
    lambda z, cap: word_length(z, (1,), ball_cap=cap),
    lambda z, cap: word_length(z, (0,), ball_cap=cap),
    lambda z, cap: geodesic_word(z, (0,), ball_cap=cap),
    lambda z, cap: distance(z, (3,), (3,), ball_cap=cap),
    lambda z, cap: enumerate_group(parse_group("cyclic:8"), ball_cap=cap),
], ids=[
    "ball", "growth", "phi", "minimal_d", "word_length", "word_length_identity",
    "geodesic_word_identity", "distance_to_itself", "enumerate_group",
])
def test_ball_cap_below_one_is_exceeded_by_the_identity(query, cap):
    with pytest.raises(BudgetExceeded) as info:
        query(parse_group("z"), cap)
    assert (info.value.size, info.value.cap) == (1, cap)


def test_growth_strictly_increases_until_saturation():
    for spec in ("z", "free:2", "cyclic:12", "dihedral:6", "symmetric:4"):
        group = parse_group(spec)
        values = growth(group, 8)
        order = group.order()
        assert values[0] == 1
        for a, b in zip(values, values[1:]):
            if order is None or a < order:
                assert b > a
            else:
                assert b == a == order


def test_enumerate_group():
    s4 = parse_group("symmetric:4")
    elems = enumerate_group(s4)
    assert len(elems) == 24
    assert len(set(elems)) == 24
    assert elems == sorted(elems, key=s4.sort_key)
    with pytest.raises(ValueError):
        enumerate_group(parse_group("z"))


@settings(max_examples=50, deadline=None)
@given(st.integers(-30, 30))
def test_z_word_length_is_absolute_value(n):
    assert word_length(parse_group("z"), (n,)) == abs(n)
