import functools
import hashlib
import random
import statistics
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoplab import (
    BudgetExceeded,
    FiniteSubset,
    ParseError,
    PreconditionViolated,
    SharpnessSummary,
    SplitMix64,
    VerificationReport,
    ball,
    enumerate_group,
    exhaustive_profile,
    generate_set,
    generate_sets,
    gray_subset_steps,
    interval_subsets,
    outer_boundary,
    parse_group,
    parse_set_descriptor,
    parse_size_range,
    phi,
    sharpness_of_subsets,
)
from isoplab import search
from isoplab.search import _sample_connected, _sample_uniform_in_ball, anchored_subset_steps
from oracle_helpers import (
    gray_walk_with_boundaries,
    naive_outer_boundary,
    profile_by_gray_walk,
    sample_connected_by_resort,
)

Z = parse_group("z")
C8 = parse_group("cyclic:8")
F2 = parse_group("free:2")


# ----------------------------------------------------------------- descriptors

def test_parse_set_descriptor_forms():
    d = parse_set_descriptor("ball:3")
    assert d.kind == "ball" and d.radius == 3
    d = parse_set_descriptor("random:6:42")
    assert d.kind == "connected" and d.size == 6 and d.seed == 42 and d.radius is None
    d = parse_set_descriptor("random:6:42:ball=3")
    assert d.kind == "uniform" and (d.size, d.seed, d.radius) == (6, 42, 3)
    d = parse_set_descriptor("random:6:42:connected")
    assert d == parse_set_descriptor("random:6:42")._replace(text="random:6:42:connected")
    d = parse_set_descriptor("explicit:(1,0),(0,1)")
    assert d.kind == "explicit" and d.element_texts == ("(1,0)", "(0,1)")
    d = parse_set_descriptor("exhaustive:1..3")
    assert d.kind == "exhaustive" and (d.size_lo, d.size_hi) == (1, 3)


def test_set_descriptor_is_a_value():
    d = parse_set_descriptor("random:6:42:ball=3")
    again = parse_set_descriptor(" random:6:42:ball=3 ")
    assert d is not again and d == again and hash(d) == hash(again)
    assert d != parse_set_descriptor("random:6:43:ball=3")
    child = d.reseeded(99, "trial=0")
    assert (child.seed, child.text) == (99, "random:6:42:ball=3#trial=0")
    assert child._replace(seed=d.seed, text=d.text) == d  # nothing else changed
    assert d.seed == 42 and d.text == "random:6:42:ball=3"  # the original is untouched


def test_parse_set_descriptor_errors():
    for bad in ("ball:x", "random:6", "random:0:1", "explicit:", "exhaustive:3..1", "nonsense"):
        with pytest.raises(ParseError):
            parse_set_descriptor(bad)


def test_ball_radius_is_ascii_digits():
    # str.isdigit takes a superscript two, which int() rejects, and an
    # Arabic-Indic three, which int() reads as 3
    assert parse_set_descriptor("ball:007").radius == 7
    for bad in ("ball:\u00b2", "ball:\u0663", "ball:", "ball:+2", "ball:2:3"):
        with pytest.raises(ParseError, match="expected ball:<radius>"):
            parse_set_descriptor(bad)


def test_random_seeds_outside_splitmix64_range_are_refused():
    # the stream refuses them: reduced mod 2^64, 2^64 would draw seed 0's set
    top = f"random:6:{2**64 - 1}"
    assert len(generate_set(F2, parse_set_descriptor(top))) == 6
    assert len(generate_set(F2, parse_set_descriptor(top + ":ball=3"))) == 6
    for text, trials in [
        (f"random:6:{2**64}", 1),
        (f"random:6:{2**64}:ball=3", 1),
        (f"random:6:{2**65 + 1}:connected", 1),
        (f"random:6:{2**64}", 3),
        (f"random:6:{2**64}:ball=3", 3),
    ]:
        desc = parse_set_descriptor(text)
        with pytest.raises(ParseError, match=r"seed must lie in 0\.\.2\^64-1"):
            list(generate_sets(F2, desc, trials))
        if trials == 1:
            with pytest.raises(ParseError, match=r"seed must lie in 0\.\.2\^64-1"):
                generate_set(F2, desc)
    # a uniform draw refuses the seed before it builds a ball over the cap
    with pytest.raises(ParseError):
        generate_set(F2, parse_set_descriptor(f"random:6:{2**64}:ball=3"), ball_cap=2)
    with pytest.raises(BudgetExceeded):
        generate_set(F2, parse_set_descriptor(top + ":ball=3"), ball_cap=2)


def test_parse_size_range():
    assert parse_size_range("1..5") == (1, 5)
    assert parse_size_range("4") == (4, 4)
    with pytest.raises(ParseError):
        parse_size_range("0..2")


# ------------------------------------------------------------------ generation

def test_generate_ball_set():
    subset = generate_set(Z, parse_set_descriptor("ball:2"))
    assert subset.elements == ((-2,), (-1,), (0,), (1,), (2,))


def test_generate_explicit_set():
    z2 = parse_group("zd:2")
    subset = generate_set(z2, parse_set_descriptor("explicit:(0,0),(1,0),(0,1)"))
    assert set(subset.elements) == {(0, 0), (1, 0), (0, 1)}


ROUND_TRIP_GROUPS = (
    "z", "zd:2", "free:2", "cyclic:12", "dihedral:6", "heisenberg", "heisenberg:3", "symmetric:4",
)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(ROUND_TRIP_GROUPS), data=st.data())
def test_explicit_list_of_formatted_elements_round_trips(spec, data):
    # an explicit: list is split once, on commas outside element literals
    group = parse_group(spec)
    pool = list(ball(group, 3).elements())
    elems = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    seps = data.draw(st.lists(st.sampled_from([",", ", ", " ,", " , "]), min_size=len(elems)))
    text = "explicit:" + group.format(elems[0]) + "".join(
        sep + group.format(e) for sep, e in zip(seps, elems[1:])
    )
    got = generate_set(group, parse_set_descriptor(text))
    assert got.elements == FiniteSubset.from_iterable(group, elems, "D").elements


def test_exhaustive_stream_counts():
    subsets = list(generate_sets(C8, parse_set_descriptor("exhaustive:1..3")))
    assert len(subsets) == comb(8, 1) + comb(8, 2) + comb(8, 3) == 92
    assert all(1 <= len(s) <= 3 for s in subsets)
    # stream is deterministic
    again = list(generate_sets(C8, parse_set_descriptor("exhaustive:1..3")))
    assert [s.elements for s in again] == [s.elements for s in subsets]
    # and hits every subset exactly once
    seen = {s.elements for s in subsets}
    assert len(seen) == 92


def test_exhaustive_needs_small_finite_group():
    with pytest.raises(PreconditionViolated):
        next(generate_sets(Z, parse_set_descriptor("exhaustive:1..2")))
    d13 = parse_group("dihedral:13")  # 26 elements, above the cap of 24
    with pytest.raises(BudgetExceeded) as stream_exc:
        next(generate_sets(d13, parse_set_descriptor("exhaustive:1..2")))
    with pytest.raises(BudgetExceeded) as profile_exc:
        exhaustive_profile(d13, [1, 2])
    for exc in (stream_exc.value, profile_exc.value):
        assert (exc.size, exc.cap) == (26, 24)
        assert str(exc) == "dihedral:13 has 26 elements, above the exhaustive cap 24"
    # the 24-element group sits exactly at the cap: its stream is admitted
    stream = generate_sets(parse_group("symmetric:4"), parse_set_descriptor("exhaustive:1..1"))
    assert len(list(stream)) == 24
    d8 = parse_group("dihedral:8")  # 16 elements
    stream = generate_sets(d8, parse_set_descriptor("exhaustive:1..1"))
    assert len(list(stream)) == 16


def test_exhaustive_range_above_the_order_denotes_no_sets():
    # cyclic:8 has one subset of size 8 and none larger
    (whole,) = generate_sets(C8, parse_set_descriptor("exhaustive:8..12"))
    assert whole.provenance == "exhaustive:8..12:mask=255" and len(whole) == 8
    for text in ("exhaustive:9..9", "exhaustive:30..40"):
        with pytest.raises(PreconditionViolated, match="cyclic:8 has 8 elements"):
            next(generate_sets(C8, parse_set_descriptor(text)))


def test_random_uniform_in_ball_is_deterministic_and_in_ball():
    desc = parse_set_descriptor("random:6:42:ball=3")
    first = generate_set(F2, desc)
    second = generate_set(F2, desc)
    assert first.elements == second.elements
    assert len(first) == 6
    inside = set(ball(F2, 3).elements())
    assert set(first.elements) <= inside


def test_random_connected_is_connected_and_deterministic():
    desc = parse_set_descriptor("random:9:5")
    subset = generate_set(F2, desc)
    assert subset.elements == generate_set(F2, desc).elements
    assert len(subset) == 9
    # connectivity: walk from the identity inside the set
    members = set(subset.elements)
    assert F2.identity() in members
    frontier = [F2.identity()]
    reached = {F2.identity()}
    while frontier:
        cur = frontier.pop()
        for s in F2.generating_set:
            nxt = F2.mul(s, cur)
            if nxt in members and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert reached == members


def test_random_size_exceeding_group_is_an_error():
    with pytest.raises(PreconditionViolated):
        generate_set(C8, parse_set_descriptor("random:9:1"))
    with pytest.raises(PreconditionViolated):
        generate_set(C8, parse_set_descriptor("random:9:1:ball=10"))


SAMPLER_FAMILIES = ["z", "zd:2", "free:2", "heisenberg", "cyclic:12", "dihedral:6", "symmetric:4"]
SEEDS = st.integers(0, 2**64 - 1)


def _sampled(sampler, group, desc, ball_cap):
    """The sampler's elements, or the type, message, size and cap of what it raised."""
    try:
        return sampler(group, desc, ball_cap=ball_cap).elements
    except (PreconditionViolated, BudgetExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "size", None), getattr(exc, "cap", None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SAMPLER_FAMILIES), SEEDS, st.integers(1, 80))
def test_connected_sampler_matches_resort_oracle(spec, seed, size):
    group = parse_group(spec)
    size = min(size, group.order() or size)
    desc = parse_set_descriptor(f"random:{size}:{seed}")
    got = _sample_connected(group, desc, ball_cap=5_000_000).elements
    assert got == sample_connected_by_resort(group, desc, ball_cap=5_000_000).elements
    assert len(got) == size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cyclic:12", "dihedral:6", "symmetric:4"]), SEEDS, st.integers(1, 10))
def test_connected_sampler_past_the_group_order_matches_oracle(spec, seed, excess):
    group = parse_group(spec)
    desc = parse_set_descriptor(f"random:{group.order() + excess}:{seed}")
    got = _sampled(_sample_connected, group, desc, 5_000_000)
    assert got == _sampled(sample_connected_by_resort, group, desc, 5_000_000)
    assert got[:2] == (
        PreconditionViolated,
        f"random size {desc.size} exceeds group size {group.order()}",
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SAMPLER_FAMILIES), SEEDS, st.integers(1, 30), st.integers(1, 60))
@example("free:2", 1, 6, 5)  # the running check stops a draw the cap could hold
@example("cyclic:5", 1, 7, 10)  # past the order but within the cap: exit 4
@example("cyclic:5", 1, 3, 10)  # past the order and the cap: refused at once
def test_connected_sampler_budget_matches_oracle(spec, seed, cap, size):
    # sizes on both sides of the cap: a draw that must hold more than cap
    # elements is refused before its first pick, and the running check on
    # members and frontier stops others
    group = parse_group(spec)
    desc = parse_set_descriptor(f"random:{size}:{seed}")
    got = _sampled(_sample_connected, group, desc, cap)
    assert got == _sampled(sample_connected_by_resort, group, desc, cap)
    need = min(size, group.order() or size)
    if need > cap:
        message = f"{spec}: {desc.text} needs {need} elements, above cap {cap}"
        assert got == (BudgetExceeded, message, need, cap)
    elif got[0] is BudgetExceeded:
        assert got[3] == cap and got[2] > cap


TRUSTED_FAMILIES = [
    "z", "zd:2", "free:2", "heisenberg", "heisenberg:3", "cyclic:12", "dihedral:6", "symmetric:4",
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TRUSTED_FAMILIES), SEEDS, st.integers(1, 60), st.sampled_from([None, 2, 3, 5]),
)
def test_sampled_sets_equal_validated_sets(spec, seed, size, radius):
    group = parse_group(spec)
    # stay inside the group for the connected sampler, inside B(e, radius) for the uniform one
    room = ball(group, radius).size if radius is not None else (group.order() or size)
    size = min(size, room)
    text = f"random:{size}:{seed}" + ("" if radius is None else f":ball={radius}")
    desc = parse_set_descriptor(text)
    sampler = _sample_connected if radius is None else _sample_uniform_in_ball
    got = sampler(group, desc, ball_cap=5_000_000)
    want = FiniteSubset.from_iterable(group, reversed(got.elements), provenance=desc.text)
    assert (got.elements, got.provenance) == (want.elements, want.provenance)


@pytest.mark.parametrize("spec,sizes", [
    ("cyclic:8", "1..3"), ("dihedral:4", "2..6"), ("symmetric:3", "1..6"),
    ("heisenberg:2", "3..5"),
])
def test_exhaustive_stream_equals_validated_sets(spec, sizes):
    group = parse_group(spec)
    desc = parse_set_descriptor(f"exhaustive:{sizes}")
    ground = enumerate_group(group)
    masks = (i ^ (i >> 1) for i in range(1 << len(ground)))
    want = [
        FiniteSubset.from_iterable(
            group,
            [e for i, e in enumerate(ground) if mask >> i & 1],
            provenance=f"{desc.text}:mask={mask}",
        )
        for mask in masks
        if desc.size_lo <= mask.bit_count() <= desc.size_hi
    ]
    got = list(generate_sets(group, desc))
    assert [(s.elements, s.provenance) for s in got] == [(s.elements, s.provenance) for s in want]


# sha256 of the newline-joined formatted elements, recorded with the
# re-sorting sampler; sizes this large are out of the hypothesis oracle's reach
CONNECTED_DIGESTS = {
    "heisenberg": "76f9b3bd000aa72036dd6488f59b9d17cb8e75c7ebdaf61f97423a448b59f969",
    "free:2": "fbcdd5640ee898c895da2f39a3eff5ca87efb17e8819efdaa4446fb9b797bb4c",
    "zd:2": "1a0073f2da6aa2c990d3d71ae75a75c3b6c53857b290f9a3609487885a87916d",
}


@pytest.mark.parametrize("spec", sorted(CONNECTED_DIGESTS))
def test_large_connected_sample_digest(spec):
    group = parse_group(spec)
    subset = generate_set(group, parse_set_descriptor("random:3000:7"))
    text = "\n".join(group.format(e) for e in subset.elements)
    assert len(subset) == 3000
    assert hashlib.sha256(text.encode()).hexdigest() == CONNECTED_DIGESTS[spec]


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("text", ["random:1:5", "random:3:5", "random:1:5:ball=1", "ball:0", "exhaustive:1..1"])
def test_ball_cap_below_one_is_exceeded_by_the_identity(text, cap):
    group = C8 if text.startswith("exhaustive") else Z
    with pytest.raises(BudgetExceeded) as info:
        next(generate_sets(group, parse_set_descriptor(text), ball_cap=cap))
    assert (info.value.size, info.value.cap) == (1, cap)


@pytest.mark.parametrize("text", ["random:5:77", "random:5:77:ball=3"])
def test_trials_reseed_random_descriptors(text):
    desc = parse_set_descriptor(text)
    subsets = list(generate_sets(Z, desc, 4))
    assert [s.provenance for s in subsets] == [f"{text}#trial={t}" for t in range(4)]
    assert len({s.elements for s in subsets}) > 1  # trials differ
    again = list(generate_sets(Z, desc, 4))
    assert [s.elements for s in again] == [s.elements for s in subsets]
    # trial t is the draw of child seed t of the descriptor seed
    rng = SplitMix64(77)
    for t, subset in enumerate(subsets):
        child = generate_set(Z, desc.reseeded(rng.child_seed(t), f"trial={t}"))
        assert (child.elements, child.provenance) == (subset.elements, subset.provenance)
    # a single trial is the descriptor's own draw
    (single,) = generate_sets(Z, desc, 1)
    assert single.elements == generate_set(Z, desc).elements and single.provenance == text


def test_deterministic_descriptors_ignore_trials():
    assert len(list(generate_sets(Z, parse_set_descriptor("ball:2"), 4))) == 1
    assert len(list(generate_sets(Z, parse_set_descriptor("explicit:1,2"), 4))) == 1
    desc = parse_set_descriptor("exhaustive:1..2")
    assert len(list(generate_sets(C8, desc, 4))) == len(list(generate_sets(C8, desc))) == 36


# ------------------------------------------------------------------- gray scan

@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:4"])
def test_gray_scan_matches_direct_recomputation(spec):
    group = parse_group(spec)
    ground = enumerate_group(group)
    steps = list(gray_walk_with_boundaries(group, ground))
    assert [mask for mask, _, _ in steps] == [i ^ (i >> 1) for i in range(1 << len(ground))]
    for mask, size, boundary in steps:
        members = {ground[i] for i in range(len(ground)) if mask >> i & 1}
        assert size == len(members)
        assert boundary == len(naive_outer_boundary(group, members))


@pytest.mark.parametrize("n", range(13))
def test_gray_subset_steps_equal_the_filtered_gray_code(n):
    code = [i ^ (i >> 1) for i in range(1 << n)]
    for lo in range(n + 2):
        for hi in range(lo, n + 2):
            want = [(m, m.bit_count()) for m in code if lo <= m.bit_count() <= hi]
            assert list(gray_subset_steps(n, lo, hi)) == want


def test_exhaustive_stream_is_lazy():
    # 1..12 of 24 elements is over 9 million sets; the first must not wait for them
    first = next(generate_sets(parse_group("symmetric:4"), parse_set_descriptor("exhaustive:1..12")))
    assert first.provenance == "exhaustive:1..12:mask=1" and len(first) == 1


# --------------------------------------------------------------- anchored walk

def _cayley_masks(group, ground):
    """reach[i]: the bitmask of the positions s * ground[i], s in S."""
    index = {e: i for i, e in enumerate(ground)}
    reach = [0] * len(ground)
    for i, e in enumerate(ground):
        for s in group.generating_set:
            reach[i] |= 1 << index[group.mul(s, e)]
    return reach


def _path_masks(n):
    """The path 0 - 1 - ... - n-1, no Cayley graph: its two ends have one neighbour."""
    return [sum(1 << j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)]


def _full_walk(reach, top):
    """The anchored walk under ceilings it never reaches: b + s <= N."""
    never = [len(reach) + 1] * (top + 1)
    return anchored_subset_steps(reach, top, ceiling=never, locked_ceiling=never)


@pytest.mark.parametrize("spec,top", [
    ("cyclic:8", 3), ("dihedral:4", 3), ("symmetric:3", 2), ("cyclic:9", 9), ("path:7", 4),
])
def test_anchored_walk_matches_direct_recomputation(spec, top):
    if spec == "path:7":
        group, reach = None, _path_masks(7)
    else:
        group = parse_group(spec)
        ground = enumerate_group(group)
        reach = _cayley_masks(group, ground)
    n = len(reach)
    steps = [(tuple(positions), size, boundary)
             for positions, size, boundary in _full_walk(reach, top)]
    # the sets {0} u R, |R| < top, in lexicographic order of position tuples
    assert [positions for positions, _, _ in steps] == sorted(
        (0, *rest) for j in range(top) for rest in combinations(range(1, n), j)
    )
    for positions, size, boundary in steps:
        assert size == len(positions)
        near = {j for i in positions for j in range(n) if reach[i] >> j & 1}
        assert boundary == len(near - set(positions))
        if group is not None:
            assert boundary == len(naive_outer_boundary(group, {ground[i] for i in positions}))


@pytest.mark.parametrize("spec,top,visited", [
    ("cyclic:16", 7, 9_949),
    ("symmetric:4", 3, 277),
    ("dihedral:9", 8, 41_226),
    ("cyclic:22", 10, 695_860),
])
def test_anchored_walk_work_count(spec, top, visited):
    group = parse_group(spec)
    n = group.order()
    steps = _full_walk(_cayley_masks(group, enumerate_group(group)), top)
    per_size = Counter(size for _, size, _ in steps)
    assert per_size == {k: comb(n - 1, k - 1) for k in range(1, top + 1)}
    assert sum(per_size.values()) == visited == sum(comb(n - 1, j) for j in range(top))


def test_anchored_walk_needs_a_positive_size():
    with pytest.raises(ValueError):
        next(_full_walk(_cayley_masks(C8, enumerate_group(C8)), 0))


PRUNED_PROFILE_CASES = [
    ("cyclic:20", range(1, 10)),
    ("dihedral:10", range(1, 10)),
    ("symmetric:4", range(1, 7)),
    ("cyclic:21", [3, 9]),
    ("dihedral:11", [10]),
    # both cuts fire: the locked points prune descents and end sibling runs
    ("symmetric:4", range(1, 12)),
    ("dihedral:12", [2, 11]),
    ("cyclic:24", [1, 11]),
    ("heisenberg:2", range(1, 4)),
]


@functools.cache
def _full_walk_profile(spec):
    """Per size k, up to the largest any case asks of spec: (least boundary,
    witness positions), the first set of least boundary among all sets of
    size k through position 0 in lexicographic order of position tuples.
    One depth-first bitmask loop that never prunes, independent of the
    library's walk; each group walks once for all its cases."""
    top = max(max(sizes) for case, sizes in PRUNED_PROFILE_CASES if case == spec)
    group = parse_group(spec)
    ground = enumerate_group(group)
    n = len(ground)
    reach = _cayley_masks(group, ground)
    least, first = [n + 1] * (top + 1), [0] * (top + 1)
    # (members, S * members, size, least position to add); children go on
    # the stack in reverse, so sets come off it in lexicographic order
    stack = [(1, reach[0], 1, 1)]
    while stack:
        members, near, size, q = stack.pop()
        boundary = (near & ~members).bit_count()
        if boundary < least[size]:
            least[size], first[size] = boundary, members
        if size < top:
            for r in range(n - 1, q - 1, -1):
                stack.append((members | 1 << r, near | reach[r], size + 1, r + 1))
    return tuple(
        (k, least[k], tuple(i for i in range(n) if first[k] >> i & 1)) for k in range(top + 1)
    )


@pytest.mark.parametrize("spec,sizes", PRUNED_PROFILE_CASES)
def test_pruned_profile_matches_the_full_walk(spec, sizes):
    group = parse_group(spec)
    position = {e: i for i, e in enumerate(enumerate_group(group))}
    rows = [
        (row.size, row.min_boundary, tuple(position[e] for e in row.witness.elements))
        for row in exhaustive_profile(group, sizes)
    ]
    assert rows == [_full_walk_profile(spec)[k] for k in sorted(sizes)]


# the full walk visits 695,860, 2,842,226 and 41,226 sets
@pytest.mark.parametrize("spec,top,visited", [
    ("cyclic:22", 10, 182),
    ("symmetric:4", 11, 13_985),
    ("dihedral:9", 8, 469),
])
def test_pruned_profile_work_count(monkeypatch, spec, top, visited):
    sizes = []

    def counted(*args, **kwargs):
        for step in anchored_subset_steps(*args, **kwargs):
            sizes.append(step[1])
            yield step

    monkeypatch.setattr(search, "anchored_subset_steps", counted)
    exhaustive_profile(parse_group(spec), range(1, top + 1))
    assert len(sizes) == visited


# --------------------------------------------------------------------- profile

def test_profile_cyclic8_frozen_values():
    rows = exhaustive_profile(C8, range(1, 4))
    assert [(row.size, row.min_boundary) for row in rows] == [(1, 2), (2, 2), (3, 2)]
    # canonically least witnesses are the intervals at 0
    assert rows[0].witness.elements == (0,)
    assert rows[1].witness.elements == (0, 1)
    assert rows[2].witness.elements == (0, 1, 2)
    for row in rows:
        assert Fraction(row.min_boundary) > row.bound
        assert row.gap == Fraction(row.min_boundary) - row.bound


def test_profile_matches_brute_force_on_dihedral4():
    group = parse_group("dihedral:4")
    ground = enumerate_group(group)
    rows = exhaustive_profile(group, range(1, 4))
    for row in rows:
        best = None
        for combo in combinations(ground, row.size):
            boundary = len(naive_outer_boundary(group, set(combo)))
            key = (boundary, tuple(group.sort_key(e) for e in sorted(combo, key=group.sort_key)))
            if best is None or key < best[0]:
                best = (key, combo)
        assert row.min_boundary == best[0][0]
        assert set(row.witness.elements) == set(best[1])


# each group's least factor min_boundary / bound over its admissible sizes;
# dihedral:2j and dihedral:2j+1 share 8j/(2j-1)
LEAST_FACTORS = {
    **{f"cyclic:{n}": 4 for n in range(3, 25)},
    "dihedral:3": 6,
    **{f"dihedral:{n}": Fraction(8 * (n // 2), 2 * (n // 2) - 1) for n in range(4, 13)},
    "symmetric:3": 4,
    "symmetric:4": 4,
    "heisenberg:2": 4,
}


def test_profile_minimum_respects_strict_bound():
    # gap > 0 at every admissible size proves the strict bound for every
    # admissible set of the group
    factors = {}
    for spec in LEAST_FACTORS:
        group = parse_group(spec)
        rows = exhaustive_profile(group, range(1, (group.order() - 1) // 2 + 1))
        for row in rows:
            assert Fraction(row.min_boundary, row.size) > Fraction(
                1, 2 * phi(group, 2 * row.size)
            )
            assert row.gap > 0
        factors[spec] = min(row.min_boundary / row.bound for row in rows)
    assert factors == LEAST_FACTORS


@pytest.mark.parametrize("n", range(3, 25))
def test_cyclic_profile_is_two_at_every_admissible_size(n):
    # a closed form, not a walk: the complement of D on the cycle splits into
    # gaps, a gap of one point holds one boundary point and a longer gap two,
    # so Card(outer D) >= 2 unless D misses a single point, and an interval
    # attains 2; every admissible size k < n/2 is at most n - 2
    sizes = range(1, (n - 1) // 2 + 1)
    rows = exhaustive_profile(parse_group(f"cyclic:{n}"), sizes)
    assert [row.min_boundary for row in rows] == [2] * len(sizes)


def test_profile_singleton_minimum_is_generating_set_size():
    for spec in ("cyclic:8", "cyclic:12", "dihedral:4", "dihedral:6"):
        group = parse_group(spec)
        rows = exhaustive_profile(group, [1])
        assert rows[0].min_boundary == len(group.generating_set)


ORDER_18_OR_LESS = (
    [f"cyclic:{n}" for n in range(3, 19)]
    + [f"dihedral:{n}" for n in range(3, 10)]
    + ["symmetric:3", "heisenberg:2"]
)


def _rows(rows):
    return [(row.size, row.min_boundary, row.witness.elements, row.bound, row.gap) for row in rows]


@pytest.mark.parametrize("spec", ORDER_18_OR_LESS)
def test_profile_matches_gray_walk_oracle(spec):
    group = parse_group(spec)
    sizes = range(1, (group.order() - 1) // 2 + 1)
    assert _rows(exhaustive_profile(group, sizes)) == _rows(profile_by_gray_walk(group, sizes))


@pytest.mark.parametrize("spec,sizes", [
    ("cyclic:12", [2, 5]),
    ("dihedral:7", [6, 3]),
    ("cyclic:17", [8]),
    ("dihedral:6", [4]),
    ("heisenberg:2", [3]),
])
def test_profile_of_sparse_sizes_matches_gray_walk_oracle(spec, sizes):
    group = parse_group(spec)
    rows = exhaustive_profile(group, sizes)
    assert [row.size for row in rows] == sorted(sizes)
    assert _rows(rows) == _rows(profile_by_gray_walk(group, sizes))


@pytest.mark.parametrize("spec", ["symmetric:4", "cyclic:24", "dihedral:12"])
def test_profile_matches_all_combinations(spec):
    group = parse_group(spec)
    ground = enumerate_group(group)
    for row in exhaustive_profile(group, range(1, 4)):
        boundary, positions = min(
            (len(naive_outer_boundary(group, {ground[i] for i in combo})), combo)
            for combo in combinations(range(len(ground)), row.size)
        )
        assert row.min_boundary == boundary
        assert row.witness.elements == tuple(ground[i] for i in positions)


FINITE_FAMILIES = [
    "cyclic:7", "cyclic:12", "dihedral:5", "dihedral:8",
    "symmetric:3", "symmetric:4", "heisenberg:2", "heisenberg:3",
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FINITE_FAMILIES), st.data())
def test_right_translation_keeps_the_outer_boundary(spec, data):
    group = parse_group(spec)
    ground = enumerate_group(group)
    members = data.draw(st.sets(st.sampled_from(ground), min_size=1))
    g = data.draw(st.sampled_from(ground))
    D = FiniteSubset.from_iterable(group, members, "D")
    Dg = FiniteSubset.from_iterable(group, [group.mul(x, g) for x in members], "Dg")
    assert len(Dg) == len(D)
    assert len(outer_boundary(group, Dg)) == len(outer_boundary(group, D))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FINITE_FAMILIES), st.data())
def test_adding_an_element_lowers_the_boundary_by_at_most_one(spec, data):
    # the bound behind the pruning of exhaustive_profile's walk
    group = parse_group(spec)
    ground = enumerate_group(group)
    members = data.draw(st.sets(st.sampled_from(ground), min_size=1, max_size=len(ground) - 1))
    q = data.draw(st.sampled_from([e for e in ground if e not in members]))
    before = len(naive_outer_boundary(group, members))
    assert len(naive_outer_boundary(group, members | {q})) >= before - 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([s for s in FINITE_FAMILIES if s != "heisenberg:3"]), st.data())
def test_profile_witnesses_contain_the_first_element(spec, data):
    group = parse_group(spec)
    top = min((group.order() - 1) // 2, 6)
    sizes = data.draw(st.sets(st.integers(1, top), min_size=1))
    first = enumerate_group(group)[0]
    for row in exhaustive_profile(group, sizes):
        assert first in row.witness.elements


@pytest.mark.parametrize("spec,top", [
    ("cyclic:24", 11), ("dihedral:12", 11), ("symmetric:4", 11),
    ("dihedral:10", 9), ("cyclic:20", 9), ("heisenberg:2", 3),
])
def test_profile_minimum_does_not_depend_on_the_ground_order(monkeypatch, spec, top):
    # right translation carries a least set of each size onto ground[0],
    # whatever element that is, so the least boundaries hold under any order
    group = parse_group(spec)
    sizes = range(1, top + 1)
    canonical = [row.min_boundary for row in exhaustive_profile(group, sizes)]
    for seed in range(5):
        shuffled = list(enumerate_group(group))
        random.Random(seed).shuffle(shuffled)
        monkeypatch.setattr(search, "_ground_set", lambda group, ground=shuffled, **kw: ground)
        assert [row.min_boundary for row in exhaustive_profile(group, sizes)] == canonical, seed


def test_profile_preconditions():
    with pytest.raises(PreconditionViolated):
        exhaustive_profile(C8, range(1, 5))  # 4 is not < 8/2
    with pytest.raises(PreconditionViolated):
        exhaustive_profile(Z, [1])


def test_profile_takes_its_ground_before_it_checks_sizes():
    # _ground_set refuses a group above the order cap before any size is checked
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive_profile(parse_group("dihedral:13"), [13])  # 2 * 13 is not < 26
    assert (exc.value.size, exc.value.cap) == (26, 24)


# ------------------------------------------------------------------- sharpness

def test_interval_sharpness_is_exactly_four():
    summary = sharpness_of_subsets(Z, interval_subsets(Z, 1, 50))
    assert all(f == Fraction(4) for _, f in summary.entries)
    assert summary.min_factor == Fraction(4)
    assert summary.median_factor == Fraction(4)
    assert len(summary.entries) == 50


def test_sharpness_on_z2_balls_exceeds_one():
    z2 = parse_group("zd:2")
    balls = [
        generate_set(z2, parse_set_descriptor(f"ball:{r}")) for r in range(1, 6)
    ]
    summary = sharpness_of_subsets(z2, balls)
    assert all(f > 1 for _, f in summary.entries)
    assert all(r.verdict for r in summary.reports)


def test_sharpness_scan_over_descriptors():
    summary = sharpness_of_subsets(Z, generate_sets(Z, parse_set_descriptor("random:5:9"), 5))
    assert len(summary.entries) == 5
    assert all(f > 1 for _, f in summary.entries)
    payload = summary.to_json_dict()
    assert payload["min_num"] / payload["min_den"] <= payload["median_num"] / payload["median_den"]


def fraction_reports(factors):
    return tuple(
        VerificationReport("theorem", "z", f"explicit:{i}", f, Fraction(1), True, ">")
        for i, f in enumerate(factors)
    )


@given(st.lists(st.fractions(), min_size=1, max_size=40))
@example([Fraction(7, 3)])
@example([Fraction(1), Fraction(2)])
@example([Fraction(5), Fraction(1, 2), Fraction(5)])
@settings(max_examples=300, deadline=None)
def test_median_factor_is_the_exact_median(factors):
    median = SharpnessSummary(fraction_reports(factors)).median_factor
    assert type(median) is Fraction
    assert median == statistics.median(factors)


def test_interval_subsets_only_on_z():
    with pytest.raises(PreconditionViolated):
        interval_subsets(parse_group("zd:2"), 1, 3)
    with pytest.raises(PreconditionViolated):
        interval_subsets(Z, 0, 3)


def test_intervals_take_the_trusted_constructor(monkeypatch):
    calls = []
    validate = type(Z).validate
    monkeypatch.setattr(type(Z), "validate", lambda self, e: calls.append(e) or validate(self, e))
    intervals = list(interval_subsets(Z, 1, 300))
    assert calls == []
    for n, subset in enumerate(intervals, 1):
        checked = FiniteSubset.from_iterable(Z, [(i,) for i in range(n)], provenance=f"interval:{n}")
        assert (subset.elements, subset.provenance) == (checked.elements, checked.provenance)
    assert len(calls) == 300 * 301 // 2  # the counter sees the validating path


def test_interval_provenance_is_its_own_descriptor():
    for n in range(1, 51):
        (subset,) = generate_sets(Z, parse_set_descriptor(f"interval:{n}..{n}"))
        assert subset.provenance == f"interval:{n}"
        assert subset.elements == tuple((i,) for i in range(n))
        (again,) = generate_sets(Z, parse_set_descriptor(subset.provenance))
        assert (again.elements, again.provenance) == (subset.elements, subset.provenance)


@pytest.mark.parametrize("text", ["exhaustive:1..2", "interval:1..2"])
def test_generate_set_refuses_a_stream(text):
    kind = text.partition(":")[0]
    with pytest.raises(ParseError, match=f"^{kind} descriptors denote a stream; use generate_sets$"):
        generate_set(Z, parse_set_descriptor(text))


def test_interval_stream_is_lazy():
    # a billion intervals; the first must not wait for them
    first = next(interval_subsets(Z, 1, 10**9))
    assert first.provenance == "interval:1" and first.elements == ((0,),)


# ------------------------------------------------------------------ provenance

def test_finite_subset_requires_a_provenance():
    with pytest.raises(TypeError):
        FiniteSubset.from_iterable(Z, [(0,), (1,)])
    a = FiniteSubset.from_iterable(Z, [(1,), (0,)], "explicit:1,0")
    assert a.provenance == "explicit:1,0" and a.elements == ((0,), (1,))
