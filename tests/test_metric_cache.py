"""Differential tests of the per-group growth table cache.

Every answer of a metric query, or the exception it raised, is compared
with a fresh uncached BFS from `oracle_helpers`, which stores parent links
the way the library did before the cache.  Each test starts from an empty
table for its group, so the order of the queries decides which of them grow
the table and which answer from a cached prefix.
"""

import subprocess
import sys
import threading
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (
    DEFAULT_BALL_CAP,
    BudgetExceeded,
    SplitMix64,
    ball,
    distance,
    enumerate_group,
    geodesic_word,
    growth,
    isoperimetry,
    metric,
    minimal_d,
    parse_group,
    phi,
    word_length,
)
from isoplab.search import default_uniform_radius
from oracle_helpers import (
    grow_with_parents,
    oracle_ball,
    oracle_default_uniform_radius,
    oracle_enumerate_group,
    oracle_geodesic_word,
    oracle_minimal_d,
)

# family -> largest radius a query may ask for (every finite group here
# saturates within it)
FAMILIES = {
    "z": 12, "zd:2": 6, "free:2": 5, "heisenberg": 4, "heisenberg:3": 6,
    "cyclic:12": 8, "dihedral:6": 8, "symmetric:4": 8,
}
CAPS = [DEFAULT_BALL_CAP, 0, -5, 1, 6, 30, 100, 400]


def forget(group):
    with metric._tables_lock:
        metric._tables.pop(group.key, None)


def outcome(query):
    """The query's answer, or the type, text and budget fields of its error."""
    try:
        return query()
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "size", None), getattr(exc, "cap", None)


def table_answer(table):
    return table.radius, tuple(table.layers), {g: table.layer_of(g) for g in table.elements()}


def pool_of(group, radius):
    """Elements to ask about: the ball one past the largest query radius."""
    layers, _, _ = oracle_ball(group, radius + 1, ball_cap=DEFAULT_BALL_CAP)
    return [g for layer in layers for g in layer]


def queries(group, kind, n, cap, pool):
    """(library call, oracle call) for query `kind`, its parameters drawn from n."""
    radius = n % (FAMILIES[group.name] + 1)
    target = n % (len(pool) + 2)
    g = pool[n % len(pool)]
    # h = x * g with x in the pool, so dist(g, h) = ||x^-1|| is at most
    # FAMILIES[...] + 1, the radius the other query kinds stay within
    h = group.mul(pool[(n // 7) % len(pool)], g)
    if kind == "ball":
        return (
            lambda: table_answer(ball(group, radius, ball_cap=cap)),
            lambda: (radius,) + oracle_ball(group, radius, ball_cap=cap)[::2],
        )
    if kind == "growth":
        return (
            lambda: growth(group, radius, ball_cap=cap),
            lambda: tuple(
                sum(map(len, oracle_ball(group, radius, ball_cap=cap)[0][: r + 1]))
                for r in range(radius + 1)
            ),
        )
    if kind == "phi":
        return (
            lambda: phi(group, target, ball_cap=cap),
            lambda: oracle_minimal_d(group, target, ball_cap=cap)[0],
        )
    if kind == "minimal_d":
        return (
            lambda: (lambda d, t: (d,) + table_answer(t))(*minimal_d(group, target, ball_cap=cap)),
            lambda: (lambda d, layers, depth: (d, d, layers, depth))(
                *oracle_minimal_d(group, target, ball_cap=cap)
            ),
        )
    if kind == "word_length":
        return (
            lambda: word_length(group, g, ball_cap=cap),
            lambda: len(oracle_geodesic_word(group, g, ball_cap=cap)),
        )
    if kind == "geodesic_word":
        return (
            lambda: geodesic_word(group, g, ball_cap=cap),
            lambda: oracle_geodesic_word(group, g, ball_cap=cap),
        )
    if kind == "distance":
        return (
            lambda: distance(group, g, h, ball_cap=cap),
            lambda: len(oracle_geodesic_word(group, group.mul(g, group.inv(h)), ball_cap=cap)),
        )
    if kind == "enumerate_group":
        return (
            lambda: enumerate_group(group, ball_cap=cap),
            lambda: oracle_enumerate_group(group, ball_cap=cap),
        )
    assert kind == "default_uniform_radius"
    size = 1 + n % len(pool)
    return (
        lambda: default_uniform_radius(group, size, cap),
        lambda: oracle_default_uniform_radius(group, size, cap),
    )


KINDS = [
    "ball", "growth", "phi", "minimal_d", "word_length", "geodesic_word", "distance",
    "enumerate_group", "default_uniform_radius",
]


def cached_layers(entry):
    """The layers of a cached table, cut from its flat element list."""
    return tuple(
        tuple(entry.elements[start:end]) for start, end in zip([0] + entry.ends, entry.ends)
    )


def assert_cached_table_is_a_bfs_prefix(group):
    """The cached table, if any, is the oracle's ball of its radius, and
    its index covers its first `indexed` layers with the oracle's depths."""
    entry = metric._tables.get(group.key)
    if entry is None:
        return
    radius = len(entry.ends) - 1
    oracle_layers, _, oracle_depth = oracle_ball(group, radius, ball_cap=DEFAULT_BALL_CAP)
    assert len(entry.elements) == entry.ends[-1]
    assert cached_layers(entry) == oracle_layers
    assert entry.index == {g: k for g, k in oracle_depth.items() if k < entry.indexed}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6), st.sampled_from(CAPS)),
        min_size=1,
        max_size=10,
    ),
)
def test_mixed_queries_match_uncached_bfs(spec, steps):
    group = parse_group(spec)
    pool = pool_of(group, FAMILIES[spec])
    forget(group)
    for kind, n, cap in steps:
        cached, fresh = queries(group, kind, n, cap, pool)
        assert outcome(cached) == outcome(fresh), (kind, n, cap)
        assert_cached_table_is_a_bfs_prefix(group)


def test_cap_trips_on_a_cached_prefix_at_cap_plus_one():
    group = parse_group("free:2")
    forget(group)
    assert ball(group, 4).size == 161  # cached, and larger than every cap below
    for cap in (20, 5, 4, 1):
        with pytest.raises(BudgetExceeded) as info:
            ball(group, 3, ball_cap=cap)
        assert (info.value.size, info.value.cap) == (cap + 1, cap)
        with pytest.raises(BudgetExceeded) as oracle:
            oracle_ball(group, 3, ball_cap=cap)
        assert str(info.value) == str(oracle.value)
    with pytest.raises(BudgetExceeded) as info:
        word_length(group, group.parse("abab"), ball_cap=52)
    assert (info.value.size, info.value.cap) == (53, 52)


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("kind", KINDS)
def test_cap_below_one_raises_with_a_cached_table(kind, cap):
    group = parse_group("cyclic:12")
    enumerate_group(group)  # the whole group is cached
    cached, _ = queries(group, kind, 5, cap, pool_of(group, FAMILIES["cyclic:12"]))
    assert outcome(cached)[::2] == ("BudgetExceeded", 1)


def test_overflow_mid_layer_leaves_answers_exact():
    group = parse_group("free:2")
    forget(group)
    ball(group, 2)
    # radius 4 holds 108 elements beyond the 53 of radius 3
    with pytest.raises(BudgetExceeded) as info:
        ball(group, 5, ball_cap=100)
    assert (info.value.size, str(info.value)) == (101, "free:2: ball outgrew cap 100 at radius 4")
    assert_cached_table_is_a_bfs_prefix(group)
    layers, _, depth = oracle_ball(group, 5, ball_cap=DEFAULT_BALL_CAP)
    assert table_answer(ball(group, 5)) == (5, layers, depth)
    for g in depth:
        assert word_length(group, g) == depth[g]


def test_evicted_table_is_rebuilt_identically():
    group = parse_group("free:2")
    forget(group)
    large = ball(group, 8)
    assert large.size == 13_121 > metric.RETAINED_TABLE_MAX
    assert group.key not in metric._tables
    layers, _, depth = oracle_ball(group, 8, ball_cap=DEFAULT_BALL_CAP)
    assert table_answer(large) == (8, layers, depth)
    small = ball(group, 3)
    assert group.key in metric._tables
    assert table_answer(small) == (3, layers[:4], {g: k for g, k in depth.items() if k <= 3})
    assert table_answer(ball(group, 8)) == (8, layers, depth)
    # the dropped table still serves the view that was handed out
    assert table_answer(large) == (8, layers, depth)


def test_views_of_a_growing_table_keep_their_radius():
    group = parse_group("heisenberg")
    forget(group)
    small = ball(group, 1)
    large = ball(group, 4)
    assert table_answer(small)[2] == {g: k for g, k in table_answer(large)[2].items() if k <= 1}
    for outside in (g for layer in large.layers[2:] for g in layer):
        assert outside not in small
        with pytest.raises(KeyError):
            small.layer_of(outside)


THREADS = 4
ROUNDS = 6


def shuffled(steps, seed):
    order = list(steps)
    rng = SplitMix64(seed)
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


# Many small extensions of one table make a lost update likely: without the
# lock, z loses one in most rounds.
@pytest.mark.parametrize("spec,max_radius", [("z", 150), ("heisenberg", 4), ("dihedral:6", 8)])
def test_concurrent_queries_on_a_fresh_group(spec, max_radius):
    group = parse_group(spec)
    pool = pool_of(group, FAMILIES[spec])
    steps = [(kind, n, DEFAULT_BALL_CAP) for n in (3, 17, 123, 4_567) for kind in KINDS]
    steps += [("ball", r) for r in range(max_radius + 1)]

    def calls(step):
        if len(step) == 2:
            radius = step[1]
            return (
                lambda: table_answer(ball(group, radius)),
                lambda: (radius,) + oracle_ball(group, radius, ball_cap=DEFAULT_BALL_CAP)[::2],
            )
        return queries(group, *step, pool)

    expected = {step: outcome(calls(step)[1]) for step in steps}

    def run(barrier, order, out):
        barrier.wait(timeout=60)
        for step in order:
            out.append((step, outcome(calls(step)[0])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(ROUNDS):
            forget(group)
            barrier = threading.Barrier(THREADS)
            orders = [shuffled(steps, THREADS * round_ + t) for t in range(THREADS)]
            answers = [[] for _ in orders]
            threads = [
                threading.Thread(target=run, args=(barrier, order, out))
                for order, out in zip(orders, answers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            for order, out in zip(orders, answers):
                assert len(out) == len(order)
                for step, answer in out:
                    assert answer == expected[step], (round_, step)
            assert_cached_table_is_a_bfs_prefix(group)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("spec,radius", [
    ("z", 6), ("zd:2", 4), ("zd:3", 3), ("free:2", 4), ("free:3", 3), ("heisenberg", 4),
    ("heisenberg:3", 6), ("cyclic:12", 7), ("cyclic:2", 2), ("dihedral:6", 7),
    ("symmetric:4", 7),
])
def test_derived_parents_match_stored_parent_links(spec, radius):
    group = parse_group(spec)
    forget(group)
    _, parent, depth = grow_with_parents(
        group, lambda layers, depth: len(layers) > radius, ball_cap=DEFAULT_BALL_CAP
    )
    table = ball(group, radius)
    for g in depth:
        word = []
        cur = g
        while cur != group.identity():
            assert table.parent(cur) == parent[cur]
            i, cur = parent[cur]
            word.append(i)
        assert geodesic_word(group, g) == tuple(reversed(word))


@pytest.mark.parametrize("spec", sorted(FAMILIES))
def test_layered_table_matches_naive_bfs(spec):
    """The layers, the exhaustion flag and the on-demand index of a table
    grown from nothing agree with the BFS that keeps a whole-ball depth
    dict.  symmetric:4, dihedral:6 and heisenberg:3 reach points of a layer
    from several generators, so their layers are built with repeats."""
    group = parse_group(spec)
    radius = FAMILIES[spec] + 1  # one past saturation for the finite groups
    layers, _, depth = grow_with_parents(
        group, lambda layers, depth: len(layers) > radius, ball_cap=DEFAULT_BALL_CAP
    )
    ends, exhausted, elements = metric._grow(
        group, lambda r, elements, start, end: r >= radius, [], [], ball_cap=DEFAULT_BALL_CAP
    )
    assert elements == [g for layer in layers for g in layer]
    assert ends == list(accumulate(map(len, layers)))
    assert exhausted == (len(layers) <= radius) == (group.order() is not None)

    forget(group)
    table = ball(group, radius)
    entry = metric._tables[group.key]
    assert (entry.indexed, entry.index) == (0, {})  # no membership query yet
    assert table.layers == tuple(layers) + ((),) * (radius + 1 - len(layers))
    assert table.layer_of(group.identity()) == 0
    assert (entry.indexed, entry.index) == (len(layers), depth)
    assert {g: table.layer_of(g) for g in table.elements()} == depth


@pytest.mark.parametrize("spec", sorted(FAMILIES))
def test_caps_at_each_ball_size_match_naive_bfs(spec):
    """ball(r) under caps gamma(r) - 1, gamma(r) and gamma(r) + 1, grown
    from nothing and from the cached ball of radius r - 1."""
    group = parse_group(spec)
    gamma = growth(group, FAMILIES[spec])
    for r, size in enumerate(gamma):
        for cap in (size - 1, size, size + 1):
            expected = outcome(lambda: (r,) + oracle_ball(group, r, ball_cap=cap)[::2])
            for cached in (False, True) if r else (False,):
                forget(group)
                if cached:
                    ball(group, r - 1)
                assert outcome(lambda: table_answer(ball(group, r, ball_cap=cap))) == expected
                assert_cached_table_is_a_bfs_prefix(group)


def test_grow_counts_the_whole_table_when_extending_a_cached_prefix(monkeypatch):
    """perfbench's Counter reads len(_grow(...)[2]) as the table's size."""
    group = parse_group("heisenberg")
    forget(group)
    ball(group, 2)
    sizes = []
    grow = metric._grow

    def recorded(*args, **kwargs):
        result = grow(*args, **kwargs)
        sizes.append(len(result[2]))
        return result

    monkeypatch.setattr(metric, "_grow", recorded)
    table = ball(group, 4)
    assert sizes == [table.size] == [growth(group, 4)[-1]]


@pytest.mark.parametrize("spec,radius,bound", [("free:3", 6, 90), ("zd:2", 150, 130)])
def test_growth_peak_bytes_per_ball_element(spec, radius, bound):
    """A table is its layers: BFS keeps no whole-ball dict.  The traced peak
    of growth() is about 46 B per element on free:3 and 97 B on zd:2; a BFS
    that kept one read 125 B and 177 B."""
    group = parse_group(spec)
    forget(group)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        size = growth(group, radius)[-1]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / size < bound, (size, peak)


FREE_WORD_PEAK_SCRIPT = """
import sys
import tracemalloc
sys.path.insert(0, {src!r})
from isoplab import growth, parse_group
tracemalloc.start()
size = growth(parse_group("free:3"), 7)[-1]
print(size, tracemalloc.get_traced_memory()[1])
"""


def test_free_word_table_peak_bytes_per_element():
    """A free word is one int below 2**60 (a 32-byte block), so growing
    free:3 to radius 7 from an empty cache in a fresh interpreter peaks
    near 46 B per element; with words as bytes it read 54 B."""
    script = FREE_WORD_PEAK_SCRIPT.format(src=str(Path(metric.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    size, peak = map(int, proc.stdout.split())
    assert size == 117187
    assert peak / size < 50, (size, peak)


# spec -> radius of the compared ball for the infinite groups; a finite
# group is compared whole
WORD_LEVEL_GROUPS = {
    "z": 12, "zd:2": 8, "zd:3": 5, "free:1": 10, "free:2": 6, "free:3": 5, "heisenberg": 5,
    **{f"heisenberg:{m}": None for m in range(2, 6)},
    **{f"cyclic:{n}": None for n in range(2, 25)},
    **{f"dihedral:{n}": None for n in range(3, 16)},
    **{f"symmetric:{n}": None for n in range(3, 6)},
}


@pytest.mark.parametrize("spec", sorted(WORD_LEVEL_GROUPS))
def test_layers_match_word_levels_and_bipartite_flag(spec):
    """A table grown from nothing has the word levels of plain
    multiplication as its layers, whether _grow filters against one layer
    (bipartite groups) or two; and Group.bipartite holds exactly when no
    generator step joins two elements of one layer."""
    group = parse_group(spec)
    radius = WORD_LEVEL_GROUPS[spec]
    if radius is None:
        radius = group.order()  # past saturation
    levels = isoperimetry._word_levels(group, radius)
    forget(group)
    table = ball(group, radius)
    expected = tuple(tuple(sorted(level, key=group.sort_key)) for level in levels)
    assert table.layers == expected + ((),) * (radius + 1 - len(levels))
    mul, gens = group.mul, group.generating_set
    inside = any(mul(s, x) in level for level in levels for x in level for s in gens)
    assert group.bipartite is not inside
