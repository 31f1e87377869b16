"""Differential test of the BFS engine against a networkx Cayley graph.

The oracle's vertices come from brute word enumeration
(`oracle_helpers.word_ball`), its edges are g -> s*g, and its distances are
networkx shortest-path lengths from the identity, so it shares no code with
`metric._grow`.  A geodesic to an element of word length k stays inside the
ball of radius k, so distances in the graph induced on B(e, R) are exact.
"""

import pytest

from isoplab import (
    PreconditionViolated,
    Unattainable,
    ball,
    enumerate_group,
    geodesic_word,
    minimal_d,
    parse_group,
    phi,
    word_length,
)
from isoplab.search import default_uniform_radius
from oracle_helpers import word_ball

nx = pytest.importorskip("networkx")

# radius of the oracle ball; it covers every finite group listed here
RADII = {
    "z": 6, "zd:2": 4, "free:2": 4, "cyclic:12": 7, "dihedral:6": 6,
    "heisenberg": 4, "heisenberg:2": 6, "symmetric:3": 4,
}
CAP = 100_000


def oracle_distances(group, radius):
    vertices = word_ball(group, radius)
    graph = nx.DiGraph()
    graph.add_nodes_from(vertices)
    for g in vertices:
        for s in group.generating_set:
            h = group.mul(s, g)
            if h in vertices:
                graph.add_edge(g, h)
    return nx.single_source_shortest_path_length(graph, group.identity())


def depth_of(table):
    """Word length of each element of the table, by its own lookup."""
    return {g: table.layer_of(g) for g in table.elements()}


@pytest.fixture(scope="module", params=sorted(RADII))
def case(request):
    group = parse_group(request.param)
    radius = RADII[request.param]
    dist = oracle_distances(group, radius)
    if group.order() is not None:
        assert len(dist) == group.order()
    # counts[r] = Card(B(e, r)) for r <= radius
    counts = [sum(1 for k in dist.values() if k <= r) for r in range(radius + 1)]
    return group, radius, dist, counts


def test_ball_depth_matches_cayley_graph(case):
    group, radius, dist, _ = case
    assert depth_of(ball(group, radius, ball_cap=CAP)) == dist


def test_word_length_and_geodesic_word_match_cayley_graph(case):
    group, _, dist, _ = case
    gens = group.generating_set
    for g, k in dist.items():
        assert word_length(group, g, ball_cap=CAP) == k
        word = geodesic_word(group, g, ball_cap=CAP)
        assert len(word) == k
        acc = group.identity()
        for i in word:
            acc = group.mul(gens[i], acc)
        assert acc == g


def test_phi_and_minimal_d_match_cayley_graph(case):
    group, _, dist, counts = case
    for v in range(counts[-1]):
        expected = next(r for r, c in enumerate(counts) if c > v)
        assert phi(group, v, ball_cap=CAP) == expected
        d, table = minimal_d(group, v, ball_cap=CAP)
        assert d == expected and table.size == counts[d]
        assert depth_of(table) == {g: k for g, k in dist.items() if k <= d}
    if group.order() is not None:
        with pytest.raises(Unattainable):
            phi(group, group.order(), ball_cap=CAP)
        with pytest.raises(Unattainable):
            minimal_d(group, group.order(), ball_cap=CAP)


def test_enumerate_group_matches_cayley_graph(case):
    group, _, dist, _ = case
    if group.order() is None:
        with pytest.raises(ValueError):
            enumerate_group(group, ball_cap=CAP)
    else:
        assert enumerate_group(group, ball_cap=CAP) == sorted(dist, key=group.sort_key)


def test_default_uniform_radius_matches_cayley_graph(case):
    group, _, dist, counts = case
    order = group.order()
    for size in range(1, counts[-1] + 1):
        if 2 * size <= counts[-1]:
            expected = next(r for r, c in enumerate(counts) if c >= 2 * size)
        else:
            if order is None:
                continue
            # saturated: the whole group, e.g. cyclic:12 at size 7 gives 6
            expected = max(dist.values())
        assert default_uniform_radius(group, size, CAP) == expected
    if order is not None:
        with pytest.raises(PreconditionViolated):
            default_uniform_radius(group, order + 1, CAP)

