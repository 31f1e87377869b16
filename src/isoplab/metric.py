"""Word length, right-invariant word metric, layered balls, and growth.

Balls are built by breadth-first search from the identity.  Neighbors
under the right-invariant word metric are left multiples s*g, so BFS
expands by left multiplication; generators are tried in generating-set
order and each completed layer is sorted by the canonical element order,
which makes tables and geodesic words fully deterministic.

A table is its sorted layers alone: one flat list of the elements in layer
order, and the end of each layer in that list.  BFS needs no record of the
whole ball: S is symmetric, so s*g with g in layer k lies in layer k-1, k
or k+1, and a new layer is the products of the last one minus the last two
layers.  In a bipartite Cayley graph (Group.bipartite: free groups, Z^k,
symmetric groups, the integer and even-modulus Heisenberg groups, cyclic
and dihedral groups of even n) a parity map G -> Z/2 sends every generator
to 1, so s*g never lies in layer k and the layer behind alone is enough.
The element -> layer index behind `in`, layer_of and parent is
built the first time a membership query needs it, and brought up to date
with the layers added since when a later query needs those.

Each group (by Group.key) has one table of completed layers in a module
cache, grown one layer at a time as queries need more of it.  A query
answers from the smallest layer prefix that meets its stop condition, and
the BallTable it returns is a read-only view of that prefix.  One lock
guards the cache and every extension of a table or of its index.  A table
that outgrows RETAINED_TABLE_MAX elements serves the query that grew it and
is then dropped from the cache, so a large ball does not stay alive for the
rest of the run.

Infinite groups are explored lazily and exactly up to the configured ball
cap; exceeding the cap is a hard error, never a silent truncation.  A query
whose prefix exceeds its cap raises even when a larger table is cached.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import groupby, islice, repeat
from operator import eq, itemgetter
from typing import Callable, Iterator

from .errors import BudgetExceeded, InternalContradiction, Unattainable
from .groups import Element, Group

DEFAULT_BALL_CAP = 5_000_000
# Larger tables are not kept once their query is answered: a large ball
# would otherwise stay alive, unused, for the rest of the run.
RETAINED_TABLE_MAX = 4096

# Group.key -> _Table of the completed layers so far.
_tables: dict = {}
_tables_lock = threading.Lock()

# done(radius, elements, start, end): the stop condition of a query, asked
# of the table whose newest layer is elements[start:end].
Done = Callable[[int, list, int, int], bool]


class _Table:
    """A group's BFS table: elements in layer order, ends[k] the end of
    layer k in it, and the element -> layer index of its first `indexed`
    layers."""

    __slots__ = ("elements", "ends", "exhausted", "index", "indexed")

    def __init__(self):
        self.elements, self.ends, self.exhausted = [], [], False
        self.index, self.indexed = {}, 0

    def depth(self, layers: int) -> dict:
        """The index, extended first to cover at least `layers` layers;
        InternalContradiction if two layers share an element."""
        if self.indexed < layers:
            with _tables_lock:
                elements, ends, index = self.elements, self.ends, self.index
                for k in range(self.indexed, len(ends)):
                    index.update(zip(elements[ends[k - 1] if k else 0 : ends[k]], repeat(k)))
                if len(index) != ends[-1]:
                    raise InternalContradiction("BFS layers list an element twice")
                self.indexed = len(ends)
        return self.index


def _over_cap(group: Group, ball_cap: int, radius: int) -> BudgetExceeded:
    """The error of a BFS whose element ball_cap + 1 (the identity, for a
    ball_cap below 1) lies at the given radius."""
    return BudgetExceeded(
        f"{group.name}: ball outgrew cap {ball_cap} at radius {radius}",
        size=max(ball_cap + 1, 1),
        cap=ball_cap,
    )


def _grow(group: Group, done: Done, elements: list, ends: list, *, ball_cap: int):
    """Extend a layered BFS from the identity in place.

    elements holds the completed layers so far in layer order (none to
    start from the identity) and ends[k] is where layer k ends in it.  Adds
    completed layers until done holds for the newest one or the group is
    exhausted, and returns (ends, exhausted, elements).

    A layer is built generator-major: each generator s in turn multiplies
    the whole previous layer, s*g for g in layer order, keeping the
    products outside a set of the last two layers, or of the layer behind
    the previous one alone when the group is bipartite (no generator step
    stays inside a layer there).  The candidates are then sorted once and
    adjacent repeats dropped, in a second pass only if the sort put some
    next to each other.  Left multiplication by one
    generator keeps the canonical order in the free, lattice and Heisenberg
    families, so the sort meets a few sorted runs.  The cap is checked after
    each generator's batch, on the candidates without repeats once their
    raw count exceeds the room left: BudgetExceeded is raised as soon as a
    batch takes the layer past ball_cap elements in all, before the next
    batch is built (at once for a ball_cap below 1, which the identity alone
    outgrows).  elements and ends only ever gain completed layers.
    """
    if not ends:
        if ball_cap < 1:
            raise _over_cap(group, ball_cap, 0)
        elements.append(group.identity())
        ends.append(1)
    gens = group.generating_set
    mul = group.mul
    bipartite = group.bipartite
    while True:
        level = len(ends)
        start, end = ends[-2] if level > 1 else 0, ends[-1]
        if done(level - 1, elements, start, end):
            return ends, False, elements
        near = set(elements[ends[-3] if level > 2 else 0 : start if bipartite else end])
        last = elements[start:end]
        room = ball_cap - end
        frontier: list = []
        for s in gens:
            frontier += [h for h in map(mul, repeat(s), last) if h not in near]
            if len(frontier) > room:
                frontier = list(dict.fromkeys(frontier))
                if len(frontier) > room:
                    raise _over_cap(group, ball_cap, level)
        del near, last
        if not frontier:
            return ends, True, elements
        frontier.sort()  # one word length: the canonical order (see groups)
        if any(map(eq, frontier, islice(frontier, 1, None))):
            elements.extend(map(itemgetter(0), groupby(frontier)))
        else:
            elements += frontier
        ends.append(len(elements))


def _prefix(group: Group, done: Done, ball_cap: int) -> BallTable:
    """The smallest layer prefix of the group's table on which done holds,
    or the whole group if it never does.

    done(radius, elements, start, end) is asked of each layer in turn, with
    elements[start:end] the layer of that radius: it sees the bounds of the
    newest layer, not a copy of it.
    """
    key = group.key
    with _tables_lock:
        table = _tables.get(key) or _Table()
        elements, ends = table.elements, table.ends
        start = 0
        for radius, end in enumerate(ends):
            if end > ball_cap:
                raise _over_cap(group, ball_cap, radius)
            if done(radius, elements, start, end):
                return BallTable(group, radius, table, radius + 1)
            start = end
        if not table.exhausted:
            # Out of the cache while it grows: a table whose extension
            # raised is never served again.
            _tables.pop(key, None)
            table.exhausted = _grow(group, done, elements, ends, ball_cap=ball_cap)[1]
            if len(elements) <= RETAINED_TABLE_MAX:
                _tables[key] = table
        return BallTable(group, len(ends) - 1, table, len(ends))


class BallTable:
    """Read-only view of the layers 0..radius of a group's BFS table.

    layer(k) holds the elements of word length exactly k, sorted by the
    canonical order (empty beyond saturation); the view holds only the
    first `built` layers of the shared table, which later extensions never
    change.  `in`, layer_of and parent answer membership and word length
    over the union of the view's layers, from the table's element -> layer
    index: the first of them asked on a table builds it.
    """

    def __init__(self, group: Group, radius: int, table: _Table, built: int):
        self.group, self.radius, self._table, self._built = group, radius, table, built
        self.size = table.ends[built - 1]

    def layer(self, k: int) -> tuple[Element, ...]:
        """Layer k, made only when read."""
        if not 0 <= k < self._built:
            return ()
        ends = self._table.ends
        return tuple(self._table.elements[ends[k - 1] if k else 0 : ends[k]])

    @property
    def layers(self) -> tuple[tuple[Element, ...], ...]:
        """The built layers, then the empty ones up to radius, made only when read."""
        built = self._built
        return tuple(map(self.layer, range(built))) + ((),) * (self.radius + 1 - built)

    def __contains__(self, e: Element) -> bool:
        k = self._table.depth(self._built).get(e)
        return k is not None and k <= self.radius

    def layer_of(self, e: Element) -> int:
        k = self._table.depth(self._built).get(e)
        if k is None or k > self.radius:
            raise KeyError(e)
        return k

    def elements(self) -> Iterator[Element]:
        return islice(self._table.elements, self.size)

    def parent(self, h: Element) -> tuple[int, Element]:
        """(i, pred) with h = s_i * pred and pred one layer nearer the
        identity: the least such pred in canonical order, whatever order
        BFS reached h in, so geodesic words depend on the layers alone."""
        k = self.layer_of(h)
        if k == 0:
            raise ValueError("the identity has no parent")
        group = self.group
        depth = self._table.depth(self._built)
        preds = []
        for i, s in enumerate(group.generating_set):
            pred = group.mul(group.inv(s), h)
            if depth.get(pred) == k - 1:
                preds.append((pred, i))
        pred, i = min(preds)  # one word length: the canonical order (see groups)
        return i, pred


def ball(group: Group, radius: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> BallTable:
    """Exact ball of the given radius (layers beyond saturation are empty)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    table = _prefix(group, lambda r, elements, start, end: r >= radius, ball_cap)
    return BallTable(group, radius, table._table, table._built)


def growth(group: Group, r_max: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> tuple[int, ...]:
    """Cumulative ball sizes gamma(0..r_max)."""
    table = ball(group, r_max, ball_cap=ball_cap)
    built = table._built
    return tuple(table._table.ends[:built]) + (table.size,) * (r_max + 1 - built)


def phi(group: Group, v: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """Inverse growth: least r with gamma(r) > v (strict)."""
    return minimal_d(group, v, ball_cap=ball_cap)[0]


def minimal_d(
    group: Group, target: int, *, ball_cap: int = DEFAULT_BALL_CAP
) -> tuple[int, BallTable]:
    """Least d with gamma(d) > target, together with the ball it certifies."""
    if target < 0:
        raise ValueError("target must be non-negative")
    table = _prefix(group, lambda r, elements, start, end: end > target, ball_cap)
    if table.size <= target:
        raise Unattainable(target, available=table.size)
    return table.radius, table


def _ball_reaching(group: Group, g: Element, ball_cap: int) -> BallTable:
    """The ball of radius ||g||."""
    group.validate(g)

    def reached(r: int, elements: list, start: int, end: int) -> bool:
        i = bisect_left(elements, g, start, end)  # a layer is sorted
        return i < end and elements[i] == g

    table = _prefix(group, reached, ball_cap)
    if g not in table:
        raise InternalContradiction(f"{group.name}: generators failed to reach {group.format(g)}")
    return table


def word_length(group: Group, g: Element, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """BFS depth at which g first appears; 0 iff g is the identity."""
    return _ball_reaching(group, g, ball_cap).layer_of(g)


def geodesic_word(group: Group, g: Element, *, ball_cap: int = DEFAULT_BALL_CAP) -> tuple[int, ...]:
    """Generator indices (s_1, ..., s_k) with g = s_k * ... * s_1 and k = ||g||.

    The word follows BFS parent links (BallTable.parent), so it is
    deterministic; s_1 is the first step applied to the identity.
    """
    table = _ball_reaching(group, g, ball_cap)
    indices = []
    for _ in range(table.layer_of(g)):
        i, g = table.parent(g)
        indices.append(i)
    indices.reverse()
    return tuple(indices)


def distance(group: Group, x: Element, y: Element, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """Right-invariant word metric dist(x, y) = ||x * y^-1||."""
    group.validate(x)
    group.validate(y)
    return word_length(group, group.mul(x, group.inv(y)), ball_cap=ball_cap)


def enumerate_group(group: Group, *, ball_cap: int = DEFAULT_BALL_CAP) -> list[Element]:
    """All elements of a finite group, sorted by the canonical order."""
    order = group.order()
    if order is None:
        raise ValueError(f"{group.name} is infinite; cannot enumerate")
    table = _prefix(group, lambda r, elements, start, end: end >= order, ball_cap)
    if table.size != order:
        raise InternalContradiction(
            f"{group.name}: enumeration found {table.size} of {order} elements"
        )
    return sorted(table.elements(), key=group.sort_key)
