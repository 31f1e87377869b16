"""Word length, right-invariant word metric, layered balls, and growth.

Balls are built by breadth-first search from the identity.  Neighbors
under the right-invariant word metric are left multiples s*g, so BFS
expands by left multiplication; generators are tried in generating-set
order and each completed layer is sorted by the canonical element order,
which makes tables and geodesic words fully deterministic.

Each group (by Group.key) has one table of completed layers in a module
cache, grown one layer at a time as queries need more of it.  A query
answers from the smallest layer prefix that meets its stop condition, and
the BallTable it returns is a read-only view of that prefix.  One lock
guards the cache and every extension of a table.  A table that outgrows
RETAINED_TABLE_MAX elements serves the query that grew it and is then
dropped from the cache, so a large ball does not stay alive for the rest of
the run.

Infinite groups are explored lazily and exactly up to the configured ball
cap; exceeding the cap is a hard error, never a silent truncation.  A query
whose prefix exceeds its cap raises even when a larger table is cached.
"""

from __future__ import annotations

import threading
from itertools import accumulate, repeat
from typing import Callable, Iterator

from .errors import BudgetExceeded, InternalContradiction, Unattainable
from .groups import Element, Group

DEFAULT_BALL_CAP = 5_000_000
# Larger tables are not kept once their query is answered: a large ball
# would otherwise stay alive, unused, for the rest of the run.
RETAINED_TABLE_MAX = 4096

# Group.key -> (layers, depth, exhausted) of the completed layers so far.
_tables: dict = {}
_tables_lock = threading.Lock()


def _over_cap(group: Group, ball_cap: int, radius: int) -> BudgetExceeded:
    """The error of a BFS whose element ball_cap + 1 (the identity, for a
    ball_cap below 1) lies at the given radius."""
    return BudgetExceeded(
        f"{group.name}: ball outgrew cap {ball_cap} at radius {radius}",
        size=max(ball_cap + 1, 1),
        cap=ball_cap,
    )


def _grow(
    group: Group,
    done: Callable[[int, int, dict], bool],
    layers: list,
    depth: dict,
    *,
    ball_cap: int,
):
    """Extend a layered BFS from the identity in place.

    layers holds the completed layers so far (none to start from the
    identity) and depth maps each of their elements to its layer.  Adds
    completed layers until done(radius, size, depth) holds for the whole
    table or the group is exhausted, and returns (layers, exhausted, depth).

    A layer is built generator-major: each generator s in turn multiplies
    the whole previous layer, s*g for g in layer order, and the new layer
    is then sorted.  Left multiplication by one generator keeps the
    canonical order in the free, lattice and Heisenberg families, so the
    sort meets a few sorted runs.  The cap is checked on every insert:
    BudgetExceeded is raised as soon as the table holds ball_cap + 1
    elements, before the rest of that layer is built (at once for a
    ball_cap below 1, which the identity alone outgrows); depth then holds
    part of a layer.
    """
    if not layers:
        if ball_cap < 1:
            raise _over_cap(group, ball_cap, 0)
        e = group.identity()
        depth[e] = 0
        layers.append((e,))
    gens = group.generating_set
    mul = group.mul
    while not done(len(layers) - 1, len(depth), depth):
        frontier = []
        level = len(layers)
        room = ball_cap - len(depth)
        last = layers[-1]
        for s in gens:
            for h in map(mul, repeat(s), last):
                if h not in depth:
                    depth[h] = level
                    frontier.append(h)
                    if len(frontier) > room:
                        raise _over_cap(group, ball_cap, level)
        if not frontier:
            return layers, True, depth
        frontier.sort()  # one word length: the canonical order (see groups)
        layers.append(tuple(frontier))
    return layers, False, depth


def _prefix(group: Group, done: Callable[[int, int, dict], bool], ball_cap: int) -> BallTable:
    """The smallest layer prefix of the group's table on which
    done(radius, size, depth) holds, or the whole group if it never does.

    done sees the whole table's depth dict, so it must read an element's
    depth as present only up to the radius it is given.
    """
    key = group.key
    with _tables_lock:
        layers, depth, exhausted = _tables.get(key) or ([], {}, False)
        size = 0
        for radius, layer in enumerate(layers):
            size += len(layer)
            if size > ball_cap:
                raise _over_cap(group, ball_cap, radius)
            if done(radius, size, depth):
                return BallTable(group, radius, tuple(layers[: radius + 1]), size, depth)
        if not exhausted:
            # Out of the cache while it grows: a layer left half built by an
            # exception must never be served.
            _tables.pop(key, None)
            layers, exhausted, depth = _grow(group, done, layers, depth, ball_cap=ball_cap)
            if len(depth) <= RETAINED_TABLE_MAX:
                _tables[key] = (layers, depth, exhausted)
        return BallTable(group, len(layers) - 1, tuple(layers), len(depth), depth)


class BallTable:
    """Read-only view of the layers 0..radius of a group's BFS table.

    layers[k] holds the elements of word length exactly k, sorted by the
    canonical order (empty beyond saturation).  `in` and layer_of answer
    membership and word length over their union.
    """

    def __init__(
        self, group: Group, radius: int, layers: tuple[tuple[Element, ...], ...], size: int,
        _depth: dict,
    ):
        self.group, self.radius, self._built, self.size = group, radius, layers, size
        self._depth = _depth  # the whole table's, which may reach past radius

    @property
    def layers(self) -> tuple[tuple[Element, ...], ...]:
        """The built layers, then the empty ones up to radius, made only when read."""
        return self._built + ((),) * (self.radius + 1 - len(self._built))

    def __contains__(self, e: Element) -> bool:
        k = self._depth.get(e)
        return k is not None and k <= self.radius

    def layer_of(self, e: Element) -> int:
        if e not in self:
            raise KeyError(e)
        return self._depth[e]

    def elements(self) -> Iterator[Element]:
        for layer in self._built:
            yield from layer

    def parent(self, h: Element) -> tuple[int, Element]:
        """(i, pred) with h = s_i * pred and pred one layer nearer the
        identity: the least such pred in canonical order, whatever order
        BFS reached h in, so geodesic words depend on the layers alone."""
        k = self.layer_of(h)
        if k == 0:
            raise ValueError("the identity has no parent")
        group = self.group
        depth = self._depth
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
    table = _prefix(group, lambda r, size, depth: r >= radius, ball_cap)
    return BallTable(group, radius, table._built, table.size, table._depth)


def growth(group: Group, r_max: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> tuple[int, ...]:
    """Cumulative ball sizes gamma(0..r_max)."""
    return tuple(accumulate(map(len, ball(group, r_max, ball_cap=ball_cap).layers)))


def phi(group: Group, v: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """Inverse growth: least r with gamma(r) > v (strict)."""
    return minimal_d(group, v, ball_cap=ball_cap)[0]


def minimal_d(
    group: Group, target: int, *, ball_cap: int = DEFAULT_BALL_CAP
) -> tuple[int, BallTable]:
    """Least d with gamma(d) > target, together with the ball it certifies."""
    if target < 0:
        raise ValueError("target must be non-negative")
    table = _prefix(group, lambda r, size, depth: size > target, ball_cap)
    if table.size <= target:
        raise Unattainable(target, available=table.size)
    return table.radius, table


def _ball_reaching(group: Group, g: Element, ball_cap: int) -> BallTable:
    """The ball of radius ||g||."""
    group.validate(g)
    table = _prefix(group, lambda r, size, depth: depth.get(g, r + 1) <= r, ball_cap)
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
    table = _prefix(group, lambda r, size, depth: size >= order, ball_cap)
    if table.size != order:
        raise InternalContradiction(
            f"{group.name}: enumeration found {table.size} of {order} elements"
        )
    return sorted(table.elements(), key=group.sort_key)
