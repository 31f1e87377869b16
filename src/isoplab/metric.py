"""Word length, right-invariant word metric, layered balls, and growth.

Balls are built by breadth-first search from the identity.  Neighbors
under the right-invariant word metric are left multiples s*g, so BFS
expands by left multiplication; generators are tried in generating-set
order and each completed layer is sorted by the canonical element order,
which makes tables and parent links fully deterministic.

Infinite groups are explored lazily and exactly up to the configured ball
cap; exceeding the cap is a hard error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from .errors import BudgetExceeded, InternalContradiction, Unattainable
from .groups import Element, Group

DEFAULT_BALL_CAP = 5_000_000


def _grow(group: Group, done: Callable[[list, dict], bool], *, ball_cap: int):
    """Layered BFS from the identity.

    Adds completed layers until done(layers, depth) holds or the group is
    exhausted, and returns (layers, parent, depth); parent maps each
    non-identity element to (generator index, predecessor) with
    element = s * predecessor.  Raises BudgetExceeded as soon as the ball
    holds ball_cap + 1 elements, before the rest of that layer is built (at
    once for a ball_cap below 1, which the identity alone outgrows).
    """
    gens = group.generating_set.elements
    mul = group.mul
    sort_key = group.sort_key
    e = group.identity()
    depth: dict = {e: 0}
    if ball_cap < 1:
        raise BudgetExceeded(
            f"{group.name}: ball outgrew cap {ball_cap} at radius 0", size=1, cap=ball_cap
        )
    parent: dict = {}
    layers: list[tuple] = [(e,)]
    while not done(layers, depth):
        frontier = []
        level = len(layers)
        for g in layers[-1]:
            for i, s in enumerate(gens):
                h = mul(s, g)
                if h not in depth:
                    depth[h] = level
                    parent[h] = (i, g)
                    frontier.append(h)
                    if len(depth) > ball_cap:
                        raise BudgetExceeded(
                            f"{group.name}: ball outgrew cap {ball_cap} at radius {level}",
                            size=len(depth),
                            cap=ball_cap,
                        )
        if not frontier:
            break
        frontier.sort(key=sort_key)
        layers.append(tuple(frontier))
    return layers, parent, depth


@dataclass(frozen=True, eq=False)
class BallTable:
    """Layered ball around the identity with parent links for geodesics.

    layers[k] holds the elements of word length exactly k, sorted by the
    canonical order; depth is the exact word-length lookup over the union.
    """

    group: Group
    radius: int
    layers: tuple[tuple[Element, ...], ...]
    parent: dict
    depth: dict

    @cached_property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @cached_property
    def growth_values(self) -> tuple[int, ...]:
        values = []
        total = 0
        for layer in self.layers:
            total += len(layer)
            values.append(total)
        return tuple(values)

    def gamma(self, k: int) -> int:
        return self.growth_values[k]

    def __contains__(self, e: Element) -> bool:
        return e in self.depth

    def layer_of(self, e: Element) -> int:
        return self.depth[e]

    def elements(self) -> Iterator[Element]:
        for layer in self.layers:
            yield from layer


def ball(group: Group, radius: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> BallTable:
    """Exact ball of the given radius (layers beyond saturation are empty)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    layers, parent, depth = _grow(
        group, lambda layers, depth: len(layers) > radius, ball_cap=ball_cap
    )
    layers += [()] * (radius + 1 - len(layers))
    return BallTable(group=group, radius=radius, layers=tuple(layers), parent=parent, depth=depth)


@dataclass(frozen=True, eq=False)
class GrowthTable:
    """Cumulative ball sizes gamma(0..r_max)."""

    group: Group
    values: tuple[int, ...]

    @property
    def r_max(self) -> int:
        return len(self.values) - 1

    def csv_rows(self) -> list[tuple[int, int]]:
        return [(r, v) for r, v in enumerate(self.values)]


def growth(group: Group, r_max: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> GrowthTable:
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    table = ball(group, r_max, ball_cap=ball_cap)
    return GrowthTable(group=group, values=table.growth_values)


def phi(group: Group, v: int, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """Inverse growth: least r with gamma(r) > v (strict)."""
    return minimal_d(group, v, ball_cap=ball_cap)[0]


def minimal_d(
    group: Group, target: int, *, ball_cap: int = DEFAULT_BALL_CAP
) -> tuple[int, BallTable]:
    """Least d with gamma(d) > target, together with the ball it certifies."""
    if target < 0:
        raise ValueError("target must be non-negative")
    layers, parent, depth = _grow(
        group, lambda layers, depth: len(depth) > target, ball_cap=ball_cap
    )
    if len(depth) <= target:
        raise Unattainable(target, available=len(depth))
    d = len(layers) - 1
    return d, BallTable(group=group, radius=d, layers=tuple(layers), parent=parent, depth=depth)


def word_length(group: Group, g: Element, *, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """BFS depth at which g first appears; 0 iff g is the identity."""
    return len(geodesic_word(group, g, ball_cap=ball_cap))


def geodesic_word(group: Group, g: Element, *, ball_cap: int = DEFAULT_BALL_CAP) -> tuple[int, ...]:
    """Generator indices (s_1, ..., s_k) with g = s_k * ... * s_1 and k = ||g||.

    The word follows BFS parent links, so it is deterministic; s_1 is the
    first step applied to the identity.
    """
    group.validate(g)
    _, parent, depth = _grow(group, lambda layers, depth: g in depth, ball_cap=ball_cap)
    if g not in depth:
        raise InternalContradiction(f"{group.name}: generators failed to reach {group.format(g)}")
    indices = []
    cur = g
    e = group.identity()
    while cur != e:
        i, pred = parent[cur]
        indices.append(i)
        cur = pred
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
    _, _, depth = _grow(group, lambda layers, depth: len(depth) >= order, ball_cap=ball_cap)
    if len(depth) != order:
        raise InternalContradiction(
            f"{group.name}: enumeration found {len(depth)} of {order} elements"
        )
    return sorted(depth.keys(), key=group.sort_key)
