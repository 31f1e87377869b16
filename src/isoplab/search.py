"""Set generation, exhaustive isoperimetric profiles, and sharpness factors.

Random sets come from the documented SplitMix64 stream, so a descriptor
plus seed reproduces the identical set on any machine.  Subsets of a
finite group are read as sets of positions in its canonically sorted
element list, which only _ground_set builds: it alone refuses an infinite
group and applies the exhaustive order cap DEFAULT_SUBSET_CAP.

The `exhaustive:` descriptor streams the subsets in its size range in
binary-reflected Gray-code order of their bitmasks.  gray_subset_steps
jumps over every run of the code whose sizes all miss the range, so it
meets only the wanted masks, and computes no boundaries.

A profile needs only one least-boundary set per requested size k, and
right translation preserves both the size and the outer boundary, since
S(Dg) = (SD)g.  So every minimiser has a translate through position 0,
and the lexicographically least minimiser contains position 0.  The
profile therefore walks only the sets {0} u R, R a set of positions
1..N-1, depth first in lexicographic order.  That walk,
anchored_subset_steps, reads only the neighbour bitmask of each position,
which exhaustive_profile builds from the group, and keeps the outer
boundary as a bitmask of positions, updated as a position is added and
restored as it is removed.

The walk is a branch-and-bound with two bounds, each of which can only
skip sets whose boundary is no lower than the least already seen at their
size.  All sets below a set in the walk are its supersets.
- For any q, S(D u {q}) \\ (D u {q}) contains (SD \\ D) \\ {q}, so each
  added element lowers the outer boundary by at most 1: a superset of
  size j of a set of size s and boundary b has boundary at least
  b - (j - s).  The walk descends from a set only while b + s is below
  the largest least[j] + j over the requested sizes j > s.
- The walk only adds positions above the last one, so no set at or
  below D u {q} contains a boundary point of D at a position below q.
  SD lies in the S-image of each of those sets, so these points, the
  points locked at q, stay on all their boundaries.  The walk enters
  D u {q} only while D has fewer points locked at q than the largest
  least[j] over the requested sizes j > Card(D).  That count only grows
  with q, so the first child refused ends the walk over D's children.
Ties never replace a witness and the least boundaries only fall, so the
rows and witnesses are those of the full walk: cyclic:22 with sizes 1..10
visits 182 of its 695,860 anchored sets (of 4,194,304 subsets), where the
first bound alone visits 16,061.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import BudgetExceeded, InternalContradiction, ParseError, PreconditionViolated
from .groups import Element, Group, ZGroup
from .isoperimetry import FiniteSubset, VerificationReport, admissible, verify_theorem
from .metric import DEFAULT_BALL_CAP, ball, enumerate_group, minimal_d, phi
from .rng import SplitMix64

DEFAULT_SUBSET_CAP = 24

_BALL_RE = re.compile(r"ball:([0-9]+)")
_RANDOM_RE = re.compile(r"random:([0-9]+):([0-9]+)(?::(connected|ball=[0-9]+))?")
_RANGE_RE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")
# Element literals never nest (int tuples, permutations, free words), so a
# comma that meets a closing bracket before an opening one lies inside a
# literal.  Each piece's own parser rejects whatever else is malformed.
_ELEMENT_SEP_RE = re.compile(r",(?![^()\[\]]*[)\]])")


class SetDescriptor(NamedTuple):
    """How to build a finite subset; identical descriptor + seed gives the
    identical set."""

    text: str
    kind: str  # ball | connected | uniform | explicit | exhaustive | interval
    radius: Optional[int] = None  # of ball:R, and of the ball a uniform draw is from
    size: Optional[int] = None
    seed: Optional[int] = None
    element_texts: tuple[str, ...] = ()
    size_lo: Optional[int] = None
    size_hi: Optional[int] = None

    def reseeded(self, seed: int, label: str) -> "SetDescriptor":
        return self._replace(seed=seed, text=f"{self.text}#{label}")


def parse_set_descriptor(text: str) -> SetDescriptor:
    t = text.strip()
    if t.startswith("ball:"):
        m = _BALL_RE.fullmatch(t)
        if m is None:
            raise ParseError(f"bad ball descriptor {text!r} (expected ball:<radius>)")
        return SetDescriptor(text=t, kind="ball", radius=int(m.group(1)))
    if t.startswith("random:"):
        m = _RANDOM_RE.fullmatch(t)
        if m is None:
            raise ParseError(
                f"bad random descriptor {text!r} "
                "(expected random:<size>:<seed>[:connected|:ball=<R>])"
            )
        size, seed = int(m.group(1)), int(m.group(2))
        if size < 1:
            raise ParseError("random size must be >= 1")
        suffix = m.group(3)
        if suffix is None or suffix == "connected":
            # connected growth is the default sampling mode
            return SetDescriptor(text=t, kind="connected", size=size, seed=seed)
        return SetDescriptor(
            text=t, kind="uniform", radius=int(suffix[len("ball="):]), size=size, seed=seed
        )
    if t.startswith("explicit:"):
        body = t[len("explicit:"):]
        parts = [p.strip() for p in _ELEMENT_SEP_RE.split(body) if p.strip()]
        if not parts:
            raise ParseError(f"empty explicit descriptor {text!r}")
        return SetDescriptor(text=t, kind="explicit", element_texts=tuple(parts))
    for kind in ("exhaustive", "interval"):  # streams over a size range
        if t.startswith(kind + ":"):
            lo, hi = parse_size_range(t[len(kind) + 1:])
            return SetDescriptor(text=t, kind=kind, size_lo=lo, size_hi=hi)
    raise ParseError(f"unrecognized set descriptor {text!r}")


def parse_size_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"bad size range {text!r} (expected lo..hi)")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if lo < 1 or hi < lo:
        raise ParseError(f"bad size range {text!r}")
    return lo, hi


def default_uniform_radius(group: Group, size: int, ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """Smallest R with gamma(R) >= 2*size (the whole group once saturated)."""
    order = group.order()
    saturated = order is not None and order < 2 * size
    radius, table = minimal_d(group, order - 1 if saturated else 2 * size - 1, ball_cap=ball_cap)
    if table.size < size:
        raise PreconditionViolated(f"random size {size} exceeds group size {table.size}")
    return radius


def _sample_uniform_in_ball(group: Group, desc: SetDescriptor, *, ball_cap: int) -> FiniteSubset:
    rng = SplitMix64(desc.seed)  # first: a bad seed is refused before the ball is built
    radius = desc.radius
    table = ball(group, radius, ball_cap=ball_cap)
    pool = list(table.elements())
    if desc.size > len(pool):
        raise PreconditionViolated(
            f"random size {desc.size} exceeds ball size {len(pool)} at radius {radius}"
        )
    if len(set(pool)) < len(pool):  # the draws below would never end
        raise InternalContradiction(f"{group.name}: the ball of radius {radius} repeats an element")
    chosen: set = set()
    while len(chosen) < desc.size:
        chosen.add(pool[rng.below(len(pool))])
    return FiniteSubset(group, tuple(sorted(chosen, key=group.sort_key)), desc.text)


def _sample_connected(group: Group, desc: SetDescriptor, *, ball_cap: int) -> FiniteSubset:
    rng = SplitMix64(desc.seed)
    if ball_cap < 1:
        raise BudgetExceeded(
            f"{group.name}: connected sample outgrew cap {ball_cap}", size=1, cap=ball_cap
        )
    # every draw reaches min(size, order) members, so the running check
    # below would trip on a larger need after some pick
    order = group.order()
    need = desc.size if order is None else min(desc.size, order)
    if need > ball_cap:
        raise BudgetExceeded(
            f"{group.name}: {desc.text} needs {need} elements, above cap {ball_cap}",
            size=need,
            cap=ball_cap,
        )
    mul = group.mul
    gens = group.generating_set
    members = {group.identity()}
    # frontier: every s*m outside members, in the canonical order, which is
    # the elements' natural order in every family; so one bisect both places
    # a new element and finds one already there.
    frontier: list[Element] = []

    def grow(g: Element) -> None:
        for s in gens:
            h = mul(s, g)
            if h not in members:
                j = bisect_left(frontier, h)
                if j == len(frontier) or frontier[j] != h:
                    frontier.insert(j, h)

    grow(group.identity())
    while len(members) < desc.size:
        if not frontier:
            raise PreconditionViolated(
                f"random size {desc.size} exceeds group size {len(members)}"
            )
        i = rng.below(len(frontier))
        pick = frontier.pop(i)
        members.add(pick)
        grow(pick)
        if len(members) + len(frontier) > ball_cap:
            raise BudgetExceeded(
                f"{group.name}: connected sample outgrew cap {ball_cap}",
                size=len(members) + len(frontier),
                cap=ball_cap,
            )
    return FiniteSubset(group, tuple(sorted(members)), desc.text)


def generate_sets(
    group: Group,
    desc: SetDescriptor,
    trials: int = 1,
    *,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> Iterator[FiniteSubset]:
    """Stream the subsets a descriptor denotes: every subset in the size
    range of an exhaustive descriptor, every interval of z in that of an
    interval descriptor, a single set for the others.  An interval range
    whose largest set holds more than ball_cap elements is refused before
    its first set, and a connected random set that must hold more before
    its first pick.

    A random descriptor with trials > 1 runs that many independent draws,
    trial t seeded with child t of the descriptor seed; otherwise it draws
    once with its own seed.  The other kinds ignore the trial count.
    """
    if desc.kind in ("connected", "uniform"):
        sample = _sample_connected if desc.kind == "connected" else _sample_uniform_in_ball
        if trials <= 1:
            yield sample(group, desc, ball_cap=ball_cap)
            return
        rng = SplitMix64(desc.seed)
        for t in range(trials):
            yield sample(group, desc.reseeded(rng.child_seed(t), f"trial={t}"), ball_cap=ball_cap)
        return
    if desc.kind == "ball":
        table = ball(group, desc.radius, ball_cap=ball_cap)
        yield FiniteSubset.from_iterable(group, table.elements(), provenance=desc.text)
        return
    if desc.kind == "explicit":
        elems = [group.parse(t) for t in desc.element_texts]
        yield FiniteSubset.from_iterable(group, elems, provenance=desc.text)
        return
    if desc.kind == "exhaustive":
        ground = _ground_set(group, ball_cap=ball_cap)
        if desc.size_lo > len(ground):
            raise PreconditionViolated(
                f"{group.name} has {len(ground)} elements, so {desc.text} denotes no subsets"
            )
        for mask, _ in gray_subset_steps(len(ground), desc.size_lo, desc.size_hi):
            # ground is sorted and distinct, so every subsequence is too
            elems = tuple([e for i, e in enumerate(ground) if mask >> i & 1])
            yield FiniteSubset(group, elems, f"{desc.text}:mask={mask}")
        return
    if desc.kind == "interval":
        intervals = interval_subsets(group, desc.size_lo, desc.size_hi)
        if desc.size_hi > ball_cap:  # before the first set, as a ball meets its cap
            raise BudgetExceeded(
                f"{group.name}: {desc.text} reaches {desc.size_hi} elements, above cap {ball_cap}",
                size=desc.size_hi, cap=ball_cap,
            )
        yield from intervals
        return
    raise ParseError(f"unknown descriptor kind {desc.kind!r}")


def generate_set(
    group: Group, desc: SetDescriptor, *, ball_cap: int = DEFAULT_BALL_CAP
) -> FiniteSubset:
    if desc.kind in ("exhaustive", "interval"):
        raise ParseError(f"{desc.kind} descriptors denote a stream; use generate_sets")
    return next(generate_sets(group, desc, ball_cap=ball_cap))


def _ground_set(group: Group, *, ball_cap: int = DEFAULT_BALL_CAP) -> list[Element]:
    """The sorted elements of a finite group within the exhaustive order cap."""
    order = group.order()
    if order is None:
        raise PreconditionViolated(f"{group.name} is infinite; exhaustive search needs a finite group")
    if order > DEFAULT_SUBSET_CAP:
        raise BudgetExceeded(
            f"{group.name} has {order} elements, above the exhaustive cap {DEFAULT_SUBSET_CAP}",
            size=order,
            cap=DEFAULT_SUBSET_CAP,
        )
    return enumerate_group(group, ball_cap=ball_cap)


def gray_subset_steps(n: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Yield (mask, size) for each n-bit mask with lo <= size <= hi, in
    binary-reflected Gray-code order: mask i ^ (i >> 1) for i = 0, 1, ...

    G(k), the code on the low k bits, is G(k-1) followed by G(k-1) reversed
    with bit k-1 set.  So the 2^k indices from a multiple i of 2^k give all
    settings of the low k bits under the fixed high bits mask >> k, and the
    walk jumps over the largest such block in which every size misses the
    range.
    """
    i, end = 0, 1 << n
    while i < end:
        mask = i ^ (i >> 1)
        size = mask.bit_count()
        if lo <= size <= hi:
            yield mask, size
            i += 1
            continue
        # i is a multiple of 2^k up to its trailing zeros (n for i = 0);
        # k = 0 always qualifies, since this mask misses the range
        k = ((i & -i) or end).bit_length() - 1
        while True:
            fixed = (mask >> k).bit_count()
            if fixed > hi or fixed + k < lo:
                break
            k -= 1
        i += 1 << k


def anchored_subset_steps(
    reach: list[int],
    max_size: int,
    *,
    ceiling: list[int],
    locked_ceiling: list[int],
) -> Iterator[tuple[list[int], int, int]]:
    """Walk the sets of positions 0..N-1 that contain position 0, in
    lexicographic order of their ascending tuples, on the graph whose
    position i has the neighbour bitmask reach[i], N = len(reach).  In a
    Cayley graph, reach[i] holds the positions s * ground[i], s in S.

    Yields (positions, size, outer_boundary_size) for the sets {0} u R
    with R a set of positions 1..N-1 and size at most max_size, depth first
    in pre-order; the outer boundary of P is the union of reach[i], i in P,
    less P.  The children of a set P of size s and boundary b are the
    sets P u {q} with q above the last position of P.  The walk descends to
    them only if b + s < ceiling[s] as it yields P, and enters the child
    P u {q} only while the boundary points of P at positions below q number
    fewer than locked_ceiling[s]; that count only grows with q, so the
    first child refused ends the walk over P's children.  The caller may
    lower entries of either list between steps.  Both lists holding N + 1
    at every size never prune, since b + s <= N, and the walk then
    yields all sum(C(N-1, j) for j < max_size) sets.  Each step adds one
    position, after removing those it backtracks over, and keeps the
    boundary as a bitmask of positions.  `positions` is the walk's own
    ascending list, valid until the next step: copy it to keep it.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n = len(reach)

    positions: list[int] = []
    saved: list[int] = []  # saved[i]: the boundary mask before positions[i] joined
    members = 0  # bitmask of D
    outer = 0  # bitmask of the outer boundary SD \ D
    q = 0
    while True:
        saved.append(outer)
        members |= 1 << q
        outer = (outer | reach[q]) & ~members
        positions.append(q)
        size = len(positions)
        boundary = outer.bit_count()
        yield positions, size, boundary
        q += 1
        if (
            size < max_size
            and q < n
            and boundary + size < ceiling[size]
            and (outer & ((1 << q) - 1)).bit_count() < locked_ceiling[size]
        ):
            continue
        # backtrack to the last set with a child left to enter; 0 never moves
        while True:
            q = positions.pop()
            members ^= 1 << q
            outer = saved.pop()
            q += 1
            if not positions:
                return
            if q < n and (outer & ((1 << q) - 1)).bit_count() < locked_ceiling[len(positions)]:
                break


class ProfileRow:
    """Minimum outer-boundary size over all subsets of one cardinality."""

    def __init__(self, size: int, min_boundary: int, witness: FiniteSubset, bound: Fraction):
        self.size, self.min_boundary, self.witness = size, min_boundary, witness
        self.bound = bound  # size / (2 * phi(2 * size)): strict lower bound

    @property
    def gap(self) -> Fraction:
        return self.min_boundary - self.bound

    def to_json_dict(self) -> dict:
        return {
            "n": self.size,
            "min_boundary": self.min_boundary,
            "bound_num": self.bound.numerator,
            "bound_den": self.bound.denominator,
            "witness": "{" + ";".join(
                self.witness.group.format(e) for e in self.witness.elements
            ) + "}",
        }


def exhaustive_profile(group: Group, sizes: Iterable[int]) -> list[ProfileRow]:
    """Minimum boundary over ALL subsets of each requested size, with a
    canonically least witness.

    The witness is the lexicographically least minimiser as a tuple of
    ascending positions in the canonical element order.  Right translation
    keeps the size and the outer boundary, so that witness contains
    position 0, and the walk of anchored_subset_steps, which visits the
    sets through position 0 of each size in lexicographic order, meets it
    as the first set of least boundary.  The walk is the branch-and-bound
    of the module docstring.
    """
    ground = _ground_set(group)
    wanted = set()
    for n in sizes:  # checked as read, so a long range stops at its first refusal
        if n < 1:
            raise PreconditionViolated("profile sizes must be >= 1")
        if not admissible(group, n):
            raise PreconditionViolated(
                f"profile sizes must satisfy n < Card(group)/2 = {len(ground)}/2, got n = {n}"
            )
        wanted.add(n)
    if not wanted:
        raise PreconditionViolated("profile sizes must be >= 1")
    wanted = sorted(wanted)
    top = wanted[-1]
    # least[k]: the least boundary seen at size k.  A boundary is below the
    # order, so the first set of a wanted size always improves on it; -1
    # marks the sizes not asked for, which no boundary improves on.
    least = [-1] * (top + 1)
    for n in wanted:
        least[n] = len(ground)
    # ceiling[s]: the largest least[j] + j over wanted j > s (0 if none).
    # A set of size s and boundary b has a descendant of size j with
    # boundary below least[j] only if b + s < least[j] + j.
    # locked_ceiling[s]: the largest least[j] over wanted j > s (0 if none).
    # Every descendant of size j keeps the locked points L, so it has a
    # boundary below least[j] only if L < least[j].
    ceiling = [0] * (top + 1)
    locked_ceiling = [0] * (top + 1)

    def lower_ceiling() -> None:
        bar = locked = 0
        for s in range(top, 0, -1):
            if least[s] >= 0:
                bar = max(bar, least[s] + s)
                locked = max(locked, least[s])
            ceiling[s - 1] = bar
            locked_ceiling[s - 1] = locked

    lower_ceiling()
    index = {e: i for i, e in enumerate(ground)}
    reach = [0] * len(ground)  # reach[i]: the bitmask of the positions s * ground[i]
    for i, e in enumerate(ground):
        for s in group.generating_set:
            reach[i] |= 1 << index[group.mul(s, e)]
    witnesses: dict[int, tuple[int, ...]] = {}
    for positions, size, boundary in anchored_subset_steps(
        reach, top, ceiling=ceiling, locked_ceiling=locked_ceiling
    ):
        if boundary < least[size]:
            least[size] = boundary
            witnesses[size] = tuple(positions)
            lower_ceiling()
    rows = []
    for n in wanted:
        boundary = least[n]
        witness = FiniteSubset.from_iterable(
            group,
            [ground[i] for i in witnesses[n]],
            provenance=f"profile:{group.name}:n={n}",
        )
        bound = Fraction(n, 2 * phi(group, 2 * n))
        rows.append(ProfileRow(size=n, min_boundary=boundary, witness=witness, bound=bound))
    return rows


class SharpnessSummary:
    """Per-set sharpness factors (lhs/rhs of the strict bound) of at least
    one report, and their minimum and median, all exact."""

    def __init__(self, reports: tuple[VerificationReport, ...]):
        self.reports = reports
        self.entries = tuple((r.set_descriptor, r.sharpness) for r in reports)
        factors = sorted(f for _, f in self.entries)
        mid = len(factors) // 2
        self.min_factor = factors[0]
        self.median_factor = (
            factors[mid] if len(factors) % 2 else (factors[mid - 1] + factors[mid]) / 2
        )

    def to_json_dict(self) -> dict:
        mn, md = self.min_factor, self.median_factor
        return {
            "trials": [
                {"set": name, "factor_num": f.numerator, "factor_den": f.denominator}
                for name, f in self.entries
            ],
            "min_num": mn.numerator,
            "min_den": mn.denominator,
            "median_num": md.numerator,
            "median_den": md.denominator,
        }


def sharpness_of_subsets(
    group: Group,
    subsets: Iterable[FiniteSubset],
    *,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> SharpnessSummary:
    """Exact sharpness factor of the strict bound on each given set."""
    reports = tuple(verify_theorem(group, subset, ball_cap=ball_cap) for subset in subsets)
    if not reports:
        raise PreconditionViolated("sharpness scan needs at least one set")
    return SharpnessSummary(reports=reports)


def interval_subsets(group: Group, lo: int, hi: int) -> Iterator[FiniteSubset]:
    """Stream the intervals {0, ..., n-1}, n = lo..hi, of the rank-1 integer
    lattice (sorted, so trusted), each with provenance `interval:<n>`, the
    descriptor of it alone; the arguments are checked at the call."""
    if not (isinstance(group, ZGroup) and group.rank == 1):
        raise PreconditionViolated("interval family is defined on the group z only")
    if lo < 1:
        raise PreconditionViolated("interval sizes must be >= 1")
    return (
        FiniteSubset(group, tuple((i,) for i in range(n)), f"interval:{n}")
        for n in range(lo, hi + 1)
    )
