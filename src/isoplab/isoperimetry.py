"""Boundaries, translation displacement, ball smoothing, and exact verifiers.

Every check in this module is exact: counts are integers, ratios are
`fractions.Fraction`, and verdicts are decided by integer or rational
comparison only.  Floating point never touches a verdict path, because the
headline inequality is strict and a rounding error could flip it.

Boundary conventions.  The word metric is right-invariant, so its unit
steps are left multiplications by generators:

    outer boundary        (S*D) \\ D   =  {a : dist(a, D) = 1}
    inner boundary, right {x in D : some x*s outside D}
    inner boundary, left  {x in D : some s*x outside D}

The right inner boundary is the one appearing in the classical volume
lower bound; the left one is the one that trivially dominates the outer
boundary.  boundary_comparison computes and reports both rather than
guessing which convention a consumer wants.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import InternalContradiction, PreconditionViolated
from .groups import Element, Group
from .metric import DEFAULT_BALL_CAP, ball, geodesic_word, minimal_d, phi

class FiniteSubset:
    """A finite set D of canonical elements, sorted and duplicate-free.

    The constructor trusts that `elements` is a tuple of valid, distinct
    elements in `group.sort_key` order; `from_iterable` validates, dedups
    and sorts input from outside.  `member_set` is built with the set: a
    cached_property would take its lock on each subset's first read."""

    def __init__(self, group: Group, elements: tuple[Element, ...], provenance: str):
        self.group, self.elements, self.provenance = group, elements, provenance
        self.member_set = frozenset(elements)

    @classmethod
    def from_iterable(cls, group: Group, elems: Iterable[Element], provenance: str) -> "FiniteSubset":
        unique = dict.fromkeys(elems)  # validated before sorting: other types may not compare
        for e in unique:
            group.validate(e)
        return cls(group, tuple(sorted(unique, key=group.sort_key)), provenance)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Element) -> bool:
        return e in self.member_set


class VerificationReport:
    """Exact record of one check: both sides, the relation the check asks of
    them ("=", ">", ">=" or "<="), the verdict, and enough extra integers to
    recompute the verdict from the report alone."""

    def __init__(
        self, kind: str, group: str, set_descriptor: str, lhs: Fraction, rhs: Fraction,
        verdict: bool, relation: str, d: Optional[int] = None, gamma0: Optional[str] = None,
        extra: Optional[dict] = None,
    ):
        self.kind, self.group, self.set_descriptor = kind, group, set_descriptor
        self.lhs, self.rhs, self.verdict, self.relation = lhs, rhs, verdict, relation
        self.d, self.gamma0, self.extra = d, gamma0, {} if extra is None else extra

    @property
    def strict(self) -> bool:
        return self.relation == ">"

    @property
    def sharpness(self) -> Optional[Fraction]:
        if self.rhs == 0:
            return None
        return self.lhs / self.rhs

    def to_json_dict(self) -> dict:
        sharp = self.sharpness
        out = {
            "kind": self.kind,
            "group": self.group,
            "set_descriptor": self.set_descriptor,
            "lhs_num": self.lhs.numerator,
            "lhs_den": self.lhs.denominator,
            "rhs_num": self.rhs.numerator,
            "rhs_den": self.rhs.denominator,
            "verdict": "holds" if self.verdict else "fails",
            "strict": self.strict,
            "sharpness_num": None if sharp is None else sharp.numerator,
            "sharpness_den": None if sharp is None else sharp.denominator,
        }
        if self.d is not None:
            out["d"] = self.d
        if self.gamma0 is not None:
            out["gamma0"] = self.gamma0
        if self.extra:
            out["extra"] = dict(self.extra)  # canonical_json sorts its keys
        return out


# json.dumps with these settings would build a new encoder on every call
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """The one JSON encoding of every machine-readable line: sorted keys,
    no spaces.  Report lines, the CLI's records and the determinism stream
    all use it, so their bytes agree."""
    return _CANONICAL_ENCODER.encode(obj)


class TransportEntry(NamedTuple):
    """One moved point x with its origin in D and its boundary image."""

    moved: Element      # x in gD \ D
    origin: Element     # g^-1 * x, a point of D
    hit_index: int      # maximal n in 1..k with s_n...s_1*origin on the boundary
    image: Element      # f(x) = s_{hit_index}...s_1*origin


class TransportMapRecord:
    """The geodesic transport map f : gD \\ D -> outer boundary of D."""

    def __init__(
        self, group: Group, gamma0: Element, word: tuple[int, ...], subset: FiniteSubset,
        entries: tuple[TransportEntry, ...], boundary_size: int,
    ):
        self.group, self.gamma0, self.word, self.subset = group, gamma0, word, subset
        self.entries = entries
        self.boundary_size = boundary_size  # Card(outer boundary of D)

    @property
    def length(self) -> int:
        return len(self.word)

    def max_preimage(self) -> int:
        """The most entries that share one boundary image."""
        return max(Counter(entry.image for entry in self.entries).values(), default=0)


def _require_non_empty(group: Group, D: FiniteSubset) -> None:
    """Every verifier's entry check: D is a non-empty subset of this group."""
    if D.group is not group and D.group != group:  # `is`: no __eq__ call on the usual path
        raise PreconditionViolated(f"D is a subset of {D.group.name}, not of {group.name}")
    if not D.elements:
        raise PreconditionViolated("D must be non-empty")


def admissible(group: Group, n: int) -> bool:
    """Whether sets of n elements are admissible for the strict bound: 2n < Card(group)."""
    order = group.order()
    return order is None or 2 * n < order


def _require_admissible(group: Group, D: FiniteSubset) -> None:
    _require_non_empty(group, D)
    if not admissible(group, len(D)):
        raise PreconditionViolated(
            f"need Card(D) < Card(group)/2: Card(D)={len(D)}, Card(group)={group.order()}"
        )


def _outer_boundary_set(group: Group, D: FiniteSubset) -> set:
    """(S*D) \\ D as a plain set, for callers that need its members or size."""
    mul = group.mul
    members = D.member_set
    out = set()
    for s in group.generating_set:
        for x in D.elements:
            h = mul(s, x)
            if h not in members:
                out.add(h)
    return out


def outer_boundary(group: Group, D: FiniteSubset) -> FiniteSubset:
    """(S*D) \\ D: the elements at distance exactly 1 from D."""
    _require_non_empty(group, D)
    out = tuple(sorted(_outer_boundary_set(group, D), key=group.sort_key))
    return FiniteSubset(group, out, f"outer({D.provenance})")


def inner_boundary_right(group: Group, D: FiniteSubset) -> FiniteSubset:
    """{x in D : some x*s lies outside D}, in the order of D."""
    _require_non_empty(group, D)
    mul, members, gens = group.mul, D.member_set, group.generating_set
    inner = tuple(x for x in D.elements if any(mul(x, s) not in members for s in gens))
    return FiniteSubset(group, inner, f"inner_r({D.provenance})")


def inner_boundary_left(group: Group, D: FiniteSubset) -> FiniteSubset:
    """{x in D : some s*x lies outside D}, in the order of D."""
    _require_non_empty(group, D)
    mul, members, gens = group.mul, D.member_set, group.generating_set
    inner = tuple(x for x in D.elements if any(mul(s, x) not in members for s in gens))
    return FiniteSubset(group, inner, f"inner_l({D.provenance})")


def translate(group: Group, x: Element, D: FiniteSubset) -> FiniteSubset:
    """Left translate xD = {x*d : d in D}."""
    group.validate(x)
    mul = group.mul
    return FiniteSubset.from_iterable(
        group,
        (mul(x, d) for d in D.elements),
        provenance=f"{group.format(x)}*({D.provenance})",
    )


def displacement(group: Group, x: Element, D: FiniteSubset) -> int:
    """Card(xD \\ D): how much of D the left translation by x moves out."""
    mul = group.mul
    members = D.member_set
    return sum(1 for d in D.elements if mul(x, d) not in members)


def smoothed_density(
    group: Group, D: FiniteSubset, d: int, y: Element, *, ball_cap: int = DEFAULT_BALL_CAP
) -> Fraction:
    """Ball-average of the indicator of D at y: |D n B(y, d)| / |B(e, d)|.

    B(y, d) is enumerated as {x*y : x in B(e, d)} (right-invariance of the
    metric); the averaging kernel vanishes outside the ball, so restricting
    the defining sum to B(y, d) is an identity, not an approximation.
    """
    _require_non_empty(group, D)
    group.validate(y)
    table = ball(group, d, ball_cap=ball_cap)
    mul = group.mul
    members = D.member_set
    count = sum(1 for x in table.elements() if mul(x, y) in members)
    return Fraction(count, table.size)


def _word_levels(group: Group, depth: int) -> list[set]:
    """L_0 = {e} and L_n = {s*x : x in L_(n-1), s in S} less every earlier
    level, the elements of word length n, for n <= depth up to the first
    empty level: plain multiplication, independent of metric's BFS tables."""
    mul, gens = group.mul, group.generating_set
    levels = [{group.identity()}]
    seen = set(levels[0])
    for _ in range(depth):
        level = {mul(s, x) for x in levels[-1] for s in gens} - seen
        if not level:
            break
        seen |= level
        levels.append(level)
    return levels


def lemma31_check(
    group: Group, D: FiniteSubset, d: int, *, ball_cap: int = DEFAULT_BALL_CAP
) -> VerificationReport:
    """Exact three-way identity behind the smoothing argument.

    Computes, by three separate routes,

        A = |B(e,d)| * sum over y in D of (1 - value of the smoothed density at y)
        B = sum over y in D of |B(y,d) \\ D|
        C = sum over x in B(e,d) of |xD \\ D|

    and reports whether A = B = C as integers; A's terms are |B(e,d)| - count(y).
    A and C run over the BFS table of metric.ball, and B over the union of
    the word levels of _word_levels, so a wrong table shows as B != A = C.
    The table comes first, so an infinite group meets ball_cap before the
    word levels grow.
    """
    _require_non_empty(group, D)
    table = ball(group, d, ball_cap=ball_cap)
    word_ball = set().union(*_word_levels(group, d))
    mul = group.mul
    members = D.member_set

    # count(y) = |D n B(y, d)|, the smoothed density at y times |B(e, d)|
    a_value = table.size * len(D) - sum(
        sum(1 for x in table.elements() if mul(x, y) in members) for y in D.elements
    )

    b_value = sum(
        sum(1 for x in word_ball if mul(x, y) not in members) for y in D.elements
    )

    c_value = sum(displacement(group, x, D) for x in table.elements())

    return VerificationReport(
        kind="lemma31",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=Fraction(a_value),
        rhs=Fraction(c_value),
        verdict=(a_value == b_value == c_value),
        relation="=",
        d=d,
        extra={"mid_b": b_value, "ball_size": table.size, "set_size": len(D)},
    )


def half_mass_witness(
    group: Group, D: FiniteSubset, *, ball_cap: int = DEFAULT_BALL_CAP
) -> tuple[Element, VerificationReport]:
    """Find x in B(e, d) with Card(xD \\ D) > Card(D)/2, for the least d with
    gamma(d) > 2 Card(D).  Returns x and the report, whose d, lhs and rhs
    are d, Card(xD \\ D) and Card(D)/2.

    The witness maximizes displacement, with ties broken by minimal word
    length and then minimal canonical order: the ball is scanned in layer
    order, canonical within each layer, and only a strictly greater
    displacement replaces the best so far.  The scan is an exact
    branch-and-bound on that rule.  It counts the points y of D with x*y
    still in D and drops x as soon as that count shows x cannot be the
    witness; it stops at the first x that moves all of D.  Two facts make
    the drops exact:

    - Card(xD \\ D) = Card(x^-1 D \\ D), since y -> x*y maps D \\ x^-1 D onto
      xD \\ D and x^-1 D has Card(D) points; and x^-1 has the word length
      of x, since S is symmetric.  Within one layer the canonical order
      is plain order (see groups), so when x^-1 < x the scan has already
      counted x^-1, and x cannot beat it strictly: x is skipped unread.
    - Before the scan, one translate of the outermost layer is counted in
      full; call its displacement b0.  The maximum is at least b0, so an x
      that moves fewer than b0 points is not the witness, and neither is
      one that moves no more than the best so far.  So x is dropped once
      n - max(best, b0 - 1) of its points stay.

    Neither drop ever discards the first maximizer.  The points y of D are
    counted centre first: by word length, ties in canonical order, with
    the points outside B(e, d) last.  Every order counts the same stays
    and reaches the same stay limit, so the order changes no decision; but
    a central point stays in D under most translates, so a losing x meets
    its limit sooner.  Averaging guarantees a strict witness exists
    whenever Card(D) < Card(group)/2.
    """
    _require_admissible(group, D)
    n = len(D)
    d, table = minimal_d(group, 2 * n, ball_cap=ball_cap)
    mul = group.mul
    inv = group.inv
    members = D.member_set
    elements = sorted(  # stable: canonical order within each length
        D.elements, key=lambda y: table.layer_of(y) if y in table else d + 1
    )
    floor = displacement(group, table.layer(d)[0], D) - 1
    best_x = None
    best_disp = -1
    for x in table.elements():  # layer order, canonical within each layer
        if inv(x) < x:
            continue
        stay_limit = n - max(best_disp, floor)
        stay = 0
        for y in elements:
            if mul(x, y) in members:
                stay += 1
                if stay == stay_limit:
                    break
        else:
            best_disp = n - stay
            best_x = x
            if best_disp == n:
                break
    threshold = Fraction(n, 2)
    report = VerificationReport(
        kind="half_mass",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=Fraction(best_disp),
        rhs=threshold,
        verdict=Fraction(best_disp) > threshold,
        relation=">",
        d=d,
        extra={
            "witness": group.format(best_x),
            "witness_length": table.layer_of(best_x),
            "ball_size": table.size,
            "set_size": n,
        },
    )
    return best_x, report


def transport_map(
    group: Group, gamma0: Element, D: FiniteSubset, *, ball_cap: int = DEFAULT_BALL_CAP
) -> TransportMapRecord:
    """Map every moved point x in gamma0*D \\ D to the first outer-boundary
    point on the geodesic path from x back to its origin in D.

    The path points are p_n = s_n...s_1*origin for a fixed geodesic word
    (s_1, ..., s_k) of gamma0; the hit index is the maximal n with p_n on
    the outer boundary, the last hit of one forward walk n = 1..k.  That
    p_k = x and totality (some p_n lies on the boundary) are asserted, not
    assumed.
    """
    group.validate(gamma0)
    _require_non_empty(group, D)
    if gamma0 == group.identity():
        raise PreconditionViolated("gamma0 must have word length >= 1")
    word = geodesic_word(group, gamma0, ball_cap=ball_cap)
    gens = group.generating_set
    mul = group.mul
    members = D.member_set
    boundary = _outer_boundary_set(group, D)

    gamma0_inv = group.inv(gamma0)
    moved = sorted(
        (h for h in (mul(gamma0, x) for x in D.elements) if h not in members),
        key=group.sort_key,
    )
    entries = []
    for x in moved:
        origin = mul(gamma0_inv, x)
        if origin not in members:
            raise InternalContradiction("moved point does not come from D")
        p = origin
        hit = 0
        for n, i in enumerate(word, 1):
            p = mul(gens[i], p)
            if p in boundary:
                hit, image = n, p
        if p != x:
            raise InternalContradiction("geodesic word does not reproduce gamma0")
        if hit == 0:
            raise InternalContradiction(
                f"no path point from {group.format(x)} lies on the outer boundary"
            )
        entries.append(TransportEntry(moved=x, origin=origin, hit_index=hit, image=image))
    return TransportMapRecord(
        group=group,
        gamma0=gamma0,
        word=word,
        subset=D,
        entries=tuple(entries),
        boundary_size=len(boundary),
    )


def preimage_bound_check(record: TransportMapRecord, d: int) -> VerificationReport:
    """Every boundary point absorbs at most d preimages (and at most k)."""
    k = record.length
    if k > d:
        raise PreconditionViolated(f"need ||gamma0|| <= d, got {k} > {d}")
    max_count = record.max_preimage()
    group = record.group
    return VerificationReport(
        kind="preimage_bound",
        group=group.name,
        set_descriptor=record.subset.provenance,
        lhs=Fraction(max_count),
        rhs=Fraction(d),
        verdict=max_count <= d,
        relation="<=",
        d=d,
        gamma0=group.format(record.gamma0),
        extra={
            "word_length": k,
            "max_le_word_length": max_count <= k,
            "moved_count": len(record.entries),
        },
    )


def displacement_bound_check(record: TransportMapRecord, d: int) -> VerificationReport:
    """Card(gamma0*D \\ D) <= d * Card(outer boundary), plus the sharper
    bound with d replaced by ||gamma0||.  Left translation is injective, so
    the moved points of the record are exactly gamma0*D \\ D."""
    k = record.length
    if k > d:
        raise PreconditionViolated(f"need ||gamma0|| <= d, got {k} > {d}")
    moved = len(record.entries)
    boundary_size = record.boundary_size
    group = record.group
    return VerificationReport(
        kind="displacement_bound",
        group=group.name,
        set_descriptor=record.subset.provenance,
        lhs=Fraction(moved),
        rhs=Fraction(d * boundary_size),
        verdict=moved <= d * boundary_size,
        relation="<=",
        d=d,
        gamma0=group.format(record.gamma0),
        extra={
            "word_length": k,
            "boundary_size": boundary_size,
            "k_times_boundary": k * boundary_size,
            "holds_at_word_length": moved <= k * boundary_size,
        },
    )


def verify_theorem(
    group: Group, D: FiniteSubset, *, ball_cap: int = DEFAULT_BALL_CAP
) -> VerificationReport:
    """Strict boundary-to-volume bound:

        Card(outer boundary) / Card(D)  >  1 / (2 * phi(2 * Card(D))).
    """
    _require_admissible(group, D)
    n = len(D)
    boundary_size = len(_outer_boundary_set(group, D))
    radius = phi(group, 2 * n, ball_cap=ball_cap)
    lhs = Fraction(boundary_size, n)
    rhs = Fraction(1, 2 * radius)
    return VerificationReport(
        kind="theorem",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=lhs,
        rhs=rhs,
        verdict=lhs > rhs,
        relation=">",
        extra={"phi": radius, "boundary_size": boundary_size, "set_size": n},
    )


def verify_csc(
    group: Group, D: FiniteSubset, *, ball_cap: int = DEFAULT_BALL_CAP
) -> VerificationReport:
    """Classical non-strict volume bound for the right inner boundary:

        Card(inner_r) / Card(D)  >=  1 / (4 * Card(S) * phi(2 * Card(D))).
    """
    _require_admissible(group, D)
    n = len(D)
    inner_size = len(inner_boundary_right(group, D))
    card_s = len(group.generating_set)
    radius = phi(group, 2 * n, ball_cap=ball_cap)
    lhs = Fraction(inner_size, n)
    rhs = Fraction(1, 4 * card_s * radius)
    return VerificationReport(
        kind="csc",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=lhs,
        rhs=rhs,
        verdict=lhs >= rhs,
        relation=">=",
        extra={"phi": radius, "inner_right_size": inner_size, "card_s": card_s, "set_size": n},
    )


def boundary_comparison(group: Group, D: FiniteSubset) -> VerificationReport:
    """Compare the outer boundary against Card(S) times each inner boundary.

    The primary verdict is the left-convention comparison
    Card(outer) <= Card(S) * Card(inner_l), which holds unconditionally;
    the right-convention comparison is recorded in extra so violations can
    be surfaced as findings without failing a run.
    """
    _require_non_empty(group, D)
    outer_size = len(_outer_boundary_set(group, D))
    left_size = len(inner_boundary_left(group, D))
    right_size = len(inner_boundary_right(group, D))
    card_s = len(group.generating_set)
    lhs = Fraction(outer_size)
    rhs = Fraction(card_s * left_size)
    return VerificationReport(
        kind="boundary_cmp",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=lhs,
        rhs=rhs,
        verdict=outer_size <= card_s * left_size,
        relation="<=",
        extra={
            "card_s": card_s,
            "outer_size": outer_size,
            "inner_left_size": left_size,
            "inner_right_size": right_size,
            "rhs_right": card_s * right_size,
            "right_holds": outer_size <= card_s * right_size,
        },
    )
