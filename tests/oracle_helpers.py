"""Independent oracle implementations used to cross-check the library.

Everything here deliberately avoids the library's BFS tables and boundary
formulas: balls come from brute enumeration of generator words, distances
from iterative-deepening word search, and the unitriangular product from
literal 3x3 integer matrix multiplication.  The connected sampler's oracle
is the straightforward version that rebuilds and re-sorts its frontier
after every pick; it shares only the SplitMix64 stream with the library.
The Gray-walk oracle visits all 2^N subsets in binary-reflected Gray-code
order and keeps each outer-boundary size up to date from per-element
covering counts, as the `exhaustive:` stream did before it learned to skip
the masks outside its size range.  The profile's oracle reads it and breaks
boundary ties by comparing position tuples, without the anchoring argument.
The displacement bound's oracle counts gamma0*D \\ D and the outer boundary
from scratch instead of reading them off the transport record.  The
half-mass oracle computes every displacement in the ball in full, without
the pruning and early stop of the library's scan.  The metric oracles run a
fresh BFS for every query and walk stored parent links, as the library did
before it kept one growth table per group; they sort each layer by
`encoding_order_key`, the canonical order's key as it was first defined.
The free group's product oracle is the seam-cancelling loop without the
no-cancellation fast path, on words of letter codes; `BytesFreeGroup`
keeps the whole free group as it was when words were those codes as
`bytes`, with a shortlex `sort_key`, and `free_word_codes` and
`free_word_int` map its words to FreeGroup's ints and back.  The lemma
3.1 oracle computes route A with one `Fraction` per point, as the library
did before it summed integer counts.
"""

from fractions import Fraction
from itertools import product

from isoplab import (
    BudgetExceeded,
    CyclicGroup,
    FiniteSubset,
    FreeGroup,
    Group,
    InternalContradiction,
    ParseError,
    PreconditionViolated,
    ProfileRow,
    SplitMix64,
    Unattainable,
    VerificationReport,
    ball,
    displacement,
    enumerate_group,
    minimal_d,
    phi,
    word_length,
)
from isoplab.groups import FREE_LETTERS


def encoding_order_key(group):
    """Key function of the canonical order as first defined: (len(enc), enc),
    where enc is the element's tuple encoding, (e,) for a residue, and a free
    word's tuple of letter codes, decoded from its digits."""
    if isinstance(group, CyclicGroup):
        return lambda e: (1, (e,))
    if isinstance(group, FreeGroup):
        rank = group.rank

        def key(e):
            codes = tuple(free_word_codes(rank, e))
            return (len(codes), codes)

        return key
    return lambda e: (len(e), e)


def word_ball(group, radius):
    """All products of at most `radius` generators, by brute word enumeration."""
    gens = group.generating_set
    seen = {group.identity()}
    for n in range(1, radius + 1):
        for word in product(gens, repeat=n):
            acc = group.identity()
            for s in word:
                acc = group.mul(s, acc)
            seen.add(acc)
    return seen


def word_length_by_enumeration(group, g, max_depth):
    """Minimal n such that some product of n generators equals g; None if
    nothing within max_depth reaches it."""
    if g == group.identity():
        return 0
    gens = group.generating_set
    mul = group.mul

    def reaches(cur, remaining):
        if remaining == 0:
            return cur == g
        return any(reaches(mul(s, cur), remaining - 1) for s in gens)

    for n in range(1, max_depth + 1):
        if reaches(group.identity(), n):
            return n
    return None


def free_mul_by_loop(a, b, rank):
    """Product of two reduced words of free:rank: cancel each pair of
    inverse codes (they sum to 2*rank + 1) at the seam, one pair per step,
    then concatenate what is left."""
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] + b[j] == 2 * rank + 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def free_word_codes(rank, e):
    """The letter codes c1 ... cn of the free:rank word e, first letter
    first, read from e's digits: code c is digit c - 1 (BytesFreeGroup's
    encoding of the same word is bytes of these codes)."""
    bits = (2 * rank - 1).bit_length()
    n, extra = divmod(e.bit_length() - 1, bits)
    assert e >= 1 and extra == 0, e
    return bytes((e >> (bits * (n - 1 - i)) & ((1 << bits) - 1)) + 1 for i in range(n))


def free_word_int(rank, codes):
    """The int of the free:rank word with letter codes c1 ... cn: a marker
    bit, then the digit c - 1 of each letter, first letter highest."""
    bits = (2 * rank - 1).bit_length()
    return sum((c - 1) << (bits * (len(codes) - 1 - i)) for i, c in enumerate(codes)) | (
        1 << (bits * len(codes))
    )


class BytesFreeGroup(Group):
    """Free group of given rank; elements are reduced words.

    The reference encoding that FreeGroup's ints replaced, kept verbatim:
    a word is a `bytes` string of letter codes with no adjacent inverse
    pair: letter i in 1..rank is code rank + i and its inverse ~i is code
    rank + 1 - i.  So a code and its inverse sum to 2*rank + 1, and the
    codes keep the letter order ~rank < ... < ~1 < 1 < ... < rank.  Its
    canonical order is shortlex, through its own `sort_key`.
    """

    bipartite = True  # word length mod 2

    def __init__(self, rank: int):
        if rank < 1:
            raise ParseError(f"free rank must be >= 1, got {rank}")
        if rank > len(FREE_LETTERS):
            raise ParseError(
                f"free rank above {len(FREE_LETTERS)} is not supported by the letter grammar"
            )
        self.rank = rank
        self.name = f"free:{rank}"
        self._pair = 2 * rank + 1  # the sum of a code and its inverse's
        inverse = bytearray(range(256))
        letters = bytearray(range(256))
        for i, ch in enumerate(FREE_LETTERS[:rank], 1):
            inverse[rank + i], inverse[rank + 1 - i] = rank + 1 - i, rank + i
            letters[rank + i], letters[rank + 1 - i] = ord(ch), ord(ch.upper())
        self._inverse_table = bytes(inverse)  # bytes.translate tables
        self._letter_table = bytes(letters)

    def identity(self):
        return b""

    def mul(self, a, b):
        pair = self._pair
        if not a or not b or a[-1] + b[0] != pair:
            return a + b  # nothing cancels
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] + b[j] == pair:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return a[::-1].translate(self._inverse_table)

    def sort_key(self, e):
        """Shortlex: by length, then naturally."""
        return (len(e), e)

    def order(self):
        return None

    def validate(self, e):
        if not isinstance(e, bytes):
            raise ParseError(f"{self.name}: need a word of letter codes (bytes), got {e!r}")
        if e and not (0 < min(e) and max(e) < self._pair):
            raise ParseError(f"{self.name}: word {e!r} has a code outside 1..{self._pair - 1}")
        for x, y in zip(e, e[1:]):
            if x + y == self._pair:
                raise ParseError(f"{self.name}: word {self.format(e)!r} is not reduced")

    def generator_tokens(self):
        rank = self.rank
        letters = FREE_LETTERS[:rank]
        return {
            "e": b"",
            **{ch: bytes((rank + i,)) for i, ch in enumerate(letters, 1)},
            **{ch.upper(): bytes((rank + 1 - i,)) for i, ch in enumerate(letters, 1)},
        }

    def parse(self, text):
        return self.parse_word(text)  # reduced as it is read

    def format(self, e):
        return e.translate(self._letter_table).decode() if e else "e"

    @property
    def key(self):
        """Not FreeGroup's key: the metric caches one table per key."""
        return "bytes-" + self.name


def naive_outer_boundary(group, members):
    """(S*D) \\ D computed from scratch on a plain set."""
    out = set()
    for s in group.generating_set:
        for x in members:
            h = group.mul(s, x)
            if h not in members:
                out.add(h)
    return out


def naive_inner_boundary(group, members, side):
    """Inner boundary on a plain set; side is "left" (s*x) or "right" (x*s)."""
    gens = group.generating_set
    out = set()
    for x in members:
        for s in gens:
            h = group.mul(s, x) if side == "left" else group.mul(x, s)
            if h not in members:
                out.add(x)
                break
    return out


def unitriangular_matmul(p, q):
    """Multiply two 3x3 upper unitriangular integer matrices given as
    (a, b, c) encoding [[1, a, c], [0, 1, b], [0, 0, 1]]."""
    mp = [[1, p[0], p[2]], [0, 1, p[1]], [0, 0, 1]]
    mq = [[1, q[0], q[2]], [0, 1, q[1]], [0, 0, 1]]
    out = [[sum(mp[i][k] * mq[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert out[0][0] == out[1][1] == out[2][2] == 1 and out[1][0] == out[2][0] == out[2][1] == 0
    return (out[0][1], out[1][2], out[0][2])


def sample_connected_by_resort(group, desc, *, ball_cap):
    """The connected random set of a `random:<size>:<seed>` descriptor,
    re-sorting the whole frontier by `encoding_order_key` after every pick;
    a set that must hold more than ball_cap elements is refused before the
    first pick."""
    mul = group.mul
    gens = group.generating_set
    rng = SplitMix64(desc.seed)
    order = group.order()
    need = desc.size if order is None else min(desc.size, order)
    if need > ball_cap:
        raise BudgetExceeded(
            f"{group.name}: {desc.text} needs {need} elements, above cap {ball_cap}",
            size=need,
            cap=ball_cap,
        )
    members = {group.identity()}
    key = encoding_order_key(group)
    frontier = sorted({mul(s, group.identity()) for s in gens} - members, key=key)
    while len(members) < desc.size:
        if not frontier:
            raise PreconditionViolated(
                f"random size {desc.size} exceeds group size {len(members)}"
            )
        pick = frontier[rng.below(len(frontier))]
        members.add(pick)
        grown = {mul(s, pick) for s in gens}
        frontier = sorted((set(frontier) | grown) - members, key=key)
        if len(members) + len(frontier) > ball_cap:
            raise BudgetExceeded(
                f"{group.name}: connected sample outgrew cap {ball_cap}",
                size=len(members) + len(frontier),
                cap=ball_cap,
            )
    return FiniteSubset.from_iterable(group, members, provenance=desc.text)


def gray_walk_with_boundaries(group, ground):
    """Walk all subsets of a finite group in Gray-code order, from the empty
    set: yield (mask, size, outer_boundary_size) with bit i of the mask for
    ground[i].  Each step flips one bit and updates the boundary size from
    covered[z], the number of members y with z = s*y."""
    n = len(ground)
    index = {e: i for i, e in enumerate(ground)}
    neighbors = [[index[group.mul(s, e)] for s in group.generating_set] for e in ground]
    covered = [0] * n
    in_d = [False] * n
    size = 0
    boundary = 0
    yield (0, 0, 0)
    for i in range(1, 1 << n):
        bit = ((i ^ (i >> 1)) ^ ((i - 1) ^ ((i - 1) >> 1))).bit_length() - 1
        if in_d[bit]:
            in_d[bit] = False
            size -= 1
            if covered[bit] > 0:
                boundary += 1
            for z in neighbors[bit]:
                covered[z] -= 1
                if covered[z] == 0 and not in_d[z]:
                    boundary -= 1
        else:
            in_d[bit] = True
            size += 1
            if covered[bit] > 0:
                boundary -= 1
            for z in neighbors[bit]:
                if covered[z] == 0 and not in_d[z]:
                    boundary += 1
                covered[z] += 1
        yield (i ^ (i >> 1), size, boundary)


def profile_by_gray_walk(group, sizes):
    """Exhaustive profile rows over all 2^N subsets: for each size, the least
    boundary and, among sets with it, the least ascending position tuple."""
    wanted = sorted(set(sizes))
    ground = enumerate_group(group)

    def positions(mask):
        return tuple(i for i in range(len(ground)) if mask >> i & 1)

    best = {}
    for mask, size, boundary in gray_walk_with_boundaries(group, ground):
        if size not in wanted:
            continue
        cur = best.get(size)
        if cur is None or boundary < cur[0] or (
            boundary == cur[0] and positions(mask) < positions(cur[1])
        ):
            best[size] = (boundary, mask)
    rows = []
    for n in wanted:
        boundary, mask = best[n]
        witness = FiniteSubset.from_iterable(
            group, [ground[i] for i in positions(mask)], provenance=f"profile:{group.name}:n={n}"
        )
        bound = Fraction(n, 2 * phi(group, 2 * n))
        rows.append(ProfileRow(size=n, min_boundary=boundary, witness=witness, bound=bound))
    return rows


def displacement_bound_by_direct_count(group, gamma0, D, d):
    """The displacement-bound report from a fresh word length, a direct
    count of gamma0*D \\ D and a naive outer boundary."""
    k = word_length(group, gamma0)
    if k > d:
        raise PreconditionViolated(f"need ||gamma0|| <= d, got {k} > {d}")
    members = set(D.elements)
    moved = sum(1 for x in D.elements if group.mul(gamma0, x) not in members)
    boundary_size = len(naive_outer_boundary(group, members))
    return VerificationReport(
        kind="displacement_bound",
        group=group.name,
        set_descriptor=D.provenance,
        lhs=Fraction(moved),
        rhs=Fraction(d * boundary_size),
        verdict=moved <= d * boundary_size,
        relation="<=",
        d=d,
        gamma0=group.format(gamma0),
        extra={
            "word_length": k,
            "boundary_size": boundary_size,
            "k_times_boundary": k * boundary_size,
            "holds_at_word_length": moved <= k * boundary_size,
        },
    )


def half_mass_by_full_scan(group, D):
    """The half-mass witness x and report from the full scan: displacement(x, D)
    for every x of the ball, in scan order, keeping the first greatest."""
    order = group.order()
    if not D.elements:
        raise PreconditionViolated("D must be non-empty")
    if order is not None and 2 * len(D) >= order:
        raise PreconditionViolated(
            f"need Card(D) < Card(group)/2: Card(D)={len(D)}, Card(group)={order}"
        )
    n = len(D)
    d, table = minimal_d(group, 2 * n)
    best_x = None
    best_disp = -1
    for x in table.elements():
        disp = displacement(group, x, D)
        if disp > best_disp:
            best_disp = disp
            best_x = x
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


def grow_with_parents(group, done, *, ball_cap):
    """Uncached layered BFS from the identity.

    Adds completed layers until done(layers, depth) holds or the group is
    exhausted, and returns (layers, parent, depth); parent maps each
    non-identity element to (generator index, predecessor) with
    element = s * predecessor, recorded where BFS first reaches it.  Raises
    BudgetExceeded as soon as the ball holds ball_cap + 1 elements (at once
    for a ball_cap below 1).
    """
    gens = group.generating_set
    mul = group.mul
    e = group.identity()
    depth = {e: 0}
    if ball_cap < 1:
        raise BudgetExceeded(
            f"{group.name}: ball outgrew cap {ball_cap} at radius 0", size=1, cap=ball_cap
        )
    parent = {}
    layers = [(e,)]
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
        frontier.sort(key=encoding_order_key(group))
        layers.append(tuple(frontier))
    return layers, parent, depth


def oracle_ball(group, radius, *, ball_cap):
    """(layers padded to radius + 1, parent, depth) of B(e, radius)."""
    layers, parent, depth = grow_with_parents(
        group, lambda layers, depth: len(layers) > radius, ball_cap=ball_cap
    )
    return tuple(layers) + ((),) * (radius + 1 - len(layers)), parent, depth


def oracle_minimal_d(group, target, *, ball_cap):
    """(d, layers, depth) of the least ball with more than target elements."""
    layers, _, depth = grow_with_parents(
        group, lambda layers, depth: len(depth) > target, ball_cap=ball_cap
    )
    if len(depth) <= target:
        raise Unattainable(target, available=len(depth))
    return len(layers) - 1, tuple(layers), depth


def oracle_geodesic_word(group, g, *, ball_cap):
    """The BFS parent-link walk from g back to the identity, reversed."""
    group.validate(g)
    _, parent, depth = grow_with_parents(group, lambda layers, depth: g in depth, ball_cap=ball_cap)
    if g not in depth:
        raise InternalContradiction(f"{group.name}: generators failed to reach {group.format(g)}")
    indices = []
    while g != group.identity():
        i, g = parent[g]
        indices.append(i)
    return tuple(reversed(indices))


def oracle_enumerate_group(group, *, ball_cap):
    order = group.order()
    if order is None:
        raise ValueError(f"{group.name} is infinite; cannot enumerate")
    _, _, depth = grow_with_parents(
        group, lambda layers, depth: len(depth) >= order, ball_cap=ball_cap
    )
    return sorted(depth, key=group.sort_key)


def oracle_default_uniform_radius(group, size, ball_cap):
    layers, _, depth = grow_with_parents(
        group, lambda layers, depth: len(depth) >= 2 * size, ball_cap=ball_cap
    )
    if len(depth) < size:
        raise PreconditionViolated(f"random size {size} exceeds group size {len(depth)}")
    return len(layers) - 1


def lemma31_route_a_by_fractions(group, D, d):
    """Route A of the lemma 3.1 identity, |B(e,d)| * sum over y in D of
    (1 - |{x in B(e,d) : x*y in D}| / |B(e,d)|), summed as fractions; a
    Fraction, which the identity requires to be an integer."""
    elements = list(ball(group, d).elements())
    members = set(D.elements)
    return sum(
        (1 - Fraction(sum(1 for x in elements if group.mul(x, y) in members), len(elements))
         for y in D.elements),
        start=Fraction(0),
    ) * len(elements)
