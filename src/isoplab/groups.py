"""Concrete finitely generated groups with exact, canonical element arithmetic.

Every family fixes a canonical encoding for its elements (plain ints and
int tuples; a free word is one int of letter digits under a marker bit,
FreeGroup says how and why), so group equality is encoding equality and
elements can live in sets and dicts.  All arithmetic is exact; Python
integers never wrap.  The symmetric generating set of each family is fixed
at construction:

    z, zd:<k>        standard basis vectors and their inverses (2k elements)
    cyclic:<n>       +1 and -1 (a single element when n = 2)
    dihedral:<n>     r, r^-1, s  for  <r, s | r^n, s^2, s r s = r^-1>
    free:<k>         the k free letters and their inverses
    heisenberg[:<m>] X, X^-1, Y, Y^-1 (integer or mod-m upper unitriangular)
    symmetric:<n>    adjacent transpositions (each its own inverse)

No generating set contains the identity; involutions appear once, and
Card(S) counts distinct elements.  The canonical order, the tie-breaker
wherever determinism matters, is the elements' natural order in every
family; for free words that order is shortlex.  `Group.sort_key` is its
key, the element itself.

A group's `name` is its spec string, which `parse_group` reads back; it is
also `Group.key`.  Groups compare and hash by their class and key, since
two classes may encode one spec's elements differently.  Elements are written
in one of two grammars.  `Group.parse`/`Group.format` read and print the
integer-tuple literal, `(1,-2)` or `[2,1,3]` for permutations, with bare
ints for `z` and cyclic groups.  `Group.parse_word` reads a word in the
family's `generator_tokens()`, multiplied left to right; free words parse
and print in that grammar alone (`aBa`, and `e` for the identity).
"""

from __future__ import annotations

import re
from functools import cached_property
from math import factorial
from operator import add
from typing import Optional, Union

from .errors import ParseError

Element = Union[int, tuple]

_INT_RE = re.compile(r"[+-]?[0-9]+")

# Free-group letters in rank order; "e" is reserved for the identity.
FREE_LETTERS = "abcdfghijklmnopqrstuvwxyz"


class Group:
    """A group family instance: exact arithmetic on canonical encodings."""

    name: str  # the spec string parse_group reads back
    _brackets = "()"  # of the integer-tuple literal
    # True when some homomorphism G -> Z/2 sends every generator to 1: then
    # each generator step changes word length parity, so no step joins two
    # elements of one ball layer (the Cayley graph is bipartite).
    bipartite = False

    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Group order; None means infinite."""
        raise NotImplementedError

    def validate(self, e: Element) -> None:
        """Raise ParseError unless e is a canonical encoding for this group."""
        raise NotImplementedError

    def sort_key(self, e: Element):
        """Key of the canonical order: the element itself, in every family."""
        return e

    def parse(self, text: str) -> Element:
        """The integer-tuple literal: comma-separated ints in `_brackets`."""
        text = text.strip()
        open_ch, close_ch = self._brackets
        if not (text.startswith(open_ch) and text.endswith(close_ch)):
            raise ParseError(f"{self.name}: expected {open_ch}...{close_ch}, got {text!r}")
        parts = [part.strip() for part in text[1:-1].split(",")]
        if not all(_INT_RE.fullmatch(part) for part in parts):
            raise ParseError(f"{self.name}: bad integer tuple {text!r}")
        e = tuple(int(part) for part in parts)
        self.validate(e)
        return e

    def format(self, e: Element) -> str:
        return self._brackets[0] + ",".join(map(str, e)) + self._brackets[1]

    def parse_word(self, text: str) -> Element:
        """A word in the `generator_tokens()` table, multiplied left to right.

        The grammar is +i/-i for the lattice families and cyclic groups,
        letters for free groups (identity "e"), r/R/s for dihedral, x/X/y/Y
        for the unitriangular family, t1..t(n-1) for symmetric groups.  The
        longest token matches first.
        """
        t = text.strip()
        if not t:
            raise ParseError("empty generator word")
        tokens = self.generator_tokens()
        token_re = re.compile("|".join(sorted(map(re.escape, tokens), key=len, reverse=True)))
        acc = self.identity()
        pos = 0
        while pos < len(t):
            m = token_re.match(t, pos)
            if m is None:
                raise ParseError(
                    f"bad generator word {text!r} for {self.name} at {t[pos:]!r} "
                    f"(tokens: {' '.join(tokens)})"
                )
            acc = self.mul(acc, tokens[m.group()])
            pos = m.end()
        return acc

    def generator_tokens(self) -> dict[str, Element]:
        """Token -> element table of the generator-word grammar.

        Every generator and its inverse has a token; the order of the table
        fixes the order of the generating set.  A token may also name the
        identity (the free family's "e"); it is not a generator.
        """
        raise NotImplementedError

    @cached_property
    def generating_set(self) -> tuple[Element, ...]:
        """S in `generator_tokens()` order; ValueError unless it is non-empty
        and closed under inverses."""
        identity = self.identity()
        gens = tuple(dict.fromkeys(g for g in self.generator_tokens().values() if g != identity))
        if not gens:
            raise ValueError("generating set must be non-empty")
        if any(self.inv(g) not in gens for g in gens):
            raise ValueError("generating set is not closed under inverses")
        return gens

    @property
    def key(self) -> str:
        """The spec string, which names exactly one group of the class."""
        return self.name

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.key == other.key

    def __hash__(self) -> int:
        return hash((type(self), self.key))

    def __repr__(self) -> str:
        return f"<group {self.name}>"


class ZGroup(Group):
    """Free abelian group Z^k; elements are integer k-tuples under addition.

    `mul` is chosen once per rank when the group is built: ranks 1 and 2
    construct a subclass whose `mul` (and rank 2's `inv`) is a closed-form
    tuple, and higher ranks add with `map`.  Each stays a class method, so
    patching a group class's `mul` (as perfbench's counting pass does)
    still sees every call.
    """

    bipartite = True  # coordinate sum mod 2

    def __new__(cls, rank: int = 0):
        # rank has a default because copy and pickle call __new__ without it
        if cls is ZGroup:
            cls = _Z_BY_RANK.get(rank, ZGroup)
        return super().__new__(cls)

    def __init__(self, rank: int):
        if rank < 1:
            raise ParseError(f"zd rank must be >= 1, got {rank}")
        self.rank = rank
        self.name = "z" if rank == 1 else f"zd:{rank}"

    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def order(self):
        return None

    def validate(self, e):
        if not (
            isinstance(e, tuple)
            and len(e) == self.rank
            and all(isinstance(x, int) for x in e)
        ):
            raise ParseError(f"{self.name}: need an integer {self.rank}-tuple, got {e!r}")

    def generator_tokens(self):
        basis = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        return {
            **{f"+{i + 1}": v for i, v in enumerate(basis)},
            **{f"-{i + 1}": self.inv(v) for i, v in enumerate(basis)},
        }


class _Z1Group(ZGroup):
    """Z, whose elements also parse and print as bare ints."""

    def mul(self, a, b):
        return (a[0] + b[0],)

    def parse(self, text):
        text = text.strip()
        if _INT_RE.fullmatch(text):
            return (int(text),)
        return super().parse(text)

    def format(self, e):
        return str(e[0])


class _Z2Group(ZGroup):
    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])


_Z_BY_RANK = {1: _Z1Group, 2: _Z2Group}


class CyclicGroup(Group):
    """Z/nZ; elements are residues 0..n-1 under addition mod n."""

    def __init__(self, n: int):
        if n < 2:
            raise ParseError(f"cyclic order must be >= 2, got {n}")
        self.n = n
        self.bipartite = n % 2 == 0  # the residue mod 2
        self.name = f"cyclic:{n}"

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def order(self):
        return self.n

    def validate(self, e):
        if not (isinstance(e, int) and 0 <= e < self.n):
            raise ParseError(f"{self.name}: residue must lie in 0..{self.n - 1}, got {e!r}")

    def generator_tokens(self):
        return {"+1": 1, "-1": self.n - 1}

    def parse(self, text):
        text = text.strip()
        if not _INT_RE.fullmatch(text):
            raise ParseError(f"{self.name}: bad residue {text!r}")
        value = int(text)
        self.validate(value)
        return value

    def format(self, e):
        return str(e)


class DihedralGroup(Group):
    """Dihedral group of order 2n; (i, j) encodes r^i s^j.

    The relations r^n = s^2 = e and s r s = r^-1 give
    (i, j)(i2, j2) = (i + i2 mod n, j2) when j = 0 and
    (i - i2 mod n, 1 ^ j2) when j = 1.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ParseError(f"dihedral parameter must be >= 3, got {n}")
        self.n = n
        self.bipartite = n % 2 == 0  # i + j mod 2 for r^i s^j
        self.name = f"dihedral:{n}"

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        i, j = a
        i2, j2 = b
        rot = i + i2 if j == 0 else i - i2
        return (rot % self.n, j ^ j2)

    def inv(self, a):
        i, j = a
        if j == 1:
            return a  # reflections are involutions
        return ((-i) % self.n, 0)

    def order(self):
        return 2 * self.n

    def validate(self, e):
        if not (
            isinstance(e, tuple)
            and len(e) == 2
            and isinstance(e[0], int)
            and isinstance(e[1], int)
            and 0 <= e[0] < self.n
            and e[1] in (0, 1)
        ):
            raise ParseError(f"{self.name}: need (i, j) with 0 <= i < {self.n}, j in {{0,1}}; got {e!r}")

    def generator_tokens(self):
        return {"r": (1, 0), "R": (self.n - 1, 0), "s": (0, 1)}


class FreeGroup(Group):
    """Free group of given rank; elements are reduced words.

    A word c1 ... cn is one int: a marker bit, then one b-bit digit per
    letter with the first letter in the highest digit, so the identity is 1
    and appending a letter of digit d to w gives (w << b) | d.  With k the
    rank and b = (2k - 1).bit_length(), letter i in 1..k is digit k - 1 + i
    and its inverse ~i is digit k - i.  So a digit and its inverse's sum to
    2k - 1, and the digits keep the letter order ~k < ... < ~1 < 1 < ... < k.
    Plain int order is then shortlex: the marker puts a longer word above a
    shorter one, and words of one length compare as their digit strings.  A
    word is an int because a ball holds millions of them: an int below 2**60
    takes a 32-byte block (free:3 words up to length 19), where a bytes
    string of length 8 takes 48 and an int tuple 104.  Letter i prints as
    the i-th character of FREE_LETTERS (a..z without e), uppercase for its
    inverse; "e" is reserved for the identity.  The letter grammar bounds
    the rank at 25.
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
        self._pair = pair = 2 * rank - 1  # the sum of a digit and its inverse's
        self._bits = bits = pair.bit_length()
        self._mask = mask = (1 << bits) - 1
        # mul's test reads one tuple: the digit width and mask, and what a's
        # last digit plus b's marker and first digit sum to when they cancel
        self._seam = (bits, mask, pair + (1 << bits))
        letters = FREE_LETTERS[:rank]
        self._letters = letters[::-1].upper() + letters  # indexed by digit

    def identity(self):
        return 1

    def mul(self, a, b, _bit_length=int.bit_length):
        top = _bit_length(b) - 1  # b's marker bit
        bits, mask, cancel = self._seam
        if top < bits or (a & mask) + (b >> (top - bits)) != cancel:
            return b + ((a - 1) << top)  # nothing cancels, or b is 1
        # a's last letter cancels b's first (or a is 1): strip inverse pairs
        pair = self._pair
        while top and a > 1 and (a & mask) + ((b >> (top - bits)) & mask) == pair:
            a >>= bits
            top -= bits
        return (b & ((1 << top) - 1)) + (a << top)

    def inv(self, a):
        bits, pair, mask = self._bits, self._pair, self._mask
        out = 1
        while a > 1:
            out = (out << bits) | (pair - (a & mask))
            a >>= bits
        return out

    def _digits(self, e):
        """The digits of word e, last letter first."""
        bits, mask = self._bits, self._mask
        out = []
        while e > 1:
            out.append(e & mask)
            e >>= bits
        return out

    def order(self):
        return None

    def validate(self, e):
        if type(e) is not int:  # a bool too: True == 1 would pass as the identity
            raise ParseError(f"{self.name}: need a word as an int, got {e!r}")
        if e < 1 or (e.bit_length() - 1) % self._bits:
            raise ParseError(
                f"{self.name}: {e!r} is not a marker bit above whole {self._bits}-bit digits"
            )
        digits = self._digits(e)
        if digits and max(digits) > self._pair:
            raise ParseError(f"{self.name}: {e!r} has a digit outside 0..{self._pair}")
        if any(x + y == self._pair for x, y in zip(digits, digits[1:])):
            raise ParseError(f"{self.name}: word {self.format(e)!r} is not reduced")

    def generator_tokens(self):
        marker, letters = 1 << self._bits, FREE_LETTERS[: self.rank]
        return {"e": 1, **{ch: marker | self._letters.index(ch) for ch in letters + letters.upper()}}

    def parse(self, text):
        return self.parse_word(text)  # reduced as it is read

    def format(self, e):
        letters = self._letters
        return "".join([letters[d] for d in reversed(self._digits(e))]) or "e"


class HeisenbergGroup(Group):
    """Discrete Heisenberg group, integer or mod-m upper unitriangular.

    (a, b, c) encodes the matrix [[1, a, c], [0, 1, b], [0, 0, 1]], so
    (a, b, c)(a2, b2, c2) = (a + a2, b + b2, c + c2 + a*b2), with every
    coordinate reduced mod m in the modular variant.

    `mul` and `inv` are chosen once per modulus when the group is built, as
    ZGroup chooses `mul` per rank: the integer group's methods reduce
    nothing, and a modulus constructs a subclass whose methods reduce each
    coordinate mod m.  Both stay class methods, so patching a group class's
    `mul` still sees every call.
    """

    def __new__(cls, modulus: Optional[int] = None):
        # modulus has a default because copy and pickle call __new__ without
        # it, passing the instance's own class, which keeps its variant
        if cls is HeisenbergGroup and modulus is not None:
            cls = _ModularHeisenbergGroup
        return super().__new__(cls)

    def __init__(self, modulus: Optional[int] = None):
        if modulus is not None and modulus < 2:
            raise ParseError(f"heisenberg modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.name = "heisenberg" if modulus is None else f"heisenberg:{modulus}"
        self.bipartite = modulus is None or modulus % 2 == 0  # a + b mod 2

    def identity(self):
        return (0, 0, 0)

    def mul(self, x, y):
        a, b, c = x
        a2, b2, c2 = y
        return (a + a2, b + b2, c + c2 + a * b2)

    def inv(self, x):
        a, b, c = x
        return (-a, -b, a * b - c)

    def order(self):
        return None if self.modulus is None else self.modulus**3

    def validate(self, e):
        if not (isinstance(e, tuple) and len(e) == 3 and all(isinstance(x, int) for x in e)):
            raise ParseError(f"{self.name}: need an integer 3-tuple, got {e!r}")
        if self.modulus is not None and not all(0 <= x < self.modulus for x in e):
            raise ParseError(f"{self.name}: coordinates must lie in 0..{self.modulus - 1}, got {e!r}")

    def generator_tokens(self):
        x, y = (1, 0, 0), (0, 1, 0)
        return {"x": x, "X": self.inv(x), "y": y, "Y": self.inv(y)}


class _ModularHeisenbergGroup(HeisenbergGroup):
    def mul(self, x, y):
        a, b, c = x
        a2, b2, c2 = y
        m = self.modulus
        return ((a + a2) % m, (b + b2) % m, (c + c2 + a * b2) % m)

    def inv(self, x):
        a, b, c = x
        m = self.modulus
        return (-a % m, -b % m, (a * b - c) % m)


class SymmetricGroup(Group):
    """Symmetric group on n letters; elements are one-line image tuples.

    e[i] is the image of i+1 (values 1..n); composition applies the right
    factor first: (a * b)(x) = a(b(x)).
    """

    _brackets = "[]"
    bipartite = True  # the sign of the permutation

    def __init__(self, n: int):
        if n < 3:
            raise ParseError(f"symmetric parameter must be >= 3, got {n}")
        self.n = n
        self.name = f"symmetric:{n}"

    def identity(self):
        return tuple(range(1, self.n + 1))

    def mul(self, a, b):
        return tuple(a[b[i] - 1] for i in range(self.n))

    def inv(self, a):
        out = [0] * self.n
        for i, image in enumerate(a):
            out[image - 1] = i + 1
        return tuple(out)

    def order(self):
        return factorial(self.n)

    def validate(self, e):
        if not (isinstance(e, tuple) and len(e) == self.n and all(isinstance(x, int) for x in e)):
            raise ParseError(f"{self.name}: need an image {self.n}-tuple, got {e!r}")
        if sorted(e) != list(range(1, self.n + 1)):
            raise ParseError(f"{self.name}: {e!r} is not a permutation of 1..{self.n}")

    def generator_tokens(self):
        tokens = {}
        for i in range(self.n - 1):
            images = list(range(1, self.n + 1))
            images[i], images[i + 1] = images[i + 1], images[i]
            tokens[f"t{i + 1}"] = tuple(images)
        return tokens


_FAMILIES = {
    "zd": ZGroup,
    "cyclic": CyclicGroup,
    "dihedral": DihedralGroup,
    "free": FreeGroup,
    "heisenberg": HeisenbergGroup,
    "symmetric": SymmetricGroup,
}
_GROUP_RE = re.compile(f"({'|'.join(_FAMILIES)}):([0-9]+)")


def parse_group(text: str) -> Group:
    """Build a group from its spec string (z, zd:<k>, cyclic:<n>, dihedral:<n>,
    free:<k>, heisenberg, heisenberg:<m>, symmetric:<n>)."""
    t = text.strip()
    if t == "z":
        return ZGroup(1)
    if t == "heisenberg":
        return HeisenbergGroup(None)
    m = _GROUP_RE.fullmatch(t)
    if m is None:
        raise ParseError(f"unrecognized group spec {text!r}")
    return _FAMILIES[m.group(1)](int(m.group(2)))
