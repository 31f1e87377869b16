import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (
    CyclicGroup,
    DihedralGroup,
    FreeGroup,
    HeisenbergGroup,
    ParseError,
    SymmetricGroup,
    ZGroup,
    parse_group,
)
from isoplab.groups import FREE_LETTERS
from oracle_helpers import free_mul_by_loop, unitriangular_matmul

ALL_SPECS = [
    "z", "zd:2", "zd:3", "cyclic:2", "cyclic:12", "dihedral:3", "dihedral:6",
    "free:1", "free:2", "heisenberg", "heisenberg:2", "heisenberg:3",
    "symmetric:3", "symmetric:4",
]


def elements_strategy(group):
    if isinstance(group, ZGroup):
        return st.tuples(*[st.integers(-6, 6)] * group.rank)
    if isinstance(group, CyclicGroup):
        return st.integers(0, group.n - 1)
    if isinstance(group, DihedralGroup):
        return st.tuples(st.integers(0, group.n - 1), st.integers(0, 1))
    if isinstance(group, FreeGroup):
        letters = list(range(1, 2 * group.rank + 1))  # codes of letters and inverses

        def reduce(raw):
            word = b""
            for x in raw:
                word = group.mul(word, bytes((x,)))
            return word

        return st.lists(st.sampled_from(letters), max_size=6).map(reduce)
    if isinstance(group, HeisenbergGroup):
        hi = group.modulus - 1 if group.modulus else 6
        lo = 0 if group.modulus else -6
        return st.tuples(st.integers(lo, hi), st.integers(lo, hi), st.integers(lo, hi))
    if isinstance(group, SymmetricGroup):
        return st.permutations(range(1, group.n + 1)).map(tuple)
    raise AssertionError(group)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_group_axioms(spec):
    group = parse_group(spec)
    strategy = elements_strategy(group)

    @settings(max_examples=60, deadline=None)
    @given(strategy, strategy, strategy)
    def check(a, b, c):
        e = group.identity()
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, e) == a
        assert group.mul(e, a) == a
        assert group.mul(a, group.inv(a)) == e
        assert group.mul(group.inv(a), a) == e
        group.validate(group.mul(a, b))  # products stay canonical

    check()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_format_parse_round_trip(spec):
    group = parse_group(spec)
    strategy = elements_strategy(group)

    @settings(max_examples=40, deadline=None)
    @given(strategy)
    def check(a):
        assert group.parse(group.format(a)) == a

    check()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_generating_set_invariants(spec):
    group = parse_group(spec)
    gs = group.generating_set
    assert type(gs) is tuple and len(gs) > 0
    assert group.identity() not in gs
    assert len(set(gs)) == len(gs)
    for s in gs:
        assert group.inv(s) in gs


@pytest.mark.parametrize(
    "tokens, message",
    [({"e": 0}, "non-empty"), ({"+1": 1, "+2": 2}, "closed under inverses")],
)
def test_generating_set_rejects_bad_token_tables(tokens, message):
    class BadTokens(CyclicGroup):
        def generator_tokens(self):
            return tokens

    with pytest.raises(ValueError, match=message):
        BadTokens(12).generating_set


def test_group_orders():
    assert parse_group("cyclic:12").order() == 12
    assert parse_group("dihedral:6").order() == 12
    assert parse_group("symmetric:4").order() == 24
    assert parse_group("heisenberg:3").order() == 27
    assert parse_group("z").order() is None
    assert parse_group("zd:3").order() is None
    assert parse_group("free:2").order() is None
    assert parse_group("heisenberg").order() is None


def test_generating_set_sizes():
    assert len(parse_group("z").generating_set) == 2
    assert len(parse_group("zd:3").generating_set) == 6
    assert len(parse_group("cyclic:2").generating_set) == 1  # involution counted once
    assert len(parse_group("cyclic:12").generating_set) == 2
    assert len(parse_group("dihedral:6").generating_set) == 3
    assert len(parse_group("free:2").generating_set) == 4
    assert len(parse_group("heisenberg").generating_set) == 4
    assert len(parse_group("heisenberg:2").generating_set) == 2  # X, Y self-inverse mod 2
    assert len(parse_group("symmetric:4").generating_set) == 3


def test_identity_examples():
    assert parse_group("zd:2").identity() == (0, 0)
    assert parse_group("free:2").identity() == b""
    assert parse_group("dihedral:5").identity() == (0, 0)


def test_multiply_examples():
    z = parse_group("z")
    assert z.mul((3,), (-5,)) == (-2,)
    f2 = parse_group("free:2")
    assert f2.mul(f2.parse("ab"), f2.parse("Ba")) == f2.parse("aa")
    h = parse_group("heisenberg")
    assert h.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_heisenberg_matches_matrix_multiplication(p, q):
    h = HeisenbergGroup(None)
    assert h.mul(p, q) == unitriangular_matmul(p, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda rank: st.tuples(
    st.just(rank),
    st.tuples(*[st.integers(-10**20, 10**20)] * rank),
    st.tuples(*[st.integers(-10**20, 10**20)] * rank),
)))
def test_lattice_mul_matches_coordinatewise_sum(case):
    rank, a, b = case
    group = ZGroup(rank)
    assert group.rank == rank and group.key == group.name
    assert group.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert copy.deepcopy(group).mul(a, b) == group.mul(a, b)


def _heisenberg_by_one_formula(modulus, x, y):
    """Product and inverse with one reduction step shared by both variants."""
    def reduce(a, b, c):
        return (a, b, c) if modulus is None else (a % modulus, b % modulus, c % modulus)

    (a, b, c), (a2, b2, c2) = x, y
    return reduce(a + a2, b + b2, c + c2 + a * b2), reduce(-a, -b, a * b - c)


@pytest.mark.parametrize("modulus", [None, 2, 3, 7])
def test_heisenberg_variants_match_one_formula(modulus):
    group = HeisenbergGroup(modulus)
    assert isinstance(group, HeisenbergGroup)
    assert (type(group) is HeisenbergGroup) == (modulus is None)
    strategy = elements_strategy(group)

    @settings(max_examples=100, deadline=None)
    @given(strategy, strategy)
    def check(x, y):
        expected = _heisenberg_by_one_formula(modulus, x, y)
        for g in (group, copy.deepcopy(group), pickle.loads(pickle.dumps(group))):
            assert type(g) is type(group) and g == group
            assert (g.mul(x, y), g.inv(x)) == expected

    check()


def test_inverse_examples():
    z2 = parse_group("zd:2")
    assert z2.inv((2, -1)) == (-2, 1)
    f2 = parse_group("free:2")
    assert f2.inv(f2.parse("abA")) == f2.parse("aBA")
    d6 = parse_group("dihedral:6")
    assert d6.inv((2, 1)) == (2, 1)
    assert d6.mul((2, 1), (2, 1)) == d6.identity()


def test_parse_examples():
    z2 = parse_group("zd:2")
    assert z2.parse("(1,-2)") == (1, -2)
    f2 = parse_group("free:2")
    assert f2.parse("aBa") == bytes((3, 1, 3))  # a = 2 + 1, B = ~2 = 2 + 1 - 2
    assert f2.parse("e") == b""
    assert f2.parse("aA") == b""  # reduced on input
    s3 = parse_group("symmetric:3")
    assert s3.parse("[2,1,3]") == (2, 1, 3)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_group("cyclic:1")
    with pytest.raises(ParseError):
        parse_group("dihedral:2")
    with pytest.raises(ParseError):
        parse_group("nonsense:4")
    with pytest.raises(ParseError):
        parse_group("cyclic:12").parse("12")  # out of range
    with pytest.raises(ParseError):
        parse_group("symmetric:3").parse("[1,1,2]")  # not a permutation
    with pytest.raises(ParseError):
        parse_group("free:2").parse("ac")  # letter above rank
    with pytest.raises(ParseError):
        parse_group("zd:2").parse("(1,2,3)")


def test_canonical_order_is_length_then_lexicographic():
    f2 = parse_group("free:2")
    words = [f2.parse(w) for w in ("e", "a", "b", "A", "aa", "ab")]
    ordered = sorted(words, key=f2.sort_key)
    # identity (length 0) first, then length-1 words by signed letter value
    assert [f2.format(w) for w in ordered] == ["e", "A", "a", "b", "aa", "ab"]


def test_modular_heisenberg_wraps():
    h2 = parse_group("heisenberg:2")
    x = (1, 0, 0)
    assert h2.mul(x, x) == (0, 0, 0)  # involution mod 2
    h3 = parse_group("heisenberg:3")
    assert h3.mul((2, 0, 0), (2, 0, 0)) == (1, 0, 0)
    for e in [(0, 0, 0), (2, 2, 2), (1, 2, 0)]:
        h3.validate(e)
        assert h3.mul(e, h3.inv(e)) == (0, 0, 0)


# ------------------------------------------------------ generator-token tables

@pytest.mark.parametrize("spec", ALL_SPECS + ["zd:12", "symmetric:12", "free:25"])
def test_generator_tokens_name_the_generating_set(spec):
    group = parse_group(spec)
    tokens = group.generator_tokens()
    identity = group.identity()
    for e in tokens.values():
        group.validate(e)
    # the generating set is the table's non-identity values, in table order
    expected = list(dict.fromkeys(e for e in tokens.values() if e != identity))
    assert list(group.generating_set) == expected


def test_key_is_the_spec_string():
    specs = ALL_SPECS + ["zd:12", "dihedral:5", "free:5", "free:25", "symmetric:12"]
    groups = [parse_group(spec) for spec in specs]
    assert [group.key for group in groups] == specs
    assert len(set(groups)) == len(specs)
    assert parse_group("zd:1") == parse_group("z") and parse_group("zd:1").key == "z"
    assert parse_group("heisenberg") != parse_group("heisenberg:3")


@pytest.mark.parametrize("rank", [1, 5, 25])
def test_free_words_have_one_grammar(rank):
    from isoplab import ball

    group = FreeGroup(rank)
    for w in ball(group, 2).elements():
        text = group.format(w)
        assert group.parse(text) == w == group.parse_word(text)
    bad = ["", " ", "a1", "a b", "E", "?"]
    if rank < len(FREE_LETTERS):
        bad += [FREE_LETTERS[rank], FREE_LETTERS[rank].upper()]  # letters above the rank
    for text in bad:
        with pytest.raises(ParseError):
            group.parse(text)


@pytest.mark.parametrize("rank", [2, 5, 25])
def test_free_format_round_trips_and_is_injective(rank):
    from isoplab import ball

    group = FreeGroup(rank)
    words = list(ball(group, 2).elements())
    assert len(words) == 1 + 2 * rank + 2 * rank * (2 * rank - 1)
    texts = [group.format(w) for w in words]
    assert len(set(texts)) == len(words)
    assert all(group.parse(t) == w for t, w in zip(texts, words))


def test_free_letter_e_is_reserved_for_the_identity():
    from isoplab import generate_set, parse_set_descriptor

    f5 = FreeGroup(5)
    assert f5.format(b"") == "e"
    assert f5.format(bytes((10,))) == "f" and f5.format(bytes((1,))) == "F"
    assert f5.parse("f") == bytes((10,))
    assert f5.parse_word("fF") == b""
    assert generate_set(f5, parse_set_descriptor("explicit:e,f")).elements == (b"", bytes((10,)))
    # ranks 1-4 print as before
    assert FreeGroup(4).format(bytes((5, 3, 7, 1))) == "aBcD"
    with pytest.raises(ParseError):
        FreeGroup(26)
    with pytest.raises(ParseError):
        f5.parse("g")  # letter above rank


def reduced_word(rank):
    """Reduced words of free:rank, freely reduced with a stack rather than
    by FreeGroup.mul."""
    letters = list(range(1, 2 * rank + 1))  # codes of letters and inverses

    def reduce(raw):
        word = []
        for x in raw:
            if word and word[-1] + x == 2 * rank + 1:
                word.pop()
            else:
                word.append(x)
        return bytes(word)

    return st.lists(st.sampled_from(letters), max_size=8).map(reduce)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
    st.just(rank), reduced_word(rank), reduced_word(rank), st.integers(0, 8),
)))
def test_free_mul_matches_the_reduction_loop(case):
    rank, a, c, k = case
    group = FreeGroup(rank)
    # b starts by undoing up to k letters of a, so cancellation is common
    b = free_mul_by_loop(group.inv(a)[:k], c, rank)
    for x, y in ((a, b), (b, a), (a, c), (a, group.inv(a)), (b"", a), (a, b"")):
        assert group.mul(x, y) == free_mul_by_loop(x, y, rank)
    assert group.mul(a, group.inv(a)) == b""


def test_free_mul_cancellation_examples():
    f2 = FreeGroup(2)
    w = f2.parse
    assert f2.mul(b"", b"") == b""
    assert f2.mul(w("ab"), b"") == w("ab") and f2.mul(b"", w("ab")) == w("ab")
    assert f2.mul(w("ab"), w("a")) == b"\x03\x04\x03"  # no cancellation
    assert f2.mul(w("ab"), w("Ba")) == w("aa")  # partial
    assert f2.mul(w("aBa"), w("AbA")) == b""  # full


INVALID_FREE2_WORDS = [
    (3,), (3, 1), b"\x00", b"\x05", b"\x03\x00", bytes((3, 2)), bytes((1, 4)), bytes((4, 3, 2, 1)),
]


# one tuple per family that breaks a rule of its validate: as text for
# Group.parse, as the tuple itself, and the words of validate's message
INVALID_TUPLES = [
    ("dihedral:5", "(5,0)", (5, 0), "need (i, j)"),
    ("dihedral:5", "(0,2)", (0, 2), "need (i, j)"),
    ("heisenberg:3", "(0,0,3)", (0, 0, 3), "coordinates must lie in 0..2"),
    ("heisenberg", "(1,2)", (1, 2), "need an integer 3-tuple"),
    ("zd:2", "(1,x)", (1, "x"), "need an integer 2-tuple"),
    ("symmetric:3", "[2,2,1]", (2, 2, 1), "is not a permutation"),
]


@pytest.mark.parametrize("spec, text, element, words", INVALID_TUPLES, ids=[
    f"{spec} {text}" for spec, text, _, _ in INVALID_TUPLES
])
def test_validate_rejects_bad_tuples(spec, text, element, words):
    group = parse_group(spec)
    with pytest.raises(ParseError):
        group.parse(text)
    with pytest.raises(ParseError, match=re.escape(words)):
        group.validate(element)


@pytest.mark.parametrize(
    "word", INVALID_FREE2_WORDS, ids=[f"word{i}" for i in range(len(INVALID_FREE2_WORDS))]
)
def test_free_validate_rejects_letters_outside_the_encoding(word):
    # free:2 words are bytes of codes 1..4 (a = 3, b = 4, A = 2, B = 1);
    # an int tuple, code 0 and code 5 = 2*2 + 1 encode nothing, and codes
    # summing to 5 are an inverse pair, so the word is not reduced
    with pytest.raises(ParseError):
        FreeGroup(2).validate(word)


@pytest.mark.parametrize("rank, radius", [(1, 10), (2, 6), (3, 4)])
def test_free_ball_elements_are_bytes(rank, radius):
    from isoplab import ball

    words = list(ball(FreeGroup(rank), radius).elements())
    assert all(type(w) is bytes for w in words)


@pytest.mark.parametrize("rank, radius", [(1, 6), (2, 4), (3, 3)])
def test_free_ball_layers_are_shortlex_by_letter_rank(rank, radius):
    from isoplab import ball

    # independent of the codes: letters rank by ~k < ... < ~1 < 1 < ... < k,
    # so for free:2 B < A < a < b, and a ball lists words shortlex by it
    group = FreeGroup(rank)
    letters = FREE_LETTERS[:rank]
    letter_rank = {ch: i for i, ch in enumerate(letters.upper()[::-1] + letters)}
    texts = [group.format(w) for layer in ball(group, radius).layers for w in layer]
    assert texts[0] == "e"
    expected = ["e"] + sorted(texts[1:], key=lambda t: (len(t), [letter_rank[ch] for ch in t]))
    assert texts == expected


@pytest.mark.parametrize("rank, radius", [(1, 12), (2, 8), (3, 5)])
def test_free_words_of_a_ball_have_distinct_hashes(rank, radius):
    from isoplab import ball

    # every BFS layer and half-mass scan looks words up in sets and dicts,
    # which slow down when words share a hash
    words = list(ball(FreeGroup(rank), radius).elements())
    assert len(set(map(hash, words))) == len(words)
