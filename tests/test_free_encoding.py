"""FreeGroup's int words against the `bytes` words they replaced.

`oracle_helpers.BytesFreeGroup` is the free group as it was when a word was
a `bytes` string of letter codes, and `free_word_int`/`free_word_codes` map
its words to FreeGroup's ints and back.  Under that map the two groups must
agree on products, inverses, the letter grammar in both directions, which
inputs `validate` accepts, the canonical (shortlex) order, and the BFS
layers of a ball, element for element and in the same order.  Sharing the
spec string `free:k`, the two still compare unequal and keep one BFS table
each.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoplab import FiniteSubset, FreeGroup, ParseError, PreconditionViolated, ball, metric
from isoplab.groups import FREE_LETTERS
from isoplab.isoperimetry import verify_theorem
from oracle_helpers import BytesFreeGroup, free_word_codes, free_word_int

RANKS = (1, 2, 3, 5, 25)


def reduced_words(rank, max_size):
    """Reduced bytes words of free:rank, products of up to max_size letters."""
    old = BytesFreeGroup(rank)

    def reduce(raw):
        w = old.identity()
        for s in raw:
            w = old.mul(w, s)
        return w

    return st.lists(st.sampled_from(old.generating_set), max_size=max_size).map(reduce)


@st.composite
def three_words(draw):
    """A rank and three reduced bytes words of it; the second starts by
    undoing part of the first, so products often cancel at the seam."""
    rank = draw(st.sampled_from(RANKS))
    old = BytesFreeGroup(rank)
    a, b, c = (draw(reduced_words(rank, 10)) for _ in range(3))
    b = old.mul(old.inv(a)[: draw(st.integers(0, 10))], b)
    return rank, (a, b, c)


@settings(max_examples=400, deadline=None)
@given(three_words())
def test_mul_inv_and_format_agree(case):
    rank, (a, b, c) = case
    new, old = FreeGroup(rank), BytesFreeGroup(rank)
    to_int = lambda w: free_word_int(rank, w)  # noqa: E731
    for x in (a, b, c):
        assert free_word_codes(rank, to_int(x)) == x  # the map is a bijection
        assert new.inv(to_int(x)) == to_int(old.inv(x))
        assert new.format(to_int(x)) == old.format(x)
        new.validate(to_int(x))
    for x, y in ((a, b), (b, a), (a, c), (a, old.inv(a)), (old.identity(), a), (a, old.identity())):
        assert new.mul(to_int(x), to_int(y)) == to_int(old.mul(x, y))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RANKS).flatmap(
    lambda rank: st.tuples(st.just(rank), st.lists(reduced_words(rank, 6), max_size=30))
))
def test_sort_orders_agree(case):
    rank, ws = case
    old = BytesFreeGroup(rank)
    ordered = [free_word_int(rank, w) for w in sorted(ws, key=old.sort_key)]
    assert sorted(free_word_int(rank, w) for w in ws) == ordered


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RANKS).flatmap(lambda rank: st.tuples(
    st.just(rank),
    st.text(alphabet=FREE_LETTERS[: rank + 1] + FREE_LETTERS[: rank + 1].upper() + "e ", max_size=12),
)))
@example((2, "aBa"))
@example((2, "ac"))  # a letter above rank
@example((3, ""))
def test_parse_word_agrees(case):
    rank, text = case
    new, old = FreeGroup(rank), BytesFreeGroup(rank)
    try:
        expected = free_word_int(rank, old.parse_word(text))
    except ParseError:
        with pytest.raises(ParseError):
            new.parse_word(text)
    else:
        assert new.parse_word(text) == expected
        assert new.parse(text) == expected


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RANKS).flatmap(lambda rank: st.tuples(
    st.just(rank),
    # every code whose digit fits in b bits, the unused digits above 2k - 1 too
    st.lists(st.integers(1, 1 << (2 * rank - 1).bit_length()), max_size=8),
)))
@example((3, [7]))  # digit 6, no letter of free:3
@example((2, [3, 2]))  # aA
def test_validate_accepts_the_same_words(case):
    rank, codes = case
    new, old = FreeGroup(rank), BytesFreeGroup(rank)

    def accepts(group, e):
        try:
            group.validate(e)
        except ParseError:
            return False
        return True

    assert accepts(new, free_word_int(rank, codes)) == accepts(old, bytes(codes))


@pytest.mark.parametrize("rank, radius", [(2, 7), (3, 5)])
def test_ball_layers_agree(rank, radius):
    new, old = FreeGroup(rank), BytesFreeGroup(rank)
    assert new.generating_set == tuple(free_word_int(rank, s) for s in old.generating_set)
    expected = tuple(
        tuple(free_word_int(rank, w) for w in layer) for layer in ball(old, radius).layers
    )
    assert ball(new, radius).layers == expected


@pytest.mark.parametrize("first", ["int", "bytes"])
def test_one_spec_in_two_encodings_keeps_two_tables(monkeypatch, first):
    monkeypatch.setattr(metric, "_tables", {})
    new, old = FreeGroup(2), BytesFreeGroup(2)
    assert new.key == old.key == "free:2"
    assert new != old and old != new and len({new, old}) == 2
    assert new == FreeGroup(2) and hash(new) == hash(FreeGroup(2))
    queries = [(new, int), (old, bytes)]
    for group, kind in queries if first == "int" else queries[::-1]:
        layers = ball(group, 2).layers
        assert {type(g) for layer in layers for g in layer} == {kind}
    assert len(metric._tables) == 2
    assert ball(new, 2).layers == tuple(
        tuple(free_word_int(2, w) for w in layer) for layer in ball(old, 2).layers
    )
    D = FiniteSubset(old, (old.identity(),), "e")
    with pytest.raises(PreconditionViolated, match="D is a subset of"):
        verify_theorem(new, D)
