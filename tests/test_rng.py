from collections import Counter

import pytest

from isoplab import ParseError, SplitMix64, mix64


def test_reference_stream_for_seed_zero():
    # first outputs of the published SplitMix64 stream for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_reference_stream_for_seed_1234567():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_outputs_are_64_bit():
    rng = SplitMix64(987654321)
    for _ in range(100):
        value = rng.next_u64()
        assert 0 <= value < 1 << 64


def test_below_is_in_range_and_covers_small_moduli():
    rng = SplitMix64(13)
    counts = Counter(rng.below(7) for _ in range(700))
    assert set(counts) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_is_deterministic():
    a = SplitMix64(55)
    b = SplitMix64(55)
    assert [a.below(1000) for _ in range(50)] == [b.below(1000) for _ in range(50)]


def test_child_seed_rule():
    rng = SplitMix64(42)
    # child i is stream element i+1 of the parent seed
    probe = SplitMix64(42)
    expected = [probe.next_u64() for _ in range(4)]
    assert [rng.child_seed(i) for i in range(4)] == expected
    assert rng.child_seed(0) == mix64((42 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def test_child_seed_ignores_consumed_state():
    rng = SplitMix64(42)
    before = [rng.child_seed(i) for i in range(3)]
    for _ in range(25):
        rng.next_u64()
    assert [rng.child_seed(i) for i in range(3)] == before
    assert len(set(before)) == 3


def test_child_streams_diverge():
    parent = SplitMix64(2026)
    a = parent.child(0)
    b = parent.child(1)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 1])
def test_seeds_outside_the_64_bit_range_are_refused(seed):
    # reduced mod 2^64, 2^64 would rerun seed 0's stream and -1 seed 2^64 - 1's
    with pytest.raises(ParseError, match=rf"seed must lie in 0\.\.2\^64-1, got {seed}$"):
        SplitMix64(seed)


def test_the_largest_seed_draws():
    rng = SplitMix64(2**64 - 1)
    assert rng.seed == 2**64 - 1
    assert rng.next_u64() == mix64(0x9E3779B97F4A7C15 - 1)
    assert 0 <= rng.below(10) < 10 and rng.child(0).seed == rng.child_seed(0)
