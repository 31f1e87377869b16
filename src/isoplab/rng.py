"""Deterministic 64-bit random generator used for all set sampling.

The generator is SplitMix64: state advances by the golden-gamma increment
0x9E3779B97F4A7C15 mod 2^64 and each output is the murmur-style finalizer
of the new state (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27,
multiply 0x94D049BB133111EB, xor-shift 31).  The algorithm is fixed so that
a seed reproduces the identical draw sequence on any platform or
implementation.

Sub-streams: child i of a stream seeded s is seeded with output i+1 of
SplitMix64(s) itself, i.e. mix64(s + (i+1)*GAMMA).  Children are derived
from the original seed, never from consumed state, so deriving a child is
independent of how much of the parent stream has been drawn.
"""

from __future__ import annotations

from .errors import ParseError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (all arithmetic mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream with unbiased bounded draws and seed splitting."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:  # reduced mod 2^64, it would rerun another seed's stream
            raise ParseError(f"seed must lie in 0..2^64-1, got {seed}")
        self.seed = self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection: accept u < 2^64 - (2^64 mod n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def child_seed(self, i: int) -> int:
        """Seed of sub-stream i: output i+1 of the stream seeded at self.seed."""
        if i < 0:
            raise ValueError("child index must be non-negative")
        return mix64((self.seed + (i + 1) * _GAMMA) & _MASK64)

    def child(self, i: int) -> "SplitMix64":
        return SplitMix64(self.child_seed(i))
