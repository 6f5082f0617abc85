"""A tiny, fully specified 64-bit generator for reproducible randomness.

Benchmark runs must reproduce bit-for-bit across platforms and across
reimplementations, so instead of a library RNG this module pins a split-mix
style generator: state advances by the 64-bit golden-ratio constant
0x9E3779B97F4A7C15 and outputs are finalized with the xor-shift/multiply
mixer (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, final shift 31).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic stream of 64-bit words; equal seeds give equal streams."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Plain modulo; the bias is < 2**-50 for
        the small ranges used here and determinism is what matters."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: list, k: int) -> list:
        """k distinct items via a partial Fisher-Yates pass."""
        if k > len(items):
            raise ValueError("sample larger than population")
        pool = list(items)
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream `index`; documented so independent
    implementations can reproduce the same per-restart streams."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)

