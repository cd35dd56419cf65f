"""Deterministic counter-based random stream.

Values are derived by hashing (key, substream..., block counter) with
blake2b, so a draw depends only on the seed and the substream labels, never
on how many draws other streams have made.  That makes parallel sampling
reproduce serial sampling exactly, on any platform.
"""

from __future__ import annotations

import hashlib
import struct

_MASK64 = (1 << 64) - 1
_WORDS = struct.Struct(">8Q")


class CounterStream:
    """Uniform integers keyed on (seed, *substream)."""

    def __init__(self, seed: int, *substream: int):
        self._key = struct.pack(">Q", seed & _MASK64)
        self._label = b"".join(struct.pack(">Q", s & _MASK64) for s in substream)
        self._block = 0
        self._words: list[int] = []

    def _refill(self) -> None:
        h = hashlib.blake2b(
            self._label + struct.pack(">Q", self._block), key=self._key, digest_size=64
        )
        # The digest's eight big-endian words, last first, so `_word` pops
        # them in order.
        self._words = list(_WORDS.unpack(h.digest()))[::-1]
        self._block += 1

    def _word(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop()

    def uniform_int(self, lo: int, hi: int) -> int:
        """Unbiased uniform draw from the inclusive range [lo, hi]."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError("empty range")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % span
        while True:
            w = self._word()
            if w < limit:
                return lo + w % span
