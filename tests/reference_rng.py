"""Scalar reference of the per-row key streams, in Python ints.

One ``RowStream`` is one row of an ``instahide.rng.Draws`` block, written
out draw by draw from the layout's definition and sharing no code with the
package: the key ``mix(mix(seed) ^ stream)``, the counter state stepping by
GAMMA, 53-bit doubles, Lemire's bounded integers on the top 32 bits,
Floyd's algorithm with a Fisher-Yates shuffle, and bits as little-endian
bytes unpacked most significant bit first. test_rng.py checks the block
draws against it, and reference_encrypt.py draws its per-row keys from it
through the numpy-like ``RowStream`` methods.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z: int) -> int:
    """SplitMix64 step and finalizer."""
    z = (z + GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class RowStream:
    """The SplitMix64 stream of one (seed, stream) pair."""

    def __init__(self, seed: int, stream: int):
        self.state = mix(mix(seed) ^ stream)

    def next64(self) -> int:
        out = mix(self.state)
        self.state = (self.state + GAMMA) & MASK
        return out

    def double(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def bounded(self, bound: int) -> int:
        """Uniform in [0, bound], bound < 2**32; bound 0 draws nothing."""
        if bound == 0:
            return 0
        while True:
            prod = (self.next64() >> 32) * (bound + 1)
            if prod & 0xFFFFFFFF >= (1 << 32) % (bound + 1):
                return prod >> 32

    def sample(self, pop: int, size: int) -> list[int]:
        """``size`` distinct values in [0, pop): Floyd, then Fisher-Yates."""
        out = []
        for j in range(pop - size, pop):
            v = self.bounded(j)
            out.append(j if v in out else v)
        for i in range(size - 1, 0, -1):
            j = self.bounded(i)
            out[i], out[j] = out[j], out[i]
        return out

    def bit_list(self, d: int) -> list[int]:
        words = [self.next64() for _ in range(-(-d // 64))]
        raw = b"".join(w.to_bytes(8, "little") for w in words)
        return [(raw[i // 8] >> (7 - i % 8)) & 1 for i in range(d)]

    # numpy Generator-like calls, as the per-sample reference code makes them

    def random(self, size: int) -> np.ndarray:
        return np.array([self.double() for _ in range(size)])

    def choice(self, a, size: int, replace: bool = True) -> np.ndarray:
        assert not replace, "only distinct picks are defined"
        pool = np.arange(a) if np.ndim(a) == 0 else np.asarray(a)
        return pool[np.array(self.sample(len(pool), size), dtype=np.int64)]

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        if size is None:
            return low + self.bounded(high - low - 1)
        assert (low, high) == (0, 2), "sized draws are the sign-mask bits"
        return np.array(self.bit_list(size), dtype=dtype)
