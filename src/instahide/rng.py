"""Deterministic, splittable random streams.

Every stochastic operation in this package takes an explicit :class:`RngStream`;
nothing reads or writes numpy's global generator. A stream is named by a
64-bit ``(seed, stream)`` pair. Equal pairs reproduce the same byte sequence
on any platform, distinct pairs give statistically independent streams, and
:meth:`RngStream.child` derives fresh stream ids so that per-image, per-epoch,
or per-probe draws never alias each other.

Per-row streams form a :class:`Streams` block: ``children`` folds an id
column with ``child``'s splitmix64, and ``_states`` computes each row's
``SeedSequence(seed, spawn_key=(ids[r],)).generate_state(4, np.uint64)``.
:class:`Draws` replays the rows' generators together, byte for byte: PCG64
(XSL-RR over a 128-bit LCG, O'Neill 2014) in uint64 limbs with jump-ahead,
Lemire's bounded integers (2019), ``choice``'s Floyd sampling and shuffles,
``random``'s doubles and ``integers(0, 2, d, int8)``'s bytes. Long per-row
sequences open real generators (``Streams.generators``): numpy's C is faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _splitmix64(x):
    # splitmix64 finalizer, exact on Python ints and on (wrapping) uint64 arrays
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fold_tag(state, tag):
    if isinstance(tag, str):
        h = 0
        for byte in tag.encode("utf-8"):
            h = _splitmix64(h ^ byte)
        tag = h
    elif isinstance(tag, (int, np.integer)):
        tag = int(tag) & _MASK64
    elif isinstance(tag, np.ndarray) and tag.dtype.kind in "iu":
        tag = tag.astype(np.uint64)  # per-row tags; negatives wrap as & _MASK64 does
    else:
        raise ValidationError(f"stream tags must be int or str, got {type(tag).__name__}")
    return _splitmix64(state ^ tag)


def _derive(state, tags):
    if not tags:
        raise ValidationError("child() needs at least one tag")
    state = _splitmix64(state ^ 0xA5A5A5A5A5A5A5A5)
    for tag in tags:
        state = _fold_tag(state, tag)
    return state


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one reproducible random sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer")
            if not 0 <= int(v) < (1 << 64):
                raise ValidationError(f"{name} must fit in 64 unsigned bits, got {v}")
            object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, *tags: int | str) -> "RngStream":
        """Derive an independent stream; equal tag paths give equal streams."""
        return RngStream(self.seed, _derive(self.stream, tags))

    def children(self, *prefix: int | str, ids) -> "Streams":
        """The block whose row r is ``self.child(*prefix, ids[r])``."""
        return Streams(self.seed, [self.stream]).child(*prefix, np.asarray(ids))


@dataclass(frozen=True, eq=False)
class Streams:
    """A column of streams under one seed: row r is RngStream(seed, ids[r])."""

    seed: int
    ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.uint64).reshape(-1))

    def child(self, *tags) -> "Streams":
        """Row r becomes row r's ``child(*tags)``; a tag is a scalar or a
        per-row integer array, and a one-row block broadcasts against it."""
        return Streams(self.seed, _derive(self.ids, tags))

    def generators(self):
        """Each row's generator in order, opened lazily one row at a time."""
        for state in _states(self.seed, self.ids):
            yield np.random.Generator(np.random.PCG64(_Fixed(state)))


@dataclass(frozen=True, eq=False)
class _Fixed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state was already generated."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _states(seed: int, ids: np.ndarray) -> np.ndarray:
    """(m, 4) uint64: SeedSequence(seed, spawn_key=(ids[r],)).generate_state(4,
    np.uint64) for every row. SeedSequence(seed)'s pool already holds the seed,
    hashmix(0)-padded as a spawn key pads it, so the ids go on at hash step 16."""

    def hashmix(v, h):  # h = [hash constant, multiplier], advanced in place
        h[0], before = h[0] * h[1] & 0xFFFFFFFF, h[0]
        v = (v ^ np.uint32(before)) * np.uint32(h[0])
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ (r >> np.uint32(16))

    pool = list(np.random.SeedSequence(seed).pool[:, None])
    entropy = [0x43B0D7E5 * pow(0x931E8875, 16, 1 << 32) & 0xFFFFFFFF, 0x931E8875]
    lo, hi = ids.astype(np.uint32), (ids >> np.uint64(32)).astype(np.uint32)
    pool = [mix(p, hashmix(lo, entropy)) for p in pool]
    pool = [np.where(hi > 0, mix(p, hashmix(hi, entropy)), p) for p in pool]  # two-word ids
    out = [0x8B51F9DD, 0x58F38DED]
    words = [hashmix(pool[j % 4], out) for j in range(8)]
    return np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _mul(a, b):
    """a * b mod 2**128 on (high, low) uint64 limb pairs, elementwise."""
    a1, a0, b1, b0 = a[1] >> 32, a[1] & 0xFFFFFFFF, b[1] >> 32, b[1] & 0xFFFFFFFF
    mid = a1 * b0 + (a0 * b0 >> 32)
    mid2 = a0 * b1 + (mid & 0xFFFFFFFF)
    return a1 * b1 + (mid >> 32) + (mid2 >> 32) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _affine(jump, s, inc):
    """States t outputs past states s, for jump = _jump(t): A s + B inc."""
    (ah, al), (bh, bl) = _mul(jump[:2], s), _mul(jump[2:], inc)
    return ah + bh + (al + bl < al), al + bl


@lru_cache(maxsize=None)
def _jump(t: int) -> np.ndarray:
    """Limbs of (M**t, (M**t - 1) / (M - 1)) mod 2**128, the latter from M**t mod q."""
    q = (_MULT - 1) << 128
    a, b = pow(_MULT, t, 1 << 128), (pow(_MULT, t, q) - 1) % q // (_MULT - 1)
    return np.array([a >> 64, a & _MASK64, b >> 64, b & _MASK64], np.uint64)


@lru_cache(maxsize=None)
def _jumps(size: int) -> np.ndarray:
    """(4, size): _jump(t) for t < size, computed uncached (long-lived entries pin heap)."""
    return np.stack([_jump.__wrapped__(t) for t in range(size)], axis=1)


def _xsl_rr(s) -> np.ndarray:
    x, rot = s[0] ^ s[1], s[0] >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


class Draws:
    """A Streams block's generators replayed together: each row's PCG64 state
    at its cursor, increment and buffered high 32-bit half. Each method gives
    every row what its own Generator returns for the same call sequence."""

    def __init__(self, streams: Streams):
        w = _states(streams.seed, streams.ids).T
        self.m, self.inc = w.shape[1], np.array([w[2] << 1 | w[3] >> 63, w[3] << 1 | 1])
        # numpy's srandom steps from 0 to inc, adds the seed and steps again
        self.s = np.array(_affine(np.r_[_jump(1)[:2], _jump(2)[2:]], w[:2], self.inc))
        self.half, self.has = np.zeros(self.m, np.uint64), np.zeros(self.m, bool)

    def _outputs(self, rows, lo: int, hi: int) -> np.ndarray:
        """(len(rows), hi - lo) uint64: outputs lo..hi-1 past the rows' cursors."""
        s, inc = self.s[:, rows], self.inc[:, rows]
        if lo:
            s = np.array(_affine(_jump(lo), s, inc))
        table = _jumps(1 << (hi - lo).bit_length())[:, 1 : hi - lo + 1]
        return _xsl_rr(_affine(table, s[:, :, None], inc[:, :, None]))

    def advance(self, rows, t: int) -> None:
        self.s[:, rows] = _affine(_jump(t), self.s[:, rows], self.inc[:, rows])

    def random(self, rows, lo: int, hi: int) -> np.ndarray:
        """Doubles lo..hi-1 of the rows' next ``Generator.random`` calls."""
        return (self._outputs(rows, lo, hi) >> 11) * (1.0 / 9007199254740992.0)

    def _bounded(self, bound: int) -> np.ndarray:
        """Every row's integer in [0, bound < 2**32] by Lemire's method on 32-bit
        draws (a buffered high half, else a fresh low half); 0 draws nothing."""
        out, todo = np.zeros(self.m, np.uint64), np.arange(self.m if bound else 0)
        excl, threshold = np.uint64(bound + 1), np.uint64((1 << 32) % (bound + 1))
        while todo.size:
            fresh = ~self.has[todo]
            word, stepped = self.half[todo], todo[fresh]
            self.advance(stepped, 1)
            u = _xsl_rr(self.s[:, stepped])
            word[fresh], self.half[stepped], self.has[todo] = u & 0xFFFFFFFF, u >> 32, fresh
            out[todo] = (prod := word * excl) >> 32
            todo = todo[(prod & 0xFFFFFFFF) < threshold]
        return out.astype(np.int64)

    def choice(self, pop: int, size: int) -> np.ndarray:
        """(m, size) int64: every row's ``Generator.choice(pop, size, replace=False)``
        (size 1: ``integers(0, pop)``): Floyd's algorithm, then a shuffle; for pop >
        10,000 and size > pop // 50, a shuffle of the range's tail (an (m, pop) array)."""
        tail = pop > 10_000 and size > pop // 50
        out = np.tile(np.arange(pop), (self.m, 1)) if tail else np.empty((self.m, size), np.int64)
        for t, j in enumerate(() if tail else range(pop - size, pop)):
            v = self._bounded(j)
            out[:, t] = np.where((out[:, :t] == v[:, None]).any(axis=1), j, v)
        rows = np.arange(self.m)
        for i in range(out.shape[1] - 1, max(pop - size, 1) - 1 if tail else 0, -1):
            j, held = self._bounded(i), out[:, i].copy()  # swap i with a uniform j <= i
            out[:, i] = out[rows, j]
            out[rows, j] = held
        return out[:, out.shape[1] - size :]

    def bits(self, d: int) -> np.ndarray:
        """(m, d) int8: every row's ``Generator.integers(0, 2, d, np.int8)``, the top bit
        of each byte of its 32-bit draws. It is a row's last draw: cursors stay."""
        words = -(-d // 4)
        n, out = (words + 1) // 2, np.empty((self.m, d), np.int8)
        for lo in range(0, self.m, step := max(1, (1 << 17) // n)):  # 1 MiB temporaries
            rows = np.arange(lo, min(self.m, lo + step))
            halves = self._outputs(rows, 0, n).astype("<u8", copy=False).view("<u4")
            ext = np.concatenate([self.half[rows, None].astype("<u4"), halves], axis=1)
            w = np.where(self.has[rows, None], ext[:, :words], ext[:, 1 : words + 1])
            out[rows] = w.astype("<u4", copy=False).view(np.uint8)[:, :d] >> 7
        return out
