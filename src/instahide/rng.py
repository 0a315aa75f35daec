"""Deterministic, splittable random streams.

Every stochastic operation in this package takes an explicit :class:`RngStream`;
nothing reads or writes numpy's global generator. A stream is named by a
64-bit ``(seed, stream)`` pair. Equal pairs reproduce the same byte sequence
on any platform, distinct pairs give statistically independent streams, and
:meth:`RngStream.child` derives fresh stream ids so that per-image, per-epoch,
or per-probe draws never alias each other. ``RngStream.generator`` serves
per-call draws (permutations, picks, probes, SGD, synthetic data).

Per-row keys (partners, lambda, sign masks, crop offsets, oracle flips) are
drawn by :class:`Draws` for a whole :class:`Streams` block. Row r is a
SplitMix64 stream (Steele, Lea & Flood 2014) used as a counter-based generator
(Salmon et al. 2011): its key is ``splitmix64(splitmix64(seed) ^ ids[r])`` and
its output t is ``splitmix64(key + t * GAMMA)``. Doubles take an output's top
53 bits, bounded integers its top 32 by Lemire's method with rejection, so
they are exactly uniform. The layout is the package's own: its bytes do not
depend on the numpy version. Two rows' runs of L outputs overlap only if their
keys lie within L steps of GAMMA: among m rows, probability about m^2 L / 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# the same constants as np.uint64, so that array arithmetic converts none of them
_GAMMA_U, _M1_U, _M2_U, _S30, _S27, _S31 = map(np.uint64, (_GAMMA, _M1, _M2, 30, 27, 31))


def _splitmix64(x):
    # splitmix64 step and finalizer: wrapping on uint64 arrays, exact on Python ints
    # (masked, as numpy uint64 scalars would warn on overflow)
    if isinstance(x, np.ndarray):
        x = x + _GAMMA_U
        x = (x ^ (x >> _S30)) * _M1_U
        x = (x ^ (x >> _S27)) * _M2_U
        return x ^ (x >> _S31)
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _M1) & _MASK64
    x = ((x ^ (x >> 27)) * _M2) & _MASK64
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

    def generator(self) -> Generator:
        """A fresh generator positioned at the start of this stream."""
        return Generator(PCG64(SeedSequence(self.seed, spawn_key=(self.stream,))))

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


class Draws:
    """A Streams block's rows drawn together: ``s`` holds each row's state, its
    key plus its cursor times GAMMA. ``random`` reads ahead of the cursors,
    ``advance`` moves them, and ``integers``, ``choice`` and ``bits`` draw and
    move them. A row's draws depend on its key and the calls, not the block."""

    chunk = 1 << 17  # uint64 words per temporary (1 MiB)

    def __init__(self, streams: Streams):
        self.s = _fold_tag(_splitmix64(streams.seed), streams.ids)
        self.m = len(self.s)

    def chunks(self, rows: np.ndarray, width: int):
        """``rows`` in runs whose (run, width) uint64 temporaries fit ``chunk``."""
        step = max(1, self.chunk // max(1, width))
        return (rows[i : i + step] for i in range(0, len(rows), step))

    def _outputs(self, rows, lo: int, hi: int) -> np.ndarray:
        """(len(rows), hi - lo) uint64: outputs lo..hi-1 past the rows' cursors."""
        return _splitmix64(self.s[rows, None] + np.arange(lo, hi, dtype=np.uint64) * _GAMMA_U)

    def advance(self, rows, t) -> None:
        """Move the rows' cursors on by t outputs, a count or one count per row."""
        self.s[rows] += np.asarray(t, dtype=np.uint64) * _GAMMA_U

    def random(self, rows, lo: int, hi: int) -> np.ndarray:
        """(len(rows), hi - lo) doubles in [0, 1): outputs lo..hi-1's top 53 bits."""
        return (self._outputs(rows, lo, hi) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def integers(self, high: int, size: int) -> np.ndarray:
        """(m, size) int64: every row's next ``size`` integers in [0, high <= 2**32),
        each by Lemire's multiply-shift on the top 32 bits of an output, redrawn
        while the low product is under 2**32 mod high; high 1 draws nothing.
        Rows draw ``size`` outputs at once; a row that had one rejected draws its
        missing count again until it has ``size`` accepted, kept in stream order."""
        out = np.zeros((self.m, size), np.int64)
        excl, threshold = np.uint64(high), np.uint64((1 << 32) % high)

        def draw(rows, count):  # the rows' next count values, and which are accepted
            prod = (self._outputs(rows, 0, count) >> np.uint64(32)) * excl
            self.advance(rows, count)
            return prod >> np.uint64(32), (prod & np.uint64(0xFFFFFFFF)) >= threshold

        for sub in self.chunks(np.arange(self.m if high > 1 else 0), size):
            out[sub], ok = draw(sub, size)
            for r in np.flatnonzero(~ok.all(axis=1)):  # rare: a rejected output
                kept = out[sub[r], ok[r]]
                while kept.size < size:
                    v, accepted = draw(sub[r : r + 1], size - kept.size)
                    kept = np.concatenate([kept, v[accepted].astype(np.int64)])
                out[sub[r]] = kept
        return out

    def choice(self, pop: int, size: int) -> np.ndarray:
        """(m, size) int64: every row's ``size`` distinct integers in [0, pop),
        each slot uniform: Floyd's algorithm, then a Fisher-Yates shuffle."""
        out, rows = np.empty((self.m, size), np.int64), np.arange(self.m)
        for t, j in enumerate(range(pop - size, pop)):
            v = self.integers(j + 1, 1)[:, 0]
            out[:, t] = np.where((out[:, :t] == v[:, None]).any(axis=1), j, v)
        for i in range(size - 1, 0, -1):
            j, held = self.integers(i + 1, 1)[:, 0], out[:, i].copy()  # swap i, uniform j <= i
            out[:, i] = out[rows, j]
            out[rows, j] = held
        return out

    def bits(self, d: int) -> np.ndarray:
        """(m, d) int8 0/1: the next ceil(d / 64) outputs' little-endian bytes, unpacked."""
        n, out = -(-d // 64), np.empty((self.m, d), np.int8)
        for rows in self.chunks(np.arange(self.m), n):
            words = self._outputs(rows, 0, n).astype("<u8", copy=False)
            out[rows] = np.unpackbits(words.view(np.uint8), axis=1, count=d)
        self.advance(slice(None), n)
        return out
