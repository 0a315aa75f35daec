"""Deterministic, splittable random streams.

Every stochastic operation in this package takes an explicit :class:`RngStream`;
nothing reads or writes numpy's global generator. A stream is named by a
64-bit ``(seed, stream)`` pair. Equal pairs reproduce the same byte sequence
on any platform, distinct pairs give statistically independent streams, and
:meth:`RngStream.child` derives fresh stream ids so that per-image, per-epoch,
or per-probe draws never alias each other.

Per-row streams are opened as a block: ``children`` folds a :class:`Streams`
id column with ``child``'s splitmix64 in uint64 numpy arithmetic. Row r's
generator is a PCG64 seeded with ``SeedSequence(seed, spawn_key=(ids[r],))
.generate_state(4, np.uint64)``, computed for all rows at once by ``_states``
(numpy's uint32 hashmix/mix of the id, one word below 2**32 and two above,
into the pool of the zero-padded seed), so it draws RngStream(seed, ids[r]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


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
