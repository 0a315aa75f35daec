"""The Mixup and InstaHide encryption schemes.

Both schemes publish, for a private image x_i, a convex combination of k
source images under L1-normalized coefficients lambda with max entry at most
c1. InstaHide additionally multiplies the mix by a fresh random +/-1 pixel
mask, its one-time key. The inside-dataset variant draws every source from
the private set (the first source is x_i itself); the cross-dataset variant
mixes x_i, one other private image, and k-2 public patches, with the two
private coefficients summing to at least c2, and only the private images
contribute to the published label.

Every scheme runs through one batched kernel, ``_encrypt_rows``. It takes
the sets' float32 matrices as row blocks (``_sources``: private rows, then
public rows; nothing is stacked), each output row's own image index, and one
``rng.Streams`` block of the rows' streams. ``rng.Draws`` draws every row's
partners (``_partners``, which encrypted inference also calls, so both
refuse the same sets), then lambda (``core._draw_lambdas``), then the int8
mask, each row from its own counter stream. ``_mix`` mixes the rows in
cache-sized tiles: a tile's float64 sum starts at zero, adds
``lam[:, j] * S[idx[:, j]]`` for j = 0..k-1 in turn (mix_pixels' order, so
the tile size never changes a byte) and is cast into the float32 output,
which the signs then multiply.
Each sample has one stream ``rng.child(epoch, i)``, drawn as partners ->
lambda -> mask, so a seed gives the same bytes in any block size.
A history is the kernel's columns: ``encrypt_history`` returns
EncryptedSamples and EncryptionKeys blocks, and only an integer index into a
block builds an EncryptedSample or EncryptionKey.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    Coefficients,
    Dataset,
    Image,
    LabelVector,
    SignMask,
    _draw_lambdas,
    _freeze,
    check_feasible,
)
from .errors import DimensionMismatchError, ValidationError
from .ihds import output, write_arrays
from .rng import Draws, RngStream, Streams

SCHEMES = ("mixup", "inside", "cross")

_TILE_BYTES = 1 << 18  # per float64 buffer of one _mix tile: 10 rows at d = 3072


@dataclass(frozen=True)
class SchemeConfig:
    """Encryption parameters; defaults follow the standard evaluation setup.
    Infeasible coefficient constraints are rejected here, in closed form."""

    scheme: str = "inside"
    k: int = 4
    c1: float = 0.65
    c2: float = 0.3

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if int(self.k) < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.scheme == "cross" and self.k < 3:
            raise ValidationError("cross-dataset mixing needs k >= 3")
        if not 0.0 < self.c1 <= 1.0:
            raise ValidationError(f"c1 must be in (0, 1], got {self.c1}")
        if not 0.0 <= self.c2 <= 1.0:
            raise ValidationError(f"c2 must be in [0, 1], got {self.c2}")
        check_feasible(self.k, self.c1, self.c2 if self.scheme == "cross" else 0.0)


@dataclass(frozen=True)
class EncryptionKey:
    """Ground truth for one encryption: tagged source indices, coefficients,
    and the sign mask (all +1 for plain Mixup)."""

    sources: tuple[tuple[str, int], ...]
    lam: Coefficients
    mask: SignMask

    def __post_init__(self):
        if len(self.sources) != self.lam.k:
            raise ValidationError(
                f"{len(self.sources)} sources for {self.lam.k} coefficients"
            )
        for tag, idx in self.sources:
            if tag not in ("private", "public") or int(idx) < 0:
                raise ValidationError(f"bad source ({tag!r}, {idx})")


@dataclass(frozen=True)
class EncryptedSample:
    """One published sample: mixed (and possibly masked) pixels plus the
    mixed label, tagged with the epoch and a history-unique sample id.
    ``np.asarray(sample)`` gives the published pixels, ``dims`` their shape."""

    xtilde: Image
    ytilde: LabelVector
    epoch: int = 0
    sample_id: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.xtilde.dims

    def __array__(self, dtype=None, copy=None):
        return np.array(self.xtilde.pixels, dtype=dtype, copy=copy)


# ---------------------------------------------------------------------------
# the kernel


class _Rows(NamedTuple):
    """Kernel output for m rows: float32 pixels (m, d) and labels (m, classes)
    or None, source rows of S and lambda (m, k), int8 signs (m, d) or None."""

    pixels: np.ndarray
    labels: np.ndarray | None
    sources: np.ndarray
    lam: np.ndarray
    signs: np.ndarray | None


def _sources(private, cfg: SchemeConfig, publicset=None) -> list:
    """The source blocks: the private matrix, then, for the cross scheme, the
    public set's, float32 as the sets store them (the kernel gathers and
    casts only the rows it mixes). ``private`` is a Dataset or PatchSet."""
    S = [private.matrix()]
    if cfg.scheme == "cross":
        if publicset is None:
            raise ValidationError("cross-dataset encryption needs a public set")
        if publicset.dims != private.dims:
            raise DimensionMismatchError(
                f"public patch dims {publicset.dims} != private image dims {private.dims}"
            )
        S.append(publicset.matrix())
    return S


def _partners(draws: Draws, cfg: SchemeConfig, n: int, n_public: int, own=None) -> np.ndarray:
    """Each draws row's k-1 partners among n private rows, then n_public public
    rows: distinct private rows (one for cross, else k-1; not the row's ``own``
    image when given), then k-2 public rows for cross. Refuses too few rows."""
    k, cross = cfg.k, cfg.scheme == "cross"
    pool, need = max(0, n - (own is not None)), 1 if cross else k - 1
    if pool < need or cross and n_public < k - 2:
        public = f" and {k - 2} public patches from {n_public}" if cross else ""
        raise ValidationError(f"k={k} {cfg.scheme} encryption draws {need} private partners "
                              f"from {pool} images{public}")
    j = draws.choice(pool, need)
    if own is not None:
        j += j >= own[:, None]
    return np.hstack([j, n + draws.choice(n_public, k - 2)]) if cross else j


def _mix(S, idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Float32 rows sum_j lam[:, j] * S[idx[:, j]], accumulated in float64
    slot by slot from zero as the per-sample code did, so each row matches it
    bit for bit. S is a list of row blocks stacked top to bottom; each index
    is split into (block, row) once. Rows go in tiles whose float64 sum and
    term buffers fit _TILE_BYTES, each cast into the output as it finishes;
    float32 to float64 is exact."""
    starts = np.cumsum([0] + [len(block) for block in S[:-1]])
    which = np.searchsorted(starts, idx, side="right") - 1
    local, m, d = idx - starts[which], len(idx), S[0].shape[1]
    out, step = np.empty((m, d), np.float32), max(1, _TILE_BYTES // (8 * d))
    acc, term = np.empty((2, min(step, m), d))
    for lo in range(0, m, step):
        rows, a, t = slice(lo, lo + step), acc[: m - lo], term[: m - lo]
        a.fill(0.0)
        for j in range(idx.shape[1]):
            for b, block in enumerate(S):
                hit = which[rows, j] == b
                t[hit] = block[local[rows, j][hit]]
            t *= lam[rows, j, None]
            a += t
        out[rows] = a
    return out


def _encrypt_rows(S, Y, n: int, cfg: SchemeConfig, base, streams, partners=None) -> _Rows:
    """Encrypt one row per entry of ``base``, the row of S holding its own
    image. S is a list of row blocks, n private rows then the public rows; Y
    the private label blocks, or None to skip labels. Row r draws from row r
    of the Streams block its partners (unless ``partners`` gives them as an
    (m, k-1) array of rows of S), then lambda, then the mask."""
    k, m, d, cross = cfg.k, len(base), S[0].shape[1], cfg.scheme == "cross"
    idx, draws = np.empty((m, k), dtype=np.int64), Draws(streams)
    idx[:, 0] = base
    idx[:, 1:] = partners if partners is not None else _partners(
        draws, cfg, n, sum(len(block) for block in S) - n, idx[:, 0])
    lam = _draw_lambdas(draws, k, cfg.c1, cfg.c2 if cross else 0.0)
    pixels = _mix(S, idx, lam)
    signs = draws.bits(d) * 2 - 1 if cfg.scheme != "mixup" else None
    if signs is not None:
        pixels *= signs
    labels = None
    if Y is not None:  # only private images carry labels
        slots = 2 if cross else k
        # weights and lambda are >= 0, so clipping float32 matches clipping the float64 sum
        labels = np.clip(_mix(Y, idx[:, :slots], lam[:, :slots]), 0, 1)
    return _Rows(pixels, labels, idx, lam, signs)


@dataclass(frozen=True, eq=False)
class EncryptedSamples(Sequence):
    """Published samples as columns: float32 pixels (m, d) (``np.asarray``
    gives them), labels (m, classes), epochs and history-unique sample ids.
    An integer index builds one EncryptedSample, any other index a block."""

    pixels: np.ndarray
    labels: np.ndarray
    epochs: np.ndarray
    ids: np.ndarray
    dims: tuple[int, int, int]

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return replace(self, pixels=self.pixels[i], labels=self.labels[i],
                           epochs=self.epochs[i], ids=self.ids[i])
        return EncryptedSample(Image(self.pixels[i], self.dims), LabelVector(self.labels[i]),
                               int(self.epochs[i]), int(self.ids[i]))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.pixels, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class EncryptionKeys(Sequence):
    """Keys as columns: ``sources`` (m, k) index the n private rows, then the
    public rows; ``lam`` (m, k); int8 ``signs`` (m, d), None for Mixup's +1
    masks. An integer index builds one EncryptionKey, any other index a block."""

    sources: np.ndarray
    lam: np.ndarray
    signs: np.ndarray | None
    n: int
    d: int

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return replace(self, sources=self.sources[i], lam=self.lam[i],
                           signs=None if self.signs is None else self.signs[i])
        tagged = tuple(("private", j) if j < self.n else ("public", j - self.n)
                       for j in self.sources[i].tolist())
        mask = identity_mask(self.d) if self.signs is None else SignMask(self.signs[i])
        return EncryptionKey(tagged, Coefficients(self.lam[i]), mask)


def _blocks(rows: _Rows, private: Dataset, epochs: np.ndarray, ids: np.ndarray):
    """Read-only (samples, keys) blocks of kernel rows of ``private``."""
    for col in (*rows, epochs, ids):
        if col is not None:
            _freeze(col)
    return (EncryptedSamples(rows.pixels, rows.labels, epochs, ids, private.dims),
            EncryptionKeys(rows.sources, rows.lam, rows.signs, private.n, private.d))


# ---------------------------------------------------------------------------
# object-level wrappers


def mix_pixels(images: list[Image], lam: Coefficients) -> np.ndarray:
    if len(images) != lam.k:
        raise ValidationError(f"{len(images)} images for {lam.k} coefficients")
    S = [Dataset(images).matrix()]  # refuses mixed dims
    return _mix(S, np.arange(lam.k)[None], lam.values[None])[0]


def apply_mask(x, mask: SignMask):
    """Multiply pixels by the +/-1 mask. Involutive and magnitude-preserving
    bit for bit. Accepts an Image or a raw array; returns the same kind."""
    arr = np.asarray(x)
    if arr.shape[-1] != mask.d:
        raise DimensionMismatchError(f"mask length {mask.d} != pixel length {arr.shape[-1]}")
    return Image(arr * mask.signs, x.dims) if isinstance(x, Image) else arr * mask.signs


def identity_mask(d: int) -> SignMask:
    return SignMask(np.ones(d, dtype=np.int8))


def encrypt_sample(
    private: Dataset, i: int, cfg: SchemeConfig, rng: RngStream, publicset=None,
    epoch: int = 0, sample_id: int = 0,
) -> tuple[EncryptedSample, EncryptionKey]:
    """Encrypt one private image under any scheme. The sets' matrices are
    used as stored and only the k source rows it mixes are cast, so this
    stays cheap on a large pool."""
    if not 0 <= int(i) < private.n:
        raise ValidationError(f"index {i} out of range for n={private.n}")
    S, Y = _sources(private, cfg, publicset), [private.label_matrix()]
    rows = _encrypt_rows(S, Y, private.n, cfg, [int(i)], Streams(rng.seed, [rng.stream]))
    samples, keys = _blocks(rows, private, np.array([epoch]), np.array([sample_id]))
    return samples[0], keys[0]


def _history(private: Dataset, cfg: SchemeConfig, epochs, rng: RngStream, publicset):
    """Samples and keys of the given epochs, each mixed on its own (no
    (n * T, d) float64 buffer) and permuted straight into the preallocated
    columns. The sample id of private image i in epoch t is t * n + i."""
    if not len(epochs):
        raise ValidationError("need at least one epoch")
    S, Y = _sources(private, cfg, publicset), [private.label_matrix()]
    n, m, cols = private.n, len(epochs) * private.n, None
    for e, t in enumerate(epochs):
        rows = _encrypt_rows(S, Y, n, cfg, range(n), rng.children(t, ids=np.arange(n)))
        perm = rng.child(t, "perm").generator().permutation(n)
        if cols is None:
            cols = _Rows(*(None if c is None else np.empty((m, *c.shape[1:]), c.dtype)
                           for c in rows))
        for col, part in zip(cols, rows):
            if col is not None:  # "clip" writes to out without a buffered copy
                np.take(part, perm, axis=0, out=col[e * n : (e + 1) * n], mode="clip")
    epochs = np.repeat(np.asarray(epochs, dtype=np.int64), n)
    return _blocks(cols, private, epochs, epochs * n + cols.sources[:, 0])


def encrypt_epoch(
    private: Dataset, cfg: SchemeConfig, epoch: int, rng: RngStream, publicset=None
):
    """Encrypt every private image once with fresh keys, in a random output
    order; returns aligned (samples, keys) blocks. Sample ids are
    epoch * n + i, so merge order is recoverable."""
    return _history(private, cfg, [epoch], rng, publicset)


def encrypt_history(
    private: Dataset, cfg: SchemeConfig, epochs: int, rng: RngStream, publicset=None
):
    """T >= 1 epochs of encryptions with per-epoch fresh keys; returns aligned
    (samples, keys) blocks of length n * T."""
    return _history(private, cfg, range(int(epochs)), rng, publicset)


def encrypt_input(
    x: Image, others: list[Image], cfg: SchemeConfig, rng: RngStream
) -> Image:
    """Inference-time encryption of a single input (labels play no role).

    ``others`` supplies the k-1 partner images; for the cross scheme the
    first one stands in for the second private image so the c2 floor applies
    to x and others[0].
    """
    if len(others) != cfg.k - 1:
        raise ValidationError(f"need {cfg.k - 1} partner images, got {len(others)}")
    S = [Dataset([x, *others]).matrix()]  # refuses mixed dims
    rows = _encrypt_rows(S, None, 1, cfg, [0], Streams(rng.seed, [rng.stream]),
                         partners=np.arange(1, cfg.k)[None])
    return Image(rows.pixels[0], x.dims)


def export_challenge(samples, path: str | Path, meta: dict) -> tuple[Path, Path]:
    """Write a challenge release: the encrypted samples as IHDS plus a
    key=value sidecar of public parameters. Keys and originals never touch
    this path. ``samples`` is an EncryptedSamples block."""
    if not len(samples):
        raise ValidationError("challenge export needs at least one sample")
    sidecar = Path(f"{path}.meta.txt")
    with output(sidecar, "w") as fh:  # its block publishes both files or neither
        path = write_arrays(path, np.asarray(samples).reshape(-1, *samples.dims), samples.labels)
        fh.writelines(f"{k}={meta[k]}\n" for k in sorted(meta))
    return path, sidecar
