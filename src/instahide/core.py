"""Core domain types and primitives: images, labels, mixing coefficients,
sign masks, normalization, and the rejection samplers the encryption schemes
are built on.

Conventions: pixel payloads are float32 vectors of length d = channels *
height * width (channel-major). A Dataset (publicprep.PatchSet is one, an
unlabelled set with provenance columns) holds its rows as one frozen float32
(n, d) matrix, checked once when built, and makes Image and LabelVector views
of its rows only when asked for them; an empty set carries its dims too.
Every package object that holds numbers implements ``__array__``, so
``np.asarray(x)`` gives an Image's or EncryptedSample's pixel row, a
LabelVector's weights, or a set's (n, d) matrix. All statistics and
accumulations run in float64. Scoring kernels stream a pool in float64
row blocks (``float64_blocks``); scan_scores reduces each row with
``np.einsum``, not BLAS, so a row's score is the same bits whatever the row
count, the chunk size or the number of BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    ValidationError,
)
from .rng import Draws, RngStream, Streams

# sample_coefficients gives up after this many rejected candidates.
REJECTION_CAP = 1_000_000

# Float64 bytes per row block of the exact scan and fourth-moment kernels, pair
# products and SSIM gathers (attacks' float32 screens use attacks.SCREEN_BYTES).
CHUNK_BYTES = 1 << 23


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` over blocks of leading-axis rows of about
    1 MiB, so no bool array of x's size is made; empty arrays pass."""
    step = max(1, (1 << 20) // max(1, x[:1].nbytes))
    return all(np.isfinite(x[lo : lo + step]).all() for lo in range(0, len(x), step))


@dataclass(frozen=True, eq=False)
class Image:
    """A float32 pixel vector plus its (channels, height, width) geometry."""

    pixels: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        px, dims = _row_matrix(np.reshape(self.pixels, (1, -1)), self.dims)
        object.__setattr__(self, "pixels", px[0])
        object.__setattr__(self, "dims", dims)

    @property
    def d(self) -> int:
        return self.pixels.size

    def as_chw(self) -> np.ndarray:
        """Read-only (channels, height, width) view."""
        return self.pixels.reshape(self.dims)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.pixels, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return self.dims == other.dims and self.pixels.tobytes() == other.pixels.tobytes()


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Per-class weights in [0, 1]; the total may be below 1 when part of the
    mix carries no label."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.reshape(self.weights, (1, -1))
        object.__setattr__(self, "weights", _label_matrix(w, 1)[0])

    @property
    def classes(self) -> int:
        return self.weights.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.weights, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, LabelVector):
            return NotImplemented
        return self.weights.tobytes() == other.weights.tobytes()


def one_hot(label: int, classes: int) -> LabelVector:
    if not (0 <= label < classes and label == int(label)):
        raise ValidationError(f"label {label} is not a class index in [0, {classes})")
    return LabelVector(np.arange(classes) == label)


def _dims(dims) -> tuple[int, int, int]:
    dims = tuple(map(int, dims))
    if len(dims) != 3 or min(dims) < 1:
        raise ValidationError(f"dims must be three positive ints, got {dims}")
    return dims


def _row_matrix(rows, dims=None):
    """The frozen float32 (n, d) matrix that Image and Dataset store and its
    dims, from Images, an (n, C, H, W) array, or an (n, d) array and ``dims``;
    an empty sequence of Images needs ``dims``. Writable arrays are copied,
    read-only ones shared. Every row is checked at once to be finite."""
    dims = None if dims is None else _dims(dims)
    if not isinstance(rows, np.ndarray):
        rows = tuple(rows)
        if not rows:
            if dims is None:
                raise ValidationError("an empty set must declare its dims")
            return _freeze(np.zeros((0, np.prod(dims)), np.float32)), dims
        if any(im.dims != rows[0].dims for im in rows):
            raise DimensionMismatchError("images have mixed dims")
        rows = _freeze(np.stack([im.as_chw() for im in rows]))
    if rows.ndim == 4:
        if dims is not None and dims != rows.shape[1:]:
            raise DimensionMismatchError(f"declared dims {dims} != image dims {rows.shape[1:]}")
        dims = tuple(int(v) for v in rows.shape[1:])
    elif rows.ndim != 2 or dims is None:
        raise ValidationError(f"pixels must be (n, C, H, W), or (n, d) with dims: {rows.shape}")
    d = dims[0] * dims[1] * dims[2]
    if rows.ndim == 2 and rows.shape[1] != d:
        raise DimensionMismatchError(f"pixel count {rows.shape[1]} != prod(dims) {d}")
    # copy what the caller can still write to; share the rest (IHDS reads)
    px = (np.array if rows.flags.writeable else np.ascontiguousarray)(rows, np.float32)
    px = px.reshape(len(rows), d)
    if not _all_finite(px):
        raise ValidationError("pixels must be finite")
    return _freeze(px), dims


def _label_matrix(labels, n: int, classes=None) -> np.ndarray:
    """The frozen float32 (n, classes) matrix that LabelVector and Dataset
    store (always a copy), from a LabelVector sequence or an array; every row
    is checked at once: at least one class, finite, in [0, 1]."""
    if not isinstance(labels, np.ndarray):
        labels = tuple(labels)
        if len({lb.classes for lb in labels}) > 1:
            raise ValidationError("labels have mixed class counts")
        width = int(classes or 0)
        labels = np.stack([lb.weights for lb in labels]) if labels else np.zeros((0, width))
    w = np.array(labels, np.float32)
    if w.ndim != 2 or len(w) != n:
        raise ValidationError(f"{len(w)} labels for {n} images")
    if len(w) and classes is not None and int(classes) != w.shape[1]:
        raise ValidationError(f"declared classes {classes} != label width {w.shape[1]}")
    if len(w) and w.shape[1] == 0:
        raise ValidationError("label vector must have at least one class")
    if not _all_finite(w):
        raise ValidationError("label weights must be finite")
    if w.size and (w.min() < -1e-6 or w.max() > 1.0 + 1e-6):
        raise ValidationError(f"label weights outside [0, 1]: {w.min()}..{w.max()}")
    return _freeze(w)


class Dataset:
    """An ordered collection of same-shape images with optional labels, held
    as one frozen float32 (n, d) pixel matrix and one (n, classes) label
    matrix; ``classes`` is None exactly when there are no labels.

    ``images`` is a sequence of Images or a pixel array (see _row_matrix),
    ``labels`` a sequence of LabelVectors or an (n, classes) array.
    """

    def __init__(self, images, labels=None, dims=None, classes=None, name: str = ""):
        self._pixels, self.dims = _row_matrix(images, dims)
        self._labels = None if labels is None else _label_matrix(labels, self.n, classes)
        self.classes = None if labels is None else self._labels.shape[1]
        self.name = name

    @property
    def n(self) -> int:
        return len(self._pixels)

    def __len__(self) -> int:
        return len(self._pixels)

    @property
    def d(self) -> int:
        return self._pixels.shape[1]

    @cached_property
    def images(self) -> tuple[Image, ...]:
        """Image views of the rows, built on first use."""
        return tuple(Image(row, self.dims) for row in self._pixels)

    @cached_property
    def labels(self) -> tuple[LabelVector, ...] | None:
        """LabelVector objects of the label rows, built on first use."""
        return None if self._labels is None else tuple(LabelVector(w) for w in self._labels)

    def matrix(self) -> np.ndarray:
        """The (n, d) float32 pixel matrix, shared and read-only."""
        return self._pixels

    def label_matrix(self) -> np.ndarray:
        """The (n, classes) float32 label matrix, shared and read-only."""
        if self._labels is None:
            raise ValidationError("dataset has no labels")
        return self._labels

    def __array__(self, dtype=None, copy=None):
        return np.array(self._pixels, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.dims, self.classes) == (other.dims, other.classes)
            and self._pixels.tobytes() == other._pixels.tobytes()
            and (self.classes is None or self._labels.tobytes() == other._labels.tobytes())
        )


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Nonnegative mixing weights summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise ValidationError("coefficients must be non-empty")
        if not np.all(np.isfinite(v)) or v.min() < -1e-12:
            raise ValidationError("coefficients must be finite and nonnegative")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValidationError(f"coefficients must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def k(self) -> int:
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, Coefficients):
            return NotImplemented
        return self.values.tobytes() == other.values.tobytes()


@dataclass(frozen=True, eq=False)
class SignMask:
    """A +/-1 vector applied pixel-wise; the one-time key of the scheme."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.signs, dtype=np.int8).reshape(-1)
        if s.size == 0:
            raise ValidationError("mask must be non-empty")
        if not np.all(np.abs(s) == 1):
            raise ValidationError("mask entries must be +1 or -1")
        object.__setattr__(self, "signs", _freeze(s))

    @property
    def d(self) -> int:
        return self.signs.size

    def __eq__(self, other):
        if not isinstance(other, SignMask):
            return NotImplemented
        return self.signs.tobytes() == other.signs.tobytes()


# ---------------------------------------------------------------------------
# primitive operations


def _normalize_rows(px: np.ndarray) -> np.ndarray:
    """normalize_image on every row of an (n, d) matrix, bit for bit: the
    stacked matmul takes each row's norm with np.linalg.norm's dot product.
    A constant row raises DegenerateInputError."""
    x = px.astype(np.float64)
    top = np.maximum(x.max(axis=1), -x.min(axis=1))  # max |x| per row
    x -= x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
    if np.any(norms <= 1e-12 * np.maximum(1.0, top)):
        raise DegenerateInputError("cannot normalize a constant image")
    x /= norms[:, None]
    return x.astype(np.float32)


def normalize_image(x: Image) -> Image:
    """Mean-center then scale to unit Euclidean norm (computed in float64).

    Raises DegenerateInputError for constant images, whose normalization is
    undefined.
    """
    return Image(_normalize_rows(x.pixels[None])[0], x.dims)


def float64_blocks(matrix: np.ndarray, row_bytes: int):
    """Yield ``(rows, block)`` over consecutive row blocks of ``matrix``: a
    slice and a float64 copy of those rows, as many as fit CHUNK_BYTES at
    ``row_bytes`` bytes per row (at least one). Every block is written into
    one buffer, so a block is only valid until the next one is drawn."""
    step = max(1, CHUNK_BYTES // max(int(row_bytes), 1))
    buf = np.empty((min(step, len(matrix)),) + matrix.shape[1:])
    for lo in range(0, len(matrix), step):
        block = buf[: min(step, len(matrix) - lo)]
        np.copyto(block, matrix[lo : lo + step])
        yield slice(lo, lo + len(block)), block


def scan_scores(matrix: np.ndarray, query) -> np.ndarray:
    """Float64 inner product of every row of ``matrix`` against ``query``,
    streamed in row blocks; a row's score does not depend on the row count,
    the chunk size or the number of BLAS threads (no BLAS is used)."""
    q = np.asarray(query).astype(np.float64).reshape(-1)
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[1] != q.size:
        raise DimensionMismatchError(f"matrix {m.shape} incompatible with query {q.size}")
    out = np.empty(m.shape[0], dtype=np.float64)
    for rows, block in float64_blocks(m, 8 * q.size):
        out[rows] = np.einsum("ij,j->i", block, q)
    return out


def check_feasible(k: int, c1: float, head_pair_min: float = 0.0) -> None:
    """Closed-form feasibility, raising InfeasibleConstraintError: k entries
    in [0, c1] summing to one exist iff c1 * k >= 1, and the first two can
    reach ``head_pair_min`` iff 2 * c1 can (c1 * k >= 1 then leaves room for
    the other k - 2 to take the rest)."""
    if c1 * k < 1.0 - 1e-12:
        raise InfeasibleConstraintError(
            f"c1*k = {c1 * k:.4g} < 1: no coefficient vector satisfies the cap"
        )
    if head_pair_min > 2.0 * c1 + 1e-12:
        raise InfeasibleConstraintError(
            f"2*c1 = {2.0 * c1:.4g} < {head_pair_min}: the first two "
            "coefficients cannot reach the pair floor"
        )


def _draw_lambdas(draws, k: int, c1: float, head_pair_min: float = 0.0) -> np.ndarray:
    """(m, k): each rng.Draws row's first admissible candidate in its own
    sequence (k doubles, L1-normalized), its cursor left just after it. Rounds
    test 1, 8, 16, ... candidates (up to ``draws.chunk`` words) on the rows
    still undecided, so round sizes change the speed, never the bytes."""
    if c1 * k < 1.0 + 1e-12:  # k = 1 or c1 * k = 1: only the uniform vector is admissible
        return np.full((draws.m, k), 1.0 / k)
    lam, rows, drawn, size = np.empty((draws.m, k)), np.arange(draws.m), 0, 1
    while rows.size and drawn < REJECTION_CAP:
        size, undecided = min(size, REJECTION_CAP - drawn), [rows[:0]]
        for sub in draws.chunks(rows, size * k):
            cand = draws.random(sub, 0, size * k).reshape(len(sub), size, k)
            sums = cand.sum(axis=2)
            cand /= sums[..., None]
            keep = (sums > 0) & (cand.max(axis=2) <= c1)
            keep &= cand[..., 0] + cand[..., 1] >= head_pair_min
            hit, first = keep.any(axis=1), keep.argmax(axis=1)
            lam[sub[hit]] = cand[hit, first[hit]]
            draws.advance(sub, np.where(hit, first + 1, size) * k)
            undecided.append(sub[~hit])
        rows, drawn = np.concatenate(undecided), drawn + size
        size = min(max(8, 2 * size), max(1, draws.chunk // k))
    if rows.size:
        raise InfeasibleConstraintError(f"no admissible coefficients after {REJECTION_CAP} "
                                        f"draws (k={k}, c1={c1}, head_pair_min={head_pair_min})")
    return lam


def sample_coefficients(
    k: int, c1: float, rng: RngStream, head_pair_min: float = 0.0
) -> Coefficients:
    """Draw mixing weights uniformly from [0,1]^k, L1-normalized, rejecting
    candidates whose largest entry exceeds ``c1``.

    ``head_pair_min`` additionally requires values[0] + values[1] to reach the
    given floor (used by the cross-dataset scheme, where the first two slots
    are the private images). Raises InfeasibleConstraintError when no
    admissible vector exists (see check_feasible) or when the rejection cap is
    exhausted.
    """
    k = int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not 0.0 < c1 <= 1.0:
        raise ValidationError(f"c1 must be in (0, 1], got {c1}")
    if head_pair_min > 0.0 and k < 2:
        raise ValidationError("head_pair_min requires k >= 2")
    check_feasible(k, c1, head_pair_min)
    draws = Draws(Streams(rng.seed, [rng.stream]))
    return Coefficients(_draw_lambdas(draws, k, c1, head_pair_min)[0])


def sample_sign_mask(d: int, rng: RngStream) -> SignMask:
    """d independent signs, +1 or -1 each with probability 1/2."""
    if int(d) < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    return SignMask(Draws(Streams(rng.seed, [rng.stream])).bits(int(d))[0] * 2 - 1)


def make_gaussian_dataset(
    n: int,
    dims: tuple[int, int, int],
    rng: RngStream,
    classes: int | None = None,
    normalize: bool = True,
) -> Dataset:
    """Synthetic stand-in for a private image set: i.i.d. N(0, 1/d) pixels,
    optionally mean-centered and unit-normalized, with uniform random one-hot
    labels when ``classes`` is given."""
    if int(n) < 1:
        raise ValidationError(f"a synthetic set needs n >= 1 images, got {n}")
    if classes is not None and not 1 <= classes <= 0xFFFF:  # IHDS's u16 class field
        raise ValidationError(f"a labelled set needs 1 <= classes <= 65535, got {classes}")
    dims = _dims(dims)
    d = dims[0] * dims[1] * dims[2]
    gen = rng.generator()
    pixels = gen.standard_normal((n, d), dtype=np.float32)
    pixels /= np.sqrt(d, dtype=np.float32)
    if normalize:
        pixels = _normalize_rows(pixels)
    labels = None
    if classes is not None:
        labels = gen.integers(0, classes, size=n)[:, None] == np.arange(classes)  # one-hot rows
    return Dataset(_freeze(pixels), labels, dims=dims)  # frozen: Dataset shares it
