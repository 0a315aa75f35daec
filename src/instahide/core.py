"""Core domain types and primitives: images, labels, mixing coefficients,
sign masks, normalization, and the rejection samplers the encryption schemes
are built on.

Conventions: pixel payloads are float32 vectors of length d = channels *
height * width (channel-major); all statistics and accumulations run in
float64; reductions use numpy's fixed pairwise summation so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    ValidationError,
)
from .rng import RngStream

# A normalized image must be zero-sum and unit-norm within this tolerance
# (scaled by sqrt(d) for the sum, which accumulates float32 rounding).
NORMALIZED_ATOL = 1e-5

# sample_coefficients gives up after this many rejected candidates.
REJECTION_CAP = 1_000_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Image:
    """A float32 pixel vector plus its (channels, height, width) geometry."""

    pixels: np.ndarray
    dims: tuple[int, int, int]
    normalized: bool = False

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float32).reshape(-1)
        dims = tuple(int(v) for v in self.dims)
        if len(dims) != 3 or any(v < 1 for v in dims):
            raise ValidationError(f"dims must be three positive ints, got {self.dims}")
        d = dims[0] * dims[1] * dims[2]
        if px.size != d:
            raise DimensionMismatchError(f"pixel count {px.size} != prod(dims) {d}")
        if not np.all(np.isfinite(px)):
            raise ValidationError("pixels must be finite")
        if self.normalized:
            s = float(np.sum(px, dtype=np.float64))
            n = float(np.linalg.norm(px.astype(np.float64)))
            if abs(s) > NORMALIZED_ATOL * np.sqrt(d) or abs(n - 1.0) > NORMALIZED_ATOL:
                raise ValidationError(
                    f"normalized flag set but sum={s:.3g}, norm={n:.6g}"
                )
        object.__setattr__(self, "pixels", _freeze(px))
        object.__setattr__(self, "dims", dims)

    @property
    def d(self) -> int:
        return self.pixels.size

    def as_chw(self) -> np.ndarray:
        """Read-only (channels, height, width) view."""
        return self.pixels.reshape(self.dims)

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.normalized == other.normalized
            and self.pixels.tobytes() == other.pixels.tobytes()
        )


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Per-class weights in [0, 1]; the total may be below 1 when part of the
    mix carries no label."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float32).reshape(-1)
        if w.size == 0:
            raise ValidationError("label vector must have at least one class")
        if not np.all(np.isfinite(w)):
            raise ValidationError("label weights must be finite")
        if w.min() < -1e-6 or w.max() > 1.0 + 1e-6:
            raise ValidationError(f"label weights outside [0, 1]: {w.min()}..{w.max()}")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def classes(self) -> int:
        return self.weights.size

    def __eq__(self, other):
        if not isinstance(other, LabelVector):
            return NotImplemented
        return self.weights.tobytes() == other.weights.tobytes()


def one_hot(label: int, classes: int) -> LabelVector:
    w = np.zeros(classes, dtype=np.float32)
    w[label] = 1.0
    return LabelVector(w)


@dataclass(eq=False)
class Dataset:
    """An ordered collection of same-shape images with optional labels."""

    images: tuple[Image, ...]
    labels: tuple[LabelVector, ...] | None = None
    dims: tuple[int, int, int] | None = None
    classes: int | None = None
    name: str = ""

    def __post_init__(self):
        self.images = tuple(self.images)
        if self.images:
            dims = self.images[0].dims
            if self.dims is not None and tuple(self.dims) != dims:
                raise DimensionMismatchError(
                    f"declared dims {self.dims} != image dims {dims}"
                )
            self.dims = dims
            for im in self.images:
                if im.dims != dims:
                    raise DimensionMismatchError("images have mixed dims")
        elif self.dims is None:
            raise ValidationError("an empty dataset must declare dims")
        else:
            self.dims = tuple(int(v) for v in self.dims)
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(self.images):
                raise ValidationError(
                    f"{len(self.labels)} labels for {len(self.images)} images"
                )
            if self.labels:
                c = self.labels[0].classes
                if self.classes is not None and int(self.classes) != c:
                    raise ValidationError(
                        f"declared classes {self.classes} != label width {c}"
                    )
                self.classes = c
                for lb in self.labels:
                    if lb.classes != c:
                        raise ValidationError("labels have mixed class counts")

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def d(self) -> int:
        c, h, w = self.dims
        return c * h * w

    def matrix(self) -> np.ndarray:
        """Stacked (n, d) float32 pixel matrix."""
        if not self.images:
            return np.zeros((0, self.d), dtype=np.float32)
        return np.stack([im.pixels for im in self.images])

    def label_matrix(self) -> np.ndarray:
        if self.labels is None:
            raise ValidationError("dataset has no labels")
        if not self.labels:
            return np.zeros((0, int(self.classes or 0)), dtype=np.float32)
        return np.stack([lb.weights for lb in self.labels])

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.classes == other.classes
            and self.images == other.images
            and self.labels == other.labels
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


def _pixels(x) -> np.ndarray:
    return x.pixels if isinstance(x, Image) else np.asarray(x)


def normalize_image(x: Image) -> Image:
    """Mean-center then scale to unit Euclidean norm (computed in float64).

    Raises DegenerateInputError for constant images, whose normalization is
    undefined.
    """
    px = x.pixels.astype(np.float64)
    centered = px - px.mean()
    norm = np.linalg.norm(centered)
    if norm <= 1e-12 * max(1.0, np.abs(px).max()):
        raise DegenerateInputError("cannot normalize a constant image")
    return Image(centered / norm, x.dims, normalized=True)


def inner_product(a, b) -> float:
    """Float64 inner product of two equal-length pixel vectors.

    Accepts Images or raw arrays. Uses numpy's fixed pairwise reduction, so
    the result is reproducible run to run.
    """
    av, bv = _pixels(a), _pixels(b)
    if av.shape != bv.shape:
        raise DimensionMismatchError(f"shape mismatch: {av.shape} vs {bv.shape}")
    return float(np.sum(av.astype(np.float64) * bv.astype(np.float64)))


def scan_scores(matrix: np.ndarray, query) -> np.ndarray:
    """Inner product of every row of ``matrix`` against ``query``.

    Row i equals inner_product(matrix[i], query) bit for bit; rows are reduced
    with the same pairwise summation, chunked to bound temporary memory.
    """
    q = _pixels(query).astype(np.float64)
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[1] != q.size:
        raise DimensionMismatchError(f"matrix {m.shape} incompatible with query {q.size}")
    out = np.empty(m.shape[0], dtype=np.float64)
    chunk = max(1, int(8_000_000 // max(q.size, 1)))
    for lo in range(0, m.shape[0], chunk):
        block = m[lo : lo + chunk].astype(np.float64)
        out[lo : lo + chunk] = np.sum(block * q, axis=1)
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


def _draw_lambda(
    gen: np.random.Generator, k: int, c1: float, head_pair_min: float = 0.0
) -> np.ndarray:
    """The rejection loop alone, on an already-open generator, returning the
    raw float64 vector. Callers validate (k, c1, head_pair_min) first."""
    if k == 1:
        return np.ones(1)
    if c1 * k < 1.0 + 1e-12:
        # boundary case: the uniform vector is the only admissible point
        return np.full(k, 1.0 / k)

    drawn = 0
    batch = 256
    while drawn < REJECTION_CAP:
        cand = gen.random((batch, k))
        drawn += batch
        sums = cand.sum(axis=1)
        lam = cand[sums > 0] / sums[sums > 0, None]
        keep = lam.max(axis=1) <= c1
        if head_pair_min > 0.0:
            keep &= lam[:, 0] + lam[:, 1] >= head_pair_min
        hits = np.nonzero(keep)[0]
        if hits.size:
            return lam[hits[0]]
        batch = min(4096, batch * 2)
    raise InfeasibleConstraintError(
        f"no admissible coefficients after {REJECTION_CAP} draws "
        f"(k={k}, c1={c1}, head_pair_min={head_pair_min})"
    )


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
    return Coefficients(_draw_lambda(rng.generator(), k, c1, head_pair_min))


def sample_sign_mask(d: int, rng: RngStream) -> SignMask:
    """d independent signs, +1 or -1 each with probability 1/2."""
    if int(d) < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    bits = rng.generator().integers(0, 2, size=int(d), dtype=np.int8)
    return SignMask(bits * 2 - 1)


def make_gaussian_dataset(
    n: int,
    dims: tuple[int, int, int],
    rng: RngStream,
    classes: int | None = None,
    normalize: bool = True,
    name: str = "",
) -> Dataset:
    """Synthetic stand-in for a private image set: i.i.d. N(0, 1/d) pixels,
    optionally mean-centered and unit-normalized, with uniform random one-hot
    labels when ``classes`` is given."""
    dims = tuple(int(v) for v in dims)
    d = dims[0] * dims[1] * dims[2]
    gen = rng.generator()
    pixels = gen.standard_normal((n, d), dtype=np.float32) / np.sqrt(d, dtype=np.float32)
    images = []
    for row in pixels:
        img = Image(row, dims)
        images.append(normalize_image(img) if normalize else img)
    labels = None
    if classes is not None:
        ids = gen.integers(0, classes, size=n)
        labels = tuple(one_hot(int(i), classes) for i in ids)
    return Dataset(tuple(images), labels, dims=dims, name=name)
