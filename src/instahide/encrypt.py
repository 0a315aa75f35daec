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
the sets' float32 matrices as row blocks (private rows, then public rows;
nothing is stacked), each output row's own image index, and one
``rng.Streams`` block of the rows' streams. Each row's generator draws the
partners, then lambda (``core._draw_lambda``), then the int8 mask; all rows
are then mixed in k vectorised float64 passes,
``acc += lam[:, j] * S[idx[:, j]]`` (mix_pixels' accumulation order; each
pass casts only the rows it gathers), cast to float32 and multiplied by the
signs. The RNG layout is unchanged from the per-sample code: one stream
``rng.child(epoch, i)`` per sample, drawn as partners -> lambda -> mask, so
a seed still gives the same bytes. The public functions below are thin
wrappers that build Image and EncryptionKey objects only for callers that
want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    Coefficients,
    Dataset,
    Image,
    LabelVector,
    SignMask,
    _draw_lambda,
    check_feasible,
)
from .errors import DimensionMismatchError, ValidationError
from .rng import RngStream, Streams

SCHEMES = ("mixup", "inside", "cross")


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


def _sources(private: Dataset, cfg: SchemeConfig, publicset=None):
    """The source blocks (the private matrix, then, for the cross scheme, the
    public set's) and the private label block, float32 as the sets store
    them; the kernel gathers and casts only the rows it mixes."""
    S, Y = [private.matrix()], [private.label_matrix()]  # raises when unlabelled
    if cfg.scheme == "cross":
        if publicset is None:
            raise ValidationError("cross-dataset encryption needs a public set")
        S.append(publicset.matrix())
    return S, Y


def _pick_partners(gen: np.random.Generator, n: int, i: int, count: int) -> np.ndarray:
    """``count`` distinct private rows other than i; the same draw as
    gen.choice(np.delete(np.arange(n), i), count, replace=False)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    j = gen.choice(n - 1, size=count, replace=False)
    return j + (j >= i)


def _mix(S, idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Float64 rows sum_j lam[:, j] * S[idx[:, j]], accumulated slot by slot
    from zero as the per-sample code did, so each row matches it bit for bit.
    S is a list of row blocks stacked top to bottom. Each slot's rows are
    gathered into one float64 buffer that every slot reuses; only those rows
    are cast, and float32 to float64 is exact."""
    acc = np.zeros((idx.shape[0], S[0].shape[1]))
    term = np.empty_like(acc)
    for j in range(idx.shape[1]):
        lo = 0
        for block in S:
            hit = (idx[:, j] >= lo) & (idx[:, j] < lo + len(block))
            term[hit] = block[idx[hit, j] - lo]
            lo += len(block)
        term *= lam[:, j, None]
        acc += term
    return acc


def _encrypt_rows(S, Y, n: int, cfg: SchemeConfig, base, streams, partners=None) -> _Rows:
    """Encrypt one row per entry of ``base``, the row of S holding its own
    image. S is a list of row blocks, n private rows then the public rows; Y
    the private label blocks, or None to skip labels. Row r draws from row r
    of the Streams block its partners (unless ``partners`` gives them as an
    (m, k-1) array of rows of S), then lambda, then the mask."""
    k, m, d, cross = cfg.k, len(base), S[0].shape[1], cfg.scheme == "cross"
    n_public, masked = sum(len(block) for block in S) - n, cfg.scheme != "mixup"
    head = cfg.c2 if cross else 0.0
    if partners is None and m and n - 1 < (need := 1 if cross else k - 1):
        raise ValidationError(f"need {need} partners but only {n - 1} other images")
    if partners is None and m and cross and n_public < k - 2:
        raise ValidationError(f"public set has {n_public} patches, need {k - 2}")
    idx = np.empty((m, k), dtype=np.int64)
    idx[:, 0] = base
    lam = np.ones((m, k))
    bits = np.empty((m, d), dtype=np.int8) if masked else None
    for r, gen in enumerate(streams.generators() if k > 1 or masked else ()):
        if partners is not None:
            idx[r, 1:] = partners[r]
        elif cross:
            idx[r, 1] = _pick_partners(gen, n, idx[r, 0], 1)[0]
            idx[r, 2:] = n + gen.choice(n_public, size=k - 2, replace=False)
        else:
            idx[r, 1:] = _pick_partners(gen, n, idx[r, 0], k - 1)
        lam[r] = _draw_lambda(gen, k, cfg.c1, head)
        if masked:
            bits[r] = gen.integers(0, 2, size=d, dtype=np.int8)
    pixels = _mix(S, idx, lam).astype(np.float32)
    signs = None if bits is None else bits * 2 - 1
    if masked:
        pixels *= signs
    labels = None
    if Y is not None:  # only private images carry labels
        slots = 2 if cross else k
        labels = np.clip(_mix(Y, idx[:, :slots], lam[:, :slots]), 0, 1).astype(np.float32)
    return _Rows(pixels, labels, idx, lam, signs)


def _epoch_rows(S, Y, n: int, cfg: SchemeConfig, epoch: int, rng: RngStream):
    """One epoch in private order, and the permutation into published order."""
    rows = _encrypt_rows(S, Y, n, cfg, range(n), rng.children(epoch, ids=np.arange(n)))
    return rows, rng.child(epoch, "perm").generator().permutation(n)


def _objects(rows: _Rows, order, n: int, dims, epoch: int = 0, first_id: int = 0):
    """(EncryptedSample, EncryptionKey) lists for rows[order]; the sample id
    of row r is first_id + r."""
    samples, keys = [], []
    for r in order:
        xt = Image(rows.pixels[r], dims)
        y = LabelVector(rows.labels[r])
        samples.append(EncryptedSample(xt, y, epoch, first_id + int(r)))
        sources = tuple(("private", int(j)) if j < n else ("public", int(j - n))
                        for j in rows.sources[r])
        mask = identity_mask(xt.d) if rows.signs is None else SignMask(rows.signs[r])
        keys.append(EncryptionKey(sources, Coefficients(rows.lam[r]), mask))
    return samples, keys


# ---------------------------------------------------------------------------
# object-level wrappers


def mix_pixels(images: list[Image], lam: Coefficients) -> np.ndarray:
    if len(images) != lam.k:
        raise ValidationError(f"{len(images)} images for {lam.k} coefficients")
    S = [Dataset(images).matrix()]  # refuses mixed dims
    return _mix(S, np.arange(lam.k)[None], lam.values[None])[0].astype(np.float32)


def apply_mask(x, mask: SignMask):
    """Multiply pixels by the +/-1 mask. Involutive and magnitude-preserving
    bit for bit. Accepts an Image or a raw array; returns the same kind."""
    if isinstance(x, Image):
        if x.d != mask.d:
            raise DimensionMismatchError(f"mask length {mask.d} != image length {x.d}")
        return Image(x.pixels * mask.signs, x.dims, normalized=False)
    arr = np.asarray(x)
    if arr.shape[-1] != mask.d:
        raise DimensionMismatchError(
            f"mask length {mask.d} != vector length {arr.shape[-1]}"
        )
    return arr * mask.signs


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
    S, Y = _sources(private, cfg, publicset)
    rows = _encrypt_rows(S, Y, private.n, cfg, [int(i)], Streams(rng.seed, [rng.stream]))
    samples, keys = _objects(rows, [0], private.n, private.dims, epoch, sample_id)
    return samples[0], keys[0]


def _history(private: Dataset, cfg: SchemeConfig, epochs, rng: RngStream, publicset,
             arrays: bool = False):
    """Samples and keys of the given epochs in published order or, with
    ``arrays``, their pixel (rows, C, H, W) and label matrices. Each epoch is
    mixed on its own, so no (n * T, d) float64 buffer exists."""
    S, Y = _sources(private, cfg, publicset)
    parts = []
    for t in epochs:
        rows, perm = _epoch_rows(S, Y, private.n, cfg, t, rng)
        parts.append((rows.pixels[perm], rows.labels[perm]) if arrays
                     else _objects(rows, perm, private.n, private.dims, t, t * private.n))
    if arrays:
        pixels = np.concatenate([p for p, _ in parts]).reshape(-1, *private.dims)
        return pixels, np.concatenate([y for _, y in parts])
    return [s for p, _ in parts for s in p], [k for _, ks in parts for k in ks]


def encrypt_epoch(
    private: Dataset, cfg: SchemeConfig, epoch: int, rng: RngStream, publicset=None
):
    """Encrypt every private image once with fresh keys, in a random output
    order; returns aligned (samples, keys) lists. Sample ids are
    epoch * n + i, so merge order is recoverable."""
    return _history(private, cfg, [epoch], rng, publicset)


def encrypt_history(
    private: Dataset, cfg: SchemeConfig, epochs: int, rng: RngStream, publicset=None
):
    """T epochs of encryptions with per-epoch fresh keys; returns aligned
    (samples, keys) lists of length n * T."""
    return _history(private, cfg, range(int(epochs)), rng, publicset)


def encrypt_history_arrays(
    private: Dataset, cfg: SchemeConfig, epochs: int, rng: RngStream, publicset=None
) -> tuple[np.ndarray, np.ndarray]:
    """encrypt_history's samples, same order and bytes, as float32 pixels
    (n * T, C, H, W) and labels (n * T, classes), with no per-sample objects."""
    return _history(private, cfg, range(int(epochs)), rng, publicset, arrays=True)


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
    this path. ``samples`` is a list of EncryptedSample, or the
    (pixels, labels) pair that encrypt_history_arrays returns."""
    from .ihds import arrays_to_bytes

    if not isinstance(samples, tuple) and samples:
        samples = (np.stack([s.xtilde.as_chw() for s in samples]),
                   np.stack([s.ytilde.weights for s in samples]))
    if len(samples) == 0 or len(samples[0]) == 0:
        raise ValidationError("challenge export needs at least one sample")
    path = Path(path)
    path.write_bytes(arrays_to_bytes(*samples))
    sidecar = path.with_suffix(path.suffix + ".meta.txt")
    lines = [f"{k}={meta[k]}" for k in sorted(meta)]
    sidecar.write_text("\n".join(lines) + "\n")
    return path, sidecar
