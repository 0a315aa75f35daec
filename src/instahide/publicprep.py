"""Public-data preparation: random crops of public images, filtered by a
corner-keypoint count so that flat, featureless patches never enter the mix
pool.

Keypoints come from a Harris corner detector: Sobel gradients of the
luminance, a 3x3 box-summed structure tensor, response
R = det - 0.06 * trace^2, 3x3 non-maximum suppression, and a threshold of
0.01 * max(R). This is deterministic and dependency-free, which matters more
here than matching any particular feature library.

Crops are gathered straight from the public set's pixel matrix by ``_crops``,
the one crop path that random_crop also uses, at offsets drawn from one
``rng.Draws`` block of per-source streams; the filter scores every candidate
in one call, and the kept crops become the PatchSet's frozen (n, d) matrix.
Every filter step is per image, so the call runs in row chunks of about
_CHUNK_BYTES per float64 buffer: one reflect-padded buffer serves the Sobel
and box inputs and holds R inside its -inf border, each box sum overwrites a
gradient buffer it has freed, and the counts are those of the whole-batch
np.pad form, bit for bit.
"""

from __future__ import annotations

import csv
import errno
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import Dataset, Image, _row_matrix
from .errors import ValidationError
from .ihds import output, read_arrays, read_file, write_arrays
from .rng import Draws, RngStream, Streams

HARRIS_K = 0.06
HARRIS_THRESHOLD_RATIO = 0.01
DEFAULT_MIN_KEYPOINTS = 40
_CHUNK_BYTES = 1 << 18  # per float64 padded buffer of one Harris chunk: 28 crops at 32x32


class PatchSet:
    """Crops that survived the flatness filter, held as one frozen float32
    (n, d) matrix, with provenance (source image index and crop offset) and
    per-patch keypoint counts. ``patches`` is a sequence of Images or an
    (n, C, H, W) array (see core._row_matrix)."""

    def __init__(self, patches, provenance, keypoints, retention: float = 1.0):
        self._pixels, self._dims, _ = _row_matrix(patches)
        prov = np.asarray(provenance, np.int64).reshape(len(provenance), 3)  # refuses other widths
        self.provenance = tuple(map(tuple, prov.tolist()))
        self.keypoints = tuple(np.asarray(keypoints, np.int64).tolist())
        self.retention = retention
        if not len(self._pixels) == len(self.provenance) == len(self.keypoints):
            raise ValidationError("patches, provenance, and keypoints must align")

    def __len__(self) -> int:
        return len(self._pixels)

    @property
    def dims(self):
        if self._dims is None:
            raise ValidationError("empty patch set has no dims")
        return self._dims

    @cached_property
    def patches(self) -> tuple[Image, ...]:
        """Image views of the rows, built on first use."""
        return tuple(Image(row, self._dims) for row in self._pixels)

    def matrix(self) -> np.ndarray:
        """The (n, d) float32 patch matrix, shared and read-only."""
        return self._pixels

    __array__ = Dataset.__array__  # np.asarray gives the matrix

    def source_ids(self) -> np.ndarray:
        return np.array([src for src, _, _ in self.provenance], dtype=np.int64)


def _crops(chw: np.ndarray, out_hw: tuple[int, int], count: int, draws: Draws):
    """``count`` (h, w) crops of each (C, H, W) source of the block ``chw`` as
    one (sources * count, C, h, w) gather, and their (source, oy, ox) rows; the
    source's row of ``draws`` picks offsets uniform over every valid position
    (independently per crop, so repeats can occur)."""
    _, _, H, W = chw.shape
    h, w = int(out_hw[0]), int(out_hw[1])
    if h < 1 or w < 1 or h > H or w > W:
        raise ValidationError(f"crop {h}x{w} does not fit source {H}x{W}")
    if count < 0:
        raise ValidationError("count must be >= 0")
    oys, oxs = draws.integers(H - h + 1, count).ravel(), draws.integers(W - w + 1, count).ravel()
    src = np.repeat(np.arange(len(chw)), count)
    windows = np.lib.stride_tricks.sliding_window_view(chw, (h, w), axis=(2, 3))
    return windows[src, :, oys, oxs], np.stack([src, oys, oxs], axis=1)


def random_crop(
    source: Image, out_hw: tuple[int, int], count: int, rng: RngStream
) -> list[tuple[Image, tuple[int, int]]]:
    """``count`` crops of size (h, w) at offsets uniform over every valid
    position (independently per crop, so repeats can occur)."""
    draws = Draws(Streams(rng.seed, [rng.stream]))
    crops, prov = _crops(source.as_chw()[None], out_hw, count, draws)
    return [(Image(p, p.shape), (int(y), int(x))) for p, (_, y, x) in zip(crops, prov)]


def _luminance_batch(batch: np.ndarray) -> np.ndarray:
    """(N, C, H, W) float64 -> (N, H, W) grey; RGB uses the usual luma
    weights, anything else averages channels."""
    if batch.shape[1] == 3:
        r, g, b = batch[:, 0], batch[:, 1], batch[:, 2]
        return 0.299 * r + 0.587 * g + 0.114 * b
    return batch.mean(axis=1)


def _reflect_edges(padded: np.ndarray) -> np.ndarray:
    """Fill the one-pixel border of (N, H+2, W+2) ``padded`` from its
    interior, as np.pad's "reflect" mode does."""
    padded[:, 0, 1:-1], padded[:, -1, 1:-1] = padded[:, 2, 1:-1], padded[:, -3, 1:-1]
    padded[:, :, 0], padded[:, :, -1] = padded[:, :, 2], padded[:, :, -3]
    return padded


def _conv3_batch(padded: np.ndarray, taps: np.ndarray, out: np.ndarray, tmp=None):
    """3x3 correlation of reflect-padded (N, H+2, W+2) ``padded`` into
    (N, H, W) ``out``: from 0.0, tap by tap in row-major order. A +-1 tap adds
    or subtracts its view; any other is one product in ``tmp``, then one add."""
    h, w = out.shape[1:]
    out.fill(0.0)
    for dy in range(3):
        for dx in range(3):
            t, view = taps[dy, dx], padded[:, dy : dy + h, dx : dx + w]
            if t == 1.0:
                out += view
            elif t == -1.0:
                out -= view
            elif t != 0.0:
                out += np.multiply(t, view, out=tmp)
    return out


_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T
_BOX3 = np.ones((3, 3))


def keypoint_counts(batch: np.ndarray) -> np.ndarray:
    """Harris keypoint count for each (C, H, W) image in a batch, taken in row
    chunks that reuse one set of buffers (see the module docstring)."""
    batch = np.asarray(batch)
    if batch.ndim != 4:
        raise ValidationError(f"expected (N, C, H, W), got shape {batch.shape}")
    n, c, h, w = batch.shape
    counts = np.zeros(n, dtype=np.int64)
    if h < 3 or w < 3:
        return counts
    rows = max(1, _CHUNK_BYTES // (8 * (h + 2) * (w + 2)))
    padded = np.empty((rows, h + 2, w + 2))
    gxs, gys, tmps = np.empty((3, rows, h, w))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        pad, inner, gx, gy, tmp = padded[:m], padded[:m, 1:-1, 1:-1], gxs[:m], gys[:m], tmps[:m]
        inner[...] = _luminance_batch(batch[start : start + m].astype(np.float64))
        _conv3_batch(_reflect_edges(pad), _SOBEL_X, gx, tmp)
        _conv3_batch(pad, _SOBEL_Y, gy, tmp)
        # box sums of gx*gy, gx*gx and gy*gy, each into a buffer it frees
        for a, b, out in ((gx, gy, tmp), (gx, gx, gx), (gy, gy, gy)):
            np.multiply(a, b, out=inner)
            _conv3_batch(_reflect_edges(pad), _BOX3, out)
        sxy, sxx, syy = tmp, gx, gy
        # R = sxx*syy - sxy*sxy - k*(sxx+syy)**2, inside a -inf border for the
        # 3x3 non-maximum suppression
        resp = np.square(np.add(sxx, syy, out=inner), out=inner)
        resp *= HARRIS_K
        sxx *= syy
        sxx -= np.square(sxy, out=sxy)
        np.subtract(sxx, resp, out=resp)
        pad[:, [0, -1]], pad[:, :, [0, -1]] = -np.inf, -np.inf
        is_max = resp > 0.0
        for dy in range(3):
            for dx in range(3):
                if dy != 1 or dx != 1:
                    is_max &= resp > pad[:, dy : dy + h, dx : dx + w]
        is_max &= resp >= HARRIS_THRESHOLD_RATIO * resp.max(axis=(1, 2))[:, None, None]
        counts[start : start + m] = is_max.sum(axis=(1, 2))
    return counts


def build_patchset(
    public: Dataset,
    out_hw: tuple[int, int],
    patches_per_image: int,
    rng: RngStream,
    min_keypoints: int = DEFAULT_MIN_KEYPOINTS,
) -> PatchSet:
    """Crop every public image ``patches_per_image`` times and keep crops with
    strictly more than ``min_keypoints`` keypoints (0 disables the filter).

    ``retention`` records the surviving fraction; an empty result warns, since
    a cross-dataset scheme cannot run without public patches.
    """
    chw = public.matrix().reshape(public.n, *public.dims)
    draws = Draws(rng.children("crop", ids=np.arange(public.n)))
    crops, prov = _crops(chw, out_hw, patches_per_image, draws)
    if not len(prov):
        warnings.warn("no crop candidates produced; patch set is empty")
        return PatchSet((), (), (), retention=0.0)

    counts = keypoint_counts(crops)
    kept = np.flatnonzero(counts > min_keypoints) if min_keypoints > 0 else np.arange(len(prov))
    if not kept.size:
        warnings.warn(f"flatness filter removed all {len(prov)} candidate patches")
    return PatchSet(crops[kept], prov[kept], counts[kept], retention=kept.size / len(prov))


def save_patchset(ps: PatchSet, path: str | Path) -> tuple[Path, Path]:
    """IHDS file of the patches plus a provenance CSV sidecar."""
    if not len(ps):
        raise ValidationError("refusing to save an empty patch set")
    sidecar = Path(f"{path}.prov.csv")
    with output(sidecar, "w") as fh:  # its block publishes both files or neither
        path = write_arrays(path, ps.matrix().reshape(len(ps), *ps.dims))
        writer = csv.writer(fh)
        writer.writerow(["source_index", "offset_y", "offset_x", "keypoints"])
        writer.writerows([*prov, kp] for prov, kp in zip(ps.provenance, ps.keypoints))
    return path, sidecar


def load_patchset(path: str | Path) -> PatchSet:
    """save_patchset's inverse; a bad sidecar cell is an OSError naming it."""
    pixels, _, _ = read_arrays(path)
    sidecar = f"{path}.prov.csv"
    try:
        rows = np.loadtxt(read_file(sidecar, text=True).splitlines(), np.int64, delimiter=",",
                          skiprows=1, ndmin=2, usecols=range(4))
    except ValueError as exc:
        raise OSError(errno.EINVAL, f"bad provenance row ({exc})", sidecar) from None
    return PatchSet(pixels, rows[:, :3], rows[:, 3])
