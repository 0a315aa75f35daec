"""Public-data preparation: random crops of public images, filtered by a
corner-keypoint count so that flat, featureless patches never enter the mix
pool.

Keypoints come from a Harris corner detector: Sobel gradients of the
luminance, a 3x3 box-summed structure tensor, response
R = det - 0.06 * trace^2, 3x3 non-maximum suppression, and a threshold of
0.01 * max(R). This is deterministic and dependency-free, which matters more
here than matching any particular feature library.

Crops are cut straight from the public set's pixel matrix by ``_crops``, the
one crop path that random_crop also uses; the filter scores every candidate
in one batch, and the kept crops become the PatchSet's frozen (n, d) matrix.
"""

from __future__ import annotations

import csv
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import Dataset, Image, _row_matrix
from .errors import ValidationError
from .rng import RngStream

HARRIS_K = 0.06
HARRIS_THRESHOLD_RATIO = 0.01
DEFAULT_MIN_KEYPOINTS = 40


class PatchSet:
    """Crops that survived the flatness filter, held as one frozen float32
    (n, d) matrix, with provenance (source image index and crop offset) and
    per-patch keypoint counts. ``patches`` is a sequence of Images or an
    (n, C, H, W) array (see core._row_matrix)."""

    def __init__(self, patches, provenance, keypoints, retention: float = 1.0):
        self._pixels, self._dims, _ = _row_matrix(patches)
        self.provenance = tuple((int(a), int(b), int(c)) for a, b, c in provenance)
        self.keypoints = tuple(int(v) for v in keypoints)
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


def _crops(chw: np.ndarray, out_hw: tuple[int, int], count: int, rng: RngStream):
    """``count`` crops of size (h, w) of one (C, H, W) source, as a
    (count, C, h, w) array, at offsets (oys, oxs) uniform over every valid
    position (drawn independently per crop, so repeats can occur)."""
    _, H, W = chw.shape
    h, w = int(out_hw[0]), int(out_hw[1])
    if h < 1 or w < 1 or h > H or w > W:
        raise ValidationError(f"crop {h}x{w} does not fit source {H}x{W}")
    if count < 0:
        raise ValidationError("count must be >= 0")
    gen = rng.generator()
    oys = gen.integers(0, H - h + 1, size=count)
    oxs = gen.integers(0, W - w + 1, size=count)
    crops = np.array([chw[:, y : y + h, x : x + w] for y, x in zip(oys, oxs)], chw.dtype)
    return crops.reshape(count, len(chw), h, w), oys, oxs


def random_crop(
    source: Image, out_hw: tuple[int, int], count: int, rng: RngStream
) -> list[tuple[Image, tuple[int, int]]]:
    """``count`` crops of size (h, w) at offsets uniform over every valid
    position (independently per crop, so repeats can occur)."""
    crops, oys, oxs = _crops(source.as_chw(), out_hw, count, rng)
    return [(Image(p, p.shape), (int(y), int(x))) for p, y, x in zip(crops, oys, oxs)]


def _luminance_batch(batch: np.ndarray) -> np.ndarray:
    """(N, C, H, W) float64 -> (N, H, W) grey; RGB uses the usual luma
    weights, anything else averages channels."""
    if batch.shape[1] == 3:
        r, g, b = batch[:, 0], batch[:, 1], batch[:, 2]
        return 0.299 * r + 0.587 * g + 0.114 * b
    return batch.mean(axis=1)


def _conv3_batch(padded: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # explicit 3x3 correlation over reflect-padded (N, H+2, W+2) arrays
    out = np.zeros((padded.shape[0], padded.shape[1] - 2, padded.shape[2] - 2))
    for dy in range(3):
        for dx in range(3):
            t = taps[dy, dx]
            if t != 0.0:
                out += t * padded[:, dy : dy + out.shape[1], dx : dx + out.shape[2]]
    return out


_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T
_BOX3 = np.ones((3, 3))


def keypoint_counts(batch: np.ndarray) -> np.ndarray:
    """Harris keypoint count for each (C, H, W) image in a batch."""
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 4:
        raise ValidationError(f"expected (N, C, H, W), got shape {arr.shape}")
    n, _, h, w = arr.shape
    if h < 3 or w < 3:
        return np.zeros(n, dtype=np.int64)
    grey = _luminance_batch(arr)
    padded = np.pad(grey, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    gx = _conv3_batch(padded, _SOBEL_X)
    gy = _conv3_batch(padded, _SOBEL_Y)

    def box(img):
        return _conv3_batch(np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="reflect"), _BOX3)

    sxx, syy, sxy = box(gx * gx), box(gy * gy), box(gx * gy)
    resp = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2

    counts = np.zeros(n, dtype=np.int64)
    peak = resp.max(axis=(1, 2))
    active = peak > 0
    if not np.any(active):
        return counts
    padded_r = np.pad(resp, ((0, 0), (1, 1), (1, 1)), mode="constant", constant_values=-np.inf)
    is_max = np.ones_like(resp, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            if dy == 1 and dx == 1:
                continue
            is_max &= resp > padded_r[:, dy : dy + h, dx : dx + w]
    strong = resp >= HARRIS_THRESHOLD_RATIO * peak[:, None, None]
    hits = is_max & strong & (resp > 0)
    counts[active] = hits[active].sum(axis=(1, 2))
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
    crops, prov = [], []
    for si, src in enumerate(chw):
        block, oys, oxs = _crops(src, out_hw, patches_per_image, rng.child("crop", si))
        crops.append(block)
        prov.extend((si, int(oy), int(ox)) for oy, ox in zip(oys, oxs))
    if not prov:
        warnings.warn("no crop candidates produced; patch set is empty")
        return PatchSet((), (), (), retention=0.0)

    crops = np.concatenate(crops)
    counts = keypoint_counts(crops)
    kept = np.flatnonzero(counts > min_keypoints) if min_keypoints > 0 else np.arange(len(prov))
    if not kept.size:
        warnings.warn(f"flatness filter removed all {len(prov)} candidate patches")
    return PatchSet(
        crops[kept], [prov[i] for i in kept], counts[kept], retention=kept.size / len(prov)
    )


def save_patchset(ps: PatchSet, path: str | Path) -> tuple[Path, Path]:
    """IHDS file of the patches plus a provenance CSV sidecar."""
    from .ihds import save_dataset

    if not len(ps):
        raise ValidationError("refusing to save an empty patch set")
    path = Path(path)
    save_dataset(Dataset(ps.matrix(), dims=ps.dims, name="patches"), path)
    sidecar = path.with_suffix(path.suffix + ".prov.csv")
    with open(sidecar, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_index", "offset_y", "offset_x", "keypoints"])
        for (src, oy, ox), kp in zip(ps.provenance, ps.keypoints):
            writer.writerow([src, oy, ox, kp])
    return path, sidecar


def load_patchset(path: str | Path) -> PatchSet:
    from .ihds import load_dataset

    path = Path(path)
    ds = load_dataset(path)
    sidecar = path.with_suffix(path.suffix + ".prov.csv")
    prov, kps = [], []
    with open(sidecar, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            prov.append((int(row[0]), int(row[1]), int(row[2])))
            kps.append(int(row[3]))
    return PatchSet(ds.matrix().reshape(ds.n, *ds.dims), prov, kps)
