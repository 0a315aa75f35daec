"""Public-data preparation: random crops of public images, filtered by a
corner-keypoint count so that flat, featureless patches never enter the mix
pool.

Keypoints come from a Harris corner detector: Sobel gradients of the
luminance, a 3x3 box-summed structure tensor, response
R = det - 0.06 * trace^2, 3x3 non-maximum suppression, and a threshold of
0.01 * max(R). This is deterministic and dependency-free, which matters more
here than matching any particular feature library.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Image
from .errors import ValidationError
from .rng import RngStream

HARRIS_K = 0.06
HARRIS_THRESHOLD_RATIO = 0.01
DEFAULT_MIN_KEYPOINTS = 40


@dataclass
class PatchSet:
    """Crops that survived the flatness filter, with provenance
    (source image index and crop offset) and per-patch keypoint counts."""

    patches: tuple[Image, ...]
    provenance: tuple[tuple[int, int, int], ...]
    keypoints: tuple[int, ...]
    retention: float = 1.0

    def __post_init__(self):
        self.patches = tuple(self.patches)
        self.provenance = tuple((int(a), int(b), int(c)) for a, b, c in self.provenance)
        self.keypoints = tuple(int(v) for v in self.keypoints)
        if not len(self.patches) == len(self.provenance) == len(self.keypoints):
            raise ValidationError("patches, provenance, and keypoints must align")
        if self.patches:
            dims = self.patches[0].dims
            for p in self.patches:
                if p.dims != dims:
                    raise ValidationError("patches have mixed dims")

    def __len__(self) -> int:
        return len(self.patches)

    @property
    def dims(self):
        if not self.patches:
            raise ValidationError("empty patch set has no dims")
        return self.patches[0].dims

    @property
    def images(self) -> tuple[Image, ...]:
        """The patches, under the name Dataset uses, so either can serve as
        a public set."""
        return self.patches

    def matrix(self) -> np.ndarray:
        return np.stack([p.pixels for p in self.patches])

    def source_ids(self) -> np.ndarray:
        return np.array([src for src, _, _ in self.provenance], dtype=np.int64)


def random_crop(
    source: Image, out_hw: tuple[int, int], count: int, rng: RngStream
) -> list[tuple[Image, tuple[int, int]]]:
    """``count`` crops of size (h, w) at offsets uniform over every valid
    position (independently per crop, so repeats can occur)."""
    c, H, W = source.dims
    h, w = int(out_hw[0]), int(out_hw[1])
    if h < 1 or w < 1 or h > H or w > W:
        raise ValidationError(f"crop {h}x{w} does not fit source {H}x{W}")
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count == 0:
        return []
    gen = rng.generator()
    oys = gen.integers(0, H - h + 1, size=count)
    oxs = gen.integers(0, W - w + 1, size=count)
    chw = source.as_chw()
    out = []
    for oy, ox in zip(oys, oxs):
        block = chw[:, oy : oy + h, ox : ox + w]
        out.append((Image(np.ascontiguousarray(block), (c, h, w)), (int(oy), int(ox))))
    return out


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


def keypoint_count(x: Image) -> int:
    """Keypoint count of a single image (see keypoint_counts)."""
    return int(keypoint_counts(x.as_chw()[None])[0])


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
    candidates, prov = [], []
    for si, src in enumerate(public.images):
        for patch, (oy, ox) in random_crop(src, out_hw, patches_per_image, rng.child("crop", si)):
            candidates.append(patch)
            prov.append((si, oy, ox))
    if not candidates:
        warnings.warn("no crop candidates produced; patch set is empty")
        return PatchSet((), (), (), retention=0.0)

    counts = keypoint_counts(np.stack([p.as_chw() for p in candidates]))
    if min_keypoints <= 0:
        keep = np.ones(len(candidates), dtype=bool)
    else:
        keep = counts > min_keypoints
    kept = [i for i in range(len(candidates)) if keep[i]]
    retention = len(kept) / len(candidates)
    if not kept:
        warnings.warn(
            f"flatness filter removed all {len(candidates)} candidate patches"
        )
    return PatchSet(
        tuple(candidates[i] for i in kept),
        tuple(prov[i] for i in kept),
        tuple(int(counts[i]) for i in kept),
        retention=retention,
    )


def save_patchset(ps: PatchSet, path: str | Path) -> tuple[Path, Path]:
    """IHDS file of the patches plus a provenance CSV sidecar."""
    from .ihds import save_dataset

    if not ps.patches:
        raise ValidationError("refusing to save an empty patch set")
    path = Path(path)
    save_dataset(Dataset(ps.patches, name="patches"), path)
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
    if len(prov) != ds.n:
        raise ValidationError(f"{len(prov)} provenance rows for {ds.n} patches")
    return PatchSet(ds.images, tuple(prov), tuple(kps))
