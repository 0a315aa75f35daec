"""IHDS, the package's binary dataset container.

Layout (all integers little-endian):

    offset  size  field
    0       4     magic "IHDS"
    4       2     version (u16, currently 1)
    6       2     flags   (u16; bit0 = labels present, bit1 = images normalized)
    8       4     count   (u32, number of images)
    12      2     channels (u16)
    14      2     height   (u16)
    16      2     width    (u16)
    18      2     classes  (u16, 0 when labels absent)
    20      -     image payload: count * channels*height*width float32 LE
    -       -     label payload: count * classes float32 LE (only if bit0 set)

Writers refuse non-finite payloads, and ``write_arrays`` (behind
save_dataset and the challenge exporter) checks everything before it opens
the file, then streams the header and each payload array's buffer without
joining them; arrays_to_bytes/dataset_to_bytes give the same bytes in
memory. Readers reject bad magic, version, or inconsistent sizes
(FormatError) and files shorter than their declared payload
(TruncatedFileError). Identical datasets serialize to identical bytes, so
files can be compared directly.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import FormatError, TruncatedFileError, ValidationError

MAGIC = b"IHDS"
VERSION = 1
_HEADER = struct.Struct("<4sHHIHHHH")

FLAG_LABELS = 1 << 0
FLAG_NORMALIZED = 1 << 1


def _parts(pixels: np.ndarray, labels=None, normalized: bool = False) -> list:
    """The header and the contiguous ``<f4`` payload arrays of (n, C, H, W)
    pixels and optional (n, classes) labels, after every check."""
    n, c, h, w = pixels.shape
    for dim, name in ((c, "channels"), (h, "height"), (w, "width")):
        if not 1 <= dim <= 0xFFFF:
            raise ValidationError(f"{name}={dim} does not fit the header")
    if n > 0xFFFFFFFF:
        raise ValidationError("too many images for a u32 count")

    flags = FLAG_NORMALIZED if normalized else 0
    classes = 0
    if labels is not None:
        flags |= FLAG_LABELS
        classes = labels.shape[1]
        if not 0 <= classes <= 0xFFFF:
            raise ValidationError(f"classes={classes} does not fit the header")
    if not np.all(np.isfinite(pixels)):
        raise ValidationError("refusing to write non-finite pixels")
    parts = [
        _HEADER.pack(MAGIC, VERSION, flags, n, c, h, w, classes),
        np.ascontiguousarray(pixels, dtype="<f4"),
    ]
    if labels is not None:
        if not np.all(np.isfinite(labels)):
            raise ValidationError("refusing to write non-finite labels")
        parts.append(np.ascontiguousarray(labels, dtype="<f4"))
    return parts


def arrays_to_bytes(pixels: np.ndarray, labels=None, normalized: bool = False) -> bytes:
    """Serialize (n, C, H, W) float32 pixels and optional (n, classes)
    labels; raises ValidationError before writing anything inconsistent."""
    return b"".join(_parts(pixels, labels, normalized))


def write_arrays(path: str | Path, pixels: np.ndarray, labels=None,
                 normalized: bool = False) -> Path:
    """Write arrays_to_bytes' bytes to ``path``, streaming the header and then
    each payload array's buffer; every check runs before the file is opened."""
    path, parts = Path(path), _parts(pixels, labels, normalized)
    with open(path, "wb") as fh:
        fh.writelines(memoryview(part) for part in parts)
    return path


def _dataset_arrays(ds: Dataset) -> tuple:
    labels = None if ds.classes is None else ds.label_matrix()
    return ds.matrix().reshape(ds.n, *ds.dims), labels, ds.n > 0 and ds.normalized


def dataset_to_bytes(ds: Dataset) -> bytes:
    """Serialize a dataset; raises ValidationError before writing anything
    inconsistent."""
    return arrays_to_bytes(*_dataset_arrays(ds))


def dataset_from_bytes(raw: bytes, name: str = "") -> Dataset:
    if len(raw) < _HEADER.size:
        raise TruncatedFileError(f"file is {len(raw)} bytes, header needs {_HEADER.size}")
    magic, version, flags, count, c, h, w, classes = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if min(c, h, w) < 1:
        raise FormatError(f"non-positive dims ({c}, {h}, {w})")
    has_labels = bool(flags & FLAG_LABELS)
    normalized = bool(flags & FLAG_NORMALIZED)
    if has_labels and classes < 1 and count > 0:
        raise FormatError("label flag set but classes is 0")

    d = c * h * w
    need = _HEADER.size + 4 * count * d + (4 * count * classes if has_labels else 0)
    if len(raw) < need:
        raise TruncatedFileError(f"file is {len(raw)} bytes, payload needs {need}")
    if len(raw) > need:
        raise FormatError(f"{len(raw) - need} trailing bytes after payload")

    # read-only views of ``raw``, which the Dataset shares instead of copying
    pixels = np.frombuffer(raw, dtype="<f4", count=count * d, offset=_HEADER.size)
    labels = None
    if has_labels:
        off = _HEADER.size + 4 * count * d
        labels = np.frombuffer(raw, dtype="<f4", count=count * classes, offset=off)
        labels = labels.reshape(count, classes)
    return Dataset(
        pixels.reshape(count, d), labels, dims=(c, h, w),
        classes=classes if has_labels else None, name=name, normalized=normalized,
    )


def save_dataset(ds: Dataset, path: str | Path) -> Path:
    """Write dataset_to_bytes' bytes to ``path`` without joining them."""
    return write_arrays(path, *_dataset_arrays(ds))


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    return dataset_from_bytes(path.read_bytes(), name=path.stem)


def import_raw(
    raw_path: str | Path,
    dims: tuple[int, int, int],
    labels_path: str | Path | None = None,
    classes: int | None = None,
    name: str = "",
) -> Dataset:
    """Build a Dataset from raw u8 RGB tensors plus an optional label CSV.

    The raw file is count * channels*height*width bytes, channel-major per
    image, row-major within a channel; pixels are scaled to [0, 1]. Each CSV
    row is either a single integer class index in [0, ``classes``) (which
    must be given) or a full weight vector with one float per class (as
    many as ``classes`` when it is given).
    """
    dims = tuple(int(v) for v in dims)
    d = dims[0] * dims[1] * dims[2]
    raw = Path(raw_path).read_bytes()
    if d == 0 or len(raw) % d != 0:
        raise FormatError(f"raw size {len(raw)} is not a multiple of d={d}")
    count = len(raw) // d
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, d).astype(np.float32) / 255.0

    labels = None
    if labels_path is not None:
        rows = []
        with open(labels_path, newline="") as fh:
            for rec in csv.reader(fh):
                rec = [v for v in rec if v.strip() != ""]
                if len(rec) == 1:
                    if classes is None:
                        raise ValidationError(
                            "class-index labels need an explicit class count"
                        )
                    text = rec[0].strip()
                    if not text.isdecimal() or int(text) >= classes:
                        raise ValidationError(
                            f"class index {text!r} is not an integer in [0, {classes})"
                        )
                    rows.append(np.eye(classes, dtype=np.float32)[int(text)])
                elif rec:
                    try:
                        rows.append(np.array([float(v) for v in rec], np.float32))
                    except ValueError:
                        raise ValidationError(f"label row {rec} is not all numbers") from None
        if len({r.size for r in rows}) > 1:
            raise ValidationError("labels have mixed class counts")
        labels = np.array(rows) if rows else np.zeros((0, classes or 0), np.float32)
    return Dataset(pixels, labels, dims=dims, classes=classes, name=name)
