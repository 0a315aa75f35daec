"""IHDS, the package's binary dataset container, and its one file layer.

Layout (all integers little-endian):

    offset  size  field
    0       4     magic "IHDS"
    4       2     version (u16, currently 1)
    6       2     flags   (u16; bit0 = labels present; bits 1-15 reserved,
                           written 0 and ignored on read)
    8       4     count   (u32, number of images)
    12      2     channels (u16)
    14      2     height   (u16)
    16      2     width    (u16)
    18      2     classes  (u16, 0 when labels absent)
    20      -     image payload: count * channels*height*width float32 LE
    -       -     label payload: count * classes float32 LE (only if bit0 set)

Writers refuse non-finite payloads; ``write_arrays`` checks everything, then
streams the header and each payload buffer, so identical datasets give
identical files. The readers share one parser: it views the bytes and
rejects bad magic, version or sizes (FormatError) and short files
(TruncatedFileError).

Only this module touches files. ``output`` stages a write as
``<name>.<pid>.tmp`` beside its target; the outermost ``publishing()`` block
moves every staged file into place with ``os.replace`` when it exits
cleanly, and a block that raises unlinks what it staged, so a failed command
publishes nothing (outside a block each ``output`` is its own). ``read_file``
fills one read-only ``uint8`` array by ``readinto`` (shared by
``_row_matrix``) and reads a staged path from its staged file, so the
leakage guard checks the bytes about to be published. A memory map could
fault with SIGBUS on a file truncated in place. Blocks are per process.
"""

from __future__ import annotations

import csv
import errno
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import Dataset, _all_finite
from .errors import FormatError, TruncatedFileError, ValidationError

MAGIC = b"IHDS"
VERSION = 1
_HEADER = struct.Struct("<4sHHIHHHH")

FLAG_LABELS = 1 << 0

_staged: dict[str, str] = {}  # target -> its staged file, for the open blocks
_depth = 0  # open publishing() blocks


@contextmanager
def publishing():
    """Publish the files staged inside the block when the outermost block
    exits cleanly; on an exception, unlink the ones this block staged."""
    global _depth
    mark, _depth = len(_staged), _depth + 1
    try:
        yield
        for target in list(_staged) if _depth == 1 else ():  # the outermost block publishes
            os.replace(_staged[target], target)
            del _staged[target]
    except BaseException:
        for target in list(_staged)[mark:]:
            Path(_staged.pop(target)).unlink(missing_ok=True)
        raise
    finally:
        _depth -= 1


@contextmanager
def output(path: str | Path, mode: str = "wb"):
    """The open handle of ``path``'s staged file (``mode`` "wb" or "w", UTF-8)."""
    target = os.path.abspath(path)
    with publishing():
        try:
            if os.path.isdir(target):  # os.replace could not publish onto it
                raise IsADirectoryError(errno.EISDIR, "Is a directory")
            if "\0" in target:  # open() raises ValueError on it
                raise OSError(errno.EINVAL, "embedded null byte")
            fh = open(f"{target}.{os.getpid()}.tmp", mode,
                      **({} if "b" in mode else {"encoding": "utf-8", "newline": ""}))
        except OSError as exc:
            raise ValidationError(f"cannot write output file {path}: {exc.strerror}") from exc
        _staged.pop(target, None)  # a rewrite belongs to the innermost block
        _staged[target] = fh.name
        with fh:
            yield fh


def read_file(path: str | Path, text: bool = False):
    """The bytes of ``path`` (or of its staged file) as a read-only uint8
    array, or with ``text`` its UTF-8 text; bytes that do not decode are an
    OSError naming the file, and so is a path holding a NUL byte."""
    if "\0" in str(path):  # open() raises ValueError on it
        raise OSError(errno.EINVAL, "embedded null byte", str(path))
    with open(_staged.get(os.path.abspath(path), path), "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        buf = buf[: fh.readinto(buf)]  # short if the file shrank since fstat
    buf.flags.writeable = False
    try:
        return str(buf, "utf-8") if text else buf
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason})", str(path)) from None


def _parts(pixels: np.ndarray, labels=None) -> list:
    """The header and the contiguous ``<f4`` payload arrays of (n, C, H, W)
    pixels and optional (n, classes) labels, after every check."""
    n, c, h, w = pixels.shape
    for dim, name in ((c, "channels"), (h, "height"), (w, "width")):
        if not 1 <= dim <= 0xFFFF:
            raise ValidationError(f"{name}={dim} does not fit the header")
    if n > 0xFFFFFFFF:
        raise ValidationError("too many images for a u32 count")

    flags = classes = 0
    if labels is not None:
        flags, classes = FLAG_LABELS, labels.shape[1]
        if not 0 <= classes <= 0xFFFF:
            raise ValidationError(f"classes={classes} does not fit the header")
    if not _all_finite(pixels):
        raise ValidationError("refusing to write non-finite pixels")
    parts = [
        _HEADER.pack(MAGIC, VERSION, flags, n, c, h, w, classes),
        np.ascontiguousarray(pixels, dtype="<f4"),
    ]
    if labels is not None:
        if not _all_finite(labels):
            raise ValidationError("refusing to write non-finite labels")
        parts.append(np.ascontiguousarray(labels, dtype="<f4"))
    return parts


def write_arrays(path: str | Path, pixels: np.ndarray, labels=None) -> Path:
    """Write (n, C, H, W) float32 pixels and optional (n, classes) labels to
    ``path`` as IHDS, streaming the header and then each payload array's
    buffer; every check runs before the file is opened."""
    parts = _parts(pixels, labels)
    with output(path) as fh:
        fh.writelines(memoryview(part) for part in parts)
    return Path(path)


def _from_bytes(raw) -> tuple:
    """(pixels (count, C, H, W), labels (count, classes) or None), read-only
    ``<f4`` views of ``raw``, after every header and size check."""
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
    if has_labels and classes < 1 and count > 0:
        raise FormatError("label flag set but classes is 0")

    d = c * h * w
    need = _HEADER.size + 4 * count * d + (4 * count * classes if has_labels else 0)
    if len(raw) < need:
        raise TruncatedFileError(f"file is {len(raw)} bytes, payload needs {need}")
    if len(raw) > need:
        raise FormatError(f"{len(raw) - need} trailing bytes after payload")

    pixels = np.frombuffer(raw, "<f4", count * d, _HEADER.size).reshape(count, c, h, w)
    labels = None
    if has_labels:
        off = _HEADER.size + 4 * count * d
        labels = np.frombuffer(raw, "<f4", count * classes, off).reshape(count, classes)
    return pixels, labels


def read_arrays(path: str | Path) -> tuple:
    """write_arrays' inverse: the file's (pixels, labels or None)."""
    return _from_bytes(read_file(path))


def save_dataset(ds: Dataset, path: str | Path) -> Path:
    """write_arrays of the dataset's pixels and, when it has them, labels."""
    labels = None if ds.classes is None else ds.label_matrix()
    return write_arrays(path, ds.matrix().reshape(ds.n, *ds.dims), labels)


def load_dataset(path: str | Path) -> Dataset:
    return Dataset(*_from_bytes(read_file(path)))


def import_raw(
    raw_path: str | Path,
    dims: tuple[int, int, int],
    labels_path: str | Path | None = None,
    classes: int | None = None,
) -> Dataset:
    """Build a Dataset from raw u8 RGB tensors plus an optional label CSV.

    The raw file is count * channels*height*width bytes, channel-major per
    image, row-major within a channel; pixels are scaled to [0, 1]. Each CSV
    row is either a single integer class index in [0, ``classes``) (which
    must be given) or a full weight vector with one float per class (as
    many as ``classes`` when it is given).
    """
    if classes is not None and classes > 0xFFFF:
        raise ValidationError(f"classes={classes} does not fit the header (at most 65535)")
    dims = tuple(int(v) for v in dims)
    d = dims[0] * dims[1] * dims[2]
    raw = read_file(raw_path)
    if d == 0 or len(raw) % d != 0:
        raise FormatError(f"raw size {len(raw)} is not a multiple of d={d}")
    pixels = raw.reshape(-1, d).astype(np.float32) / 255.0

    labels = None
    if labels_path is not None:
        try:  # an unclosed quote can join rows into a cell over csv's size limit
            records = list(csv.reader(read_file(labels_path, text=True).splitlines()))
        except csv.Error as exc:
            raise OSError(errno.EINVAL, f"bad label CSV ({exc})", str(labels_path)) from None
        rows = []
        for rec in records:
            rec = [v for v in rec if v.strip() != ""]
            if len(rec) == 1:
                if classes is None:
                    raise ValidationError("class-index labels need an explicit class count")
                text = rec[0].strip()
                if not text.isdecimal() or int(text) >= classes:
                    raise ValidationError(f"class index {text!r} is not an integer in "
                                          f"[0, {classes})")
                rows.append(np.arange(classes) == int(text))  # one-hot
            elif rec:
                try:
                    rows.append(np.array([float(v) for v in rec], np.float32))
                except ValueError:
                    raise ValidationError(f"label row {rec} is not all numbers") from None
        if len({r.size for r in rows}) > 1:
            raise ValidationError("labels have mixed class counts")
        labels = np.array(rows) if rows else np.zeros((0, classes or 0), np.float32)
    return Dataset(pixels, labels, dims=dims, classes=classes)
