import ast
from pathlib import Path

import numpy as np
import pytest

from instahide import ihds
from instahide.core import Dataset, make_gaussian_dataset, one_hot
from instahide.errors import FormatError, TruncatedFileError, ValidationError
from instahide.ihds import (
    arrays_to_bytes,
    dataset_from_bytes,
    dataset_to_bytes,
    import_raw,
    load_dataset,
    output,
    publishing,
    read_arrays,
    read_file,
    save_dataset,
    write_arrays,
)
from instahide.rng import RngStream


def roundtrip(ds: Dataset) -> Dataset:
    return dataset_from_bytes(dataset_to_bytes(ds))


def test_roundtrip_is_bitwise():
    ds = make_gaussian_dataset(7, (3, 5, 4), RngStream(1), classes=6)
    back = roundtrip(ds)
    assert back == ds
    assert np.array_equal(back.matrix(), ds.matrix())
    assert np.array_equal(back.label_matrix(), ds.label_matrix())
    # serialization itself is deterministic
    assert dataset_to_bytes(ds) == dataset_to_bytes(back)


def test_roundtrip_without_labels():
    ds = make_gaussian_dataset(3, (1, 4, 4), RngStream(2))
    back = roundtrip(ds)
    assert back.labels is None and back == ds


def test_normalized_flag_survives():
    norm = make_gaussian_dataset(2, (1, 3, 3), RngStream(3))
    raw = make_gaussian_dataset(2, (1, 3, 3), RngStream(3), normalize=False)
    assert roundtrip(norm).images[0].normalized
    assert not roundtrip(raw).images[0].normalized


def test_zero_image_dataset():
    ds = Dataset((), dims=(3, 2, 2))
    back = roundtrip(ds)
    assert back.n == 0 and back.dims == (3, 2, 2)


def test_bad_magic_and_version():
    blob = dataset_to_bytes(make_gaussian_dataset(1, (1, 2, 2), RngStream(0)))
    with pytest.raises(FormatError):
        dataset_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        dataset_from_bytes(blob[:4] + b"\x09\x00" + blob[6:])


def test_truncated_payload():
    blob = dataset_to_bytes(make_gaussian_dataset(2, (1, 2, 2), RngStream(0)))
    with pytest.raises(TruncatedFileError):
        dataset_from_bytes(blob[:-3])
    with pytest.raises(TruncatedFileError):
        dataset_from_bytes(blob[:10])


def test_trailing_bytes_rejected():
    blob = dataset_to_bytes(make_gaussian_dataset(2, (1, 2, 2), RngStream(0)))
    with pytest.raises(FormatError):
        dataset_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("kind", ["labelled", "unlabelled", "normalized", "empty"])
def test_save_dataset_writes_the_in_memory_bytes(tmp_path, kind):
    ds = {
        "labelled": make_gaussian_dataset(7, (3, 5, 4), RngStream(1), classes=6,
                                          normalize=False),
        "unlabelled": make_gaussian_dataset(3, (1, 4, 4), RngStream(2), normalize=False),
        "normalized": make_gaussian_dataset(4, (2, 3, 3), RngStream(3), classes=2),
        "empty": Dataset((), dims=(3, 2, 2)),
    }[kind]
    path = save_dataset(ds, tmp_path / "ds.ihds")
    assert path.read_bytes() == dataset_to_bytes(ds)
    assert load_dataset(path) == ds


@pytest.mark.parametrize("poison", ["pixels", "labels"])
def test_nonfinite_payload_touches_no_file(tmp_path, poison):
    # the writer checks everything before it opens (and truncates) the target
    pixels, labels = np.ones((2, 1, 2, 2), np.float32), np.ones((2, 3), np.float32)
    {"pixels": pixels, "labels": labels}[poison][1, 0] = np.nan
    with pytest.raises(ValidationError):
        write_arrays(tmp_path / "new.ihds", pixels, labels)
    assert not (tmp_path / "new.ihds").exists()
    (tmp_path / "old.ihds").write_bytes(b"kept")
    with pytest.raises(ValidationError):
        write_arrays(tmp_path / "old.ihds", pixels, labels)
    assert (tmp_path / "old.ihds").read_bytes() == b"kept"


def test_nonfinite_payload_refused():
    # a Dataset refuses non-finite pixels itself, so poison the writer's input
    pixels = np.array([np.inf, 0, 0, 0], np.float32).reshape(1, 1, 2, 2)
    with pytest.raises(ValidationError):
        arrays_to_bytes(pixels)
    with pytest.raises(ValidationError):
        arrays_to_bytes(np.ones((1, 1, 2, 2), np.float32), np.array([[np.nan]], np.float32))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, -1])
def test_writer_refuses_nonfinite_first_and_last_rows(value, row):
    # 300 rows of 1,024 float32 span several blocks of the finiteness check
    pixels, labels = np.zeros((300, 1, 32, 32), np.float32), np.zeros((300, 1024), np.float32)
    arrays_to_bytes(pixels, labels)
    for poisoned in (pixels, labels):
        poisoned[row, 0] = value
        with pytest.raises(ValidationError, match="non-finite"):
            arrays_to_bytes(pixels, labels)
        poisoned[row, 0] = 0.0


@pytest.mark.parametrize("labelled", [True, False])
def test_read_arrays_inverts_write_arrays(tmp_path, labelled):
    pixels = RngStream(6).generator().standard_normal((3, 2, 3, 4), dtype=np.float32)
    labels = np.eye(3, dtype=np.float32) if labelled else None
    path = write_arrays(tmp_path / "a.ihds", pixels, labels, normalized=True)
    got_pixels, got_labels, normalized = read_arrays(path)
    assert got_pixels.dtype == np.dtype("<f4") and got_pixels.shape == pixels.shape
    assert got_pixels.tobytes() == pixels.tobytes() and normalized
    assert not got_pixels.flags.writeable
    assert (got_labels is None) if labels is None else got_labels.tobytes() == labels.tobytes()
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(TruncatedFileError):
        read_arrays(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        read_arrays(path)
    path.write_bytes(b"IHDX" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        read_arrays(path)


def test_file_roundtrip(tmp_path):
    ds = make_gaussian_dataset(4, (3, 4, 4), RngStream(5), classes=2)
    p = save_dataset(ds, tmp_path / "x.ihds")
    assert load_dataset(p) == ds


def test_import_raw_scales_to_unit_interval(tmp_path):
    raw = bytes(range(24)) + bytes(range(100, 124))
    rp = tmp_path / "imgs.raw"
    rp.write_bytes(raw)
    lp = tmp_path / "labels.csv"
    lp.write_text("0\n3\n")
    ds = import_raw(rp, (2, 3, 4), labels_path=lp, classes=5)
    assert ds.n == 2 and ds.dims == (2, 3, 4) and ds.classes == 5
    assert ds.images[0].pixels[1] == pytest.approx(1 / 255)
    assert ds.labels[1].weights.tolist() == [0, 0, 0, 1, 0]


def test_import_raw_accepts_weight_rows(tmp_path):
    rp = tmp_path / "imgs.raw"
    rp.write_bytes(bytes(8))
    lp = tmp_path / "labels.csv"
    lp.write_text("0.5,0.25,0.25\n")
    ds = import_raw(rp, (2, 2, 2), labels_path=lp)
    assert ds.labels[0].weights.tolist() == [0.5, 0.25, 0.25]


def test_import_raw_errors(tmp_path):
    rp = tmp_path / "imgs.raw"
    rp.write_bytes(bytes(10))  # not a multiple of d=8
    with pytest.raises(FormatError):
        import_raw(rp, (2, 2, 2))
    rp.write_bytes(bytes(8))
    lp = tmp_path / "labels.csv"
    lp.write_text("0\n1\n")  # two labels for one image
    with pytest.raises(ValidationError):
        import_raw(rp, (2, 2, 2), labels_path=lp, classes=2)
    lp.write_text("1\n")  # class index without a class count
    with pytest.raises(ValidationError):
        import_raw(rp, (2, 2, 2), labels_path=lp)


@pytest.mark.parametrize("index", ["5", "-1", "1.5", "3"])
def test_import_raw_rejects_class_indices_outside_the_classes(tmp_path, index):
    rp = tmp_path / "imgs.raw"
    rp.write_bytes(bytes(8))
    lp = tmp_path / "labels.csv"
    lp.write_text(index + "\n")
    with pytest.raises(ValidationError, match="class index"):
        import_raw(rp, (2, 2, 2), labels_path=lp, classes=3)
    lp.write_text("2\n")
    assert import_raw(rp, (2, 2, 2), labels_path=lp, classes=3).label_matrix().tolist() == [
        [0.0, 0.0, 1.0]
    ]


@pytest.mark.parametrize(
    "row, classes",
    [("0.5,x,0.5", 3), ("0.5,x,0.5", None), ("0.5,0.5", 3), ("0.25,0.25,0.25,0.25", 3)],
    ids=["non-numeric", "non-numeric-no-classes", "narrower", "wider"],
)
def test_import_raw_rejects_malformed_weight_rows(tmp_path, row, classes):
    rp = tmp_path / "imgs.raw"
    rp.write_bytes(bytes(8))
    lp = tmp_path / "labels.csv"
    lp.write_text(row + "\n")
    with pytest.raises(ValidationError):
        import_raw(rp, (2, 2, 2), labels_path=lp, classes=classes)
    lp.write_text("0.25,0.25,0.5\n")
    ds = import_raw(rp, (2, 2, 2), labels_path=lp, classes=classes)
    assert ds.label_matrix().tolist() == [[0.25, 0.25, 0.5]]


def test_a_block_publishes_on_success_and_nothing_on_error(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.txt"
    a.write_bytes(b"old")
    with publishing():
        with output(a) as fh:
            fh.write(b"new")
        with output(b, "w") as fh:
            fh.write("text\n")
        assert a.read_bytes() == b"old" and not b.exists()  # staged, not yet published
        assert bytes(read_file(a)) == b"new"  # a staged path reads as its staged file
    assert a.read_bytes() == b"new" and b.read_text() == "text\n"
    with pytest.raises(KeyError):
        with publishing():
            with output(a) as fh:
                fh.write(b"lost")
            raise KeyError("fails after the write")
    assert a.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]


def test_an_inner_block_that_fails_discards_only_its_own_files(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    with publishing():
        with output(a) as fh:
            fh.write(b"kept")
        with pytest.raises(KeyError):
            with output(b) as fh:
                fh.write(b"half")
                raise KeyError("fails mid-write")
    assert a.read_bytes() == b"kept" and not b.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]


def test_an_output_in_a_missing_directory_is_invalid_input(tmp_path):
    with pytest.raises(ValidationError, match="cannot write output file"):
        save_dataset(make_gaussian_dataset(2, (1, 2, 2), RngStream(0)), tmp_path / "no" / "d.ihds")
    assert not list(tmp_path.iterdir())


def test_read_file_gives_a_frozen_buffer_and_names_undecodable_text(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"\xffabc")
    buf = read_file(path)
    assert buf.dtype == np.uint8 and not buf.flags.writeable and bytes(buf) == b"\xffabc"
    with pytest.raises(OSError, match="not UTF-8 text") as exc:
        read_file(path, text=True)
    assert exc.value.filename == str(path)
    ds = make_gaussian_dataset(3, (1, 2, 2), RngStream(0))
    save_dataset(ds, tmp_path / "d.ihds")
    assert not load_dataset(tmp_path / "d.ihds").matrix().flags.writeable


# what a module would call or import to reach a file without ihds.output and
# ihds.read_file; os is imported for os.environ, so only calls into it count
_FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text", "tofile"}
_NUMPY_FILE_CALLS = {"fromfile", "load", "memmap", "save", "savetxt", "savez"}
_TEXT_PARSERS = {"loadtxt", "genfromtxt"}  # allowed on the lines of a read_file text
_FILE_MODULES = {"io", "mmap", "shutil", "tempfile"}


def _parses_lines(call: ast.Call) -> bool:
    """Whether ``call``'s first argument is ``<text>.splitlines()``."""
    arg = call.args[0] if call.args else None
    return isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "splitlines"


def _file_access(tree: ast.AST):
    """(line, what) for each call or import in ``tree`` that could touch a file path."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            yield from ((node.lineno, n) for n in names if (n or "").split(".")[0] in _FILE_MODULES)
        elif isinstance(node, ast.Call):
            func = root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            module = getattr(root, "id", None) if root is not func else None
            if (name in _FILE_CALLS or module in {"os", *_FILE_MODULES}
                    or module == "np" and name in _NUMPY_FILE_CALLS
                    or name in _TEXT_PARSERS and not _parses_lines(node)):
                yield node.lineno, ast.unparse(func)


def test_only_ihds_touches_file_paths():
    package = Path(ihds.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "ihds.py":
            tree = ast.parse(path.read_text())
            found += [f"{path.name}:{line} {what}" for line, what in _file_access(tree)]
    assert found == []
    # the scan sees what it bans
    probe = ("from mmap import mmap\nopen(p)\nP(p).write_text(t)\nos.replace(a, b)\n"
             "np.save(p, a)\nnp.loadtxt(p)\nnp.loadtxt(text.splitlines())\nload(p)\n")
    assert [line for line, _ in _file_access(ast.parse(probe))] == [1, 2, 3, 4, 5, 6]
