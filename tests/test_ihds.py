import numpy as np
import pytest

from instahide.core import Dataset, make_gaussian_dataset, one_hot
from instahide.errors import FormatError, TruncatedFileError, ValidationError
from instahide.ihds import (
    arrays_to_bytes,
    dataset_from_bytes,
    dataset_to_bytes,
    import_raw,
    load_dataset,
    read_arrays,
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
