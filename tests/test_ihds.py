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
    save_dataset,
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


def test_nonfinite_payload_refused():
    # a Dataset refuses non-finite pixels itself, so poison the writer's input
    pixels = np.array([np.inf, 0, 0, 0], np.float32).reshape(1, 1, 2, 2)
    with pytest.raises(ValidationError):
        arrays_to_bytes(pixels)
    with pytest.raises(ValidationError):
        arrays_to_bytes(np.ones((1, 1, 2, 2), np.float32), np.array([[np.nan]], np.float32))


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
