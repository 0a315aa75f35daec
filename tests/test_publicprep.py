import tracemalloc

import numpy as np
import pytest
import scipy.stats

from instahide import publicprep
from instahide.core import Image, make_gaussian_dataset
from instahide.errors import ValidationError
from instahide.publicprep import (
    PatchSet,
    _crops,
    build_patchset,
    keypoint_counts,
    load_patchset,
    random_crop,
    save_patchset,
)
from instahide.rng import Draws, RngStream


def keypoint_count(im: Image) -> int:
    """One image's count, as a one-image keypoint_counts batch."""
    return int(keypoint_counts(im.as_chw()[None])[0])


def test_random_crop_geometry_and_content():
    g = RngStream(1).generator()
    src = Image(g.normal(size=3 * 12 * 10).astype(np.float32), (3, 12, 10))
    crops = random_crop(src, (5, 4), 20, RngStream(2))
    assert len(crops) == 20
    chw = src.as_chw()
    for patch, (oy, ox) in crops:
        assert patch.dims == (3, 5, 4)
        assert 0 <= oy <= 7 and 0 <= ox <= 6
        assert np.array_equal(patch.as_chw(), chw[:, oy : oy + 5, ox : ox + 4])


def test_random_crop_rejects_oversize():
    src = Image(np.zeros(3 * 4 * 4, np.float32), (3, 4, 4))
    with pytest.raises(ValidationError):
        random_crop(src, (5, 4), 1, RngStream(0))
    assert random_crop(src, (2, 2), 0, RngStream(0)) == []


def test_crop_offsets_are_uniform():
    # 8 valid offsets per axis; chi-square each source's joint histogram of
    # 1,280 crops, for 100 sources: the pooled histogram must pass, and so
    # must a KS test that the per-source p-values are uniform
    src = RngStream(3).generator().normal(size=(1, 1, 11, 11)).astype(np.float32)
    draws = Draws(RngStream(4).children("crop", ids=np.arange(100)))
    _, prov = _crops(np.repeat(src, 100, axis=0), (4, 4), 1280, draws)
    cells = (prov[:, 1] * 8 + prov[:, 2]).reshape(100, 1280)
    counts = np.stack([np.bincount(row, minlength=64) for row in cells])
    assert scipy.stats.chisquare(counts.sum(axis=0)).pvalue > 0.01
    assert scipy.stats.kstest(scipy.stats.chisquare(counts, axis=1).pvalue, "uniform").pvalue > 0.01


def test_keypoints_flat_image_has_none():
    assert keypoint_count(Image(np.zeros(3 * 16 * 16, np.float32), (3, 16, 16))) == 0
    assert keypoint_count(Image(np.full(3 * 16 * 16, 7.0, np.float32), (3, 16, 16))) == 0


def test_keypoints_period2_checkerboard_cancels():
    # alternating single pixels: the centered derivative taps cancel exactly
    cb = np.indices((16, 16)).sum(0) % 2
    im = Image(np.stack([cb] * 3).astype(np.float32).ravel(), (3, 16, 16))
    assert keypoint_count(im) == 0


def test_keypoints_single_bright_pixel():
    z = np.zeros((3, 9, 9), np.float32)
    z[:, 4, 4] = 5.0
    assert keypoint_count(Image(z.ravel(), (3, 9, 9))) >= 1


def test_keypoints_noise_goldens():
    # frozen reference counts; detector changes must be deliberate
    g = RngStream(100).generator()
    noise32 = Image(g.normal(size=3 * 32 * 32).astype(np.float32), (3, 32, 32))
    noise16 = Image(g.normal(size=3 * 16 * 16).astype(np.float32), (3, 16, 16))
    assert keypoint_count(noise32) == 54
    assert keypoint_count(noise16) == 16


def test_keypoints_tiny_images_are_zero():
    assert keypoint_count(Image(np.ones(2 * 2 * 3, np.float32), (3, 2, 2))) == 0


def test_keypoint_counts_batch_matches_singleton():
    ds = make_gaussian_dataset(5, (3, 12, 12), RngStream(7), normalize=False)
    batch = ds.matrix().reshape(5, 3, 12, 12).astype(np.float64)
    counts = keypoint_counts(batch)
    singles = [keypoint_count(im) for im in ds.images]
    assert counts.tolist() == singles


def reference_count(chw: np.ndarray) -> int:
    """One (C, H, W) image's Harris count, written as directly as possible:
    np.pad copies and a fresh product per correlation tap."""
    x = chw.astype(np.float64)
    h, w = x.shape[1:]
    if h < 3 or w < 3:
        return 0
    grey = 0.299 * x[0] + 0.587 * x[1] + 0.114 * x[2] if len(x) == 3 else x.mean(axis=0)

    def corr(img, taps):
        padded, out = np.pad(img, 1, mode="reflect"), np.zeros((h, w))
        for dy in range(3):
            for dx in range(3):
                if taps[dy][dx] != 0.0:
                    out += taps[dy][dx] * padded[dy : dy + h, dx : dx + w]
        return out

    sobel = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    gx, gy = corr(grey, sobel), corr(grey, sobel.T)
    sxx, syy, sxy = (corr(a * b, np.ones((3, 3))) for a, b in ((gx, gx), (gy, gy), (gx, gy)))
    resp = sxx * syy - sxy * sxy - 0.06 * (sxx + syy) ** 2
    peak = resp.max()
    if not peak > 0:
        return 0
    padded = np.pad(resp, 1, constant_values=-np.inf)
    hits = (resp > 0) & (resp >= 0.01 * peak)
    for dy in range(3):
        for dx in range(3):
            if (dy, dx) != (1, 1):
                hits &= resp > padded[dy : dy + h, dx : dx + w]
    return int(hits.sum())


def harris_batches():
    g = np.random.default_rng(30)
    noisy = g.normal(size=(40, 3, 12, 12)).astype(np.float32)
    noisy[::5] = 0.25  # flat rows inside a textured batch
    return {
        "random": g.normal(size=(150, 3, 16, 16)).astype(np.float32),  # 2 default chunks
        "some flat": noisy,
        "flat": np.full((7, 3, 8, 8), 0.5, np.float32),
        "negative zero": np.full((7, 3, 8, 8), -0.0, np.float32),
        "3x3": g.normal(size=(20, 3, 3, 3)).astype(np.float32),
        "7x9": g.normal(size=(20, 3, 7, 9)).astype(np.float32),
        "1 channel": g.normal(size=(20, 1, 10, 6)).astype(np.float32),
        "2 channels": g.normal(size=(20, 2, 6, 10)).astype(np.float32),
        "float64": g.normal(size=(5, 3, 9, 9)),
        "empty": np.zeros((0, 3, 8, 8), np.float32),
    }


@pytest.mark.parametrize("kind", list(harris_batches()))
def test_keypoint_counts_match_the_per_image_reference(kind):
    batch = harris_batches()[kind]
    counts = keypoint_counts(batch)
    assert counts.dtype == np.int64 and counts.shape == (len(batch),)
    assert counts.tolist() == [reference_count(im) for im in batch]
    if kind == "random":
        assert counts.min() > 0  # the filter found keypoints to count


@pytest.mark.parametrize("kind", list(harris_batches()))
def test_chunk_size_never_changes_counts(kind, monkeypatch):
    # one-image chunks, chunks that leave a short tail (3 and 7 rows over 20,
    # 40 and 150), and one chunk for the whole batch give the same counts
    batch = harris_batches()[kind]
    want = keypoint_counts(batch)
    h, w = batch.shape[2:]
    for rows in (1, 3, 7, 10_000):
        monkeypatch.setattr(publicprep, "_CHUNK_BYTES", 8 * (h + 2) * (w + 2) * rows)
        assert np.array_equal(keypoint_counts(batch), want), rows


def test_build_patchset_keeps_textured_patches():
    src = make_gaussian_dataset(30, (3, 40, 40), RngStream(101), normalize=False)
    ps = build_patchset(src, (32, 32), 1, RngStream(102), min_keypoints=40)
    assert len(ps) == 30
    assert all(kp > 40 for kp in ps.keypoints)
    assert ps.dims == (3, 32, 32)
    for src_idx, oy, ox in ps.provenance:
        assert 0 <= src_idx < 30 and 0 <= oy <= 8 and 0 <= ox <= 8


def test_build_patchset_filters_flat_sources():
    flat = Image(np.zeros(3 * 40 * 40, np.float32), (3, 40, 40))
    noisy = make_gaussian_dataset(4, (3, 40, 40), RngStream(103), normalize=False)
    from instahide.core import Dataset

    mixed = Dataset((flat,) + noisy.images)
    # every flat crop dies, and the empty set says so by its size and columns
    ps_all_flat = build_patchset(Dataset((flat,)), (32, 32), 3, RngStream(104), min_keypoints=40)
    assert len(ps_all_flat) == 0 and ps_all_flat.provenance.shape == (0, 3)
    assert ps_all_flat.dims == (3, 32, 32)
    ps = build_patchset(mixed, (32, 32), 1, RngStream(105), min_keypoints=40)
    assert len(ps) == 4
    assert 0 not in set(int(s) for s, _, _ in ps.provenance)


def test_build_patchset_threshold_zero_disables_filter():
    flat = Image(np.zeros(3 * 8 * 8, np.float32), (3, 8, 8))
    from instahide.core import Dataset

    ps = build_patchset(Dataset((flat,)), (8, 8), 2, RngStream(1), min_keypoints=0)
    assert len(ps) == 2


def test_build_patchset_is_deterministic():
    src = make_gaussian_dataset(10, (3, 20, 20), RngStream(9), normalize=False)
    a = build_patchset(src, (16, 16), 2, RngStream(10), min_keypoints=0)
    b = build_patchset(src, (16, 16), 2, RngStream(10), min_keypoints=0)
    assert np.array_equal(a.matrix(), b.matrix())
    assert np.array_equal(a.provenance, b.provenance)


def test_build_patchset_keeps_one_copy_of_its_crops():
    # when every crop is kept, the crop gather itself becomes the PatchSet's
    # matrix: no second copy for the kept rows, no third for the set
    src = make_gaussian_dataset(1000, (3, 40, 40), RngStream(19), normalize=False)
    tracemalloc.start()
    try:
        ps = build_patchset(src, (32, 32), 1, RngStream(20), min_keypoints=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == 1000 and peak < 1.5 * ps.matrix().nbytes


def test_patchset_alignment_validation():
    im = Image(np.zeros(4, np.float32), (1, 2, 2))
    with pytest.raises(ValidationError):
        PatchSet((im,), (), (5,))
    with pytest.raises(ValidationError):
        PatchSet((), (), ()).dims  # empty set has no dims


@pytest.mark.parametrize("n, provenance, keypoints", [
    (5, np.zeros((5, 2)), np.zeros(5)),  # a width-2 provenance
    (5, np.zeros((5, 4)), np.zeros(5)),
    (5, np.zeros(15), np.zeros(5)),  # the right cells, flat
    (5, np.zeros((4, 3)), np.zeros(5)),  # a row short
    (5, np.zeros((5, 3)), np.zeros((5, 1))),  # keypoints as a column
    (5, np.zeros((5, 3)), np.zeros(6)),
    (0, np.zeros((0, 2)), ()),  # empty sets included
    (0, (), np.zeros((0, 1))),
    (0, np.zeros((1, 3)), np.zeros(1)),
])
def test_patchset_refuses_columns_of_the_wrong_shape(n, provenance, keypoints):
    with pytest.raises(ValidationError, match=rf"{n} patches need \({n}, 3\) provenance"):
        PatchSet(np.ones((n, 1, 2, 2), np.float32), provenance, keypoints)


@pytest.mark.parametrize("provenance, keypoints", [
    ([(1, 2, 3), (1, 2)], [0, 0]),  # ragged rows
    ([("a", 2, 3), (0, 0, 0)], [0, 0]),  # a cell that is not an integer
    ([(1, 2, 3), (0, 0, 0)], [0, None]),
    ([(1, 2, 3), (0, 0, 2**64)], [0, 0]),  # beyond int64
], ids=["ragged", "non-integer-cell", "non-integer-keypoint", "int64-overflow"])
def test_patchset_refuses_a_ragged_or_non_integer_column(provenance, keypoints):
    # each raised numpy's bare ValueError (or TypeError, OverflowError), exit 1 at the CLI
    with pytest.raises(ValidationError, match=r"2 patches need \(2, 3\) provenance .* integers"):
        PatchSet(np.ones((2, 1, 2, 2), np.float32), provenance, keypoints)


def test_a_reloaded_patch_set_has_read_only_int64_columns(tmp_path):
    src = make_gaussian_dataset(6, (3, 16, 16), RngStream(11), normalize=False)
    ps = build_patchset(src, (8, 8), 2, RngStream(12), min_keypoints=0)
    back = load_patchset(save_patchset(ps, tmp_path / "p.ihds")[0])
    for built, loaded, shape in ((ps.provenance, back.provenance, (12, 3)),
                                 (ps.keypoints, back.keypoints, (12,))):
        for col in (built, loaded):
            assert col.dtype == np.int64 and col.shape == shape and not col.flags.writeable
        assert np.array_equal(loaded, built)
    # the set freezes its own copy, never the caller's array
    prov = np.array([[2, 3, 1]])
    PatchSet(np.ones((1, 1, 2, 2), np.float32), prov, [41])
    assert prov.flags.writeable


def test_save_load_roundtrip_with_provenance(tmp_path):
    src = make_gaussian_dataset(6, (3, 16, 16), RngStream(11), normalize=False)
    ps = build_patchset(src, (8, 8), 2, RngStream(12), min_keypoints=0)
    data_path, prov_path = save_patchset(ps, tmp_path / "p.ihds")
    back = load_patchset(data_path)
    assert np.array_equal(back.matrix(), ps.matrix())
    assert np.array_equal(back.provenance, ps.provenance)
    assert np.array_equal(back.keypoints, ps.keypoints)
    assert prov_path.read_text().splitlines()[0] == (
        "source_index,offset_y,offset_x,keypoints"
    )


def test_load_rejects_mismatched_sidecar(tmp_path):
    src = make_gaussian_dataset(4, (3, 16, 16), RngStream(13), normalize=False)
    ps = build_patchset(src, (8, 8), 1, RngStream(14), min_keypoints=0)
    data_path, prov_path = save_patchset(ps, tmp_path / "p.ihds")
    lines = prov_path.read_text().splitlines()
    prov_path.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
    with pytest.raises(ValidationError):
        load_patchset(data_path)


def test_load_patchset_checks_the_pixels_once(tmp_path, monkeypatch):
    from instahide import core

    ps = build_patchset(make_gaussian_dataset(4, (3, 16, 16), RngStream(13), normalize=False),
                        (8, 8), 1, RngStream(14), min_keypoints=0)
    data_path, _ = save_patchset(ps, tmp_path / "p.ihds")
    calls, check = [], core._row_matrix

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(core, "_row_matrix", counted)
    back = load_patchset(data_path)
    assert len(calls) == 1 and not back.matrix().flags.writeable
    assert back.matrix().tobytes() == ps.matrix().tobytes()
    raw = bytearray(data_path.read_bytes())
    raw[-4:] = np.float32(np.nan).tobytes()  # the last pixel of the last patch
    data_path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="finite"):
        load_patchset(data_path)


def test_one_patch_roundtrip(tmp_path):
    ps = PatchSet(np.ones((1, 3, 4, 4), np.float32), [(2, 3, 1)], [41])
    back = load_patchset(save_patchset(ps, tmp_path / "one.ihds")[0])
    assert (back.provenance.tolist(), back.keypoints.tolist(), back.dims) == (
        [[2, 3, 1]], [41], (3, 4, 4))


def test_patchset_is_one_frozen_matrix_with_cached_views():
    src = make_gaussian_dataset(6, (3, 16, 16), RngStream(13), normalize=False)
    ps = build_patchset(src, (8, 8), 2, RngStream(14), min_keypoints=0)
    first = ps.matrix()
    assert ps.matrix() is first and not first.flags.writeable
    assert first.shape == (12, 3 * 8 * 8) and np.asarray(ps) is first
    assert ps.patches is ps.patches
    from_objects = PatchSet(ps.patches, ps.provenance, ps.keypoints)
    assert from_objects.matrix().tobytes() == first.tobytes()
    assert from_objects.patches == ps.patches and from_objects.dims == ps.dims == (3, 8, 8)


def test_build_patchset_crops_match_random_crop():
    src = make_gaussian_dataset(3, (3, 12, 10), RngStream(15), normalize=False)
    ps = build_patchset(src, (5, 4), 3, RngStream(16), min_keypoints=0)
    for si, image in enumerate(src.images):
        crops = random_crop(image, (5, 4), 3, RngStream(16).child("crop", si))
        assert [p for p, _ in crops] == list(ps.patches[3 * si : 3 * si + 3])
        assert [[si, *off] for _, off in crops] == ps.provenance[3 * si : 3 * si + 3].tolist()


def test_a_patch_set_is_an_unlabelled_dataset():
    from instahide.core import Dataset

    src = make_gaussian_dataset(4, (3, 12, 12), RngStream(17), normalize=False)
    ps = build_patchset(src, (6, 5), 2, RngStream(18), min_keypoints=0)
    assert isinstance(ps, Dataset) and ps.classes is None
    assert len(ps) == ps.n == 8 and ps.dims == (3, 6, 5)
    assert ps.patches is ps.images


def test_an_empty_patch_set_carries_the_crop_dims():
    src = make_gaussian_dataset(4, (3, 12, 12), RngStream(19), normalize=False)
    ps = build_patchset(src, (6, 5), 0, RngStream(20))  # no crop candidates
    assert isinstance(ps, PatchSet) and len(ps) == 0 and ps.provenance.shape == (0, 3)
    assert ps.dims == (3, 6, 5) and ps.matrix().shape == (0, 90)


def test_an_empty_patch_set_without_dims_is_refused_when_built():
    with pytest.raises(ValidationError, match="dims"):
        PatchSet((), (), ())
