import tracemalloc
import warnings

import numpy as np
import pytest
import reference_encrypt as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instahide.core import (
    Coefficients,
    Dataset,
    Image,
    LabelVector,
    SignMask,
    _all_finite,
    _draw_lambdas,
    make_gaussian_dataset,
    normalize_image,
    one_hot,
    sample_coefficients,
    sample_sign_mask,
    scan_scores,
)
from instahide.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    ValidationError,
)
from instahide.rng import Draws, RngStream
from reference_rng import RowStream


# ---------------------------------------------------------------------------
# domain types


def test_image_validates_geometry_and_finiteness():
    Image(np.zeros(12, np.float32), (3, 2, 2))
    with pytest.raises(DimensionMismatchError):
        Image(np.zeros(11, np.float32), (3, 2, 2))
    with pytest.raises(ValidationError):
        Image(np.array([np.nan] * 4, np.float32), (1, 2, 2))
    with pytest.raises(ValidationError):
        Image(np.zeros(0, np.float32), (1, 0, 1))


def test_image_pixels_are_frozen():
    im = Image(np.zeros(4, np.float32), (1, 2, 2))
    with pytest.raises(ValueError):
        im.pixels[0] = 1.0


def test_image_equality_is_bitwise():
    a = Image(np.array([1, 2, 3, 4], np.float32), (1, 2, 2))
    b = Image(np.array([1, 2, 3, 4], np.float32), (1, 2, 2))
    c = Image(np.array([1, 2, 3, 5], np.float32), (1, 2, 2))
    assert a == b and a != c
    assert a != Image(np.array([1, 2, 3, 4], np.float32), (2, 2, 1))


def test_label_vector_bounds():
    LabelVector([0.0, 0.4, 0.6])
    LabelVector([0.2, 0.3])  # total below 1 is fine (unlabeled mix share)
    with pytest.raises(ValidationError):
        LabelVector([1.2, 0.0])
    with pytest.raises(ValidationError):
        LabelVector([-0.1, 0.5])
    with pytest.raises(ValidationError):
        LabelVector([])


def test_one_hot():
    lv = one_hot(2, 5)
    assert lv.weights.tolist() == [0, 0, 1, 0, 0]
    assert lv.classes == 5


@pytest.mark.parametrize("label, classes", [(-1, 3), (3, 3), (0, 0), (1.5, 3)])
def test_one_hot_refuses_a_label_outside_the_classes(label, classes):
    # a negative label must not index from the end, nor a float round to a class
    with pytest.raises(ValidationError, match="class index"):
        one_hot(label, classes)


def test_one_hot_builds_one_row_without_an_identity_matrix():
    # valid labels keep np.eye's bytes, without its classes x classes matrix
    for label, classes in ((0, 1), (2, 5), (np.int64(9), 10)):
        want = np.eye(classes, dtype=np.float32)[label]
        assert one_hot(label, classes).weights.tobytes() == want.tobytes()
    tracemalloc.start()
    try:
        lv = one_hot(3999, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lv.weights[3999] == 1.0 and lv.weights.sum() == 1.0
    assert peak < 1 << 20


def test_dataset_shape_checks():
    a = Image(np.zeros(4, np.float32), (1, 2, 2))
    b = Image(np.zeros(6, np.float32), (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        Dataset((a, b))
    with pytest.raises(ValidationError):
        Dataset((a,), (one_hot(0, 2), one_hot(1, 2)))
    with pytest.raises(ValidationError):
        Dataset(())  # empty needs explicit dims
    empty = Dataset((), dims=(1, 2, 2))
    assert empty.n == 0 and empty.matrix().shape == (0, 4)


def test_dataset_accessors_share_one_frozen_matrix():
    ds = make_gaussian_dataset(5, (2, 3, 3), RngStream(1), classes=4)
    for accessor in (ds.matrix, ds.label_matrix):
        first = accessor()
        assert accessor() is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.5
    assert ds.images is ds.images and ds.labels is ds.labels
    assert np.asarray(ds) is ds.matrix()


def test_dataset_from_images_equals_dataset_from_matrix():
    for normalize in (True, False):
        ds = make_gaussian_dataset(6, (3, 4, 4), RngStream(2), classes=3, normalize=normalize)
        from_objects = Dataset(ds.images, ds.labels)
        from_matrix = Dataset(
            ds.matrix(), ds.label_matrix(), dims=ds.dims
        )
        assert from_objects == from_matrix == ds
        assert from_objects.images == ds.images and from_matrix.labels == ds.labels


def test_dataset_copies_writable_arrays_and_shares_read_only_ones():
    pixels = np.ones((2, 4), np.float32)
    ds = Dataset(pixels, dims=(1, 2, 2))
    pixels[0, 0] = 7.0
    assert pixels.flags.writeable and ds.matrix()[0, 0] == 1.0
    frozen = np.frombuffer(np.ones((2, 4), np.float32).tobytes(), np.float32).reshape(2, 4)
    assert np.shares_memory(Dataset(frozen, dims=(1, 2, 2)).matrix(), frozen)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 150, -1])
def test_finiteness_is_checked_in_every_block(value, row):
    # 300 rows of 1,024 float32 span several of _all_finite's 1 MiB blocks
    pixels, labels = np.zeros((300, 1024), np.float32), np.zeros((300, 1024), np.float32)
    assert _all_finite(pixels) and _all_finite(pixels[:0]) and _all_finite(np.zeros((0, 0)))
    Dataset(pixels, labels, dims=(1, 32, 32))
    for poisoned in (pixels, labels):
        poisoned[row, 7] = value
        assert not _all_finite(poisoned)
        with pytest.raises(ValidationError, match="finite"):
            Dataset(pixels, labels, dims=(1, 32, 32))
        poisoned[row, 7] = 0.0
    with pytest.raises(ValidationError, match="finite"):
        Image(np.full(4, value), (1, 2, 2))
    with pytest.raises(ValidationError, match="finite"):
        LabelVector(np.array([0.5, value]))


def test_dataset_validates_the_whole_matrix_once():
    bad = np.zeros((3, 4), np.float32)
    bad[2, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        Dataset(bad, dims=(1, 2, 2))
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros((3, 5), np.float32), dims=(1, 2, 2))
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 4), np.float32), np.full((2, 3), 1.5), dims=(1, 2, 2))
    with pytest.raises(ValidationError):
        Dataset((Image(np.zeros(4), (1, 2, 2)),) * 2, (one_hot(0, 2), one_hot(0, 3)))


@pytest.mark.parametrize("dims", [(1, 2, 2), (1, 8, 8), (3, 32, 32), (3, 48, 48)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_rows_equal_per_image_normalization(seed, dims):
    raw = make_gaussian_dataset(4, dims, RngStream(seed), normalize=False).matrix()
    ds = make_gaussian_dataset(4, dims, RngStream(seed))
    for row, got in zip(raw, ds.matrix()):
        px = row.astype(np.float64)
        centered = px - px.mean()
        by_hand = (centered / np.linalg.norm(centered)).astype(np.float32)
        assert got.tobytes() == normalize_image(Image(row, dims)).pixels.tobytes()
        assert got.tobytes() == by_hand.tobytes()
    with pytest.raises(DegenerateInputError):
        make_gaussian_dataset(3, (1, 1, 1), RngStream(seed))  # every row is constant


def test_dataset_matrices():
    ds = make_gaussian_dataset(5, (2, 3, 3), RngStream(1), classes=4)
    assert ds.matrix().shape == (5, 18)
    assert ds.label_matrix().shape == (5, 4)
    assert ds.classes == 4
    unlabeled = make_gaussian_dataset(3, (2, 3, 3), RngStream(1))
    with pytest.raises(ValidationError):
        unlabeled.label_matrix()


def test_coefficients_validation():
    Coefficients([0.5, 0.5])
    with pytest.raises(ValidationError):
        Coefficients([0.6, 0.6])
    with pytest.raises(ValidationError):
        Coefficients([-0.1, 1.1])
    with pytest.raises(ValidationError):
        Coefficients([])


def test_sign_mask_validation():
    SignMask([1, -1, 1])
    with pytest.raises(ValidationError):
        SignMask([1, 0, -1])
    with pytest.raises(ValidationError):
        SignMask([])


# ---------------------------------------------------------------------------
# normalization and inner products


def test_normalize_two_pixel_oracle():
    # (3, 1): centered (1, -1), norm sqrt(2)
    im = Image(np.array([3.0, 1.0], np.float32), (1, 1, 2))
    out = normalize_image(im)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(out.pixels, [r, -r], atol=1e-7)


def test_normalize_properties():
    gen = np.random.default_rng(3)
    for _ in range(20):
        im = Image(gen.normal(size=48).astype(np.float32) * 7 + 2, (3, 4, 4))
        out = normalize_image(im)
        assert abs(float(out.pixels.sum())) < 1e-5
        assert abs(float(np.linalg.norm(out.pixels)) - 1.0) < 1e-5


def test_normalize_constant_image_is_degenerate():
    with pytest.raises(DegenerateInputError):
        normalize_image(Image(np.full(4, 2.5, np.float32), (1, 2, 2)))


def test_inner_product_small_oracle():
    assert scan_scores(np.array([[1.0, 2.0, 3.0]]), np.array([4.0, -5.0, 6.0])).tolist() == [12.0]
    with pytest.raises(DimensionMismatchError):
        scan_scores(np.zeros((1, 3)), np.zeros(4))


def test_normalized_gaussians_are_nearly_orthogonal():
    # |<a, b>| for independent unit vectors concentrates below ~5/sqrt(d)
    d = 1024
    ds = make_gaussian_dataset(100, (1, 32, 32), RngStream(17))
    m = ds.matrix()
    worst = 0.0
    for i in range(0, 100, 2):
        worst = max(worst, abs(scan_scores(m[i : i + 1], m[i + 1])[0]))
    assert worst <= 5.0 / np.sqrt(d)


def test_scan_scores_match_inner_product_bitwise():
    ds = make_gaussian_dataset(64, (1, 8, 8), RngStream(23), normalize=False)
    m = ds.matrix()
    q = ds.images[0]
    scores = scan_scores(m, q)
    expect = np.array([scan_scores(row[None], q)[0] for row in m])
    assert np.array_equal(scores, expect)
    with pytest.raises(DimensionMismatchError):
        scan_scores(m, np.zeros(7))


# ---------------------------------------------------------------------------
# coefficient sampling


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 6),
    c1=st.sampled_from([0.5, 0.65, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_coefficient_constraints_hold(k, c1, seed):
    assume(c1 * k >= 1.0)
    lam = sample_coefficients(k, c1, RngStream(seed))
    v = lam.values
    assert v.size == k
    assert v.min() >= 0.0
    assert abs(v.sum() - 1.0) <= 1e-9
    assert v.max() <= c1 + 1e-12


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_head_pair_floor_holds(k, seed):
    lam = sample_coefficients(k, 0.65, RngStream(seed), head_pair_min=0.3)
    assert lam.values[0] + lam.values[1] >= 0.3 - 1e-12


def test_coefficients_are_deterministic():
    a = sample_coefficients(4, 0.65, RngStream(5, 9))
    b = sample_coefficients(4, 0.65, RngStream(5, 9))
    assert a == b


def test_k1_coefficients_are_exactly_one():
    assert sample_coefficients(1, 1.0, RngStream(0)).values.tolist() == [1.0]


LAMBDA_GRID = [  # (k, c1, head_pair_min); the last head of each row is near 2 * c1
    (1, 1.0, 0.0), (2, 0.5, 0.0), (4, 0.25, 0.0), (4, 0.25, 0.3),  # no draws
    (2, 0.55, 0.0), (2, 0.55, 0.3), (2, 0.55, 0.95),
    (4, 0.65, 0.0), (4, 0.65, 0.3), (4, 0.4, 0.75),
    (6, 0.65, 0.0), (6, 0.65, 0.3), (6, 0.3, 0.55),
    (12, 0.65, 0.0), (12, 0.2, 0.3), (12, 0.2, 0.35),
]


def test_draw_lambda_matches_the_reference_sampler_and_stream_position():
    # the block sampler tests rounds of 1, 8, 16, ... candidates on the rows
    # still undecided; every row must get the reference loop's first admissible
    # candidate and its cursor must end where the reference leaves its stream
    first_row = {True: 0, False: 0}
    for k, c1, head in LAMBDA_GRID:
        block = RngStream(k).children(str(c1), str(head), ids=np.arange(12))
        draws = Draws(block)
        lam = _draw_lambdas(draws, k, c1, head)
        after = draws.random(np.arange(12), 0, 4)
        for r, stream in enumerate(block.ids.tolist()):
            ref, peek = RowStream(block.seed, stream), RowStream(block.seed, stream).random(k)
            expect = oracle._sample_coefficients_from(ref, k, c1, head).values
            assert lam[r].tobytes() == expect.tobytes(), (k, c1, head, r)
            assert after[r].tobytes() == ref.random(4).tobytes(), (k, c1, head, r)
            if c1 * k > 1.0 + 1e-12:
                p = peek / peek.sum()
                first_row[bool(p.max() <= c1 and p[0] + p[1] >= head)] += 1
    assert first_row[True] and first_row[False]  # both the first round and later ones ran


def test_infeasible_cap_is_rejected_up_front():
    with pytest.raises(InfeasibleConstraintError):
        sample_coefficients(3, 0.3, RngStream(0))  # 3 * 0.3 < 1
    with pytest.raises(ValidationError):
        sample_coefficients(4, 1.5, RngStream(0))
    with pytest.raises(ValidationError):
        sample_coefficients(0, 1.0, RngStream(0))


def test_sign_mask_sampling():
    m = sample_sign_mask(4096, RngStream(2))
    assert set(np.unique(m.signs)) == {-1, 1}
    assert m == sample_sign_mask(4096, RngStream(2))
    assert m != sample_sign_mask(4096, RngStream(3))
    # fair coin: mean of 4096 signs within 5 sigma of 0
    assert abs(float(m.signs.astype(np.float64).mean())) < 5.0 / np.sqrt(4096)
    with pytest.raises(ValidationError):
        sample_sign_mask(0, RngStream(0))


@pytest.mark.parametrize("dims, normalize", [((1, 0, 4), True), ((1, -2, 4), False),
                                             ((2, 2), False)])
def test_make_gaussian_dataset_checks_dims_before_it_draws(dims, normalize):
    # refused by name before numpy draws, warns or raises on the shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="dims must be three positive ints"):
            make_gaussian_dataset(2, dims, RngStream(0), normalize=normalize)


def test_make_gaussian_dataset_contract():
    ds = make_gaussian_dataset(6, (3, 4, 4), RngStream(8), classes=3)
    assert ds.n == 6 and ds.dims == (3, 4, 4) and ds.classes == 3
    for im in ds.images:
        assert abs(float(np.linalg.norm(im.pixels)) - 1.0) < 1e-5


@pytest.mark.parametrize("normalize, copies", [(False, 1.5), (True, 5.0)])
def test_a_synthetic_set_makes_its_pixel_matrix_once(normalize, copies):
    # the draw is scaled in place and shared with Dataset; normalization adds one
    # float64 copy (two float32 matrices) and its float32 result, no more
    tracemalloc.start()
    try:
        ds = make_gaussian_dataset(400, (3, 32, 32), RngStream(5), normalize=normalize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copies * ds.matrix().nbytes
