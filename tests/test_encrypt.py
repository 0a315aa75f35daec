import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instahide.core import (
    Coefficients,
    Dataset,
    _draw_lambda,
    Image,
    make_gaussian_dataset,
    one_hot,
    sample_sign_mask,
)
from instahide.encrypt import (
    SchemeConfig,
    apply_mask,
    encrypt_epoch,
    encrypt_history,
    encrypt_input,
    encrypt_sample,
    export_challenge,
    identity_mask,
    mix_pixels,
)
from instahide.errors import (
    DimensionMismatchError,
    InfeasibleConstraintError,
    ValidationError,
)
from instahide.ihds import load_dataset
from instahide.publicprep import PatchSet
from instahide.rng import RngStream


def unit_patchset(n: int, dims, rng: RngStream) -> PatchSet:
    ds = make_gaussian_dataset(n, dims, rng, normalize=False)
    return PatchSet(
        ds.images,
        tuple((i, 0, 0) for i in range(n)),
        tuple(100 for _ in range(n)),
        1.0,
    )


# ---------------------------------------------------------------------------
# mixing


def test_mixup_k1_is_identity():
    im = Image(np.arange(4, dtype=np.float32), (1, 2, 2))
    lv = one_hot(1, 3)
    out, _ = encrypt_sample(Dataset([im], [lv]), 0, SchemeConfig("mixup", k=1, c1=1.0),
                            RngStream(0))
    assert out.xtilde == im and out.ytilde == lv


def test_mixup_basis_vectors():
    # c1 * k == 1 admits only the uniform coefficient vector
    e1 = Image(np.array([1, 0, 0, 0], np.float32), (1, 2, 2))
    e2 = Image(np.array([0, 1, 0, 0], np.float32), (1, 2, 2))
    ds = Dataset([e1, e2], [one_hot(0, 2), one_hot(1, 2)])
    out, _ = encrypt_sample(ds, 0, SchemeConfig("mixup", k=2, c1=0.5), RngStream(0))
    assert out.xtilde.pixels.tolist() == [0.5, 0.5, 0.0, 0.0]
    assert out.ytilde.weights.tolist() == [0.5, 0.5]


def test_mixup_rejects_mismatches():
    a = Image(np.zeros(4, np.float32), (1, 2, 2))
    b = Image(np.zeros(6, np.float32), (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        mix_pixels([a, b], Coefficients([0.5, 0.5]))
    with pytest.raises(ValidationError):
        Dataset([a, a], [one_hot(0, 2), one_hot(0, 3)])
    with pytest.raises(ValidationError):
        mix_pixels([a], Coefficients([0.5, 0.5]))


def test_mixed_norm_tracks_coefficient_norm():
    # unit near-orthogonal sources: ||x~|| should be close to ||lambda||
    for seed in range(100):
        rng = RngStream(seed)
        ds = make_gaussian_dataset(4, (3, 32, 32), rng.child("ds"), classes=3)
        sample, key = encrypt_sample(
            ds, 0, SchemeConfig("mixup", k=4, c1=0.65), rng.child("enc")
        )
        lam_norm = float(np.linalg.norm(key.lam.values))
        x_norm = float(np.linalg.norm(sample.xtilde.pixels))
        assert 0.8 * lam_norm < x_norm < 1.2 * lam_norm


# ---------------------------------------------------------------------------
# mask algebra


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), d=st.integers(1, 256))
def test_mask_involution_is_bit_exact(seed, d):
    rng = RngStream(seed)
    x = Image(rng.child("x").generator().normal(size=d).astype(np.float32), (1, 1, d))
    sigma = sample_sign_mask(d, rng.child("m"))
    back = apply_mask(apply_mask(x, sigma), sigma)
    assert back.pixels.tobytes() == x.pixels.tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), d=st.integers(1, 256))
def test_masking_preserves_absolute_values(seed, d):
    rng = RngStream(seed)
    x = Image(rng.child("x").generator().normal(size=d).astype(np.float32), (1, 1, d))
    sigma = sample_sign_mask(d, rng.child("m"))
    masked = apply_mask(x, sigma)
    assert np.array_equal(np.abs(masked.pixels), np.abs(x.pixels))


def test_identity_mask_is_identity():
    x = Image(np.arange(6, dtype=np.float32), (1, 2, 3))
    assert apply_mask(x, identity_mask(6)) == x


def test_mask_dim_mismatch():
    x = Image(np.zeros(4, np.float32), (1, 2, 2))
    with pytest.raises(DimensionMismatchError):
        apply_mask(x, identity_mask(5))


# ---------------------------------------------------------------------------
# inside-dataset scheme


def test_inside_k1_is_mask_only():
    rng = RngStream(4)
    ds = make_gaussian_dataset(3, (1, 3, 3), rng.child("ds"), classes=2)
    sample, key = encrypt_sample(ds, 1, SchemeConfig("inside", 1, 1.0), rng.child("e"))
    assert key.sources == (("private", 1),)
    assert sample.ytilde == ds.labels[1]
    assert np.array_equal(
        np.abs(sample.xtilde.pixels), np.abs(ds.images[1].pixels)
    )


def test_inside_first_source_is_self():
    rng = RngStream(6)
    ds = make_gaussian_dataset(8, (1, 3, 3), rng.child("ds"), classes=2)
    for i in range(8):
        _, key = encrypt_sample(ds, i, SchemeConfig("inside", 4, 0.65), rng.child("e", i))
        tags, idxs = zip(*key.sources)
        assert key.sources[0] == ("private", i)
        assert set(tags) == {"private"}
        assert len(set(idxs)) == 4  # no repeats within one key


def test_inside_k_larger_than_n_fails():
    ds = make_gaussian_dataset(3, (1, 2, 2), RngStream(0), classes=2)
    with pytest.raises(ValidationError):
        encrypt_sample(ds, 0, SchemeConfig("inside", 4, 0.65), RngStream(1))


def test_inside_reencryption_key_is_deterministic_and_fresh():
    rng = RngStream(13)
    ds = make_gaussian_dataset(6, (1, 4, 4), rng.child("ds"), classes=2)
    s1, k1 = encrypt_sample(ds, 2, SchemeConfig("inside", 4, 0.65), rng.child("e", 0))
    s2, k2 = encrypt_sample(ds, 2, SchemeConfig("inside", 4, 0.65), rng.child("e", 0))
    s3, k3 = encrypt_sample(ds, 2, SchemeConfig("inside", 4, 0.65), rng.child("e", 1))
    assert s1.xtilde == s2.xtilde and k1.mask == k2.mask and k1.lam == k2.lam
    assert k1.mask != k3.mask


def test_inside_label_mix_sums_to_one():
    rng = RngStream(15)
    ds = make_gaussian_dataset(10, (1, 4, 4), rng.child("ds"), classes=4)
    for i in range(10):
        sample, _ = encrypt_sample(ds, i, SchemeConfig("inside", 4, 0.65), rng.child("e", i))
        assert float(sample.ytilde.weights.sum()) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# cross-dataset scheme


def test_cross_key_structure_over_100_draws():
    rng = RngStream(31)
    ds = make_gaussian_dataset(10, (1, 4, 4), rng.child("ds"), classes=3)
    pub = unit_patchset(50, (1, 4, 4), rng.child("pub"))
    for t in range(100):
        cfg = SchemeConfig("cross", 6, 0.65, 0.3)
        sample, key = encrypt_sample(ds, t % 10, cfg, rng.child("e", t), pub)
        tags = [tag for tag, _ in key.sources]
        assert tags.count("private") == 2 and tags.count("public") == 4
        pubidx = [i for tag, i in key.sources if tag == "public"]
        assert len(set(pubidx)) == 4
        lam = key.lam.values
        assert lam[0] + lam[1] >= 0.3 - 1e-12
        assert 0.3 - 1e-6 <= float(sample.ytilde.weights.sum()) <= 1.0 + 1e-6


def test_cross_infeasible_c2():
    ds = make_gaussian_dataset(5, (1, 2, 2), RngStream(0), classes=2)
    pub = unit_patchset(5, (1, 2, 2), RngStream(1))
    with pytest.raises(InfeasibleConstraintError):
        encrypt_sample(ds, 0, SchemeConfig("cross", 3, 0.65, 1.0), RngStream(2), pub)


def test_cross_requires_k_at_least_3_and_patches():
    ds = make_gaussian_dataset(5, (1, 2, 2), RngStream(0), classes=2)
    pub = unit_patchset(5, (1, 2, 2), RngStream(1))
    with pytest.raises(ValidationError):
        encrypt_sample(ds, 0, SchemeConfig("cross", 2, 0.65, 0.3), RngStream(2), pub)
    empty = PatchSet((), (), (), 0.0)
    with pytest.raises(ValidationError):
        encrypt_sample(ds, 0, SchemeConfig("cross", 4, 0.65, 0.3), RngStream(2), empty)


# ---------------------------------------------------------------------------
# epochs and histories


def test_epoch_covers_every_image_once():
    rng = RngStream(41)
    ds = make_gaussian_dataset(10, (1, 4, 4), rng.child("ds"), classes=2)
    cfg = SchemeConfig("inside", k=4, c1=0.65)
    samples, keys = encrypt_epoch(ds, cfg, 3, rng)
    assert len(samples) == 10
    assert all(s.epoch == 3 for s in samples)
    bases = sorted(key.sources[0][1] for key in keys)
    assert bases == list(range(10))  # every image encrypted exactly once
    ids = sorted(s.sample_id for s in samples)
    assert ids == list(range(30, 40))


def test_epochs_share_no_mask():
    rng = RngStream(43)
    ds = make_gaussian_dataset(6, (1, 8, 8), rng.child("ds"), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    _, k0 = encrypt_epoch(ds, cfg, 0, rng)
    _, k1 = encrypt_epoch(ds, cfg, 1, rng)
    masks0 = {key.mask.signs.tobytes() for key in k0}
    masks1 = {key.mask.signs.tobytes() for key in k1}
    assert not masks0 & masks1


def test_history_keys_are_unique():
    rng = RngStream(47)
    ds = make_gaussian_dataset(5, (1, 8, 8), rng.child("ds"), classes=2)
    cfg = SchemeConfig("inside", k=3, c1=0.65)
    samples, keys = encrypt_history(ds, cfg, 4, rng)
    assert len(samples) == 20
    fingerprints = {
        (key.mask.signs.tobytes(), key.sources) for key in keys
    }
    assert len(fingerprints) == 20


def test_history_is_deterministic():
    ds = make_gaussian_dataset(4, (1, 4, 4), RngStream(51, 1), classes=2)
    cfg = SchemeConfig("mixup", k=2, c1=0.65)
    a, _ = encrypt_history(ds, cfg, 3, RngStream(52))
    b, _ = encrypt_history(ds, cfg, 3, RngStream(52))
    assert all(x.xtilde == y.xtilde and x.ytilde == y.ytilde for x, y in zip(a, b))


def test_scheme_config_validation():
    SchemeConfig("inside", k=4, c1=0.65)
    with pytest.raises(ValidationError):
        SchemeConfig("bogus", k=4, c1=0.65)
    with pytest.raises(ValidationError):
        SchemeConfig("inside", k=0, c1=0.65)
    with pytest.raises(ValidationError):
        SchemeConfig("cross", k=2, c1=0.65, c2=0.3)  # cross needs k >= 3
    with pytest.raises(ValidationError):
        SchemeConfig("inside", k=4, c1=1.5)


def test_encrypt_input_mixup_needs_partners():
    rng = RngStream(61)
    ds = make_gaussian_dataset(4, (1, 4, 4), rng.child("ds"))
    cfg = SchemeConfig("mixup", k=3, c1=0.65)
    out = encrypt_input(ds.images[0], list(ds.images[1:3]), cfg, rng.child("e"))
    assert out.dims == (1, 4, 4)
    with pytest.raises(ValidationError):
        encrypt_input(ds.images[0], [ds.images[1]], cfg, rng.child("e"))


def test_export_challenge_writes_no_key_material(tmp_path):
    rng = RngStream(71)
    ds = make_gaussian_dataset(6, (1, 4, 4), rng.child("ds"), classes=3)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    samples, keys = encrypt_history(ds, cfg, 2, rng.child("h"))
    out, meta = export_challenge(
        samples, tmp_path / "chal.ihds", {"scheme": "inside", "k": 2}
    )
    blob = out.read_bytes()
    for im in ds.images:
        assert im.pixels.tobytes() not in blob
    for key in keys:
        assert key.mask.signs.tobytes() not in blob
    back = load_dataset(out)
    assert back.n == 12
    text = meta.read_text()
    assert "k=2" in text and "scheme=inside" in text
    with pytest.raises(ValidationError):
        export_challenge([], tmp_path / "empty.ihds", {})


def test_scheme_config_rejects_infeasible_constraints_up_front():
    # lambda_0 + lambda_1 <= 2 * c1 = 0.68 < c2: rejected when the config is
    # built, not after the rejection sampler's cap
    with pytest.raises(InfeasibleConstraintError):
        SchemeConfig("cross", k=3, c1=0.34, c2=0.99)
    with pytest.raises(InfeasibleConstraintError):
        SchemeConfig("inside", k=3, c1=0.3)  # 3 * 0.3 < 1
    with pytest.raises(InfeasibleConstraintError):
        SchemeConfig("mixup", k=1, c1=0.65)
    SchemeConfig("inside", k=3, c1=0.34, c2=0.99)  # inside has no pair floor


def test_closed_form_feasibility_agrees_with_the_sampler():
    # feasible per SchemeConfig <=> the rejection loop finds an admissible
    # vector. The c2 values stay below the floors whose admissible region is
    # too thin to hit within the sampler's cap (e.g. k=6, c2=0.9: ~1e-5).
    for scheme in ("inside", "cross"):
        for k in (3, 4, 6):
            for c1 in (0.2, 0.25, 0.34, 0.4, 0.5, 0.65, 1.0):
                for c2 in (0.3, 0.6, 0.75):
                    head = c2 if scheme == "cross" else 0.0
                    try:
                        SchemeConfig(scheme, k, c1, c2)
                        built = True
                    except InfeasibleConstraintError:
                        built = False
                    gen = RngStream(k, int(c1 * 100)).child(scheme, int(c2 * 100)).generator()
                    try:
                        lam = _draw_lambda(gen, k, c1, head)
                        found = lam.max() <= c1 + 1e-12 and lam[0] + lam[1] >= head - 1e-12
                    except InfeasibleConstraintError:
                        found = False
                    assert built == found, (scheme, k, c1, c2)
