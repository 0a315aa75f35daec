import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instahide import encrypt
from instahide.core import (
    Coefficients,
    Dataset,
    _draw_lambdas,
    Image,
    make_gaussian_dataset,
    one_hot,
    sample_sign_mask,
)
from instahide.encrypt import (
    SCHEMES,
    EncryptedSamples,
    EncryptionKeys,
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
from instahide.rng import Draws, RngStream
from instahide.utility import _encrypted_probs, init_model


def unit_patchset(n: int, dims, rng: RngStream) -> PatchSet:
    ds = make_gaussian_dataset(n, dims, rng, normalize=False)
    return PatchSet(
        ds.images,
        tuple((i, 0, 0) for i in range(n)),
        tuple(100 for _ in range(n)),
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


def test_mix_gathers_every_block_in_every_tile(monkeypatch):
    # each slot draws rows from all three blocks, so every tile mixes rows of
    # different blocks; each row must equal the plain float64 slot sum
    gen = np.random.default_rng(12)
    S = [gen.normal(size=(n, 7)).astype(np.float32) for n in (5, 1, 11)]
    idx, lam = gen.integers(0, 17, size=(23, 5)), gen.random((23, 5))
    want = np.zeros((23, 7))
    for j in range(5):
        want += np.concatenate(S)[idx[:, j]].astype(np.float64) * lam[:, j, None]
    for budget in (8 * 7, 8 * 7 * 4, encrypt._TILE_BYTES):
        monkeypatch.setattr(encrypt, "_TILE_BYTES", budget)
        assert encrypt._mix(S, idx, lam).tobytes() == want.astype(np.float32).tobytes()


def test_mix_refuses_source_rows_outside_its_blocks():
    # a negative row must not wrap around or reuse a stale row, and one past
    # the last block is named, not a bare numpy IndexError
    S = [np.ones((3, 4), np.float32), 2 * np.ones((2, 4), np.float32)]
    for bad in (-1, 5):
        with pytest.raises(IndexError, match=r"outside \[0, 5\)"):
            encrypt._mix(S, np.array([[0, bad]]), np.array([[0.5, 0.5]]))
    assert encrypt._mix(S, np.array([[0, 4]]), np.array([[0.5, 0.5]])).tolist() == [[1.5] * 4]


def test_mix_takes_one_block_as_the_masked_gather_does(monkeypatch):
    # one stacked block, two blocks with one block per slot column, and two
    # blocks with columns spanning both give the same bytes, +-0.0 included
    gen = np.random.default_rng(13)
    A, B = (gen.normal(size=(n, 6)).astype(np.float32) for n in (9, 14))
    A[:, 0], B[:, 1], B[::2, 2] = -0.0, 0.0, -0.0
    lam = gen.random((31, 4))
    lam[:, 3] = 0.0  # -x * 0.0 gives -0.0 terms
    single = np.column_stack([gen.integers(0, 9, 31), 9 + gen.integers(0, 14, (31, 2)),
                              gen.integers(0, 9, 31)])
    for idx in (single, gen.integers(0, 23, (31, 4))):
        for budget in (8 * 6, 8 * 6 * 7, encrypt._TILE_BYTES):
            monkeypatch.setattr(encrypt, "_TILE_BYTES", budget)
            want = encrypt._mix([np.concatenate([A, B])], idx, lam).view(np.uint32)
            assert encrypt._mix([A, B], idx, lam).view(np.uint32).tobytes() == want.tobytes()


def test_mix_adds_a_one_column_mix_slot_by_slot():
    # one-pixel images and one-class labels: (0 + 1 + 1e-16) - 1 is 0 in slot
    # order, where adding the slots in SIMD lanes would give 1e-16
    S = [np.array([[1.0], [1e-16], [-1.0]], np.float32)]
    for m in (1, 3):
        assert encrypt._mix(S, np.tile([0, 1, 2], (m, 1)), np.ones((m, 3))).tolist() == [[0.0]] * m


def test_mix_allocates_nothing_per_tile():
    # 40 tiles of 6 single-block slots: the traced peak is the output, the one
    # gather tile and accumulator, the (m, k) block and row indices, and 64 KiB
    # of einsum's cast buffer and loop objects, so no slot copies its rows
    gen, d, m, k = np.random.default_rng(14), 3072, 400, 6
    S = [gen.random((50, d), dtype=np.float32), gen.random((300, d), dtype=np.float32)]
    idx = np.hstack([gen.integers(0, 50, (m, 2)), 50 + gen.integers(0, 300, (m, k - 2))])
    lam = gen.dirichlet(np.ones(k), m)
    rows = encrypt._TILE_BYTES // (8 * d)
    tracemalloc.start()
    try:
        out = encrypt._mix(S, idx, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (4 * k + 8) * rows * d + 2 * idx.nbytes + (64 << 10)


@pytest.mark.parametrize("scheme", ["inside", "cross"])
def test_tile_size_never_changes_bytes(scheme, monkeypatch):
    # one-row tiles, 7-row tiles and one tile per block give the same pixels,
    # labels and encrypted-evaluation probabilities: inside mixes one source
    # block, cross two, and cross evaluation three (inputs, pool, public set)
    dims, d = (3, 8, 8), 192
    private = make_gaussian_dataset(30, dims, RngStream(50), classes=4)
    public = unit_patchset(40, dims, RngStream(51)) if scheme == "cross" else None
    test = make_gaussian_dataset(25, dims, RngStream(52), classes=4)
    cfg, model = SchemeConfig(scheme, k=5, c1=0.65, c2=0.3), init_model(4, d, RngStream(53))

    def outputs():
        samples, _ = encrypt_history(private, cfg, 2, RngStream(54), public)
        streams = RngStream(55).children("eval", ids=np.arange(test.n))
        probs = _encrypted_probs(model, test.matrix(), cfg, streams, 3, private, public)
        return np.asarray(samples).tobytes(), samples.labels.tobytes(), probs.tobytes()

    want = outputs()
    for rows in (1, 7, 10_000):
        monkeypatch.setattr(encrypt, "_TILE_BYTES", 8 * d * rows)
        assert outputs() == want, rows


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
    empty = PatchSet(np.zeros((0, 1, 2, 2), np.float32), (), ())
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


@pytest.mark.parametrize("scheme", ["mixup", "cross"])
def test_history_is_columnar(scheme):
    rng = RngStream(53)
    ds = make_gaussian_dataset(5, (1, 4, 4), rng.child("ds"), classes=3)
    pub = unit_patchset(7, (1, 4, 4), rng.child("pub"))
    cfg = SchemeConfig(scheme, k=3, c1=0.65, c2=0.3)
    samples, keys = encrypt_history(ds, cfg, 3, rng.child("h"), pub)
    assert isinstance(samples, EncryptedSamples) and isinstance(keys, EncryptionKeys)
    assert len(samples) == len(keys) == 15
    assert (keys.signs is None) == (scheme == "mixup")

    # np.asarray is the pixel matrix, bit-equal to stacking the indexed objects
    assert np.asarray(samples).shape == (15, 16) and samples.dims == (1, 4, 4)
    assert np.asarray(samples).tobytes() == np.stack([s.xtilde.pixels for s in samples]).tobytes()
    assert samples.labels.tobytes() == np.stack([s.ytilde.weights for s in samples]).tobytes()
    assert [(s.epoch, s.sample_id) for s in samples] == list(zip(samples.epochs, samples.ids))

    # keys[i].sources tags the rows of keys.sources: private first, then public
    for i, key in enumerate(keys):
        rows = [j if tag == "private" else ds.n + j for tag, j in key.sources]
        assert rows == keys.sources[i].tolist()
        assert key.lam.values.tobytes() == keys.lam[i].tobytes()
        want = np.ones(16, np.int8) if keys.signs is None else keys.signs[i]
        assert key.mask.signs.tobytes() == want.tobytes()
    tags = {tag for key in keys for tag, _ in key.sources}
    assert tags == ({"private", "public"} if scheme == "cross" else {"private"})

    # a slice or an index array is a block of the same kind
    part, kpart = samples[5:9], keys[[1, 4]]
    assert isinstance(part, EncryptedSamples) and isinstance(kpart, EncryptionKeys)
    assert len(part) == 4 and part[0].sample_id == samples[5].sample_id
    assert kpart[1].sources == keys[4].sources and kpart.n == keys.n

    # the pickle round trip keeps every column
    back_s, back_k = pickle.loads(pickle.dumps((samples, keys)))
    assert np.asarray(back_s).tobytes() == np.asarray(samples).tobytes()
    assert back_s.ids.tobytes() == samples.ids.tobytes() and back_s.dims == samples.dims
    assert back_k.sources.tobytes() == keys.sources.tobytes()
    assert back_k[3].mask == keys[3].mask


# sha256 of a labelled history's columns (pixels, labels, epochs, ids, sources,
# lam, signs), pinned before unlabelled sets could be encrypted
LABELLED_HISTORY = {
    "mixup": "568019047fe829229af2dfed1591dbd970ae238ae8f032d3f5471bbdbbb7dc52",
    "inside": "1aed6c132097d632a95875d1209b83e2b6138b9e94e3ee7ea4f8c742abacfc8a",
    "cross": "9cb8e0f9a3b47f84bb00ac4b678f64ef2bbcaecfff420c347d6a0b69d6abae00",
}


def _columns_digest(samples, keys):
    cols = (samples.pixels, samples.labels, samples.epochs, samples.ids, keys.sources, keys.lam,
            np.zeros(0) if keys.signs is None else keys.signs)
    return hashlib.sha256(b"".join(np.ascontiguousarray(c).tobytes() for c in cols)).hexdigest()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_unlabelled_history_mixes_the_labelled_pixels_and_keys(scheme):
    rng = RngStream(60)
    labelled = make_gaussian_dataset(5, (1, 4, 4), rng.child("ds"), classes=3)
    unlabelled = Dataset(labelled.matrix(), dims=labelled.dims)
    pub = make_gaussian_dataset(7, (1, 4, 4), rng.child("pub"), normalize=False)
    cfg = SchemeConfig(scheme, k=3)
    samples, keys = encrypt_history(labelled, cfg, 3, rng.child("h"), pub)
    assert _columns_digest(samples, keys) == LABELLED_HISTORY[scheme]
    runs = [(encrypt_history(ds, cfg, 3, rng.child("h"), pub),
             encrypt_epoch(ds, cfg, 2, rng.child("h"), pub)) for ds in (labelled, unlabelled)]
    for (with_labels, with_keys), (bare, bare_keys) in zip(*runs):
        assert bare.labels is None and bare[1:3].labels is None and bare[[0, 2]].labels is None
        assert bare[2].ytilde is None and with_labels[2].ytilde is not None
        assert bare[1:3][0].xtilde == with_labels[1].xtilde
        for name in ("pixels", "epochs", "ids"):
            assert getattr(bare, name).tobytes() == getattr(with_labels, name).tobytes()
        for name in ("sources", "lam", "signs"):  # signs: None for mixup
            x, y = getattr(bare_keys, name), getattr(with_keys, name)
            assert x is y is None or x.tobytes() == y.tobytes()


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
                    rng = RngStream(k, int(c1 * 100))
                    draws = Draws(rng.children(scheme, ids=[int(c2 * 100)]))
                    try:
                        lam = _draw_lambdas(draws, k, c1, head)[0]
                        found = lam.max() <= c1 + 1e-12 and lam[0] + lam[1] >= head - 1e-12
                    except InfeasibleConstraintError:
                        found = False
                    assert built == found, (scheme, k, c1, c2)
