"""The batched encryption kernel against the per-sample reference oracle.

Every routed path (epochs, single samples, inference inputs, the challenge
arrays, encrypted training and evaluation, the KS protocol) must give the
oracle's bytes on the same seeds: pixels compared as uint32 views, labels,
key sources, lambda and masks, trained weights and accuracies.
"""

import numpy as np
import pytest

import reference_encrypt as oracle
from instahide import encrypt, stats, utility
from instahide.core import Dataset, Image, make_gaussian_dataset, one_hot
from instahide.encrypt import SchemeConfig
from instahide.publicprep import PatchSet
from instahide.rng import RngStream

CASES = [
    (scheme, k)
    for scheme in ("mixup", "inside", "cross")
    for k in (1, 2, 4, 6)
    if scheme != "cross" or k >= 3
]
DIMS = {192: (3, 8, 8), 3072: (3, 32, 32)}


def config(scheme: str, k: int) -> SchemeConfig:
    return SchemeConfig(scheme, k=k, c1=1.0 if k == 1 else 0.65, c2=0.3)


def patchset(n: int, dims, rng: RngStream) -> PatchSet:
    ds = make_gaussian_dataset(n, dims, rng, normalize=False)
    return PatchSet(ds.images, tuple((i, 0, 0) for i in range(n)), (100,) * n)


def bits(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)


def assert_same_sample(got, want):
    assert np.array_equal(bits(got.xtilde.pixels), bits(want.xtilde.pixels))
    assert got.xtilde.dims == want.xtilde.dims
    assert np.array_equal(bits(got.ytilde.weights), bits(want.ytilde.weights))
    assert (got.epoch, got.sample_id) == (want.epoch, want.sample_id)


def assert_same_key(got, want):
    assert got.sources == want.sources
    assert got.lam.values.tobytes() == want.lam.values.tobytes()
    assert got.mask.signs.tobytes() == want.mask.signs.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", sorted(DIMS))
@pytest.mark.parametrize("scheme,k", CASES)
def test_kernel_matches_oracle(scheme, k, d, seed):
    rng = RngStream(seed)
    dims = DIMS[d]
    private = make_gaussian_dataset(8, dims, rng.child("private"), classes=5)
    public = patchset(12, dims, rng.child("public"))
    cfg = config(scheme, k)
    pub = public if scheme == "cross" else None

    got, got_keys = encrypt.encrypt_epoch(private, cfg, 2, rng.child("e"), pub)
    want, want_keys = oracle.encrypt_epoch(private, cfg, 2, rng.child("e"), pub, True)
    assert len(got) == len(want) == private.n
    for g, w, gk, wk in zip(got, want, got_keys, want_keys):
        assert_same_sample(g, w)
        assert_same_key(gk, wk)

    g, gk = encrypt.encrypt_sample(private, 3, cfg, rng.child("one"), pub, 4, 9)
    w, wk = oracle.encrypt_sample(private, 3, cfg, rng.child("one"), pub, 4, 9)
    assert_same_sample(g, w)
    assert_same_key(gk, wk)

    pixels, labels = encrypt.encrypt_history_arrays(private, cfg, 3, rng.child("h"), pub)
    history, _ = oracle.encrypt_history(private, cfg, 3, rng.child("h"), pub)
    assert pixels.shape == (3 * private.n, *dims)
    assert np.array_equal(bits(pixels.reshape(len(history), -1)),
                          bits(np.stack([s.xtilde.pixels for s in history])))
    assert np.array_equal(bits(labels), bits(np.stack([s.ytilde.weights for s in history])))

    others = list(private.images[1:k])
    if scheme == "cross":
        others = [private.images[1]] + list(public.patches[: k - 2])
    x = private.images[0]
    assert np.array_equal(
        bits(encrypt.encrypt_input(x, others, cfg, rng.child("in")).pixels),
        bits(oracle.encrypt_input(x, others, cfg, rng.child("in")).pixels),
    )


def blocky(seed: int, n: int, dims=(3, 8, 8), classes: int = 4) -> Dataset:
    gen = RngStream(seed).generator()
    d = dims[0] * dims[1] * dims[2]
    means = np.zeros((classes, d))
    block = d // classes
    for c in range(classes):
        means[c, c * block : (c + 1) * block] = 3.0
    X = np.repeat(means, n // classes, axis=0) + gen.normal(size=(n, d))
    y = np.repeat(np.arange(classes), n // classes)
    return Dataset(
        tuple(Image(r.astype(np.float32), dims) for r in X),
        tuple(one_hot(int(v), classes) for v in y),
    )


@pytest.mark.parametrize("scheme,k", CASES)
def test_training_and_evaluation_match_oracle(scheme, k):
    train_ds, test_ds = blocky(10 + k, 40), blocky(20 + k, 20)
    cfg = config(scheme, k)
    pub = patchset(12, (3, 8, 8), RngStream(30)) if scheme == "cross" else None
    model = utility.init_model(4, train_ds.d)

    got = utility.train_encrypted(model, train_ds, cfg, 3, 0.05, RngStream(31), pub)
    want = oracle.train_encrypted(model, train_ds, cfg, 3, 0.05, RngStream(31), pub)
    assert np.array_equal(got.W, want.W) and np.array_equal(got.b, want.b)

    kwargs = dict(mode="encrypted", cfg=cfg, rng=RngStream(32), ensemble=4,
                  partner_pool=train_ds, publicset=pub)
    assert utility.evaluate(got, test_ds, **kwargs) == oracle.evaluate(want, test_ds, **kwargs)
    for i in (0, 7):
        p_got = utility.predict_encrypted(
            got, test_ds.images[i], cfg, RngStream(33, i), 3, train_ds, pub
        )
        p_want = oracle.predict_encrypted(
            want, test_ds.images[i], cfg, RngStream(33, i), 3, train_ds, pub
        )
        assert np.array_equal(p_got, p_want)


@pytest.mark.parametrize("scheme,k", [("mixup", 2), ("inside", 4), ("cross", 6)])
def test_protocol_matches_oracle(scheme, k):
    private = make_gaussian_dataset(10, (3, 8, 8), RngStream(40), classes=3)
    pub = patchset(12, (3, 8, 8), RngStream(41)) if scheme == "cross" else None
    kwargs = dict(picks=3, encryptions_per_image=20, probe_encryptions=5, publicset=pub)
    got = stats.indistinguishability_protocol(private, config(scheme, k), RngStream(42), **kwargs)
    want = oracle.indistinguishability_protocol(
        private, config(scheme, k), RngStream(42), **kwargs
    )
    assert got.image_indices == want.image_indices
    assert got.probe_locations == want.probe_locations
    assert np.array_equal(got.p_all, want.p_all)
    assert np.array_equal(got.p_other, want.p_other)
