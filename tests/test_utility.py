import numpy as np
import pytest

from reference_encrypt import forward

from instahide.core import Dataset, Image, LabelVector, make_gaussian_dataset, one_hot
from instahide.publicprep import PatchSet
from instahide.encrypt import SchemeConfig, encrypt_epoch, encrypt_history
from instahide.errors import FormatError, TruncatedFileError, ValidationError
from instahide.rng import RngStream
from instahide.utility import (
    LinearSoftmaxModel,
    evaluate,
    init_model,
    load_model,
    loss_and_gradient,
    model_from_bytes,
    model_to_bytes,
    predict_encrypted,
    save_model,
    train,
    train_encrypted,
)


def central_difference(fn, vec: np.ndarray, index: int, h: float) -> float:
    """Central finite difference of a scalar function along one coordinate."""
    hi = vec.copy()
    lo = vec.copy()
    hi[index] += h
    lo[index] -= h
    return (fn(hi) - fn(lo)) / (2.0 * h)


def blocky_dataset(seed: int, n: int = 200, c: int = 4, dims=(3, 8, 8), sign=1.0):
    """Linearly separable classes: class c gets a +/-3 bump on its own
    coordinate block, so classes stay separable after taking absolute values.
    """
    gen = RngStream(seed).generator()
    d = dims[0] * dims[1] * dims[2]
    means = np.zeros((c, d))
    block = d // c
    for i in range(c):
        means[i, i * block : (i + 1) * block] = 3.0 * (sign if i % 2 else 1.0)
    X = np.repeat(means, n // c, axis=0) + gen.normal(size=(n, d))
    y = np.repeat(np.arange(c), n // c)
    return Dataset(
        tuple(Image(r.astype(np.float32), dims) for r in X),
        tuple(one_hot(int(v), c) for v in y),
    )


# ---------------------------------------------------------------------------
# loss


def test_loss_uniform_prediction_oracle():
    m = init_model(10, 8)
    x = Image(np.ones(8, np.float32), (1, 2, 4))
    loss, _ = loss_and_gradient(m, x, one_hot(3, 10))
    assert loss == pytest.approx(np.log(10.0), abs=1e-9)


def test_gradient_zero_at_stationary_point():
    gen = RngStream(1).generator()
    m = LinearSoftmaxModel(gen.normal(size=(4, 6)), gen.normal(size=4))
    x = Image(gen.normal(size=6).astype(np.float32), (1, 2, 3))
    p = forward(m, x)
    _, (gW, gb) = loss_and_gradient(m, x, LabelVector(p))
    assert np.allclose(gW, 0.0, atol=1e-6)
    assert np.allclose(gb, 0.0, atol=1e-6)


def test_gradient_matches_finite_differences():
    # 100 probes across W and b entries, seeded inputs, soft labels
    gen = RngStream(2).generator()
    C, d = 5, 24
    m = LinearSoftmaxModel(gen.normal(size=(C, d)) * 0.3, gen.normal(size=C) * 0.3)
    x = Image(gen.normal(size=d).astype(np.float32), (1, 4, 6))
    y = LabelVector(np.array([0.4, 0.3, 0.2, 0.05, 0.05], np.float32))
    _, (gW, gb) = loss_and_gradient(m, x, y)

    flat = np.concatenate([m.W.ravel(), m.b])
    analytic = np.concatenate([gW.ravel(), gb])

    def loss_at(vec):
        model = LinearSoftmaxModel(vec[: C * d].reshape(C, d), vec[C * d :])
        return loss_and_gradient(model, x, y)[0]

    for idx in gen.choice(flat.size, size=100, replace=False):
        fd = central_difference(loss_at, flat, int(idx), 1e-6)
        scale = max(abs(fd), abs(analytic[idx]), 1e-8)
        assert abs(fd - analytic[idx]) / scale <= 1e-4


def test_loss_rejects_shape_mismatches():
    m = init_model(3, 4)
    with pytest.raises(ValidationError):
        loss_and_gradient(m, Image(np.zeros(5, np.float32), (1, 1, 5)), one_hot(0, 3))
    with pytest.raises(ValidationError):
        loss_and_gradient(m, Image(np.zeros(4, np.float32), (1, 2, 2)), one_hot(0, 5))


# ---------------------------------------------------------------------------
# training


def test_zero_epochs_leaves_model_unchanged():
    ds = blocky_dataset(3, n=40)
    m = init_model(4, ds.d, RngStream(4), scale=0.1)
    out = train(m, ds, 0, 0.1, RngStream(5))
    assert np.array_equal(out.W, m.W) and np.array_equal(out.b, m.b)
    assert out is not m


def test_training_does_not_mutate_input_model():
    ds = blocky_dataset(6, n=40)
    m = init_model(4, ds.d)
    before = m.W.copy()
    train(m, ds, 2, 0.1, RngStream(7))
    assert np.array_equal(m.W, before)


def test_separable_data_trains_to_high_accuracy():
    ds = blocky_dataset(8)
    m = train(init_model(4, ds.d), ds, 50, 0.05, RngStream(9))
    assert evaluate(m, ds) >= 0.99


def test_loss_decreases_over_first_epoch():
    ds = blocky_dataset(10, n=80)
    m0 = init_model(4, ds.d)
    losses0 = [loss_and_gradient(m0, im, lb)[0] for im, lb in zip(ds.images, ds.labels)]
    m1 = train(m0, ds, 1, 0.05, RngStream(11))
    losses1 = [loss_and_gradient(m1, im, lb)[0] for im, lb in zip(ds.images, ds.labels)]
    assert np.mean(losses1) < np.mean(losses0)


def test_training_is_deterministic():
    ds = blocky_dataset(12, n=60)
    a = train(init_model(4, ds.d), ds, 3, 0.05, RngStream(13))
    b = train(init_model(4, ds.d), ds, 3, 0.05, RngStream(13))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_train_encrypted_is_deterministic():
    ds = blocky_dataset(14, n=40)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    a = train_encrypted(init_model(4, ds.d), ds, cfg, 3, 0.05, RngStream(15))
    b = train_encrypted(init_model(4, ds.d), ds, cfg, 3, 0.05, RngStream(15))
    assert np.array_equal(a.W, b.W)


def test_train_encrypted_refuses_an_unlabelled_set_before_encrypting():
    # an unlabelled history encrypts, and train then refused its missing labels
    # with a message about array shapes
    ds = blocky_dataset(14, n=8)
    bare = Dataset(ds.matrix(), dims=ds.dims)
    with pytest.raises(ValidationError, match="dataset has no labels"):
        train_encrypted(init_model(4, ds.d), bare, SchemeConfig("inside", k=2), 1, 0.05,
                        RngStream(15))


def test_train_validates_arguments():
    ds = blocky_dataset(16, n=8)
    with pytest.raises(ValidationError):
        train(init_model(4, ds.d), ds, -1, 0.1, RngStream(0))
    with pytest.raises(ValidationError):
        train(init_model(4, ds.d), ds, 1, 0.0, RngStream(0))
    with pytest.raises(ValidationError):
        train(init_model(4, 10), ds, 1, 0.1, RngStream(0))  # d mismatch
    samples, _ = encrypt_epoch(ds, SchemeConfig("inside", k=2), 0, RngStream(1))
    X, Y = ds.matrix(), ds.label_matrix()
    # only a labelled Dataset or an (X, Y) pair with one row per sample trains
    for bad in ([], list(samples), samples[:2], (X, Y[:-1]), (X[:0], Y[:0]), (X[0], Y[0])):
        with pytest.raises(ValidationError):
            train(init_model(4, ds.d), bad, 1, 0.1, RngStream(0))


# ---------------------------------------------------------------------------
# canonical representation and encrypted inference


def test_canonical_input_passthrough_and_abs():
    # train_encrypted feeds masked samples to the model as |x~|, Mixup ones as they are
    ds = blocky_dataset(21, n=12)
    for scheme, canonical in (("mixup", np.asarray), ("inside", np.abs)):
        cfg, rng = SchemeConfig(scheme, k=2, c1=0.65), RngStream(22)
        got = train_encrypted(init_model(4, ds.d), ds, cfg, 1, 0.05, rng)
        samples, _ = encrypt_epoch(ds, cfg, 0, rng.child("enc"))
        X = canonical(np.stack([np.asarray(s) for s in samples]))
        Y = np.stack([np.asarray(s.ytilde) for s in samples])
        want = train(init_model(4, ds.d), (X, Y), 1, 0.05, rng.child("sgd", 0))
        assert np.array_equal(got.W, want.W) and np.array_equal(got.b, want.b)


def test_predict_encrypted_mixup_k1_equals_forward():
    gen = RngStream(17).generator()
    m = LinearSoftmaxModel(gen.normal(size=(3, 8)), gen.normal(size=3))
    x = Image(gen.normal(size=8).astype(np.float32), (1, 2, 4))
    cfg = SchemeConfig("mixup", k=1, c1=1.0)
    p = predict_encrypted(m, x, cfg, RngStream(18), ensemble=1)
    assert np.allclose(p, forward(m, x), atol=1e-12)


def test_predict_encrypted_returns_probability_vector():
    ds = blocky_dataset(19, n=20)
    m = init_model(4, ds.d, RngStream(20), scale=0.1)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    p = predict_encrypted(
        m, ds.images[0], cfg, RngStream(21), ensemble=10, partner_pool=ds
    )
    assert p.shape == (4,) and p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError):
        predict_encrypted(m, ds.images[0], cfg, RngStream(21), ensemble=0)


def _patches(count, dims, seed):
    pixels = RngStream(seed).generator().random((count, *dims), dtype=np.float32)
    return PatchSet(pixels, [(i, 0, 0) for i in range(count)], [0] * count)


@pytest.mark.parametrize(
    "scheme, k, n, public",
    [
        ("inside", 4, 2, None),  # a pool smaller than k - 1
        ("cross", 4, 4, (6, (3, 4, 16))),  # equal d, other dims
        ("cross", 4, 4, None),
        ("cross", 5, 4, (2, (3, 8, 8))),  # fewer than k - 2 patches
    ],
    ids=["small-pool", "public-dims", "no-public", "few-patches"],
)
def test_encrypted_inference_refuses_what_training_refuses(scheme, k, n, public):
    ds = make_gaussian_dataset(n, (3, 8, 8), RngStream(30), classes=2)
    cfg, rng = SchemeConfig(scheme, k=k, c1=0.65, c2=0.3), RngStream(31)
    publicset = None if public is None else _patches(*public, seed=32)
    model = init_model(2, ds.d)
    with pytest.raises(ValidationError):
        encrypt_history(ds, cfg, 1, rng, publicset)
    with pytest.raises(ValidationError):
        predict_encrypted(model, ds.images[0], cfg, rng, partner_pool=ds, publicset=publicset)
    with pytest.raises(ValidationError):
        evaluate(model, ds, "encrypted", cfg, rng, partner_pool=ds, publicset=publicset)


def test_encrypted_inference_takes_an_unlabelled_pool():
    ds = blocky_dataset(25, n=8)
    pool = Dataset(ds.matrix(), dims=ds.dims)  # no labels
    m, cfg = init_model(4, ds.d, RngStream(26), scale=0.1), SchemeConfig("inside", k=3)
    p = predict_encrypted(m, ds.images[0], cfg, RngStream(27), ensemble=3, partner_pool=pool)
    q = predict_encrypted(m, ds.images[0], cfg, RngStream(27), ensemble=3, partner_pool=ds)
    assert p.tobytes() == q.tobytes()


def test_evaluate_chance_level_for_random_model():
    ds = make_gaussian_dataset(400, (1, 5, 5), RngStream(22), classes=10)
    m = init_model(10, 25, RngStream(23), scale=0.01)
    assert evaluate(m, ds) == pytest.approx(0.1, abs=0.05)


def test_evaluate_mode_validation():
    ds = blocky_dataset(24, n=8)
    m = init_model(4, ds.d)
    with pytest.raises(ValidationError):
        evaluate(m, ds, mode="magic")
    with pytest.raises(ValidationError):
        evaluate(m, ds, mode="encrypted")  # needs cfg and rng


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    gen = RngStream(25).generator()
    m = LinearSoftmaxModel(gen.normal(size=(6, 40)), gen.normal(size=6))
    save_model(m, tmp_path / "m.ihmd")
    back = load_model(tmp_path / "m.ihmd")
    # storage is float32; values survive a second trip bit-for-bit
    assert np.array_equal(back.W, m.W.astype(np.float32).astype(np.float64))
    assert model_to_bytes(back) == model_to_bytes(model_from_bytes(model_to_bytes(back)))


def test_checkpoint_error_paths():
    m = init_model(3, 5)
    blob = model_to_bytes(m)
    with pytest.raises(FormatError):
        model_from_bytes(b"XYZW" + blob[4:])
    with pytest.raises(TruncatedFileError):
        model_from_bytes(blob[:-2])
    with pytest.raises(FormatError):
        model_from_bytes(blob + b"\x00")


def test_model_validation():
    with pytest.raises(ValidationError):
        LinearSoftmaxModel(np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ValidationError):
        LinearSoftmaxModel(np.full((2, 3), np.inf), np.zeros(2))
