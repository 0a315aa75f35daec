"""Reference oracle: the per-sample encryption, training and evaluation
code as it stood before the batched kernel.

Every function below draws from one generator per sample and builds one
Image per row; test_kernel_oracle.py checks that the batched paths in
``instahide`` reproduce these outputs bit for bit. A sample's own key
(partners, lambda, mask) comes from ``reference_rng.RowStream``, the scalar
reference of the package's per-row streams; per-call draws (permutations,
SGD, picks) come from ``RngStream.generator`` as in the package. The KS
protocol keeps its scalar forms too: one Kolmogorov series per p-value, the
``np.diff`` total variation, and an ``np.delete`` + sort Other pool. Nothing
here is imported by the package.
"""

from __future__ import annotations

import math

import numpy as np

from instahide.core import (
    REJECTION_CAP,
    Coefficients,
    Dataset,
    Image,
    LabelVector,
    SignMask,
)
from instahide.encrypt import EncryptedSample, EncryptionKey, SchemeConfig
from instahide.errors import (
    DimensionMismatchError,
    InfeasibleConstraintError,
    ValidationError,
)
from instahide.rng import RngStream
from reference_rng import RowStream
from instahide.stats import (
    KS_LAMBDA_FLOOR,
    KS_SERIES_TERMS,
    PROTOCOL_ENCRYPTIONS,
    PROTOCOL_PICKS,
    PROTOCOL_PROBES,
    IndistinguishabilityReport,
    default_probe_locations,
    statistic_labels,
)
from instahide.utility import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_ENSEMBLE,
    DEFAULT_MOMENTUM,
    DEFAULT_WEIGHT_DECAY,
    LinearSoftmaxModel,
    softmax_rows,
)


def _sample_coefficients_from(
    gen: RowStream, k: int, c1: float, head_pair_min: float = 0.0
) -> Coefficients:
    """Rejection loop on an already-open stream, so a caller can run one
    stream through several draws in a fixed order."""
    k = int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not 0.0 < c1 <= 1.0:
        raise ValidationError(f"c1 must be in (0, 1], got {c1}")
    if c1 * k < 1.0 - 1e-12:
        raise InfeasibleConstraintError(
            f"c1*k = {c1 * k:.4g} < 1: no coefficient vector satisfies the cap"
        )
    if head_pair_min > 0.0 and k < 2:
        raise ValidationError("head_pair_min requires k >= 2")
    return Coefficients(_draw_lambda(gen, k, c1, head_pair_min))


def _draw_lambda(gen, k: int, c1: float, head_pair_min: float = 0.0) -> np.ndarray:
    """The first admissible candidate of the row's stream: k doubles,
    L1-normalized, with max <= c1 and a first pair >= head_pair_min."""
    if c1 * k < 1.0 + 1e-12:
        return np.full(k, 1.0 / k)
    for _ in range(REJECTION_CAP):
        cand = gen.random(k)
        total = cand.sum()
        lam = cand / total
        if total > 0 and lam.max() <= c1 and lam[0] + lam[1] >= head_pair_min:
            return lam
    raise InfeasibleConstraintError(
        f"no admissible coefficients after {REJECTION_CAP} draws "
        f"(k={k}, c1={c1}, head_pair_min={head_pair_min})"
    )


def _row_stream(rng: RngStream) -> RowStream:
    """One sample's key stream."""
    return RowStream(rng.seed, rng.stream)


def mix_pixels(images: list[Image], lam: Coefficients) -> np.ndarray:
    if len(images) != lam.k:
        raise ValidationError(f"{len(images)} images for {lam.k} coefficients")
    dims = images[0].dims
    acc = np.zeros(images[0].d, dtype=np.float64)
    for w, im in zip(lam.values, images):
        if im.dims != dims:
            raise DimensionMismatchError("mixing images with mixed dims")
        acc += w * im.pixels.astype(np.float64)
    return acc.astype(np.float32)


def mix_labels(labels: list[LabelVector], lam_values: np.ndarray) -> LabelVector:
    classes = labels[0].classes
    acc = np.zeros(classes, dtype=np.float64)
    for w, lb in zip(lam_values, labels):
        if lb.classes != classes:
            raise ValidationError("mixing labels with mixed class counts")
        acc += w * lb.weights.astype(np.float64)
    # mixing can overshoot 1 by a few ulps; clip the float noise only
    return LabelVector(np.clip(acc, 0.0, 1.0).astype(np.float32))


def apply_mask(x, mask: SignMask):
    """Multiply pixels by the +/-1 mask. Involutive and magnitude-preserving
    bit for bit. Accepts an Image or a raw array; returns the same kind."""
    if isinstance(x, Image):
        if x.d != mask.d:
            raise DimensionMismatchError(f"mask length {mask.d} != image length {x.d}")
        return Image(x.pixels * mask.signs, x.dims)
    arr = np.asarray(x)
    if arr.shape[-1] != mask.d:
        raise DimensionMismatchError(
            f"mask length {mask.d} != vector length {arr.shape[-1]}"
        )
    return arr * mask.signs


def identity_mask(d: int) -> SignMask:
    return SignMask(np.ones(d, dtype=np.int8))


def _pick_partners(gen: RowStream, n: int, i: int, count: int) -> list[int]:
    if count > n - 1:
        raise ValidationError(f"need {count} partners but only {n - 1} other images")
    others = np.delete(np.arange(n), i)
    if count == 0:
        return []
    return [int(v) for v in gen.choice(others, size=count, replace=False)]


def instahide_encrypt_inside(
    private: Dataset, i: int, k: int, c1: float, rng: RngStream
) -> tuple[EncryptedSample, EncryptionKey]:
    """Inside-dataset InstaHide for image i: mix x_i with k-1 distinct other
    private images, then apply a fresh sign mask."""
    if private.labels is None:
        raise ValidationError("inside-dataset encryption needs labels")
    if not 0 <= i < private.n:
        raise ValidationError(f"index {i} out of range for n={private.n}")
    gen = _row_stream(rng)
    partners = _pick_partners(gen, private.n, i, int(k) - 1)
    idx = [int(i)] + partners
    lam = _sample_coefficients_from(gen, int(k), c1)
    mask = SignMask(gen.integers(0, 2, size=private.d, dtype=np.int8) * 2 - 1)

    images = [private.images[j] for j in idx]
    labels = [private.labels[j] for j in idx]
    xt = Image(apply_mask(mix_pixels(images, lam), mask), private.dims)
    key = EncryptionKey(tuple(("private", j) for j in idx), lam, mask)
    return EncryptedSample(xt, mix_labels(labels, lam.values)), key


def instahide_encrypt_cross(
    private: Dataset,
    i: int,
    publicset,
    k: int,
    c1: float,
    c2: float,
    rng: RngStream,
) -> tuple[EncryptedSample, EncryptionKey]:
    """Cross-dataset InstaHide for image i: x_i, one other private image, and
    k-2 distinct public patches, masked. The two private coefficients sum to
    at least c2 and only they reach the label."""
    if private.labels is None:
        raise ValidationError("cross-dataset encryption needs labels")
    if int(k) < 3:
        raise ValidationError("cross-dataset mixing needs k >= 3")
    patches = publicset.patches if hasattr(publicset, "patches") else publicset.images
    if len(patches) < int(k) - 2:
        raise ValidationError(
            f"public set has {len(patches)} patches, need {int(k) - 2}"
        )
    gen = _row_stream(rng)
    partner = _pick_partners(gen, private.n, i, 1)[0]
    pub_idx = [int(v) for v in gen.choice(len(patches), size=int(k) - 2, replace=False)]
    lam = _sample_coefficients_from(gen, int(k), c1, head_pair_min=c2)
    mask = SignMask(gen.integers(0, 2, size=private.d, dtype=np.int8) * 2 - 1)

    images = [private.images[i], private.images[partner]] + [patches[j] for j in pub_idx]
    xt = Image(apply_mask(mix_pixels(images, lam), mask), private.dims)
    ytilde = mix_labels(
        [private.labels[i], private.labels[partner]], lam.values[:2]
    )
    sources = (("private", int(i)), ("private", partner)) + tuple(
        ("public", j) for j in pub_idx
    )
    return EncryptedSample(xt, ytilde), EncryptionKey(sources, lam, mask)


def encrypt_sample(
    private: Dataset,
    i: int,
    cfg: SchemeConfig,
    rng: RngStream,
    publicset=None,
    epoch: int = 0,
    sample_id: int = 0,
) -> tuple[EncryptedSample, EncryptionKey]:
    """Scheme dispatch for one private image."""
    if cfg.scheme == "inside":
        sample, key = instahide_encrypt_inside(private, i, cfg.k, cfg.c1, rng)
    elif cfg.scheme == "cross":
        if publicset is None:
            raise ValidationError("cross-dataset encryption needs a public set")
        sample, key = instahide_encrypt_cross(
            private, i, publicset, cfg.k, cfg.c1, cfg.c2, rng
        )
    else:  # mixup: same source policy as inside, no mask, c1 optional via cfg
        if private.labels is None:
            raise ValidationError("mixup needs labels")
        gen = _row_stream(rng)
        idx = [int(i)] + _pick_partners(gen, private.n, i, cfg.k - 1)
        lam = _sample_coefficients_from(gen, cfg.k, cfg.c1)
        images = [private.images[j] for j in idx]
        labels = [private.labels[j] for j in idx]
        xt = Image(mix_pixels(images, lam), private.dims)
        sample = EncryptedSample(xt, mix_labels(labels, lam.values))
        key = EncryptionKey(
            tuple(("private", j) for j in idx), lam, identity_mask(private.d)
        )
    return (
        EncryptedSample(sample.xtilde, sample.ytilde, epoch, sample_id),
        key,
    )


def encrypt_epoch(
    private: Dataset,
    cfg: SchemeConfig,
    epoch: int,
    rng: RngStream,
    publicset=None,
    return_keys: bool = False,
):
    """Encrypt every private image once with fresh keys, in a random output
    order. Sample ids are epoch * n + i, so merge order is recoverable."""
    n = private.n
    out, keys = [], []
    for i in range(n):
        sample, key = encrypt_sample(
            private,
            i,
            cfg,
            rng.child(epoch, i),
            publicset=publicset,
            epoch=epoch,
            sample_id=epoch * n + i,
        )
        out.append(sample)
        keys.append(key)
    perm = rng.child(epoch, "perm").generator().permutation(n)
    samples = [out[j] for j in perm]
    keys = [keys[j] for j in perm]
    return (samples, keys) if return_keys else samples


def encrypt_history(
    private: Dataset,
    cfg: SchemeConfig,
    epochs: int,
    rng: RngStream,
    publicset=None,
):
    """T epochs of encryptions with per-epoch fresh keys; returns aligned
    (samples, keys) lists of length n * T."""
    samples, keys = [], []
    for t in range(int(epochs)):
        s, k = encrypt_epoch(private, cfg, t, rng, publicset=publicset, return_keys=True)
        samples.extend(s)
        keys.extend(k)
    return samples, keys


def encrypt_input(
    x: Image, others: list[Image], cfg: SchemeConfig, rng: RngStream
) -> Image:
    """Inference-time encryption of a single input (labels play no role).

    ``others`` supplies the k-1 partner images; for the cross scheme the
    first one stands in for the second private image so the c2 floor applies
    to x and others[0].
    """
    if len(others) != cfg.k - 1:
        raise ValidationError(f"need {cfg.k - 1} partner images, got {len(others)}")
    gen = _row_stream(rng)
    head = cfg.c2 if cfg.scheme == "cross" else 0.0
    lam = _sample_coefficients_from(gen, cfg.k, cfg.c1, head_pair_min=head)
    mixed = mix_pixels([x] + list(others), lam)
    if cfg.scheme == "mixup":
        return Image(mixed, x.dims)
    mask = SignMask(gen.integers(0, 2, size=x.d, dtype=np.int8) * 2 - 1)
    return Image(apply_mask(mixed, mask), x.dims)


def _pixels_of(x) -> np.ndarray:
    arr = x.pixels if isinstance(x, Image) else np.asarray(x)
    return arr.astype(np.float64).reshape(-1)


def _weights_of(y) -> np.ndarray:
    arr = y.weights if isinstance(y, LabelVector) else np.asarray(y)
    return arr.astype(np.float64).reshape(-1)


def forward(model: LinearSoftmaxModel, x) -> np.ndarray:
    """Class probabilities for one input; positive, summing to 1."""
    xv = _pixels_of(x)
    if xv.size != model.d:
        raise ValidationError(f"input length {xv.size} != model d {model.d}")
    return softmax_rows(model.W @ xv + model.b)


def _as_xy(samples, classes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stack training samples into (X, Y) float64 matrices. Accepts a Dataset,
    EncryptedSamples, or (image, label) pairs."""
    if isinstance(samples, Dataset):
        if samples.labels is None:
            raise ValidationError("training needs labels")
        return samples.matrix().astype(np.float64), samples.label_matrix().astype(
            np.float64
        )
    xs, ys = [], []
    for s in samples:
        if isinstance(s, EncryptedSample):
            xs.append(_pixels_of(s.xtilde))
            ys.append(_weights_of(s.ytilde))
        else:
            xs.append(_pixels_of(s[0]))
            ys.append(_weights_of(s[1]))
    if not xs:
        raise ValidationError("no training samples")
    X = np.stack(xs)
    Y = np.stack(ys)
    if classes is not None and Y.shape[1] != classes:
        raise ValidationError(f"label width {Y.shape[1]} != expected {classes}")
    return X, Y


def train(
    model: LinearSoftmaxModel,
    samples,
    epochs: int,
    lr: float,
    rng: RngStream,
    momentum: float = DEFAULT_MOMENTUM,
    batch_size: int = DEFAULT_BATCH_SIZE,
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
) -> LinearSoftmaxModel:
    """Minibatch SGD with momentum and L2 weight decay on W. Input model is
    left untouched; a trained copy is returned. Deterministic given the rng.
    """
    if epochs < 0 or lr <= 0 or batch_size < 1:
        raise ValidationError("need epochs >= 0, lr > 0, batch_size >= 1")
    X, Y = _as_xy(samples, model.classes)
    if X.shape[1] != model.d:
        raise ValidationError(f"sample length {X.shape[1]} != model d {model.d}")
    W, b = model.W.copy(), model.b.copy()
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    gen = rng.generator()
    n = X.shape[0]
    for _ in range(int(epochs)):
        order = gen.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            Xb, Yb = X[idx], Y[idx]
            P = softmax_rows(Xb @ W.T + b)
            R = Yb.sum(axis=1, keepdims=True) * P - Yb
            gW = R.T @ Xb / idx.size + weight_decay * W
            gb = R.mean(axis=0)
            vW = momentum * vW - lr * gW
            vb = momentum * vb - lr * gb
            W += vW
            b += vb
    return LinearSoftmaxModel(W, b)


def canonical_input(x: Image, masked: bool) -> Image:
    """Model-side representation of an encrypted sample.

    A sign-masked sample carries exactly the per-pixel absolute values of its
    underlying mix (|sigma o m| == |m|), and the mask's sign symmetry makes any
    linear map of the raw masked pixels uninformative in expectation. Masked
    inputs therefore enter the model as their absolute values, the canonical
    mask-invariant form; unmasked inputs pass through untouched.
    """
    if not masked:
        return x
    return Image(np.abs(x.pixels), x.dims)


def train_encrypted(
    model: LinearSoftmaxModel,
    private: Dataset,
    cfg: SchemeConfig,
    epochs: int,
    lr: float,
    rng: RngStream,
    publicset=None,
    **train_kwargs,
) -> LinearSoftmaxModel:
    """Re-encrypt the private set with fresh keys every epoch and take one SGD
    pass over each encryption batch. Sign-masked schemes train on the
    canonical absolute-value representation (see canonical_input)."""
    out = model.copy()
    masked = cfg.scheme != "mixup"
    for epoch in range(int(epochs)):
        samples = encrypt_epoch(
            private, cfg, epoch, rng.child("enc"), publicset=publicset
        )
        if masked:
            samples = [(canonical_input(s.xtilde, True), s.ytilde) for s in samples]
        out = train(out, samples, 1, lr, rng.child("sgd", epoch), **train_kwargs)
    return out


def _draw_partners(
    cfg: SchemeConfig, gen: RowStream, partner_pool, publicset
) -> list[Image]:
    """Partner images for one inference-time encryption."""
    if cfg.k == 1:
        return []
    pool = partner_pool.images if isinstance(partner_pool, Dataset) else partner_pool
    if not pool:
        raise ValidationError(f"k={cfg.k} inference encryption needs a partner pool")
    if cfg.scheme == "cross":
        patches = (
            publicset.patches if hasattr(publicset, "patches") else
            publicset.images if isinstance(publicset, Dataset) else publicset
        )
        if not patches or len(patches) < cfg.k - 2:
            raise ValidationError("cross inference encryption needs k-2 public patches")
        partner = pool[int(gen.integers(0, len(pool)))]
        pub = [
            patches[int(j)]
            for j in gen.choice(len(patches), size=cfg.k - 2, replace=False)
        ]
        return [partner] + pub
    return [
        pool[int(j)] for j in gen.choice(len(pool), size=cfg.k - 1, replace=False)
    ]


def predict_encrypted(
    model: LinearSoftmaxModel,
    x: Image,
    cfg: SchemeConfig,
    rng: RngStream,
    ensemble: int = DEFAULT_ENSEMBLE,
    partner_pool=None,
    publicset=None,
) -> np.ndarray:
    """Mean of forward() over ``ensemble`` fresh encryptions of x; a mean of
    simplex points, so still a probability vector."""
    if ensemble < 1:
        raise ValidationError(f"ensemble must be >= 1, got {ensemble}")
    acc = np.zeros(model.classes)
    masked = cfg.scheme != "mixup"
    for e in range(int(ensemble)):
        child = rng.child("predict", e)
        others = _draw_partners(cfg, _row_stream(child), partner_pool, publicset)
        enc = encrypt_input(x, others, cfg, child.child("enc"))
        acc += forward(model, canonical_input(enc, masked))
    return acc / ensemble


def evaluate(
    model: LinearSoftmaxModel,
    test: Dataset,
    mode: str = "plain",
    cfg: SchemeConfig | None = None,
    rng: RngStream | None = None,
    ensemble: int = DEFAULT_ENSEMBLE,
    partner_pool=None,
    publicset=None,
) -> float:
    """Top-1 accuracy against the argmax of the true label vectors."""
    if mode not in ("plain", "encrypted"):
        raise ValidationError(f"mode must be plain or encrypted, got {mode!r}")
    if test.labels is None or test.n == 0:
        raise ValidationError("evaluation needs a labelled, non-empty dataset")
    truth = np.argmax(test.label_matrix(), axis=1)
    if mode == "plain":
        P = softmax_rows(test.matrix().astype(np.float64) @ model.W.T + model.b)
        return float(np.mean(np.argmax(P, axis=1) == truth))
    if cfg is None or rng is None:
        raise ValidationError("encrypted evaluation needs cfg and rng")
    hits = 0
    for i, im in enumerate(test.images):
        probs = predict_encrypted(
            model,
            im,
            cfg,
            rng.child("eval", i),
            ensemble=ensemble,
            partner_pool=partner_pool,
            publicset=publicset,
        )
        hits += int(np.argmax(probs) == truth[i])
    return hits / test.n


def kolmogorov_survival(lam: float) -> float:
    """Survival function of the Kolmogorov distribution,
    Q(lam) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), truncated at
    KS_SERIES_TERMS. Returns 1.0 below KS_LAMBDA_FLOOR (includes lam = 0)."""
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")
    if lam < KS_LAMBDA_FLOOR:
        return 1.0
    j = np.arange(1, KS_SERIES_TERMS + 1, dtype=np.float64)
    terms = np.exp(-2.0 * j * j * lam * lam)
    total = 2.0 * float(np.sum(np.where(j % 2 == 1, terms, -terms)))
    return min(1.0, max(0.0, total))


def _singleton_pvalues(values: np.ndarray, pool_sorted: np.ndarray) -> np.ndarray:
    """p-value of a one-point sample {v} against an empirical pool, for each
    v in values, one Kolmogorov series per p-value."""
    n2 = pool_sorted.size
    hi = np.searchsorted(pool_sorted, values, side="right") / n2
    lo = np.searchsorted(pool_sorted, values, side="left") / n2
    stats = np.maximum(lo, 1.0 - hi)
    root_ne = math.sqrt(n2 / (1.0 + n2))
    return np.array([kolmogorov_survival(root_ne * d) for d in stats])


def total_variation_rows(matrix: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Anisotropic total variation of each row: sum of absolute vertical plus
    horizontal neighbor differences, per channel."""
    m = np.asarray(matrix, dtype=np.float64)
    c, h, w = dims
    x = m.reshape(m.shape[0], c, h, w)
    tv = np.abs(np.diff(x, axis=2)).sum(axis=(1, 2, 3))
    tv += np.abs(np.diff(x, axis=3)).sum(axis=(1, 2, 3))
    return tv


def statistic_matrix(
    matrix: np.ndarray, dims: tuple[int, int, int], probes: tuple[int, ...]
) -> np.ndarray:
    """(n, 3 + len(probes)) float64 profile matrix for stacked pixel rows."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim == 1:
        m = m[None]
    d = dims[0] * dims[1] * dims[2]
    if m.shape[1] != d:
        raise ValidationError(f"row length {m.shape[1]} != prod(dims) {d}")
    probes = tuple(int(p) for p in probes)
    if any(p < 0 or p >= d for p in probes):
        raise ValidationError(f"probe locations out of range [0, {d})")
    cols = [m.mean(axis=1), m.std(axis=1), total_variation_rows(m, dims)]
    for p in probes:
        cols.append(m[:, p])
    return np.stack(cols, axis=1)


def indistinguishability_protocol(
    private: Dataset,
    cfg: SchemeConfig,
    rng: RngStream,
    picks: int = PROTOCOL_PICKS,
    encryptions_per_image: int = PROTOCOL_ENCRYPTIONS,
    probe_encryptions: int = PROTOCOL_PROBES,
    probe_count: int = 4,
    publicset=None,
) -> IndistinguishabilityReport:
    """Can an attacker tell which image an encryption came from by looking at
    scalar statistics? Pick ``picks`` images, encrypt each
    ``encryptions_per_image`` times, and for every image and statistic run a
    KS test of single probe encryptions against the pooled statistic
    population -- once against all encryptions (All) and once excluding the
    probe image's own (Other) -- averaging p-values over
    ``probe_encryptions`` probes. Large averaged p-values mean the per-image
    statistic distributions are mutually indistinguishable.
    """
    if picks > private.n:
        raise ValidationError(f"cannot pick {picks} images from {private.n}")
    if probe_encryptions > encryptions_per_image:
        raise ValidationError(
            f"{probe_encryptions} probes need at least that many encryptions, "
            f"got {encryptions_per_image}"
        )
    if picks < 2:
        raise ValidationError("need at least 2 images to form an Other pool")

    chosen = rng.child("picks").generator().choice(private.n, size=picks, replace=False)
    probes = default_probe_locations(private.d, rng.child("probes"), probe_count)
    labels = statistic_labels(probe_count)

    n_stats = len(labels)
    stats = np.empty((picks, encryptions_per_image, n_stats))
    for r, idx in enumerate(chosen):
        rows = np.empty((encryptions_per_image, private.d), dtype=np.float32)
        for j in range(encryptions_per_image):
            sample, _ = encrypt_sample(
                private, int(idx), cfg, rng.child("enc", r, j), publicset=publicset
            )
            rows[j] = sample.xtilde.pixels
        stats[r] = statistic_matrix(rows, private.dims, probes)

    p_all = np.empty((picks, n_stats))
    p_other = np.empty((picks, n_stats))
    for s in range(n_stats):
        pool_all = np.sort(stats[:, :, s].reshape(-1))
        for r in range(picks):
            others = np.sort(np.delete(stats[:, :, s], r, axis=0).reshape(-1))
            probe_vals = stats[r, :probe_encryptions, s]
            p_all[r, s] = _singleton_pvalues(probe_vals, pool_all).mean()
            p_other[r, s] = _singleton_pvalues(probe_vals, others).mean()

    return IndistinguishabilityReport(
        tuple(int(v) for v in chosen), probes, labels, p_all, p_other
    )
