"""Desk-scale training harness: a linear softmax classifier with soft-label
cross-entropy, minibatch SGD with momentum, per-epoch re-encrypted training,
and encrypted inference by prediction averaging.

Soft labels may sum to less than one (cross-dataset encryption publishes only
the private share of the label mass); the loss L = -sum_c y_c log p_c and its
gradient (sum(y) * p - y) handle that case exactly, and reduce to the familiar
p - y when the label mass is 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Image
from .encrypt import SchemeConfig, _encrypt_rows, _partners, _sources, encrypt_epoch
from .errors import DimensionMismatchError, FormatError, TruncatedFileError, ValidationError
from .ihds import output, read_file
from .rng import Draws, RngStream, Streams

MODEL_MAGIC = b"IHMD"
_MODEL_HEADER = struct.Struct("<4sHI")

DEFAULT_MOMENTUM = 0.9
DEFAULT_BATCH_SIZE = 128
DEFAULT_WEIGHT_DECAY = 1e-4
DEFAULT_ENSEMBLE = 10


@dataclass
class LinearSoftmaxModel:
    """Logits = W x + b, probabilities by softmax. Weights live in float64;
    checkpoints store float32."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64).reshape(-1)
        if self.W.ndim != 2 or self.W.shape[0] != self.b.size:
            raise ValidationError(
                f"W shape {self.W.shape} incompatible with b length {self.b.size}"
            )
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValidationError("model weights must be finite")

    @property
    def classes(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "LinearSoftmaxModel":
        return LinearSoftmaxModel(self.W.copy(), self.b.copy())


def init_model(
    classes: int, d: int, rng: RngStream | None = None, scale: float = 0.01
) -> LinearSoftmaxModel:
    """Zero model, or N(0, scale^2) entries when an rng is given."""
    if classes < 2 or d < 1:
        raise ValidationError(f"need classes >= 2 and d >= 1, got {classes}, {d}")
    if rng is None:
        return LinearSoftmaxModel(np.zeros((classes, d)), np.zeros(classes))
    gen = rng.generator()
    return LinearSoftmaxModel(
        gen.standard_normal((classes, d)) * scale, gen.standard_normal(classes) * scale
    )


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: LinearSoftmaxModel, x) -> np.ndarray:
    """Class probabilities for one input; positive, summing to 1."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.size != model.d:
        raise ValidationError(f"input length {xv.size} != model d {model.d}")
    return softmax_rows(model.W @ xv + model.b)


def loss_and_gradient(
    model: LinearSoftmaxModel, x, y
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Soft-target cross-entropy and its exact gradient in (W, b).

    L = -sum_c y_c log p_c, computed through log-sum-exp so extreme logits
    stay finite; grad_W = (sum(y) p - y) x^T and grad_b = sum(y) p - y.
    """
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if xv.size != model.d or yv.size != model.classes:
        raise ValidationError(
            f"input ({xv.size}, {yv.size}) incompatible with model "
            f"({model.d}, {model.classes})"
        )
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValidationError("inputs to the loss must be finite")
    z = model.W @ xv + model.b
    zmax = z.max()
    lse = zmax + np.log(np.exp(z - zmax).sum())
    mass = yv.sum()
    loss = float(mass * lse - yv @ z)
    residual = mass * softmax_rows(z) - yv
    return loss, (np.outer(residual, xv), residual)


def train(
    model: LinearSoftmaxModel,
    samples,
    epochs: int,
    lr: float,
    rng: RngStream,
) -> LinearSoftmaxModel:
    """Minibatch SGD (DEFAULT_BATCH_SIZE rows per step) with DEFAULT_MOMENTUM
    momentum and DEFAULT_WEIGHT_DECAY L2 weight decay on W, over a labelled
    Dataset or an (X, Y) pair of pixel and label matrices. Input model is
    left untouched; a trained copy is returned. Deterministic given the rng.
    """
    if epochs < 0 or lr <= 0:
        raise ValidationError("need epochs >= 0 and lr > 0")
    if isinstance(samples, Dataset):
        samples = (samples.matrix(), samples.label_matrix())  # raises when unlabelled
    if len(samples) != 2:
        raise ValidationError("train takes a labelled Dataset or an (X, Y) pair of matrices")
    X, Y = (np.asarray(m, dtype=np.float64) for m in samples)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise ValidationError(
            f"need X (n, d) and Y (n, classes) with n >= 1, got {X.shape} and {Y.shape}"
        )
    if Y.shape[1] != model.classes:
        raise ValidationError(f"label width {Y.shape[1]} != expected {model.classes}")
    if X.shape[1] != model.d:
        raise ValidationError(f"sample length {X.shape[1]} != model d {model.d}")
    W, b = model.W.copy(), model.b.copy()
    vW = np.zeros_like(W)
    vb = np.zeros_like(b)
    gen = rng.generator()
    n = X.shape[0]
    for _ in range(int(epochs)):
        order = gen.permutation(n)
        for lo in range(0, n, DEFAULT_BATCH_SIZE):
            idx = order[lo : lo + DEFAULT_BATCH_SIZE]
            Xb, Yb = X[idx], Y[idx]
            P = softmax_rows(Xb @ W.T + b)
            R = Yb.sum(axis=1, keepdims=True) * P - Yb
            gW = R.T @ Xb / idx.size + DEFAULT_WEIGHT_DECAY * W
            gb = R.mean(axis=0)
            vW = DEFAULT_MOMENTUM * vW - lr * gW
            vb = DEFAULT_MOMENTUM * vb - lr * gb
            W += vW
            b += vb
    return LinearSoftmaxModel(W, b)


def train_encrypted(
    model: LinearSoftmaxModel,
    private: Dataset,
    cfg: SchemeConfig,
    epochs: int,
    lr: float,
    rng: RngStream,
    publicset=None,
) -> LinearSoftmaxModel:
    """Re-encrypt the private set with fresh keys every epoch and take one SGD
    pass over each encryption batch, in published order.

    Sign-masked samples enter the model as their absolute values. A masked
    sample carries exactly the per-pixel absolute values of its underlying
    mix (|sigma o m| == |m|), and the mask's sign symmetry makes any linear
    map of the raw masked pixels uninformative in expectation, so |x~| is the
    canonical mask-invariant form; unmasked (Mixup) samples pass through."""
    if epochs < 0:
        raise ValidationError(f"need epochs >= 0, got {epochs}")
    out = model.copy()
    for epoch in range(int(epochs)):
        samples, _ = encrypt_epoch(private, cfg, epoch, rng.child("enc"), publicset)
        X = np.abs(samples) if cfg.scheme != "mixup" else np.asarray(samples)
        sgd = rng.child("sgd", epoch)
        out = train(out, (X, samples.labels), 1, lr, sgd)
    return out


def _encrypted_probs(
    model: LinearSoftmaxModel, X, cfg: SchemeConfig, streams, ensemble, pool, publicset
) -> np.ndarray:
    """predict_encrypted for every row of X at once; row i of the Streams
    block ``streams`` is row i's rng. The sources are X, then encrypt._sources
    of ``pool`` and ``publicset``. Member e of row i draws its partners from
    streams[i].child("predict", e) with encrypt._partners (the pool may hold
    x itself), and lambda and the mask from that stream's child "enc"."""
    if ensemble < 1:
        raise ValidationError(f"ensemble must be >= 1, got {ensemble}")
    m, d = X.shape
    if d != model.d:
        raise ValidationError(f"input length {d} != model d {model.d}")
    S = [X] if pool is None else [X, *_sources(pool, cfg, publicset)]
    if S[-1].shape[1] != d:
        raise DimensionMismatchError(f"partner rows have length {S[-1].shape[1]}, inputs {d}")
    n_pool, n_public = sum(map(len, S[1:2])), sum(map(len, S[2:]))
    block = max(1, (1 << 19) // (ensemble * d))  # ~4 MB float64 buffers per call
    probs = np.empty((m, model.classes))
    for lo in range(0, m, block):
        rows_i = np.arange(lo, min(m, lo + block))
        rep = np.repeat(rows_i, ensemble)
        members = Streams(streams.seed, streams.ids[rep]).child(
            "predict", np.tile(np.arange(ensemble), len(rows_i)))
        partners = _partners(Draws(members), cfg, n_pool, n_public)
        rows = _encrypt_rows(S, None, m, cfg, rep, members.child("enc"), m + partners)
        Xc = np.abs(rows.pixels) if cfg.scheme != "mixup" else rows.pixels
        Xc = Xc.astype(np.float64)
        # matmul over a stack of column vectors runs forward()'s matrix-vector
        # product row by row, so these probabilities equal forward()'s bit for bit
        P = softmax_rows(np.matmul(model.W, Xc[:, :, None])[:, :, 0] + model.b)
        acc = np.zeros((len(rows_i), model.classes))
        for e in range(ensemble):  # summed in the order predict_encrypted sums
            acc += P[e::ensemble]
        probs[rows_i] = acc / ensemble
    return probs


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
    simplex points, so still a probability vector. ``partner_pool`` and
    ``publicset`` are a Dataset or PatchSet."""
    return _encrypted_probs(
        model, np.asarray(x).reshape(1, -1), cfg, Streams(rng.seed, [rng.stream]), ensemble,
        partner_pool, publicset,
    )[0]


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
    """Top-1 accuracy against the argmax of the true label vectors. In
    encrypted mode image i is predicted as predict_encrypted would with
    rng.child("eval", i)."""
    if mode not in ("plain", "encrypted"):
        raise ValidationError(f"mode must be plain or encrypted, got {mode!r}")
    if test.classes is None or test.n == 0:
        raise ValidationError("evaluation needs a labelled, non-empty dataset")
    truth = np.argmax(test.label_matrix(), axis=1)
    if mode == "plain":
        P = softmax_rows(test.matrix().astype(np.float64) @ model.W.T + model.b)
        return float(np.mean(np.argmax(P, axis=1) == truth))
    if cfg is None or rng is None:
        raise ValidationError("encrypted evaluation needs cfg and rng")
    streams = rng.children("eval", ids=np.arange(test.n))
    P = _encrypted_probs(
        model, test.matrix(), cfg, streams, ensemble, partner_pool, publicset
    )
    return int(np.sum(np.argmax(P, axis=1) == truth)) / test.n


# ---------------------------------------------------------------------------
# checkpoint I/O


def model_to_bytes(model: LinearSoftmaxModel) -> bytes:
    if model.classes > 0xFFFF or model.d > 0xFFFFFFFF:
        raise ValidationError("model too large for the checkpoint header")
    header = _MODEL_HEADER.pack(MODEL_MAGIC, model.classes, model.d)
    body = model.W.astype("<f4").tobytes() + model.b.astype("<f4").tobytes()
    return header + body


def model_from_bytes(blob: bytes) -> LinearSoftmaxModel:
    if len(blob) < _MODEL_HEADER.size:
        raise TruncatedFileError("checkpoint shorter than its header")
    magic, classes, d = _MODEL_HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    need = _MODEL_HEADER.size + 4 * (classes * d + classes)
    if len(blob) < need:
        raise TruncatedFileError(f"checkpoint has {len(blob)} bytes, needs {need}")
    if len(blob) > need:
        raise FormatError(f"{len(blob) - need} trailing bytes after checkpoint payload")
    W = np.frombuffer(
        blob, dtype="<f4", count=classes * d, offset=_MODEL_HEADER.size
    ).reshape(classes, d)
    b = np.frombuffer(blob, dtype="<f4", count=classes, offset=need - 4 * classes)
    return LinearSoftmaxModel(W, b)


def save_model(model: LinearSoftmaxModel, path: str | Path) -> None:
    with output(path) as fh:
        fh.write(model_to_bytes(model))


def load_model(path: str | Path) -> LinearSoftmaxModel:
    return model_from_bytes(read_file(path))
