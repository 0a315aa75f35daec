"""Attacks on the mixing schemes.

Inner-product attacks (pair detection, public-set scan) work on unmasked or
demasked samples; the fourth-moment ranking works straight through the sign
mask; demasking itself is modeled by a parametric sign oracle standing in for
a learned sign recoverer with error rate p (p=0 perfect, p=0.5 uninformative);
averaging and SSIM similarity search consume oracle output; gradient matching
inverts a training gradient of the linear softmax model.

Every attack reads its samples and candidates through ``np.asarray``, so an
EncryptedSample, an Image and a raw pixel array are interchangeable inputs;
results carry the input's (C, H, W) dims when it has them.

Detection thresholds default to the geometric midpoint between the typical
member score scale and a union-bounded noise ceiling, both computable from the
runtime parameters (d, k, candidate count, delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Coefficients, Dataset, Image, SignMask, scan_scores
from .encrypt import EncryptedSample, EncryptionKey, apply_mask
from .errors import (
    DivergenceError,
    RankDeficiencyError,
    ValidationError,
)
from .rng import RngStream
from .utility import LinearSoftmaxModel, softmax_rows

TOP_SCORES = 50

SSIM_WINDOW = 8
SSIM_STRIDE = 4
SSIM_K1 = 0.01
SSIM_K2 = 0.03

DEFAULT_ORACLE_P = 0.25
DEFAULT_DELTA = 0.01


def _rate_ok(v: float) -> bool:
    return -1e-9 <= v <= 1.0 + 1e-9


@dataclass
class AttackReport:
    """Structured result of one attack run: ranked candidate scores (capped
    at TOP_SCORES), thresholded decisions, an optional reconstruction, and
    scalar metrics. Metrics valued None mean "not computable here" (for
    example precision with zero detections), never NaN."""

    attack: str
    params: dict = field(default_factory=dict)
    scores: tuple[tuple[int, float], ...] = ()
    decisions: tuple = ()
    reconstruction: Image | None = None
    metrics: dict = field(default_factory=dict)
    ranks: tuple[int, ...] | None = None
    clusters: tuple[tuple[int, ...], ...] | None = None
    trajectory: tuple[float, ...] | None = None

    def __post_init__(self):
        for key, val in self.metrics.items():
            if val is None:
                continue
            if not np.isfinite(val):
                raise ValidationError(f"metric {key!r} must be finite, got {val}")
            if ("corr" in key and not -1.0 - 1e-9 <= val <= 1.0 + 1e-9) or (
                any(tag in key for tag in ("precision", "recall", "rate", "hit"))
                and not _rate_ok(val)
            ):
                raise ValidationError(f"metric {key!r} out of range: {val}")

    def to_dict(self, reconstruction_path: str | None = None) -> dict:
        out = {
            "attack": self.attack,
            "params": self.params,
            "metrics": {
                k: (None if v is None else float(v)) for k, v in self.metrics.items()
            },
            "top_scores": [[int(i), float(s)] for i, s in self.scores],
        }
        if self.ranks is not None:
            out["ranks"] = [int(r) for r in self.ranks]
        if reconstruction_path is not None:
            out["reconstruction_path"] = reconstruction_path
        return out


def correlation(a, b) -> float:
    """Pearson correlation of two pixel vectors; 0.0 when either is constant."""
    av, bv = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (a, b))
    if av.size != bv.size:
        raise ValidationError(f"length mismatch: {av.size} vs {bv.size}")
    ac = av - av.mean()
    bc = bv - bv.mean()
    denom = np.linalg.norm(ac) * np.linalg.norm(bc)
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(ac, bc) / denom, -1.0, 1.0))


# ---------------------------------------------------------------------------
# thresholds


def noise_ceiling(query_norm: float, d: int, candidates: int, delta: float) -> float:
    """Union-bounded score magnitude for a candidate independent of the query:
    a centered inner product against a unit-norm candidate has standard
    deviation about query_norm/sqrt(d)."""
    if d < 1 or candidates < 1 or not 0.0 < delta < 1.0:
        raise ValidationError("need d >= 1, candidates >= 1, delta in (0, 1)")
    return query_norm * math.sqrt(2.0 * math.log(2.0 * candidates / delta) / d)


def scan_threshold(query_norm: float, d: int, k: int, candidates: int, delta: float) -> float:
    """Midpoint for the public scan: geometric mean of the member score scale
    (query_norm^2 / k) and the non-member noise ceiling."""
    member_scale = query_norm * query_norm / max(k, 1)
    return math.sqrt(member_scale * noise_ceiling(query_norm, d, candidates, delta))


def pair_threshold(d: int, k: int, n_pairs: int, delta: float) -> float:
    """Midpoint for pair detection over unit-norm sources: member scale 1/k^2
    (typical product of two coefficients) against the pairwise noise ceiling."""
    member_scale = 1.0 / (k * k)
    return math.sqrt(member_scale * noise_ceiling(1.0, d, n_pairs, delta))


# ---------------------------------------------------------------------------
# inner-product attacks


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _truth_pair_matrix(keys: list[EncryptionKey], count: int) -> np.ndarray:
    """Boolean (count, count): do samples i and j share any tagged source?"""
    ids = sorted({src for key in keys for src in key.sources})
    col = {src: c for c, src in enumerate(ids)}
    B = np.zeros((count, len(ids)), dtype=np.int32)
    for i, key in enumerate(keys):
        for src in key.sources:
            B[i, col[src]] = 1
    return (B @ B.T) > 0


def pair_detection_attack(
    history: list,
    threshold: float | None = None,
    truth_keys: list[EncryptionKey] | None = None,
    delta: float = DEFAULT_DELTA,
    k: int = 2,
) -> AttackReport:
    """Threshold all pairwise scores and cluster samples by connected
    components; clusters are averaged into reconstructions (the largest one is
    attached to the report). With ground-truth keys the report carries
    pairwise precision and recall. Pair (i, j) is encoded as id i*m + j."""
    if not history:
        raise ValidationError("pair detection needs a non-empty history")
    m = len(history)
    rows = np.stack([np.asarray(s) for s in history]).astype(np.float64)
    n_pairs = m * (m - 1) // 2
    if threshold is None:
        threshold = (
            pair_threshold(rows.shape[1], k, n_pairs, delta) if n_pairs else math.inf
        )

    gram = rows @ rows.T
    iu, ju = np.triu_indices(m, k=1)
    pair_scores = np.abs(gram[iu, ju])
    detected = pair_scores >= threshold

    uf = _UnionFind(m)
    for i, j in zip(iu[detected], ju[detected]):
        uf.union(int(i), int(j))
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(uf.find(i), []).append(i)
    clusters = tuple(tuple(v) for v in sorted(groups.values()))
    largest = max(clusters, key=len) if clusters else ()
    reconstruction = None
    if len(largest) >= 2:
        reconstruction = average_reconstruct([history[i] for i in largest])

    metrics: dict = {
        "detected_pairs": float(detected.sum()),
        "clusters": float(len(clusters)),
    }
    if truth_keys is not None:
        if len(truth_keys) != m:
            raise ValidationError(f"{len(truth_keys)} keys for {m} samples")
        truth = _truth_pair_matrix(truth_keys, m)[iu, ju]
        tp = float(np.sum(detected & truth))
        metrics["truth_pair_rate"] = float(truth.mean()) if n_pairs else None
        metrics["precision"] = tp / detected.sum() if detected.any() else None
        metrics["recall"] = tp / truth.sum() if truth.any() else None

    order = np.argsort(-pair_scores, kind="stable")[:TOP_SCORES]
    scores = tuple(
        (int(iu[o] * m + ju[o]), float(pair_scores[o])) for o in order
    )
    return AttackReport(
        attack="pair_detection",
        params={"threshold": float(threshold), "delta": delta, "samples": m, "k": k},
        scores=scores,
        decisions=tuple(int(iu[o] * m + ju[o]) for o in np.flatnonzero(detected)),
        reconstruction=reconstruction,
        metrics=metrics,
        clusters=clusters,
    )


def average_reconstruct(cluster: list) -> Image:
    """Coordinate-wise mean of a non-empty cluster of same-shape images, with
    their dims ((1, 1, d) when no member has any)."""
    if not cluster:
        raise ValidationError("cannot average an empty cluster")
    dims = {getattr(x, "dims", None) for x in cluster} - {None}
    if len(dims) > 1:
        raise ValidationError("cluster images have mixed dims")
    acc = np.zeros(np.asarray(cluster[0]).size, dtype=np.float64)
    for x in cluster:
        px = np.asarray(x)
        if px.size != acc.size:
            raise ValidationError("cluster images have mixed sizes")
        acc += px.astype(np.float64).reshape(-1)
    acc /= len(cluster)
    return Image(acc.astype(np.float32), dims.pop() if dims else (1, 1, acc.size))


def _truth_ranks(order: np.ndarray, truth_members) -> tuple[frozenset, np.ndarray]:
    """The truth set and every candidate's 1-based rank under ``order``; a
    member index outside [0, n) is refused."""
    n = order.size
    truth = frozenset(int(t) for t in truth_members)
    if any(not 0 <= t < n for t in truth):
        raise ValidationError(f"truth members must be in [0, {n}), got {sorted(truth)}")
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(1, n + 1)
    return truth, rank_of


def public_scan_attack(
    xtilde,
    publicset,
    k: int,
    threshold: float | None = None,
    truth_members: set[int] | frozenset[int] | None = None,
    delta: float = DEFAULT_DELTA,
) -> AttackReport:
    """Score every public patch by inner product against the query in one
    O(N d) pass; candidates above the threshold are flagged as suspected mix
    members. With ground truth the report adds member recall, precision, and
    the 1-based ranks of the true members under |score| ordering."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("public scan needs a non-empty patch set")
    query = np.asarray(xtilde)
    raw = scan_scores(patches, query)
    mags = np.abs(raw)
    n = raw.size
    if threshold is None:
        qn = float(np.linalg.norm(query.astype(np.float64)))
        threshold = scan_threshold(qn, query.size, k, n, delta)

    order = np.lexsort((np.arange(n), -mags))
    flagged = tuple(int(i) for i in np.flatnonzero(mags >= threshold))
    metrics: dict = {"flagged": float(len(flagged))}
    ranks = None
    if truth_members is not None:
        truth, rank_of = _truth_ranks(order, truth_members)
        ranks = tuple(sorted(int(rank_of[t]) for t in truth))
        hit = len(truth & set(flagged))
        metrics["recall"] = hit / len(truth) if truth else None
        metrics["precision"] = hit / len(flagged) if flagged else None
        metrics["mean_member_rank"] = float(np.mean(ranks)) if ranks else None
        metrics["max_member_rank"] = float(max(ranks)) if ranks else None

    scores = tuple((int(i), float(raw[i])) for i in order[:TOP_SCORES])
    return AttackReport(
        attack="public_scan",
        params={"threshold": float(threshold), "delta": delta, "k": k, "candidates": n},
        scores=scores,
        decisions=flagged,
        metrics=metrics,
        ranks=ranks,
    )


def recover_private_residual(
    xtilde, members: list, lam_estimate: Coefficients | np.ndarray | None = None
) -> Image:
    """Strip identified public members out of a mix: returns
    xtilde - sum_j lam_j * z_j, the private contribution up to scale.

    Coefficients default to the least-squares fit of the query on the member
    matrix; a rank-deficient member set cannot be fit and raises."""
    if not members:
        raise ValidationError("need at least one member to subtract")
    query = np.asarray(xtilde, dtype=np.float64).reshape(-1)
    A = np.stack([np.asarray(z) for z in members]).astype(np.float64)
    if A.shape[1] != query.size:
        raise ValidationError(f"member length {A.shape[1]} != query length {query.size}")
    if lam_estimate is None:
        coeffs, _, rank, _ = np.linalg.lstsq(A.T, query, rcond=None)
        if rank < A.shape[0]:
            raise RankDeficiencyError(
                f"member matrix rank {rank} < {A.shape[0]}: coefficients not identifiable"
            )
    else:
        coeffs = np.asarray(
            lam_estimate.values if isinstance(lam_estimate, Coefficients) else lam_estimate,
            dtype=np.float64,
        ).reshape(-1)
        if coeffs.size != A.shape[0]:
            raise ValidationError(f"{coeffs.size} coefficients for {A.shape[0]} members")
    residual = query - coeffs @ A
    return Image(residual.astype(np.float32), getattr(xtilde, "dims", (1, 1, query.size)))


# ---------------------------------------------------------------------------
# fourth-moment ranking


def _fourth_moment_scores(candidates: np.ndarray, xtilde) -> np.ndarray:
    """v_s = <xtilde^2, s^2> - (1/d) ||xtilde||^2 ||s||^2, with coordinate-wise
    squares, for every row s of ``candidates``. Squaring erases any sign mask
    bit for bit, so masked and unmasked versions of the same mix score
    identically."""
    xv = np.asarray(xtilde, dtype=np.float64).reshape(-1)
    if candidates.shape[1] != xv.size:
        raise ValidationError(
            f"candidate length {candidates.shape[1]} != query length {xv.size}"
        )
    x2 = xv * xv
    P = candidates.astype(np.float64)
    P2 = P * P
    return P2 @ x2 - np.sum(x2) * np.einsum("ij,ij->i", P, P) / xv.size


def braverman_statistic(xtilde, s) -> float:
    """v_s = <xtilde^2, s^2> - (1/d) ||xtilde||^2 ||s||^2 for one candidate
    ``s``: a one-row call of the kernel that braverman_attack ranks by."""
    return float(_fourth_moment_scores(np.asarray(s).reshape(1, -1), xtilde)[0])


def braverman_attack(
    xtilde,
    publicset,
    truth_members: set[int] | frozenset[int] | None = None,
) -> AttackReport:
    """Rank all candidates by the fourth-moment statistic, descending. Mask
    bits do not enter the statistic, so this runs on masked samples as-is;
    the signal is weak and shrinks as k grows."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("ranking needs a non-empty candidate set")
    v = _fourth_moment_scores(patches, xtilde)
    n = v.size
    order = np.lexsort((np.arange(n), -v))

    metrics: dict = {}
    ranks = None
    if truth_members is not None:
        truth, rank_of = _truth_ranks(order, truth_members)
        ranks = tuple(sorted(int(rank_of[t]) for t in truth))
        non_ranks = np.delete(rank_of, list(truth))
        metrics["median_member_rank"] = float(np.median(ranks))
        metrics["median_nonmember_rank"] = float(np.median(non_ranks))
    scores = tuple((int(i), float(v[i])) for i in order[:TOP_SCORES])
    return AttackReport(
        attack="braverman",
        params={"candidates": n},
        scores=scores,
        decisions=tuple(int(i) for i in order[: min(TOP_SCORES, n)]),
        metrics=metrics,
        ranks=ranks,
    )


# ---------------------------------------------------------------------------
# sign oracle and demasking


@dataclass(frozen=True)
class SignOracle:
    """Stand-in for a learned sign recoverer: each coordinate's sign is
    corrected independently with probability 1 - p. p=0 is a perfect
    demasker, p=0.5 knows nothing."""

    p: float = DEFAULT_ORACLE_P
    rng: RngStream = RngStream(0)

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValidationError(f"error rate must be in [0, 0.5], got {self.p}")

    def recovered_mask(self, truth: SignMask, tag=0) -> SignMask:
        """The oracle's estimate of a mask: truth with each sign flipped
        independently with probability p. Distinct tags give independent
        estimates."""
        if self.p == 0.0:
            return truth
        gen = self.rng.child("flip", tag).generator()
        errors = gen.random(truth.d) < self.p
        signs = truth.signs * np.where(errors, np.int8(-1), np.int8(1))
        return SignMask(signs)


def demask_with_oracle(xtilde, truth_mask: SignMask, oracle: SignOracle, tag=0) -> Image:
    """Undo a sign mask as well as the oracle can: applies the oracle's mask
    estimate, leaving a p-fraction of coordinates still sign-flipped."""
    px = np.asarray(xtilde).reshape(-1)
    demasked = apply_mask(px, oracle.recovered_mask(truth_mask, tag))
    return Image(demasked, getattr(xtilde, "dims", (1, 1, px.size)))


# ---------------------------------------------------------------------------
# SSIM and similarity search


def _window_starts(size: int, win: int, stride: int) -> np.ndarray:
    if size <= win:
        return np.array([0])
    starts = np.arange(0, size - win + 1, stride)
    # keep the tail window so the right/bottom border is always covered
    if starts[-1] != size - win:
        starts = np.append(starts, size - win)
    return starts


def _window_matrix(batch: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """(n, d) pixel rows -> (n, n_windows, win_pixels) float64, all channels'
    windows concatenated along the window axis."""
    n = batch.shape[0]
    c, h, w = dims
    win_h = min(SSIM_WINDOW, h)
    win_w = min(SSIM_WINDOW, w)
    ys = _window_starts(h, win_h, SSIM_STRIDE)
    xs = _window_starts(w, win_w, SSIM_STRIDE)
    imgs = batch.reshape(n, c, h, w).astype(np.float64)
    out = np.empty((n, c * ys.size * xs.size, win_h * win_w))
    idx = 0
    for ch in range(c):
        for y in ys:
            for x in xs:
                block = imgs[:, ch, y : y + win_h, x : x + win_w]
                out[:, idx, :] = block.reshape(n, -1)
                idx += 1
    return out


def ssim_pairwise(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    dims: tuple[int, int, int],
    dynamic_range: float | None = None,
    chunk: int = 1024,
) -> np.ndarray:
    """(na, nb) matrix of mean local structural similarity over 8x8 windows
    with stride 4 (window statistics are population moments).

    The dynamic range defaults to the joint peak-to-peak of both batches,
    falling back to 1.0 when everything is constant. Cross terms are reduced
    one window position at a time (a single matmul each), so memory stays at
    O(na * nb) however many windows there are."""
    A = np.atleast_2d(np.asarray(a_rows))
    B = np.atleast_2d(np.asarray(b_rows))
    d = dims[0] * dims[1] * dims[2]
    if A.shape[1] != d or B.shape[1] != d:
        raise ValidationError(f"rows must have length {d}")
    if dynamic_range is None:
        lo = min(float(A.min()), float(B.min()))
        hi = max(float(A.max()), float(B.max()))
        dynamic_range = hi - lo if hi > lo else 1.0
    if dynamic_range <= 0.0:
        raise ValidationError(f"dynamic range must be positive, got {dynamic_range}")
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2

    wa = _window_matrix(A, dims)
    npix = wa.shape[2]
    n_win = wa.shape[1]
    mu_a = wa.mean(axis=2)
    var_a = wa.var(axis=2)
    out = np.empty((A.shape[0], B.shape[0]))
    for lo_i in range(0, B.shape[0], chunk):
        wb = _window_matrix(B[lo_i : lo_i + chunk], dims)
        mu_b = wb.mean(axis=2)
        var_b = wb.var(axis=2)
        acc = np.zeros((A.shape[0], wb.shape[0]))
        for w in range(n_win):
            eab = wa[:, w, :] @ wb[:, w, :].T / npix
            cov = eab - np.outer(mu_a[:, w], mu_b[:, w])
            num = (2.0 * np.outer(mu_a[:, w], mu_b[:, w]) + c1) * (2.0 * cov + c2)
            den = (mu_a[:, w, None] ** 2 + mu_b[None, :, w] ** 2 + c1) * (
                var_a[:, w, None] + var_b[None, :, w] + c2
            )
            acc += num / den
        out[:, lo_i : lo_i + wb.shape[0]] = acc / n_win
    return out


def ssim(a: Image, b: Image, dynamic_range: float | None = None) -> float:
    """Structural similarity of two images; 1.0 iff identical, negative when
    local structure is anti-correlated."""
    if not isinstance(a, Image) or not isinstance(b, Image):
        raise ValidationError("ssim expects Image inputs")
    if a.dims != b.dims:
        raise ValidationError(f"dims mismatch: {a.dims} vs {b.dims}")
    return float(ssim_pairwise(a.pixels, b.pixels, a.dims, dynamic_range)[0, 0])


def similarity_search_attack(
    xtilde,
    publicset,
    oracle: SignOracle,
    truth_mask: SignMask,
    m: int,
    truth_sources: set[int] | frozenset[int] | None = None,
    truth_patches: set[int] | frozenset[int] | None = None,
    tag=0,
) -> AttackReport:
    """Demask through the oracle, rank the public patches by SSIM, and report
    whether any true mixing source shows up in the top m. Truth can be given
    as patch indices or, when the patch set carries provenance, as source
    image ids (robust to the attacker cropping differently than the
    encryptor)."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    n = patches.shape[0]
    if not 0 <= m <= n:
        raise ValidationError(f"m must be in [0, {n}], got {m}")
    estimate = demask_with_oracle(xtilde, truth_mask, oracle, tag)
    sims = np.zeros(0)  # an empty candidate set (which may have no dims) ranks nothing
    if n:
        # SSIM windows need the image geometry: a raw query takes the candidates'
        dims = estimate.dims
        if not hasattr(xtilde, "dims") and hasattr(publicset, "dims"):
            dims = publicset.dims
        sims = ssim_pairwise(estimate.pixels, patches, dims)[0]
    order = np.lexsort((np.arange(n), -sims))
    top = order[:m]

    metrics: dict = {}
    if truth_sources is not None or truth_patches is not None:
        hit = False
        if truth_patches is not None:
            hit |= bool(set(int(i) for i in top) & set(int(t) for t in truth_patches))
        if truth_sources is not None:
            if not hasattr(publicset, "source_ids"):
                raise ValidationError("source-id truth needs a patch set with provenance")
            ids = publicset.source_ids()
            hit |= bool(
                set(int(ids[i]) for i in top) & set(int(t) for t in truth_sources)
            )
        metrics["hit"] = 1.0 if hit else 0.0
    scores = tuple((int(i), float(sims[i])) for i in order[:TOP_SCORES])
    return AttackReport(
        attack="similarity_search",
        params={"m": m, "oracle_p": oracle.p, "candidates": n},
        scores=scores,
        decisions=tuple(int(i) for i in top),
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# averaging attacks


AVERAGING_MODES = ("strong", "weak")


def averaging_attack(
    history: list[EncryptedSample],
    keys: list[EncryptionKey],
    private: Dataset,
    mode: str,
    oracle: SignOracle,
    m: int = 5,
    target: int = 0,
) -> AttackReport:
    """Average demasked encryptions to wash out the mixing partners.

    strong: the attacker knows which encryptions share base image ``target``
    (their first source); demask those and average.

    weak: no cluster knowledge; every sample is probed once, its top-m SSIM
    neighbors among the other demasked samples are averaged with it, and the
    distribution of correlation-to-own-base over probes is reported. The
    probe-0 average is attached as the reconstruction."""
    if mode not in AVERAGING_MODES:
        raise ValidationError(f"mode must be one of {AVERAGING_MODES}, got {mode!r}")
    if not history:
        raise ValidationError("averaging needs a non-empty history")
    if len(keys) != len(history):
        raise ValidationError(f"{len(keys)} keys for {len(history)} samples")

    if mode == "strong":
        cluster = [
            demask_with_oracle(s, key.mask, oracle, tag=s.sample_id)
            for s, key in zip(history, keys)
            if key.sources[0] == ("private", int(target))
        ]
        if not cluster:
            raise ValidationError(f"no encryptions of private image {target} in history")
        recon = average_reconstruct(cluster)
        original = private.matrix()[int(target)]
        metrics = {
            "cluster_size": float(len(cluster)),
            "corr_to_original": correlation(recon, original),
            "ssim_to_original": ssim(recon, Image(original, private.dims)),
        }
        return AttackReport(
            attack="averaging_strong",
            params={"oracle_p": oracle.p, "target": int(target)},
            reconstruction=recon,
            metrics=metrics,
        )

    if m < 1 or m >= len(history):
        raise ValidationError(f"weak mode needs 1 <= m < {len(history)}, got {m}")
    demasked = np.stack(
        [
            demask_with_oracle(s, key.mask, oracle, tag=s.sample_id).pixels
            for s, key in zip(history, keys)
        ]
    ).astype(np.float64)
    dims = history[0].dims
    sims = ssim_pairwise(demasked, demasked, dims)
    np.fill_diagonal(sims, -np.inf)
    corr = np.empty(len(history))
    recon0 = None
    for i in range(len(history)):
        order = np.lexsort((np.arange(len(history)), -sims[i]))
        members = np.concatenate([[i], order[:m]])
        avg = demasked[members].mean(axis=0)
        corr[i] = correlation(avg, private.matrix()[keys[i].sources[0][1]])
        if i == 0:
            recon0 = Image(avg.astype(np.float32), dims)
    metrics = {
        "probes": float(len(history)),
        "corr_mean": float(corr.mean()),
        "corr_median": float(np.median(corr)),
        "corr_min": float(corr.min()),
        "corr_max": float(corr.max()),
    }
    return AttackReport(
        attack="averaging_weak",
        params={"oracle_p": oracle.p, "m": m},
        reconstruction=recon0,
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# gradient matching


def _matching_objective(
    model: LinearSoftmaxModel, x: np.ndarray, y: np.ndarray, gW: np.ndarray, gb: np.ndarray
):
    """Objective D = ||g(x, y) - g_hat||^2 for the linear softmax gradient,
    plus its exact gradients in x and y."""
    # overflow here just means the descent diverged; the caller raises on a
    # non-finite objective with the trajectory attached
    with np.errstate(over="ignore", invalid="ignore"):
        p = softmax_rows(model.W @ x + model.b)
        residual = y.sum() * p - y
        A = np.outer(residual, x) - gW
        a = residual - gb
        objective = float(np.sum(A * A) + np.sum(a * a))
        u = A @ x + a
        jac_u = p * u - p * float(p @ u)  # J u with J = diag(p) - p p^T
        grad_x = 2.0 * (A.T @ residual + y.sum() * (model.W.T @ jac_u))
        grad_y = 2.0 * (float(u @ p) * np.ones_like(y) - u)
    return objective, grad_x, grad_y


def gradient_matching_attack(
    observed_gradient: tuple[np.ndarray, np.ndarray],
    model: LinearSoftmaxModel,
    rng: RngStream,
    steps: int = 2000,
    lr: float = 0.05,
    victim=None,
    fd_probes: int = 10,
    exit_tol: float = 1e-16,
) -> AttackReport:
    """Recover the training input behind an observed (W, b) gradient by
    descending D(x, y) = ||g(x, y) - g_hat||^2 from random (x, y).

    The analytic descent direction is verified against central finite
    differences at the starting point (relative tolerance 1e-4); a non-finite
    objective aborts with the trajectory attached to the error."""
    gW = np.asarray(observed_gradient[0], dtype=np.float64)
    gb = np.asarray(observed_gradient[1], dtype=np.float64).reshape(-1)
    if gW.shape != (model.classes, model.d) or gb.size != model.classes:
        raise ValidationError(
            f"gradient shapes {gW.shape}, {gb.shape} do not fit the model"
        )
    gen = rng.generator()
    x = gen.standard_normal(model.d) / math.sqrt(model.d)
    y = gen.standard_normal(model.classes) / math.sqrt(model.classes)

    if fd_probes > 0:
        _verify_matching_gradient(model, x, y, gW, gb, gen, fd_probes)

    trajectory = []
    steps_run = 0
    for step in range(int(steps)):
        objective, grad_x, grad_y = _matching_objective(model, x, y, gW, gb)
        trajectory.append(objective)
        if not np.isfinite(objective):
            raise DivergenceError(
                f"matching objective became non-finite at step {step}",
                trajectory=tuple(trajectory),
            )
        if objective <= exit_tol:
            break
        x = x - lr * grad_x
        y = y - lr * grad_y
        steps_run = step + 1

    final, _, _ = _matching_objective(model, x, y, gW, gb)
    recovered = Image(x.astype(np.float32), getattr(victim, "dims", (1, 1, model.d)))
    metrics: dict = {"final_objective": final, "steps_run": float(steps_run)}
    if victim is not None:
        metrics["corr_to_victim"] = correlation(recovered, victim)
    return AttackReport(
        attack="gradient_matching",
        params={"steps": int(steps), "lr": lr},
        reconstruction=recovered,
        metrics=metrics,
        trajectory=tuple(trajectory),
    )


def _verify_matching_gradient(model, x, y, gW, gb, gen, probes: int) -> None:
    """Central-difference check of the analytic matching gradient at (x, y)."""

    def d_of(xv, yv):
        return _matching_objective(model, xv, yv, gW, gb)[0]

    _, grad_x, grad_y = _matching_objective(model, x, y, gW, gb)
    for vec, grad, fn in (
        (x, grad_x, lambda v: d_of(v, y)),
        (y, grad_y, lambda v: d_of(x, v)),
    ):
        count = min(probes, vec.size)
        for idx in gen.choice(vec.size, size=count, replace=False):
            h = 1e-5 * (1.0 + abs(vec[idx]))
            hi, lo = vec.copy(), vec.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (fn(hi) - fn(lo)) / (2.0 * h)
            scale = max(abs(fd), abs(grad[idx]), 1e-8)
            if abs(fd - grad[idx]) / scale > 1e-4:
                raise ValidationError(
                    f"analytic gradient disagrees with finite differences at "
                    f"coordinate {int(idx)}: {grad[idx]:.6g} vs {fd:.6g}"
                )
