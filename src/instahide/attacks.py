"""Attacks on the mixing schemes.

Inner-product attacks (pair detection, public-set scan) work on unmasked or
demasked samples; the fourth-moment ranking works straight through the sign
mask; demasking itself is modeled by a parametric sign oracle standing in for
a learned sign recoverer with error rate p (p=0 perfect, p=0.5 uninformative);
averaging and SSIM similarity search consume oracle output; gradient matching
inverts a training gradient of the linear softmax model.

Every attack reads its samples and candidates through ``np.asarray``, so an
EncryptedSample, an Image and a raw pixel array are interchangeable inputs,
as are a history's EncryptedSamples block and a list of them; results carry
the input's (C, H, W) dims when it has them. Ground truth and the averaging
attack read a history's key columns (sources, signs) directly.

Detection thresholds default to the geometric midpoint between the typical
member score scale and a union-bounded noise ceiling, both computable from the
runtime parameters (d, k, candidate count, delta).

A pair score is scan_scores' float64 row dot, the same bits whatever the BLAS
thread count or block size. BLAS only filters: one product per upper-triangle
row block of CHUNK_BYTES, within (gamma_d(u) + gamma_d(2^-53)) ||x_i|| ||x_j||
of the row dot (gamma_d(u) = d u / (1 - d u), Higham 2002, 3.1); pairs whose
bound straddles the threshold or the running top-50 cut are re-scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Coefficients, Dataset, Image, SignMask, float64_blocks, scan_scores
from .encrypt import EncryptedSamples, EncryptionKeys, apply_mask
from .errors import (
    DivergenceError,
    RankDeficiencyError,
    ValidationError,
)
from .rng import Draws, RngStream
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


def _components(m: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Label every node of the graph on m nodes with edges (i, j) by the
    smallest node of its component: hook roots under the smaller label across
    each edge, flatten by pointer jumping, repeat until no edge spans two."""
    label = np.arange(m)
    while True:
        li, lj = label[i], label[j]
        if np.array_equal(li, lj):
            return label
        low = np.minimum(li, lj)
        np.minimum.at(label, li, low)
        np.minimum.at(label, lj, low)
        while not np.array_equal(label[label], label):
            label = label[label]


def _row_dots(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """abs(scan_scores(rows[j:j+1], rows[i])[0]) per index pair, bit for bit, in blocks."""
    out = np.empty(i.size)
    step = max(1, core.CHUNK_BYTES // (16 * rows.shape[1]))
    for s in range(0, i.size, step):
        a, b = (rows[ix[s : s + step]].astype(np.float64) for ix in (i, j))
        out[s : s + step] = np.abs(np.einsum("ij,ij->i", a, b))
    return out


def pair_detection_attack(
    history,
    threshold: float | None = None,
    truth_keys: EncryptionKeys | None = None,
    delta: float = DEFAULT_DELTA,
    k: int = 2,
) -> AttackReport:
    """Threshold all pairwise scores and cluster samples by connected
    components; clusters are averaged into reconstructions (the largest one is
    attached to the report). With ground-truth keys the report carries
    pairwise precision and recall. Pair (i, j), i < j, has id i*m + j and
    score |<x_i, x_j>| (see the module docstring); top scores sort by (-score, id)."""
    m = len(history)
    if not m:
        raise ValidationError("pair detection needs a non-empty history")
    rows = np.asarray(history).reshape(m, -1)
    d = rows.shape[1]
    n_pairs = m * (m - 1) // 2
    if threshold is None and n_pairs:  # with no pairs the threshold stays None (null)
        threshold = pair_threshold(d, k, n_pairs, delta)
    if threshold is not None and math.isnan(threshold := float(threshold)):
        raise ValidationError("threshold must be a number, got nan")
    if truth_keys is not None and len(truth_keys) != m:
        raise ValidationError(f"{len(truth_keys)} keys for {m} samples")
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    if not np.isfinite(norms).all():
        raise ValidationError("pair detection needs rows of finite norm")
    if rows.dtype != np.float32 or norms.max() > 1e18:  # float32 partial sums stay finite
        rows = rows.astype(np.float64, copy=False)
    # row i's bound against any partner, rounded up by 2; tiny: underflowed products
    u, tiny = np.finfo(rows.dtype).eps / 2, 2 * d * np.finfo(rows.dtype).smallest_subnormal
    bound = 2 * sum(d * v / (1 - d * v) for v in (u, 2.0**-53)) * norms.max() * norms + tiny
    cut = math.inf if threshold is None else max(threshold, 0.0)  # <= 0 detects every pair
    if truth_keys is not None:
        # incidence[i, c] = 1 iff sample i mixes source c; shared counts are exact in float32
        _, col = np.unique(truth_keys.sources, return_inverse=True)
        incidence = np.zeros((m, col.max() + 1), dtype=np.float32)
        incidence[np.arange(m)[:, None], col.reshape(m, -1)] = 1.0
    ids, top_ids, top = [], np.zeros(0, dtype=np.int64), np.zeros(0)
    truth_pairs = tp = lo = 0
    while lo < m:
        hi = min(m, lo + max(1, core.CHUNK_BYTES // (8 * (m - lo))))
        G = np.abs(rows[lo:hi] @ rows[lo:].T)
        G[:, : hi - lo][np.tri(hi - lo, dtype=bool)] = -np.inf  # keep i < j
        r = bound[lo:hi, None]
        # a floor under the top cut: 50th of the best, each row's best, 50 zeros
        lows = np.concatenate([np.zeros(TOP_SCORES), top, G.max(axis=1) - r[:, 0]])
        floor = np.partition(lows, lows.size - TOP_SCORES)[lows.size - TOP_SCORES]
        det = G >= cut + r
        near = np.nonzero(((G >= cut - r) & ~det) | (G >= floor - r))
        exact = _row_dots(rows, near[0] + lo, near[1] + lo)
        det[near] = exact >= cut
        if truth_keys is not None:
            truth = (incidence[lo:hi] @ incidence[lo:].T > 0) & (G > -np.inf)
            truth_pairs += np.count_nonzero(truth)
            tp += np.count_nonzero(truth & det)
        # block entry (r, c) is pair (lo + r, lo + c): id r * m + c + lo * (m + 1)
        ids.append(np.ravel_multi_index(np.nonzero(det), (m, m)) + lo * (m + 1))
        top_ids = np.concatenate([top_ids, np.ravel_multi_index(near, (m, m)) + lo * (m + 1)])
        top = np.concatenate([top, exact])
        best = np.lexsort((top_ids, -top))[:TOP_SCORES]  # (-score, id): a total order
        top_ids, top = top_ids[best], top[best]
        lo = hi
    ids = np.concatenate(ids)

    label = _components(m, ids // m, ids % m)
    members = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[members])) + 1
    clusters = tuple(tuple(c.tolist()) for c in np.split(members, cuts))
    largest = max(clusters, key=len)
    reconstruction = None
    if len(largest) >= 2:
        dims = getattr(history, "dims", None) or getattr(history[0], "dims", (1, 1, d))
        mean = _mean_rows(rows, label == label[largest[0]])
        reconstruction = Image(mean.astype(np.float32), dims)

    metrics: dict = {"detected_pairs": float(ids.size), "clusters": float(len(clusters))}
    if truth_keys is not None:
        metrics["truth_pair_rate"] = truth_pairs / n_pairs if n_pairs else None
        metrics["precision"] = tp / ids.size if ids.size else None
        metrics["recall"] = tp / truth_pairs if truth_pairs else None

    return AttackReport(
        attack="pair_detection",
        params={"threshold": threshold, "delta": delta, "samples": m, "k": k},
        scores=tuple(zip(top_ids.tolist(), top.tolist())),
        decisions=tuple(ids.tolist()),
        reconstruction=reconstruction,
        metrics=metrics,
        clusters=clusters,
    )


def _mean_rows(rows: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """float64 coordinate-wise mean of ``rows``, or of the rows a boolean
    ``members`` marks (no copy): summed from zero in row order, then divided by
    their count."""
    if members is None:
        members = np.ones(len(rows), dtype=bool)
    total = np.add.reduce(rows, axis=0, dtype=np.float64, where=members[:, None], initial=0.0)
    return total / np.count_nonzero(members)


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
    if math.isnan(threshold):
        raise ValidationError("threshold must be a number, got nan")

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
    squares, for every row s of ``candidates`` (row blocks squared in place).
    Squaring erases any sign mask bit for bit, so masked and unmasked
    versions of the same mix score identically."""
    xv = np.asarray(xtilde, dtype=np.float64).reshape(-1)
    if candidates.shape[1] != xv.size:
        raise ValidationError(
            f"candidate length {candidates.shape[1]} != query length {xv.size}"
        )
    x2 = xv * xv
    total = np.sum(x2)
    out = np.empty(len(candidates))
    for rows, block in float64_blocks(candidates, 8 * xv.size):
        np.square(block, out=block)
        norms = np.einsum("ij->i", block)
        out[rows] = np.einsum("ij,j->i", block, x2) - total * norms / xv.size
    return out


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

    def recovered_masks(self, truths: np.ndarray, tags) -> np.ndarray:
        """The oracle's estimates of (m, d) int8 masks: row r is truths[r] with
        each sign flipped independently with probability p, drawn from the
        flip stream of the integer tags[r]. Distinct tags give independent
        estimates."""
        if self.p == 0.0:
            return truths
        draws, flips = Draws(self.rng.children("flip", ids=tags)), np.empty(truths.shape, np.int8)
        for rows in draws.chunks(np.arange(draws.m), truths.shape[1]):
            flips[rows] = np.where(draws.random(rows, 0, truths.shape[1]) < self.p, -1, 1)
        return truths * flips

    def recovered_mask(self, truth: SignMask, tag: int = 0) -> SignMask:
        """recovered_masks for one mask."""
        return SignMask(self.recovered_masks(truth.signs[None], [tag])[0])


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


def _axis_blocks(size: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Cut one image axis at every window start and end: the block edges and
    each window's [first, last) block range."""
    win = min(SSIM_WINDOW, size)
    starts = _window_starts(size, win, SSIM_STRIDE)
    edges = np.union1d(starts, starts + win)
    first, last = np.searchsorted(edges, starts), np.searchsorted(edges, starts + win)
    return edges, [(int(a), int(b)) for a, b in zip(first, last)]


def _blocks(rows: np.ndarray, dims, ey: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """(n, d) rows -> float64 (C, by, bx, n, block pixels): every block
    zero-padded to the longest block on each axis (zeros add nothing to the
    sums taken over a block)."""
    c, h, w = dims
    img = rows.reshape(len(rows), c, h, w).transpose(1, 0, 2, 3)
    ly, lx = int(np.diff(ey).max()), int(np.diff(ex).max())
    out = np.zeros((c, ey.size - 1, ex.size - 1, len(rows), ly, lx))
    for b, (y0, y1) in enumerate(zip(ey[:-1], ey[1:])):
        for a, (x0, x1) in enumerate(zip(ex[:-1], ex[1:])):
            out[:, b, a, :, : y1 - y0, : x1 - x0] = img[:, :, y0:y1, x0:x1]
    return out.reshape(out.shape[:4] + (ly * lx,))


def _window_sums(per_block: np.ndarray, ry, rx) -> np.ndarray:
    """Sum (C, by, bx, ...) block values over every window's block ranges:
    (windows, ...), windows in (channel, y, x) order."""
    c, by = per_block.shape[:2]
    cols = np.empty((c, by, len(rx)) + per_block.shape[3:])
    for j, (a, b) in enumerate(rx):
        np.copyto(cols[:, :, j], per_block[:, :, a])
        for k in range(a + 1, b):
            cols[:, :, j] += per_block[:, :, k]
    out = np.empty((c, len(ry), len(rx)) + per_block.shape[3:])
    for i, (a, b) in enumerate(ry):
        np.copyto(out[:, i], cols[:, a])
        for k in range(a + 1, b):
            out[:, i] += cols[:, k]
    return out.reshape((-1,) + out.shape[3:])


def _window_moments(blocks: np.ndarray, ry, rx, npix: int):
    """Population mean and variance of every window, (windows, n) each, from
    per-block sums and sums of squares."""
    mean = _window_sums(np.einsum("...l->...", blocks), ry, rx) / npix
    square = _window_sums(np.einsum("...l,...l->...", blocks, blocks), ry, rx) / npix
    return mean, square - mean * mean


def ssim_pairwise(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    dims: tuple[int, int, int],
    dynamic_range: float | None = None,
) -> np.ndarray:
    """(na, nb) matrix of mean local structural similarity over 8x8 windows
    with stride 4 (window statistics are population moments).

    The dynamic range defaults to the joint peak-to-peak of both batches,
    falling back to 1.0 when everything is constant. Both axes are cut into
    blocks at the window edges, so a window's moments and cross term are
    sums over its blocks (cross terms: one batched matmul per pair of row
    blocks); the formula runs one window at a time."""
    A = np.atleast_2d(np.asarray(a_rows))
    B = np.atleast_2d(np.asarray(b_rows))
    c, h, w = dims
    d = c * h * w
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

    (ey, ry), (ex, rx) = _axis_blocks(h), _axis_blocks(w)
    npix = min(SSIM_WINDOW, h) * min(SSIM_WINDOW, w)
    blocks = c * (ey.size - 1) * (ex.size - 1)
    out = np.empty((A.shape[0], B.shape[0]))
    for rows_a, a in float64_blocks(A, 8 * d):
        a = _blocks(a, dims, ey, ex)
        mu_a, var_a = _window_moments(a, ry, rx, npix)
        # SSIM = (2 mu_a mu_b + c1)(2 cov + c2) / ((pa + mu_b^2)(va + var_b))
        mu2_a, pa, va = 2.0 * mu_a, mu_a * mu_a + c1, var_a + c2
        # b's chunk also bounds the (blocks, rows of a, rows of b) cross terms
        for rows_b, b in float64_blocks(B, max(8 * d, 8 * blocks * a.shape[3])):
            b = _blocks(b, dims, ey, ex)
            mu_b, var_b = _window_moments(b, ry, rx, npix)
            pb = mu_b * mu_b
            # per window, the sum of a*b over its pixels: (windows, na, nb)
            sab = _window_sums(np.matmul(a, b.swapaxes(-1, -2)), ry, rx)
            acc = np.zeros((a.shape[3], b.shape[3]))
            for wi, s in enumerate(sab):
                m2 = np.multiply.outer(mu2_a[wi], mu_b[wi])  # 2 mu_a mu_b
                s *= 2.0 / npix
                s -= m2
                s += c2  # 2 cov + c2
                m2 += c1
                m2 *= s
                den = np.add.outer(pa[wi], pb[wi])
                den *= np.add.outer(va[wi], var_b[wi])
                m2 /= den
                acc += m2
            out[rows_a, rows_b] = acc / len(sab)
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
    history: EncryptedSamples,
    keys: EncryptionKeys,
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
    probe-0 average is attached as the reconstruction.

    The chosen rows are demasked in one multiply by the oracle's estimates of
    their masks, each drawn under the row's sample id."""
    if mode not in AVERAGING_MODES:
        raise ValidationError(f"mode must be one of {AVERAGING_MODES}, got {mode!r}")
    if not len(history):
        raise ValidationError("averaging needs a non-empty history")
    if len(keys) != len(history):
        raise ValidationError(f"{len(keys)} keys for {len(history)} samples")
    rows = np.arange(len(history))
    if mode == "strong":
        rows = np.flatnonzero(keys.sources[:, 0] == int(target))
        if not rows.size:
            raise ValidationError(f"no encryptions of private image {target} in history")
    elif m < 1 or m >= len(history):
        raise ValidationError(f"weak mode needs 1 <= m < {len(history)}, got {m}")
    pixels, dims = np.asarray(history)[rows], history.dims
    # Mixup keys carry no signs: their masks are all +1
    truth = np.ones(pixels.shape, np.int8) if keys.signs is None else keys.signs[rows]
    demasked = pixels * oracle.recovered_masks(truth, history.ids[rows])

    if mode == "strong":
        recon = Image(_mean_rows(demasked).astype(np.float32), dims)
        original = private.matrix()[int(target)]
        metrics = {
            "cluster_size": float(rows.size),
            "corr_to_original": correlation(recon, original),
            "ssim_to_original": ssim(recon, Image(original, private.dims)),
        }
        return AttackReport(
            attack="averaging_strong",
            params={"oracle_p": oracle.p, "target": int(target)},
            reconstruction=recon,
            metrics=metrics,
        )

    demasked = demasked.astype(np.float64)
    sims = ssim_pairwise(demasked, demasked, dims)
    np.fill_diagonal(sims, -np.inf)
    corr = np.empty(len(history))
    recon0 = None
    for i in range(len(history)):
        order = np.lexsort((np.arange(len(history)), -sims[i]))
        members = np.concatenate([[i], order[:m]])
        avg = _mean_rows(demasked[members])
        corr[i] = correlation(avg, private.matrix()[keys.sources[i, 0]])
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
) -> AttackReport:
    """Recover the training input behind an observed (W, b) gradient by
    descending D(x, y) = ||g(x, y) - g_hat||^2 from random (x, y), stopping
    early once D <= 1e-16.

    The analytic descent direction is verified against central finite
    differences at the starting point (relative tolerance 1e-4); a non-finite
    objective aborts with the trajectory attached to the error."""
    gW = np.asarray(observed_gradient[0], dtype=np.float64)
    gb = np.asarray(observed_gradient[1], dtype=np.float64).reshape(-1)
    if gW.shape != (model.classes, model.d) or gb.size != model.classes:
        raise ValidationError(
            f"gradient shapes {gW.shape}, {gb.shape} do not fit the model"
        )
    if steps < 0 or not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"need steps >= 0 and a finite lr > 0, got {steps} and {lr}")
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
        if objective <= 1e-16:
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
