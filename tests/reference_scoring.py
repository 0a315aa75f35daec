"""Reference oracle: the attack scoring kernels as they stood before they
streamed the pool in row blocks, copied verbatim.

``scan_scores`` reduced whole float64 chunks with pairwise summation,
``_fourth_moment_scores`` held the float64 pool and its square,
``ssim_pairwise`` copied every window into a float64 window tensor, and
``pair_detection_attack`` sorted every pair score and clustered with a
Python union-find, and ``average_reconstruct`` averaged a cluster one member
at a time. ``public_scan_attack`` and ``braverman_attack`` are the report
paths as they stood before the float32 screen: every row of the pool scored
by the package's exact row kernels, then sorted. test_scoring_oracle.py
checks the streaming kernels and the screened reports in ``instahide``
against these. Nothing here is imported by the package.

One deliberate change from the verbatim copy: ``pair_detection_attack``
scores pairs with the package's float64 einsum row dot (one
``instahide.core.scan_scores`` call per row of the full matrix), not a BLAS
Gram, because that row dot is the pair score's definition.
"""

from __future__ import annotations

import math

import numpy as np

from instahide import core
from instahide.attacks import (
    DEFAULT_DELTA,
    SSIM_K1,
    SSIM_K2,
    SSIM_STRIDE,
    SSIM_WINDOW,
    TOP_SCORES,
    AttackReport,
    _fourth_moment_scores as exact_fourth_moment_scores,
    _window_starts,
    pair_threshold,
    scan_threshold,
)
from instahide.core import Image
from instahide.encrypt import EncryptionKey
from instahide.errors import DimensionMismatchError, ValidationError


def scan_scores(matrix: np.ndarray, query) -> np.ndarray:
    """Inner product of every row of ``matrix`` against ``query``, each row
    reduced with numpy's fixed pairwise summation (reproducible run to run),
    chunked to bound temporary memory."""
    q = np.asarray(query).astype(np.float64)
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[1] != q.size:
        raise DimensionMismatchError(f"matrix {m.shape} incompatible with query {q.size}")
    out = np.empty(m.shape[0], dtype=np.float64)
    chunk = max(1, int(8_000_000 // max(q.size, 1)))
    for lo in range(0, m.shape[0], chunk):
        block = m[lo : lo + chunk].astype(np.float64)
        out[lo : lo + chunk] = np.sum(block * q, axis=1)
    return out


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
    echo = {} if threshold is not None else {"delta": delta}
    if threshold is None:
        threshold = (
            pair_threshold(rows.shape[1], k, n_pairs, delta) if n_pairs else math.inf
        )

    gram = np.stack([core.scan_scores(rows, row) for row in rows])
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
        params={"threshold": float(threshold), **echo, "samples": m, "k": k},
        scores=scores,
        decisions=tuple(int(iu[o] * m + ju[o]) for o in np.flatnonzero(detected)),
        reconstruction=reconstruction,
        metrics=metrics,
        clusters=clusters,
    )


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


def public_scan_attack(xtilde, publicset, k, threshold=None, truth_members=None,
                       delta=DEFAULT_DELTA) -> AttackReport:
    """Score every public patch by inner product against the query in one
    O(N d) pass; candidates above the threshold are flagged as suspected mix
    members. With ground truth the report adds member recall, precision, and
    the 1-based ranks of the true members under |score| ordering."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("public scan needs a non-empty patch set")
    query = np.asarray(xtilde)
    raw = core.scan_scores(patches, query)
    mags = np.abs(raw)
    n = raw.size
    echo = {} if threshold is not None else {"delta": delta}
    if threshold is None:
        qn = math.sqrt(np.einsum("ij,ij->i", *[query.reshape(1, -1)] * 2, dtype=np.float64)[0])
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
        params={"threshold": float(threshold), **echo, "k": k, "candidates": n},
        scores=scores,
        decisions=flagged,
        metrics=metrics,
        ranks=ranks,
    )


def braverman_attack(xtilde, publicset, truth_members=None) -> AttackReport:
    """Rank all candidates by the fourth-moment statistic, descending."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("ranking needs a non-empty candidate set")
    v = exact_fourth_moment_scores(patches, xtilde)
    n = v.size
    order = np.lexsort((np.arange(n), -v))

    metrics: dict = {}
    ranks = None
    if truth_members is not None:
        truth, rank_of = _truth_ranks(order, truth_members)
        ranks = tuple(sorted(int(rank_of[t]) for t in truth))
        non_ranks = np.delete(rank_of, list(truth))
        metrics["median_member_rank"] = float(np.median(ranks)) if ranks else None
        metrics["median_nonmember_rank"] = float(np.median(non_ranks)) if non_ranks.size else None
    scores = tuple((int(i), float(v[i])) for i in order[:TOP_SCORES])
    return AttackReport(
        attack="braverman",
        params={"candidates": n},
        scores=scores,
        decisions=tuple(int(i) for i in order[: min(TOP_SCORES, n)]),
        metrics=metrics,
        ranks=ranks,
    )
