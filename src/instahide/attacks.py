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
the input's (C, H, W) dims when it has them. The similarity search answers
a (q, d) block of queries in one demask and one SSIM pass. Ground truth and
the averaging attack read a history's key columns (sources, signs) directly.

Detection thresholds default to the geometric midpoint between the typical
member score scale and a union-bounded noise ceiling, both computable from the
runtime parameters (d, k, candidate count, delta); a report's params echo
delta only when it set the threshold.

Scan, pair and fourth-moment scores are float64 row kernels (scan_scores,
_fourth_moment_scores; a pair score is a scan_scores call): a row's bits do
not depend on the BLAS thread count, the block size or the other rows, and
thresholds and correlations take their norms and dots with einsum, never
BLAS. BLAS only filters. It gives each row an
interval [lo, hi] around its exact score, and only the rows a report byte
depends on are scored exactly: those whose interval reaches the top-50 floor
(the 50th largest lo), holds the threshold or holds a truth member's score,
and the members. Every other row is flagged by its interval, and a member's
rank is 1 + the unscored rows whose lo is above its score + the scored rows
ahead of it by (-score, index), the order np.lexsort gives. Tied rows have
overlapping intervals, so all of them are scored and ties fall by index.

The bounds use gamma_n(u) = n u / (1 - n u), which bounds n roundings to
unit roundoff u in any summation order, FMA included (Higham 2002, 3.1).
Pairs: one product per upper-triangle row block of CHUNK_BYTES is within
(gamma_d(u) + gamma_d(2^-53)) ||x_i|| ||x_j|| of the row dot.

Scan and fourth moment: one float32 pass over a float32 pool in row blocks of
SCREEN_BYTES screens a (q, d) block of queries, with |block| or block^2
written into one reused buffer. 512 KiB, a quarter of a 2 MiB per-core L2,
stays cached: on a 2-vCPU VM, 6 queries over a 10,000 x 3,072 pool took 88 ms
(122 ms at CHUNK_BYTES), fastest of 128 KiB-8 MiB. Below, u = 2^-24; an
underflowed float32 square or product is off by at most 2^-150 absolutely; +-0
changes no magnitude.
- Scan: s = x.q and a = |x|.|q|, for a query that float32 holds exactly.
  s is within gamma_d(u) |x|.|q| + d 2^-150 of the exact x.q, the float64
  score within gamma_d(2^-53) |x|.|q| of it, and
  a >= (1 - gamma_d(u)) |x|.|q| - d 2^-150. So |score| is within
  2 (gamma_d(u) + gamma_d(2^-53)) a / (1 - gamma_d(u)) + 2 d 2^-149 of |s|;
  the factor 2 covers the second-order terms and the rounding of the bound
  itself.
- Fourth moment: v = <x^2, s^2> - ||x||^2 ||s||^2 / d is two sums of
  nonnegative products, t1 = s^2.x^2 and t2 = s^2.1, taken in float32 and
  joined in float64 with the kernel's own float64 ||x||^2. Either path rounds
  each term at most d + 3 times, so v is within
  2 (gamma_{d+3}(u) + gamma_{d+3}(2^-53)) (t1 + ||x||^2 t2 / d)
  / (1 - gamma_{d+3}(u)) + 2 (d + ||x||^2 + t2) 2^-149 of the screened value.
  The last term bounds underflow: 2^-150 per square or product, times the
  other factor, which x^2 and s^2 sum.
A query whose float32 products are not all finite (overflow near float32's
maximum, or a non-finite input), a scan query that float32 does not hold
exactly and a pool that is not float32 are scored exactly, row by row; a
float64 screen would read and cast the pool as the exact kernel does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Dataset, Image, SignMask, float64_blocks, scan_scores
from .encrypt import EncryptedSamples, EncryptionKeys
from .errors import DimensionMismatchError, DivergenceError, ValidationError
from .rng import Draws, RngStream
from .utility import LinearSoftmaxModel, softmax_rows

TOP_SCORES = 50
SCREEN_BYTES = 1 << 19  # float32 bytes per screen block, L2-sized; moves no report byte

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
    dot, aa, bb = (np.einsum("i,i", x, y) for x, y in ((ac, bc), (ac, ac), (bc, bc)))
    denom = np.sqrt(aa) * np.sqrt(bb)
    if denom == 0.0:
        return 0.0
    return float(np.clip(dot / denom, -1.0, 1.0))


# ---------------------------------------------------------------------------
# thresholds


def noise_ceiling(query_norm: float, d: int, candidates: int, delta: float) -> float:
    """Union-bounded score magnitude for a candidate independent of the query:
    a centered inner product against a unit-norm candidate has standard
    deviation about query_norm/sqrt(d)."""
    if d < 1 or candidates < 1 or not 0.0 < delta < 1.0 or math.isinf(2 * candidates / delta):
        raise ValidationError("need d >= 1, candidates >= 1, delta in (0, 1) with "
                              "2*candidates/delta finite")
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


def _gamma(n: int, u):
    """gamma_n(u) = n u / (1 - n u): the relative error of n roundings to unit
    roundoff u (see the module docstring)."""
    return n * u / (1 - n * u)


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
    echo = {} if threshold is not None else {"delta": delta}  # delta sets only a default
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
    bound = 2 * (_gamma(d, u) + _gamma(d, 2.0**-53)) * norms.max() * norms + tiny
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
        # near pairs come row-major, so each row's partners are one slice
        heads, starts = np.unique(near[0], return_index=True)
        exact = np.concatenate([np.zeros(0)] + [
            np.abs(scan_scores(rows[lo + cols], rows[lo + i]))
            for i, cols in zip(heads, np.split(near[1], starts[1:]))])
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
        params={"threshold": threshold, **echo, "samples": m, "k": k},
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


def _query_block(xtilde, patches: np.ndarray, truth_members):
    """(q, d) queries, whether ``xtilde`` was one query (not a 2-D block),
    and q truth sets (None or frozensets of pool rows), all checked before
    any pass over the pool."""
    X = np.asarray(xtilde)
    if single := X.ndim != 2:
        X, truth_members = X.reshape(1, -1), [truth_members]
    if patches.ndim != 2 or patches.shape[1] != X.shape[1]:
        raise DimensionMismatchError(f"pool {patches.shape} does not fit queries of length "
                                     f"{X.shape[1]}")
    truths = [None] * len(X) if truth_members is None else [
        None if t is None else frozenset(int(v) for v in t) for t in truth_members]
    if len(truths) != len(X):
        raise ValidationError(f"{len(X)} queries need {len(X)} truth sets")
    n = len(patches)
    for truth in filter(None, truths):
        if not all(0 <= t < n for t in truth):
            raise ValidationError(f"truth members must be in [0, {n}), got {sorted(truth)}")
    return X, single, truths


def _screenable(patches: np.ndarray) -> bool:
    """Whether the float32 screen runs: a float32 pool, with d + 3 roundings
    well below 2^24."""
    return patches.dtype == np.float32 and patches.shape[1] < 1 << 22


def _screen(patches: np.ndarray, plain, fold, folded):
    """One float32 BLAS pass over a float32 pool in row blocks of SCREEN_BYTES:
    the (n, q) products block @ plain.T (none when ``plain`` is None) and
    fold(block) @ folded.T, each fold written into one reused block buffer."""
    n, d = patches.shape
    step = max(1, SCREEN_BYTES // (4 * d))
    buf = np.empty((min(step, n), d), np.float32)
    s = None if plain is None else np.empty((n, len(plain)), np.float32)
    t = np.empty((n, len(folded)), np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as a non-finite product
        for lo in range(0, n, step):
            blk, rows = patches[lo : lo + step], slice(lo, min(n, lo + step))
            if s is not None:
                np.matmul(blk, plain.T, out=s[rows])
            fold(blk, out=buf[: len(blk)])
            np.matmul(buf[: len(blk)], folded.T, out=t[rows])
    return s, t


def _screened_rank(kernel, patches, x, lo, hi, truth, cut=None, key=np.positive):
    """Rank the pool by key(kernel(rows, x)), descending with ties by index,
    from intervals [lo, hi] that hold every row's key: only the rows that can
    decide a top score, the ``cut`` or a member's rank are scored (the module
    docstring). Returns those rows (ascending), their scores and keys, their
    order, and the truth members' ranks, sorted."""
    n = lo.size

    def score(rows):
        return kernel(patches if rows.size == n else patches[rows], x)

    floor = -np.inf if n <= TOP_SCORES else np.partition(lo, n - TOP_SCORES)[n - TOP_SCORES]
    near = hi >= floor
    if cut is not None:
        near |= (lo < cut) & (cut <= hi)
    members = np.array(sorted(truth or ()), dtype=np.int64)
    if members.size:
        held = np.sort(key(score(members)))
        first = held[np.minimum(np.searchsorted(held, lo), held.size - 1)]  # least key >= lo
        near |= (lo <= first) & (first <= hi)
        near[members] = True
    rows = np.flatnonzero(near)
    raw = score(rows)
    keys = key(raw)
    order = np.lexsort((rows, -keys))
    place = np.empty(rows.size, np.int64)
    place[order] = np.arange(rows.size)
    far, mine = np.sort(lo[~near]), np.searchsorted(rows, members)
    ranks = 1 + far.size - np.searchsorted(far, keys[mine], "right") + place[mine]
    return rows, raw, keys, order, tuple(sorted(ranks.tolist()))


def public_scan_attack(
    xtilde,
    publicset,
    k: int,
    threshold: float | None = None,
    truth_members: set[int] | frozenset[int] | None = None,
    delta: float = DEFAULT_DELTA,
) -> AttackReport:
    """Score every public patch by inner product against the query in one
    O(N d) pass; candidates whose |score| reaches the threshold are flagged as
    suspected mix members. With ground truth the report adds member recall,
    precision, and the 1-based ranks of the true members under |score|
    ordering (ties by index).

    One query (an EncryptedSample, Image or 1-D row) with one truth set gives
    one report; a (q, d) block with q truth sets gives a list of q, the
    single-query reports bit for bit, from one screening pass over the pool
    (the module docstring)."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("public scan needs a non-empty patch set")
    Q, single, truths = _query_block(xtilde, patches, truth_members)
    n, d = patches.shape
    echo = {} if threshold is not None else {"delta": delta}  # delta sets only a default
    cuts = [threshold] * len(Q) if threshold is not None else [
        scan_threshold(float(v), d, k, n, delta)
        for v in np.sqrt(np.einsum("ij,ij->i", Q, Q, dtype=np.float64))]
    if any(math.isnan(c) for c in cuts):
        raise ValidationError("threshold must be a number, got nan")
    with np.errstate(over="ignore", invalid="ignore"):
        Q32 = Q.astype(np.float32)
    held = (Q == Q32).all(axis=1)  # the queries float32 holds exactly
    screened = np.zeros(len(Q), dtype=bool)
    if _screenable(patches) and held.any():
        s, a = _screen(patches, Q32, np.abs, np.abs(Q32))
        screened = np.isfinite(s).all(axis=0) & np.isfinite(a).all(axis=0) & held
        u = 2.0**-24
        c = 2 * (_gamma(d, u) + _gamma(d, 2.0**-53)) / (1 - _gamma(d, u))

    reports = []
    for t, (q, truth, cut) in enumerate(zip(Q, truths, cuts)):
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        if screened[t]:
            mag = np.abs(s[:, t], dtype=np.float64)
            r = c * a[:, t].astype(np.float64) + 2 * d * 2.0**-149
            lo, hi = np.maximum(mag - r, 0.0), mag + r
        rows, raw, mags, order, ranks = _screened_rank(scan_scores, patches, q, lo, hi, truth,
                                                       cut, np.abs)
        flags = lo >= cut  # unscored rows: their interval lies on one side of the cut
        flags[rows] = mags >= cut
        flagged = tuple(np.flatnonzero(flags).tolist())
        metrics: dict = {"flagged": float(len(flagged))}
        if truth is not None:
            hit = len(truth & set(flagged))
            metrics["recall"] = hit / len(truth) if truth else None
            metrics["precision"] = hit / len(flagged) if flagged else None
            metrics["mean_member_rank"] = float(np.mean(ranks)) if ranks else None
            metrics["max_member_rank"] = float(max(ranks)) if ranks else None
        reports.append(AttackReport(
            attack="public_scan",
            params={"threshold": float(cut), **echo, "k": k, "candidates": n},
            scores=tuple((int(rows[j]), float(raw[j])) for j in order[:TOP_SCORES]),
            decisions=flagged,
            metrics=metrics,
            ranks=None if truth is None else ranks,
        ))
    return reports[0] if single else reports


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
    """Rank all candidates by the fourth-moment statistic, descending (ties
    by index). Mask bits do not enter the statistic, so this runs on masked
    samples as-is; the signal is weak and shrinks as k grows.

    One query gives one report and a (q, d) block with q truth sets a list of
    q, as in public_scan_attack."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    if patches.size == 0:
        raise ValidationError("ranking needs a non-empty candidate set")
    X, single, truths = _query_block(xtilde, patches, truth_members)
    n, d = patches.shape
    x2 = np.square(X.astype(np.float64))
    totals = [np.sum(row) for row in x2]  # the kernel's ||x||^2, bit for bit
    screened = np.zeros(len(X), dtype=bool)
    if _screenable(patches):
        with np.errstate(over="ignore"):
            W = np.vstack([x2, np.ones(d)]).astype(np.float32)
        T = _screen(patches, None, np.square, W)[1]
        screened = np.isfinite(T[:, :-1]).all(axis=0) & np.isfinite(T[:, -1]).all()
        u = 2.0**-24
        c = 2 * (_gamma(d + 3, u) + _gamma(d + 3, 2.0**-53)) / (1 - _gamma(d + 3, u))

    reports = []
    for t, (x, truth, total) in enumerate(zip(X, truths, totals)):
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        if screened[t]:
            t1, t2 = T[:, t].astype(np.float64), T[:, -1].astype(np.float64)
            second = total * t2 / d
            r = c * (t1 + second) + 2 * (d + total + t2) * 2.0**-149
            lo, hi = t1 - second - r, t1 - second + r
        rows, v, _, order, ranks = _screened_rank(_fourth_moment_scores, patches, x, lo, hi,
                                                  truth)
        metrics: dict = {}
        if truth is not None:
            non_ranks = np.delete(np.arange(1, n + 1), np.array(ranks, dtype=np.int64) - 1)
            metrics["median_member_rank"] = float(np.median(ranks)) if ranks else None
            metrics["median_nonmember_rank"] = (float(np.median(non_ranks)) if non_ranks.size
                                                else None)
        reports.append(AttackReport(
            attack="braverman",
            params={"candidates": n},
            scores=tuple((int(rows[j]), float(v[j])) for j in order[:TOP_SCORES]),
            decisions=tuple(int(rows[j]) for j in order[:TOP_SCORES]),
            metrics=metrics,
            ranks=None if truth is None else ranks,
        ))
    return reports[0] if single else reports


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

    def demask(self, X, signs: np.ndarray, tags) -> np.ndarray:
        """Float32 (q, d) rows X times recovered_masks(signs, tags), in one
        multiply; non-finite rows and mismatched or non-sign masks are refused."""
        X, signs = np.asarray(X, np.float32), np.asarray(signs)
        if X.shape != signs.shape:
            raise DimensionMismatchError(f"masks {signs.shape} do not fit pixels {X.shape}")
        if not (core._all_finite(X) and (np.abs(signs) == 1).all()):
            raise ValidationError("pixels must be finite and mask entries +1 or -1")
        return X * self.recovered_masks(signs.astype(np.int8, copy=False), tags)


def demask_with_oracle(xtilde, truth_mask: SignMask, oracle: SignOracle, tag=0) -> Image:
    """Undo a sign mask as well as the oracle can: applies the oracle's mask
    estimate, leaving a p-fraction of coordinates still sign-flipped."""
    px = oracle.demask(np.asarray(xtilde).reshape(1, -1), truth_mask.signs[None], [tag])[0]
    return Image(px, getattr(xtilde, "dims", (1, 1, px.size)))


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


def _blocks(rows: np.ndarray, dims, ey: np.ndarray, ex: np.ndarray, buf: np.ndarray):
    """(n, d) rows -> float64 (C, by, bx, n, block pixels), gathered and cast
    exactly into the front of the flat ``buf``: every block zero-padded to the
    longest block on each axis (zeros add nothing to the sums over a block)."""
    c, h, w = dims
    img = rows.reshape(len(rows), c, h, w).transpose(1, 0, 2, 3)
    shape = (c, ey.size - 1, ex.size - 1, len(rows), *(int(np.diff(e).max()) for e in (ey, ex)))
    out = buf[: math.prod(shape)].reshape(shape)
    if out.size > rows.size:  # some block is short: its padding holds another chunk's pixels
        out.fill(0.0)
    for b, (y0, y1) in enumerate(zip(ey[:-1], ey[1:])):
        for a, (x0, x1) in enumerate(zip(ex[:-1], ex[1:])):
            np.copyto(out[:, b, a, :, : y1 - y0, : x1 - x0], img[:, :, y0:y1, x0:x1])
    return out.reshape(shape[:4] + (shape[4] * shape[5],))


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
    dynamic_range: float | np.ndarray | None = None,
) -> np.ndarray:
    """(na, nb) matrix of mean local structural similarity over 8x8 windows
    with stride 4 (window statistics are population moments).

    The dynamic range, positive and finite, is a scalar or one value per row
    of ``a_rows`` (c1 and c2 per row). It defaults to the joint peak-to-peak
    of the non-empty batches, falling back to 1.0 when everything is constant
    or empty. Both axes are cut into blocks at the window edges, so a window's
    moments and cross term are sums over its blocks (cross terms: one batched
    matmul per pair of row blocks of CHUNK_BYTES, each side gathered and cast
    into one reused float64 buffer); the formula runs one window at a time.
    The matmul sums in the order BLAS picks for the block and the BLAS thread
    count, so either can move a score in the last ulp."""
    A = np.atleast_2d(np.asarray(a_rows))
    B = np.atleast_2d(np.asarray(b_rows))
    c, h, w = core._dims(dims)
    d = c * h * w
    if A.shape[1] != d or B.shape[1] != d:
        raise ValidationError(f"rows must have length {d}")
    if dynamic_range is None:  # empty batches give lo = inf, hi = -inf
        lo = min(float(A.min(initial=np.inf)), float(B.min(initial=np.inf)))
        hi = max(float(A.max(initial=-np.inf)), float(B.max(initial=-np.inf)))
        dynamic_range = hi - lo if hi > lo else 1.0
    r = np.asarray(dynamic_range, np.float64)
    if r.shape not in ((), (len(A),)) or not (np.isfinite(r) & (r > 0.0)).all():
        raise ValidationError(f"dynamic range must be positive and finite, got {dynamic_range}")
    # Python's float power, as a scalar range always had: numpy's square can differ by an ulp
    c1, c2 = (np.array([(k * v) ** 2 for v in np.broadcast_to(r, len(A)).tolist()])
              for k in (SSIM_K1, SSIM_K2))

    (ey, ry), (ex, rx) = _axis_blocks(h), _axis_blocks(w)
    npix = min(SSIM_WINDOW, h) * min(SSIM_WINDOW, w)
    blocks = c * (ey.size - 1) * (ex.size - 1)
    per_row = blocks * int(np.diff(ey).max() * np.diff(ex).max())  # padded float64s
    step_a = max(1, core.CHUNK_BYTES // (8 * d))
    buf_a, buf_b = (np.empty(min(step_a, len(M)) * per_row) for M in (A, B))  # b's step <= a's
    out = np.empty((A.shape[0], B.shape[0]))
    for rows_a in (slice(lo, lo + step_a) for lo in range(0, len(A), step_a)):
        a = _blocks(A[rows_a], dims, ey, ex, buf_a)
        mu_a, var_a = _window_moments(a, ry, rx, npix)
        # SSIM = (2 mu_a mu_b + c1)(2 cov + c2) / ((pa + mu_b^2)(va + var_b))
        c1a, c2a = c1[rows_a], c2[rows_a]
        mu2_a, pa, va = 2.0 * mu_a, mu_a * mu_a + c1a, var_a + c2a
        # b's chunk also bounds the (blocks, rows of a, rows of b) cross terms
        step = max(1, core.CHUNK_BYTES // max(8 * d, 8 * blocks * a.shape[3]))
        for rows_b in (slice(lo, lo + step) for lo in range(0, len(B), step)):
            b = _blocks(B[rows_b], dims, ey, ex, buf_b)
            mu_b, var_b = _window_moments(b, ry, rx, npix)
            pb = mu_b * mu_b
            # per window, the sum of a*b over its pixels: (windows, na, nb)
            sab = _window_sums(np.matmul(a, b.swapaxes(-1, -2)), ry, rx)
            acc = np.zeros((a.shape[3], b.shape[3]))
            for wi, s in enumerate(sab):
                m2 = np.multiply.outer(mu2_a[wi], mu_b[wi])  # 2 mu_a mu_b
                s *= 2.0 / npix
                s -= m2
                s += c2a[:, None]  # 2 cov + c2
                m2 += c1a[:, None]
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


def similarity_search_attack(xtilde, publicset, oracle: SignOracle, truth_mask, m: int,
                             truth_sources=None, truth_patches=None, tag=0):
    """Demask through the oracle, rank the public patches by SSIM, and report
    whether any true mixing source shows up in the top m. Truth is patch
    indices or, for a PatchSet, source image ids (provenance column 0, read
    only then; robust to the attacker cropping differently than the encryptor).

    One query (EncryptedSample, Image or 1-D row) with a SignMask, an int tag
    and truth sets gives one report; a (q, d) block (EncryptedSamples or an
    array) with (q, d) signs, q tags and q sets per truth gives a list of q.
    The block is demasked in one multiply and ranked in one ssim_pairwise
    call, query t at its own default range (its row joined with the pool, in
    float64). A block of one has a one-query call's bits under the same BLAS
    thread count; in a larger block, or under another thread count, the cross
    term's matmul sums in another order, so a score can move in the last ulp."""
    patches = np.asarray(publicset)  # a Dataset or PatchSet gives its matrix
    n = patches.shape[0]
    if not 0 <= m <= n:
        raise ValidationError(f"m must be in [0, {n}], got {m}")
    X = np.asarray(xtilde)
    if single := X.ndim != 2:
        X, truth_mask, tag = X.reshape(1, -1), truth_mask.signs[None], [tag]
        truth_sources, truth_patches = [truth_sources], [truth_patches]
    q = len(X)
    sources, members = ([v] * q if v is None else list(v) for v in (truth_sources, truth_patches))
    if np.shape(tag) != (q,) or len(sources) != q or len(members) != q:
        raise ValidationError(f"{q} queries need {q} tags and {q} sets per truth")
    if any(s is not None for s in sources):
        if not hasattr(publicset, "provenance"):
            raise ValidationError("source-id truth needs a patch set with provenance")
        ids = publicset.provenance[:, 0]
    estimate = oracle.demask(X, truth_mask, tag)
    # SSIM windows need the image geometry: a raw query takes the candidates'
    dims = getattr(xtilde, "dims", None) or getattr(publicset, "dims", None) or (1, 1, X.shape[1])
    lo = np.minimum(estimate.min(axis=1), patches.min(initial=np.inf), dtype=np.float64)
    hi = np.maximum(estimate.max(axis=1), patches.max(initial=-np.inf), dtype=np.float64)
    sims = ssim_pairwise(estimate, patches, dims, np.where(hi > lo, hi - lo, 1.0))
    order = np.argsort(-sims, axis=1, kind="stable")  # by (-score, index)

    reports = []
    for t, top in enumerate(order[:, :m]):
        hit = set(top.tolist()) & set(map(int, members[t] or ()))
        if sources[t] is not None:
            hit |= set(ids[top].tolist()) & set(map(int, sources[t]))
        reports.append(AttackReport(
            attack="similarity_search",
            params={"m": m, "oracle_p": oracle.p, "candidates": n},
            scores=tuple((int(i), float(sims[t, i])) for i in order[t, :TOP_SCORES]),
            decisions=tuple(top.tolist()),
            metrics={} if sources[t] is None and members[t] is None else {"hit": float(bool(hit))},
        ))
    return reports[0] if single else reports


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
    demasked = oracle.demask(pixels, truth, history.ids[rows])

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
    objective or an x beyond float32 aborts with the trajectory attached."""
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

    trajectory, step = [], 0
    while True:  # the pass after the last step scores the final (x, y)
        final, grad_x, grad_y = _matching_objective(model, x, y, gW, gb)
        if not (np.isfinite(final) and np.abs(x).max() <= np.finfo(np.float32).max):
            raise DivergenceError(f"matching descent diverged at step {step}: objective "
                                  f"{final:.3g}, max |x| {np.abs(x).max():.3g}",
                                  trajectory=(*trajectory, final))
        if step == steps:
            break
        trajectory.append(final)
        if final <= 1e-16:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # the next pass reports a divergence
            x, y = x - lr * grad_x, y - lr * grad_y
        step += 1

    recovered = Image(x.astype(np.float32), getattr(victim, "dims", (1, 1, model.d)))
    metrics: dict = {"final_objective": final, "steps_run": float(step)}
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
