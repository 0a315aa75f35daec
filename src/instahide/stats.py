"""Statistical validators: Kolmogorov-Smirnov p-values (a sample against the
uniform distribution on [0, 1], one point against a pooled sample), the
encryption-indistinguishability protocol, and Monte Carlo checks of the
concentration bounds behind the mixing schemes' security analysis. Those
checks draw Gaussian pixels of variance 1/d (the chi-square tail has df = d).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import Dataset
from .encrypt import _TILE_BYTES, SchemeConfig, _encrypt_rows, _sources
from .errors import ValidationError
from .ihds import output
from .rng import RngStream

# Kolmogorov survival series: 100 terms are ample for lambda >= 0.05; below
# that the truncation misbehaves while the true mass is essentially 1.
KS_SERIES_TERMS = 100
KS_LAMBDA_FLOOR = 0.05

PROTOCOL_PICKS = 10
PROTOCOL_ENCRYPTIONS = 400
PROTOCOL_PROBES = 50
_PROBE_COUNT = 4  # pixel locations whose values are statistics (loc1..loc4)


def kolmogorov_survival(lam):
    """Survival function of the Kolmogorov distribution,
    Q(lam) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), truncated at
    KS_SERIES_TERMS. Returns 1.0 below KS_LAMBDA_FLOOR (includes lam = 0).
    A float gives a float; an array gives an array of its shape, each entry
    summed as a float would be, in row runs whose series fit 1 MiB."""
    v = np.asarray(lam, dtype=np.float64)
    bad = v[~(np.isfinite(v) & (v >= 0.0))]
    if bad.size:
        raise ValidationError(f"lambda must be finite and >= 0, got {bad[0]}")
    j, flat, out = np.arange(1.0, KS_SERIES_TERMS + 1), v.reshape(-1), np.ones(v.size)
    rows, step = np.flatnonzero(flat >= KS_LAMBDA_FLOOR), (1 << 20) // (8 * KS_SERIES_TERMS)
    for r in np.split(rows, range(step, rows.size, step)):
        terms = np.exp(-2.0 * j * j * flat[r, None] * flat[r, None])
        total = 2.0 * (terms * np.where(j % 2 == 1, 1.0, -1.0)).sum(axis=1)
        out[r] = np.where(total > 0.0, np.minimum(total, 1.0), 0.0)
    return float(out[0]) if v.ndim == 0 else out.reshape(v.shape)


def ks_uniform(values) -> tuple[float, float]:
    """One-sample KS against the uniform distribution on [0, 1]."""
    u = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    if u.size == 0:
        raise ValidationError("sample must be non-empty")
    if u[0] < 0.0 or u[-1] > 1.0:
        raise ValidationError("values fall outside [0, 1]")
    n = u.size
    grid = np.arange(n, dtype=np.float64)
    stat = float(max(np.max((grid + 1.0) / n - u), np.max(u - grid / n)))
    return stat, kolmogorov_survival(math.sqrt(n) * stat)


def _singleton_pvalues(values: np.ndarray, pool_sorted: np.ndarray) -> np.ndarray:
    """Two-sample KS p-value of the one-point sample {v} against the sorted
    pool, for each v in values: the statistic is the sup CDF distance and
    the effective size n_e = n2 / (1 + n2)."""
    n2 = pool_sorted.size
    hi = np.searchsorted(pool_sorted, values, side="right") / n2
    lo = np.searchsorted(pool_sorted, values, side="left") / n2
    stats = np.maximum(lo, 1.0 - hi)
    return kolmogorov_survival(math.sqrt(n2 / (1.0 + n2)) * stats)


# ---------------------------------------------------------------------------
# per-encryption statistics


def statistic_labels(probe_count: int) -> tuple[str, ...]:
    return ("mean", "std", "tv") + tuple(f"loc{i + 1}" for i in range(probe_count))


def statistic_matrix(
    matrix: np.ndarray, dims: tuple[int, int, int], probes: tuple[int, ...]
) -> np.ndarray:
    """(n, 3 + len(probes)) float64 rows of mean, std, anisotropic total
    variation (absolute vertical plus horizontal neighbor differences, per
    channel) and probe pixels. Rows are cast in blocks whose float64 buffers
    fit _TILE_BYTES; one mean serves both columns, reduced as np.mean and
    np.std reduce, so no block size changes a bit."""
    m = np.atleast_2d(matrix)
    c, h, w = dims
    d = c * h * w
    if m.shape[1] != d:
        raise ValidationError(f"row length {m.shape[1]} != prod(dims) {d}")
    probes = [int(p) for p in probes]
    if any(p < 0 or p >= d for p in probes):
        raise ValidationError(f"probe locations out of range [0, {d})")
    n, step = len(m), max(1, _TILE_BYTES // (8 * d))
    out, (buf, work) = np.empty((n, 3 + len(probes))), np.empty((2, min(step, n), d))
    for lo in range(0, n, step):
        x, t, cols = buf[: n - lo], work[: n - lo], out[lo : lo + step]
        np.copyto(x, m[lo : lo + step])
        mean = np.add.reduce(x, axis=1, keepdims=True) / d
        dev = np.subtract(x, mean, out=t)
        cols[:, 0] = mean[:, 0]
        cols[:, 1] = np.sqrt(np.add.reduce(np.multiply(dev, dev, out=dev), axis=1) / d)
        img = x.reshape(len(x), c, h, w)
        cols[:, 2] = 0.0
        for a, b in ((img[:, :, 1:], img[:, :, :-1]), (img[..., 1:], img[..., :-1])):
            diff = np.subtract(a, b, out=t.reshape(-1)[: a.size].reshape(a.shape))
            cols[:, 2] += np.abs(diff, out=diff).sum(axis=(1, 2, 3))
        cols[:, 3:] = x[:, probes]
    return out


def default_probe_locations(d: int, rng: RngStream, count: int = 4) -> tuple[int, ...]:
    """``count`` distinct pixel indices drawn uniformly, sorted."""
    if count > d:
        raise ValidationError(f"cannot place {count} probes in {d} pixels")
    picks = rng.generator().choice(d, size=count, replace=False)
    return tuple(int(v) for v in np.sort(picks))


# ---------------------------------------------------------------------------
# indistinguishability protocol


@dataclass
class IndistinguishabilityReport:
    """Averaged p-values per (image, statistic), for the probe-vs-all-pool and
    probe-vs-other-images-pool variants."""

    image_indices: tuple[int, ...]
    probe_locations: tuple[int, ...]
    labels: tuple[str, ...]
    p_all: np.ndarray
    p_other: np.ndarray

    def min_p(self) -> float:
        return float(min(self.p_all.min(), self.p_other.min()))

    def max_pair_delta(self) -> float:
        """Largest |All - Other| over all cells."""
        return float(np.max(np.abs(self.p_all - self.p_other)))

    def to_csv(self, path) -> None:
        """One row per image; per statistic a paired All/Other column."""
        with output(path, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image", *(f"{n}_{v}" for n in self.labels for v in ("all", "other"))])
            for r, idx in enumerate(self.image_indices):
                cells = np.stack([self.p_all[r], self.p_other[r]], axis=1).ravel()
                writer.writerow([f"x{idx}", *(f"{p:.6f}" for p in cells)])


def indistinguishability_protocol(
    private: Dataset,
    cfg: SchemeConfig,
    rng: RngStream,
    picks: int = PROTOCOL_PICKS,
    encryptions_per_image: int = PROTOCOL_ENCRYPTIONS,
    probe_encryptions: int = PROTOCOL_PROBES,
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
    if not 1 <= probe_encryptions <= encryptions_per_image:
        raise ValidationError(f"probe encryptions must be in [1, {encryptions_per_image}] "
                              f"(the encryptions per image), got {probe_encryptions}")
    if picks < 2:
        raise ValidationError("need at least 2 images to form an Other pool")

    chosen = rng.child("picks").generator().choice(private.n, size=picks, replace=False)
    probes = default_probe_locations(private.d, rng.child("probes"), _PROBE_COUNT)
    labels = statistic_labels(_PROBE_COUNT)

    n_stats = len(labels)
    stats = np.empty((picks, encryptions_per_image, n_stats))
    S = _sources(private, cfg, publicset)
    for r, idx in enumerate(chosen):
        # 100 encryptions at a time bounds the float32 pixels; the statistics are
        # per row, so neither this size nor statistic_matrix's blocks change them
        for lo in range(0, encryptions_per_image, 100):
            js = range(lo, min(lo + 100, encryptions_per_image))
            streams = rng.children("enc", r, ids=js)
            pixels = _encrypt_rows(S, None, cfg, [idx] * len(js), streams).pixels
            stats[r, js] = statistic_matrix(pixels, private.dims, probes)

    p_all = np.empty((picks, n_stats))
    p_other = np.empty((picks, n_stats))
    owners = np.repeat(np.arange(picks), encryptions_per_image)
    for s, col in enumerate(stats.reshape(-1, n_stats).T):
        order = np.argsort(col, kind="stable")
        pool_all, owner = col[order], owners[order]
        for r in range(picks):
            others = pool_all[owner != r]  # sorted: the pool without image r's rows
            probe_vals = stats[r, :probe_encryptions, s]
            p_all[r, s] = _singleton_pvalues(probe_vals, pool_all).mean()
            p_other[r, s] = _singleton_pvalues(probe_vals, others).mean()

    return IndistinguishabilityReport(
        tuple(int(v) for v in chosen), probes, labels, p_all, p_other
    )


# ---------------------------------------------------------------------------
# concentration checks


@dataclass(frozen=True)
class ConcentrationCheckConfig:
    """Common knobs for the Monte Carlo validators, whose Gaussian pixels
    have variance 1/d (``pixel_variance``)."""

    d: int = 3072
    n: int = 1000
    k: int = 4
    delta: float = 0.01
    trials: int = 1000
    beta: float = 2.0

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.k < 1:
            raise ValidationError("d, n, k must be positive")
        # n*d/delta must be a finite float (an int-float comparison is exact)
        if not 0.0 < self.delta < 1.0 or self.n * self.d > self.delta * sys.float_info.max:
            raise ValidationError("delta must be in (0, 1) with n*d/delta finite, "
                                  f"got {self.delta}")
        if self.trials < 100:
            raise ValidationError(f"trials must be >= 100, got {self.trials}")
        if not 1.0 < self.beta < math.inf:
            raise ValidationError(f"beta must be finite and exceed 1, got {self.beta}")

    @property
    def pixel_variance(self) -> float:
        return 1.0 / self.d


def _three_sigma_ok(rate: float, bound: float, trials: int) -> bool:
    # sampling slack: 3 binomial standard errors at the bound itself
    se = math.sqrt(max(bound * (1.0 - bound), 1e-300) / trials)
    return rate <= bound + 3.0 * se


def check_chi_square_tail(
    cfg: ConcentrationCheckConfig,
    rng: RngStream,
    t_values: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> dict:
    """Squared norms of Gaussian vectors concentrate: with X = ||g||^2 for
    g ~ N(0, s2 I_df), df = d and s2 = 1/d,

        Pr[X - df*s2 >= (2*sqrt(df*t) + 2t)*s2] <= exp(-t)
        Pr[df*s2 - X >= 2*sqrt(df*t)*s2]        <= exp(-t)

    Both tails are measured empirically and must sit within 3 standard errors
    of their bound.
    """
    df, s2 = cfg.d, cfg.pixel_variance
    gen = rng.generator()
    sums = np.empty(cfg.trials)
    chunk = max(1, 16_000_000 // df)
    for lo in range(0, cfg.trials, chunk):
        block = gen.standard_normal((min(chunk, cfg.trials - lo), df))
        sums[lo : lo + block.shape[0]] = np.einsum("ij,ij->i", block, block) * s2

    tails = []
    all_ok = True
    for t in t_values:
        t = float(t)
        bound = math.exp(-t)
        hi_thr = (2.0 * math.sqrt(df * t) + 2.0 * t) * s2
        lo_thr = 2.0 * math.sqrt(df * t) * s2
        hi_rate = float(np.mean(sums - df * s2 >= hi_thr))
        lo_rate = float(np.mean(df * s2 - sums >= lo_thr))
        hi_ok = _three_sigma_ok(hi_rate, bound, cfg.trials)
        lo_ok = _three_sigma_ok(lo_rate, bound, cfg.trials)
        all_ok &= hi_ok and lo_ok
        tails.append(
            {
                "t": t,
                "bound": bound,
                "upper_rate": hi_rate,
                "upper_ok": hi_ok,
                "lower_rate": lo_rate,
                "lower_ok": lo_ok,
            }
        )
    return {
        "check": "chi_square_tail",
        "df": df,
        "sigma2": s2,
        "trials": cfg.trials,
        "tails": tails,
        "passes": bool(all_ok),
    }


def check_inner_product_concentration(
    cfg: ConcentrationCheckConfig,
    rng: RngStream,
) -> dict:
    """|<u, e>| for independent Gaussian vectors with per-pixel scales
    s1 = s2 = sqrt(1/d) stays below 1e4 * s1 * s2 * sqrt(d) * log^2(d/delta)
    except with probability delta.

    The 1e4 constant is deliberately loose, so besides the pass/fail the
    report carries the measured constant: the empirical (1-delta)-quantile
    divided by s1 * s2 * sqrt(d) * log^2(d/delta).
    """
    s1 = s2 = math.sqrt(cfg.pixel_variance)
    gen = rng.generator()
    ips = np.empty(cfg.trials)
    chunk = max(1, 8_000_000 // cfg.d)
    for lo in range(0, cfg.trials, chunk):
        b = min(chunk, cfg.trials - lo)
        u = gen.standard_normal((b, cfg.d)) * s1
        e = gen.standard_normal((b, cfg.d)) * s2
        ips[lo : lo + b] = np.einsum("ij,ij->i", u, e)
    scale = s1 * s2 * math.sqrt(cfg.d) * math.log(cfg.d / cfg.delta) ** 2
    bound = 1e4 * scale
    abs_ips = np.abs(ips)
    quantile = float(np.quantile(abs_ips, 1.0 - cfg.delta))
    violation_rate = float(np.mean(abs_ips >= bound))  # bound > 0: d / delta > 1
    return {
        "check": "inner_product_concentration",
        "params": {"d": cfg.d, "delta": cfg.delta, "trials": cfg.trials,
                   "sigma2": cfg.pixel_variance},
        "sigma1": s1,
        "sigma2": s2,
        "bound": bound,
        "quantile": quantile,
        "measured_constant": quantile / scale,
        "violation_rate": violation_rate,
        "violation_ok": _three_sigma_ok(violation_rate, cfg.delta, cfg.trials),
        "passes": bool(quantile <= bound),
    }


def check_bernstein_tail(
    cfg: ConcentrationCheckConfig,
    rng: RngStream,
    t_multipliers: tuple[float, ...] = (1.0, 2.0, 3.0),
) -> dict:
    """Sums of independent bounded zero-mean variables obey

        Pr[sum X_i > t] <= exp(-(t^2/2) / (sum E[X_i^2] + M*t/3)),

    checked with 256 terms X_i uniform on [-M, M], M = 1, at
    t = multiplier * std(sum).
    """
    terms, magnitude = 256, 1.0
    gen = rng.generator()
    sums = np.empty(cfg.trials)
    chunk = 2_000_000 // terms  # consecutive draws continue one stream
    for lo in range(0, cfg.trials, chunk):
        b = min(chunk, cfg.trials - lo)
        sums[lo : lo + b] = gen.uniform(-magnitude, magnitude, size=(b, terms)).sum(axis=1)
    var_sum = terms * magnitude**2 / 3.0
    rows = []
    all_ok = True
    for mult in t_multipliers:
        t = float(mult) * math.sqrt(var_sum)
        bound = math.exp(-(t * t / 2.0) / (var_sum + magnitude * t / 3.0))
        rate = float(np.mean(sums > t))
        ok = _three_sigma_ok(rate, bound, cfg.trials)
        all_ok &= ok
        rows.append({"t": t, "bound": bound, "rate": rate, "ok": ok})
    return {
        "check": "bernstein_tail",
        "terms": terms,
        "magnitude": magnitude,
        "trials": cfg.trials,
        "tails": rows,
        "passes": bool(all_ok),
    }


GAP_KINDS = ("pair", "scan")

# empirical pass rule: the gap must hold in at least a 1 - delta - 0.03
# fraction of trials (0.03 absorbs Monte Carlo noise)
GAP_SLACK = 0.03


def check_theorem_gap(
    cfg: ConcentrationCheckConfig,
    which: str,
    rng: RngStream,
    exact_conditional_nonmembers: bool = True,
) -> dict:
    """Monte Carlo check of the separation that powers the inner-product
    attacks on unmasked mixes of Gaussian images.

    ``pair``: two 2-mixes sharing a source vs two sharing none; the gap holds
    when |<x3+x1, x3+x2>| >= beta * |<x3+x1, x2+x2'>|. Valid regime:
    (2*beta)^-1 * sqrt(d) * log^2(n*d/delta) >= 4.

    ``scan``: a k-mix (unit coefficients) against its own members and n-k
    outsiders; the gap holds when min_member |<xt, x_t>| >= beta *
    max_outsider |<xt, x_t'>|. Valid regime: k <= (2*beta)^-1 * sqrt(d) *
    log^2(n*d/delta).

    With ``exact_conditional_nonmembers`` the outsider scores are drawn from
    their exact conditional law given the mix -- N(0, sigma^2 * ||xt||^2),
    i.i.d. -- instead of materializing n-k full vectors; the joint
    distribution of the statistics is identical and large n becomes cheap.
    Outside a valid regime the report carries ``precondition_ok = False`` and
    ``passes = None``.
    """
    if which not in GAP_KINDS:
        raise ValidationError(f"which must be one of {GAP_KINDS}, got {which!r}")
    d, n, k = cfg.d, cfg.n, cfg.k
    beta, delta, trials = cfg.beta, cfg.delta, cfg.trials
    sigma = math.sqrt(cfg.pixel_variance)
    log_term = math.log(n * d / delta) ** 2
    gen = rng.generator()

    gap_ok = np.zeros(trials, dtype=bool)
    if which == "pair":
        precondition_ok = math.sqrt(d) * log_term / (2.0 * beta) >= 4.0
        worst_disjoint = 0.0
        chunk = max(1, 2_000_000 // d)
        done = 0
        while done < trials:
            b = min(chunk, trials - done)
            v = gen.standard_normal((b, 4, d)) * sigma
            probe = v[:, 3] + v[:, 0]
            shared = np.abs(np.einsum("bd,bd->b", probe, v[:, 3] + v[:, 1]))
            disjoint = np.abs(np.einsum("bd,bd->b", probe, v[:, 1] + v[:, 2]))
            gap_ok[done : done + b] = shared >= beta * disjoint
            worst_disjoint = max(worst_disjoint, float(disjoint.max()))
            done += b
        implied = worst_disjoint / (4.0 * sigma**2 * math.sqrt(d) * log_term)
    else:
        if k >= n:
            raise ValidationError(f"scan needs k < n, got k={k}, n={n}")
        precondition_ok = k <= math.sqrt(d) * log_term / (2.0 * beta)
        worst_outsider = 0.0
        chunk = max(1, 2_000_000 // (k * d))
        done = 0
        while done < trials:
            b = min(chunk, trials - done)
            members = gen.standard_normal((b, k, d)) * sigma
            xt = members.sum(axis=1)
            member_scores = np.abs(np.einsum("bkd,bd->bk", members, xt))
            if exact_conditional_nonmembers:
                norms = np.linalg.norm(xt, axis=1)
                outsider = np.abs(
                    gen.standard_normal((b, n - k)) * (sigma * norms[:, None])
                )
            else:
                outsider = np.empty((b, n - k))
                for row in range(b):
                    pool = gen.standard_normal((n - k, d)) * sigma
                    outsider[row] = np.abs(pool @ xt[row])
            with np.errstate(over="ignore"):  # a product overflowing to inf fails the gap
                gap_ok[done : done + b] = member_scores.min(axis=1) >= beta * outsider.max(axis=1)
            worst_outsider = max(worst_outsider, float(outsider.max()))
            done += b
        implied = worst_outsider / (k * sigma**2 * math.sqrt(d) * log_term)

    fraction = float(np.mean(gap_ok))
    threshold = 1.0 - delta - GAP_SLACK
    params = {**asdict(cfg), "sigma2": cfg.pixel_variance}
    if which == "pair":  # its mixes are 2-mixes whatever k is
        del params["k"]
    return {
        "check": "theorem_gap",
        "which": which,
        "params": params,
        "precondition_ok": bool(precondition_ok),
        "pass_fraction": fraction,
        "pass_threshold": threshold,
        "implied_constant": implied,
        "passes": bool(fraction >= threshold) if precondition_ok else None,
    }
