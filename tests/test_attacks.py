import ast
import math
from pathlib import Path

import numpy as np
import pytest

import reference_scoring as ref
from instahide import attacks
from instahide.attacks import (
    AttackReport,
    SignOracle,
    averaging_attack,
    braverman_attack,
    braverman_statistic,
    correlation,
    demask_with_oracle,
    gradient_matching_attack,
    noise_ceiling,
    pair_detection_attack,
    pair_threshold,
    public_scan_attack,
    scan_threshold,
    similarity_search_attack,
    ssim,
    ssim_pairwise,
)
from instahide.core import (
    Coefficients,
    Dataset,
    Image,
    make_gaussian_dataset,
    one_hot,
    sample_sign_mask,
)
from instahide.encrypt import (
    SchemeConfig,
    apply_mask,
    encrypt_epoch,
    encrypt_history,
    encrypt_sample,
)
from instahide.errors import DimensionMismatchError, DivergenceError, ValidationError
from instahide.publicprep import PatchSet, build_patchset
from instahide.rng import RngStream
from instahide.utility import init_model, loss_and_gradient


def unit_rows(n: int, d: int, seed: int) -> np.ndarray:
    X = RngStream(seed).generator().normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# thresholds and scores


def test_noise_ceiling_formula():
    # qn * sqrt(2 ln(2N/delta) / d), checked against a hand evaluation
    got = noise_ceiling(2.0, 100, 1000, 0.01)
    assert got == pytest.approx(2.0 * math.sqrt(2.0 * math.log(200000.0) / 100.0))
    with pytest.raises(ValidationError):
        noise_ceiling(1.0, 0, 10, 0.01)
    with pytest.raises(ValidationError):
        noise_ceiling(1.0, 10, 10, 1.5)


def test_scan_threshold_is_geometric_midpoint():
    qn, d, k, n, delta = 1.7, 512, 4, 200, 0.01
    ceiling = noise_ceiling(qn, d, n, delta)
    assert scan_threshold(qn, d, k, n, delta) == pytest.approx(
        math.sqrt(qn * qn / k * ceiling)
    )


def test_pair_threshold_is_geometric_midpoint():
    d, k, pairs, delta = 3072, 2, 1225, 0.01
    assert pair_threshold(d, k, pairs, delta) == pytest.approx(
        math.sqrt(0.25 * noise_ceiling(1.0, d, pairs, delta))
    )


def test_correlation_basics():
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert correlation(x, x) == pytest.approx(1.0)
    assert correlation(x, -x) == pytest.approx(-1.0)
    assert correlation(x, np.full(4, 7.0)) == 0.0
    with pytest.raises(ValidationError):
        correlation(x, np.zeros(5))


# every BLAS product in attacks.py, by the top-level function that takes it:
# (count, what it is); a new product must be named here
BLAS_USES = {
    "pair_detection_attack": (2, "the block product is a proven filter; the truth "
                                 "incidence product counts shared sources, exact in float32"),
    "_screen": (2, "the scan and fourth-moment screens: a proven filter"),
    "ssim_pairwise": (1, "open fault: SSIM's cross term reports BLAS bits"),
    "_matching_objective": (6, "open fault: gradient matching reports BLAS bits"),
}


def test_attacks_take_no_blas_norm_or_dot():
    # a number that reaches a report is an einsum row dot, whose bits do not
    # depend on the BLAS thread count; BLAS only filters, except in the named faults
    tree = ast.parse(Path(attacks.__file__).read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"norm", "dot", "vdot"}
    products = {}
    for fn in tree.body:
        for node in ast.walk(fn):
            name = getattr(node, "func", None)
            name = getattr(name, "attr", getattr(name, "id", None))
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and name in ("matmul", "tensordot")):
                products[fn.name] = products.get(fn.name, 0) + 1
    assert products == {fn: count for fn, (count, _) in BLAS_USES.items()}


def test_pair_share_score_matches_inner_product():
    a = Image(np.array([1.0, 2.0], np.float32), (1, 1, 2))
    b = Image(np.array([3.0, -1.0], np.float32), (1, 1, 2))
    assert pair_detection_attack([a, b]).scores == ((1, 1.0),)  # pair id 0 * 2 + 1


# ---------------------------------------------------------------------------
# pair detection


def mixup_history(seed: int, n: int = 50, epochs: int = 20, d: int = 3072):
    ds = make_gaussian_dataset(n, (3, 32, d // (3 * 32)), RngStream(seed), classes=10)
    cfg = SchemeConfig("mixup", k=2, c1=0.65)
    return encrypt_history(ds, cfg, epochs, RngStream(seed + 1))


def test_pair_detection_rejects_empty():
    with pytest.raises(ValidationError):
        pair_detection_attack([])


def test_pair_detection_single_sample_detects_nothing():
    img = Image(unit_rows(1, 64, 0)[0].astype(np.float32), (1, 8, 8))
    report = pair_detection_attack([img])
    assert report.decisions == ()
    assert report.metrics["detected_pairs"] == 0.0


def test_pair_detection_flags_shared_source():
    src = unit_rows(4, 2048, 1)
    lam = np.array([0.6, 0.4])
    a = Image((lam @ src[[0, 1]]).astype(np.float32), (1, 1, 2048))
    b = Image((lam @ src[[0, 2]]).astype(np.float32), (1, 1, 2048))
    lone = Image(src[3].astype(np.float32), (1, 1, 2048))
    report = pair_detection_attack([a, b, lone])
    assert 0 * 3 + 1 in report.decisions  # pair id i*m + j
    assert (0, 1) in report.clusters
    assert report.reconstruction is not None


def test_pair_detection_precision_on_mixup_history():
    samples, keys = mixup_history(2)
    report = pair_detection_attack(samples, truth_keys=keys)
    assert report.metrics["precision"] is not None
    assert report.metrics["precision"] >= 0.95
    # shared-source pairs are rare: ~2k/n of all pairs for k=2, n=50
    assert report.metrics["truth_pair_rate"] < 0.15


def test_pair_detection_collapses_under_masking():
    ds = make_gaussian_dataset(50, (3, 32, 32), RngStream(3), classes=10)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    samples, keys = encrypt_history(ds, cfg, 20, RngStream(4))
    report = pair_detection_attack(samples, truth_keys=keys)
    assert report.metrics["detected_pairs"] == 0.0
    assert report.metrics["precision"] is None


def test_pair_detection_key_count_mismatch():
    samples, keys = mixup_history(5, n=4, epochs=1)
    with pytest.raises(ValidationError):
        pair_detection_attack(samples, truth_keys=keys[:-1])


# ---------------------------------------------------------------------------
# public scan


def test_public_scan_recovers_members():
    N, d, k = 300, 1024, 4
    patches = unit_rows(N, d, 6)
    members = [5, 42, 77, 123]
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    query = Image((lam @ patches[members]).astype(np.float32), (1, 1, d))
    report = public_scan_attack(query, patches, k, truth_members=set(members))
    assert report.metrics["recall"] == 1.0
    assert set(report.decisions) == set(members)
    assert report.ranks == (1, 2, 3, 4)


def test_public_scan_threshold_override():
    patches = unit_rows(50, 256, 7)
    query = Image(patches[0].astype(np.float32), (1, 1, 256))
    report = public_scan_attack(query, patches, 1, threshold=0.0, truth_members={0})
    assert len(report.decisions) == 50
    assert report.metrics["precision"] == pytest.approx(1 / 50)


def test_public_scan_rejects_empty():
    q = Image(np.ones(4, np.float32), (1, 2, 2))
    with pytest.raises(ValidationError):
        public_scan_attack(q, np.empty((0, 4)), 2)


def test_scan_scores_are_descending_by_magnitude():
    patches = unit_rows(40, 128, 8)
    query = Image(patches[3].astype(np.float32), (1, 1, 128))
    report = public_scan_attack(query, patches, 1)
    mags = [abs(s) for _, s in report.scores]
    assert mags == sorted(mags, reverse=True)
    assert report.scores[0][0] == 3


# ---------------------------------------------------------------------------
# fourth-moment ranking


def test_braverman_statistic_hand_value():
    x = Image(np.array([1.0, 2.0], np.float32), (1, 1, 2))
    s = Image(np.array([1.0, 0.0], np.float32), (1, 1, 2))
    # <x^2, s^2> - ||x||^2 ||s||^2 / d = 1 - 5/2
    assert braverman_statistic(x, s) == pytest.approx(-1.5)


def test_braverman_statistic_ignores_masks_bit_for_bit():
    gen = RngStream(13)
    x = Image(gen.generator().normal(size=768).astype(np.float32), (3, 16, 16))
    s = Image(RngStream(14).generator().normal(size=768).astype(np.float32), (3, 16, 16))
    masked = apply_mask(x, sample_sign_mask(768, RngStream(15)))
    assert braverman_statistic(masked, s) == braverman_statistic(x, s)


def test_braverman_attack_ranks_planted_member_first():
    patches = unit_rows(200, 512, 16)
    # k=1 query: the candidate itself, so its fourth moment aligns perfectly
    query = Image(patches[17].astype(np.float32), (1, 1, 512))
    report = braverman_attack(query, patches, truth_members={17})
    assert report.ranks == (1,)
    vals = [s for _, s in report.scores]
    assert vals == sorted(vals, reverse=True)
    assert report.metrics["median_member_rank"] < report.metrics["median_nonmember_rank"]


def test_braverman_attack_validation():
    q = Image(np.ones(4, np.float32), (1, 2, 2))
    with pytest.raises(ValidationError):
        braverman_attack(q, np.empty((0, 4)))
    with pytest.raises(ValidationError):
        braverman_attack(q, np.ones((3, 5)))


def test_braverman_medians_over_an_empty_set_are_none():
    patches = unit_rows(4, 16, 19)
    q = Image(patches[:2].sum(axis=0).astype(np.float32), (1, 4, 4))
    no_member = braverman_attack(q, patches, truth_members=set())
    assert no_member.ranks == ()
    assert no_member.metrics == {"median_member_rank": None, "median_nonmember_rank": 2.5}
    every_member = braverman_attack(q, patches, truth_members={0, 1, 2, 3})
    assert every_member.ranks == (1, 2, 3, 4)
    assert every_member.metrics == {"median_member_rank": 2.5, "median_nonmember_rank": None}
    assert every_member.to_dict()["metrics"]["median_nonmember_rank"] is None


@pytest.mark.parametrize("truth", [{-1}, {3}, {0, 7}])
def test_truth_members_outside_the_candidates_are_refused(truth):
    patches = unit_rows(3, 16, 19)
    q = Image(patches[0].astype(np.float32), (1, 4, 4))
    for attack in (lambda: public_scan_attack(q, patches, 1, truth_members=truth),
                   lambda: braverman_attack(q, patches, truth_members=truth)):
        with pytest.raises(ValidationError, match="truth members"):
            attack()


def _refuse_pool_reads(monkeypatch):
    def read(*args):
        raise AssertionError("the pool was read")

    for name in ("_screen", "scan_scores", "_fourth_moment_scores"):
        monkeypatch.setattr(attacks, name, read, raising=False)


def test_public_scan_refuses_a_nan_threshold_before_reading_the_pool(monkeypatch):
    patches = unit_rows(300, 64, 3).astype(np.float32)
    _refuse_pool_reads(monkeypatch)
    for q in (patches[0], patches[:3]):
        with pytest.raises(ValidationError, match="threshold must be a number"):
            public_scan_attack(q, patches, 1, threshold=float("nan"))
    with pytest.raises(ValidationError, match="threshold must be a number"):
        public_scan_attack(np.full(64, np.nan, np.float32), patches, 1)  # default: nan


@pytest.mark.parametrize("attack", [lambda q, p: public_scan_attack(q, p, 2),
                                    lambda q, p: braverman_attack(q, p)],
                         ids=["scan", "braverman"])
def test_a_wrong_length_query_is_refused_before_reading_the_pool(monkeypatch, attack):
    patches = unit_rows(300, 64, 3).astype(np.float32)
    _refuse_pool_reads(monkeypatch)
    for q in (patches[0, :-1], patches[:3, :-1]):
        with pytest.raises(ValidationError, match="does not fit queries of length 63"):
            attack(q, patches)


def test_a_block_needs_one_truth_set_per_query():
    patches = unit_rows(60, 16, 3).astype(np.float32)
    with pytest.raises(ValidationError, match="3 queries need 3 truth sets"):
        public_scan_attack(patches[:3], patches, 1, truth_members=[{0}, {1}])
    with pytest.raises(ValidationError, match="truth members must be in"):
        braverman_attack(patches[:2], patches, truth_members=[{0}, {60}])


# ---------------------------------------------------------------------------
# sign oracle and demasking


def test_sign_oracle_perfect_and_bounds():
    truth = sample_sign_mask(100, RngStream(17))
    oracle = SignOracle(p=0.0)
    assert np.array_equal(oracle.recovered_masks(truth.signs[None], [0])[0], truth.signs)
    with pytest.raises(ValidationError):
        SignOracle(p=0.6)
    with pytest.raises(ValidationError):
        SignOracle(p=-0.1)


def test_sign_oracle_flip_rate_and_tags():
    truth = sample_sign_mask(20000, RngStream(18))
    oracle = SignOracle(p=0.25, rng=RngStream(19))
    est, other = oracle.recovered_masks(np.stack([truth.signs] * 2), [0, 1])
    flip_rate = np.mean(est != truth.signs)
    assert flip_rate == pytest.approx(0.25, abs=0.02)
    assert not np.array_equal(est, other)


def test_demask_with_perfect_oracle_inverts_mask():
    x = Image(RngStream(20).generator().normal(size=300).astype(np.float32), (3, 10, 10))
    mask = sample_sign_mask(300, RngStream(21))
    masked = apply_mask(x, mask)
    out = demask_with_oracle(masked, mask, SignOracle(p=0.0))
    assert np.array_equal(out.pixels, x.pixels)


def test_demask_correlation_decreases_with_oracle_error():
    x = Image(RngStream(22).generator().normal(size=3072).astype(np.float32), (3, 32, 32))
    mask = sample_sign_mask(3072, RngStream(23))
    masked = apply_mask(x, mask)
    corrs = [
        correlation(demask_with_oracle(masked, mask, SignOracle(p, RngStream(24))), x)
        for p in (0.0, 0.25, 0.5)
    ]
    assert corrs[0] == pytest.approx(1.0)
    assert corrs[0] > corrs[1] > corrs[2]
    assert abs(corrs[2]) < 0.1


# ---------------------------------------------------------------------------
# SSIM


def test_ssim_self_and_symmetry():
    a = Image(RngStream(25).generator().random(256).astype(np.float32), (1, 16, 16))
    b = Image(RngStream(26).generator().random(256).astype(np.float32), (1, 16, 16))
    assert ssim(a, a) == pytest.approx(1.0)
    assert ssim(a, b) == pytest.approx(ssim(b, a))
    assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_sign_flip_of_centered_image_is_anticorrelated():
    idx = np.arange(256)
    checker = np.where((idx // 16 + idx % 16) % 2 == 0, 1.0, -1.0).astype(np.float32)
    a = Image(checker, (1, 16, 16))
    b = Image(-checker, (1, 16, 16))
    assert ssim(a, b) < -0.5


def test_ssim_pairwise_matches_singleton_grid():
    gen = RngStream(27).generator()
    rows = gen.random((3, 64)).astype(np.float32)
    dims = (1, 8, 8)
    # fix the dynamic range: the batched call would otherwise infer it from
    # all rows at once while the singleton call sees only two
    grid = ssim_pairwise(rows, rows, dims, dynamic_range=1.0)
    for i in range(3):
        for j in range(3):
            single = ssim(Image(rows[i], dims), Image(rows[j], dims), dynamic_range=1.0)
            assert grid[i, j] == pytest.approx(single, abs=1e-9)


def test_ssim_pairwise_of_an_empty_batch_is_an_empty_matrix():
    # the default dynamic range took the min of an empty batch and raised
    rows, dims = RngStream(27).generator().random((2, 16)).astype(np.float32), (1, 4, 4)
    assert ssim_pairwise(rows[:1], rows[:0], dims).shape == (1, 0)
    assert ssim_pairwise(rows[:0], rows, dims).shape == (0, 2)
    assert ssim_pairwise(rows[:0], rows[:0], dims).shape == (0, 0)


def test_ssim_pairwise_takes_one_dynamic_range_per_row():
    gen = RngStream(33).generator()
    A, B = gen.random((4, 192)).astype(np.float32), gen.random((7, 192)).astype(np.float32)
    dims = (3, 8, 8)
    for r in (1.0, 0.37, 2.5e3):
        full = ssim_pairwise(A, B, dims, np.full(len(A), r))
        assert full.tobytes() == ssim_pairwise(A, B, dims, r).tobytes()
    ranges = np.array([0.5, 1.0, 2.0, 4.0])
    per_row = ssim_pairwise(A, B, dims, ranges)
    for i, r in enumerate(ranges):
        alone = ssim_pairwise(A[i], B, dims, r)[0]
        np.testing.assert_allclose(per_row[i], alone, rtol=0, atol=1e-15)
    # a nan range passed the old "<= 0" check and made every score nan
    for bad in (0.0, -1.0, np.nan, np.inf, [1.0, np.nan, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                [1.0, 1.0], np.ones((4, 1))):
        with pytest.raises(ValidationError, match="dynamic range"):
            ssim_pairwise(A, B, dims, bad)
    with pytest.raises(ValidationError, match="dynamic range"):
        ssim_pairwise(A[:0], B, dims, np.nan)  # refused with no rows to score


def test_ssim_validation():
    a = Image(np.ones(16, np.float32), (1, 4, 4))
    b = Image(np.ones(16, np.float32), (1, 2, 8))
    with pytest.raises(ValidationError):
        ssim(a, b)
    with pytest.raises(ValidationError):
        ssim(a, np.ones(16))


@pytest.mark.parametrize("dims", [(0, 4, 4), (1, 0, 5), (1, 4, 0)])
def test_ssim_pairwise_refuses_a_zero_dimension(dims):
    # the row steps divide by the row length, and an axis needs a window
    for n in (0, 1):
        with pytest.raises(ValidationError, match="dims must be three positive ints"):
            ssim_pairwise(np.zeros((n, 0)), np.zeros((n, 0)), dims)


# ---------------------------------------------------------------------------
# similarity search


def test_similarity_search_finds_planted_patch():
    gen = RngStream(28).generator()
    patches = gen.random((40, 768)).astype(np.float32)
    target = Image(patches[11], (3, 16, 16))
    mask = sample_sign_mask(768, RngStream(29))
    masked = apply_mask(target, mask)
    report = similarity_search_attack(
        masked, patches, SignOracle(p=0.0), mask, m=3, truth_patches={11}
    )
    assert report.metrics["hit"] == 1.0
    assert report.decisions[0] == 11


def test_similarity_search_validation():
    patches = RngStream(30).generator().random((5, 16)).astype(np.float32)
    x = Image(patches[0], (1, 4, 4))
    mask = sample_sign_mask(16, RngStream(31))
    with pytest.raises(ValidationError):
        similarity_search_attack(x, patches, SignOracle(0.0), mask, m=9)
    with pytest.raises(ValidationError):
        # source-id truth needs provenance, a bare matrix has none
        similarity_search_attack(x, patches, SignOracle(0.0), mask, m=2, truth_sources={0})


def test_similarity_search_on_an_empty_patch_set_ranks_nothing():
    # build_patchset returns an empty set when every crop is filtered out
    px = RngStream(30).generator().random(16).astype(np.float32)
    mask = sample_sign_mask(16, RngStream(31))
    empty = PatchSet(np.zeros((0, 1, 4, 4), np.float32), (), ())
    for query in (px, Image(px, (1, 4, 4))):
        report = similarity_search_attack(
            query, empty, SignOracle(0.0), mask, m=0, truth_patches={0}
        )
        assert report.decisions == () and report.metrics["hit"] == 0.0


def cross_block(q=6, seed=41):
    """q cross encryptions mixing a 300-patch 3x16x16 pool with provenance:
    the samples and keys blocks, the pool, and each row's true patches and
    source images."""
    rng = RngStream(seed)
    sources = make_gaussian_dataset(300, (3, 24, 24), rng.child("s"), normalize=False)
    pool = build_patchset(sources, (16, 16), 1, rng.child("crop"), min_keypoints=0)
    private = make_gaussian_dataset(q, (3, 16, 16), rng.child("p"), classes=2)
    cfg = SchemeConfig("cross", k=5, c1=0.65, c2=0.3)
    samples, keys = encrypt_epoch(private, cfg, 0, rng.child("e"), publicset=pool)
    patches = [{j - q for j in row if j >= q} for row in keys.sources.tolist()]
    ids = pool.provenance[:, 0]
    return samples, keys, pool, patches, [{int(ids[j]) for j in p} for p in patches]


def test_a_block_of_queries_matches_one_query_at_a_time():
    samples, keys, pool, patches, sources = cross_block()
    oracle = SignOracle(0.4, RngStream(42))
    block = similarity_search_attack(samples, pool, oracle, keys.signs, 10,
                                     truth_sources=sources, truth_patches=patches, tag=samples.ids)
    assert len(block) == len(samples)
    for t, rep in enumerate(block):
        args = (pool, oracle, keys[t].mask, 10)
        one = similarity_search_attack(samples[t], *args, truth_sources=sources[t],
                                       truth_patches=patches[t], tag=int(samples.ids[t]))
        assert (rep.params, rep.decisions, rep.metrics) == (one.params, one.decisions, one.metrics)
        assert [i for i, _ in rep.scores] == [i for i, _ in one.scores]
        np.testing.assert_allclose([v for _, v in rep.scores], [v for _, v in one.scores],
                                   rtol=0, atol=1e-15)
        # a block of one is the one-query call, bit for bit
        [alone] = similarity_search_attack(
            samples[t : t + 1], pool, oracle, keys.signs[t : t + 1], 10,
            truth_sources=[sources[t]], truth_patches=[patches[t]], tag=samples.ids[t : t + 1])
        assert report_fields(alone) == report_fields(one)
    hits = [rep.metrics["hit"] for rep in block]
    assert 0.0 in hits and 1.0 in hits


def test_a_query_without_source_truth_never_reads_provenance():
    samples, keys, pool, patches, _ = cross_block(q=3)

    class Unread(PatchSet):
        @property
        def provenance(self):
            raise AssertionError("provenance was read")

        @provenance.setter
        def provenance(self, value):
            pass

    def reports(pub):
        oracle = SignOracle(0.2, RngStream(44))
        block = similarity_search_attack(samples, pub, oracle, keys.signs, 10,
                                         truth_patches=patches, tag=samples.ids)
        one = similarity_search_attack(samples[0], pub, oracle, keys[0].mask, 10,
                                       tag=int(samples.ids[0]))
        return [report_fields(rep) for rep in (*block, one)]

    hidden = Unread(np.asarray(pool).reshape(len(pool), *pool.dims), pool.provenance,
                    pool.keypoints)
    assert reports(hidden) == reports(pool)


def test_a_block_of_queries_is_checked_like_one_query():
    samples, keys, pool, patches, _ = cross_block(q=3)
    oracle = SignOracle(0.1, RngStream(43))
    with pytest.raises(ValidationError, match="3 queries need 3 tags"):
        similarity_search_attack(samples, pool, oracle, keys.signs, 5, tag=[0, 1])
    with pytest.raises(ValidationError, match="3 queries need 3 tags"):
        similarity_search_attack(samples, pool, oracle, keys.signs, 5, truth_patches=patches[:2],
                                 tag=samples.ids)
    with pytest.raises(DimensionMismatchError):
        similarity_search_attack(samples, pool, oracle, keys.signs[:2], 5, tag=samples.ids)
    with pytest.raises(ValidationError, match=r"mask entries \+1 or -1"):
        similarity_search_attack(samples, pool, oracle, keys.signs * 0.5, 5, tag=samples.ids)
    bad = np.array(samples)
    bad[1, 0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        similarity_search_attack(bad, pool, oracle, keys.signs, 5, tag=samples.ids)
    with pytest.raises(ValidationError, match="provenance"):
        similarity_search_attack(samples, pool.matrix(), oracle, keys.signs, 5,
                                 truth_sources=[{0}] * 3, tag=samples.ids)


# ---------------------------------------------------------------------------
# averaging


def test_averaging_strong_exact_for_mask_only_scheme():
    ds = make_gaussian_dataset(6, (3, 8, 8), RngStream(32), classes=3)
    cfg = SchemeConfig("inside", k=1, c1=1.0)
    samples, keys = encrypt_history(ds, cfg, 10, RngStream(33))
    report = averaging_attack(samples, keys, ds, "strong", SignOracle(p=0.0), target=2)
    assert report.metrics["cluster_size"] == 10.0
    assert report.metrics["corr_to_original"] == pytest.approx(1.0)
    assert np.allclose(report.reconstruction.pixels, ds.images[2].pixels, atol=1e-6)


def test_averaging_strong_washes_out_partners():
    ds = make_gaussian_dataset(20, (3, 16, 16), RngStream(34), classes=4)
    cfg = SchemeConfig("inside", k=4, c1=0.65)
    samples, keys = encrypt_history(ds, cfg, 40, RngStream(35))
    report = averaging_attack(samples, keys, ds, "strong", SignOracle(p=0.0), target=0)
    # averaging 40 demasked encryptions beats any single one by a wide margin
    single = correlation(
        demask_with_oracle(samples[0], keys[0].mask, SignOracle(p=0.0), tag=samples[0].sample_id),
        ds.images[0],
    )
    assert report.metrics["corr_to_original"] > 0.75
    assert report.metrics["corr_to_original"] > single + 0.1


def test_averaging_weak_mode_reports_distribution():
    ds = make_gaussian_dataset(8, (3, 8, 8), RngStream(36), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    samples, keys = encrypt_history(ds, cfg, 2, RngStream(37))
    report = averaging_attack(samples, keys, ds, "weak", SignOracle(p=0.0), m=3)
    assert report.metrics["probes"] == 16.0
    assert report.metrics["corr_min"] <= report.metrics["corr_median"] <= report.metrics["corr_max"]
    assert report.reconstruction is not None


def averaging_per_row(history, keys, private, mode, oracle, m=5, target=0):
    """averaging_attack's report fields, one demask_with_oracle call per row."""
    demasked = [demask_with_oracle(s, key.mask, oracle, tag=s.sample_id)
                for s, key in zip(history, keys)]
    if mode == "strong":
        cluster = [x for x, key in zip(demasked, keys) if key.sources[0] == ("private", target)]
        recon = ref.average_reconstruct(cluster)
        original = private.images[target]
        metrics = {"cluster_size": float(len(cluster)),
                   "corr_to_original": correlation(recon, original),
                   "ssim_to_original": ssim(recon, original)}
        return metrics, recon.pixels.tobytes()
    rows = np.stack([x.pixels for x in demasked]).astype(np.float64)
    sims = ssim_pairwise(rows, rows, history[0].dims)
    np.fill_diagonal(sims, -np.inf)
    corr, recon0 = [], None
    for i, key in enumerate(keys):
        order = np.lexsort((np.arange(len(rows)), -sims[i]))
        avg = rows[np.concatenate([[i], order[:m]])].mean(axis=0)
        corr.append(correlation(avg, private.images[key.sources[0][1]]))
        recon0 = avg.astype(np.float32).tobytes() if i == 0 else recon0
    metrics = {"probes": float(len(rows)), "corr_mean": float(np.mean(corr)),
               "corr_median": float(np.median(corr)), "corr_min": float(min(corr)),
               "corr_max": float(max(corr))}
    return metrics, recon0


@pytest.mark.parametrize("scheme", ["inside", "mixup"])
@pytest.mark.parametrize("p", [0.0, 0.25])
@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_averaging_demasks_the_block_as_per_row_calls_do(scheme, p, mode):
    ds = make_gaussian_dataset(6, (3, 8, 8), RngStream(40), classes=3)
    samples, keys = encrypt_history(ds, SchemeConfig(scheme, k=2, c1=0.65), 4, RngStream(41))
    oracle = SignOracle(p, RngStream(42))
    report = averaging_attack(samples, keys, ds, mode, oracle, m=3, target=1)
    want = averaging_per_row(samples, keys, ds, mode, oracle, m=3, target=1)
    assert (report.metrics, report.reconstruction.pixels.tobytes()) == want
    assert report.reconstruction.dims == (3, 8, 8)


def test_averaging_validation():
    ds = make_gaussian_dataset(4, (1, 4, 4), RngStream(38), classes=2)
    cfg = SchemeConfig("inside", k=1, c1=1.0)
    samples, keys = encrypt_history(ds, cfg, 1, RngStream(39))
    with pytest.raises(ValidationError):
        averaging_attack(samples, keys, ds, "sideways", SignOracle(0.0))
    with pytest.raises(ValidationError):
        averaging_attack(samples, keys[:-1], ds, "strong", SignOracle(0.0))
    with pytest.raises(ValidationError):
        averaging_attack(samples, keys, ds, "strong", SignOracle(0.0), target=99)
    with pytest.raises(ValidationError):
        averaging_attack(samples, keys, ds, "weak", SignOracle(0.0), m=4)
    with pytest.raises(ValidationError):
        averaging_attack([], [], ds, "strong", SignOracle(0.0))


# ---------------------------------------------------------------------------
# gradient matching


def test_gradient_matching_recovers_plain_input():
    model = init_model(4, 48, RngStream(40), scale=0.1)
    victim = Image(RngStream(41).generator().normal(size=48).astype(np.float32), (3, 4, 4))
    _, (gW, gb) = loss_and_gradient(model, victim, one_hot(1, 4))
    report = gradient_matching_attack((gW, gb), model, RngStream(42), victim=victim)
    assert report.metrics["corr_to_victim"] >= 0.99
    assert report.trajectory[-1] < report.trajectory[0]


def test_gradient_matching_diverges_with_huge_lr():
    model = init_model(3, 16, RngStream(43), scale=0.5)
    victim = Image(RngStream(44).generator().normal(size=16).astype(np.float32), (1, 4, 4))
    _, grads = loss_and_gradient(model, victim, one_hot(0, 3))
    with pytest.raises(DivergenceError) as err:
        gradient_matching_attack(grads, model, RngStream(45), lr=1e9, fd_probes=0)
    assert len(err.value.trajectory) >= 1


@pytest.mark.parametrize("steps, lr", [(-3, 0.05), (5, 0.0), (5, -1.0), (5, np.nan), (5, np.inf)])
def test_gradient_matching_refuses_negative_steps_and_bad_lr(steps, lr):
    model = init_model(3, 16, RngStream(46), scale=0.5)
    victim = Image(RngStream(47).generator().normal(size=16).astype(np.float32), (1, 4, 4))
    _, grads = loss_and_gradient(model, victim, one_hot(0, 3))
    with pytest.raises(ValidationError):
        gradient_matching_attack(grads, model, RngStream(48), steps=steps, lr=lr)


def test_gradient_matching_shape_validation():
    model = init_model(3, 8)
    with pytest.raises(ValidationError):
        gradient_matching_attack((np.zeros((2, 8)), np.zeros(3)), model, RngStream(0))


# ---------------------------------------------------------------------------
# reports


def test_report_rejects_bad_metrics():
    with pytest.raises(ValidationError):
        AttackReport("x", metrics={"recall": float("nan")})
    with pytest.raises(ValidationError):
        AttackReport("x", metrics={"precision": 1.2})
    with pytest.raises(ValidationError):
        AttackReport("x", metrics={"corr_to_victim": -1.5})
    report = AttackReport("x", metrics={"precision": None, "steps": 12.0})
    assert report.to_dict()["metrics"]["precision"] is None


# ---------------------------------------------------------------------------
# input kinds: every attack reads samples through np.asarray


def three_kinds(sample):
    """One EncryptedSample, its xtilde Image, and its raw pixel array."""
    return sample, sample.xtilde, np.array(sample.xtilde.pixels)


def report_fields(report):
    rec = report.reconstruction
    return (report.params, report.scores, report.decisions, report.metrics, report.ranks,
            report.clusters, None if rec is None else rec.pixels.tobytes())


def test_attacks_give_equal_results_for_every_input_kind():
    rng = RngStream(23)
    dims = (3, 8, 8)
    pool = make_gaussian_dataset(40, dims, rng.child("pool"), classes=2)
    sample, key = encrypt_sample(pool, 5, SchemeConfig("inside", k=4, c1=0.65), rng.child("e"))
    truth = {j for _, j in key.sources}
    other = pool.images[9]

    results = [
        (
            report_fields(public_scan_attack(x, pool, 4, truth_members=truth)),
            report_fields(braverman_attack(x, pool, truth_members=truth)),
            correlation(x, other),
            correlation(other, x),
            report_fields(similarity_search_attack(x, pool, SignOracle(0.1, rng), key.mask, 5,
                                                   truth_patches=truth)),
        )
        for x in three_kinds(sample)
    ]
    assert results[0] == results[1] == results[2]

    history, keys = encrypt_history(
        make_gaussian_dataset(6, dims, rng.child("h"), classes=2),
        SchemeConfig("mixup", k=2, c1=0.65), 4, rng.child("hist"),
    )
    kinds = [history, [s.xtilde for s in history], [np.array(s.xtilde.pixels) for s in history]]
    pairs = [report_fields(pair_detection_attack(h, truth_keys=keys, k=2)) for h in kinds]
    assert pairs[0] == pairs[1] == pairs[2]
    largest = max(pairs[0][-2], key=len)  # the reconstruction averages the largest cluster
    assert len(largest) >= 2
    expect = ref.average_reconstruct([history[i].xtilde for i in largest])
    assert pairs[0][-1] == expect.pixels.tobytes()


def test_results_keep_the_dims_of_encrypted_samples():
    rng = RngStream(29)
    dims = (3, 8, 8)
    ds = make_gaussian_dataset(6, dims, rng.child("ds"), classes=2)
    history, _ = encrypt_history(ds, SchemeConfig("mixup", k=2, c1=0.65), 4, rng.child("h"))
    for h, want in ((history, dims), ([s.xtilde for s in history], dims),
                    ([np.array(s.xtilde.pixels) for s in history], (1, 1, 192))):
        assert pair_detection_attack(h, k=2).reconstruction.dims == want
    assert demask_with_oracle(history[0], sample_sign_mask(192, rng), SignOracle(0.0)).dims == dims
