import math

import numpy as np
import pytest

from instahide.attacks import (
    AttackReport,
    SignOracle,
    average_reconstruct,
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
    recover_private_residual,
    scan_threshold,
    similarity_search_attack,
    ssim,
    ssim_pairwise,
)
from instahide.core import (
    Coefficients,
    Dataset,
    Image,
    inner_product,
    make_gaussian_dataset,
    one_hot,
    sample_sign_mask,
)
from instahide.encrypt import SchemeConfig, apply_mask, encrypt_history, encrypt_sample
from instahide.errors import DivergenceError, RankDeficiencyError, ValidationError
from instahide.publicprep import PatchSet
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


def test_pair_share_score_matches_inner_product():
    a = Image(np.array([1.0, 2.0], np.float32), (1, 1, 2))
    b = Image(np.array([3.0, -1.0], np.float32), (1, 1, 2))
    assert inner_product(a, b) == pytest.approx(1.0)


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


def test_average_reconstruct_validation():
    with pytest.raises(ValidationError):
        average_reconstruct([])
    a = Image(np.ones(4, np.float32), (1, 2, 2))
    b = Image(np.ones(6, np.float32), (1, 2, 3))
    with pytest.raises(ValidationError):
        average_reconstruct([a, b])


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
# residual recovery


def test_residual_recovery_with_known_coefficients():
    gen = RngStream(9).generator()
    priv = gen.normal(size=512)
    z = unit_rows(2, 512, 10)
    mix = (0.5 * priv + 0.3 * z[0] + 0.2 * z[1]).astype(np.float32)
    out = recover_private_residual(
        Image(mix, (1, 1, 512)), [z[0], z[1]], lam_estimate=np.array([0.3, 0.2])
    )
    assert np.allclose(out.pixels, mix - (0.3 * z[0] + 0.2 * z[1]).astype(np.float64), atol=1e-6)


def test_residual_recovery_least_squares_fit():
    z = unit_rows(3, 256, 11)
    mix = Image((0.5 * z[0] + 0.3 * z[1] + 0.2 * z[2]).astype(np.float32), (1, 1, 256))
    out = recover_private_residual(mix, [z[0], z[1], z[2]])
    assert np.linalg.norm(out.pixels) < 1e-3  # pure-public mix leaves ~nothing


def test_residual_recovery_rank_deficient():
    z = unit_rows(1, 64, 12)[0]
    mix = Image(z.astype(np.float32), (1, 1, 64))
    with pytest.raises(RankDeficiencyError):
        recover_private_residual(mix, [z, z])
    with pytest.raises(ValidationError):
        recover_private_residual(mix, [])


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


@pytest.mark.parametrize("truth", [{-1}, {3}, {0, 7}])
def test_truth_members_outside_the_candidates_are_refused(truth):
    patches = unit_rows(3, 16, 19)
    q = Image(patches[0].astype(np.float32), (1, 4, 4))
    for attack in (lambda: public_scan_attack(q, patches, 1, truth_members=truth),
                   lambda: braverman_attack(q, patches, truth_members=truth)):
        with pytest.raises(ValidationError, match="truth members"):
            attack()


# ---------------------------------------------------------------------------
# sign oracle and demasking


def test_sign_oracle_perfect_and_bounds():
    truth = sample_sign_mask(100, RngStream(17))
    oracle = SignOracle(p=0.0)
    assert np.array_equal(oracle.recovered_mask(truth).signs, truth.signs)
    with pytest.raises(ValidationError):
        SignOracle(p=0.6)
    with pytest.raises(ValidationError):
        SignOracle(p=-0.1)


def test_sign_oracle_flip_rate_and_tags():
    truth = sample_sign_mask(20000, RngStream(18))
    oracle = SignOracle(p=0.25, rng=RngStream(19))
    est = oracle.recovered_mask(truth, tag=0)
    flip_rate = np.mean(est.signs != truth.signs)
    assert flip_rate == pytest.approx(0.25, abs=0.02)
    other = oracle.recovered_mask(truth, tag=1)
    assert not np.array_equal(est.signs, other.signs)


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


def test_ssim_validation():
    a = Image(np.ones(16, np.float32), (1, 4, 4))
    b = Image(np.ones(16, np.float32), (1, 2, 8))
    with pytest.raises(ValidationError):
        ssim(a, b)
    with pytest.raises(ValidationError):
        ssim(a, np.ones(16))


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
    # build_patchset returns a dimless empty set when every crop is filtered out
    px = RngStream(30).generator().random(16).astype(np.float32)
    mask = sample_sign_mask(16, RngStream(31))
    for query in (px, Image(px, (1, 4, 4))):
        report = similarity_search_attack(
            query, PatchSet((), (), ()), SignOracle(0.0), mask, m=0, truth_patches={0}
        )
        assert report.decisions == () and report.metrics["hit"] == 0.0


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
    members = [pool.images[j] for _, j in key.sources[1:]]
    other = pool.images[9]

    results = [
        (
            report_fields(public_scan_attack(x, pool, 4, truth_members=truth)),
            report_fields(braverman_attack(x, pool, truth_members=truth)),
            recover_private_residual(x, members).pixels.tobytes(),
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
    averages = [average_reconstruct(h).pixels.tobytes() for h in kinds]
    assert averages[0] == averages[1] == averages[2]


def test_results_keep_the_dims_of_encrypted_samples():
    rng = RngStream(29)
    dims = (3, 8, 8)
    ds = make_gaussian_dataset(6, dims, rng.child("ds"), classes=2)
    history, _ = encrypt_history(ds, SchemeConfig("mixup", k=2, c1=0.65), 4, rng.child("h"))
    assert average_reconstruct(history).dims == dims
    assert average_reconstruct([s.xtilde for s in history]).dims == dims
    assert average_reconstruct([np.array(s.xtilde.pixels) for s in history]).dims == (1, 1, 192)
    z = ds.images[1]
    assert recover_private_residual(history[0], [z], lam_estimate=[0.5]).dims == dims
    assert demask_with_oracle(history[0], sample_sign_mask(192, rng), SignOracle(0.0)).dims == dims
    with pytest.raises(ValidationError, match="mixed dims"):
        average_reconstruct([history[0], Image(np.zeros(192, np.float32), (1, 1, 192))])
