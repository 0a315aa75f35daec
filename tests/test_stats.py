import numpy as np
import pytest
import scipy.special
import scipy.stats

from instahide.core import Image, make_gaussian_dataset
from instahide.encrypt import SchemeConfig
from instahide.errors import ValidationError
from instahide.rng import RngStream
from instahide.stats import (
    ConcentrationCheckConfig,
    _singleton_pvalues,
    check_bernstein_tail,
    check_chi_square_tail,
    check_inner_product_concentration,
    check_theorem_gap,
    default_probe_locations,
    indistinguishability_protocol,
    kolmogorov_survival,
    ks_two_sample,
    ks_uniform,
    statistic_labels,
    statistic_matrix,
    total_variation_rows,
)


# ---------------------------------------------------------------------------
# KS machinery


def test_kolmogorov_survival_matches_reference_series():
    for lam in (0.06, 0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        assert kolmogorov_survival(lam) == pytest.approx(
            float(scipy.special.kolmogorov(lam)), abs=1e-12
        )
    # tiny arguments saturate at 1 (the series is numerically unstable there)
    assert kolmogorov_survival(0.0) == 1.0
    assert kolmogorov_survival(0.04) == 1.0


def test_ks_statistic_matches_scipy():
    g = np.random.default_rng(2)
    for _ in range(10):
        a = g.normal(size=g.integers(5, 150))
        b = g.normal(size=g.integers(5, 150))
        D, p = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert D == pytest.approx(ref.statistic, abs=1e-12)
        # p uses the plain asymptotic Kolmogorov law; scipy adds a
        # small-sample correction, so demand agreement only in scale
        lam = np.sqrt(len(a) * len(b) / (len(a) + len(b))) * D
        assert p == pytest.approx(float(scipy.special.kolmogorov(lam)), abs=1e-12)


def test_ks_identical_samples():
    a = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
    D, p = ks_two_sample(a, a)
    assert D == 0.0 and p == 1.0


def test_ks_disjoint_supports():
    g = np.random.default_rng(3)
    a = g.random(500)
    D, p = ks_two_sample(a, a + 10.0)
    assert D == 1.0 and p < 1e-12


def test_ks_symmetry_and_monotonicity():
    g = np.random.default_rng(4)
    a, b = g.normal(size=60), g.normal(1.0, 1.0, size=90)
    assert ks_two_sample(a, b) == ks_two_sample(b, a)
    # p decreases as the shift (hence D) grows
    last_p = 1.1
    for shift in (0.0, 0.5, 1.0, 2.0):
        _, p = ks_two_sample(a, a + shift if shift else a)
        assert p <= last_p
        last_p = p


def test_ks_empty_sample_rejected():
    with pytest.raises(ValidationError):
        ks_two_sample([], [1.0, 2.0])


def test_ks_calibration():
    # same-distribution pairs: p < 0.05 should fire at about its nominal rate
    hits = 0
    for seed in range(200):
        gen = RngStream(seed, 400).generator()
        _, p = ks_two_sample(gen.normal(size=400), gen.normal(size=400))
        hits += p < 0.05
    assert 0.02 <= hits / 200 <= 0.09


def test_ks_uniform_matches_scipy_statistic():
    g = np.random.default_rng(5)
    v = g.random(300)
    D, _ = ks_uniform(v)
    assert D == pytest.approx(scipy.stats.kstest(v, "uniform").statistic, abs=1e-12)


def test_singleton_pvalues_equal_two_sample_on_one_point():
    g = np.random.default_rng(6)
    pool = np.sort(g.normal(size=400))
    values = g.normal(size=25)
    ps = _singleton_pvalues(values, pool)
    for v, p in zip(values, ps):
        _, ref = ks_two_sample([v], pool)
        assert p == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# statistics


def test_statistic_profile_hand_cases():
    # one image's profile is the one-row statistic matrix: mean, std, tv, probes
    flat = Image(np.full(8, 3.0, np.float32), (2, 2, 2))
    mean, std, tv, *probes = statistic_matrix(np.asarray(flat), flat.dims, (0, 5))[0]
    assert std == 0.0 and tv == 0.0 and mean == 3.0
    assert probes == [3.0, 3.0]

    two = Image(np.array([0.0, 1.0], np.float32), (1, 2, 1))
    mean, _, tv = statistic_matrix(np.asarray(two), two.dims, ())[0]
    assert tv == 1.0 and mean == 0.5


def test_total_variation_checkerboard_oracle():
    cb = ((np.indices((4, 4)).sum(0) % 2) * 2 - 1).astype(np.float64)
    tv = total_variation_rows(cb.reshape(1, -1), (1, 4, 4))
    assert tv.tolist() == [48.0]  # 24 adjacent pairs, |difference| 2 each


def test_statistic_matrix_layout():
    ds = make_gaussian_dataset(5, (3, 4, 4), RngStream(7))
    m = statistic_matrix(ds.matrix(), (3, 4, 4), probes=(1, 9, 30))
    assert m.shape == (5, 6)
    assert statistic_labels(3) == ("mean", "std", "tv", "loc1", "loc2", "loc3")
    row = statistic_matrix(np.asarray(ds.images[2]), (3, 4, 4), probes=(1, 9, 30))
    assert np.array_equal(m[2], row[0])


def test_probe_locations_are_sorted_distinct_and_seeded():
    a = default_probe_locations(100, RngStream(8), count=4)
    b = default_probe_locations(100, RngStream(8), count=4)
    assert a == b and len(set(a)) == 4 and list(a) == sorted(a)
    with pytest.raises(ValidationError):
        default_probe_locations(3, RngStream(8), count=4)


def test_statistic_profile_validation():
    with pytest.raises(ValidationError):
        statistic_matrix(np.zeros(7), (2, 2, 2), ())
    with pytest.raises(ValidationError):
        statistic_matrix(np.zeros(8), (2, 2, 2), (8,))


# ---------------------------------------------------------------------------
# indistinguishability protocol


def test_protocol_report_shape_and_floor():
    rng = RngStream(30)
    ds = make_gaussian_dataset(8, (1, 4, 4), rng.child("ds"), classes=3)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    rep = indistinguishability_protocol(
        ds, cfg, rng.child("proto"), picks=3, encryptions_per_image=60
    )
    assert rep.p_all.shape == (3, 7) and rep.p_other.shape == (3, 7)
    assert len(rep.image_indices) == 3 and len(rep.probe_locations) == 4
    # a singleton KS p-value can never drop below the one-point floor
    floor = kolmogorov_survival(1.0)
    assert rep.min_p() >= floor - 1e-12
    assert rep.labels == statistic_labels(4)


def test_protocol_is_deterministic():
    ds = make_gaussian_dataset(6, (1, 4, 4), RngStream(31), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    a = indistinguishability_protocol(ds, cfg, RngStream(32), picks=2, encryptions_per_image=60)
    b = indistinguishability_protocol(ds, cfg, RngStream(32), picks=2, encryptions_per_image=60)
    assert np.array_equal(a.p_all, b.p_all)
    assert a.image_indices == b.image_indices


def test_protocol_degenerate_identical_encryptions():
    # k=1 mixup never masks and never mixes, and with a dataset of copies of
    # one image every encryption is identical, so D = 0 and every p-value is 1
    from instahide.core import Dataset, one_hot

    base = make_gaussian_dataset(1, (1, 4, 4), RngStream(33), classes=2)
    ds = Dataset(base.images * 4, (one_hot(0, 2),) * 4)
    cfg = SchemeConfig("mixup", k=1, c1=1.0)
    rep = indistinguishability_protocol(
        ds, cfg, RngStream(34), picks=2, encryptions_per_image=60
    )
    assert np.all(rep.p_all == 1.0)
    assert np.all(rep.p_other == 1.0)


def test_protocol_validates_picks():
    ds = make_gaussian_dataset(3, (1, 4, 4), RngStream(35), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    with pytest.raises(ValidationError):
        indistinguishability_protocol(ds, cfg, RngStream(36), picks=5)
    with pytest.raises(ValidationError):
        indistinguishability_protocol(
            ds, cfg, RngStream(36), picks=2, encryptions_per_image=30
        )  # fewer encryptions than probes


def test_protocol_csv_layout(tmp_path):
    ds = make_gaussian_dataset(5, (1, 4, 4), RngStream(37), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    rep = indistinguishability_protocol(
        ds, cfg, RngStream(38), picks=2, encryptions_per_image=60
    )
    out = tmp_path / "t.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["image", "mean_all", "mean_other"]
    assert len(lines) == 3  # header + one row per picked image


# ---------------------------------------------------------------------------
# concentration checks


def test_config_validation():
    ConcentrationCheckConfig()
    with pytest.raises(ValidationError):
        ConcentrationCheckConfig(delta=0.0)
    with pytest.raises(ValidationError):
        ConcentrationCheckConfig(trials=50)
    with pytest.raises(ValidationError):
        ConcentrationCheckConfig(beta=1.0)
    assert ConcentrationCheckConfig(d=100).pixel_variance == pytest.approx(0.01)
    assert ConcentrationCheckConfig(d=100, sigma2=2.0).pixel_variance == 2.0


def test_chi_square_tail_bound_holds():
    cfg = ConcentrationCheckConfig(d=512, n=100, k=4, trials=4000)
    rep = check_chi_square_tail(cfg, RngStream(40))
    assert rep["passes"] is True
    for tail in rep["tails"]:
        assert tail["upper_rate"] <= tail["bound"] + 3 * np.sqrt(
            tail["bound"] * (1 - tail["bound"]) / cfg.trials
        ) + 1e-12


def test_chi_square_small_df():
    cfg = ConcentrationCheckConfig(d=512, n=100, k=4, trials=4000)
    rep = check_chi_square_tail(cfg, RngStream(41), t_values=(1,), df=1)
    assert rep["df"] == 1 and rep["passes"] is True


def test_inner_product_concentration():
    cfg = ConcentrationCheckConfig(d=512, n=100, k=4, trials=4000)
    rep = check_inner_product_concentration(cfg, RngStream(42))
    assert rep["passes"] is True
    assert rep["quantile"] <= rep["bound"]
    assert rep["measured_constant"] < 1.0  # the reference constant is loose
    zero = check_inner_product_concentration(cfg, RngStream(43), sigma1=0.0)
    assert zero["quantile"] == 0.0


def test_inner_product_tiny_dimension_still_bounded():
    cfg = ConcentrationCheckConfig(d=4, n=100, k=2, trials=2000)
    rep = check_inner_product_concentration(cfg, RngStream(44))
    assert rep["passes"] is True


def test_bernstein_tail():
    cfg = ConcentrationCheckConfig(d=64, n=100, k=4, trials=4000)
    rep = check_bernstein_tail(cfg, RngStream(45))
    assert rep["passes"] is True
    for tail in rep["tails"]:
        assert tail["rate"] <= tail["bound"] + 3 * np.sqrt(
            max(tail["bound"] * (1 - tail["bound"]), 1e-12) / cfg.trials
        ) + 1e-12


def test_theorem_gap_pair_and_scan_pass_at_small_scale():
    cfg = ConcentrationCheckConfig(d=768, n=200, k=4, trials=400)
    pair = check_theorem_gap(cfg, "pair", RngStream(46))
    scan = check_theorem_gap(cfg, "scan", RngStream(47))
    assert pair["precondition_ok"] and pair["passes"] is True
    assert scan["precondition_ok"] and scan["passes"] is True
    assert scan["pass_fraction"] >= 1 - cfg.delta - 0.03


def test_theorem_gap_scan_routes_agree():
    # the closed-form outsider draw and the explicit pool must agree in verdict
    cfg = ConcentrationCheckConfig(d=512, n=60, k=4, trials=200)
    fast = check_theorem_gap(cfg, "scan", RngStream(48))
    slow = check_theorem_gap(
        cfg, "scan", RngStream(48), exact_conditional_nonmembers=False
    )
    assert fast["passes"] is slow["passes"] is True
    assert abs(fast["pass_fraction"] - slow["pass_fraction"]) <= 0.05


def test_theorem_gap_precondition_violation_flags_not_fails():
    # beta huge: the stated admissibility condition on k fails, so the
    # check reports out-of-scope instead of a pass/fail verdict
    cfg = ConcentrationCheckConfig(d=4, n=10, k=4, trials=100, delta=0.5, beta=50.0)
    rep = check_theorem_gap(cfg, "scan", RngStream(49))
    assert rep["precondition_ok"] is False and rep["passes"] is None


def test_theorem_gap_rejects_bad_kind():
    cfg = ConcentrationCheckConfig(trials=100)
    with pytest.raises(ValidationError):
        check_theorem_gap(cfg, "both", RngStream(0))
