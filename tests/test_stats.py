import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encrypt as oracle

from instahide import stats
from instahide.core import Image, make_gaussian_dataset
from instahide.encrypt import SchemeConfig
from instahide.errors import ValidationError
from instahide.publicprep import PatchSet
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
    ks_uniform,
    statistic_labels,
    statistic_matrix,
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


def test_kolmogorov_survival_takes_arrays_bit_for_bit():
    # the array path sums each entry's series exactly as one scalar call does
    g = np.random.default_rng(8)
    grid = np.concatenate([
        [0.0, 0.05, np.nextafter(0.05, 0.0), np.nextafter(0.05, 1.0), 10.0, 12.5, 30.0],
        g.random(3000) * 3.0, 10.0 + g.random(200) * 30.0,
    ])
    want = np.array([oracle.kolmogorov_survival(v) for v in grid])
    got = kolmogorov_survival(grid)
    assert got.tobytes() == want.tobytes()
    assert kolmogorov_survival(grid.reshape(3, -1)).tobytes() == want.tobytes()
    assert all(kolmogorov_survival(v) == w for v, w in zip(grid[:50], want))
    assert type(kolmogorov_survival(0.7)) is float
    assert kolmogorov_survival(np.array([])).shape == (0,)
    for bad in ([0.3, np.nan], [[1.0, -0.1]], [np.inf], np.nan, -1.0):
        with pytest.raises(ValidationError):
            kolmogorov_survival(np.array(bad))


def test_ks_uniform_matches_scipy_statistic():
    g = np.random.default_rng(5)
    v = g.random(300)
    D, _ = ks_uniform(v)
    assert D == pytest.approx(scipy.stats.kstest(v, "uniform").statistic, abs=1e-12)


def test_singleton_pvalues_equal_two_sample_on_one_point():
    # scipy's two-sample statistic of {v} against the pool, through the
    # asymptotic Kolmogorov law at n_e = n2 / (1 + n2)
    g = np.random.default_rng(6)
    pool = np.sort(g.normal(size=400))
    values = np.concatenate([g.normal(size=25), pool[::40], [pool[0] - 1.0, pool[-1] + 1.0]])
    for sample in (pool, pool[:1]):  # pool points themselves too, and a one-point pool
        root_ne = np.sqrt(sample.size / (1.0 + sample.size))
        lams = [root_ne * scipy.stats.ks_2samp([v], sample).statistic for v in values]
        want = scipy.special.kolmogorov(lams)
        np.testing.assert_allclose(_singleton_pvalues(values, sample), want, rtol=0, atol=1e-12)


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
    tv = statistic_matrix(cb.reshape(1, -1), (1, 4, 4), ())[:, 2]
    assert tv.tolist() == [48.0]  # 24 adjacent pairs, |difference| 2 each


def test_statistic_matrix_layout():
    ds = make_gaussian_dataset(5, (3, 4, 4), RngStream(7))
    m = statistic_matrix(ds.matrix(), (3, 4, 4), probes=(1, 9, 30))
    assert m.shape == (5, 6)
    assert statistic_labels(3) == ("mean", "std", "tv", "loc1", "loc2", "loc3")
    row = statistic_matrix(np.asarray(ds.images[2]), (3, 4, 4), probes=(1, 9, 30))
    assert np.array_equal(m[2], row[0])


@st.composite
def profile_cases(draw):
    """(rows, dims, probes, block rows): n of 1, whole blocks, or blocks plus
    a tail; rows of finite float32 values or constant rows, with +-0.0 and
    magnitudes near the float32 limit."""
    dims = draw(st.sampled_from([(1, 1, 6), (2, 1, 5), (1, 5, 1), (3, 4, 1), (1, 2, 2),
                                 (3, 4, 5)]))
    d, block = int(np.prod(dims)), draw(st.integers(2, 5))
    n = draw(st.sampled_from([1, block * draw(st.integers(1, 3)),
                              block * draw(st.integers(1, 3)) + draw(st.integers(1, block - 1))]))
    value = st.one_of(st.floats(width=32, allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 3.4e38, -3.4e38]))
    constant = st.builds(lambda v: [v] * d, value)
    rows = draw(st.lists(st.one_of(constant, st.lists(value, min_size=d, max_size=d)),
                         min_size=n, max_size=n))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    probes = tuple(draw(st.lists(st.integers(0, d - 1), max_size=4, unique=True)))
    return np.array(rows, np.float32).astype(dtype), dims, probes, block


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=profile_cases())
def test_statistic_matrix_matches_reference_bit_for_bit(case):
    rows, dims, probes, block = case
    want = oracle.statistic_matrix(rows, dims, probes)
    with mock.patch.object(stats, "_TILE_BYTES", 8 * rows.shape[1] * block):
        assert statistic_matrix(rows, dims, probes).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("probes", [0, -1])
def test_protocol_refuses_fewer_than_one_probe(probes):
    # 0 probes averaged an empty slice into NaN p-values (with a warning), and
    # -1 used all encryptions but the last as probes
    ds = make_gaussian_dataset(3, (1, 4, 4), RngStream(35), classes=2)
    cfg = SchemeConfig("inside", k=2, c1=0.65)
    with pytest.raises(ValidationError, match="probe encryptions must be in"):
        indistinguishability_protocol(
            ds, cfg, RngStream(36), picks=2, encryptions_per_image=60, probe_encryptions=probes
        )


@pytest.mark.parametrize("scheme", ["inside", "cross"])
def test_statistic_block_size_never_changes_pvalues(scheme, monkeypatch):
    # one-row, 7-row and 10,000-row blocks give the same statistics and
    # p-values; 130 encryptions per image come as a 100-row and a 30-row
    # call, so 7-row blocks end in a tail in both
    dims, d = (3, 4, 4), 48
    private = make_gaussian_dataset(6, dims, RngStream(60), classes=3)
    pub = make_gaussian_dataset(8, dims, RngStream(61), normalize=False)
    public = PatchSet(pub.images, [(i, 0, 0) for i in range(8)], [100] * 8)
    cfg = SchemeConfig(scheme, k=4, c1=0.65, c2=0.3)
    rows = np.random.default_rng(62).standard_normal((23, d)).astype(np.float32)

    def outputs():
        rep = indistinguishability_protocol(
            private, cfg, RngStream(63), picks=3, encryptions_per_image=130,
            probe_encryptions=20, publicset=public if scheme == "cross" else None,
        )
        table = statistic_matrix(rows, dims, (0, 7, 47))
        return table.tobytes(), rep.p_all.tobytes(), rep.p_other.tobytes()

    want = outputs()
    for block in (1, 7, 10_000):
        monkeypatch.setattr(stats, "_TILE_BYTES", 8 * d * block)
        assert outputs() == want, block


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


def test_chi_square_tail_bound_holds():
    cfg = ConcentrationCheckConfig(d=512, n=100, k=4, trials=4000)
    rep = check_chi_square_tail(cfg, RngStream(40))
    assert rep["passes"] is True
    for tail in rep["tails"]:
        assert tail["upper_rate"] <= tail["bound"] + 3 * np.sqrt(
            tail["bound"] * (1 - tail["bound"]) / cfg.trials
        ) + 1e-12


def test_chi_square_small_df():
    cfg = ConcentrationCheckConfig(d=1, n=100, k=4, trials=4000)
    rep = check_chi_square_tail(cfg, RngStream(41), t_values=(1,))
    assert rep["df"] == 1 and rep["passes"] is True


def test_inner_product_concentration():
    cfg = ConcentrationCheckConfig(d=512, n=100, k=4, trials=4000)
    rep = check_inner_product_concentration(cfg, RngStream(42))
    assert rep["passes"] is True
    assert rep["quantile"] <= rep["bound"]
    assert rep["measured_constant"] < 1.0  # the reference constant is loose


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


def test_bernstein_tail_draws_one_stream_in_bounded_runs():
    cfg = ConcentrationCheckConfig(trials=20_000)
    multipliers = tuple(np.linspace(0.05, 3.0, 60))
    tracemalloc.start()
    try:
        rep = check_bernstein_tail(cfg, RngStream(45), multipliers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6  # one draw of 20,000 x 256 float64 is 41 MB
    sums = RngStream(45).generator().uniform(-1.0, 1.0, size=(cfg.trials, 256)).sum(axis=1)
    assert [t["rate"] for t in rep["tails"]] == [
        float(np.mean(sums > t["t"])) for t in rep["tails"]]


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
