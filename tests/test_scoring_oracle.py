"""The streaming scoring kernels against the whole-pool kernels they replaced
(tests/reference_scoring.py), and their determinism across row counts,
chunk boundaries and BLAS thread counts."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference_scoring as ref
from instahide import core
from instahide import attacks
from instahide.attacks import (
    _fourth_moment_scores,
    braverman_attack,
    pair_detection_attack,
    public_scan_attack,
    ssim_pairwise,
)
from instahide.core import make_gaussian_dataset, scan_scores
from instahide.encrypt import SchemeConfig, encrypt_history
from instahide.rng import RngStream

DIMS = [(3, 32, 32), (3, 30, 27), (2, 5, 11), (1, 8, 8), (1, 4, 4)]


def pool_and_queries(dims, seed, n=400, queries=3):
    gen = np.random.default_rng(seed)
    d = dims[0] * dims[1] * dims[2]
    pool = gen.standard_normal((n, d)).astype(np.float32) / np.float32(np.sqrt(d))
    return pool, gen.standard_normal((queries, d)).astype(np.float32)


def assert_same_scores(new, old):
    """Within 1e-12 of the largest reference magnitude, and the same rank
    order (descending, ties by index) row by row."""
    new, old = np.atleast_2d(new), np.atleast_2d(old)
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12 * np.abs(old).max())
    n = new.shape[1]
    for a, b in zip(new, old):
        assert np.array_equal(np.lexsort((np.arange(n), -a)), np.lexsort((np.arange(n), -b)))


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: "x".join(map(str, d)))
def test_scores_match_the_whole_pool_kernels(dims):
    pool, queries = pool_and_queries(dims, seed=sum(dims))
    for q in queries:
        assert_same_scores(scan_scores(pool, q), ref.scan_scores(pool, q))
        assert_same_scores(_fourth_moment_scores(pool, q), ref._fourth_moment_scores(pool, q))
    assert_same_scores(ssim_pairwise(queries, pool, dims), ref.ssim_pairwise(queries, pool, dims))


@pytest.mark.parametrize("dims", [(3, 30, 27), (2, 5, 11)], ids=["3x30x27", "2x5x11"])
def test_ssim_matches_across_tiles(monkeypatch, dims):
    # a chunk of a few rows splits both batches into many tiles
    pool, queries = pool_and_queries(dims, seed=5, n=60, queries=9)
    expect = ref.ssim_pairwise(queries, pool, dims)
    monkeypatch.setattr(core, "CHUNK_BYTES", 8 * 3 * dims[0] * dims[1] * dims[2])
    assert_same_scores(ssim_pairwise(queries, pool, dims), expect)


@pytest.mark.parametrize("dims", [(3, 32, 32), (3, 30, 27), (2, 5, 11)],
                         ids=["3x32x32", "3x30x27", "2x5x11"])
def test_ssim_gather_gives_the_bytes_of_a_fresh_float64_copy(monkeypatch, dims):
    # each side's blocks are gathered from float32 or float64 rows into one
    # reused buffer: at every tiling, the bytes of a zeroed buffer per chunk
    # filled from a float64 copy of its rows (tail windows pad short blocks)
    pool, queries = pool_and_queries(dims, seed=6, n=24, queries=5)
    queries = queries.astype(np.float64) / 3.0
    gather = attacks._blocks

    def fresh(rows, dims, ey, ex, buf):
        return gather(rows.astype(np.float64), dims, ey, ex, np.zeros(buf.size))

    d = dims[0] * dims[1] * dims[2]
    for rows in (2, 7, 100):  # 24 rows in chunks of 7 end in a short one
        monkeypatch.setattr(core, "CHUNK_BYTES", 8 * d * rows)
        got = [ssim_pairwise(a, b, dims).tobytes() for a, b in ((queries, pool), (pool, queries))]
        monkeypatch.setattr(attacks, "_blocks", fresh)
        assert [ssim_pairwise(a, b, dims).tobytes()
                for a, b in ((queries, pool), (pool, queries))] == got, rows
        monkeypatch.setattr(attacks, "_blocks", gather)


@pytest.mark.parametrize("dims", [(3, 32, 32), (3, 30, 27), (2, 5, 11)],
                         ids=["3x32x32", "3x30x27", "2x5x11"])
def test_ssim_of_a_float32_pool_is_the_ssim_of_its_float64_copy(dims):
    pool, queries = pool_and_queries(dims, seed=7, n=300, queries=4)
    wide = pool.astype(np.float64)
    assert (ssim_pairwise(queries, pool, dims).tobytes()
            == ssim_pairwise(queries, wide, dims).tobytes())
    assert (ssim_pairwise(pool[:5], pool, dims).tobytes()
            == ssim_pairwise(wide[:5], wide, dims).tobytes())


def test_ssim_holds_one_gather_buffer_per_side():
    # one query against a 3,000-row float32 pool: no float64 copy of a chunk
    # besides the gathered blocks, and no fresh block array per chunk
    pool, _ = pool_and_queries((3, 32, 32), seed=8, n=3000, queries=1)
    ssim_pairwise(pool[:1], pool[:1], (3, 32, 32))  # one-time numpy set-up stays out of the peak
    tracemalloc.start()
    try:
        ssim_pairwise(pool[:1], pool, (3, 32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * core.CHUNK_BYTES


def test_scan_scores_are_bit_identical_across_row_counts_and_chunks(monkeypatch):
    pool, queries = pool_and_queries((3, 32, 32), seed=7, n=1000, queries=1)
    q = queries[0]
    whole = scan_scores(pool, q)
    assert len(list(core.float64_blocks(pool, 8 * q.size))) >= 3
    for rows in (1, 7, 333):
        monkeypatch.setattr(core, "CHUNK_BYTES", 8 * q.size * rows)
        assert scan_scores(pool, q).tobytes() == whole.tobytes()
    monkeypatch.undo()
    for i in (0, 340, 341, 682, 999):
        assert scan_scores(pool[i : i + 1], q).tobytes() == whole[i : i + 1].tobytes()
        assert scan_scores(pool[i:], q).tobytes() == whole[i:].tobytes()


def test_fourth_moment_scores_are_bit_identical_across_chunks(monkeypatch):
    pool, queries = pool_and_queries((3, 32, 32), seed=8, n=700, queries=1)
    whole = _fourth_moment_scores(pool, queries[0])
    monkeypatch.setattr(core, "CHUNK_BYTES", 8 * pool.shape[1] * 5)
    assert _fourth_moment_scores(pool, queries[0]).tobytes() == whole.tobytes()
    assert _fourth_moment_scores(pool[3:4], queries[0]).tobytes() == whole[3:4].tobytes()


THREAD_SCRIPT = """
import hashlib, json, sys
import numpy as np
from instahide.attacks import (_fourth_moment_scores, braverman_attack, correlation,
                               pair_detection_attack, public_scan_attack, ssim_pairwise)
from instahide.core import scan_scores
gen = np.random.default_rng(11)
pool = gen.standard_normal((1500, 3072)).astype(np.float32)
q = gen.standard_normal((4, 3072)).astype(np.float32)
out = {
    "scan": scan_scores(pool, q[0]).tobytes(),
    "fourth": _fourth_moment_scores(pool, q[0]).tobytes(),
    "ssim": ssim_pairwise(q, pool[:400], (3, 32, 32)).tobytes(),
}
# 12 copies of one row tie 66 pairs across the top-50 cut
history = pool[:600] / np.float32(np.sqrt(3072))
history[gen.choice(600, 12, replace=False)] = history[0]
report = pair_detection_attack(history, k=2)
out["pair"] = json.dumps(report.to_dict(), sort_keys=True).encode()
# 60 copies of pool row 0 tie across the top-50 cut, and the threshold is their score
dup = pool[:1200].copy()
dup[gen.choice(np.arange(1, 1200), 60, replace=False)] = dup[0]
Q = np.vstack([dup[0], q[1:] + dup[:3]])
cut = float(abs(scan_scores(dup[:1], Q[0])[0]))
truths = [{0, 1, 2}, {1, 5}, {2}, set()]
def reports(found):
    found = found if isinstance(found, list) else [found]
    return json.dumps([[r.to_dict(), r.decisions, r.ranks] for r in found]).encode()
out["scan1"] = reports(public_scan_attack(Q[0], dup, 4, threshold=cut, truth_members=truths[0]))
out["scan4"] = reports(public_scan_attack(Q, dup, 4, threshold=cut, truth_members=truths))
out["scan4-default"] = reports(public_scan_attack(Q, dup, 4, truth_members=truths))
out["braverman1"] = reports(braverman_attack(Q[0], dup, truth_members=truths[0]))
out["braverman4"] = reports(braverman_attack(Q, dup, truth_members=truths))
# at d = 49,152 (3x128x128) BLAS splits a norm or a dot across threads
big = gen.standard_normal((121, 3 * 128 * 128)).astype(np.float32)
out["scan-default-d49152"] = reports(public_scan_attack(big[0], big[1:], 4, truth_members={0}))
out["corr-d49152"] = np.float64(correlation(big[0], big[0] + big[1])).tobytes()
print(json.dumps({k: hashlib.sha256(v).hexdigest() for k, v in out.items()}))
"""


def test_scores_do_not_depend_on_blas_threads():
    src = str(Path(core.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(json.loads(run.stdout))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# pair detection


def grouped_history(groups, d=192, seed=3):
    """Unit rows: each group's members share one strong source, so the
    clusters are the groups (sizes given), every other pair stays apart."""
    gen = np.random.default_rng(seed)
    rows = []
    for size in groups:
        base = gen.standard_normal(d)
        for _ in range(size):
            x = base + 0.5 * gen.standard_normal(d)
            rows.append((x / np.linalg.norm(x)).astype(np.float32))
    return [rows[i] for i in gen.permutation(len(rows))]


def assert_same_report(history, **kwargs):
    new = pair_detection_attack(history, **kwargs)
    old = ref.pair_detection_attack(history, **kwargs)
    assert new.to_dict() == old.to_dict()
    assert new.clusters == old.clusters
    assert new.decisions == old.decisions
    assert new.reconstruction == old.reconstruction
    return new


def zero_detections():
    ds = make_gaussian_dataset(20, (3, 8, 8), RngStream(31), classes=4)
    samples, keys = encrypt_history(ds, SchemeConfig("inside", k=2, c1=0.65), 5, RngStream(32))
    return samples, {"truth_keys": keys}


def many_small_clusters():
    return grouped_history([1, 2, 3, 2, 4, 1, 3, 2, 5, 2]), {}


def one_large_cluster():
    ds = make_gaussian_dataset(12, (3, 8, 8), RngStream(33), classes=4)
    samples, keys = encrypt_history(ds, SchemeConfig("mixup", k=2, c1=0.65), 12, RngStream(34))
    return samples, {"truth_keys": keys, "k": 2}


def tied_cut():
    # 12 copies of one row tie 66 pairs across the 50-score cut; entries are
    # multiples of 1/8, so every score is exact and the ties are exact
    gen = np.random.default_rng(4)
    same = np.where(gen.random(64) < 0.5, -0.125, 0.125).astype(np.float32)
    others = gen.integers(-1, 2, (8, 64)).astype(np.float32) / 8
    history = [same] * 12 + list(others)
    return [history[i] for i in gen.permutation(len(history))], {"threshold": 0.5}


CASES = [zero_detections, many_small_clusters, one_large_cluster, tied_cut]


def test_pair_detection_matches_reference_with_zero_detections():
    samples, kwargs = zero_detections()
    rep = assert_same_report(samples, **kwargs)
    assert rep.metrics["detected_pairs"] == 0.0
    assert len(rep.clusters) == len(samples)


def test_pair_detection_matches_reference_with_many_small_clusters():
    history, kwargs = many_small_clusters()
    rep = assert_same_report(history, **kwargs)
    sizes = sorted(len(c) for c in rep.clusters)
    assert sizes == [1, 1, 2, 2, 2, 2, 3, 3, 4, 5]


def test_pair_detection_matches_reference_with_one_large_cluster():
    samples, kwargs = one_large_cluster()
    rep = assert_same_report(samples, **kwargs)
    assert len(max(rep.clusters, key=len)) > 0.9 * len(samples)
    assert rep.reconstruction is not None


def test_pair_detection_top_scores_keep_stable_order_across_tied_cutoff():
    history, kwargs = tied_cut()
    rep = assert_same_report(history, **kwargs)
    assert len(rep.scores) == 50
    assert {s for _, s in rep.scores} == {1.0}


def mixup_history(n, epochs, dims=(3, 32, 32), seed=40):
    ds = make_gaussian_dataset(n, dims, RngStream(seed), classes=10)
    return encrypt_history(ds, SchemeConfig("mixup", k=2, c1=0.65), epochs, RngStream(seed + 1))


def test_pair_scores_are_the_float64_row_dot_bit_for_bit():
    samples, keys = mixup_history(10, 30)
    rows = np.asarray(samples)
    m = len(samples)
    rep = pair_detection_attack(samples, truth_keys=keys)
    assert len(rep.scores) == 50
    for pair, score in rep.scores:
        i, j = divmod(pair, m)
        assert i < j
        assert score == abs(scan_scores(rows[j : j + 1], rows[i])[0]), pair


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_pair_report_does_not_depend_on_the_block_size(monkeypatch, case):
    history, kwargs = case()
    whole = pair_detection_attack(history, **kwargs)
    # three rows of the widest block per chunk
    monkeypatch.setattr(core, "CHUNK_BYTES", 8 * 3 * len(history))
    small = pair_detection_attack(history, **kwargs)
    assert small.to_dict() == whole.to_dict()
    assert small.clusters == whole.clusters
    assert small.decisions == whole.decisions
    assert small.reconstruction == whole.reconstruction


def test_a_threshold_equal_to_a_pair_score_detects_that_pair():
    samples, _ = mixup_history(10, 30)
    rows = np.asarray(samples)
    m = len(samples)
    for i, j in [(0, 1), (3, 200), (17, 299)]:
        score = abs(scan_scores(rows[j : j + 1], rows[i])[0])
        assert i * m + j in pair_detection_attack(samples, threshold=score).decisions
        above = np.nextafter(score, np.inf)
        assert i * m + j not in pair_detection_attack(samples, threshold=above).decisions


def test_pair_detection_holds_no_float64_gram():
    samples, keys = mixup_history(50, 50)
    m = len(samples)
    tracemalloc.start()
    try:
        pair_detection_attack(samples, truth_keys=keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m


def test_pair_top_scores_are_the_head_of_a_stable_descending_sort(monkeypatch):
    # entries in {-1, 0, 1}/4 make every score exact, with many ties at the cut
    gen = np.random.default_rng(9)
    pool = gen.integers(-1, 2, (90, 16)).astype(np.float32) / 4
    for m in (1, 2, 10, 11, 90):  # 0, 1, 45, 55 and 4005 pairs
        rows = pool[:m]
        scores = {i * m + j: abs(float(rows[i] @ rows[j]))
                  for i in range(m) for j in range(i + 1, m)}
        expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        for rows_per_block in (m, 7, 1):
            monkeypatch.setattr(core, "CHUNK_BYTES", 8 * m * rows_per_block)
            assert list(pair_detection_attack(rows, threshold=np.inf).scores) == expect


# ---------------------------------------------------------------------------
# scan and fourth-moment screens


def report_bytes(report):
    return json.dumps([report.to_dict(), report.decisions, report.ranks])


def assert_same_reports(pool, queries, truths, thresholds=(None,)):
    """Screened scan and fourth-moment reports, one query at a time and as a
    block, equal the whole-pool reference's for every query."""
    for cut in thresholds:
        block = public_scan_attack(queries, pool, 4, threshold=cut, truth_members=truths)
        for q, truth, rep in zip(queries, truths, block):
            expect = report_bytes(ref.public_scan_attack(q, pool, 4, cut, truth))
            assert report_bytes(public_scan_attack(q, pool, 4, cut, truth)) == expect
            assert report_bytes(rep) == expect
    block = braverman_attack(queries, pool, truth_members=truths)
    for q, truth, rep in zip(queries, truths, block):
        expect = report_bytes(ref.braverman_attack(q, pool, truth))
        assert report_bytes(braverman_attack(q, pool, truth)) == expect
        assert report_bytes(rep) == expect


def duplicate_rows():
    # 70 copies of row 5 tie across the top-50 cut; the first query is row 5
    pool, queries = pool_and_queries((1, 8, 8), seed=21, n=300, queries=2)
    pool[np.random.default_rng(21).choice(300, 70, replace=False)] = pool[5]
    queries[0] = pool[5]
    return pool, queries, [{5, 6}, {5}]


def constant_pool():
    pool = np.full((120, 48), 0.5, np.float32)
    queries = np.stack([pool[0], -pool[0], np.arange(48, dtype=np.float32)])
    return pool, queries, [{0}, {3, 119}, None]


def signed_zeros():
    # rows of +0.0 and -0.0 among random rows, and a zero query
    pool, queries = pool_and_queries((1, 8, 8), seed=22, n=200, queries=2)
    pool[::3] = 0.0
    pool[1::3] = -0.0
    queries[1] = 0.0
    return pool, queries, [{0, 1, 2}, {4, 5}]


def small_pools():
    pool, queries = pool_and_queries((1, 4, 4), seed=23, n=49, queries=2)
    return pool, queries, [{0, 48}, set()]


def near_float32_max():
    # rows 40-49 overflow a float32 product; the other rows do not
    pool, queries = pool_and_queries((1, 8, 8), seed=24, n=200, queries=2)
    pool[40:50] *= np.float32(2e37)
    return pool, queries * np.float32(1e3), [{40, 41, 100}, {7}]


def squares_overflow():
    # scan products stay finite; float32 squares and fourth-moment terms overflow
    pool, queries = pool_and_queries((1, 8, 8), seed=25, n=200, queries=2)
    return pool * np.float32(1e21), queries, [{3}, {4, 5}]


def near_subnormal():
    pool, queries = pool_and_queries((1, 8, 8), seed=26, n=200, queries=3)
    pool[:100] *= np.float32(1e-38)  # products and squares underflow
    pool[100:] *= np.float32(1e-19)  # squares underflow
    queries[2] = queries[2] * np.float32(1e-40)  # a subnormal query
    return pool, queries, [{0, 150}, {101}, {3}]


def float64_queries():
    # mixes in float64, and one whose coordinates round into float32's subnormal
    # range, where rounding moves them by up to half their value
    pool, _ = pool_and_queries((1, 8, 8), seed=27, n=200, queries=1)
    pool *= np.float32(1e10)
    mixes = np.stack([pool[[1, 2, 3]].astype(np.float64).mean(axis=0),
                      pool[[4, 5]].astype(np.float64).sum(axis=0) * 1e-54])
    return pool, mixes, [{1, 2, 3}, {4, 5}]


def float64_pool():
    pool, queries = pool_and_queries((1, 8, 8), seed=28, n=200, queries=2)
    return pool.astype(np.float64), queries, [{0, 9}, {1}]


SCREEN_CASES = [duplicate_rows, constant_pool, signed_zeros, small_pools, near_float32_max,
                squares_overflow, near_subnormal, float64_queries, float64_pool]


@pytest.mark.parametrize("case", SCREEN_CASES, ids=lambda c: c.__name__)
def test_screened_reports_equal_the_whole_pool_reports(case):
    pool, queries, truths = case()
    assert_same_reports(pool, queries, truths)


def test_screened_reports_equal_the_whole_pool_reports_for_one_row():
    pool, queries = pool_and_queries((1, 4, 4), seed=29, n=1, queries=2)
    assert_same_reports(pool, queries, [{0}, set()], thresholds=(None, 0.0, np.inf))


def test_screened_scan_settles_every_threshold_as_the_whole_pool_scan():
    pool, queries, truths = duplicate_rows()
    rows = [int(i) for i in np.argsort(np.abs(scan_scores(pool, queries[1])))[[0, 150, -1]]]
    exact = [float(abs(scan_scores(pool[i : i + 1], queries[1])[0])) for i in rows]
    above = [float(np.nextafter(c, np.inf)) for c in exact]
    assert_same_reports(pool, queries, truths,
                        thresholds=(0.0, -1.0, np.inf, -np.inf, *exact, *above))


def test_screen_scores_few_rows_exactly(monkeypatch):
    pool, queries = pool_and_queries((3, 16, 16), seed=30, n=2000, queries=2)
    queries[0] = pool[:4].mean(axis=0)
    scored = []

    def counting(kernel):
        return lambda rows, q: scored.append(len(rows)) or kernel(rows, q)

    monkeypatch.setattr(attacks, "scan_scores", counting(scan_scores))
    monkeypatch.setattr(attacks, "_fourth_moment_scores", counting(_fourth_moment_scores))
    public_scan_attack(queries, pool, 4, truth_members=[{0, 1, 2, 3}, None])
    braverman_attack(queries, pool, truth_members=[{0, 1, 2, 3}, None])
    assert 0 < sum(scored) < 0.1 * len(pool) * 4  # 4 queries' worth of pool


def test_screen_block_size_never_changes_a_report_byte(monkeypatch):
    # one-row screen blocks, 7-row blocks and the default give the same scan and
    # fourth-moment reports, for each query asked singly and in its block
    big, queries = pool_and_queries((3, 16, 16), seed=31, n=2000, queries=3)
    queries[0] = big[:4].mean(axis=0)
    cases = [case() for case in SCREEN_CASES] + [(big, queries, [{0, 1, 2, 3}, {7}, None])]
    default = attacks.SCREEN_BYTES
    assert default // (4 * big.shape[1]) < len(big)  # the default takes several blocks
    for pool, queries, truths in cases:
        found = []
        for size in (default, 4 * pool.shape[1], 4 * pool.shape[1] * 7):
            monkeypatch.setattr(attacks, "SCREEN_BYTES", size)
            found.append([report_bytes(r) for attack in (
                lambda q, t: public_scan_attack(q, pool, 4, truth_members=t),
                lambda q, t: braverman_attack(q, pool, truth_members=t),
            ) for r in [*attack(queries, truths), *map(attack, queries, truths)]])
        assert found[1] == found[0] and found[2] == found[0]
