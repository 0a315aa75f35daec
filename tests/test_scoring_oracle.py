"""The streaming scoring kernels against the whole-pool kernels they replaced
(tests/reference_scoring.py), and their determinism across row counts,
chunk boundaries and BLAS thread counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_scoring as ref
from instahide import core
from instahide.attacks import (
    _fourth_moment_scores,
    _top_order,
    pair_detection_attack,
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
from instahide.attacks import _fourth_moment_scores, ssim_pairwise
from instahide.core import scan_scores
gen = np.random.default_rng(11)
pool = gen.standard_normal((1500, 3072)).astype(np.float32)
q = gen.standard_normal((4, 3072)).astype(np.float32)
out = {
    "scan": scan_scores(pool, q[0]),
    "fourth": _fourth_moment_scores(pool, q[0]),
    "ssim": ssim_pairwise(q, pool[:400], (3, 32, 32)),
}
print(json.dumps({k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()}))
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


def test_pair_detection_matches_reference_with_zero_detections():
    ds = make_gaussian_dataset(20, (3, 8, 8), RngStream(31), classes=4)
    samples, keys = encrypt_history(ds, SchemeConfig("inside", k=2, c1=0.65), 5, RngStream(32))
    rep = assert_same_report(samples, truth_keys=keys)
    assert rep.metrics["detected_pairs"] == 0.0
    assert len(rep.clusters) == len(samples)


def test_pair_detection_matches_reference_with_many_small_clusters():
    rep = assert_same_report(grouped_history([1, 2, 3, 2, 4, 1, 3, 2, 5, 2]))
    sizes = sorted(len(c) for c in rep.clusters)
    assert sizes == [1, 1, 2, 2, 2, 2, 3, 3, 4, 5]


def test_pair_detection_matches_reference_with_one_large_cluster():
    ds = make_gaussian_dataset(12, (3, 8, 8), RngStream(33), classes=4)
    samples, keys = encrypt_history(ds, SchemeConfig("mixup", k=2, c1=0.65), 12, RngStream(34))
    rep = assert_same_report(samples, truth_keys=keys, k=2)
    assert len(max(rep.clusters, key=len)) > 0.9 * len(samples)
    assert rep.reconstruction is not None


def test_pair_detection_top_scores_keep_stable_order_across_tied_cutoff():
    # 12 copies of one row tie 66 pairs across the 50-score cut; entries are
    # multiples of 1/8, so every score is exact and the ties are exact
    gen = np.random.default_rng(4)
    same = np.where(gen.random(64) < 0.5, -0.125, 0.125).astype(np.float32)
    others = gen.integers(-1, 2, (8, 64)).astype(np.float32) / 8
    history = [same] * 12 + list(others)
    history = [history[i] for i in gen.permutation(len(history))]
    rep = assert_same_report(history, threshold=0.5)
    assert len(rep.scores) == 50
    assert {s for _, s in rep.scores} == {1.0}


def test_top_order_is_the_head_of_a_stable_descending_sort():
    gen = np.random.default_rng(9)
    for size, count in [(0, 50), (1, 50), (49, 50), (50, 50), (1000, 50), (1000, 1)]:
        scores = gen.integers(0, 6, size).astype(np.float64)  # many ties at the cut
        expect = np.argsort(-scores, kind="stable")[:count]
        assert np.array_equal(_top_order(scores, count), expect)
