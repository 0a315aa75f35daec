import numpy as np
import pytest
import reference_encrypt as oracle
from hypothesis import given
from hypothesis import strategies as st
from reference_rng import RowStream

from instahide.core import _draw_lambdas
from instahide.errors import ValidationError
from instahide.rng import Draws, RngStream, Streams


def test_equal_pairs_reproduce_bytes():
    a = RngStream(42, 7).generator().bytes(64)
    b = RngStream(42, 7).generator().bytes(64)
    assert a == b


def test_golden_bytes_are_stable_across_runs():
    # frozen from a reference run; any change here breaks every saved report
    assert RngStream(0).generator().bytes(16).hex() == "ee765fcdff5a64f196556701bc78fb50"
    assert RngStream(1234, 7).generator().bytes(16).hex() == "c1954ba9e79b3e2c2c439cce6a30a31c"
    assert RngStream(1234).child("enc", 3).generator().bytes(16).hex() == (
        "341a06c2c895ec32144347887783e317"
    )


def test_distinct_streams_differ():
    assert RngStream(0, 0).generator().bytes(32) != RngStream(0, 1).generator().bytes(32)
    assert RngStream(0, 0).generator().bytes(32) != RngStream(1, 0).generator().bytes(32)


def test_child_depends_on_full_tag_path():
    base = RngStream(5)
    assert base.child("a", 1) == base.child("a", 1)
    assert base.child("a", 1) != base.child("a", 2)
    assert base.child("a", 1) != base.child("b", 1)
    assert base.child("a", 1) != base.child(1, "a")
    assert base.child("a").child(1) != base.child("a", 1)  # nesting is explicit


def test_child_requires_tags():
    with pytest.raises(ValidationError):
        RngStream(0).child()


def test_tag_types_are_restricted():
    with pytest.raises(ValidationError):
        RngStream(0).child(1.5)
    with pytest.raises(ValidationError):
        RngStream(0).child(None)


def test_numpy_integer_tags_match_python_ints():
    assert RngStream(9).child(np.int64(3)) == RngStream(9).child(3)


def test_seed_bounds():
    RngStream(0)
    RngStream((1 << 64) - 1)
    with pytest.raises(ValidationError):
        RngStream(-1)
    with pytest.raises(ValidationError):
        RngStream(1 << 64)
    with pytest.raises(ValidationError):
        RngStream(0.5)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_generator_draws_are_deterministic(seed, stream):
    s = RngStream(seed, stream)
    x = s.generator().normal(size=8)
    y = s.generator().normal(size=8)
    assert np.array_equal(x, y)


@given(st.lists(st.one_of(st.integers(0, 1000), st.text(max_size=8)), min_size=1, max_size=4))
def test_child_is_a_pure_function_of_tags(tags):
    a = RngStream(77).child(*tags)
    b = RngStream(77).child(*tags)
    assert a == b and a.seed == 77


BOUNDARY = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

# (seed, stream) -> the row's first four outputs; then, on a fresh block,
# bits(70) packed, choice(10, 4) and two random doubles, drawn in that order.
# Frozen: a change here moves every key and every golden digest.
VECTORS = {
    (0, 0): (
        ["238275bc38fcbe91", "f89a2566b5822c54", "47200e1d9780fa44", "e710dc7a64e2470a"],
        "91befc38bc75822354", [7, 5, 1, 3], ["0x1.4a5cc622eb570p-1", "0x1.56ed4191ea448p-1"],
    ),
    (0, 2**32 - 1): (
        ["41baf7d0c70d9d21", "42cac68b824bd8fa", "b1a67aa9383701e7", "36a21a093e905670"],
        "219d0dc7d0f7ba41f8", [1, 0, 9, 4], ["0x1.9fb9e183fa6acp-1", "0x1.d0af79958fcb8p-1"],
    ),
    (1234, 2**32): (
        ["ab0aa7129b416a77", "76d1f49e4a63beb6", "14f24888a657de11", "03a28e874865a0bc"],
        "776a419b12a70aabb4", [0, 7, 3, 5], ["0x1.5c9a4e29e2f7cp-1", "0x1.19fc8ca1a1299p-1"],
    ),
    (2**64 - 1, 2**64 - 1): (
        ["f14a310831123e0a", "673f30f72147ad25", "690df2e16b347af3", "fddf6f778d2c80db"],
        "0a3e123108314af124", [0, 2, 7, 6], ["0x1.b113b2a2942e0p-6", "0x1.8be51baa80c5fp-1"],
    ),
    (20201026, 1): (
        ["aeee3c3120cdddad", "c833838470bbdbc6", "d87bae6557d4dbe8", "bf23d5a0c091cf29"],
        "adddcd20313ceeaec4", [5, 4, 3, 7], ["0x1.483eb9d146b16p-2", "0x1.dafd851b3f494p-1"],
    ),
}


@pytest.mark.parametrize("seed,stream", sorted(VECTORS))
def test_draws_match_fixed_vectors(seed, stream):
    outputs, bits, choice, doubles = VECTORS[seed, stream]
    draws = Draws(Streams(seed, [stream]))
    assert [f"{int(v):016x}" for v in draws._outputs([0], 0, 4)[0]] == outputs
    ref = RowStream(seed, stream)
    assert [f"{ref.next64():016x}" for _ in range(4)] == outputs
    draws = Draws(Streams(seed, [stream]))
    assert np.packbits(draws.bits(70)[0]).tobytes().hex() == bits
    assert draws.choice(10, 4)[0].tolist() == choice
    assert [float(v).hex() for v in draws.random([0], 0, 2)[0]] == doubles


def test_keys_fold_the_seed_and_the_stream():
    # equal pairs share a stream, swapped or neighbouring pairs do not
    first = [Draws(Streams(seed, [stream])).random([0], 0, 1)[0, 0]
             for seed, stream in [(0, 1), (1, 0), (0, 2), (1, 1)]]
    assert len(set(first)) == 4
    block = Draws(Streams(5, [3, 3, 4]))
    out = block.random(np.arange(3), 0, 8)
    assert np.array_equal(out[0], out[1]) and not np.array_equal(out[0], out[2])


def test_block_child_ids_match_per_row_children():
    base = RngStream(31, 2**40 + 5)
    rows = np.arange(12)
    for prefix in [(), ("enc",), (3,), (np.int64(3), "x"), ("eval", 2**64 - 1)]:
        block = base.children(*prefix, ids=rows)
        assert [int(v) for v in block.ids] == [base.child(*prefix, int(i)).stream for i in rows]
    # nested children with scalar and per-row tags, as encrypted evaluation uses them
    members = Streams(base.seed, base.children("eval", ids=np.arange(5)).ids.repeat(3))
    nested = members.child("predict", np.tile(np.arange(3), 5)).child("enc")
    expect = [base.child("eval", r // 3).child("predict", r % 3).child("enc").stream
              for r in range(15)]
    assert [int(v) for v in nested.ids] == expect
    assert Streams(31, [base.stream]).child(np.uint8(7)).ids[0] == base.child(7).stream
    with pytest.raises(ValidationError):
        base.children(ids=np.arange(3.0))
    with pytest.raises(ValidationError):
        Streams(31, [0]).child()


def test_per_row_streams_are_opened_as_blocks(monkeypatch):
    # only per-epoch and per-call streams (perm, sgd, picks, probes) may open a
    # numpy generator, through RngStream.generator; per-row keys are drawn by
    # rng.Draws for a whole Streams block, so the count must not grow with the
    # number of rows, and no other Generator is built on these paths
    from instahide import attacks, encrypt, publicprep, stats, utility
    from instahide.core import make_gaussian_dataset

    calls, built, inside = [], [], []
    reference = RngStream.generator

    def generator(self):
        calls.append(1)
        inside.append(1)
        try:
            return reference(self)
        finally:
            inside.pop()

    def elsewhere(make):  # counts the Generators built outside RngStream.generator
        def build(*args, **kwargs):
            built.extend([] if inside else [1])
            return make(*args, **kwargs)
        return build

    monkeypatch.setattr(RngStream, "generator", generator)
    for name in ("Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, elsewhere(getattr(np.random, name)))

    def count(run, n):
        ds = make_gaussian_dataset(n, (1, 4, 4), RngStream(n, 1), classes=3)
        history, keys = encrypt.encrypt_history(ds, cfg, 2, RngStream(n, 2))
        calls.clear()
        built.clear()
        run(ds, history, keys)
        assert not built
        return len(calls)

    cfg = encrypt.SchemeConfig("inside", k=3, c1=0.65)
    model = utility.init_model(3, 16)
    oracle = attacks.SignOracle(0.25, RngStream(5))
    runs = {
        "history": (lambda ds, h, k: encrypt.encrypt_history(ds, cfg, 2, RngStream(1)), 2),
        "train": (lambda ds, h, k: utility.train_encrypted(
            model, ds, cfg, 2, 0.1, RngStream(2)), 4),
        "evaluate": (lambda ds, h, k: utility.evaluate(
            model, ds, "encrypted", cfg, RngStream(3), ensemble=3, partner_pool=ds), 0),
        "protocol": (lambda ds, h, k: stats.indistinguishability_protocol(
            ds, cfg, RngStream(4), picks=3, encryptions_per_image=ds.n // 5,
            probe_encryptions=5), 2),
        "patchset": (lambda ds, h, k: publicprep.build_patchset(
            ds, (2, 2), 3, RngStream(6), min_keypoints=0), 0),
        "averaging": (lambda ds, h, k: attacks.averaging_attack(
            h, k, ds, "strong", oracle, target=1), 0),
    }
    for name, (run, expect) in runs.items():
        assert count(run, 50) == count(run, 100) == expect, name


# Each op as the block runs it for all rows, and as the scalar reference runs
# it for one row (reference_encrypt._draw_lambda is the per-row rejection loop).
BLOCK_OPS = {
    "choice": lambda draws, pop, size: draws.choice(pop, size),
    "integers": lambda draws, high, size: draws.integers(high, size),
    "lambda": lambda draws, k, c1, head: _draw_lambdas(draws, k, c1, head),
    "bits": lambda draws, d: draws.bits(d),
    "random": lambda draws, count: _random_then_advance(draws, count),
}
ROW_OPS = {
    "choice": lambda ref, pop, size: np.array(ref.sample(pop, size), np.int64),
    "integers": lambda ref, high, size: np.array([ref.bounded(high - 1) for _ in range(size)]),
    "lambda": lambda ref, k, c1, head: oracle._draw_lambda(ref, k, c1, head),
    "bits": lambda ref, d: np.array(ref.bit_list(d), np.int8),
    "random": lambda ref, count: ref.random(count),
}


def _random_then_advance(draws, count):
    rows = np.arange(draws.m)
    out = draws.random(rows, 0, count)
    draws.advance(rows, count)
    return out


def _random_block(rows, seed):
    gen = np.random.default_rng(seed)
    ids = gen.integers(0, 2**64, rows, dtype=np.uint64)
    ids[: len(BOUNDARY)] = BOUNDARY[:rows]
    return Streams(int(gen.integers(0, 2**64, dtype=np.uint64)), ids)


def _assert_block_matches_rows(block, ops):
    draws = Draws(block)
    refs = [RowStream(block.seed, stream) for stream in block.ids.tolist()]
    for op, *args in ops:
        got = BLOCK_OPS[op](draws, *args)
        assert len(got) == len(refs)
        for r, ref in enumerate(refs):
            expect = ROW_OPS[op](ref, *args)
            assert got[r].dtype == expect.dtype, (op, args)
            assert got[r].tobytes() == expect.tobytes(), (op, args, r)


KERNEL_SEQUENCES = {
    # one op list per case; each ends with a draw that checks where the cursors ended
    "lemire-rejections": [("choice", 2**31 + 1, 3), ("bits", 17), ("random", 1)],  # ~1/2 rejected
    "integer-rejections": [("integers", 2**31 + 1, 9), ("integers", 3 * 2**30 + 1, 4),
                           ("random", 1)],  # ~1/2 and ~1/4 of the outputs rejected
    "floyd-collisions": [("choice", 6, 5), ("choice", 3, 3), ("bits", 5), ("random", 1)],
    "odd-half-before-mask": [("integers", 7, 1), ("bits", 5), ("random", 1)],
    "odd-half-before-long-mask": [("choice", 9, 2), ("random", 3), ("bits", 3071),
                                  ("random", 1)],
    "even-start-mask": [("integers", 5, 1), ("integers", 5, 1), ("random", 2), ("bits", 17),
                        ("random", 1)],
    "mask-lengths": [("bits", 1), ("bits", 63), ("bits", 64), ("bits", 65), ("bits", 3071),
                     ("random", 1)],
    "integer-runs": [("integers", 7, 3), ("integers", 1, 2), ("integers", 2**32, 2),
                     ("random", 1)],
    "inside-k1": [("choice", 49, 0), ("lambda", 1, 1.0, 0.0), ("bits", 17), ("random", 1)],
    "inside-k2": [("choice", 49, 1), ("lambda", 2, 0.65, 0.0), ("bits", 17), ("random", 1)],
    "inside-k4": [("choice", 49, 3), ("lambda", 4, 0.65, 0.0), ("bits", 192), ("random", 1)],
    "inside-k12": [("choice", 49, 11), ("lambda", 12, 0.12, 0.0), ("bits", 5), ("random", 1)],
    "uniform-c1k1": [("choice", 49, 3), ("lambda", 4, 0.25, 0.0), ("bits", 17), ("random", 1)],
    "cross": [("choice", 49, 1), ("choice", 30, 4), ("lambda", 6, 0.65, 0.3), ("bits", 17),
              ("random", 1)],
    "cross-head": [("choice", 9, 1), ("choice", 3, 1), ("lambda", 3, 0.4, 0.75), ("bits", 5),
                   ("random", 1)],
    "cross-eval": [("integers", 40, 1), ("choice", 30, 2), ("integers", 3, 1), ("random", 1)],
    "thin-lambda": [("lambda", 6, 0.2, 0.0), ("bits", 17), ("random", 1)],
    "tail-shuffle": [("choice", 10_001, 201), ("integers", 10, 1), ("random", 1)],
}


@pytest.mark.parametrize("case", sorted(KERNEL_SEQUENCES))
def test_block_draws_match_each_rows_generator(case):
    # each row's generator is the scalar reference of its own stream
    rows = {"thin-lambda": 400, "inside-k12": 200, "tail-shuffle": 3}.get(case, 60)
    for seed in range(2):
        _assert_block_matches_rows(_random_block(rows, seed), KERNEL_SEQUENCES[case])


@pytest.mark.parametrize("rows", [0, 1])
def test_empty_and_one_row_blocks_match(rows):
    for ops in KERNEL_SEQUENCES.values():
        _assert_block_matches_rows(_random_block(rows, 7), ops)


def test_thin_lambda_rows_are_decided_at_every_stage():
    # the "thin-lambda" case above must reach rows decided in each kind of
    # round of the block sampler: candidate 0, the round of 8, the doubling
    # rounds up to candidate 256, and past them
    k, c1, stages = 6, 0.2, set()
    for seed in range(2):
        block = _random_block(400, seed)
        for stream in block.ids.tolist():
            ref, cand = RowStream(block.seed, stream), []
            while not cand or (cand[-1] / cand[-1].sum()).max() > c1:
                cand.append(ref.random(k))
            first = len(cand) - 1
            stages.add(0 if first == 0 else 1 if first < 9 else 9 if first < 257 else 257)
    assert stages == {0, 1, 9, 257}


def _keys(block, chunk, monkeypatch):
    # partners, lambda and mask as the inside kernel draws them
    monkeypatch.setattr(Draws, "chunk", chunk)
    draws = Draws(block)
    return draws.choice(99, 3), _draw_lambdas(draws, 4, 0.3), draws.bits(3071)


def test_rows_do_not_depend_on_the_block(monkeypatch):
    # c1 = 0.3 at k = 4 leaves rows undecided for several rounds; a chunk of
    # 24 words caps rounds at 6 candidates and runs one row per temporary
    big = RngStream(3).children("enc", ids=np.arange(1000))
    keys = _keys(big, Draws.chunk, monkeypatch)
    for chunk in (24, 1 << 10):
        assert all(np.array_equal(a, b) for a, b in zip(keys, _keys(big, chunk, monkeypatch)))
    for r in (0, 1, 517, 999):
        one = _keys(Streams(big.seed, big.ids[r : r + 1]), 24, monkeypatch)
        assert all(a[r].tobytes() == b[0].tobytes() for a, b in zip(keys, one)), r
