import numpy as np
import pytest
import reference_encrypt as oracle
from hypothesis import given
from hypothesis import strategies as st

from instahide.core import _draw_lambdas
from instahide.errors import ValidationError
from instahide.rng import Draws, RngStream, Streams, _states


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


def _numpy_state(seed, stream):
    return np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(4, np.uint64)


def test_state_replica_matches_numpy_seed_sequence():
    # the block path's bytes rest on this replica; a numpy release that
    # changes SeedSequence fails here first
    pairs = [(s, t) for s in BOUNDARY for t in BOUNDARY]
    gen = np.random.default_rng(20201026)
    pairs += [(int(s), int(t)) for s, t in gen.integers(0, 2**64, (200, 2), np.uint64)]
    pairs += [(int(s), int(t)) for s, t in gen.integers(0, 2**32, (50, 2), np.uint64)]
    for seed, stream in pairs:
        got = _states(seed, np.array([stream], dtype=np.uint64))[0]
        assert np.array_equal(got, _numpy_state(seed, stream)), (seed, stream)
    ids = np.array(BOUNDARY * 3, dtype=np.uint64)  # mixed one- and two-word ids in one block
    for seed in BOUNDARY:
        expect = np.stack([_numpy_state(seed, int(t)) for t in ids])
        assert np.array_equal(_states(seed, ids), expect)


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


def test_block_generators_draw_the_reference_bytes():
    streams = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12345]
    for seed in BOUNDARY:
        block = Streams(seed, streams)
        got = [g.bytes(64) for g in block.generators()]
        assert got == [RngStream(seed, s).generator().bytes(64) for s in streams]
    block = RngStream(1234).children("enc", ids=np.arange(40))
    for i, g in enumerate(block.generators()):
        assert g.bytes(64) == RngStream(1234).child("enc", i).generator().bytes(64)
    assert list(Streams(1, []).generators()) == []


def test_per_row_streams_are_opened_as_blocks(monkeypatch):
    # only per-epoch and per-call streams (perm, sgd, picks, probes) may go
    # through RngStream.generator; per-row keys are drawn by rng.Draws for a
    # whole Streams block, so the count must not grow with the number of rows
    # encrypted, and no row's own generator is opened
    from instahide import encrypt, stats, utility
    from instahide.core import make_gaussian_dataset

    calls, rows = [], []
    reference, per_row = RngStream.generator, Streams.generators
    monkeypatch.setattr(RngStream, "generator", lambda self: calls.append(1) or reference(self))
    monkeypatch.setattr(Streams, "generators", lambda self: (
        rows.append(1) or gen for gen in per_row(self)))

    def count(run, n):
        ds = make_gaussian_dataset(n, (1, 4, 4), RngStream(n, 1), classes=3)
        calls.clear()
        run(ds, n)
        assert not rows
        return len(calls)

    cfg = encrypt.SchemeConfig("inside", k=3, c1=0.65)
    model = utility.init_model(3, 16)
    runs = {
        "history": (lambda ds, n: encrypt.encrypt_history(ds, cfg, 2, RngStream(1)), 2),
        "train": (lambda ds, n: utility.train_encrypted(model, ds, cfg, 2, 0.1, RngStream(2)), 4),
        "evaluate": (lambda ds, n: utility.evaluate(
            model, ds, "encrypted", cfg, RngStream(3), ensemble=3, partner_pool=ds), 0),
        "protocol": (lambda ds, n: stats.indistinguishability_protocol(
            ds, cfg, RngStream(4), picks=3, encryptions_per_image=n // 5,
            probe_encryptions=5), 2),
    }
    for name, (run, expect) in runs.items():
        assert count(run, 50) == count(run, 100) == expect, name


# Each op as the replica runs it for a whole block, and as one row's own
# generator runs it in the encryption kernel (reference_encrypt._draw_lambda
# is the per-row rejection loop the kernel used before the block sampler).
BLOCK_OPS = {
    "choice": lambda draws, pop, size: draws.choice(pop, size),
    "integers": lambda draws, n: draws.choice(n, 1),  # one bounded draw, as integers(0, n)
    "lambda": lambda draws, k, c1, head: _draw_lambdas(draws, k, c1, head),
    "bits": lambda draws, d: draws.bits(d),
    "random": lambda draws, count: _random_then_advance(draws, count),
}
ROW_OPS = {
    "choice": lambda gen, pop, size: gen.choice(pop, size, replace=False),
    "integers": lambda gen, n: np.array([gen.integers(0, n)]),
    "lambda": lambda gen, k, c1, head: oracle._draw_lambda(gen, k, c1, head),
    "bits": lambda gen, d: gen.integers(0, 2, size=d, dtype=np.int8),
    "random": lambda gen, count: gen.random(count),
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
    draws, gens = Draws(block), list(block.generators())
    for op, *args in ops:
        got = BLOCK_OPS[op](draws, *args)
        for r, gen in enumerate(gens):
            expect = ROW_OPS[op](gen, *args)
            assert got[r].dtype == expect.dtype, (op, args)
            assert got[r].tobytes() == expect.tobytes(), (op, args, r)
        assert len(got) == len(gens)


KERNEL_SEQUENCES = {
    # one op list per case; the last op of each checks where the cursors ended
    # (bits leaves them alone: it is every caller's last draw)
    "lemire-rejections": [("choice", 2**31 + 1, 3), ("bits", 17)],  # ~1/2 rejected
    "floyd-collisions": [("choice", 6, 5), ("choice", 3, 3), ("bits", 5)],
    "odd-half-before-mask": [("integers", 7), ("bits", 5)],
    "odd-half-before-long-mask": [("choice", 9, 2), ("random", 3), ("bits", 3071)],
    "even-start-mask": [("integers", 5), ("integers", 5), ("random", 2), ("bits", 17)],
    "inside-k1": [("choice", 49, 0), ("lambda", 1, 1.0, 0.0), ("bits", 17)],
    "inside-k2": [("choice", 49, 1), ("lambda", 2, 0.65, 0.0), ("bits", 17)],
    "inside-k4": [("choice", 49, 3), ("lambda", 4, 0.65, 0.0), ("bits", 192)],
    "inside-k12": [("choice", 49, 11), ("lambda", 12, 0.12, 0.0), ("bits", 5)],
    "uniform-c1k1": [("choice", 49, 3), ("lambda", 4, 0.25, 0.0), ("bits", 17)],
    "cross": [("choice", 49, 1), ("choice", 30, 4), ("lambda", 6, 0.65, 0.3), ("bits", 17)],
    "cross-head": [("choice", 9, 1), ("choice", 3, 1), ("lambda", 3, 0.4, 0.75), ("bits", 5)],
    "cross-eval": [("integers", 40), ("choice", 30, 2), ("integers", 3)],
    "thin-lambda": [("lambda", 6, 0.2, 0.0), ("bits", 17)],
    "tail-shuffle": [("choice", 10_001, 201), ("integers", 10)],
}


@pytest.mark.parametrize("case", sorted(KERNEL_SEQUENCES))
def test_block_draws_match_each_rows_generator(case):
    rows = {"thin-lambda": 400, "inside-k12": 200, "tail-shuffle": 3}.get(case, 60)
    for seed in range(2):
        _assert_block_matches_rows(_random_block(rows, seed), KERNEL_SEQUENCES[case])


@pytest.mark.parametrize("rows", [0, 1])
def test_empty_and_one_row_blocks_match(rows):
    for ops in KERNEL_SEQUENCES.values():
        _assert_block_matches_rows(_random_block(rows, 7), ops)


def test_thin_lambda_rows_are_decided_at_every_stage():
    # the "thin-lambda" case above must reach each stage of the block
    # sampler: candidate 0, candidates 1-7, 8-255, and past the first batch
    k, c1 = 6, 0.2
    stages = set()
    for seed in range(2):
        for gen in _random_block(400, seed).generators():
            cand = gen.random((256, k))
            ok = (cand / cand.sum(axis=1, keepdims=True)).max(axis=1) <= c1
            first = int(np.argmax(ok)) if ok.any() else 256
            stages.add(0 if first == 0 else 1 if first < 8 else 8 if first < 256 else 256)
    assert stages == {0, 1, 8, 256}
