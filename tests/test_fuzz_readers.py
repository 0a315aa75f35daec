"""Reader fuzzing: a valid IHMD checkpoint (read by ``eval --model``) and a
valid IHDS dataset (read by ``encrypt --in``), truncated, extended or with
bytes flipped, make their command exit 0 or 2, never 1 and never with a
traceback. Examples are derandomized, so every run tries the same files;
drop ``derandomize`` and raise ``max_examples`` for a longer search."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instahide.cli import main
from instahide.core import make_gaussian_dataset
from instahide.ihds import dataset_to_bytes
from instahide.rng import RngStream
from instahide.utility import init_model, model_to_bytes

# reader -> (a valid file, the argv of the command that reads it from {path})
READERS = {
    "ihmd": (model_to_bytes(init_model(3, 16, RngStream(1), scale=0.5)),
             ["eval", "--model", "{path}", "--synthetic-n", "4", "--synthetic-dims", "1x4x4",
              "--synthetic-classes", "3"]),
    "ihds": (dataset_to_bytes(make_gaussian_dataset(4, (1, 4, 4), RngStream(2), classes=3)),
             ["encrypt", "--in", "{path}", "--scheme", "mixup", "--k", "2", "--epochs", "1",
              "--out", "{out}"]),
}


def _flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for at, bits in flips:
        out[at] ^= bits
    return bytes(out)


def mutations(blob: bytes):
    """The file cut short, with bytes appended, or with 1 to 4 bytes flipped."""
    n = len(blob)
    return st.one_of(
        st.integers(0, n - 1).map(lambda size: blob[:size]),
        st.binary(min_size=1, max_size=16).map(lambda tail: blob + tail),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)), min_size=1,
                 max_size=4).map(lambda flips: _flip(blob, flips)),
    )


def run_reader(reader: str, blob: bytes, root) -> tuple[int, str]:
    """The exit code and stderr of the reader's command on ``blob``."""
    path, out = root / f"input.{reader}", root / "out.ihds"
    path.write_bytes(blob)
    argv = [a.format(path=path, out=out) for a in READERS[reader][1]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("reader", list(READERS))
def test_the_valid_file_reads(tmp_path, reader):
    assert run_reader(reader, READERS[reader][0], tmp_path) == (0, "")


@pytest.mark.parametrize("reader", list(READERS))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_damaged_file_exits_0_or_2(tmp_path_factory, reader, data):
    blob = data.draw(mutations(READERS[reader][0]), label="file")
    code, err = run_reader(reader, blob, tmp_path_factory.mktemp(reader))
    assert code in (0, 2), err
    assert "Traceback" not in err


def test_a_checkpoint_weight_that_is_a_signalling_nan_exits_2(tmp_path):
    # casting a float32 signalling NaN to float64 warns "invalid value", which
    # the test run treats as an error: found by a 3,000-example random run of
    # the property above
    blob = bytearray(READERS["ihmd"][0])
    blob[10:14] = (0x7F800001).to_bytes(4, "little")  # W[0, 0]
    code, err = run_reader("ihmd", bytes(blob), tmp_path)
    assert code == 2 and "model weights must be finite" in err
