"""Reader fuzzing: a valid IHMD checkpoint (read by ``eval --model``), IHDS
dataset (read by ``encrypt --in``), ``.prov.csv`` provenance sidecar (read by
a cross ``encrypt --public``), ``key = value`` config file (read by
``encrypt --config``), raw u8 image file and label CSV (read by ``import
--raw`` and ``import --labels``), truncated, extended, with bytes flipped
or, in the text files, with a cell or value replaced, make their command
exit 0 or 2, never 1 and never with a traceback, and a run that exits 0
replays from its report's config to the same report and outputs. Examples
are derandomized, so every run tries the same files; drop ``derandomize``
and raise ``max_examples`` for a longer search. Options that set a run's
size (``--epochs``, ``--synthetic-n``) are flags, which win over the config
file, and each text file ends on a value whose growth is harmless, so no
mutation makes a run long."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instahide.cli import main
from instahide.core import make_gaussian_dataset
from instahide.ihds import save_dataset
from instahide.publicprep import build_patchset, save_patchset
from instahide.rng import RngStream
from instahide.utility import init_model, model_to_bytes


def _patchset_files() -> tuple[bytes, bytes]:
    """The IHDS file and the provenance sidecar of six 1x4x4 public patches."""
    sources = make_gaussian_dataset(6, (1, 6, 6), RngStream(3), normalize=False)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "public.ihds"
        save_patchset(build_patchset(sources, (4, 4), 1, RngStream(4), min_keypoints=0), path)
        return path.read_bytes(), Path(f"{path}.prov.csv").read_bytes()


def _dataset_file() -> bytes:
    """The IHDS file of four labelled 1x4x4 images."""
    ds = make_gaussian_dataset(4, (1, 4, 4), RngStream(2), classes=3)
    with tempfile.TemporaryDirectory() as root:
        return save_dataset(ds, Path(root) / "input.ihds").read_bytes()


PATCHES, SIDECAR = _patchset_files()
CONFIG = b"""# a small synthetic inside encryption
scheme = inside
k = 2
c1 = 0.65
c2 = 0.3
synthetic_dims = 1x4x4
synthetic_classes = 3
seed = 7
"""
_ENCRYPT = ["encrypt", "--synthetic-n", "4", "--epochs", "1", "--out", "{out}"]
RAW = bytes(range(0, 256, 4))  # four 1x4x4 images
LABELS = b"0\n2\n0.5,0.25,0.25\n1\n"  # class indices and a weight row, 3 classes
_IMPORT = ["import", "--dims", "1x4x4", "--out", "{out}"]

# reader -> (a valid file, the argv of the command that reads it from {path},
# the files written beside it in {root})
READERS = {
    "ihmd": (model_to_bytes(init_model(3, 16, RngStream(1), scale=0.5)),
             ["eval", "--model", "{path}", "--synthetic-n", "4", "--synthetic-dims", "1x4x4",
              "--synthetic-classes", "3"], {}),
    "ihds": (_dataset_file(),
             ["encrypt", "--in", "{path}", "--scheme", "mixup", "--k", "2", "--epochs", "1",
              "--out", "{out}"], {}),
    "prov.csv": (SIDECAR,
                 [*_ENCRYPT, "--public", "{root}/input", "--scheme", "cross", "--k", "4",
                  "--synthetic-dims", "1x4x4", "--synthetic-classes", "3"],
                 {"input": PATCHES}),
    "config": (CONFIG, [*_ENCRYPT, "--config", "{path}"], {}),
    "raw": (RAW, [*_IMPORT, "--raw", "{path}"], {}),
    "labels": (LABELS, [*_IMPORT, "--raw", "{root}/input", "--labels", "{path}", "--classes", "3"],
               {"input": RAW}),
}
TEXT = ("prov.csv", "config", "labels")


def _flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for at, bits in flips:
        out[at] ^= bits
    return bytes(out)


def _replace(blob: bytes, span, text: str) -> bytes:
    return blob[: span[0]] + text.encode() + blob[span[1]:]


def mutations(blob: bytes, text: bool = False):
    """The file cut short, with bytes appended, or with 1 to 4 bytes flipped;
    a text file also with one CSV cell or config key or value replaced by up
    to 4 characters."""
    n = len(blob)
    kinds = [
        st.integers(0, n - 1).map(lambda size: blob[:size]),
        st.binary(min_size=1, max_size=16).map(lambda tail: blob + tail),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)), min_size=1,
                 max_size=4).map(lambda flips: _flip(blob, flips)),
    ]
    if text:
        cells = [m.span() for m in re.finditer(rb"[^,=\n]+", blob)]
        kinds.append(st.builds(_replace, st.just(blob), st.sampled_from(cells),
                               st.text(max_size=4)))
    return st.one_of(*kinds)


def _write_inputs(reader: str, blob: bytes, root) -> list[str]:
    """Write ``blob`` and the files beside it into ``root``; the argv that reads them."""
    path, out = root / f"input.{reader}", root / "out.ihds"
    path.write_bytes(blob)
    for name, beside in READERS[reader][2].items():
        (root / name).write_bytes(beside)
    return [a.format(path=path, out=out, root=root) for a in READERS[reader][1]]


def _main(argv) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_reader(reader: str, blob: bytes, root) -> tuple[int, str]:
    """The exit code and stderr of the reader's command on ``blob``."""
    code, _, err = _main(_write_inputs(reader, blob, root))
    return code, err


def _outputs(root, inputs) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.name not in inputs}


def assert_replays(root, report: str, inputs) -> None:
    """Run a printed report's command again from its non-null config, as a
    config file (import takes none, so as flags), in place of the first run:
    it must print the same report and write the same outputs, byte for byte."""
    outputs = _outputs(root, inputs)
    for name in outputs:
        (root / name).unlink()
    parsed = json.loads(report)
    command = parsed["command"].split()
    values = {key: value for key, value in parsed["config"].items() if value is not None}
    if command == ["import"]:
        args = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    else:
        (root / "replay.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8")
        args = ["--config", str(root / "replay.cfg")]
    code, replayed, err = _main([*command, *args])
    assert (code, replayed) == (0, report), err
    assert _outputs(root, {*inputs, "replay.cfg"}) == outputs


@pytest.mark.parametrize("reader", list(READERS))
def test_the_valid_file_reads(tmp_path, reader):
    assert run_reader(reader, READERS[reader][0], tmp_path) == (0, "")


@pytest.mark.parametrize("reader", list(READERS))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_damaged_file_exits_0_or_2(tmp_path_factory, reader, data):
    blob = data.draw(mutations(READERS[reader][0], reader in TEXT), label="file")
    root = tmp_path_factory.mktemp(reader)
    argv = _write_inputs(reader, blob, root)
    inputs = {p.name for p in root.iterdir()}
    code, report, err = _main(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert_replays(root, report, inputs)


def test_a_checkpoint_weight_that_is_a_signalling_nan_exits_2(tmp_path):
    # casting a float32 signalling NaN to float64 warns "invalid value", which
    # the test run treats as an error: found by a 3,000-example random run of
    # the property above
    blob = bytearray(READERS["ihmd"][0])
    blob[10:14] = (0x7F800001).to_bytes(4, "little")  # W[0, 0]
    code, err = run_reader("ihmd", bytes(blob), tmp_path)
    assert code == 2 and "model weights must be finite" in err


def test_a_sidecar_cell_with_a_non_ascii_character_exits_2(tmp_path):
    # numpy's loadtxt crashed the process (SIGSEGV) on this cell on some runs:
    # found by a 3,000-example random run of the property above
    blob = SIDECAR.replace(b"\n", "\n0,2,1,\U000f2d0f&Uß\n".encode(), 1)
    code, err = run_reader("prov.csv", blob, tmp_path)
    assert code == 2 and "non-ASCII" in err and "input.prov.csv" in err


def test_a_sidecar_without_rows_exits_2_without_a_warning(tmp_path, recwarn):
    # loadtxt warned "input contained no data" before the patch count check
    code, err = run_reader("prov.csv", SIDECAR.splitlines(keepends=True)[0], tmp_path)
    assert code == 2 and "input.prov.csv" in err
    assert not recwarn.list


def test_a_config_with_a_zero_dimension_exits_2(tmp_path):
    # synthetic_dims = 1x0x4 reached the data generator and exited 1 ("zero-size
    # array to reduction"): found by a 3,000-example random run
    code, err = run_reader("config", CONFIG.replace(b"1x4x4", b"1x0x4"), tmp_path)
    assert code == 2 and "positive ints" in err


def test_a_label_csv_with_an_unclosed_quote_exits_2(tmp_path):
    # the quote joins every later row into one cell, and csv refuses a cell over
    # 131,072 characters; that exited 1 ("field larger than field limit")
    blob = LABELS.replace(b"2", b'"2', 1) + b"1\n" * 140_000
    code, err = run_reader("labels", blob, tmp_path)
    assert code == 2 and "bad label CSV" in err and "input.labels" in err


def test_a_config_path_with_a_null_byte_exits_2(tmp_path):
    # open() raises ValueError, not OSError, on a path holding a NUL byte, so an
    # input path read from a config file exited 1 ("embedded null byte")
    code, err = run_reader("config", CONFIG + b"in = a\x00b\n", tmp_path)
    assert code == 2 and "cannot read input file" in err and "embedded null byte" in err
