import inspect
import json

import numpy as np
import pytest

from instahide import cli
from instahide.cli import _parse_dims, leakage_guard, main
from instahide.ihds import load_dataset, save_dataset
from instahide.core import Dataset, make_gaussian_dataset
from instahide.errors import TruncatedFileError, ValidationError
from instahide.publicprep import build_patchset, save_patchset
from instahide.rng import RngStream
from instahide.utility import init_model, save_model


def run(args, capsys=None):
    code = main(args)
    out = capsys.readouterr().out if capsys else None
    return code, out


def read_report(path):
    return json.loads(path.read_text())


def test_encrypt_writes_dataset_and_report(tmp_path):
    out = tmp_path / "enc.ihds"
    rep = tmp_path / "rep.json"
    code = main(
        [
            "encrypt", "--out", str(out), "--report", str(rep),
            "--synthetic-n", "6", "--synthetic-dims", "3x8x8",
            "--epochs", "2", "--seed", "5",
        ]
    )
    assert code == 0
    assert out.exists() and out.with_suffix(".ihds.meta.txt").exists()
    ds = load_dataset(out)
    assert ds.n == 12  # 6 images x 2 epochs
    report = read_report(rep)
    assert report["command"] == "encrypt"
    assert report["config"]["k"] == 4
    assert report["config"]["seed"] == 5
    assert report["results"]["samples"] == 12


def test_report_goes_to_stdout_by_default(capsys):
    code = main(["stats", "concentration", "--d", "64", "--n", "10", "--trials", "500", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "stats concentration"
    assert set(report["results"]) >= {"chi_square", "inner_product", "bernstein"}


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("k = 3\nc1 = 0.8\nepochs = 1\nsynthetic-n = 6\n")
    rep = tmp_path / "r.json"
    code = main(
        [
            "encrypt", "--config", str(cfg), "--k", "2",
            "--out", str(tmp_path / "e.ihds"), "--report", str(rep),
            "--synthetic-dims", "1x4x4",
        ]
    )
    assert code == 0
    report = read_report(rep)
    assert report["config"]["k"] == 2        # flag beats file
    assert report["config"]["c1"] == 0.8     # file beats default
    assert report["config"]["epochs"] == 1


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("IH_SEED", "99")
    rep = tmp_path / "r.json"
    code = main(
        [
            "encrypt", "--seed", "7", "--out", str(tmp_path / "e.ihds"),
            "--report", str(rep), "--synthetic-n", "4",
            "--synthetic-dims", "1x4x4", "--epochs", "1",
        ]
    )
    assert code == 0
    assert read_report(rep)["config"]["seed"] == 99


def test_exit_codes():
    # argparse rejects unknown flags with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", "--bogus"])
    assert exc.value.code == 2


def test_validation_error_exit(tmp_path, capsys):
    # cross scheme with an infeasible pair floor
    code = main(
        [
            "encrypt", "--scheme", "cross", "--c2", "1.5",
            "--out", str(tmp_path / "x.ihds"), "--synthetic-n", "4",
            "--synthetic-dims", "1x4x4", "--epochs", "1",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "{absent}"],
        ["import", "--raw", "{absent}", "--dims", "3x4x4", "--out", "{out}"],
        ["encrypt", "--config", "{absent}", "--out", "{out}"],
    ],
    ids=["model", "raw", "config"],
)
def test_missing_file_exit(tmp_path, capsys, argv):
    paths = {"absent": tmp_path / "absent", "out": tmp_path / "o.ihds"}
    code = main([a.format(**paths) for a in argv])
    assert code == 2
    assert "error: cannot read input file" in capsys.readouterr().err


def test_import_and_prep_public_roundtrip(tmp_path):
    gen = RngStream(2).generator()
    raw = (gen.random(5 * 3 * 16 * 16) * 255).astype(np.uint8)
    raw_path = tmp_path / "x.raw"
    raw_path.write_bytes(raw.tobytes())
    labels = tmp_path / "y.csv"
    labels.write_text("\n".join(str(i % 3) for i in range(5)) + "\n")
    ds_path = tmp_path / "d.ihds"
    code = main(
        [
            "import", "--raw", str(raw_path), "--dims", "3x16x16",
            "--labels", str(labels), "--classes", "3", "--out", str(ds_path),
        ]
    )
    assert code == 0
    assert load_dataset(ds_path).n == 5

    patch_path = tmp_path / "p.ihpp"
    code = main(
        [
            "prep-public", "--in", str(ds_path), "--out", str(patch_path),
            "--patch-size", "8x8", "--per-image", "2", "--min-keypoints", "0",
            "--seed", "3",
        ]
    )
    assert code == 0
    assert patch_path.exists()


def test_train_and_eval_plain(tmp_path):
    ds = make_gaussian_dataset(30, (1, 4, 4), RngStream(4), classes=2)
    ds_path = tmp_path / "d.ihds"
    save_dataset(ds, ds_path)
    model_path = tmp_path / "m.ihmd"
    rep = tmp_path / "train.json"
    code = main(
        [
            "train", "--in", str(ds_path), "--plain", "--epochs", "5",
            "--lr", "0.1", "--out", str(model_path), "--report", str(rep),
            "--seed", "5",
        ]
    )
    assert code == 0
    assert "train_accuracy" in read_report(rep)["results"]
    rep2 = tmp_path / "eval.json"
    code = main(
        ["eval", "--model", str(model_path), "--in", str(ds_path), "--report", str(rep2)]
    )
    assert code == 0
    assert 0.0 <= read_report(rep2)["results"]["accuracy"] <= 1.0


def test_attack_pair_defaults_to_k2(tmp_path):
    rep = tmp_path / "r.json"
    code = main(
        [
            "attack", "pair", "--epochs", "10",
            "--synthetic-n", "30", "--synthetic-dims", "3x16x16",
            "--report", str(rep), "--seed", "6",
        ]
    )
    assert code == 0
    report = read_report(rep)
    assert report["config"]["k"] == 2
    assert report["results"]["params"]["k"] == 2
    assert report["results"]["metrics"]["precision"] in (None, pytest.approx(1.0, abs=0.10))


def test_attack_public_scan_report(tmp_path):
    rep = tmp_path / "r.json"
    code = main(
        [
            "attack", "public-scan", "--candidates", "200",
            "--synthetic-dims", "1x16x16", "--k", "3", "--report", str(rep),
            "--seed", "7",
        ]
    )
    assert code == 0
    report = read_report(rep)
    assert report["results"]["metrics"]["recall"] == 1.0
    assert len(report["results"]["ranks"]) == 3


def test_stats_ks_table_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    code = main(
        [
            "stats", "ks-table", "--out", str(csv_path), "--picks", "3",
            "--encryptions", "60", "--synthetic-n", "12",
            "--synthetic-dims", "1x8x8", "--seed", "8",
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("image,mean_all,mean_other")
    assert len(lines) == 4  # header + one row per picked image


def test_challenge_export_contains_no_plaintext(tmp_path):
    out = tmp_path / "challenge.ihds"
    rep = tmp_path / "r.json"
    code = main(
        [
            "challenge", "--n", "8", "--epochs", "3", "--out", str(out),
            "--synthetic-dims", "1x6x6", "--report", str(rep), "--seed", "9",
        ]
    )
    assert code == 0
    report = read_report(rep)
    assert report["results"]["samples"] == 24
    assert report["results"]["leakage_scan"] == "clean"
    ds = load_dataset(out)
    private = make_gaussian_dataset(8, (1, 6, 6), RngStream(9).child("synthetic"), classes=10)
    blob = out.read_bytes()
    for im in private.images:
        assert im.pixels.tobytes() not in blob
    assert ds.n == 24


def test_leakage_guard_trips_on_a_verbatim_private_row(tmp_path):
    private = make_gaussian_dataset(6, (1, 4, 4), RngStream(12), classes=3)
    other = make_gaussian_dataset(5, (1, 4, 4), RngStream(13), classes=3)
    leaky = Dataset(
        other.images[:2] + private.images[4:5] + other.images[2:],
        other.labels[:2] + private.labels[4:5] + other.labels[2:],
    )
    save_dataset(leaky, tmp_path / "leaky.ihds")
    with pytest.raises(RuntimeError, match="private image 4 appears verbatim"):
        leakage_guard(tmp_path / "leaky.ihds", private)
    save_dataset(other, tmp_path / "clean.ihds")
    leakage_guard(tmp_path / "clean.ihds", private)


def _guarded(tmp_path, rows, private):
    """leakage_guard over an IHDS file of float32 ``rows`` shaped like ``private``."""
    pixels = np.asarray(rows, np.float32).reshape(-1, *private.dims)
    save_dataset(Dataset(pixels), tmp_path / "out.ihds")
    leakage_guard(tmp_path / "out.ihds", private)


@pytest.mark.parametrize("where", [0, 9])
def test_leakage_guard_trips_at_the_first_and_last_row(tmp_path, where):
    private = make_gaussian_dataset(4, (1, 3, 3), RngStream(20))
    rows = make_gaussian_dataset(10, (1, 3, 3), RngStream(21)).matrix().copy()
    rows[where] = private.matrix()[2]
    with pytest.raises(RuntimeError, match="private image 2 appears verbatim"):
        _guarded(tmp_path, rows, private)


def test_leakage_guard_names_the_lowest_leaking_private_image(tmp_path):
    private = make_gaussian_dataset(6, (1, 3, 3), RngStream(22))
    rows = make_gaussian_dataset(8, (1, 3, 3), RngStream(23)).matrix().copy()
    rows[[1, 4, 6]] = private.matrix()[[5, 3, 4]]
    with pytest.raises(RuntimeError, match="private image 3 appears verbatim"):
        _guarded(tmp_path, rows, private)


def test_leakage_guard_compares_bits_not_sums_or_values(tmp_path):
    private = Dataset(np.array([[1.0, 2.0, 0.0, -0.0]], np.float32), dims=(1, 2, 2))
    words = private.matrix().view("<u4")
    # the same uint64 word sum as the private row: one word moved to another
    same_sum = words.copy()
    same_sum[0, :2] = words[0, 0] - 5, words[0, 1] + 5
    assert same_sum.sum(dtype=np.uint64) == words.sum(dtype=np.uint64)
    # equal as floats, but +0.0 and -0.0 swapped
    signed = np.array([[1.0, 2.0, -0.0, 0.0]], np.float32)
    _guarded(tmp_path, np.concatenate([same_sum.view("<f4"), signed]), private)
    with pytest.raises(RuntimeError, match="private image 0"):
        _guarded(tmp_path, np.concatenate([signed, private.matrix()]), private)


def test_leakage_guard_refuses_a_truncated_output(tmp_path):
    private = make_gaussian_dataset(3, (1, 3, 3), RngStream(24))
    save_dataset(make_gaussian_dataset(5, (1, 3, 3), RngStream(25)), tmp_path / "out.ihds")
    raw = (tmp_path / "out.ihds").read_bytes()
    (tmp_path / "out.ihds").write_bytes(raw[:-4])
    with pytest.raises(TruncatedFileError):
        leakage_guard(tmp_path / "out.ihds", private)


@pytest.mark.parametrize("command", ["encrypt", "challenge"])
def test_missing_or_truncated_input_exits_2(tmp_path, capsys, command):
    good = tmp_path / "d.ihds"
    save_dataset(make_gaussian_dataset(6, (1, 4, 4), RngStream(14), classes=3), good)
    truncated = tmp_path / "t.ihds"
    truncated.write_bytes(good.read_bytes()[:-5])
    for path in (tmp_path / "absent.ihds", truncated):
        code = main(
            [command, "--in", str(path), "--out", str(tmp_path / "o.ihds"), "--epochs", "1"]
        )
        assert code == 2
        assert "error: cannot read input file" in capsys.readouterr().err


def test_replay_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for base in (a, b):
        code = main(
            [
                "encrypt", "--out", str(base / "e.ihds"),
                "--synthetic-n", "5", "--synthetic-dims", "1x4x4",
                "--epochs", "2", "--seed", "11",
            ]
        )
        assert code == 0
    assert (a / "e.ihds").read_bytes() == (b / "e.ihds").read_bytes()


def test_nonfinite_input_file_exits_2(tmp_path, capsys):
    # a NaN pixel written past the IHDS writer's own check
    good = tmp_path / "good.ihds"
    save_dataset(make_gaussian_dataset(6, (3, 8, 8), RngStream(15), classes=3), good)
    raw = bytearray(good.read_bytes())
    raw[20:24] = np.array([np.nan], "<f4").tobytes()  # first pixel, after the header
    bad = tmp_path / "nan.ihds"
    bad.write_bytes(bytes(raw))
    model = tmp_path / "m.ihmd"
    assert main(["train", "--in", str(good), "--plain", "--epochs", "1", "--out", str(model)]) == 0
    out = str(tmp_path / "o")
    for argv in (
        ["encrypt", "--epochs", "1", "--out", out],
        ["challenge", "--epochs", "1", "--out", out],
        ["prep-public", "--patch-size", "4x4", "--out", out],
        ["train", "--epochs", "1", "--out", out],
        ["eval", "--model", str(model)],
    ):
        code = main(argv + ["--in", str(bad)])
        assert code == 2, argv[0]
        assert "pixels must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["encrypt", "--synthetic-dims", "3xax3", "--out", "{tmp}/o.ihds"],
        ["prep-public", "--in", "{tmp}/d.ihds", "--patch-size", "2xb", "--out", "{tmp}/p.ihds"],
        ["attack", "public-scan", "--candidates", "3", "--k", "5", "--synthetic-dims", "1x4x4"],
        ["attack", "similarity", "--trials", "0", "--sources", "4", "--source-dims", "1x8x8",
         "--patch-dims", "1x4x4"],
        ["import", "--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--labels", "{tmp}/y.csv",
         "--classes", "3", "--out", "{tmp}/i.ihds"],
        ["import", "--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--labels", "{tmp}/w.csv",
         "--out", "{tmp}/i.ihds"],
        ["import", "--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--labels", "{tmp}/v.csv",
         "--classes", "3", "--out", "{tmp}/i.ihds"],
        ["encrypt", "--epochs", "0", "--synthetic-n", "4", "--synthetic-dims", "1x4x4",
         "--out", "{tmp}/o.ihds"],
        ["challenge", "--epochs", "0", "--n", "4", "--synthetic-dims", "1x4x4",
         "--out", "{tmp}/c.ihds"],
        ["challenge", "--epochs", "-1", "--n", "4", "--synthetic-dims", "1x4x4",
         "--out", "{tmp}/c.ihds"],
        ["train", "--epochs", "-2", "--synthetic-n", "4", "--synthetic-dims", "1x4x4",
         "--out", "{tmp}/m.bin"],
        ["encrypt", "--scheme", "cross", "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p4.ihds",
         "--epochs", "1", "--out", "{tmp}/o.ihds"],
        ["challenge", "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p4.ihds", "--epochs", "1",
         "--out", "{tmp}/c.ihds"],
        ["train", "--scheme", "cross", "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p4.ihds",
         "--epochs", "1", "--out", "{tmp}/m.bin"],
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "encrypted", "--scheme", "cross",
         "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p4.ihds"],
        ["attack", "pair", "--threshold", "nan", "--synthetic-n", "4", "--synthetic-dims",
         "1x4x4", "--epochs", "1"],
        ["attack", "public-scan", "--candidates", "200", "--threshold", "nan"],
        ["attack", "pair", "--threshold", "inf", "--synthetic-n", "4", "--synthetic-dims",
         "1x4x4", "--epochs", "1"],
        ["attack", "public-scan", "--candidates", "200", "--threshold=-inf"],
        ["encrypt", "--synthetic-n", "0", "--synthetic-dims", "1x4x4", "--epochs", "1",
         "--out", "{tmp}/z.ihds"],
        ["encrypt", "--scheme", "mixup", "--synthetic-n", "0", "--synthetic-dims", "1x4x4",
         "--epochs", "1", "--out", "{tmp}/z.ihds"],
        ["encrypt", "--synthetic-n", "-2", "--synthetic-dims", "1x4x4", "--epochs", "1",
         "--out", "{tmp}/z.ihds"],
        ["train", "--synthetic-n", "0", "--synthetic-dims", "1x4x4", "--epochs", "1",
         "--out", "{tmp}/m.bin"],
        ["attack", "pair", "--synthetic-n", "0", "--synthetic-dims", "1x4x4", "--epochs", "1"],
        ["challenge", "--n", "0", "--synthetic-dims", "1x4x4", "--epochs", "1",
         "--out", "{tmp}/c.ihds"],
        ["attack", "grad-match", "--steps", "-3", "--synthetic-dims", "1x4x4"],
        ["attack", "grad-match", "--lr", "0", "--steps", "5", "--synthetic-dims", "1x4x4"],
        ["attack", "grad-match", "--lr=-1", "--steps", "5", "--synthetic-dims", "1x4x4"],
        ["attack", "grad-match", "--lr", "nan", "--steps", "5", "--synthetic-dims", "1x4x4"],
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "weak", "--in", "{tmp}/p8.ihds"],
        ["attack", "averaging", "--mode", "encrypted", "--k", "2", "--synthetic-n", "4",
         "--synthetic-dims", "1x4x4", "--epochs", "1"],
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "encrypted", "--synthetic-n", "2",
         "--synthetic-dims", "3x8x8", "--k", "4"],
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "encrypted", "--scheme", "cross",
         "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p416.ihds"],
    ],
    ids=["synthetic-dims", "patch-size", "k-over-candidates", "zero-trials", "class-index",
         "weight-not-a-number", "weight-width", "encrypt-zero-epochs", "challenge-zero-epochs",
         "challenge-negative-epochs", "train-negative-epochs", "encrypt-public-dims",
         "challenge-public-dims", "train-public-dims", "eval-public-dims", "pair-nan-threshold",
         "public-scan-nan-threshold", "pair-inf-threshold", "public-scan-inf-threshold",
         "encrypt-empty-synthetic", "mixup-empty-synthetic", "encrypt-negative-synthetic",
         "train-empty-synthetic", "pair-empty-synthetic", "challenge-empty-synthetic",
         "grad-match-negative-steps", "grad-match-zero-lr", "grad-match-negative-lr",
         "grad-match-nan-lr", "eval-averaging-mode", "averaging-eval-mode",
         "eval-small-pool", "eval-public-shape"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    save_dataset(make_gaussian_dataset(2, (1, 4, 4), RngStream(15), normalize=False),
                 tmp_path / "d.ihds")
    # a labelled 3x8x8 private set, 3x4x4 public patches and a model for d = 192
    save_dataset(make_gaussian_dataset(4, (3, 8, 8), RngStream(16), classes=2),
                 tmp_path / "p8.ihds")
    patches = make_gaussian_dataset(8, (3, 4, 4), RngStream(17), normalize=False)
    save_patchset(build_patchset(patches, (4, 4), 1, RngStream(18), min_keypoints=0),
                  tmp_path / "p4.ihds")
    # 3x4x16 patches: the private set's d = 192, other dims
    wide = make_gaussian_dataset(8, (3, 4, 16), RngStream(19), normalize=False)
    save_patchset(build_patchset(wide, (4, 16), 1, RngStream(18), min_keypoints=0),
                  tmp_path / "p416.ihds")
    save_model(init_model(2, 192), tmp_path / "m192.ihmd")
    (tmp_path / "x.raw").write_bytes(bytes(4))
    (tmp_path / "y.csv").write_text("5\n")
    (tmp_path / "w.csv").write_text("0.5,x,0.5\n")
    (tmp_path / "v.csv").write_text("0.5,0.5\n")
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def _strict_json(path):
    """The report at ``path``, refusing the NaN and Infinity that strict parsers refuse."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "pair", "--k", "1", "--c1", "1", "--synthetic-n", "1"],  # no pairs
        ["attack", "pair", "--synthetic-n", "4"],
        ["attack", "public-scan", "--candidates", "50"],
    ],
    ids=["pair-no-pairs", "pair", "public-scan"],
)
def test_attack_reports_are_strict_json(tmp_path, argv):
    report = tmp_path / "r.json"
    argv = [*argv, "--synthetic-dims", "1x4x4", "--report", str(report)]
    assert main(argv + (["--epochs", "1"] if argv[1] == "pair" else [])) == 0
    threshold = _strict_json(report)["results"]["params"]["threshold"]
    assert (threshold is None) == (argv[2:4] == ["--k", "1"])


def test_parse_dims_allows_spaces_and_refuses_non_digits():
    for text in ("3x32x32", "3 x 32 x 32", "3x 32x32", "3,32,32"):
        assert _parse_dims(text) == (3, 32, 32), text
    assert _parse_dims(" 8 x8", "HxW") == (8, 8)
    for text in ("3xax3", "3x-1x3", "3x x3", "3x32", "3x3x3x3"):
        with pytest.raises(ValidationError):
            _parse_dims(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["challenge", "--out", "o.ihds", "--scheme", "mixup"],
        ["challenge", "--out", "o.ihds", "--synthetic-n", "4"],
        ["attack", "pair", "--scheme", "inside"],
        ["attack", "averaging", "--scheme", "inside"],
        ["attack", "averaging", "--c2", "0.3"],
        ["attack", "grad-match", "--synthetic-n", "4"],
        ["import", "--raw", "x.raw", "--dims", "1x2x2", "--out", "o", "--config", "c.cfg"],
    ],
    ids=["challenge-scheme", "challenge-synthetic-n", "pair-scheme", "averaging-scheme",
         "averaging-c2", "grad-match-synthetic-n", "import-config"],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_attack_averaging_reconstruction_out_replays(tmp_path, monkeypatch):
    save_dataset(make_gaussian_dataset(8, (3, 4, 4), RngStream(16), classes=2),
                 tmp_path / "private.ihds")
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([
            "attack", "averaging", "--in", "../private.ihds", "--epochs", "6", "--k", "2",
            "--seed", "17", "--reconstruction-out", "rec.ihds", "--report", "report.json",
        ]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "rec.ihds").read_bytes() == (b / "rec.ihds").read_bytes()
    assert read_report(a / "report.json")["results"]["reconstruction_path"] == "rec.ihds"
    rec = load_dataset(a / "rec.ihds")
    assert rec.n == 1 and rec.dims == (3, 4, 4)


SCHEME = ("scheme", "k", "c1", "c2")
SYNTHETIC = ("synthetic_n", "synthetic_dims", "synthetic_classes")
# every command: argv that runs it in well under a second, the options its
# report takes from CONFIG, and the rest of its report's config, which comes
# from its flags or its defaults (CONFIG's scheme is mixup, which reads no
# --public, so the reports of encrypt, train, eval and ks-table leave it out)
COMMANDS = {
    "import": (["--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--out", "{tmp}/i.ihds"], set(),
               {"raw": "{tmp}/x.raw", "dims": "1x2x2", "labels": None, "classes": None,
                "out": "{tmp}/i.ihds"}),
    "prep-public": (["--in", "{tmp}/d.ihds", "--patch-size", "2x2", "--min-keypoints", "0",
                     "--out", "{tmp}/p.ihds"], {"per_image"},
                    {"in": "{tmp}/d.ihds", "out": "{tmp}/p.ihds", "patch_size": "2x2",
                     "min_keypoints": 0}),
    "encrypt": (["--out", "{tmp}/e.ihds"], {*SCHEME, "epochs", *SYNTHETIC},
                {"in": None, "out": "{tmp}/e.ihds"}),
    "train": (["--out", "{tmp}/m.ihmd"], {*SCHEME, "epochs", "lr", *SYNTHETIC},
              {"in": None, "plain": False, "out": "{tmp}/m.ihmd"}),
    "eval": (["--model", "{tmp}/m16.ihmd"], {*SYNTHETIC},
             {"model": "{tmp}/m16.ihmd", "in": None, "mode": "plain"}),
    "attack pair": ([], {"k", "c1", "epochs", "delta", *SYNTHETIC},
                    {"in": None, "threshold": None, "reconstruction_out": None}),
    "attack public-scan": (["--candidates", "20"], {"k", "delta", "synthetic_dims"},
                           {"public": None, "candidates": 20, "threshold": None}),
    "attack braverman": (["--candidates", "20"], {"k", "c1", "synthetic_dims"},
                         {"public": None, "candidates": 20}),
    "attack averaging": ([], {"k", "c1", "epochs", "oracle_p", "m", "target", *SYNTHETIC},
                         {"in": None, "mode": "strong", "reconstruction_out": None}),
    "attack similarity": (["--trials", "2", "--sources", "20", "--source-dims", "1x8x8",
                           "--patch-dims", "1x4x4"], {"k", "c1", "c2", "oracle_p", "m"},
                          {"trials": 2, "sources": 20, "source_dims": "1x8x8",
                           "patch_dims": "1x4x4"}),
    "attack grad-match": (["--steps", "5"], {"lr", "synthetic_dims", "synthetic_classes"},
                          {"steps": 5, "reconstruction_out": None}),
    "stats ks-table": (["--out", "{tmp}/t.csv", "--picks", "2", "--encryptions", "60"],
                       {*SCHEME, *SYNTHETIC},
                       {"in": None, "out": "{tmp}/t.csv", "picks": 2,
                        "encryptions": 60}),
    "stats concentration": (["--d", "16", "--n", "4"], {"delta", "trials", "beta", "k"},
                            {"d": 16, "n": 4}),
    "stats theorem-gap": (["--which", "pair", "--d", "16", "--n", "4"],
                          {"delta", "trials", "beta", "k"}, {"which": "pair", "d": 16, "n": 4}),
    "challenge": (["--out", "{tmp}/c.ihds"], {"k", "c1", "c2", "epochs", *SYNTHETIC},
                  {"in": None, "public": None, "out": "{tmp}/c.ihds"}),
}
# eval and train in their other mode (eval runs plain by default, train encrypted);
# plain mode reads no scheme, ensemble or public option, so its report leaves them out
MODES = {
    "eval --mode encrypted": (["--model", "{tmp}/m16.ihmd", "--mode", "encrypted"],
                              {*SCHEME, "ensemble", *SYNTHETIC},
                              {"model": "{tmp}/m16.ihmd", "in": None, "mode": "encrypted"}),
    "train --plain": (["--plain", "--out", "{tmp}/m.ihmd"], {"epochs", "lr", *SYNTHETIC},
                      {"in": None, "plain": True, "out": "{tmp}/m.ihmd"}),
}
# a value for every option that no command or built-in default takes
CONFIG = {"scheme": "mixup", "k": 3, "c1": 0.6, "c2": 0.25, "epochs": 2, "seed": 5,
          "delta": 0.02, "beta": 3.0, "trials": 200, "oracle_p": 0.1, "m": 3, "lr": 0.07,
          "ensemble": 2, "synthetic_n": 6, "synthetic_dims": "1x4x4", "synthetic_classes": 3,
          "per_image": 2, "target": 1}


def _write_inputs(root):
    """The input files that the COMMANDS and MODES argv name."""
    save_dataset(make_gaussian_dataset(2, (1, 4, 4), RngStream(15), normalize=False),
                 root / "d.ihds")
    save_model(init_model(3, 16), root / "m16.ihmd")
    (root / "x.raw").write_bytes(bytes(4))


@pytest.mark.parametrize("case", [*COMMANDS, *MODES])
def test_each_option_comes_from_its_flag_else_the_config_file(tmp_path, capsys, monkeypatch,
                                                              case):
    monkeypatch.delenv("IH_SEED", raising=False)
    argv, from_config, rest = {**COMMANDS, **MODES}[case]
    command = case.split(" -")[0]
    _write_inputs(tmp_path)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("".join(f"{key.replace('_', '-')} = {value}\n" for key, value in CONFIG.items()))
    argv = [*command.split(), *(a.format(tmp=tmp_path) for a in argv)]
    expected = {name: CONFIG[name] for name in from_config}
    expected.update({name: v.format(tmp=tmp_path) if isinstance(v, str) else v
                     for name, v in rest.items()})
    if command != "import":  # import takes neither --config nor --seed
        argv += ["--config", str(cfg), "--seed", "9"]
        expected["seed"] = 9
    assert main(argv) == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == command
    assert set(report["config"]) == set(expected)
    assert report["config"] == expected


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("case", [case for case in [*COMMANDS, *MODES] if case != "import"])
def test_every_report_replays_from_its_config(tmp_path, monkeypatch, case):
    # a report's non-null config, written as a config file, is the whole run:
    # replayed in a fresh directory with the same inputs, it writes the same bytes
    monkeypatch.delenv("IH_SEED", raising=False)
    command = case.split(" -")[0].split()
    run, replay = tmp_path / "run", tmp_path / "replay"
    for root in (run, replay):
        root.mkdir()
        _write_inputs(root)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG.items()))
    monkeypatch.chdir(run)
    argv = [a.format(tmp=".") for a in {**COMMANDS, **MODES}[case][0]]
    assert main([*command, *argv, "--config", str(cfg), "--seed", "9",
                 "--report", "report.json"]) == 0
    config = read_report(run / "report.json")["config"]
    monkeypatch.chdir(replay)
    (replay / "replay.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in config.items() if value is not None)
    )
    assert main([*command, "--config", "replay.cfg", "--report", "report.json"]) == 0
    (replay / "replay.cfg").unlink()
    assert _files(replay) == _files(run)


def test_command_table_declares_every_flag():
    read = set()
    for command, (handler, _, _) in cli.COMMANDS.items():
        names = [name for name, _, _ in cli.command_flags(command)]
        assert len(set(names)) == len(names) and set(names) <= set(cli.OPTIONS), command
        assert set(cli.COMMAND_DEFAULTS.get(command, {})) <= set(names), command
        read.update(names)
    assert read == set(cli.OPTIONS)  # no option is left unregistered
    assert set(cli.COMMAND_DEFAULTS) <= set(cli.COMMANDS)
    handlers = {handler for handler, _, _ in cli.COMMANDS.values()}
    assert handlers == {name for name, obj in vars(cli).items()
                        if name.startswith("cmd_") and inspect.isfunction(obj)}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert "--report" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["stats", "theorem-gap", "--d", "16", "--n", "4"], "--which"),
        (["encrypt", "--synthetic-n", "4"], "--out"),
        (["prep-public", "--out", "p.ihds"], "--in"),
        (["eval"], "--model"),
        (["import", "--dims", "1x2x2", "--out", "i.ihds"], "--raw"),
        (["import", "--raw", "x.raw"], "--dims, --out"),
    ],
    ids=["which", "out", "in", "model", "raw", "dims-and-out"],
)
def test_a_missing_required_option_exits_2_and_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: missing required option {flag} (flag or config)\n"


@pytest.mark.parametrize(
    "line, env_seed",
    [("k = four", None), ("epochs = 1.5", None), ("scheme = bogus", None),
     ("epoch = 2", None), ("", "abc"), ("plain = yes", None)],
    ids=["int-word", "int-fraction", "scheme-choice", "unknown-key", "env-seed", "bool-word"],
)
def test_config_values_are_typed_like_flags(tmp_path, capsys, monkeypatch, line, env_seed):
    if env_seed is None:
        monkeypatch.delenv("IH_SEED", raising=False)
    else:
        monkeypatch.setenv("IH_SEED", env_seed)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(line + "\n")
    code = main(["encrypt", "--config", str(cfg), "--synthetic-n", "4", "--synthetic-dims",
                 "1x4x4", "--out", str(tmp_path / "e.ihds")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_bytes(b"k = 3\n\xff\xfe = 1\n")
    code = main(["stats", "concentration", "--d", "8", "--n", "4", "--trials", "10",
                 "--config", str(cfg)])
    assert code == 2
    assert f"error: cannot read input file {cfg}: not UTF-8 text" in capsys.readouterr().err


def test_non_utf8_labels_csv_exits_2(tmp_path, capsys):
    (tmp_path / "x.raw").write_bytes(bytes(8))
    labels = tmp_path / "y.csv"
    labels.write_bytes(b"0\n\xe9\n")
    code = main(["import", "--raw", str(tmp_path / "x.raw"), "--dims", "1x2x2",
                 "--labels", str(labels), "--classes", "3", "--out", str(tmp_path / "i.ihds")])
    assert code == 2
    assert f"error: cannot read input file {labels}: not UTF-8 text" in capsys.readouterr().err
    assert _files(tmp_path) == ["x.raw", "y.csv"]


def test_non_integer_provenance_cell_exits_2(tmp_path, capsys):
    patches = make_gaussian_dataset(4, (1, 4, 4), RngStream(30), normalize=False)
    _, sidecar = save_patchset(build_patchset(patches, (4, 4), 1, RngStream(31),
                                              min_keypoints=0), tmp_path / "p.ihds")
    lines = sidecar.read_text().splitlines()
    lines[2] = "1,0,x,7"
    sidecar.write_text("\n".join(lines) + "\n")
    code = main(["attack", "public-scan", "--public", str(tmp_path / "p.ihds"), "--k", "2",
                 "--synthetic-dims", "1x4x4"])
    assert code == 2
    assert f"error: cannot read input file {sidecar}: bad provenance row" in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "out, report",
    [("nodir/o.ihds", "r.json"), ("o.ihds", "nodir/r.json"), ("d", "r.json"), ("o.ihds", "d")],
    ids=["out-in-missing-dir", "report-in-missing-dir", "out-is-a-dir", "report-is-a-dir"],
)
def test_unopenable_output_exits_2_and_writes_nothing(tmp_path, capsys, out, report):
    (tmp_path / "d").mkdir()
    code = main(["encrypt", "--synthetic-n", "4", "--synthetic-dims", "1x4x4", "--epochs", "1",
                 "--out", str(tmp_path / out), "--report", str(tmp_path / report)])
    assert code == 2
    assert "error: cannot write output file" in capsys.readouterr().err
    assert _files(tmp_path) == ["d"] and _files(tmp_path / "d") == []


def test_tripped_guard_keeps_the_earlier_release(tmp_path, monkeypatch):
    out, meta = tmp_path / "c.ihds", tmp_path / "c.ihds.meta.txt"
    argv = ["challenge", "--n", "6", "--synthetic-dims", "1x4x4", "--out", str(out)]
    assert main(argv + ["--epochs", "1"]) == 0
    before = out.read_bytes(), meta.read_bytes()
    export = cli._export

    def leaky(opts, rng, private, cfg, publicset):
        results = export(opts, rng, private, cfg, publicset)  # stages a clean release
        save_dataset(private, opts["out"])  # then overwrites it with the private set
        return results

    monkeypatch.setattr(cli, "_export", leaky)
    assert main(argv + ["--epochs", "2", "--report", str(tmp_path / "r.json")]) == 1
    assert (out.read_bytes(), meta.read_bytes()) == before
    assert _files(tmp_path) == ["c.ihds", "c.ihds.meta.txt"]


def test_encrypt_in_place_matches_two_paths(tmp_path):
    data = make_gaussian_dataset(5, (1, 4, 4), RngStream(32), classes=3)
    for name in ("same.ihds", "in.ihds"):
        save_dataset(data, tmp_path / name)
    run = ["encrypt", "--epochs", "2", "--seed", "4", "--in"]
    assert main(run + [str(tmp_path / "same.ihds"), "--out", str(tmp_path / "same.ihds")]) == 0
    assert main(run + [str(tmp_path / "in.ihds"), "--out", str(tmp_path / "out.ihds")]) == 0
    for suffix in ("", ".meta.txt"):
        assert ((tmp_path / f"same.ihds{suffix}").read_bytes()
                == (tmp_path / f"out.ihds{suffix}").read_bytes())
    assert not list(tmp_path.glob("*.tmp"))
