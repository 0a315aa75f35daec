import json

import numpy as np
import pytest

from instahide.cli import _parse_dims, leakage_guard, main
from instahide.ihds import load_dataset, save_dataset
from instahide.core import Dataset, make_gaussian_dataset
from instahide.errors import ValidationError
from instahide.rng import RngStream


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
    ],
    ids=["synthetic-dims", "patch-size", "k-over-candidates", "zero-trials", "class-index"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    save_dataset(make_gaussian_dataset(2, (1, 4, 4), RngStream(15), normalize=False),
                 tmp_path / "d.ihds")
    (tmp_path / "x.raw").write_bytes(bytes(4))
    (tmp_path / "y.csv").write_text("5\n")
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
