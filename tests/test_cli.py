import inspect
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from instahide import cli
from instahide.attacks import SignOracle, similarity_search_attack
from instahide.cli import _parse_dims, leakage_guard, main
from instahide.ihds import load_dataset, save_dataset
from instahide.core import Dataset, Image, make_gaussian_dataset
from instahide.encrypt import SchemeConfig, encrypt_sample
from instahide.errors import TruncatedFileError, ValidationError
from instahide.publicprep import build_patchset, save_patchset
from instahide.rng import RngStream
from instahide.utility import init_model, model_to_bytes, save_model


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
    code = main(["stats", "concentration", "--d", "64", "--trials", "500", "--seed", "1"])
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


def test_prep_public_reports_kept_over_candidates_as_retention(tmp_path):
    # a flat source's crop has no keypoints: 4 of 5 candidates are kept
    flat = Image(np.zeros(3 * 40 * 40, np.float32), (3, 40, 40))
    noisy = make_gaussian_dataset(4, (3, 40, 40), RngStream(103), normalize=False)
    source = save_dataset(Dataset((flat,) + noisy.images), tmp_path / "d.ihds")
    rep = tmp_path / "r.json"
    code = main(["prep-public", "--in", str(source), "--patch-size", "32x32", "--per-image", "1",
                 "--min-keypoints", "40", "--out", str(tmp_path / "p.ihds"), "--report", str(rep)])
    assert code == 0
    results = read_report(rep)["results"]
    assert (results["candidates"], results["kept"]) == (5, 4)
    assert results["retention"] == 4 / 5 == pytest.approx(0.8)


def test_braverman_with_every_candidate_a_member_reports_a_null_median(capsys):
    code = main(["attack", "braverman", "--candidates", "4", "--k", "4",
                 "--synthetic-dims", "1x4x4"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["ranks"] == [1, 2, 3, 4] and sorted(results["true_members"]) == [0, 1, 2, 3]
    assert results["metrics"] == {"median_member_rank": 2.5, "median_nonmember_rank": None}


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


def _public_scan_recalls(tmp_path, scheme):
    rep = tmp_path / "r.json"
    code = main(
        [
            "attack", "public-scan", "--scheme", scheme, "--k", "2", "--trials", "4",
            "--candidates", "200", "--synthetic-dims", "1x16x16", "--report", str(rep),
            "--seed", "7",
        ]
    )
    assert code == 0
    results = read_report(rep)["results"]
    assert results["trials"] == len(results["reports"]) == 4
    for report in results["reports"]:
        assert len(report["ranks"]) == len(set(report["true_members"])) == 2
    return results["mean_recall"], [report["metrics"]["recall"] for report in results["reports"]]


def test_attack_public_scan_report(tmp_path):
    # each trial's query is a kernel row: the scan finds every source of a Mixup
    assert _public_scan_recalls(tmp_path, "mixup") == (1.0, [1.0] * 4)


def test_attack_public_scan_finds_no_source_of_a_masked_mix(tmp_path):
    assert _public_scan_recalls(tmp_path, "inside") == (0.0, [0.0] * 4)


def test_attack_public_scan_refuses_cross_naming_the_schemes_it_runs(tmp_path, capsys):
    # its queries mix pool rows only, so --public is its pool, not a cross scheme's patches
    code = main(["attack", "public-scan", "--scheme", "cross", "--candidates", "20",
                 "--synthetic-dims", "1x4x4"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: attack public-scan runs the mixup or inside scheme, got cross\n")


def test_attack_pair_refuses_cross_naming_the_schemes_it_runs(capsys):
    # pair mixes history rows only and reads no --public, at any k
    for k in ("2", "3"):
        code = main(["attack", "pair", "--scheme", "cross", "--k", k, "--synthetic-n", "4",
                     "--synthetic-dims", "1x4x4", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: attack pair runs the mixup or inside scheme, got cross\n")


# the paper's mask claim at tiny sizes: the inner-product attacks on Mixup
# and on InstaHide's masked mixes, across k
SWEEP = [
    *(["attack", "public-scan", "--scheme", scheme, "--k", str(k), "--candidates", "50",
       "--trials", "2", "--synthetic-dims", "1x4x4"]
      for scheme in ("mixup", "inside") for k in (2, 4, 6)),
    *(["attack", "pair", "--scheme", scheme, "--synthetic-n", "8", "--epochs", "3"]
      for scheme in ("mixup", "inside")),
]


def test_attack_sweep_commands_run_and_replay(tmp_path, monkeypatch):
    monkeypatch.delenv("IH_SEED", raising=False)
    run, replay, cfg = tmp_path / "run.json", tmp_path / "replay.json", tmp_path / "replay.cfg"
    for argv in SWEEP:
        assert main([*argv, "--report", str(run)]) == 0, argv
        config = read_report(run)["config"]
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()
                               if value is not None))
        assert main([*argv[:2], "--config", str(cfg), "--report", str(replay)]) == 0, argv
        assert replay.read_bytes() == run.read_bytes(), argv


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
        ["attack", "public-scan", "--scheme", "cross", "--public", "{tmp}/p4.ihds",
         "--synthetic-dims", "3x4x4"],
        ["attack", "public-scan", "--trials", "0", "--candidates", "20", "--synthetic-dims",
         "1x4x4"],
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
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "encrypted", "--synthetic-n", "2",
         "--synthetic-dims", "3x8x8", "--k", "4"],
        ["eval", "--model", "{tmp}/m192.ihmd", "--mode", "encrypted", "--scheme", "cross",
         "--in", "{tmp}/p8.ihds", "--public", "{tmp}/p416.ihds"],
    ],
    ids=["synthetic-dims", "patch-size", "k-over-candidates", "public-scan-cross",
         "public-scan-zero-trials", "zero-trials", "class-index",
         "weight-not-a-number", "weight-width", "encrypt-zero-epochs", "challenge-zero-epochs",
         "challenge-negative-epochs", "train-negative-epochs", "encrypt-public-dims",
         "challenge-public-dims", "train-public-dims", "eval-public-dims", "pair-nan-threshold",
         "public-scan-nan-threshold", "pair-inf-threshold", "public-scan-inf-threshold",
         "encrypt-empty-synthetic", "mixup-empty-synthetic", "encrypt-negative-synthetic",
         "train-empty-synthetic", "pair-empty-synthetic", "challenge-empty-synthetic",
         "grad-match-negative-steps", "grad-match-zero-lr", "grad-match-negative-lr",
         "grad-match-nan-lr", "eval-small-pool", "eval-public-shape"],
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
    results = _strict_json(report)["results"]
    params = results["reports"][0]["params"] if "reports" in results else results["params"]
    assert (params["threshold"] is None) == (argv[2:4] == ["--k", "1"])


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
        ["attack", "pair", "--c2", "0.3"],
        ["attack", "averaging", "--scheme", "inside"],
        ["attack", "averaging", "--c2", "0.3"],
        ["attack", "grad-match", "--synthetic-n", "4"],
        ["import", "--raw", "x.raw", "--dims", "1x2x2", "--out", "o", "--config", "c.cfg"],
        # the attacks and the KS table read no label
        ["attack", "pair", "--synthetic-classes", "2147483648"],
        ["attack", "averaging", "--synthetic-classes", "2147483648"],
        ["stats", "ks-table", "--out", "t.csv", "--synthetic-classes", "3"],
    ],
    ids=["challenge-scheme", "challenge-synthetic-n", "pair-c2", "averaging-scheme",
         "averaging-c2", "grad-match-synthetic-n", "import-config", "pair-synthetic-classes",
         "averaging-synthetic-classes", "ks-table-synthetic-classes"],
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


SCHEME = ("scheme", "k", "c1")
SYNTHETIC = ("synthetic_n", "synthetic_dims")  # and synthetic_classes where labels are read
LABELLED = (*SYNTHETIC, "synthetic_classes")
# every command: argv that runs it in well under a second, the options its
# report takes from CONFIG, and the rest of its report's config, which comes
# from its flags or its defaults (CONFIG's scheme is mixup, which reads no
# c2 or --public, so the reports of encrypt, train, eval and ks-table leave
# them out)
COMMANDS = {
    "import": (["--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--out", "{tmp}/i.ihds"], set(),
               {"raw": "{tmp}/x.raw", "dims": "1x2x2", "labels": None, "out": "{tmp}/i.ihds"}),
    "prep-public": (["--in", "{tmp}/d.ihds", "--patch-size", "2x2", "--min-keypoints", "0",
                     "--out", "{tmp}/p.ihds"], {"per_image"},
                    {"in": "{tmp}/d.ihds", "out": "{tmp}/p.ihds", "patch_size": "2x2",
                     "min_keypoints": 0}),
    "encrypt": (["--out", "{tmp}/e.ihds"], {*SCHEME, "epochs", *LABELLED},
                {"in": None, "out": "{tmp}/e.ihds"}),
    "train": (["--out", "{tmp}/m.ihmd"], {*SCHEME, "epochs", "lr", *LABELLED},
              {"in": None, "plain": False, "out": "{tmp}/m.ihmd"}),
    "eval": (["--model", "{tmp}/m16.ihmd"], {*LABELLED},
             {"model": "{tmp}/m16.ihmd", "in": None, "mode": "plain"}),
    "attack pair": ([], {"scheme", "k", "c1", "epochs", "delta", *SYNTHETIC},
                    {"in": None, "threshold": None, "reconstruction_out": None}),
    "attack public-scan": (["--candidates", "20"],
                           {"scheme", "k", "c1", "trials", "delta", "synthetic_dims"},
                           {"public": None, "candidates": 20, "threshold": None}),
    "attack braverman": (["--candidates", "20"], {"k", "c1", "synthetic_dims"},
                         {"public": None, "candidates": 20}),
    "attack averaging": ([], {"k", "c1", "epochs", "oracle_p", "target", *SYNTHETIC},
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
    "stats concentration": (["--d", "16"], {"delta", "trials"}, {"d": 16}),
    "stats theorem-gap": (["--which", "pair", "--d", "16", "--n", "4"],
                          {"delta", "trials", "beta"}, {"which": "pair", "d": 16, "n": 4}),
    "challenge": (["--out", "{tmp}/c.ihds"], {"k", "c1", "c2", "epochs", *LABELLED},
                  {"in": None, "public": None, "out": "{tmp}/c.ihds"}),
}
# eval and train in their other mode (eval runs plain by default, train encrypted);
# plain mode reads no scheme, ensemble or public option, so its report leaves them out
MODES = {
    "eval --mode encrypted": (["--model", "{tmp}/m16.ihmd", "--mode", "encrypted"],
                              {*SCHEME, "ensemble", *LABELLED},
                              {"model": "{tmp}/m16.ihmd", "in": None, "mode": "encrypted"}),
    "train --plain": (["--plain", "--out", "{tmp}/m.ihmd"], {"epochs", "lr", *LABELLED},
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


# the COMMANDS and MODES runs (some resized so that each option's effect
# shows) and each further mode that changes what a command reads, for the
# check that each option a report records can change its run
EFFECT_CASES = {
    **{case: argv for case, (argv, _, _) in {**COMMANDS, **MODES}.items()},
    "prep-public": ["--in", "{tmp}/d.ihds", "--patch-size", "3x3", "--min-keypoints", "0",
                    "--out", "{tmp}/p.ihds"],
    "eval": ["--model", "{tmp}/m16.ihmd", "--synthetic-n", "200"],
    "eval --mode encrypted": ["--model", "{tmp}/m16.ihmd", "--mode", "encrypted",
                              "--synthetic-n", "200"],
    "attack public-scan": ["--candidates", "20", "--trials", "5"],
    "attack public-scan --threshold": ["--candidates", "20", "--trials", "5",
                                       "--threshold", "0.5"],
    "attack similarity": ["--trials", "40", "--sources", "20", "--source-dims", "1x12x12",
                          "--patch-dims", "1x8x8"],
    "attack averaging --mode weak": ["--mode", "weak"],
    "attack pair --threshold": ["--threshold", "0.5"],
    "stats theorem-gap": ["--which", "pair", "--d", "16", "--n", "8"],
    "stats theorem-gap --which scan": ["--which", "scan", "--d", "16", "--n", "8"],
    "encrypt --scheme cross": ["--scheme", "cross", "--out", "{tmp}/e.ihds"],
}
PATHS = {"in", "public", "model", "out", "raw", "labels", "reconstruction_out"}
# a second value for each option, set apart from CONFIG's, the case's flags and
# the built-in defaults so that its effect shows; a dict maps each first value
# to its second
SECOND = {
    "scheme": {"mixup": "inside", "inside": "mixup", "cross": "inside"},
    "mode": {"plain": "encrypted", "encrypted": "plain", "strong": "weak", "weak": "strong"},
    "which": {"pair": "scan", "scan": "pair"},
    "plain": {False: True, True: False},
    "trials": {200: 100, 5: 3, 40: 30},
    "k": 4, "c1": 0.4, "c2": 0.8, "epochs": 1, "lr": 0.2, "ensemble": 5, "synthetic_n": 5,
    "synthetic_dims": "1x3x3", "synthetic_classes": 2, "dims": "1x1x2", "classes": 2,
    "patch_size": "4x4", "per_image": 1, "min_keypoints": 1, "threshold": 0.1, "delta": 0.2,
    "candidates": 10, "target": 2, "oracle_p": 0.4, "m": 2, "sources": 10,
    "source_dims": "1x10x10", "patch_dims": "1x3x3", "steps": 3, "picks": 3, "encryptions": 50,
    "d": 9, "n": 6, "beta": 5.0,
}
# options whose every other value is refused: the model fixes eval's d and classes
REFUSED = {(case, name) for case in ("eval", "eval --mode encrypted")
           for name in ("synthetic_dims", "synthetic_classes")}


def _drop(value, name):
    """``value`` without the dict entries keyed ``name``, at any depth."""
    if isinstance(value, dict):
        return {key: _drop(v, name) for key, v in value.items() if key != name}
    return [_drop(v, name) for v in value] if isinstance(value, list) else value


def _effect_inputs(root):
    """_write_inputs, with a model whose predictions depend on its input."""
    root.mkdir()
    _write_inputs(root)
    save_model(init_model(3, 16, RngStream(18), scale=1.0), root / "m16.ihmd")


def _run_from(root, command, config):
    """Exit code and written files (the report parsed) of ``command`` run in
    ``root`` with ``config`` as its flags."""
    _effect_inputs(root)
    os.chdir(root)
    inputs = {path.name for path in root.iterdir()}
    flags = {option: flag for option, flag, _, _ in cli.command_flags(command)}
    argv = command.split()
    for option, value in config.items():
        if value is not None and value is not False:
            argv += [flags[option]] + ([] if value is True else [str(value)])
    code = main([*argv, "--report", "report.json"])
    return code, {path.name: read_report(path) if path.name == "report.json" else path.read_bytes()
                  for path in sorted(root.iterdir()) if path.name not in inputs}


def _beyond_echoes(outcome, name):
    """``outcome`` without the report entries and meta lines that echo option ``name``."""
    code, files = outcome
    files = {file: _drop(content, name) if file == "report.json" else content
             for file, content in files.items()}
    for file in [file for file in files if file.endswith(".meta.txt")]:
        files[file] = [line for line in files[file].decode().splitlines()
                       if not line.startswith(f"{name}=")]
    return code, files


@pytest.mark.parametrize("case", list(EFFECT_CASES))
def test_every_option_a_report_records_can_change_its_run(tmp_path, capsys, monkeypatch, case):
    # an option in a report's config replays its run only if some value of it
    # changes some output: each is set to its SECOND value, and the exit code,
    # an output byte or a result beyond its own echoes must differ
    monkeypatch.delenv("IH_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # each run moves to its own directory
    command = case.split(" -")[0]
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG.items()))
    _effect_inputs(tmp_path / "first")
    os.chdir(tmp_path / "first")
    argv = [a.format(tmp=".") for a in EFFECT_CASES[case]]
    if command != "import":
        argv += ["--config", str(cfg)]
    assert main([*command.split(), *argv]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    base = _run_from(tmp_path / "base", command, config)
    silent = set()
    for name in sorted(set(config) - PATHS - {"seed"}):
        second = SECOND[name][config[name]] if isinstance(SECOND[name], dict) else SECOND[name]
        assert second != config[name], name
        changed = _run_from(tmp_path / name, command, {**config, name: second})
        assert changed[0] == (2 if (case, name) in REFUSED else 0), capsys.readouterr().err
        if _beyond_echoes(changed, name) == _beyond_echoes(base, name):
            silent.add(name)
    capsys.readouterr()
    assert silent == set()


def test_command_table_declares_every_flag():
    read = set()
    for command, (handler, _, _) in cli.COMMANDS.items():
        flags = list(cli.command_flags(command))
        names = [name for name, _, _, _ in flags]
        assert len(set(names)) == len(names) and set(names) <= set(cli.OPTIONS), command
        # a command's own choices stand where OPTIONS holds none, never beside a union
        assert all(cli.OPTIONS[name].choices in (None, opt.choices) for name, *_, opt in flags)
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


@pytest.mark.parametrize("command, modes", [("eval", ["plain", "encrypted"]),
                                            ("attack averaging", ["strong", "weak"])])
def test_each_command_help_lists_only_its_own_modes(capsys, command, modes):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert re.search(r"--mode \{([^}]*)\}", capsys.readouterr().out)[1].split(",") == modes


@pytest.mark.parametrize("argv", [["eval", "--model", "m.ihmd", "--mode", "weak"],
                                  ["attack", "averaging", "--mode", "encrypted"]],
                         ids=["eval-weak", "averaging-encrypted"])
def test_a_mode_of_another_command_is_refused_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --mode: invalid choice: '{argv[-1]}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, mode, choices", [
    (["eval", "--model", "{tmp}/m.ihmd"], "weak", ("plain", "encrypted")),
    (["attack", "averaging", "--synthetic-dims", "1x4x4"], "encrypted", ("strong", "weak")),
], ids=["eval-weak", "averaging-encrypted"])
def test_a_config_mode_is_checked_against_the_command_choices(tmp_path, capsys, argv, mode,
                                                              choices):
    save_model(init_model(3, 16), tmp_path / "m.ihmd")
    (tmp_path / "c.cfg").write_text(f"mode = {mode}\n")
    code = main([*(a.format(tmp=tmp_path) for a in argv), "--config", str(tmp_path / "c.cfg")])
    assert code == 2
    # refused as the file is read, not by the attack or the evaluation
    err = capsys.readouterr().err
    assert err == f"error: config {tmp_path}/c.cfg: mode must be one of {choices}, got {mode!r}\n"


def _brace_expanded(line):
    """``line`` with each ``{a,b}`` expanded as the shell does."""
    match = re.search(r"\{([^{}]*,[^{}]*)\}", line)
    if not match:
        return [line]
    return [expanded for word in match[1].split(",")
            for expanded in _brace_expanded(line[:match.start()] + word + line[match.end():])]


def _readme_commands():
    """Every ``instahide`` command line of README's sh blocks and inline code."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    lines += re.findall(r"`(instahide [^`]*)`", text)
    return [expanded for line in lines if line.startswith("instahide ")
            and "<command>" not in line for expanded in _brace_expanded(line)]


@pytest.mark.parametrize("line", _readme_commands())
def test_every_readme_command_parses(line):
    # nothing runs: a flag the docs still name after its option went fails here
    cli.build_parser().parse_args(shlex.split(line)[1:])


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


def _names(path):
    return sorted(p.name for p in path.iterdir())


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_bytes(b"k = 3\n\xff\xfe = 1\n")
    code = main(["stats", "concentration", "--d", "8", "--trials", "10", "--config", str(cfg)])
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
    assert _names(tmp_path) == ["x.raw", "y.csv"]


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
    assert _names(tmp_path) == ["d"] and _names(tmp_path / "d") == []


def test_an_output_path_with_a_null_byte_exits_2_and_writes_nothing(tmp_path, capsys):
    # open() raises ValueError, not OSError, on a path holding a NUL byte, so an
    # output path read from a config file exited 1 ("embedded null byte")
    (tmp_path / "c.cfg").write_text(f"out = {tmp_path}/o\x00.ihds\n", encoding="utf-8")
    code = main(["encrypt", "--synthetic-n", "4", "--synthetic-dims", "1x4x4", "--epochs", "1",
                 "--config", str(tmp_path / "c.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write output file" in err and "embedded null byte" in err
    assert _names(tmp_path) == ["c.cfg"]


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
    assert _names(tmp_path) == ["c.ihds", "c.ihds.meta.txt"]


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


def test_a_report_prints_only_after_the_outputs_are_published(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot move {src} to {dst}")

    monkeypatch.setattr("os.replace", refuse)
    code = main(["encrypt", "--scheme", "mixup", "--k", "2", "--synthetic-n", "4",
                 "--synthetic-dims", "1x4x4", "--epochs", "1", "--out", str(tmp_path / "e.ihds")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "runtime error: cannot move" in captured.err


SMALL = ["--synthetic-n", "4", "--synthetic-dims", "1x4x4", "--synthetic-classes", "3"]


def _eval_exit(capsys, model_path, *argv):
    """Exit codes of eval in plain and in encrypted mode, and the last error;
    ``argv`` may repeat a SMALL flag, and argparse keeps its last value."""
    codes = [main(["eval", "--model", str(model_path), *SMALL, *argv, "--mode", mode,
                   "--scheme", "mixup", "--k", "2", "--ensemble", "1"])
             for mode in ("plain", "encrypted")]
    return codes, capsys.readouterr().err


def test_eval_refuses_a_model_of_another_d_in_both_modes(tmp_path, capsys):
    save_model(init_model(3, 16), tmp_path / "m16.ihmd")
    codes, err = _eval_exit(capsys, tmp_path / "m16.ihmd", "--synthetic-dims", "1x4x8")
    assert codes == [2, 2]
    assert "a model of d=16 and 3 classes cannot score d=32 and 3 classes" in err


def test_eval_refuses_a_model_of_other_classes_in_both_modes(tmp_path, capsys):
    save_model(init_model(3, 16), tmp_path / "m16.ihmd")
    codes, err = _eval_exit(capsys, tmp_path / "m16.ihmd", "--synthetic-classes", "5")
    assert codes == [2, 2]
    assert "cannot score d=16 and 5 classes" in err


@pytest.mark.parametrize("classes", [0, 1])
def test_eval_refuses_a_checkpoint_of_fewer_than_2_classes(tmp_path, capsys, classes):
    blob = bytearray(model_to_bytes(init_model(2, 16)))
    blob[4:6] = classes.to_bytes(2, "little")  # the header's class count
    path = tmp_path / "m.ihmd"
    path.write_bytes(bytes(blob[: len(blob) - 4 * 17 * (2 - classes)]))
    codes, err = _eval_exit(capsys, path)
    assert codes == [2, 2]
    assert f"need classes >= 2 and d >= 1, got {classes}, 16" in err


def test_a_k_beyond_the_pool_exits_2_before_allocating_its_index(tmp_path, capsys):
    # the (m, k) index array was allocated before k was checked against the
    # pool, so this k exited 1 with "Unable to allocate 29.1 TiB"
    code = main(["encrypt", "--synthetic-n", "4", "--synthetic-dims", "1x4x4", "--epochs", "1",
                 "--k", "1000000000000", "--out", str(tmp_path / "k.ihds")])
    assert code == 2
    assert "draws 999999999999 private partners from 3 images" in capsys.readouterr().err
    assert _names(tmp_path) == []


SMALL_STATS = ["--d", "16", "--n", "8", "--trials", "100"]
TINY = ["--synthetic-n", "6", "--synthetic-dims", "1x4x4", "--epochs", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["stats", "theorem-gap", "--which", "pair", *SMALL_STATS, "--beta", "1e400"],
                     "beta must be finite", id="theorem-gap-overflowing-beta"),
        pytest.param(["stats", "concentration", "--d", "16", "--trials", "100",
                      "--delta", "1e-320"], "n*d/delta finite",
                     id="concentration-delta-overflows-log"),
        pytest.param(["stats", "theorem-gap", "--which", "scan", *SMALL_STATS, "--delta", "1e-320"],
                     "n*d/delta finite", id="theorem-gap-scan-delta-overflows-log"),
        pytest.param(["attack", "pair", "--synthetic-n", "6", "--synthetic-dims", "1x4x4",
                      "--epochs", "2", "--delta", "1e-320"], "2*candidates/delta finite",
                     id="attack-pair-delta-overflows-ceiling"),
        pytest.param(["attack", "public-scan", "--candidates", "20", "--synthetic-dims", "1x4x4",
                      "--delta", "1e-320"], "2*candidates/delta finite",
                     id="attack-public-scan-delta-overflows-ceiling"),
        pytest.param(["train", "--plain", "--synthetic-n", "6", "--synthetic-dims", "1x4x4",
                      "--lr", "1e308", "--out", "{tmp}/m.ihmd"], "model weights must be finite",
                     id="train-plain-diverging-lr"),
        pytest.param(["train", "--plain", "--synthetic-n", "6", "--synthetic-dims", "1x4x4",
                      "--lr", "1e20", "--epochs", "3", "--out", "{tmp}/m.ihmd"],
                     "model weights overflow the float32 checkpoint",
                     id="train-plain-weights-beyond-float32"),
        # a synthetic set's one-hot labels came from a classes x classes
        # identity: exit 1, "array is too big"
        *(pytest.param([*argv, "--synthetic-classes", "2147483648"],
                       "needs 1 <= classes <= 65535", id=f"{name}-huge-classes")
          for name, argv in (("encrypt", ["encrypt", *TINY, "--out", "{tmp}/o.ihds"]),
                             ("train", ["train", *TINY, "--out", "{tmp}/m.ihmd"]))),
        pytest.param(["encrypt", *TINY, "--out", "{tmp}/o.ihds", "--synthetic-classes", "65536"],
                     "needs 1 <= classes <= 65535", id="encrypt-classes-beyond-u16"),
        pytest.param(["import", "--raw", "{tmp}/x.raw", "--dims", "1x2x2", "--labels",
                      "{tmp}/y.csv", "--classes", "2147483648", "--out", "{tmp}/i.ihds"],
                     "classes=2147483648 does not fit the header", id="import-huge-classes"),
    ],
)
def test_an_overflowing_option_exits_2(tmp_path, capsys, argv, message):
    # each of these overflowed to inf and exited 1 (a report that is not JSON,
    # or numpy's overflow warning), or with the scan's delta exited 0 on an
    # infinite log term; weights beyond float32 were written to the checkpoint
    # as inf, which eval then refused
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert message in capsys.readouterr().err
    assert _names(tmp_path) == []


def test_import_refuses_a_huge_class_count_before_it_allocates(tmp_path, capsys):
    # a class-index row built its one-hot from a classes x classes identity,
    # so this one-row CSV exited 1 with "array is too big"
    (tmp_path / "x.raw").write_bytes(bytes(4))
    (tmp_path / "y.csv").write_text("0\n")
    code = main(["import", "--raw", str(tmp_path / "x.raw"), "--dims", "1x2x2", "--labels",
                 str(tmp_path / "y.csv"), "--classes", "2147483648",
                 "--out", str(tmp_path / "i.ihds")])
    assert code == 2
    assert "classes=2147483648 does not fit the header" in capsys.readouterr().err
    assert not (tmp_path / "i.ihds").exists()


def test_import_refuses_classes_without_labels(tmp_path, capsys):
    # without a label CSV, --classes bounded nothing and changed no byte
    (tmp_path / "x.raw").write_bytes(bytes(4))
    code = main(["import", "--raw", str(tmp_path / "x.raw"), "--dims", "1x2x2",
                 "--classes", "3", "--out", str(tmp_path / "i.ihds")])
    assert code == 2
    assert "error: --classes needs --labels" in capsys.readouterr().err
    assert _names(tmp_path) == ["x.raw"]


def test_ks_table_refuses_encryptions_below_the_probe_count(tmp_path, capsys):
    # the protocol's 50 probe encryptions per image were refused with no flag named
    code = main(["stats", "ks-table", "--encryptions", "4", "--picks", "2", "--synthetic-n", "4",
                 "--synthetic-dims", "1x4x4", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error: --encryptions must be >= 50" in capsys.readouterr().err
    assert _names(tmp_path) == []


def test_encrypt_of_an_unlabelled_set_writes_an_unlabelled_dataset(tmp_path):
    private = make_gaussian_dataset(4, (1, 4, 4), RngStream(20))
    save_dataset(private, tmp_path / "u.ihds")
    assert main(["encrypt", "--in", str(tmp_path / "u.ihds"), "--epochs", "2",
                 "--out", str(tmp_path / "e.ihds")]) == 0
    written = load_dataset(tmp_path / "e.ihds")
    assert (written.n, written.dims, written.classes) == (8, (1, 4, 4), None)


@pytest.mark.parametrize("argv", [["train", "--out", "{tmp}/m.ihmd"],
                                  ["challenge", "--out", "{tmp}/c.ihds"]],
                         ids=["train", "challenge"])
def test_a_command_that_reads_labels_refuses_an_unlabelled_set(tmp_path, capsys, argv):
    save_dataset(make_gaussian_dataset(4, (1, 4, 4), RngStream(20)), tmp_path / "u.ihds")
    code = main([*(a.format(tmp=tmp_path) for a in argv), "--in", str(tmp_path / "u.ihds"),
                 "--epochs", "1", "--k", "3"])
    assert code == 2
    assert "error: dataset has no labels" in capsys.readouterr().err
    assert _names(tmp_path) == ["u.ihds"]


@pytest.mark.parametrize("lr, message", [
    # the descent update leaked numpy's "overflow encountered in multiply"
    ("1e308", "matching descent diverged at step 1: objective nan"),
    # x left float32's range in the last update: the reconstruction's cast
    # leaked "overflow encountered in cast"
    ("2", "matching descent diverged at step 5: objective"),
], ids=["overflowing-update", "beyond-float32-after-the-last-step"])
def test_a_diverging_grad_match_exits_1_with_its_divergence_error(capsys, lr, message):
    # a leaked warning is the failure under the test filter; the divergence
    # itself is a runtime error that carries its trajectory
    code = main(["attack", "grad-match", "--lr", lr, "--synthetic-dims", "1x4x4", "--steps", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "overflow" not in err


def test_theorem_gap_with_an_overflowing_beta_product_fails_the_gap(capsys):
    # beta * the outsider maximum overflowed to inf with a RuntimeWarning
    code = main(["stats", "theorem-gap", "--which", "scan", "--beta", "1e308", "--d", "16",
                 "--n", "50", "--trials", "100"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    results = json.loads(out.out)["results"]
    assert results["pass_fraction"] == 0.0 and results["precondition_ok"] is False


def _similarity_trial_by_trial(argv, seed):
    """Each trial's report from the loop the command ran before it encrypted its
    trials in one kernel call: encrypt_sample under rng.child("enc", t), then a
    one-query search."""
    opts = dict(zip(argv[::2], argv[1::2]))
    rng, trials, m = RngStream(seed), int(opts["--trials"]), int(opts["--m"])
    patch_dims = _parse_dims(opts["--patch-dims"])
    sources = make_gaussian_dataset(int(opts["--sources"]), _parse_dims(opts["--source-dims"]),
                                    rng.child("sources"), normalize=False)
    enc, att = (build_patchset(sources, patch_dims[1:], 1, rng.child(tag), min_keypoints=0)
                for tag in ("crop-enc", "crop-att"))
    private = make_gaussian_dataset(max(2, trials), patch_dims, rng.child("private"), classes=10,
                                    normalize=False)
    cfg = SchemeConfig("cross", int(opts["--k"]), float(opts["--c1"]), float(opts["--c2"]))
    oracle = SignOracle(float(opts["--oracle-p"]), rng.child("oracle"))
    reports = []
    for t in range(trials):
        sample, key = encrypt_sample(private, t % private.n, cfg, rng.child("enc", t),
                                     publicset=enc)
        truth = {int(enc.provenance[idx][0]) for tag, idx in key.sources if tag == "public"}
        reports.append(similarity_search_attack(sample, att, oracle, key.mask, m,
                                                truth_sources=truth, tag=t))
    return reports


@pytest.mark.parametrize("argv, seed", [
    # the replay table's run: CONFIG under the command's own flags
    (["--trials", "2", "--sources", "20", "--source-dims", "1x8x8", "--patch-dims", "1x4x4",
      "--k", "3", "--c1", "0.6", "--c2", "0.25", "--oracle-p", "0.1", "--m", "3"], 9),
    # nine trials on 3-channel patches (the command makes max(2, trials)
    # private images, so trials never outnumber them)
    (["--trials", "9", "--sources", "60", "--source-dims", "3x12x12", "--patch-dims", "3x8x8",
      "--k", "4", "--c1", "0.65", "--c2", "0.3", "--oracle-p", "0.3", "--m", "4"], 3),
], ids=["replay-config", "nine-trials"])
def test_attack_similarity_matches_the_trial_by_trial_loop(monkeypatch, capsys, argv, seed):
    searched = []

    def search(*args, **kwargs):
        searched.append(similarity_search_attack(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(cli.attacks, "similarity_search_attack", search)
    assert main(["attack", "similarity", *argv, "--seed", str(seed)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    [batch] = searched
    expect = _similarity_trial_by_trial(argv, seed)
    assert [r.decisions for r in batch] == [r.decisions for r in expect]
    assert [r.metrics for r in batch] == [r.metrics for r in expect]
    for got, want in zip(batch, expect):
        np.testing.assert_allclose([v for _, v in got.scores], [v for _, v in want.scores],
                                   rtol=0, atol=1e-15)
    hits = sum(int(r.metrics["hit"]) for r in expect)
    assert results == {"trials": len(expect), "hits": hits, "hit_rate": hits / len(expect),
                       "m": int(argv[-1])}


def test_attack_similarity_encrypts_in_one_kernel_call_and_ranks_in_one_ssim_pass(monkeypatch,
                                                                                  capsys):
    # its default 50 trials on a 150-image source set: the loop made 50 of each
    calls = {"_encrypt_rows": 0, "ssim_pairwise": 0}
    for module, name in ((cli.encrypt, "_encrypt_rows"), (cli.attacks, "ssim_pairwise")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(["attack", "similarity", "--sources", "150"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["trials"] == 50
    assert calls == {"_encrypt_rows": 1, "ssim_pairwise": 1}


def test_attack_similarity_runs_no_harris_pass(monkeypatch, capsys):
    # its crops are neither filtered nor scored, so no keypoint count is taken
    def refused(batch):
        raise AssertionError("keypoint_counts ran")

    monkeypatch.setattr(cli.publicprep, "keypoint_counts", refused)
    argv = ["attack", "similarity", "--trials", "3", "--sources", "12", "--m", "4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["trials"] == 3


@pytest.mark.parametrize(
    "argv, why",
    [
        (["--min-keypoints", "100000"],
         "none of the 20 candidate crops has more than 100000 keypoints"),
        (["--per-image", "0"], "--per-image 0 or an empty --in gives no crops"),
    ],
    ids=["all-filtered", "no-candidates"],
)
def test_prep_public_that_keeps_no_patch_exits_2_with_one_error_line(tmp_path, capsys, argv,
                                                                     why):
    # no warning comes first: under an error filter it would be the
    # command's exception, exit 1
    source = save_dataset(make_gaussian_dataset(20, (3, 16, 16), RngStream(0), normalize=False),
                          tmp_path / "d.ihds")
    code = main(["prep-public", "--in", str(source), "--patch-size", "8x8",
                 "--out", str(tmp_path / "p.ihds"), *argv])
    assert (code, capsys.readouterr().err) == (2, f"error: no patch kept: {why}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d.ihds"]
