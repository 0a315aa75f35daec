"""Command-line driver.

Subcommands: import, prep-public, encrypt, train, eval,
attack {pair, public-scan, braverman, averaging, similarity, grad-match},
stats {ks-table, concentration, theorem-gap}, challenge.

Option precedence: command-line flags > config file (key=value lines) >
built-in defaults. The IH_SEED environment variable overrides every other
seed source. Each run writes a JSON report embedding the fully resolved
configuration and seed, so any report can be replayed to byte-identical
artifacts. Exit codes: 0 success, 2 invalid input or configuration, 1
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import attacks, publicprep, stats, utility
from .core import Dataset, Image, make_gaussian_dataset
from .encrypt import (
    SCHEMES,
    SchemeConfig,
    encrypt_history,
    encrypt_history_arrays,
    encrypt_sample,
    export_challenge,
)
from .errors import ValidationError
from .ihds import import_raw, load_dataset, payload_rows, save_dataset
from .rng import RngStream

DEFAULTS = {
    "scheme": "inside",
    "k": 4,
    "c1": 0.65,
    "c2": 0.3,
    "epochs": 50,
    "seed": 0,
    "delta": 0.01,
    "beta": 2.0,
    "trials": 1000,
    "oracle_p": 0.25,
    "m": 5,
    "lr": 0.1,
    "ensemble": 10,
    "synthetic_n": 50,
    "synthetic_dims": "3x32x32",
    "synthetic_classes": 10,
}


def _parse_value(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            continue
    return low


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = _parse_value(value)
    return out


def resolve_options(args: argparse.Namespace, keys: list[str]) -> dict:
    """flags > config file > defaults; IH_SEED overrides any seed."""
    file_cfg = _read_input(_load_config_file, getattr(args, "config", None))
    resolved = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = DEFAULTS.get(key)
    env_seed = os.environ.get("IH_SEED")
    if "seed" in resolved and env_seed is not None:
        resolved["seed"] = int(env_seed)
    return resolved


def _parse_dims(text: str, shape: str = "CxHxW") -> tuple[int, ...]:
    """Unsigned ints separated by 'x' (or ','), one per letter of ``shape``."""
    parts = [p.strip() for p in text.replace(",", "x").split("x") if p]
    if len(parts) != len(shape.split("x")) or not all(p.isdecimal() for p in parts):
        raise ValidationError(f"dims must be {shape}, got {text!r}")
    return tuple(int(p) for p in parts)


def _scheme_config(opts: dict) -> SchemeConfig:
    return SchemeConfig(
        scheme=opts["scheme"], k=int(opts["k"]), c1=float(opts["c1"]), c2=float(opts["c2"])
    )


def _read_input(load, path, *args, **kwargs):
    """load(path, ...); a missing, unreadable or truncated file is bad input (exit 2)."""
    try:
        return load(path, *args, **kwargs)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ValidationError(f"cannot read input file {exc.filename or path}: {reason}") from exc


def _private_dataset(args, opts: dict, rng: RngStream) -> Dataset:
    """The dataset behind --in, or a labelled synthetic Gaussian stand-in."""
    if getattr(args, "infile", None):
        return _read_input(load_dataset, args.infile)
    return make_gaussian_dataset(
        int(opts["synthetic_n"]),
        _parse_dims(str(opts["synthetic_dims"])),
        rng.child("synthetic"),
        classes=int(opts["synthetic_classes"]),
        name="synthetic",
    )


def _public_patches(args, dims, rng: RngStream, count: int = 1000):
    """PatchSet from --public, or synthetic textured patches of the same dims."""
    if getattr(args, "public", None):
        return _read_input(publicprep.load_patchset, args.public)
    sources = make_gaussian_dataset(count, dims, rng.child("public"), normalize=False)
    return publicprep.build_patchset(
        sources, dims[1:], 1, rng.child("crop"), min_keypoints=0
    )


def write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _report(command: str, opts: dict, results: dict) -> dict:
    config = {k: v for k, v in sorted(opts.items())}
    return {"command": command, "config": config, "results": results}


# ---------------------------------------------------------------------------
# commands


def cmd_import(args) -> int:
    dims = _parse_dims(args.dims)
    ds = _read_input(
        import_raw, args.raw, dims, labels_path=args.labels, classes=args.classes,
        name=Path(args.out).stem,
    )
    save_dataset(ds, args.out)
    opts = {"raw": args.raw, "dims": args.dims, "labels": args.labels, "classes": args.classes}
    write_report(args.report, _report("import", opts, {"images": ds.n, "out": args.out}))
    return 0


def cmd_prep_public(args) -> int:
    opts = resolve_options(args, ["seed"])
    rng = RngStream(int(opts["seed"]))
    source = _read_input(load_dataset, args.infile)
    ps = publicprep.build_patchset(
        source, _parse_dims(args.patch_size, "HxW"), int(args.per_image), rng.child("crop"),
        min_keypoints=int(args.min_keypoints),
    )
    publicprep.save_patchset(ps, args.out)
    results = {
        "candidates": source.n * int(args.per_image),
        "kept": len(ps),
        "retention": ps.retention,
        "out": args.out,
    }
    write_report(args.report, _report("prep-public", dict(opts), results))
    return 0


def _export(args, opts: dict, rng: RngStream, private: Dataset, cfg, publicset) -> dict:
    """Encrypt opts["epochs"] epochs and write them to --out (encrypt, challenge)."""
    epochs = int(opts["epochs"])
    arrays = encrypt_history_arrays(private, cfg, epochs, rng.child("enc"), publicset)
    meta = {
        "scheme": cfg.scheme, "k": cfg.k, "c1": cfg.c1, "c2": cfg.c2,
        "epochs": epochs, "n": private.n,
    }
    out_path, meta_path = export_challenge(arrays, args.out, meta)
    return {"samples": len(arrays[0]), "out": str(out_path), "meta": str(meta_path)}


def cmd_encrypt(args) -> int:
    keys = ["scheme", "k", "c1", "c2", "epochs", "seed",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts)
    publicset = (
        _public_patches(args, private.dims, rng) if cfg.scheme == "cross" else None
    )
    results = _export(args, opts, rng, private, cfg, publicset)
    write_report(args.report, _report("encrypt", dict(opts), results))
    return 0


def cmd_train(args) -> int:
    keys = ["scheme", "k", "c1", "c2", "epochs", "seed", "lr",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    model = utility.init_model(private.label_matrix().shape[1], private.d)
    if args.plain:
        model = utility.train(
            model, private, int(opts["epochs"]), float(opts["lr"]), rng.child("sgd")
        )
    else:
        cfg = _scheme_config(opts)
        publicset = (
            _public_patches(args, private.dims, rng) if cfg.scheme == "cross" else None
        )
        model = utility.train_encrypted(
            model, private, cfg, int(opts["epochs"]), float(opts["lr"]),
            rng.child("train"), publicset=publicset,
        )
    utility.save_model(model, args.out)
    train_acc = utility.evaluate(model, private, mode="plain")
    results = {"out": args.out, "train_accuracy": train_acc}
    write_report(args.report, _report("train", dict(opts), results))
    return 0


def cmd_eval(args) -> int:
    keys = ["scheme", "k", "c1", "c2", "seed", "ensemble",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    model = _read_input(utility.load_model, args.model)
    test = _private_dataset(args, opts, rng)
    if args.mode == "plain":
        acc = utility.evaluate(model, test, mode="plain")
    else:
        cfg = _scheme_config(opts)
        publicset = (
            _public_patches(args, test.dims, rng) if cfg.scheme == "cross" else None
        )
        acc = utility.evaluate(
            model, test, mode="encrypted", cfg=cfg, rng=rng.child("eval"),
            ensemble=int(opts["ensemble"]), partner_pool=test, publicset=publicset,
        )
    write_report(args.report, _report("eval", dict(opts), {"accuracy": acc, "mode": args.mode}))
    return 0


def _attack_report_out(args, report, opts, extra=None) -> int:
    results = report.to_dict(getattr(args, "reconstruction_out", None))
    if getattr(args, "reconstruction_out", None) and report.reconstruction is not None:
        save_dataset(
            Dataset((report.reconstruction,), name="reconstruction"),
            args.reconstruction_out,
        )
    if extra:
        results.update(extra)
    write_report(args.report, _report(f"attack {args.attack_command}", dict(opts), results))
    return 0


def cmd_attack_pair(args) -> int:
    keys = ["k", "c1", "epochs", "seed", "delta", "synthetic_n", "synthetic_dims",
            "synthetic_classes"]
    opts = resolve_options(args, keys)
    opts["k"] = int(opts["k"]) if args.k is not None else 2
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    cfg = SchemeConfig(scheme="mixup", k=int(opts["k"]), c1=float(opts["c1"]))
    history, truth = encrypt_history(private, cfg, int(opts["epochs"]), rng.child("enc"))
    report = attacks.pair_detection_attack(
        history,
        threshold=args.threshold,
        truth_keys=truth,
        delta=float(opts["delta"]),
        k=cfg.k,
    )
    return _attack_report_out(args, report, opts)


def cmd_attack_public_scan(args) -> int:
    keys = ["k", "seed", "delta", "synthetic_dims"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    dims = _parse_dims(str(opts["synthetic_dims"]))
    publicset = _public_patches(args, dims, rng, count=int(args.candidates))
    k = int(opts["k"])
    if not 1 <= k <= len(publicset):
        raise ValidationError(f"k must be in [1, {len(publicset)}] candidates, got {k}")
    gen = rng.child("mix").generator()
    members = [int(v) for v in gen.choice(len(publicset), size=k, replace=False)]
    mixed = publicset.matrix()[members].astype(np.float64).sum(axis=0)
    report = attacks.public_scan_attack(
        mixed.astype(np.float32),
        publicset,
        k,
        threshold=args.threshold,
        truth_members=set(members),
        delta=float(opts["delta"]),
    )
    return _attack_report_out(args, report, opts, extra={"true_members": members})


def cmd_attack_braverman(args) -> int:
    keys = ["k", "c1", "seed", "synthetic_dims"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    dims = _parse_dims(str(opts["synthetic_dims"]))
    publicset = _public_patches(args, dims, rng, count=int(args.candidates))
    # labels are irrelevant to this ranking; any one-hot will do
    pool = Dataset(publicset.matrix(), np.ones((len(publicset), 1)), dims=publicset.dims)
    cfg = SchemeConfig(scheme="inside", k=int(opts["k"]), c1=float(opts["c1"]))
    sample, key = encrypt_sample(pool, 0, cfg, rng.child("enc"))
    truth = {idx for _, idx in key.sources}
    report = attacks.braverman_attack(sample, publicset, truth_members=truth)
    return _attack_report_out(args, report, opts, extra={"true_members": sorted(truth)})


def cmd_attack_averaging(args) -> int:
    keys = ["k", "c1", "epochs", "seed", "oracle_p", "m",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    cfg = SchemeConfig(scheme="inside", k=int(opts["k"]), c1=float(opts["c1"]))
    history, keys_ = encrypt_history(private, cfg, int(opts["epochs"]), rng.child("enc"))
    oracle = attacks.SignOracle(float(opts["oracle_p"]), rng.child("oracle"))
    report = attacks.averaging_attack(
        history, keys_, private, args.mode, oracle, m=int(opts["m"]), target=args.target
    )
    return _attack_report_out(args, report, opts)


def cmd_attack_similarity(args) -> int:
    keys = ["k", "c1", "c2", "seed", "oracle_p", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    m = int(args.m if args.m is not None else 100)
    trials = int(args.trials_count)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    source_dims = _parse_dims(args.source_dims)
    patch_dims = _parse_dims(str(args.patch_dims))

    sources = make_gaussian_dataset(
        int(args.sources), source_dims, rng.child("sources"), normalize=False
    )
    enc_patches = publicprep.build_patchset(
        sources, patch_dims[1:], 1, rng.child("crop-enc"), min_keypoints=0
    )
    attacker_patches = publicprep.build_patchset(
        sources, patch_dims[1:], 1, rng.child("crop-att"), min_keypoints=0
    )
    private = make_gaussian_dataset(
        max(2, trials), patch_dims, rng.child("private"),
        classes=int(opts["synthetic_classes"]), normalize=False,
    )
    cfg = _scheme_config({**opts, "scheme": "cross"})
    oracle = attacks.SignOracle(float(opts["oracle_p"]), rng.child("oracle"))
    hits = 0
    for t in range(trials):
        sample, key = encrypt_sample(
            private, t % private.n, cfg, rng.child("enc", t), publicset=enc_patches
        )
        truth_sources = {
            int(enc_patches.provenance[idx][0])
            for tag, idx in key.sources
            if tag == "public"
        }
        rep = attacks.similarity_search_attack(
            sample, attacker_patches, oracle, key.mask, m,
            truth_sources=truth_sources, tag=t,
        )
        hits += int(rep.metrics["hit"])
    results = {"trials": trials, "hits": hits, "hit_rate": hits / trials, "m": m}
    write_report(args.report, _report("attack similarity", dict(opts), results))
    return 0


def cmd_attack_grad_match(args) -> int:
    keys = ["seed", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    dims = _parse_dims(str(opts["synthetic_dims"]))
    classes = int(opts["synthetic_classes"])
    d = dims[0] * dims[1] * dims[2]
    model = utility.init_model(classes, d, rng.child("model"), scale=0.01)
    victim_ds = make_gaussian_dataset(1, dims, rng.child("victim"), classes=classes)
    victim, label = Image(victim_ds.matrix()[0], dims), victim_ds.label_matrix()[0]
    _, grads = utility.loss_and_gradient(model, victim, label)
    report = attacks.gradient_matching_attack(
        grads, model, rng.child("attack"),
        steps=int(args.steps), lr=float(args.lr_attack), victim=victim,
    )
    return _attack_report_out(args, report, opts)


def cmd_stats_ks_table(args) -> int:
    keys = ["scheme", "k", "c1", "c2", "seed",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts)
    publicset = (
        _public_patches(args, private.dims, rng) if cfg.scheme == "cross" else None
    )
    report = stats.indistinguishability_protocol(
        private, cfg, rng.child("protocol"),
        picks=int(args.picks), encryptions_per_image=int(args.encryptions),
        publicset=publicset,
    )
    report.to_csv(args.out)
    results = {
        "out": args.out,
        "min_p": report.min_p(),
        "max_pair_delta": report.max_pair_delta(),
    }
    write_report(args.report, _report("stats ks-table", dict(opts), results))
    return 0


def _concentration_config(args):
    """Resolved options, the validators' config and the rng of a stats run."""
    opts = resolve_options(args, ["seed", "delta", "trials", "beta", "k"])
    cfg = stats.ConcentrationCheckConfig(
        d=int(args.d), n=int(args.n), k=int(opts["k"]),
        delta=float(opts["delta"]), trials=int(opts["trials"]), beta=float(opts["beta"]),
    )
    return opts, cfg, RngStream(int(opts["seed"]))


def cmd_stats_concentration(args) -> int:
    opts, cfg, rng = _concentration_config(args)
    results = {
        "chi_square": stats.check_chi_square_tail(cfg, rng.child("chi")),
        "inner_product": stats.check_inner_product_concentration(cfg, rng.child("ip")),
        "bernstein": stats.check_bernstein_tail(cfg, rng.child("bern")),
    }
    write_report(args.report, _report("stats concentration", dict(opts), results))
    return 0


def cmd_stats_theorem_gap(args) -> int:
    opts, cfg, rng = _concentration_config(args)
    results = stats.check_theorem_gap(cfg, args.which, rng.child("gap"))
    write_report(args.report, _report("stats theorem-gap", dict(opts), results))
    return 0


def leakage_guard(path: str | Path, private: Dataset) -> None:
    """Raise if any private image is, byte for byte, a row of the IHDS file at
    ``path``. The rows read back from disk go into a set: O(total bytes)."""
    rows = set(payload_rows(Path(path).read_bytes()))
    for i, row in enumerate(private.matrix().astype("<f4")):
        if row.tobytes() in rows:
            raise RuntimeError(
                f"leakage guard: private image {i} appears verbatim in the output"
            )


def cmd_challenge(args) -> int:
    keys = ["k", "c1", "c2", "epochs", "seed",
            "synthetic_n", "synthetic_dims", "synthetic_classes"]
    opts = resolve_options(args, keys)
    if args.k is None:
        opts["k"] = 6
    if args.epochs is None:
        opts["epochs"] = 50
    if getattr(args, "infile", None) is None:
        opts["synthetic_n"] = int(args.n) if args.n is not None else 100
    rng = RngStream(int(opts["seed"]))
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config({**opts, "scheme": "cross"})
    publicset = _public_patches(args, private.dims, rng)
    results = _export(args, opts, rng, private, cfg, publicset)
    leakage_guard(results["out"], private)
    results["leakage_scan"] = "clean"
    write_report(args.report, _report("challenge", dict(opts), results))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, seed=True, report=True, config=True):
    if config:
        p.add_argument("--config", help="key=value option file")
    if seed:
        p.add_argument("--seed", type=int, help="base RNG seed (IH_SEED overrides)")
    if report:
        p.add_argument("--report", help="write the JSON report here (default stdout)")


_SCHEME_FLAGS = {"scheme": {"choices": SCHEMES}, "k": {"type": int},
                 "c1": {"type": float}, "c2": {"type": float}}
_SYNTHETIC_FLAGS = {"synthetic_n": int, "synthetic_dims": str, "synthetic_classes": int}


def _add_scheme(p: argparse.ArgumentParser, *names):
    """The scheme flags a command reads; all four when none are named."""
    for name in names or _SCHEME_FLAGS:
        p.add_argument(f"--{name}", **_SCHEME_FLAGS[name])


def _add_synthetic(p: argparse.ArgumentParser, *names):
    """The synthetic-dataset flags a command reads; all three when none are named."""
    for name in names or _SYNTHETIC_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=_SYNTHETIC_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instahide",
        description="Mixing-scheme encryption, attacks, and statistical validators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="raw RGB bytes + label CSV -> dataset file")
    p.add_argument("--raw", required=True)
    p.add_argument("--dims", required=True, help="CxHxW of each raw image")
    p.add_argument("--labels")
    p.add_argument("--classes", type=int)
    p.add_argument("--out", required=True)
    _add_common(p, seed=False, config=False)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("prep-public", help="crop and filter a public dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patch-size", default="32x32")
    p.add_argument("--per-image", type=int, default=1)
    p.add_argument("--min-keypoints", type=int, default=publicprep.DEFAULT_MIN_KEYPOINTS)
    _add_common(p)
    p.set_defaults(func=cmd_prep_public)

    p = sub.add_parser("encrypt", help="encrypt a private dataset for T epochs")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True)
    _add_scheme(p)
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("train", help="train the linear softmax classifier")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--plain", action="store_true", help="train on raw images")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True)
    _add_scheme(p)
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--mode", choices=("plain", "encrypted"), default="plain")
    p.add_argument("--ensemble", type=int)
    _add_scheme(p)
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    pa = sub.add_parser("attack", help="run an attack harness with known ground truth")
    asub = pa.add_subparsers(dest="attack_command", required=True)

    p = asub.add_parser("pair", help="pairwise inner-product detection on a history")
    p.add_argument("--in", dest="infile")
    p.add_argument("--epochs", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_scheme(p, "k", "c1")
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_attack_pair)

    p = asub.add_parser("public-scan", help="inner-product sweep over public patches")
    p.add_argument("--public")
    p.add_argument("--candidates", type=int, default=1000)
    p.add_argument("--threshold", type=float)
    p.add_argument("--delta", type=float)
    _add_scheme(p, "k")
    _add_synthetic(p, "synthetic_dims")
    _add_common(p)
    p.set_defaults(func=cmd_attack_public_scan)

    p = asub.add_parser("braverman", help="fourth-moment candidate ranking")
    p.add_argument("--public")
    p.add_argument("--candidates", type=int, default=1000)
    _add_scheme(p, "k", "c1")
    _add_synthetic(p, "synthetic_dims")
    _add_common(p)
    p.set_defaults(func=cmd_attack_braverman)

    p = asub.add_parser("averaging", help="average demasked encryptions")
    p.add_argument("--in", dest="infile")
    p.add_argument("--mode", choices=attacks.AVERAGING_MODES, default="strong")
    p.add_argument("--epochs", type=int)
    p.add_argument("--oracle-p", dest="oracle_p", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--target", type=int, default=0)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_scheme(p, "k", "c1")
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_attack_averaging)

    p = asub.add_parser("similarity", help="SSIM search after oracle demasking")
    p.add_argument("--m", type=int)
    p.add_argument("--trials", dest="trials_count", type=int, default=50)
    p.add_argument("--sources", type=int, default=10000)
    p.add_argument("--source-dims", dest="source_dims", default="3x48x48")
    p.add_argument("--patch-dims", dest="patch_dims", default="3x32x32")
    p.add_argument("--oracle-p", dest="oracle_p", type=float)
    _add_scheme(p, "k", "c1", "c2")
    _add_common(p)
    p.set_defaults(func=cmd_attack_similarity)

    p = asub.add_parser("grad-match", help="invert a training gradient")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", dest="lr_attack", type=float, default=0.05)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_synthetic(p, "synthetic_dims", "synthetic_classes")
    _add_common(p)
    p.set_defaults(func=cmd_attack_grad_match)

    ps = sub.add_parser("stats", help="statistical validators")
    ssub = ps.add_subparsers(dest="stats_command", required=True)

    p = ssub.add_parser("ks-table", help="indistinguishability p-value table")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--picks", type=int, default=stats.PROTOCOL_PICKS)
    p.add_argument("--encryptions", type=int, default=stats.PROTOCOL_ENCRYPTIONS)
    _add_scheme(p)
    _add_synthetic(p)
    _add_common(p)
    p.set_defaults(func=cmd_stats_ks_table)

    p = ssub.add_parser("concentration", help="tail-bound Monte Carlo checks")
    p.set_defaults(func=cmd_stats_concentration)
    p2 = ssub.add_parser("theorem-gap", help="member/non-member separation check")
    p2.add_argument("--which", choices=stats.GAP_KINDS, required=True)
    p2.set_defaults(func=cmd_stats_theorem_gap)
    for p in (p, p2):
        p.add_argument("--d", type=int, default=3072)
        p.add_argument("--n", type=int, default=1000)
        _add_scheme(p, "k")
        p.add_argument("--delta", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--beta", type=float)
        _add_common(p)

    p = sub.add_parser("challenge", help="export encrypted samples, no keys or originals")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--n", type=int, help="synthetic private size (default 100)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True)
    _add_scheme(p, "k", "c1", "c2")
    _add_synthetic(p, "synthetic_dims", "synthetic_classes")
    _add_common(p)
    p.set_defaults(func=cmd_challenge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
