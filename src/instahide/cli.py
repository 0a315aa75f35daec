"""Command-line driver.

Subcommands: import, prep-public, encrypt, train, eval,
attack {pair, public-scan, braverman, averaging, similarity, grad-match},
stats {ks-table, concentration, theorem-gap}, challenge.

Every option is declared once, in OPTIONS, with its type and built-in
default; a command's options are those whose flags its parser registers.
Each resolves as: command-line flag > config file (``key = value`` lines) >
command default > built-in default. The command defaults are challenge k=6
and synthetic_n (its ``--n``) 100, attack pair k=2 and attack similarity
m=100. The IH_SEED environment variable overrides every other seed source.
Config-file values and IH_SEED are typed like flags: a value its option's
type refuses, or an unknown key, is invalid input. ``main`` runs every
command the same way: resolve the options, open RngStream(seed), run the
command, write one JSON report embedding the resolved configuration and
seed, so any report can be replayed to byte-identical artifacts. Exit codes:
0 success, 2 invalid input or configuration, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import ChainMap
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import attacks, publicprep, stats, utility
from .core import Dataset, Image, make_gaussian_dataset
from .encrypt import (
    SCHEMES,
    SchemeConfig,
    encrypt_history,
    encrypt_sample,
    export_challenge,
)
from .errors import ValidationError
from .ihds import import_raw, load_dataset, payload_rows, save_dataset
from .rng import RngStream


class Option(NamedTuple):
    """How an option's flag or config-file text converts, and its built-in default."""

    type: Callable[[str], object]
    default: object = None
    choices: tuple | None = None


OPTIONS = {
    "scheme": Option(str, "inside", SCHEMES),
    "k": Option(int, 4),
    "c1": Option(float, 0.65),
    "c2": Option(float, 0.3),
    "epochs": Option(int, 50),
    "seed": Option(int, 0),
    "delta": Option(float, 0.01),
    "beta": Option(float, 2.0),
    "trials": Option(int, 1000),
    "oracle_p": Option(float, 0.25),
    "m": Option(int, 5),
    "lr": Option(float, 0.1),
    "ensemble": Option(int, 10),
    "synthetic_n": Option(int, 50),
    "synthetic_dims": Option(str, "3x32x32"),
    "synthetic_classes": Option(int, 10),
    # import's inputs, which its report records as its configuration
    "raw": Option(str),
    "dims": Option(str),
    "labels": Option(str),
    "classes": Option(int),
}

COMMAND_DEFAULTS = {
    "challenge": {"k": 6, "synthetic_n": 100},
    "attack pair": {"k": 2},
    "attack similarity": {"m": 100},
}

_SCHEME = ("scheme", "k", "c1", "c2")
_SYNTHETIC = ("synthetic_n", "synthetic_dims", "synthetic_classes")


def _convert(name: str, text: str, source: str):
    """``text`` as option ``name``'s value, converted and checked as its flag would be."""
    opt = OPTIONS.get(name)
    if opt is None:
        raise ValidationError(f"{source}: unknown option {name!r}")
    try:
        value = opt.type(text)
    except ValueError:
        kind = opt.type.__name__
        raise ValidationError(f"{source}: {name} must be {kind}, got {text!r}") from None
    if opt.choices and value not in opt.choices:
        raise ValidationError(f"{source}: {name} must be one of {opt.choices}, got {value!r}")
    return value


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
        key = key.strip().replace("-", "_")
        out[key] = _convert(key, value.strip(), f"config {path}")
    return out


def resolve_options(args: argparse.Namespace, command: str) -> dict:
    """The value of every option whose flag ``command`` registers: IH_SEED (for
    the seed) > flag > config file > COMMAND_DEFAULTS > OPTIONS default."""
    given = vars(args)
    env = {}
    if "seed" in given and "IH_SEED" in os.environ:
        env["seed"] = _convert("seed", os.environ["IH_SEED"], "IH_SEED")
    layers = ChainMap(
        env,
        {name: value for name, value in given.items() if value is not None},
        _read_input(_load_config_file, given.get("config")),
        COMMAND_DEFAULTS.get(command, {}),
        {name: opt.default for name, opt in OPTIONS.items()},
    )
    return {name: layers[name] for name in OPTIONS if name in given}


def _parse_dims(text: str, shape: str = "CxHxW") -> tuple[int, ...]:
    """Unsigned ints separated by 'x' (or ','), one per letter of ``shape``."""
    parts = [p.strip() for p in text.replace(",", "x").split("x") if p]
    if len(parts) != len(shape.split("x")) or not all(p.isdecimal() for p in parts):
        raise ValidationError(f"dims must be {shape}, got {text!r}")
    return tuple(int(p) for p in parts)


def _scheme_config(opts: dict, scheme: str | None = None) -> SchemeConfig:
    """The scheme options a command registers; ``scheme`` for a command that
    fixes its scheme (the options it lacks keep SchemeConfig's defaults)."""
    given = {name: opts[name] for name in ("k", "c1", "c2") if name in opts}
    return SchemeConfig(scheme or opts["scheme"], **given)


def _plain(opts: dict) -> None:
    """Drop the options plain mode never reads: a report lists only those that mattered."""
    for name in (*_SCHEME, "ensemble"):
        opts.pop(name, None)


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
        opts["synthetic_n"],
        _parse_dims(opts["synthetic_dims"]),
        rng.child("synthetic"),
        classes=opts["synthetic_classes"],
        name="synthetic",
    )


def _public_patches(args, dims, rng: RngStream, count: int = 1000, cfg=None):
    """PatchSet from --public, or synthetic textured patches of the same dims;
    None when ``cfg`` is given and is not the cross scheme."""
    if cfg is not None and cfg.scheme != "cross":
        return None
    if getattr(args, "public", None):
        return _read_input(publicprep.load_patchset, args.public)
    sources = make_gaussian_dataset(count, dims, rng.child("public"), normalize=False)
    return publicprep.build_patchset(
        sources, dims[1:], 1, rng.child("crop"), min_keypoints=0
    )


def write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each takes (args, resolved options, RngStream(seed)) and returns
# its report's results


def cmd_import(args, opts: dict, rng: None) -> dict:
    ds = _read_input(
        import_raw, opts["raw"], _parse_dims(opts["dims"]), labels_path=opts["labels"],
        classes=opts["classes"], name=Path(args.out).stem,
    )
    save_dataset(ds, args.out)
    return {"images": ds.n, "out": args.out}


def cmd_prep_public(args, opts: dict, rng: RngStream) -> dict:
    source = _read_input(load_dataset, args.infile)
    ps = publicprep.build_patchset(
        source, _parse_dims(args.patch_size, "HxW"), args.per_image, rng.child("crop"),
        min_keypoints=args.min_keypoints,
    )
    publicprep.save_patchset(ps, args.out)
    return {
        "candidates": source.n * args.per_image,
        "kept": len(ps),
        "retention": ps.retention,
        "out": args.out,
    }


def _export(args, opts: dict, rng: RngStream, private: Dataset, cfg, publicset) -> dict:
    """Encrypt opts["epochs"] epochs and write them to --out (encrypt, challenge)."""
    samples = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"), publicset)[0]
    meta = {
        "scheme": cfg.scheme, "k": cfg.k, "c1": cfg.c1, "c2": cfg.c2,
        "epochs": opts["epochs"], "n": private.n,
    }
    out_path, meta_path = export_challenge(samples, args.out, meta)
    return {"samples": len(samples), "out": str(out_path), "meta": str(meta_path)}


def cmd_encrypt(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts)
    publicset = _public_patches(args, private.dims, rng, cfg=cfg)
    return _export(args, opts, rng, private, cfg, publicset)


def cmd_train(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    model = utility.init_model(private.label_matrix().shape[1], private.d)
    if args.plain:
        _plain(opts)
        model = utility.train(model, private, opts["epochs"], opts["lr"], rng.child("sgd"))
    else:
        cfg = _scheme_config(opts)
        publicset = _public_patches(args, private.dims, rng, cfg=cfg)
        model = utility.train_encrypted(
            model, private, cfg, opts["epochs"], opts["lr"], rng.child("train"),
            publicset=publicset,
        )
    utility.save_model(model, args.out)
    return {"out": args.out, "train_accuracy": utility.evaluate(model, private, mode="plain")}


def cmd_eval(args, opts: dict, rng: RngStream) -> dict:
    model = _read_input(utility.load_model, args.model)
    test = _private_dataset(args, opts, rng)
    if args.mode == "plain":
        _plain(opts)
        acc = utility.evaluate(model, test, mode="plain")
    else:
        cfg = _scheme_config(opts)
        publicset = _public_patches(args, test.dims, rng, cfg=cfg)
        acc = utility.evaluate(
            model, test, mode="encrypted", cfg=cfg, rng=rng.child("eval"),
            ensemble=opts["ensemble"], partner_pool=test, publicset=publicset,
        )
    return {"accuracy": acc, "mode": args.mode}


def _attack_results(args, report, **extra) -> dict:
    """The attack report's results plus ``extra``; the reconstruction goes to
    --reconstruction-out when the command has one."""
    path = getattr(args, "reconstruction_out", None)
    if path and report.reconstruction is not None:
        save_dataset(Dataset((report.reconstruction,), name="reconstruction"), path)
    return {**report.to_dict(path), **extra}


def cmd_attack_pair(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts, "mixup")
    history, truth = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"))
    report = attacks.pair_detection_attack(
        history,
        threshold=args.threshold,
        truth_keys=truth,
        delta=opts["delta"],
        k=cfg.k,
    )
    return _attack_results(args, report)


def cmd_attack_public_scan(args, opts: dict, rng: RngStream) -> dict:
    dims = _parse_dims(opts["synthetic_dims"])
    publicset = _public_patches(args, dims, rng, count=args.candidates)
    k = opts["k"]
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
        delta=opts["delta"],
    )
    return _attack_results(args, report, true_members=members)


def cmd_attack_braverman(args, opts: dict, rng: RngStream) -> dict:
    dims = _parse_dims(opts["synthetic_dims"])
    publicset = _public_patches(args, dims, rng, count=args.candidates)
    # labels are irrelevant to this ranking; any one-hot will do
    pool = Dataset(publicset.matrix(), np.ones((len(publicset), 1)), dims=publicset.dims)
    cfg = _scheme_config(opts, "inside")
    sample, key = encrypt_sample(pool, 0, cfg, rng.child("enc"))
    truth = {idx for _, idx in key.sources}
    report = attacks.braverman_attack(sample, publicset, truth_members=truth)
    return _attack_results(args, report, true_members=sorted(truth))


def cmd_attack_averaging(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts, "inside")
    history, keys = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"))
    oracle = attacks.SignOracle(opts["oracle_p"], rng.child("oracle"))
    report = attacks.averaging_attack(
        history, keys, private, args.mode, oracle, m=opts["m"], target=args.target
    )
    return _attack_results(args, report)


def cmd_attack_similarity(args, opts: dict, rng: RngStream) -> dict:
    trials = args.trials_count
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    source_dims = _parse_dims(args.source_dims)
    patch_dims = _parse_dims(args.patch_dims)

    sources = make_gaussian_dataset(
        args.sources, source_dims, rng.child("sources"), normalize=False
    )
    enc_patches = publicprep.build_patchset(
        sources, patch_dims[1:], 1, rng.child("crop-enc"), min_keypoints=0
    )
    attacker_patches = publicprep.build_patchset(
        sources, patch_dims[1:], 1, rng.child("crop-att"), min_keypoints=0
    )
    # labels only satisfy the encryptor: the attack never reads them
    private = make_gaussian_dataset(
        max(2, trials), patch_dims, rng.child("private"), classes=10, normalize=False,
    )
    cfg = _scheme_config(opts, "cross")
    oracle = attacks.SignOracle(opts["oracle_p"], rng.child("oracle"))
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
            sample, attacker_patches, oracle, key.mask, opts["m"],
            truth_sources=truth_sources, tag=t,
        )
        hits += int(rep.metrics["hit"])
    return {"trials": trials, "hits": hits, "hit_rate": hits / trials, "m": opts["m"]}


def cmd_attack_grad_match(args, opts: dict, rng: RngStream) -> dict:
    dims = _parse_dims(opts["synthetic_dims"])
    classes = opts["synthetic_classes"]
    d = dims[0] * dims[1] * dims[2]
    model = utility.init_model(classes, d, rng.child("model"), scale=0.01)
    victim_ds = make_gaussian_dataset(1, dims, rng.child("victim"), classes=classes)
    victim, label = Image(victim_ds.matrix()[0], dims), victim_ds.label_matrix()[0]
    _, grads = utility.loss_and_gradient(model, victim, label)
    report = attacks.gradient_matching_attack(
        grads, model, rng.child("attack"), steps=args.steps, lr=args.lr_attack, victim=victim,
    )
    return _attack_results(args, report)


def cmd_stats_ks_table(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts)
    publicset = _public_patches(args, private.dims, rng, cfg=cfg)
    report = stats.indistinguishability_protocol(
        private, cfg, rng.child("protocol"),
        picks=args.picks, encryptions_per_image=args.encryptions, publicset=publicset,
    )
    report.to_csv(args.out)
    return {
        "out": args.out,
        "min_p": report.min_p(),
        "max_pair_delta": report.max_pair_delta(),
    }


def _concentration_config(args, opts: dict) -> stats.ConcentrationCheckConfig:
    return stats.ConcentrationCheckConfig(
        d=args.d, n=args.n, k=opts["k"], delta=opts["delta"], trials=opts["trials"],
        beta=opts["beta"],
    )


def cmd_stats_concentration(args, opts: dict, rng: RngStream) -> dict:
    cfg = _concentration_config(args, opts)
    return {
        "chi_square": stats.check_chi_square_tail(cfg, rng.child("chi")),
        "inner_product": stats.check_inner_product_concentration(cfg, rng.child("ip")),
        "bernstein": stats.check_bernstein_tail(cfg, rng.child("bern")),
    }


def cmd_stats_theorem_gap(args, opts: dict, rng: RngStream) -> dict:
    return stats.check_theorem_gap(_concentration_config(args, opts), args.which, rng.child("gap"))


def leakage_guard(path: str | Path, private: Dataset) -> None:
    """Raise if any private image is, byte for byte, a row of the IHDS file at
    ``path``. The rows read back from disk go into a set: O(total bytes)."""
    rows = set(payload_rows(Path(path).read_bytes()))
    for i, row in enumerate(private.matrix().astype("<f4")):
        if row.tobytes() in rows:
            raise RuntimeError(
                f"leakage guard: private image {i} appears verbatim in the output"
            )


def cmd_challenge(args, opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(args, opts, rng)
    cfg = _scheme_config(opts, "cross")
    publicset = _public_patches(args, private.dims, rng)
    results = _export(args, opts, rng, private, cfg, publicset)
    leakage_guard(results["out"], private)
    return {**results, "leakage_scan": "clean"}


# ---------------------------------------------------------------------------
# parser


def _add_options(p: argparse.ArgumentParser, *names: str, flag: str | None = None, **kwargs):
    """Register the flags of the named options, typed from OPTIONS; ``flag``
    renames a lone option's flag, ``kwargs`` go to add_argument."""
    for name in names:
        opt = OPTIONS[name]
        p.add_argument(
            flag or "--" + name.replace("_", "-"), dest=name, type=opt.type,
            choices=opt.choices, **kwargs,
        )


def _add_common(p: argparse.ArgumentParser, *, seeded=True):
    if seeded:
        p.add_argument("--config", help="key=value option file")
        _add_options(p, "seed", help="base RNG seed (IH_SEED overrides)")
    p.add_argument("--report", help="write the JSON report here (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instahide",
        description="Mixing-scheme encryption, attacks, and statistical validators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="raw RGB bytes + label CSV -> dataset file")
    _add_options(p, "raw", required=True)
    _add_options(p, "dims", required=True, help="CxHxW of each raw image")
    _add_options(p, "labels", "classes")
    p.add_argument("--out", required=True)
    _add_common(p, seeded=False)
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
    p.add_argument("--out", required=True)
    _add_options(p, "epochs", *_SCHEME, *_SYNTHETIC)
    _add_common(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("train", help="train the linear softmax classifier")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--plain", action="store_true", help="train on raw images")
    p.add_argument("--out", required=True)
    _add_options(p, "epochs", "lr", *_SCHEME, *_SYNTHETIC)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--mode", choices=("plain", "encrypted"), default="plain")
    _add_options(p, "ensemble", *_SCHEME, *_SYNTHETIC)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    pa = sub.add_parser("attack", help="run an attack harness with known ground truth")
    asub = pa.add_subparsers(dest="subcommand", required=True)

    p = asub.add_parser("pair", help="pairwise inner-product detection on a history")
    p.add_argument("--in", dest="infile")
    p.add_argument("--threshold", type=float)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_options(p, "epochs", "delta", "k", "c1", *_SYNTHETIC)
    _add_common(p)
    p.set_defaults(func=cmd_attack_pair)

    p = asub.add_parser("public-scan", help="inner-product sweep over public patches")
    p.add_argument("--public")
    p.add_argument("--candidates", type=int, default=1000)
    p.add_argument("--threshold", type=float)
    _add_options(p, "delta", "k", "synthetic_dims")
    _add_common(p)
    p.set_defaults(func=cmd_attack_public_scan)

    p = asub.add_parser("braverman", help="fourth-moment candidate ranking")
    p.add_argument("--public")
    p.add_argument("--candidates", type=int, default=1000)
    _add_options(p, "k", "c1", "synthetic_dims")
    _add_common(p)
    p.set_defaults(func=cmd_attack_braverman)

    p = asub.add_parser("averaging", help="average demasked encryptions")
    p.add_argument("--in", dest="infile")
    p.add_argument("--mode", choices=attacks.AVERAGING_MODES, default="strong")
    p.add_argument("--target", type=int, default=0)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_options(p, "epochs", "oracle_p", "m", "k", "c1", *_SYNTHETIC)
    _add_common(p)
    p.set_defaults(func=cmd_attack_averaging)

    p = asub.add_parser("similarity", help="SSIM search after oracle demasking")
    p.add_argument("--trials", dest="trials_count", type=int, default=50)
    p.add_argument("--sources", type=int, default=10000)
    p.add_argument("--source-dims", dest="source_dims", default="3x48x48")
    p.add_argument("--patch-dims", dest="patch_dims", default="3x32x32")
    _add_options(p, "m", "oracle_p", "k", "c1", "c2")
    _add_common(p)
    p.set_defaults(func=cmd_attack_similarity)

    p = asub.add_parser("grad-match", help="invert a training gradient")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", dest="lr_attack", type=float, default=0.05)
    p.add_argument("--reconstruction-out", dest="reconstruction_out")
    _add_options(p, "synthetic_dims", "synthetic_classes")
    _add_common(p)
    p.set_defaults(func=cmd_attack_grad_match)

    ps = sub.add_parser("stats", help="statistical validators")
    ssub = ps.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("ks-table", help="indistinguishability p-value table")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--picks", type=int, default=stats.PROTOCOL_PICKS)
    p.add_argument("--encryptions", type=int, default=stats.PROTOCOL_ENCRYPTIONS)
    _add_options(p, *_SCHEME, *_SYNTHETIC)
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
        _add_options(p, "k", "delta", "trials", "beta")
        _add_common(p)

    p = sub.add_parser("challenge", help="export encrypted samples, no keys or originals")
    p.add_argument("--in", dest="infile")
    p.add_argument("--public")
    p.add_argument("--out", required=True)
    _add_options(p, "synthetic_n", flag="--n", help="synthetic private size (default 100)")
    _add_options(p, "epochs", "k", "c1", "c2", "synthetic_dims", "synthetic_classes")
    _add_common(p)
    p.set_defaults(func=cmd_challenge)

    return parser


def main(argv=None) -> int:
    """Run one command: resolve its options, open RngStream(seed), call it and
    write its report. Returns the exit code."""
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        opts = resolve_options(args, command)
        if not np.isfinite(getattr(args, "threshold", None) or 0.0):  # no JSON report holds it
            raise ValidationError(f"threshold must be a finite number, got {args.threshold}")
        rng = RngStream(opts["seed"]) if "seed" in opts else None
        results = args.func(args, opts, rng)
        write_report(args.report, {"command": command, "config": opts, "results": results})
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
