"""Command-line driver.

Subcommands: import, prep-public, encrypt, train, eval,
attack {pair, public-scan, braverman, averaging, similarity, grad-match},
stats {ks-table, concentration, theorem-gap}, challenge.

Every flag but --config (which import lacks) and --report is an entry of
one table, OPTIONS: type, built-in default, choices and help; the flag is
``--`` and the name with ``-`` for ``_``. COMMANDS gives each command its
handler's name, help and the options it reads (``out!`` is required,
``n=synthetic_n`` registers option synthetic_n as ``--n``, ``mode:a|b`` gives
mode the command's own choices, a the default); build_parser builds every
parser from it. Each option resolves as: IH_SEED (for the seed) > flag >
config file (``key = value`` lines) > COMMAND_DEFAULTS > the Option's
default. Required options are checked after that, so a config file can
supply them. Config-file values and IH_SEED are typed and checked like the
command's flags: a value its option's type or choices refuse, or an unknown
key, is invalid input.
``main`` runs every command the same way: resolve the options, open
RngStream(seed), call the handler with them, and write one JSON report whose
``config`` holds exactly the options the run read (``Options.read``), paths
included. Its non-null entries, as a config file, replay the run to
byte-identical artifacts. A command publishes its output files and report,
and prints a report without ``--report``, only when it exits 0; until then
each file is staged as ``<name>.<pid>.tmp``, which a killed run can leave.
Exit codes: 0 success, 2 invalid input or configuration, 1 runtime failure.
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

from . import attacks, encrypt, publicprep, stats, utility
from .core import Dataset, Image, make_gaussian_dataset
from .encrypt import SCHEMES, SchemeConfig, encrypt_history, export_challenge
from .errors import ValidationError
from .ihds import import_raw, load_dataset, output, publishing, read_arrays, read_file, save_dataset
from .rng import RngStream


def boolean(text: str) -> bool:
    """A config file's true or false, in any case (``bool("false")`` is True)."""
    return bool(("false", "true").index(text.lower()))  # ValueError for any other text


class Option(NamedTuple):
    """How an option's flag or config-file text converts, and its built-in default;
    a ``boolean`` option's flag takes no value."""

    type: Callable[[str], object]
    default: object = None
    choices: tuple | None = None
    help: str | None = None


OPTIONS = {
    "seed": Option(int, 0, help="base RNG seed (IH_SEED overrides)"),
    # input and output files
    "in": Option(str),
    "public": Option(str),
    "model": Option(str),
    "out": Option(str, help="output path (stats ks-table: the CSV table)"),
    "reconstruction_out": Option(str),
    "raw": Option(str),
    "dims": Option(str, help="CxHxW of each raw image"),
    "labels": Option(str),
    "classes": Option(int),
    # schemes, training and evaluation
    "scheme": Option(str, "inside", SCHEMES),
    "k": Option(int, 4),
    "c1": Option(float, 0.65),
    "c2": Option(float, 0.3),
    "epochs": Option(int, 50),
    "lr": Option(float, 0.1),
    "plain": Option(boolean, False, help="train on raw images"),
    "mode": Option(str),  # each command's spec gives its choices
    "ensemble": Option(int, 10),
    "synthetic_n": Option(int, 50, help="synthetic private size (challenge: --n, default 100)"),
    "synthetic_dims": Option(str, "3x32x32"),
    "synthetic_classes": Option(int, 10),
    # prep-public
    "patch_size": Option(str, "32x32"),
    "per_image": Option(int, 1),
    "min_keypoints": Option(int, publicprep.DEFAULT_MIN_KEYPOINTS),
    # attacks
    "threshold": Option(float),
    "delta": Option(float, 0.01),
    "candidates": Option(int, 1000),
    "target": Option(int, 0),
    "oracle_p": Option(float, 0.25),
    "m": Option(int, 5),
    "trials": Option(int, 1000),
    "sources": Option(int, 10000),
    "source_dims": Option(str, "3x48x48"),
    "patch_dims": Option(str, "3x32x32"),
    "steps": Option(int, 2000),
    # statistical validators
    "picks": Option(int, stats.PROTOCOL_PICKS),
    "encryptions": Option(int, stats.PROTOCOL_ENCRYPTIONS),
    "d": Option(int, 3072),
    "n": Option(int, 1000),
    "beta": Option(float, 2.0),
    "which": Option(str, choices=stats.GAP_KINDS),
}

_SCHEME = "scheme k c1 c2"
_SYNTHETIC = "synthetic_n synthetic_dims"  # a command that reads labels adds synthetic_classes

GROUPS = {"attack": "run an attack harness with known ground truth",
          "stats": "statistical validators"}

# command -> (handler name, help, the options it reads)
COMMANDS = {
    "import": ("cmd_import", "raw RGB bytes + label CSV -> dataset file",
               "raw! dims! labels classes out!"),
    "prep-public": ("cmd_prep_public", "crop and filter a public dataset",
                    "in! out! patch_size per_image min_keypoints seed"),
    "encrypt": ("cmd_encrypt", "encrypt a private dataset for T epochs",
                f"in public out! epochs {_SCHEME} {_SYNTHETIC} synthetic_classes seed"),
    "train": ("cmd_train", "train the linear softmax classifier",
              f"in public plain out! epochs lr {_SCHEME} {_SYNTHETIC} synthetic_classes seed"),
    "eval": ("cmd_eval", "evaluate a trained model",
             f"model! in public mode:plain|encrypted ensemble {_SCHEME} {_SYNTHETIC} "
             "synthetic_classes seed"),
    "attack pair": ("cmd_attack_pair", "pairwise inner-product detection on a history",
                    f"in threshold reconstruction_out epochs delta scheme k c1 {_SYNTHETIC} seed"),
    "attack public-scan": ("cmd_attack_public_scan", "inner-product sweep over public patches",
                           "public candidates threshold delta scheme k c1 trials synthetic_dims "
                           "seed"),
    "attack braverman": ("cmd_attack_braverman", "fourth-moment candidate ranking",
                         "public candidates k c1 synthetic_dims seed"),
    "attack averaging": ("cmd_attack_averaging", "average demasked encryptions",
                         f"in mode:{'|'.join(attacks.AVERAGING_MODES)} target reconstruction_out "
                         "epochs oracle_p m k c1 "
                         f"{_SYNTHETIC} seed"),
    "attack similarity": ("cmd_attack_similarity", "SSIM search after oracle demasking",
                          "trials sources source_dims patch_dims m oracle_p k c1 c2 seed"),
    "attack grad-match": ("cmd_attack_grad_match", "invert a training gradient",
                          "steps lr reconstruction_out synthetic_dims synthetic_classes seed"),
    "stats ks-table": ("cmd_stats_ks_table", "indistinguishability p-value table",
                       f"in public out! picks encryptions {_SCHEME} {_SYNTHETIC} seed"),
    "stats concentration": ("cmd_stats_concentration", "tail-bound Monte Carlo checks",
                            "d delta trials seed"),
    "stats theorem-gap": ("cmd_stats_theorem_gap", "member/non-member separation check",
                          "which! k delta trials beta d n seed"),
    "challenge": ("cmd_challenge", "export encrypted samples, no keys or originals",
                  "in public out! n=synthetic_n epochs k c1 c2 synthetic_dims "
                  "synthetic_classes seed"),
}

COMMAND_DEFAULTS = {
    "challenge": {"k": 6, "synthetic_n": 100},
    "attack pair": {"scheme": "mixup", "k": 2},
    "attack public-scan": {"scheme": "mixup", "trials": 25},
    "attack similarity": {"m": 100, "trials": 50},
    "attack grad-match": {"lr": 0.05},
}


def command_flags(command: str):
    """(option name, flag, required, Option) for each option ``command`` reads,
    the Option with the command's own choices and, as its default, the first."""
    for token in COMMANDS[command][2].split():
        token, _, choices = token.partition(":")
        alias, _, name = token.rstrip("!").rpartition("=")
        opt = OPTIONS[name]
        if choices:
            choices = tuple(choices.split("|"))
            opt = opt._replace(default=choices[0], choices=choices)
        yield name, "--" + (alias or name).replace("_", "-"), token.endswith("!"), opt


def _convert(name: str, text: str, source: str, opt: Option | None = None):
    """``text`` as option ``name``'s value, converted and checked as its flag
    would be: by ``opt``, the command's Option, else by OPTIONS."""
    opt = opt or OPTIONS.get(name)
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


def _load_config_file(path: str | None, own: dict) -> dict:
    """The file's options, checked by the command's Option (``own``) where it has one."""
    if not path:
        return {}
    out = {}
    for line in read_file(path, text=True).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        out[key] = _convert(key, value.strip(), f"config {path}", own.get(key))
    return out


class Options(dict):
    """A command's resolved options; ``read`` keeps each one a lookup returned
    (``dict.get`` peeks without recording)."""

    def __init__(self, values: dict):
        super().__init__(values)
        self.read = {}

    def __getitem__(self, name: str):
        self.read[name] = value = super().__getitem__(name)
        return value


def resolve_options(given: dict, command: str) -> Options:
    """The value of every option ``command`` reads: IH_SEED (for the seed) >
    flag > config file > COMMAND_DEFAULTS > the Option's default. ``given`` holds
    the parsed flags, None where absent; a required option left unset is
    invalid input."""
    flags = list(command_flags(command))
    own = {name: opt for name, _, _, opt in flags}
    env = {}
    if "seed" in given and "IH_SEED" in os.environ:
        env["seed"] = _convert("seed", os.environ["IH_SEED"], "IH_SEED")
    layers = ChainMap(
        env,
        {name: given[name] for name in own if given[name] is not None},
        _read_input(_load_config_file, given.get("config"), own),
        COMMAND_DEFAULTS.get(command, {}),
        {name: opt.default for name, opt in own.items()},
    )
    values = {name: layers[name] for name in own}
    missing = [flag for name, flag, required, _ in flags if required and values[name] is None]
    if missing:
        raise ValidationError(f"missing required option {', '.join(missing)} (flag or config)")
    return Options(values)


def _parse_dims(text: str, shape: str = "CxHxW") -> tuple[int, ...]:
    """Positive ints separated by 'x' (or ','), one per letter of ``shape``."""
    parts = [p.strip() for p in text.replace(",", "x").split("x") if p]
    if len(parts) != len(shape.split("x")) or not all(p.isdecimal() and int(p) for p in parts):
        raise ValidationError(f"dims must be {shape} of positive ints, got {text!r}")
    return tuple(int(p) for p in parts)


def _scheme_config(opts: dict, scheme: str | None = None) -> SchemeConfig:
    """The scheme options a command reads, c2 only for cross; ``scheme`` for a
    command that fixes its scheme (the options it lacks keep SchemeConfig's defaults)."""
    scheme = scheme or opts["scheme"]
    names = ("k", "c1", "c2") if scheme == "cross" else ("k", "c1")
    return SchemeConfig(scheme, **{name: opts[name] for name in names if name in opts})


def _read_input(load, path, *args, **kwargs):
    """load(path, ...); an unreadable, truncated or unparsable file is bad input (exit 2)."""
    try:
        return load(path, *args, **kwargs)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ValidationError(f"cannot read input file {exc.filename or path}: {reason}") from exc


def _private_dataset(opts: dict, rng: RngStream) -> Dataset:
    """The dataset behind --in, or a synthetic Gaussian stand-in, labelled only
    for a command that reads synthetic_classes (labels are drawn after pixels)."""
    if opts["in"]:
        return _read_input(load_dataset, opts["in"])
    return make_gaussian_dataset(
        opts["synthetic_n"],
        _parse_dims(opts["synthetic_dims"]),
        rng.child("synthetic"),
        classes=opts["synthetic_classes"] if "synthetic_classes" in opts else None,
    )


def _public_patches(opts: dict, dims, rng: RngStream, count: int = 1000, cfg=None):
    """PatchSet from --public, or a synthetic Gaussian pool of the same dims;
    None, without reading --public, when ``cfg`` is given and is not the cross
    scheme."""
    if cfg is not None and cfg.scheme != "cross":
        return None
    if opts["public"]:
        return _read_input(publicprep.load_patchset, opts["public"])
    return make_gaussian_dataset(count, dims, rng.child("public"), normalize=False)


def _trial_rows(private, cfg: SchemeConfig, trials: int, rng: RngStream, publicset=None):
    """An attack's queries from one kernel call: trial t encrypts row t % n of
    ``private`` under ``rng.children("enc", ids=t)``."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    t = np.arange(trials)
    S = encrypt._sources(private, cfg, publicset)
    return encrypt._encrypt_rows(S, None, cfg, t % private.n, rng.children("enc", ids=t))


# ---------------------------------------------------------------------------
# commands: each takes (resolved options, RngStream(seed)) and returns its
# report's results


def cmd_import(opts: dict, rng: None) -> dict:
    labels = opts["labels"]
    if labels is None and dict.get(opts, "classes") is not None:  # a peek: classes is unread
        raise ValidationError("--classes needs --labels (it bounds the label CSV's classes)")
    ds = _read_input(
        import_raw, opts["raw"], _parse_dims(opts["dims"]), labels_path=labels,
        classes=None if labels is None else opts["classes"],
    )
    save_dataset(ds, opts["out"])
    return {"images": ds.n, "out": opts["out"]}


def cmd_prep_public(opts: dict, rng: RngStream) -> dict:
    source = _read_input(load_dataset, opts["in"])
    ps = publicprep.build_patchset(
        source, _parse_dims(opts["patch_size"], "HxW"), opts["per_image"], rng.child("crop"),
        min_keypoints=opts["min_keypoints"],
    )
    candidates = source.n * opts["per_image"]
    if not len(ps):  # a cross scheme cannot run without public patches
        why = (f"none of the {candidates} candidate crops has more than {opts['min_keypoints']}"
               " keypoints" if candidates else "--per-image 0 or an empty --in gives no crops")
        raise ValidationError(f"no patch kept: {why}")
    publicprep.save_patchset(ps, opts["out"])
    return {
        "candidates": candidates,
        "kept": len(ps),
        "retention": len(ps) / candidates,
        "out": opts["out"],
    }


def _export(opts: dict, rng: RngStream, private: Dataset, cfg, publicset) -> dict:
    """Encrypt opts["epochs"] epochs and write them to --out (encrypt, challenge)."""
    samples = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"), publicset)[0]
    meta = {"scheme": cfg.scheme, "k": cfg.k, "c1": cfg.c1, "epochs": opts["epochs"],
            "n": private.n, **({"c2": cfg.c2} if cfg.scheme == "cross" else {})}
    out_path, meta_path = export_challenge(samples, opts["out"], meta)
    return {"samples": len(samples), "out": str(out_path), "meta": str(meta_path)}


def cmd_encrypt(opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(opts, rng)
    cfg = _scheme_config(opts)
    publicset = _public_patches(opts, private.dims, rng, cfg=cfg)
    return _export(opts, rng, private, cfg, publicset)


def cmd_train(opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(opts, rng)
    model = utility.init_model(private.label_matrix().shape[1], private.d)
    if opts["plain"]:
        model = utility.train(model, private, opts["epochs"], opts["lr"], rng.child("sgd"))
    else:
        cfg = _scheme_config(opts)
        publicset = _public_patches(opts, private.dims, rng, cfg=cfg)
        model = utility.train_encrypted(
            model, private, cfg, opts["epochs"], opts["lr"], rng.child("train"),
            publicset=publicset,
        )
    utility.save_model(model, opts["out"])
    return {"out": opts["out"], "train_accuracy": utility.evaluate(model, private, mode="plain")}


def cmd_eval(opts: dict, rng: RngStream) -> dict:
    model = _read_input(utility.load_model, opts["model"])
    test = _private_dataset(opts, rng)
    if opts["mode"] == "plain":
        acc = utility.evaluate(model, test, mode="plain")
    else:  # encrypted, the parser's one other choice
        cfg = _scheme_config(opts)
        publicset = _public_patches(opts, test.dims, rng, cfg=cfg)
        acc = utility.evaluate(
            model, test, mode=opts["mode"], cfg=cfg, rng=rng.child("eval"),
            ensemble=opts["ensemble"], partner_pool=test, publicset=publicset,
        )
    return {"accuracy": acc, "mode": opts["mode"]}


def _attack_results(opts: dict, report, **extra) -> dict:
    """The attack report's results plus ``extra``; the reconstruction goes to
    --reconstruction-out when the command has one."""
    path = opts["reconstruction_out"] if "reconstruction_out" in opts else None
    if path and report.reconstruction is not None:
        save_dataset(Dataset((report.reconstruction,)), path)
    return {**report.to_dict(path), **extra}


def _pool_free_scheme(opts: dict, command: str) -> SchemeConfig:
    """The scheme of a command whose mixes draw no public patches: cross is
    refused by name."""
    if opts["scheme"] == "cross":
        raise ValidationError(f"attack {command} runs the mixup or inside scheme, got cross")
    return _scheme_config(opts)


def cmd_attack_pair(opts: dict, rng: RngStream) -> dict:
    cfg = _pool_free_scheme(opts, "pair")
    private = _private_dataset(opts, rng)
    history, truth = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"))
    threshold = opts["threshold"]  # delta only sets the default threshold
    report = attacks.pair_detection_attack(
        history, threshold=threshold, truth_keys=truth, k=cfg.k,
        delta=opts["delta"] if threshold is None else attacks.DEFAULT_DELTA,
    )
    return _attack_results(opts, report)


def cmd_attack_public_scan(opts: dict, rng: RngStream) -> dict:
    cfg = _pool_free_scheme(opts, "public-scan")  # its queries mix pool rows only
    dims = _parse_dims(opts["synthetic_dims"])
    publicset = _public_patches(opts, dims, rng, count=opts["candidates"])
    rows = _trial_rows(publicset, cfg, opts["trials"], rng)
    members = rows.sources.tolist()
    threshold = opts["threshold"]  # delta only sets the default threshold
    found = attacks.public_scan_attack(
        rows.pixels, publicset, cfg.k, threshold=threshold, truth_members=members,
        delta=opts["delta"] if threshold is None else attacks.DEFAULT_DELTA,
    )
    reports = [_attack_results(opts, r, true_members=m) for r, m in zip(found, members)]
    mean_recall = sum(report["metrics"]["recall"] for report in reports) / len(reports)
    return {"trials": len(reports), "mean_recall": mean_recall, "reports": reports}


def cmd_attack_braverman(opts: dict, rng: RngStream) -> dict:
    dims = _parse_dims(opts["synthetic_dims"])
    publicset = _public_patches(opts, dims, rng, count=opts["candidates"])
    rows = _trial_rows(publicset, _scheme_config(opts, "inside"), 1, rng)
    truth = rows.sources[0].tolist()
    report = attacks.braverman_attack(rows.pixels[0], publicset, truth_members=set(truth))
    return _attack_results(opts, report, true_members=truth)


def cmd_attack_averaging(opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(opts, rng)
    cfg = _scheme_config(opts, "inside")
    history, keys = encrypt_history(private, cfg, opts["epochs"], rng.child("enc"))
    oracle = attacks.SignOracle(opts["oracle_p"], rng.child("oracle"))
    # weak mode takes m, strong mode (the parser's one other choice) a target
    knob = {"m": opts["m"]} if opts["mode"] == "weak" else {"target": opts["target"]}
    report = attacks.averaging_attack(history, keys, private, opts["mode"], oracle, **knob)
    return _attack_results(opts, report)


def cmd_attack_similarity(opts: dict, rng: RngStream) -> dict:
    trials = opts["trials"]
    source_dims, patch_dims = _parse_dims(opts["source_dims"]), _parse_dims(opts["patch_dims"])
    sources = make_gaussian_dataset(opts["sources"], source_dims, rng.child("sources"),
                                    normalize=False)
    # one unscored crop of each source per side, so patch i is cut from source i
    enc_patches, attacker_patches = (
        Dataset(publicprep._candidates(sources, patch_dims[1:], 1, rng.child(tag))[0])
        for tag in ("crop-enc", "crop-att")
    )
    n = max(2, trials)  # a cross mix takes a second private image
    private = make_gaussian_dataset(n, patch_dims, rng.child("private"), normalize=False)
    cfg = _scheme_config(opts, "cross")
    oracle = attacks.SignOracle(opts["oracle_p"], rng.child("oracle"))
    rows = _trial_rows(private, cfg, trials, rng, enc_patches)  # trial t encrypts image t
    # source row j >= n is public patch j - n, so source image j - n
    truth = [set((j[j >= n] - n).tolist()) for j in rows.sources]
    reports = attacks.similarity_search_attack(
        rows.pixels, attacker_patches, oracle, rows.signs, opts["m"], truth_patches=truth,
        tag=np.arange(trials),
    )
    hits = sum(int(rep.metrics["hit"]) for rep in reports)
    return {"trials": trials, "hits": hits, "hit_rate": hits / trials, "m": opts["m"]}


def cmd_attack_grad_match(opts: dict, rng: RngStream) -> dict:
    dims = _parse_dims(opts["synthetic_dims"])
    classes = opts["synthetic_classes"]
    victim_ds = make_gaussian_dataset(1, dims, rng.child("victim"), classes=classes)
    model = utility.init_model(classes, victim_ds.d, rng.child("model"), scale=0.01)
    victim, label = Image(victim_ds.matrix()[0], dims), victim_ds.label_matrix()[0]
    _, grads = utility.loss_and_gradient(model, victim, label)
    report = attacks.gradient_matching_attack(
        grads, model, rng.child("attack"), steps=opts["steps"], lr=opts["lr"], victim=victim,
    )
    return _attack_results(opts, report)


def cmd_stats_ks_table(opts: dict, rng: RngStream) -> dict:
    if opts["encryptions"] < stats.PROTOCOL_PROBES:
        raise ValidationError(f"--encryptions must be >= {stats.PROTOCOL_PROBES} (the probe "
                              f"encryptions per image), got {opts['encryptions']}")
    private = _private_dataset(opts, rng)
    cfg = _scheme_config(opts)
    publicset = _public_patches(opts, private.dims, rng, cfg=cfg)
    report = stats.indistinguishability_protocol(
        private, cfg, rng.child("protocol"),
        picks=opts["picks"], encryptions_per_image=opts["encryptions"], publicset=publicset,
    )
    report.to_csv(opts["out"])
    return {
        "out": opts["out"],
        "min_p": report.min_p(),
        "max_pair_delta": report.max_pair_delta(),
    }


def _concentration_config(opts: dict, names: str) -> stats.ConcentrationCheckConfig:
    """A config of the named options; the rest keep ConcentrationCheckConfig's defaults."""
    return stats.ConcentrationCheckConfig(**{name: opts[name] for name in names.split()})


def cmd_stats_concentration(opts: dict, rng: RngStream) -> dict:
    cfg = _concentration_config(opts, "d delta trials")
    return {
        "chi_square": stats.check_chi_square_tail(cfg, rng.child("chi")),
        "inner_product": stats.check_inner_product_concentration(cfg, rng.child("ip")),
        "bernstein": stats.check_bernstein_tail(cfg, rng.child("bern")),
    }


def cmd_stats_theorem_gap(opts: dict, rng: RngStream) -> dict:
    names = "d n delta trials beta" + (" k" if opts["which"] == "scan" else "")
    return stats.check_theorem_gap(_concentration_config(opts, names), opts["which"],
                                   rng.child("gap"))


def leakage_guard(path: str | Path, private: Dataset) -> None:
    """Raise if any private image is, byte for byte, a row of the IHDS file at
    ``path``, read from disk (from its staged file, inside a publishing block).
    Rows are viewed as ``<u4`` words; a row's uint64 word sum picks candidates
    that are confirmed on their full bits, so +0.0 and -0.0 differ."""
    pixels, _ = read_arrays(path)
    if np.prod(pixels.shape[1:]) != private.d:  # no private row can be a row of this file
        return
    written = pixels.reshape(len(pixels), private.d).view("<u4")
    own = np.ascontiguousarray(private.matrix(), "<f4").view("<u4")
    sums, own_sums = (rows.sum(axis=1, dtype=np.uint64) for rows in (written, own))
    for i in np.flatnonzero(np.isin(own_sums, sums)):
        if (written[sums == own_sums[i]] == own[i]).all(axis=1).any():
            raise RuntimeError(
                f"leakage guard: private image {i} appears verbatim in the output"
            )


def cmd_challenge(opts: dict, rng: RngStream) -> dict:
    private = _private_dataset(opts, rng)
    private.label_matrix()  # a release carries labels: refuses an unlabelled set
    cfg = _scheme_config(opts, "cross")
    publicset = _public_patches(opts, private.dims, rng)
    results = _export(opts, rng, private, cfg, publicset)
    leakage_guard(results["out"], private)
    return {**results, "leakage_scan": "clean"}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, with the flags of the options it reads;
    each handler is looked up by name here, so a patched ``cmd_*`` is called."""
    parser = argparse.ArgumentParser(
        prog="instahide",
        description="Mixing-scheme encryption, attacks, and statistical validators.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (handler, text, _) in COMMANDS.items():
        group, _, leaf = command.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        p = subs[group].add_parser(leaf, help=text)
        for name, flag, required, opt in command_flags(command):
            text = "; ".join(filter(None, (opt.help, required and "required"))) or None
            if opt.type is boolean:
                p.add_argument(flag, dest=name, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, dest=name, type=opt.type, choices=opt.choices, help=text)
        if command != "import":
            p.add_argument("--config", help="key=value option file")
        p.add_argument("--report", help="write the JSON report here (default stdout)")
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    """Run one command: resolve its options, open RngStream(seed), call it and
    write its report. Returns the exit code."""
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        opts = resolve_options(vars(args), command)
        threshold = opts["threshold"] if "threshold" in opts else None
        if not np.isfinite(threshold or 0.0):  # no JSON report holds it
            raise ValidationError(f"threshold must be a finite number, got {threshold}")
        rng = RngStream(opts["seed"]) if "seed" in opts else None
        with publishing():  # a failed command publishes none of its outputs
            results = args.func(opts, rng)
            report = {"command": command, "config": opts.read, "results": results}
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
            if args.report:
                with output(args.report, "w") as fh:
                    fh.write(text)
        if not args.report:  # printed only once the outputs are in place
            sys.stdout.write(text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
