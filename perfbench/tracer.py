"""Spans around the package's public functions, recorded from outside.

The tracer replaces each target function at every binding site: the module
that defines it and every ``instahide`` module that imported it with
``from ... import`` (found by identity, so a name bound under an alias is
caught too). Methods are replaced on their class, which is their only
binding site. Leaving the ``with`` block puts every original back.

Each call records one span ``(name, start, end, parent)`` in memory; self
time is computed afterwards from the parent links. ``Image.__post_init__``
is counted rather than spanned, since only its count is reported.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


def _rows(arr) -> int:
    return np.atleast_2d(np.asarray(arr)).shape[0]


# Volume hooks: (args, kwargs, result) -> {volume name: amount}. They read
# positional arguments, which is how the package itself calls these.
def _scan_volume(args, kwargs, result):
    return {"bytes": float(np.asarray(args[0]).nbytes)}


def _ssim_volume(args, kwargs, result):
    return {"pairs": float(_rows(args[0]) * _rows(args[1]))}


def _save_volume(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _load_volume(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _patchset_volume(args, kwargs, result):
    per_image = args[2] if len(args) > 2 else kwargs["patches_per_image"]
    return {"kept": float(len(result)), "candidates": float(args[0].n * int(per_image))}


# (defining module, qualified name, span name, volume hook)
SPAN_TARGETS = (
    ("instahide.rng", "RngStream.generator", "rng.generator", None),
    ("instahide.core", "scan_scores", "core.scan_scores", _scan_volume),
    ("instahide.publicprep", "PatchSet.matrix", "publicprep.PatchSet.matrix", None),
    ("instahide.publicprep", "build_patchset", "publicprep.build_patchset", _patchset_volume),
    ("instahide.publicprep", "keypoint_counts", "publicprep.keypoint_counts", None),
    ("instahide.publicprep", "save_patchset", "publicprep.save_patchset", None),
    ("instahide.publicprep", "load_patchset", "publicprep.load_patchset", None),
    ("instahide.encrypt", "encrypt_sample", "encrypt.encrypt_sample", None),
    ("instahide.encrypt", "encrypt_epoch", "encrypt.encrypt_epoch", None),
    ("instahide.encrypt", "encrypt_history", "encrypt.encrypt_history", None),
    ("instahide.encrypt", "encrypt_input", "encrypt.encrypt_input", None),
    ("instahide.encrypt", "export_challenge", "encrypt.export_challenge", None),
    ("instahide.ihds", "save_dataset", "ihds.save_dataset", _save_volume),
    ("instahide.ihds", "load_dataset", "ihds.load_dataset", _load_volume),
    ("instahide.attacks", "public_scan_attack", "attacks.public_scan_attack", None),
    ("instahide.attacks", "braverman_attack", "attacks.braverman_attack", None),
    ("instahide.attacks", "similarity_search_attack", "attacks.similarity_search_attack", None),
    ("instahide.attacks", "ssim_pairwise", "attacks.ssim_pairwise", _ssim_volume),
    ("instahide.attacks", "pair_detection_attack", "attacks.pair_detection_attack", None),
    ("instahide.stats", "indistinguishability_protocol", "stats.indistinguishability_protocol", None),
    ("instahide.utility", "train", "utility.train", None),
    ("instahide.utility", "train_encrypted", "utility.train_encrypted", None),
    ("instahide.utility", "evaluate", "utility.evaluate", None),
    ("instahide.utility", "predict_encrypted", "utility.predict_encrypted", None),
    ("instahide.cli", "main", "cli.main", None),
    ("instahide.cli", "cmd_prep_public", "cli.cmd_prep_public", None),
    ("instahide.cli", "cmd_challenge", "cli.cmd_challenge", None),
)

# (defining module, qualified name, counter name)
COUNT_TARGETS = (("instahide.core", "Image.__post_init__", "core.Image.constructed"),)


def _resolve(module_name: str, qualname: str):
    """(owner object, attribute name, original) for a dotted qualname."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _module_sites(original):
    """Every (module, name) in the package that holds ``original``."""
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "instahide" or name.startswith("instahide.")):
            continue
        sites.extend((mod, key) for key, value in vars(mod).items() if value is original)
    return sites


class Tracer:
    """Context manager that patches the targets and records spans.

    ``spans`` holds ``(name, start, end, parent index or -1)``; ``counts``
    and ``volumes`` accumulate per name. ``reset()`` starts a new pass
    without unpatching.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.volumes: dict = defaultdict(Counter)

    def _span_wrapper(self, fn, name: str, volume):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if volume is not None:
                self.volumes[name].update(volume(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module_name, qualname, wrapper) -> None:
        owner, attr, original = _resolve(module_name, qualname)
        # a method's class is its one binding site
        sites = [(owner, attr)] if "." in qualname else _module_sites(original)
        replacement = wrapper(original)
        for owner, attr in sites:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already active")
        try:
            for module_name, qualname, name, volume in SPAN_TARGETS:
                self._patch(
                    module_name, qualname,
                    lambda fn, n=name, v=volume: self._span_wrapper(fn, n, v),
                )
            for module_name, qualname, name in COUNT_TARGETS:
                self._patch(
                    module_name, qualname, lambda fn, n=name: self._count_wrapper(fn, n)
                )
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, plus the
        counters and volumes recorded since the last reset."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for name, volume in self.volumes.items():
            out[name].update(volume)
        for name, count in self.counts.items():
            out[name]["calls"] = count
        return dict(out)
