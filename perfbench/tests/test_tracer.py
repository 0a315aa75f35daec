"""Self-tests for the benchmark's tracer and its metric definitions.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import instahide
from instahide import attacks, core
from instahide.rng import RngStream

import layers
import run
import workloads
from tracer import Tracer


def _bindings() -> dict:
    """Every function-valued binding in the package, by (owner, name)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "instahide" or name.startswith("instahide.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
            if inspect.isclass(value) and value.__module__.startswith("instahide"):
                for attr, member in vars(value).items():
                    out[(name, f"{key}.{attr}")] = member
    return out


def test_scan_scores_reached_through_attacks_is_counted():
    pool = RngStream(1).generator().normal(size=(64, 48)) / np.sqrt(48)
    query = pool[:3].sum(axis=0).astype(np.float32)
    with Tracer() as tracer:
        assert attacks.scan_scores is not core.scan_scores.__wrapped__
        attacks.public_scan_attack(query, pool, 3)
    summary = tracer.summary()
    assert summary["core.scan_scores"]["calls"] == 1
    assert summary["core.scan_scores"]["bytes"] == pool.nbytes
    names = [span[0] for span in tracer.spans]
    scan = tracer.spans[names.index("core.scan_scores")]
    assert names[scan[3]] == "attacks.public_scan_attack"


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("inner", 5.0, 6.0, 0)]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert summary["inner"]["calls"] == 2 and summary["inner"]["s"] == 4.0


def test_every_patched_function_is_restored():
    before = _bindings()
    with Tracer():
        assert _bindings() != before
    assert _bindings() == before
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _bindings() == before
    assert instahide.public_scan_attack is attacks.public_scan_attack


def test_traced_export_pass_writes_identical_bytes(tmp_path):
    export = workloads.Export()
    export.setup(tmp_path, 5)
    state = export.load(tmp_path, 5)
    assert export.check(state, export.run_pass(state)) == []
    with Tracer() as tracer:
        result = export.run_pass(state)
    assert export.check(state, result) == []  # same digest as the untraced pass
    assert tracer.summary()["cli.cmd_challenge"]["calls"] == 1


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
