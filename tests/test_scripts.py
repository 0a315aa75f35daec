"""Smoke tests: the scripts under scripts/ still run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_attack_sweep_runs_at_tiny_sizes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "rows.json"
    run = subprocess.run(
        # -W error: the subprocess does not inherit pytest's warning filters
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "run_attack_sweep.py"),
         "--candidates", "50", "--scan-trials", "2", "--history-n", "8", "--history-epochs", "3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 8
    printed = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
    assert printed == rows
    assert {(r["attack"], r["scheme"]) for r in rows} == {
        (attack, scheme) for attack in ("public_scan", "pair_detection")
        for scheme in ("mixup", "inside")
    }
