"""Each perfbench workload, set up, loaded, run for one pass and checked at
seed 0, so a change to the package that breaks a call the benchmark makes
fails here rather than in a benchmark run. perfbench/workloads.py is loaded
from its file as it stands; nothing under perfbench/ is changed."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["export", "attack", "validate"])
def test_one_pass_of_each_benchmark_workload_checks_clean(tmp_path, name):
    workload = _workloads()[name]()
    workload.setup(tmp_path, 0)
    state = workload.load(tmp_path, 0)
    assert workload.check(state, workload.run_pass(state)) == []
