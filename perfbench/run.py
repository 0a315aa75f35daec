"""Benchmark entry point.

    python3 perfbench/run.py --workload {export,attack,validate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout. The run sets the workload up
SETUP_REPS times, each in a fresh process, and reports the median set-up
time. It then starts one measuring process that loads the inputs and runs
passes of the workload for about S seconds, checking every pass's outputs.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one warm-up pass, then alternates untraced and traced passes, and
reports the per-layer metrics. The last line of standard output is the result as JSON;
the line before it carries machine and runtime information, which is also
written to .bench_work/results/.

The child processes re-enter this file with the internal ``--phase`` flag.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
MIN_PASSES = 3  # an untraced run takes at least this many passes
DEADLINE_S = 170  # the whole run, children included, ends before this
END_TO_END = (
    ("items_per_s", "1/s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def blas_threads() -> int:
    """BLAS threads for the children: the usable CPUs, lowered by any
    thread count already set in the environment."""
    limits = [len(os.sched_getaffinity(0))]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            limits.append(int(value))
    return min(limits)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("IH_SEED", None)  # the CLI lets it override --seed
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap threshold as large blocks are freed, so peak RSS
    # depended on allocation order (export read 418 or 443 MB by seed).
    # Fixing it at 32 MiB, the ceiling glibc would raise it to, removes that.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# child phases


def phase_setup(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    start = time.perf_counter()
    workload.setup(Path(args.dir), args.seed)
    elapsed = time.perf_counter() - start
    Path(args.out).write_text(json.dumps({"setup_s": elapsed}))
    return 0


def run_passes(workload, state, budget: float, min_passes: int, tracer=None) -> list[dict]:
    """Run passes until the next one would likely end past ``budget``
    seconds, but at least ``min_passes``. Outputs are checked after the
    clock stops; a pass that raises or fails its check is failed."""
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            result, problems = workload.run_pass(state), []
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            result, problems = None, [f"pass raised {type(exc).__name__}: {exc}"]
        pass_s = time.perf_counter() - t0
        summary = tracer.summary() if tracer is not None else None
        if not problems:
            try:
                problems = workload.check(state, result)
            except Exception as exc:  # noqa: BLE001
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        runs.append({"pass_s": pass_s, "problems": problems, "summary": summary})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["pass_s"] for r in runs)
        if len(runs) >= min_passes and elapsed + typical > budget:
            return runs


def phase_measure(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    state = workload.load(Path(args.dir), args.seed)
    warmup, traced = [], []
    if args.trace:
        from layers import span_metrics
        from tracer import Tracer

        # A process's first pass tends to run slow, which would bias the
        # traced-minus-untraced difference, so it is left out. The rest
        # alternate untraced and traced passes, so drift hits both alike.
        warmup = run_passes(workload, state, 0, 1)
        untraced, tracer = [], Tracer()
        start = time.perf_counter()
        while True:
            untraced += run_passes(workload, state, 0, 1)
            with tracer:
                traced += run_passes(workload, state, 0, 1, tracer)
            pair_s = untraced[-1]["pass_s"] + traced[-1]["pass_s"]
            if time.perf_counter() - start + pair_s > args.seconds:
                break
        for run in traced:
            run["layers"] = span_metrics(run.pop("summary"))
    else:
        untraced = run_passes(workload, state, args.seconds, MIN_PASSES)
    for run in warmup + untraced:
        run.pop("summary")
    report = {
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "computed": workload.computed(state),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine_info(),
    }
    Path(args.out).write_text(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# orchestration


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting " + argv[1])
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=child_env(), cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
    )
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{argv[1]} phase ran past the {DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise ChildFailed(f"{argv[1]} phase exited with code {code}")


def _median(values) -> float:
    return float(statistics.median(values))


def orchestrate(args) -> int:
    from layers import COMPUTED, PER_LAYER, TRACE_OVERHEAD
    from workloads import WORKLOADS

    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    inputs = run_dir / "inputs"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(inputs)]
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_times = []
    try:
        for rep in range(SETUP_REPS):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            out = run_dir / f"setup-{rep}.json"
            run_child(["--phase", "setup", *common, "--out", str(out)], deadline)
            setup_times.append(json.loads(out.read_text())["setup_s"])
        out = run_dir / "measure.json"
        run_child(
            ["--phase", "measure", *common, "--out", str(out),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        report = json.loads(out.read_text())
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    runs = report["warmup"] + report["untraced"] + report["traced"]
    failed = sum(1 for r in runs if r["problems"])
    pass_s = _median(r["pass_s"] for r in report["untraced"])
    items = WORKLOADS[args.workload].items
    units = {name: unit for name, unit, _ in PER_LAYER}
    if args.trace:
        traced_s = _median(r["pass_s"] for r in report["traced"])
        values = {
            name: _median(r["layers"][name] for r in report["traced"])
            for name in report["traced"][0]["layers"]
        }
        values[TRACE_OVERHEAD[0]] = traced_s - pass_s
        for name, _, _ in COMPUTED:
            values[name] = float(report["computed"].get(name, 0.0))
    else:
        values = {
            "items_per_s": items / pass_s,
            "pass_s": pass_s,
            "setup_s": _median(setup_times),
            "peak_rss_mb": report["peak_rss_kb"] * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": items,
        "passes": len(report["untraced"]),
        "pass_s_all": [r["pass_s"] for r in report["untraced"]],
        "warmup_pass_s": [r["pass_s"] for r in report["warmup"]],
        "traced_passes": len(report["traced"]),
        "traced_pass_s_all": [r["pass_s"] for r in report["traced"]],
        "setup_s_all": setup_times,
        "failed_frac": failed / len(runs),
        "problems": [p for r in runs for p in r["problems"]][:20],
        "computed": report["computed"],
        "machine": report["machine"],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results_dir / name).write_text(json.dumps({"info": info, "result": result}, indent=2))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("run", "setup", "measure"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "instahide" / "__init__.py").is_file():
        print(f"benchmark failed: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.phase == "setup":
        return phase_setup(args)
    if args.phase == "measure":
        return phase_measure(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
