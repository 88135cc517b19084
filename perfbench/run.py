#!/usr/bin/env python3
"""Benchmark entry point: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root; the package is imported from src/.  The
workload runs in a fresh worker process, with BLAS/OpenMP threads capped
at nproc.  Set-up time is the median over SETUP_PROBES extra processes
that only set up, plus the worker's own set-up.  Times are in reference
seconds (see worker.py); the raw seconds are printed beside them.  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1).  Every failed op is listed by name on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("battery", "demo", "coefficient")
SETUP_PROBES = 4
DEADLINE_S = 170.0
P_MAX = 4096
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def write_inputs(workdir: Path):
    """The table-backed weight specs log M_p = s log p!, p <= 4096, s = 1, 2."""
    for s in (1, 2):
        spec = {"kind": "table", "logM": [s * math.lgamma(p + 1.0) for p in range(P_MAX + 1)]}
        (workdir / f"logM_s{s}.json").write_text(json.dumps(spec))


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """One worker process; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    write_inputs(workdir)
    base = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    probes = [
        run_worker([*base, "--seconds", "0", "--setup-only"], env, deadline - time.monotonic())
        for _ in range(SETUP_PROBES)
    ]
    res = run_worker(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], env, deadline - time.monotonic()
    )
    for key in ("setup_s", "setup_ref_s"):
        res[key + "_samples"] = [p[key] for p in probes] + [res[key]]
    return res


def quartiles(xs: list[float]):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def load_units() -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(res: dict, trace: int, units: dict) -> dict:
    """Print the human summary and return the contract's result object."""
    name = res["workload"]
    samples = {
        "setup_s": res["setup_ref_s_samples"],
        "wall_s": res["ref_walls"],
        "peak_rss_mb": [res["peak_rss_mb"]],
    }
    raw = {"raw_setup_s": res["setup_s_samples"], "raw_wall_s": res["walls"]}
    for metric, xs in (*samples.items(), *raw.items()):
        q1, med, q3 = quartiles(xs)
        print(f"{name:12s} {metric:12s} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(xs)} {units.get(metric, 's')}")
    passes = f"over {len(res['walls'])} passes"
    print(f"{name:12s} {'ops':12s} {res['attempted']} count {passes}")
    print(f"{name:12s} {'ops_failed':12s} {res['failed']} count {passes}")
    print(f"{name:12s} {'warnings':12s} {json.dumps(res['warnings'], sort_keys=True)}")
    for f in res["failures"]:
        print(f"FAILED {f['op']} (x{f['count']}): {f['reason']}")
    for d in res["known_defects"]:
        print(f"KNOWN DEFECT {d['op']}: {d['reason']}")
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {m: {"value": statistics.median(xs), "unit": units[m]} for m, xs in samples.items()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "periodic_gfa" / "__init__.py").is_file():
        print("error: run from the repository root (src/periodic_gfa not found)", file=sys.stderr)
        return 2
    units = load_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, root)
            results[name] = report(res, args.trace, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
