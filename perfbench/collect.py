#!/usr/bin/env python3
"""Repeat run.py over seeds and summarise each metric across the runs.

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the sample count and the spread
(q3 - q1) / median, which BENCHMARK.json bounds.  With --out it writes
the summary as a baseline file together with the git SHA and a machine
summary.

    python3 perfbench/collect.py --workloads battery demo coefficient \
        --seeds 1-10 [--trace 0|1] [--out perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import quartiles

BENCH = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for wl in args.workloads:
        runs = [one_run(wl, seed, seconds, args.trace) for seed in args.seeds]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary[wl] = {
            "metrics": metrics,
            "ops": summarise([r["attempted"] for r in runs]),
            "ops_failed": summarise([r["failed"] for r in runs]),
            "correct": [r["correct"] for r in runs],
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if m["spread"] < bound / 3 else "  WIDE")
            values = " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs)
            print(
                f"{wl:12s} {name:30s} median {m['median']:.6g} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                f"n={m['n']} spread {m['spread']:.4f}{'' if bound is None else f' bound {bound}'}{flag}"
                f"  values {values}",
                flush=True,
            )
    if args.out:
        payload = {}
        if args.out.exists():
            payload = json.loads(args.out.read_text())
        payload.update({"git_sha": git_sha(), "machine": machine(), "run_seconds": seconds})
        payload.setdefault("trace" if args.trace else "end_to_end", {}).update(
            {wl: {"seeds": args.seeds, **s} for wl, s in summary.items()}
        )
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
