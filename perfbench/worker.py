"""Run one workload in this process and print its measurements as one JSON line.

Started by run.py in a fresh process per workload, so that set-up time
and peak memory are the workload's own.  Set-up runs from the import of
the package (numpy and scipy already loaded) up to the first verdict.
Passes then repeat until the next one would end after --seconds.
After the passes, untimed, the workload's known_defects() probe runs;
what it finds is reported by name but not counted as failed ops.

The host's speed drifts: the same pass takes 14 s in one minute and 20 s
a few minutes later, with CPU time tracking wall time, and slow spells
outlast a whole run.  So times are reported in reference seconds: a
fixed calibration kernel (see Calibration) is timed before and after a
pass and, from a SIGALRM handler in the same thread, every CAL_PERIOD_S
during it; each stretch of the pass between two kernel runs is scaled by
CAL_REF_S over the mean of their times, and the kernel runs themselves
are left out of the pass.  Set-up is scaled by the kernel timed right
after it.  Traced runs scale every span the same way.

    python3 perfbench/worker.py --workload battery --seed 1 --seconds 35 \
        --trace 0 --workdir perfbench/.work [--setup-only]
"""

import time

# numpy and scipy are the same for every commit; their import time drifts
# with the host's loader and file speed by up to a quarter between runs
# minutes apart, far beyond anything the package's own set-up does, so
# set-up is timed from after they are loaded
import numpy as np
import scipy.special  # noqa: F401
from scipy.fft import ifft

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

from checker import Checker  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Replay  # noqa: E402  (imports periodic_gfa)

from periodic_gfa.series import AliasWarning  # noqa: E402
from periodic_gfa.weights import TruncationWarning  # noqa: E402


CAL_REF_S = 0.010
CAL_PERIOD_S = 0.5
CAL_SAMPLES = 3


class Calibration:
    """A fixed kernel whose time measures the host's current speed.

    Four parts of about 2.5 ms each: batched FFT rows, elementwise
    exp/log on a 1 MB array, numpy calls on 65-element arrays and a pure
    Python loop.  Their equal shares track the workloads' pass times
    better than any one part alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 4096)) + 1j * rng.standard_normal((16, 4096))
        self.small = rng.standard_normal(65) + 1j
        self.ramp = np.arange(65.0)
        self.marks: list[tuple[float, float, float]] = []
        self.active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.abs(ifft(self.x, axis=1))
        for _ in range(6):
            np.exp(np.log(np.abs(self.x) + 1.0))
        for _ in range(300):
            np.max(np.log(np.abs(self.small)) + self.ramp)
        acc = 0.0
        for k in range(30_000):
            acc += k * 0.5
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median kernel time over CAL_SAMPLES runs."""
        return statistics.median(self._kernel() for _ in range(CAL_SAMPLES))

    def _on_alarm(self, signum, frame):
        if self.active:
            t0 = time.perf_counter()
            k = self._kernel()
            self.marks.append((t0, time.perf_counter(), k))

    def measure(self, fn) -> tuple[float, float, list]:
        """Run fn; return its seconds and reference seconds without the kernel
        runs, and the (start, end, scale) stretches between kernel runs."""
        self.marks = []
        before = self.sample()
        self.active = True
        t_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.active = False
            t_end = time.perf_counter()
        kernels = [before] + [k for _, _, k in self.marks] + [self.sample()]
        starts = [t_start] + [end for _, end, _ in self.marks]
        ends = [start for start, _, _ in self.marks] + [t_end]
        stretches = [
            (a, b, CAL_REF_S / ((kernels[i] + kernels[i + 1]) / 2.0))
            for i, (a, b) in enumerate(zip(starts, ends))
        ]
        raw = sum(b - a for a, b, _ in stretches)
        ref = sum((b - a) * scale for a, b, scale in stretches)
        return raw, ref, stretches


def layer_metrics(wl, tr: Tracer, walls: list[float], warns: Counter, defects: list) -> dict:
    """Per-layer values per pass in reference seconds (weights.build_s: raw, per set-up)."""
    k = len(walls)
    c = tr.counters

    def per_pass(x):
        return x / k

    calls = c["algebra.classify_calls"]
    return {
        "weights.build_s": wl.build_s + per_pass(tr.total("weights.build")),
        "weights.gauge_calls": per_pass(c["weights.gauge_calls"]),
        "weights.gauge_points": per_pass(c["weights.gauge_points"]),
        "weights.gauge_s": per_pass(tr.total("weights.gauge")),
        "series.ud_norm_calls": per_pass(c["series.ud_norm_calls"]),
        "series.ud_norm_s": per_pass(tr.total("series.ud_norm")),
        "series.ud_norm_hmax_s": per_pass(tr.total("series.ud_norm", "hmax")),
        "series.ud_norm_coefs": per_pass(c["series.ud_norm_coefs"]),
        "series.sup_norm_calls": per_pass(c["series.sup_norm_calls"]),
        "series.sup_norm_s": per_pass(tr.total("series.sup_norm")),
        "series.coef_seminorm_calls": per_pass(c["series.coef_seminorm_calls"]),
        "series.coef_seminorm_s": per_pass(tr.total("series.coef_seminorm")),
        "series.multiply_calls": per_pass(c["series.multiply_calls"]),
        "series.multiply_s": per_pass(tr.total("series.multiply")),
        "algebra.net_at_calls": per_pass(c["algebra.net_at_calls"]),
        "algebra.net_at_s": per_pass(tr.total("algebra.net_at")),
        "algebra.classify_calls": per_pass(calls),
        "algebra.classify_cold_s": per_pass(tr.total("algebra.classify", "cold")),
        "algebra.classify_warm_s": per_pass(tr.total("algebra.classify", "warm")),
        "algebra.self_s": per_pass(tr.self_time("algebra.classify")),
        "algebra.memo_reuse_ratio": c["algebra.classify_warm"] / calls if calls else 0.0,
        "algebra.stale_memo_verdicts": sum(d["count"] for d in defects),
        "verdict.bounded_test_calls": per_pass(c["verdict.bounded_test_calls"]),
        "verdict.bounded_test_s": per_pass(tr.total("verdict.bounded_test")),
        "embedding.embed_calls": per_pass(c["embedding.embed_calls"]),
        "embedding.embed_s": per_pass(tr.total("embedding.embed")),
        "embedding.residual_s": per_pass(tr.total("embedding.residual")),
        "regularity.decay_class_s": per_pass(tr.total("regularity.decay_class")),
        "regularity.classify_regular_s": per_pass(tr.total("regularity.classify_regular")),
        "operators.factorize_calls": per_pass(tr.calls("operators.factorize")),
        "operators.factorize_s": per_pass(tr.total("operators.factorize")),
        "cli.main_s": per_pass(tr.total("cli.main")),
        "cli.self_s": per_pass(tr.self_time("cli.main")),
        "cli.report_bytes": per_pass(c["cli.report_bytes"]),
        "series.truncation_warnings": per_pass(warns[TruncationWarning.__name__]),
        "series.alias_warnings": per_pass(warns[AliasWarning.__name__]),
        "trace.overhead_s": per_pass(sum(walls) - tr.outer_time()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.fresh()
    setup_s = time.perf_counter() - T_START
    cal = Calibration()
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * CAL_REF_S / cal.sample()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run_id = f"{args.workload}-{args.seed}-{args.trace}"
    tr = Tracer(run_id) if args.trace else NullTracer()
    rp = Replay(tr) if args.trace else None
    chk = Checker()
    walls: list[float] = []
    ref_walls: list[float] = []
    stretches: list = []
    warns: Counter = Counter()
    t_first = time.perf_counter()
    while True:
        if walls:
            wl.fresh()
        if rp is not None:
            rp.reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            raw, ref, pass_stretches = cal.measure(lambda: wl.run_pass(chk, tr, rp))
        stretches += pass_stretches
        walls.append(raw)
        ref_walls.append(ref)
        warns.update(w.category.__name__ for w in caught)
        if time.perf_counter() - t_first + statistics.median(walls) > args.seconds:
            break

    defects = wl.known_defects()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "walls": walls,
        "ref_walls": ref_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.summary(),
        "known_defects": defects,
        "warnings": dict(warns),
    }
    if args.trace:
        tr.rescale(stretches)
        out["per_layer"] = layer_metrics(wl, tr, ref_walls, warns, defects)
        tr.dump(f"{args.workdir}/trace-{run_id}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
