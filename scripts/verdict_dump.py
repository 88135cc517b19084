#!/usr/bin/env python3
"""Dump every battery verdict and the demo report, one JSON record per line.

For the ten reference nets of tests/battery.py (n_max 32, gevrey:1), in
both classes, it records the full-norm verdicts (moderate, negligible,
regular), the sup-norm negligibility verdict and the coefficient
verdicts (moderate, negligible): bounded, repr(margin), witness_n and
to_json().  The last record is the report of `pgfa demo --nmax 64`.
Two checkouts that classify alike print byte-identical dumps, so

    PYTHONPATH=src python scripts/verdict_dump.py > a.txt   (in each checkout)
    cmp a.txt b.txt

shows that a change kept every verdict and margin.

Usage (from the repository root):
    PYTHONPATH=src python scripts/verdict_dump.py > dump.txt
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import battery  # noqa: E402

from periodic_gfa import algebra, cli, regularity, weights  # noqa: E402


def record(net, cls, method, mode, v) -> str:
    if isinstance(v, regularity.RegularityVerdict):
        bounded, witness = v.regular, v.witness
    else:
        bounded, witness = v.bounded, v.witness_n
    return json.dumps(
        {
            "net": net.label,
            "class": cls,
            "method": method,
            "mode": mode,
            "bounded": bounded,
            "margin": repr(v.margin),
            "witness": witness,
            "json": v.to_json(),
        },
        sort_keys=True,
    )


def battery_records(ws):
    for net, _ in battery.full_battery(ws):
        for cls in ("roumieu", "beurling"):
            mod = algebra.classify_moderate(net, ws, cls)
            yield record(net, cls, "full_norm", "moderate", mod)
            neg = algebra.classify_negligible(net, ws, cls)
            yield record(net, cls, "full_norm", "negligible", neg)
            reg = regularity.classify_regular(net, ws, cls, moderate=mod)
            yield record(net, cls, "full_norm", "regular", reg)
            sup = algebra.classify_negligible_supnorm(net, ws, cls, moderate=mod)
            yield record(net, cls, "sup_norm", "negligible", sup)
            for mode in ("moderate", "negligible"):
                coef = algebra.coef_classify(net, ws, cls, mode)
                yield record(net, cls, "coefficient", mode, coef)


def main() -> int:
    ws = weights.gevrey(1.0, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for line in battery_records(ws):
            print(line)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["demo", "--nmax", "64"])
    print(json.dumps({"demo": json.loads(out.getvalue()), "exit": code}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
