#!/usr/bin/env python3
"""Dump the package's verdicts and reports, one JSON record per line.

For the ten reference nets of periodic_gfa.battery (n_max 32, gevrey:1), in
both classes, it records the full-norm verdicts (moderate, negligible,
regular), the sup-norm negligibility verdict and the coefficient
verdicts (moderate, negligible): bounded, repr(margin), witness_n and
to_json().  The coefficient side follows: decay class and growth
certificates, weighted coefficient seminorms in both signs (with the
TruncationWarnings they raise), the constant embedding, product
preservation, the embedding residual bound, generalized numbers, the
structure factorization, rj families and the `pgfa factorize`,
`product` and `regularity` reports.  The last record is the report of
`pgfa demo --nmax 64`.  Two checkouts that classify alike print
byte-identical dumps, so

    PYTHONPATH=src python scripts/verdict_dump.py > a.txt   (in each checkout)
    cmp a.txt b.txt

shows that a change kept every verdict and margin.

Usage (from the repository root):
    PYTHONPATH=src python scripts/verdict_dump.py > dump.txt
"""

import contextlib
import dataclasses
import io
import json
import sys
import warnings

import numpy as np

from periodic_gfa import (
    algebra,
    battery,
    cli,
    embedding,
    operators,
    regularity,
    series,
    verdict,
    weights,
)


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


# ---------------------------------------------------------------------------
# coefficient side
# ---------------------------------------------------------------------------

def _reprs(obj):
    """obj with every float replaced by its repr, so the dump shows every bit."""
    if isinstance(obj, dict):
        return {str(k): _reprs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reprs(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _reprs(obj.tolist())
    return obj


def _verdict(v):
    return {"bounded": v.bounded, "margin": repr(v.margin), "witness": v.witness_n, "json": v.to_json()}


def outcome(kind, params, fn, *args, **kwargs) -> str:
    """One record: fn's result through its view, or the error it raised, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except (ValueError, RuntimeError) as exc:
            out = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps(
        {
            "kind": kind,
            "params": params,
            "result": out,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        },
        sort_keys=True,
    )


def _distributions(ws):
    return [
        ("delta", series.delta()),
        ("cot_reg", series.cot_reg()),
        ("exp_decay:1", series.exp_decay(1.0)),
        ("exp_growth:1", series.exp_growth(1.0, ws)),
    ]


def coefficient_records():
    mol = embedding.build_mollifier("dirichlet")
    for s in (1.0, 2.0):
        ws = weights.gevrey(s, 4096)
        for name, dist in _distributions(ws):
            p = {"dist": name, "weights": ws.label}
            for cls in ("roumieu", "beurling"):
                yield outcome(
                    "coefficient_decay_class", {**p, "class": cls},
                    lambda: _verdict(regularity.coefficient_decay_class(dist, ws, cls)),
                )
            yield outcome("certify_growth", p, lambda: _verdict(series.certify_growth(dist, ws)))
            for lam in verdict.DEFAULTS.lambda_grid:
                for sign in ("plus", "minus"):
                    yield outcome(
                        "log_coef_seminorm", {**p, "lambda": lam, "sign": sign},
                        lambda: repr(series.log_coef_seminorm(dist, ws, lam, sign, k_max=1024)),
                    )
            for cls in ("roumieu", "beurling"):
                d = dataclasses.replace(dist, cls=cls)
                yield outcome(
                    "const_embed", {**p, "class": cls},
                    lambda: _reprs(embedding.const_embed(d, 16, ws=ws).meta),
                )
            yield outcome(
                "check_embedding_residual", p,
                lambda: _reprs(vars(regularity.check_embedding_residual(dist, mol, ws, n_max=16))),
            )
        for name, poly in (("dirichlet:8", series.TrigPoly.dirichlet(8)),
                           ("sin", series.TrigPoly.sine())):
            for lam in (0.5, 2.0):
                for sign in ("plus", "minus"):
                    yield outcome(
                        "log_coef_seminorm", {"dist": name, "weights": ws.label, "lambda": lam,
                                              "sign": sign},
                        lambda: repr(series.log_coef_seminorm(poly, ws, lam, sign)),
                    )

    ws = weights.gevrey(1.0, 4096)
    sin_d = series.from_trigpoly(series.TrigPoly.sine(), label="sin")
    cos_d = series.from_trigpoly(series.TrigPoly.cosine(), label="cos")
    for (fname, f), (gname, g), n_max in (
        (("sin", sin_d), ("cos", cos_d), 16),
        (("exp_decay:2", series.exp_decay(2.0)), ("sin", sin_d), 16),
        (("exp_decay:1", series.exp_decay(1.0)), ("exp_decay:1", series.exp_decay(1.0)), 16),
    ):
        for cls in ("roumieu", "beurling"):
            yield outcome(
                "check_product_preservation", {"f": fname, "g": gname, "class": cls, "n_max": n_max},
                _product, f, g, mol, ws, cls, n_max,
            )

    ns = np.arange(33, dtype=float)
    numbers = {
        "e^-n": np.exp(-ns),
        "n+1": ns + 1.0,
        "e^M(n)": (ns + 1.0) * np.exp(np.asarray(weights.associated_gauge(ws, ns))),
        "alternating": np.where(ns % 2 == 0, 0.0, np.exp(-ns)),
    }
    for zname, vals in numbers.items():
        z = algebra.GeneralizedNumber(vals, label=zname)
        for cls in ("roumieu", "beurling"):
            for mode in ("moderate", "negligible"):
                yield outcome(
                    "gn_classify", {"z": zname, "class": cls, "mode": mode},
                    lambda: _verdict(algebra.gn_classify(z, ws, cls, mode)),
                )

    ws2 = weights.gevrey(2.0, 512)
    for name, c, base, cls, kwargs in (
        ("exp_growth:1", series.exp_growth(1.0, ws2, "beurling"), ws2, "beurling",
         {"lam": 1.0, "k_max": 128}),
        ("delta", series.delta("beurling"), ws2, "beurling", {"lam": 1.0, "k_max": 128}),
        ("cot_reg", series.cot_reg(), ws, "roumieu", {"k_max": 128}),
        ("delta", series.delta(), ws, "roumieu", {"k_max": 128}),
    ):
        target = weights.gevrey(3.0, 512) if base is ws2 else weights.gevrey(2.0, 512)
        for tgt in (None, target):
            yield outcome(
                "structure_factorize",
                {"dist": name, "weights": base.label, "class": cls,
                 "target": None if tgt is None else tgt.label, **kwargs},
                lambda: _structure(c, base, cls, tgt, kwargs),
            )

    r = weights.linear_rsequence(256)
    slow = weights.build_rsequence(np.maximum(1.0, np.arange(0, 257) / 16.0), label="slow")
    fams = [(r, slow), (slow, r), (r, r)]
    for net, _ in battery.full_battery(ws):
        for mode in ("moderate", "negligible"):
            yield outcome(
                "roumieu_rj_classify", {"net": net.label, "mode": mode},
                lambda: _verdict(algebra.roumieu_rj_classify(net, ws, fams, mode)),
            )


def _product(f, g, mol, ws, cls, n_max):
    rep = embedding.check_product_preservation(f, g, mol, ws, cls, n_max=n_max)
    return {
        "verdict": _verdict(rep.verdict),
        "residual_bound": _reprs(rep.residual_bound),
        "diff_sup_by_n": _reprs(rep.diff_sup_by_n),
        "exact_zero_from": rep.exact_zero_from,
    }


def _structure(c, ws, cls, target, kwargs):
    fact = operators.structure_factorize(c, ws, cls, target=target, **kwargs)
    return {
        "json": fact.to_json(),
        "inclass": _verdict(fact.g_inclass),
        "target": None if fact.g_target is None else _verdict(fact.g_target),
    }


def cli_report(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return json.dumps(
        {"argv": argv, "exit": code, "report": json.loads(text) if text else None,
         "stderr": err.getvalue()},
        sort_keys=True,
    )


CLI_RUNS = [
    ["factorize", "--dist", "exp_growth:1", "--weights", "gevrey:2", "--class", "beurling",
     "--kmax", "128"],
    ["factorize", "--dist", "exp_growth:1", "--weights", "gevrey:2", "--class", "beurling",
     "--kmax", "128", "--target", "gevrey:3"],
    ["factorize", "--dist", "cot_reg", "--weights", "gevrey:1", "--kmax", "128"],
    ["factorize", "--dist", "exp_growth:1", "--weights", "gevrey:1", "--kmax", "128"],
    ["product", "--f", "sin", "--g", "cos", "--nmax", "16"],
    ["product", "--f", "exp_decay:1", "--g", "exp_decay:2", "--nmax", "16", "--class", "beurling"],
    ["regularity", "--dist", "exp_decay:1", "--nmax", "16"],
    ["regularity", "--dist", "delta", "--nmax", "16", "--class", "beurling"],
    ["regularity", "--dist", "cot_reg", "--nmax", "16"],
]


def main() -> int:
    ws = weights.gevrey(1.0, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for line in battery_records(ws):
            print(line)
    for line in coefficient_records():
        print(line)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in CLI_RUNS:
            print(cli_report(argv))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["demo", "--nmax", "64"])
    print(json.dumps({"demo": json.loads(out.getvalue()), "exit": code}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
