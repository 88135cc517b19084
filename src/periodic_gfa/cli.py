"""Command-line interface: JSON verdict reports over the library presets.

Each command returns (ok, report), ok its headline verdict; main encodes the report with
verdict.jsonable and exits 0, or 1 when --assert is given and ok is false; 2 on usage or input errors.
Reports are deterministic for identical argv and input files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import algebra, embedding, operators, regularity, series, weights
from .verdict import DEFAULTS, jsonable

# ValueError covers InvalidSpec, the *Fail input errors and JSONDecodeError
_USAGE_ERRORS = (
    ValueError,
    KeyError,
    FileNotFoundError,
    operators.NoConverge,
    algebra.GeneratorFail,
    algebra.HypothesisFail,
)


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _payload(path: str):
    """The JSON payload of a file: descriptor; a payload of the wrong shape is a ValueError."""
    payload = json.loads(Path(path).read_text())
    try:
        yield payload
    except (TypeError, AttributeError, KeyError) as exc:
        raise ValueError(f"malformed payload in {path}: {type(exc).__name__}: {exc}") from exc


def parse_weights(desc: str, p_max: int | None = None) -> weights.WeightSequence:
    if desc.startswith("gevrey:"):
        s = float(desc.split(":", 1)[1])
        return weights.gevrey(s, p_max or 2048)
    if desc.startswith("file:"):
        with _payload(desc[5:]) as spec:
            return weights.build_weight_sequence(spec, p_max or spec.get("p_max"))
    raise ValueError(f"unknown weight descriptor {desc!r}")


def _rows(rows, key: str) -> dict[int, complex]:
    """Rows {key: i, "re": x, "im": y} as {i: x + iy}; a repeated index is a ValueError."""
    table = {}
    for r in rows:
        i = int(r[key])
        if i in table:
            raise ValueError(f"coefficient table repeats {key} = {i}")
        table[i] = complex(r.get("re", 0.0), r.get("im", 0.0))
    return table


def _dist_from_file(path: str, cls: str) -> series.CoefDistribution:
    """A coefficient table file; its "class", else cls.  A class other than beurling or roumieu
    is a ValueError."""
    with _payload(path) as payload:
        table = _rows(payload["coef"] if isinstance(payload, dict) else payload, "k")
        cls = payload.get("class", cls) if isinstance(payload, dict) else cls
    if cls not in ("beurling", "roumieu"):
        raise ValueError("cls must be 'beurling' or 'roumieu'")
    poly = series.TrigPoly.from_coef(table)
    return series.from_trigpoly(poly, cls=cls, label=f"file:{path}")


def parse_distribution(desc: str, ws: weights.WeightSequence, cls: str) -> series.CoefDistribution:
    if desc == "delta":
        return series.delta(cls)
    if desc == "cot_reg":
        return series.cot_reg(cls)
    if desc == "sin":
        return series.from_trigpoly(series.TrigPoly.sine(), cls=cls, label="sin")
    if desc == "cos":
        return series.from_trigpoly(series.TrigPoly.cosine(), cls=cls, label="cos")
    if desc == "one":
        return series.from_trigpoly(series.TrigPoly.const(1.0), cls=cls, label="one")
    if desc.startswith("exp_decay:"):
        return series.exp_decay(float(desc.split(":", 1)[1]), cls)
    if desc.startswith("exp_growth:"):
        return series.exp_growth(float(desc.split(":", 1)[1]), ws, cls)
    if desc.startswith("file:"):
        return _dist_from_file(desc[5:], cls)
    raise ValueError(f"unknown distribution descriptor {desc!r}")


def parse_rsequence(desc: str) -> weights.RSequence:
    if desc.startswith("file:"):
        with _payload(desc[5:]) as payload:
            return weights.build_rsequence(payload["r"])
    if desc == "linear":
        return weights.linear_rsequence(1024)
    raise ValueError(f"unknown r-sequence descriptor {desc!r}")


def parse_mollifier(desc: str) -> embedding.Mollifier:
    if desc == "dirichlet":
        return embedding.build_mollifier("dirichlet")
    if desc == "cutoff:trapezoid" or desc.startswith("cutoff:trapezoid:"):
        params = {"r": 1.0, "R": 2.0}
        for part in desc.split(":")[2:]:
            key, _, val = part.partition("=")
            if key not in params:
                raise ValueError(f"cutoff:trapezoid takes only r= and R=, not {part!r}")
            params[key] = float(val)
        return embedding.build_mollifier("cutoff", **params)
    if desc.startswith("file:"):
        with _payload(desc[5:]) as payload:
            rows = {}
            for row in payload["rows"]:
                n = int(row["n"])
                if n in rows:
                    raise ValueError(f"mollifier table repeats n = {n}")
                rows[n] = _rows(row["coef"], "k")
            return embedding.build_mollifier(
                "table", rows=rows, C=payload["C"], R=payload["R"], r=payload["r"]
            )
    raise ValueError(f"unknown mollifier descriptor {desc!r}")


_MOLLIFIER_HEADS = ("dirichlet", "cutoff", "file")


def _parse_net_atom(desc: str, ws, cls: str, n_max: int) -> algebra.Net:
    if desc == "dirichlet":
        return algebra.make_net(lambda n: series.TrigPoly.dirichlet(n), n_max, "dirichlet")
    if desc.startswith("embed:"):
        body = desc[6:]
        cut = max(body.rfind(":" + head) for head in _MOLLIFIER_HEADS)
        if cut < 0:
            raise ValueError(f"embed descriptor needs a mollifier: {desc!r}")
        dist = parse_distribution(body[:cut], ws, cls)
        mol = parse_mollifier(body[cut + 1 :])
        return embedding.embed(dist, mol, n_max)
    if desc.startswith("const:"):
        dist = parse_distribution(desc[6:], ws, cls)
        return embedding.const_embed(dist, n_max, ws=ws)
    if desc.startswith("scaled:"):
        _, preset, rate = desc.split(":", 2)
        rate = float(rate)
        if not math.isfinite(rate):
            raise ValueError(f"scaled rate must be finite: {desc!r}")
        base = _parse_net_atom(preset if preset == "dirichlet" else f"const:{preset}", ws, cls, n_max)
        return algebra.Net(
            gen=lambda n: base.at(n).scaled(math.exp(-rate * n)),
            n_max=n_max,
            label=f"e^(-{rate:g}n)*{base.label}",
        )
    raise ValueError(f"unknown net descriptor {desc!r}")


def parse_net(desc: str, ws, cls: str, n_max: int) -> algebra.Net:
    """Net descriptors; factors joined by '*' multiply index-wise.  The net is labelled desc."""
    nets = [_parse_net_atom(a, ws, cls, n_max) for a in desc.split("*") if a]
    if not nets:
        raise ValueError(f"net descriptor {desc!r} names no net")
    net = nets[0]
    for other in nets[1:]:
        net = algebra.net_mul(net, other)
    net.label = desc
    return net


def _structure_operator(spec: dict, ws) -> operators.Ultrapolynomial:
    """The dominating series of the structure theorem, in the class its form fixes."""
    if spec["form"] == "structure_beurling":
        return operators.build_ultrapolynomial(
            {"form": "structure_beurling", "lambda": spec.get("lambda")}, ws, "beurling"
        )
    if spec["form"] == "structure_roumieu":
        rs = weights.linear_rsequence(1024)
        return operators.build_ultrapolynomial(
            {"form": "structure_roumieu", "r": rs, "k": rs}, ws, "roumieu"
        )
    raise ValueError(f"unknown operator form {spec['form']!r}")


def parse_operator(desc: str, ws, cls: str) -> operators.Ultrapolynomial:
    if desc.startswith("poly:"):
        coef = [complex(float(x), 0.0) for x in desc[5:].split(",")]
        return operators.build_ultrapolynomial(coef, ws, cls)
    if desc.startswith("structure_beurling:"):
        lam = float(desc.split(":", 1)[1])
        return _structure_operator({"form": "structure_beurling", "lambda": lam}, ws)
    if desc == "structure_roumieu":
        return _structure_operator({"form": desc}, ws)
    if desc.startswith("file:"):
        with _payload(desc[5:]) as payload:
            if "form" in payload:
                return _structure_operator(payload, ws)
            table = _rows(payload["a"], "n")
            if min(table, default=0) < 0:
                raise ValueError(f"an operator power must be at least 0, got n = {min(table)}")
            coef = np.zeros(max(table, default=-1) + 1, dtype=complex)
            coef[list(table)] = list(table.values())
            spec = {"a": coef}
            for key in ("C", "L"):
                if key in payload:
                    spec[key] = payload[key]
            return operators.build_ultrapolynomial(spec, ws, payload.get("class", cls))
    raise ValueError(f"unknown operator descriptor {desc!r}")


def _grid_arg(text: str | None):
    return None if text is None else tuple(float(x) for x in text.split(","))


def _coef_rows(poly: series.TrigPoly) -> list[dict]:
    return [{"k": int(k), "re": float(v.real), "im": float(v.imag)}
            for k, v in zip(poly.support(), poly.coef) if v != 0]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_weights(args) -> tuple[bool, dict]:
    if args.gevrey is not None:
        desc = f"gevrey:{args.gevrey!r}"
    else:
        desc = args.weights if args.table is None else f"file:{args.table}"
    ws = parse_weights(desc, args.pmax)
    ts = [float(x) for x in args.t.split(",")] if args.t else []
    if not all(math.isfinite(t) for t in [*ts, args.t_lo, args.t_hi]):
        raise ValueError("--t, --t-lo and --t-hi must be finite")
    if not (args.t_lo > 0 and args.t_hi > 0):
        raise ValueError("--t-lo and --t-hi must be positive")
    if args.t_points < 1:
        raise ValueError("--t-points must be at least 1")
    grid = np.geomspace(args.t_lo, args.t_hi, args.t_points)
    doubling = weights.check_doubling_inequality(ws, grid)
    report = {
        "weights": ws.label,
        "p_max": ws.p_max,
        "A": ws.A,
        "H": ws.H,
        "conditions": {"log_convexity": True, "divergence_proxy": True, "stability": True},
        "M": {t: weights.associated_function(ws, t) for t in ts},
        "doubling_bound": doubling.to_json(),
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "2M(t)", "M(Ht)"])
            wr.writerows(doubling.table.tolist())
    return doubling.passed, report


def cmd_classify(args) -> tuple[bool, dict]:
    ws = parse_weights(args.weights)
    net = parse_net(args.net, ws, args.cls, args.nmax)
    h_grid, lam_grid = _grid_arg(args.hgrid), _grid_arg(args.lgrid)
    if args.method == "coefficient":
        verdict = algebra.coef_classify(
            net, ws, args.cls, args.mode, h_grid=h_grid, lam_grid=lam_grid, tau=args.tau
        )
    elif args.method == "sup_norm":
        if args.mode != "negligible":
            raise ValueError("the sup-norm method decides negligibility only")
        verdict = algebra.classify_negligible_supnorm(
            net, ws, args.cls, lam_grid=lam_grid, tau=args.tau
        )
    elif args.mode == "moderate":
        verdict = algebra.classify_moderate(
            net, ws, args.cls, h_grid=h_grid, lam_grid=lam_grid, tau=args.tau
        )
    else:
        verdict = algebra.classify_negligible(
            net, ws, args.cls, h_grid=h_grid, lam_grid=lam_grid, tau=args.tau
        )
    report = {
        "net": net.label,
        "weights": ws.label,
        "class": args.cls,
        "mode": args.mode,
        **verdict.to_json(),
    }
    return verdict.bounded, report


def cmd_embed(args) -> tuple[bool, dict]:
    ws = parse_weights(args.weights)
    dist = parse_distribution(args.dist, ws, args.cls)
    mol = parse_mollifier(args.mollifier)
    net = embedding.embed(dist, mol, args.nmax)
    report = {
        "distribution": dist.label,
        "mollifier": mol.label,
        "rows": [{"n": n, "coef": _coef_rows(net.at(n))} for n in range(args.nmax + 1)],
    }
    return True, report


def cmd_product(args) -> tuple[bool, dict]:
    ws = parse_weights(args.weights)
    f = parse_distribution(args.f, ws, args.cls)
    g = parse_distribution(args.g, ws, args.cls)
    mol = parse_mollifier(args.mollifier)
    rep = embedding.check_product_preservation(
        f, g, mol, ws, args.cls, n_max=args.nmax, tau=args.tau
    )
    report = {"f": f.label, "g": g.label, "mollifier": mol.label, **rep.to_json()}
    return rep.verdict.bounded, report


def cmd_apply(args) -> tuple[bool, dict]:
    if args.kwindow < 0:
        raise ValueError("--kwindow must be at least 0")
    ws = parse_weights(args.weights)
    P = parse_operator(args.op, ws, args.cls)
    dist = parse_distribution(args.dist, ws, args.cls)
    out = operators.apply_operator(P, dist)
    ks = np.arange(-args.kwindow, args.kwindow + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        applied = out.coefficients(ks)
        direct = operators.multiplier_values(P, ks) * dist.coefficients(ks)
    lost = ~(np.isfinite(applied) & np.isfinite(direct))
    if np.any(lost):
        k = int(np.min(np.abs(ks[lost])))
        raise ValueError(
            f"P(k) c_k is not finite in double precision at |k| = {k}; take --kwindow below {k}"
        )
    residual = float(np.max(np.abs(applied - direct) / (1.0 + np.abs(direct))))
    report = {
        "operator": P.label,
        "distribution": dist.label,
        "multiplier_residual": residual,
        "coef": [{"k": k, "re": v.real, "im": v.imag} for k, v in zip(ks, applied)],
    }
    return residual <= 1e-12, report


def cmd_factorize(args) -> tuple[bool, dict]:
    ws = parse_weights(args.weights)
    dist = parse_distribution(args.dist, ws, args.cls)
    target = parse_weights(args.target) if args.target else None
    r_seq = parse_rsequence(args.r) if args.r else None
    k_seq = parse_rsequence(args.k) if args.k else None
    fact = operators.structure_factorize(
        dist, ws, args.cls, lam=args.lam, r_seq=r_seq, k_seq=k_seq,
        target=target, k_max=args.kmax, tau=args.tau,
    )
    ok = (
        fact.reconstruction_residual <= 1e-12
        and fact.g_inclass.bounded
        and fact.lower_bound.passed
        and (fact.g_target is None or fact.g_target.bounded)
    )
    report = {"distribution": dist.label, "weights": ws.label, **fact.to_json(), "passed": ok}
    return ok, report


def cmd_regularity(args) -> tuple[bool, dict]:
    ws = parse_weights(args.weights)
    dist = parse_distribution(args.dist, ws, args.cls)
    mol = parse_mollifier(args.mollifier)
    rep = regularity.check_regularity_equivalence(
        dist, mol, ws, args.cls, n_max=args.nmax, tau=args.tau
    )
    report = {"distribution": dist.label, "weights": ws.label, **rep.to_json()}
    return rep.consistent, report


def cmd_demo(args) -> tuple[bool, dict]:
    """Numerical face of the delta-multiplication obstruction.

    In the distribution space, sin * delta = 0, cos * delta = delta and
    cos = sin * cot_reg; inside the algebra the embedded products leave
    non-negligible residues, which is exactly what the report measures.
    """
    ws = parse_weights(args.weights)
    mol = parse_mollifier("dirichlet")
    n_max = args.nmax
    cls = args.cls
    iota = {d: embedding.embed(parse_distribution(d, ws, cls), mol, n_max)
            for d in ("delta", "sin", "cot_reg", "cos")}
    u = algebra.net_mul(iota["sin"], iota["delta"], "iota(sin)*iota(delta)")
    v = algebra.net_mul(u, iota["cot_reg"], "u*iota(cot_reg)")
    w = algebra.net_mul(iota["cos"], iota["delta"], "iota(cos)*iota(delta)")

    sups = u.derivative_rows().sup_norm_argmax(np.arange(n_max + 1))[0].tolist()
    u_neg = algebra.classify_negligible(u, ws, cls, tau=args.tau)
    vw_neg = algebra.classify_negligible(v - w, ws, cls, tau=args.tau)
    w_delta_neg = algebra.classify_negligible(w - iota["delta"], ws, cls, tau=args.tau)
    # the distribution-side product cos*delta has the Cauchy-convolved coefficients
    # (c_hat * delta_hat)(m), identically 1/(2 pi); embedding it on the mollifier table
    # recovers iota(delta) exactly, in contrast with the algebra product w
    ks, c = mol.table(n_max)
    delta_hat = series.delta(cls).coefficients
    iota_cos_delta = series.TWO_PI * (0.5 * (delta_hat(ks - 1) + delta_hat(ks + 1))) * c
    dist_side_gap = float(np.max(np.abs(iota_cos_delta - series.TWO_PI * delta_hat(ks) * c)))

    limit = 1.0 / math.pi
    tail = sups[16:] if n_max >= 16 else sups
    report = {
        "weights": ws.label,
        "class": cls,
        "n_max": n_max,
        "sup_norms_u": sups,
        "sup_norm_limit": {
            "expected": limit,
            "max_tail_gap": max(abs(s - limit) for s in tail) if tail else math.inf,
            "tail_within_window": bool(all(0.30 <= s <= 0.32 for s in tail)),
        },
        "u_negligible": u_neg.to_json(),
        "v_minus_w_negligible": vw_neg.to_json(),
        "w_minus_iota_delta_negligible": w_delta_neg.to_json(),
        "iota_of_cos_delta_vs_iota_delta_max_gap": dist_side_gap,
        "chain_conclusion": {
            "sin_delta_zero_in_distributions": True,
            "u_nonzero_in_algebra": not u_neg.bounded,
            "chain_breaks_in_algebra": not vw_neg.bounded,
        },
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "sup_norm_u"])
            wr.writerows(enumerate(sups))
    ok = report["sup_norm_limit"]["tail_within_window"] and not u_neg.bounded and not vw_neg.bounded
    return ok, report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common(p, flags=("class", "nmax", "tau", "assert"), nmax_default=DEFAULTS.n_max):
    """--weights, --out and those of the other shared flags the command reads."""
    p.add_argument("--weights", default="gevrey:1", help="gevrey:<s> or file:<path>")
    if "class" in flags:
        p.add_argument("--class", dest="cls", choices=["beurling", "roumieu"], default="roumieu")
    if "nmax" in flags:
        p.add_argument("--nmax", type=int, default=nmax_default)
    if "tau" in flags:
        p.add_argument("--tau", type=float, default=DEFAULTS.tau)
    p.add_argument("--out", type=Path, default=None)
    if "assert" in flags:
        p.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit 1 when the headline verdict is negative")
    else:
        p.set_defaults(assert_=False)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgfa",
        description="Desk-scale computations in algebras of periodic generalized functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="weight-sequence certification and gauge values")
    p.add_argument("--gevrey", type=float, default=None)
    p.add_argument("--table", type=str, default=None, help="path to a weight-spec file")
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--t", type=str, default=None, help="comma list of gauge evaluation points")
    p.add_argument("--t-lo", type=float, default=1e-2)
    p.add_argument("--t-hi", type=float, default=1e2)
    p.add_argument("--t-points", type=int, default=25)
    p.add_argument("--csv", type=Path, default=None)
    _common(p, ("assert",))
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("classify", help="moderate/negligible verdict for a net")
    p.add_argument("--net", required=True)
    p.add_argument("--mode", choices=["moderate", "negligible"], required=True)
    p.add_argument("--method", choices=["full_norm", "sup_norm", "coefficient"],
                   default="full_norm")
    p.add_argument("--hgrid", type=str, default=None, help="comma list of h values")
    p.add_argument("--lgrid", type=str, default=None, help="comma list of lambda values")
    _common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("embed", help="coefficient rows of an embedded distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--mollifier", default="dirichlet")
    _common(p, ("class", "nmax"), nmax_default=8)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("product", help="product preservation check for two smooth-class inputs")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--mollifier", default="dirichlet")
    _common(p, nmax_default=32)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("apply", help="apply an ultradifferential operator as a multiplier")
    p.add_argument("--op", required=True, help="poly:c0,c1,... | structure_beurling:<l> | file:<path>")
    p.add_argument("--dist", required=True)
    p.add_argument("--kwindow", type=int, default=8)
    _common(p, ("class", "assert"))
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("factorize", help="operator factorization of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--target", type=str, default=None, help="target weight descriptor")
    p.add_argument("--r", type=str, default=None, help="r-sequence descriptor (Roumieu), file:<path>")
    p.add_argument("--k", type=str, default=None, help="k-sequence descriptor (Roumieu), file:<path>")
    p.add_argument("--kmax", type=int, default=200)
    _common(p, ("class", "tau", "assert"))
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("regularity", help="regularity equivalence report for a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--mollifier", default="dirichlet")
    _common(p)
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("demo", help="delta-multiplication impossibility demonstration")
    p.add_argument("--csv", type=Path, default=None)
    _common(p)
    p.set_defaults(func=cmd_demo)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, report = args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(jsonable(report), indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early: the flush at exit goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if args.assert_ and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
