"""The three workloads: battery, demo and coefficient.

Each workload is built once per process (its set-up: weight scales,
mollifier and nets), then runs passes.  A pass is a closed loop: every
call starts when the previous one returns.  fresh() rebuilds the nets
before each pass, so every pass pays for its norm tables, as a user does
on every invocation.

With tracing on, the benchmark replays the inner public calls that the
outer call needed (norm rows, gauges, boundedness tests, generator
steps) on the same inputs, as children of the outer span.  The program
is never patched.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np

from periodic_gfa import algebra, cli, embedding, operators, regularity, series, weights
from periodic_gfa.verdict import DEFAULTS, bounded_test

import nets
from checker import Checker

H_GRID = DEFAULTS.h_grid
LAM_GRID = DEFAULTS.lambda_grid
P_MAX = 4096
DEMO_N_MAX = 64
PATTERNS = [(cls, mode) for cls in ("roumieu", "beurling") for mode in ("moderate", "negligible")]


class Replay:
    """Replays inner public calls for a traced run and models the net memo.

    One span covers a batch of like calls (a norm row over n, the gauges
    or boundedness tests of one classifier call), so span bookkeeping
    stays small next to the work; call counts go to counters.  The memo
    model keys tables by content (the net, the weight-scale object, h):
    a call counts as warm only when every table it needs was already
    computed for the same content.
    """

    def __init__(self, tracer):
        self.tr = tracer
        self.tables: dict = {}
        # keys use id(net); holding the nets keeps those ids from being reused
        self.nets: list = []

    def reset(self):
        self.tables.clear()
        self.nets.clear()

    def batch(self, name, parent, fn, arglists, tag=""):
        """Call fn on each argument tuple under one replay span."""
        self.tr.count(name + "_calls", len(arglists))
        # warnings from replays must not add to the workload's own count
        with warnings.catch_warnings(), self.tr.span(name, parent=parent, replay=True, tag=tag):
            warnings.simplefilter("ignore")
            return [fn(*args) for args in arglists]

    def classified(self, sid, cold: bool):
        """Book an outer classifier span as cold (built tables) or warm."""
        self.tr.tag(sid, "cold" if cold else "warm")
        self.tr.count("algebra.classify_calls")
        self.tr.count("algebra.classify_cold" if cold else "algebra.classify_warm")

    def net_at(self, sid, case: nets.NetCase, n_max: int):
        """Generator steps on a fresh copy, then the products they contain."""
        if case.embedded:
            net = self.batch("embedding.embed", sid, case.build, [()])[0]
        else:
            net = case.build()
        self.batch("algebra.net_at", sid, net.at, [(n,) for n in range(n_max + 1)])
        if case.factors is not None:
            # nested inside the generator steps above, so not a child of sid
            self.batch("series.multiply", None, series.multiply, [case.factors(n) for n in range(n_max + 1)])

    def _rows(self, kind, name, sid, net, ws, hs, fn) -> bool:
        """Norm rows over n for every h not yet built; True when any was."""
        cold = False
        for h in hs:
            key = (kind, id(net), id(ws), h)
            if key in self.tables:
                continue
            cold = True
            self.nets.append(net)
            polys = [net.at(n) for n in range(net.n_max + 1)]
            tag = "hmax" if h == max(H_GRID) else ""
            self.tables[key] = np.array(self.batch(name, sid, fn, [(f, ws, h) for f in polys], tag))
            if kind == "ud":
                self.tr.count("series.ud_norm_coefs", sum(2 * f.degree + 1 for f in polys))
        return cold

    def ud(self, sid, net, ws, hs) -> bool:
        return self._rows("ud", "series.ud_norm", sid, net, ws, hs, series.log_ud_norm)

    def coef(self, sid, net, ws, hs) -> bool:
        return self._rows("coef", "series.coef_seminorm", sid, net, ws, hs, series.log_coef_seminorm)

    def sup(self, sid, net) -> bool:
        key = ("sup", id(net))
        if key in self.tables:
            return False
        self.nets.append(net)
        vals = self.batch("series.sup_norm", sid, series.sup_norm, [(net.at(n),) for n in range(net.n_max + 1)])
        with np.errstate(divide="ignore"):
            self.tables[key] = np.log(np.array(vals))
        return True

    def gauges(self, sid, ws, ts_list) -> list:
        self.tr.count("weights.gauge_points", sum(len(ts) for ts in ts_list))
        return self.batch("weights.gauge", sid, weights.associated_gauge, [(ws, ts) for ts in ts_list])

    def cells(self, sid, kind, net, ws, hs, lams, sign):
        """Gauges and boundedness tests of one classifier call on table kind."""
        ns = np.arange(net.n_max + 1, dtype=float)
        G = self.gauges(sid, ws, [lam * ns for lam in lams])
        if kind == "sup":
            rows = [self.tables[("sup", id(net))]]
        else:
            rows = [self.tables[(kind, id(net), id(ws), h)] for h in hs]
        profiles = [(u + sign * g, DEFAULTS.tau) for u in rows for g in G]
        self.batch("verdict.bounded_test", sid, bounded_test, profiles)


class Battery:
    """Ten reference nets plus one random member per construction, n_max = 32."""

    name = "battery"

    def __init__(self, seed: int, workdir: str):
        t0 = time.perf_counter()
        self.ws = weights.gevrey(1.0, P_MAX)
        self.build_s = time.perf_counter() - t0
        self.cases = nets.battery_cases(self.ws, np.random.default_rng(seed))
        self.nets = []

    def fresh(self):
        self.nets = [case.build() for case in self.cases]

    def known_defects(self) -> list[dict]:
        return []

    def run_pass(self, chk, tr, rp: Replay | None):
        for case, net in zip(self.cases, self.nets):
            self._one(case, net, chk, tr, rp)

    def _call(self, chk, tr, op, span, fn, *args, **kwargs):
        with tr.span(span) as sid:
            v = chk.call(op, fn, *args, **kwargs)
        return v, sid

    def _one(self, case, net, chk, tr, rp):
        ws, exp, base = self.ws, case.expected, f"battery/{case.label}"
        got = {}
        for cls, mode, fn in (
            ("roumieu", "moderate", algebra.classify_moderate),
            ("roumieu", "negligible", algebra.classify_negligible),
        ):
            op = f"{base}/{cls}_{mode}"
            v, sid = self._call(chk, tr, op, "algebra.classify", fn, net, ws, cls)
            if v is not None:
                chk.verdict(op, v.bounded, exp[f"{cls}_{mode}"])
            got[(cls, mode)] = v
            if rp is not None and v is not None:
                cold = rp.ud(sid, net, ws, H_GRID)
                if cold:
                    rp.net_at(sid, case, net.n_max)
                rp.cells(sid, "ud", net, ws, H_GRID, LAM_GRID, -1.0 if mode == "moderate" else 1.0)
                rp.classified(sid, cold)
        mod = got[("roumieu", "moderate")]

        op = f"{base}/roumieu_negligible_supnorm"
        sup, sid = self._call(
            chk, tr, op, "algebra.classify", algebra.classify_negligible_supnorm, net, ws, "roumieu",
            moderate=mod,
        )
        if sup is not None:
            chk.verdict(op, sup.bounded, exp["roumieu_negligible"])
        if rp is not None and sup is not None:
            cold = rp.sup(sid, net)
            rp.cells(sid, "sup", net, ws, None, LAM_GRID, 1.0)
            rp.classified(sid, cold)

        op = f"{base}/roumieu_negligible_coef"
        coef, sid = self._call(
            chk, tr, op, "algebra.classify", algebra.coef_classify, net, ws, "roumieu", "negligible"
        )
        if coef is not None:
            chk.verdict(op, coef.bounded, exp["roumieu_negligible"])
        if rp is not None and coef is not None:
            cold = rp.coef(sid, net, ws, H_GRID)
            rp.cells(sid, "coef", net, ws, H_GRID, LAM_GRID, 1.0)
            rp.classified(sid, cold)

        for mode, fn in (("moderate", algebra.classify_moderate), ("negligible", algebra.classify_negligible)):
            op = f"{base}/beurling_{mode}"
            v, sid = self._call(chk, tr, op, "algebra.classify", fn, net, ws, "beurling")
            if v is not None:
                chk.verdict(op, v.bounded, exp[f"beurling_{mode}"])
            got[("beurling", mode)] = v
            if rp is not None and v is not None:
                cold = rp.ud(sid, net, ws, H_GRID)
                rp.cells(sid, "ud", net, ws, H_GRID, LAM_GRID, -1.0 if mode == "moderate" else 1.0)
                rp.classified(sid, cold)

        op = f"{base}/regular"
        reg, sid = self._call(
            chk, tr, op, "regularity.classify_regular", regularity.classify_regular, net, ws, "roumieu",
            moderate=mod,
        )
        if reg is not None:
            chk.verdict(op, reg.regular, exp["regular"])
        if rp is not None and reg is not None:
            lam_eff = tuple(sorted(set(LAM_GRID) | {min(H_GRID) / 4.0}))
            rp.ud(sid, net, ws, H_GRID)
            rp.cells(sid, "ud", net, ws, H_GRID, lam_eff, -1.0)

        neg = got[("roumieu", "negligible")]
        if neg is not None and sup is not None and coef is not None:
            chk.agree(
                f"{base}/negligible_methods_agree",
                {"full_norm": neg.bounded, "sup_norm": sup.bounded, "coefficient": coef.bounded},
            )
        if all(v is not None for v in got.values()):
            b = {k: v.bounded for k, v in got.items()}
            chk.implies(
                f"{base}/negligible=>moderate",
                b[("roumieu", "negligible")] or b[("beurling", "negligible")],
                (not b[("roumieu", "negligible")] or b[("roumieu", "moderate")])
                and (not b[("beurling", "negligible")] or b[("beurling", "moderate")]),
                "a negligible verdict without the moderate verdict of its class",
            )
            chk.implies(
                f"{base}/beurling_negligible=>roumieu_negligible",
                b[("beurling", "negligible")],
                b[("roumieu", "negligible")],
                "Beurling-negligible but not Roumieu-negligible",
            )


class Demo:
    """pgfa demo --nmax 64 through cli.main, in process."""

    name = "demo"
    argv = ["demo", "--nmax", str(DEMO_N_MAX)]

    def __init__(self, seed: int, workdir: str):
        # the CLI builds its own scale and nets on every call; nothing to set up
        self.build_s = 0.0

    def fresh(self):
        pass

    def known_defects(self) -> list[dict]:
        return []

    def run_pass(self, chk, tr, rp: Replay | None):
        buf = io.StringIO()
        with tr.span("cli.main") as sid, contextlib.redirect_stdout(buf):
            code = chk.call("demo/cli.main", cli.main, self.argv)
        text = buf.getvalue()
        tr.count("cli.report_bytes", len(text.encode()))
        if code is not None:
            chk.check("demo/exit_code", code == 0, f"exit code {code}")
        report = chk.call("demo/report_json", json.loads, text)
        if report is not None:
            chk.check("demo/report_json", True)
            chk.call("demo/report_facts", self._facts, chk, report)
        if rp is not None and code == 0:
            self._replay(rp, sid)

    @staticmethod
    def _facts(chk, r):
        for key in ("u_negligible", "v_minus_w_negligible", "w_minus_iota_delta_negligible"):
            chk.check(f"demo/{key}", r[key]["bounded"] is False, f"{key}.bounded = {r[key]['bounded']}")
        chain = r["chain_conclusion"]
        chk.check("demo/chain_conclusion", all(v is True for v in chain.values()), f"chain {chain}")
        tail = [float(s) for s in r["sup_norms_u"][16:]]
        chk.check(
            "demo/tail_sup_norms",
            bool(tail) and all(0.30 <= s <= 0.32 for s in tail),
            f"tail sup norms span [{min(tail, default=math.nan):.6f}, {max(tail, default=math.nan):.6f}]",
        )
        gap = r["iota_of_cos_delta_vs_iota_delta_max_gap"]
        chk.check("demo/cos_delta_gap_zero", gap == 0.0, f"gap {gap!r}")

    @staticmethod
    def _replay(rp: Replay, sid):
        """The inner calls of cmd_demo, rebuilt through the public API."""
        n_max = DEMO_N_MAX
        ws = rp.batch("weights.build", sid, cli.parse_weights, [("gevrey:1",)])[0]
        mol = embedding.build_mollifier("dirichlet")
        sin_d = series.from_trigpoly(series.TrigPoly.sine(), label="sin")
        cos_d = series.from_trigpoly(series.TrigPoly.cosine(), label="cos")
        delta = series.delta()
        cos_delta = series.CoefDistribution(
            oracle=lambda ks: 0.5 * (delta.coefficients(np.asarray(ks) - 1) + delta.coefficients(np.asarray(ks) + 1)),
            tag="table", growth_lambda=1.0, label="cos*delta",
        )
        e = {}
        for key, dist in (
            ("sin", sin_d), ("delta_u", delta), ("cot", series.cot_reg()), ("cos", cos_d),
            ("delta_w", delta), ("delta", delta), ("cos_delta", cos_delta),
        ):
            e[key] = rp.batch("embedding.embed", sid, embedding.embed, [(dist, mol, n_max)])[0]
        u = algebra.net_mul(e["sin"], e["delta_u"])
        v = algebra.net_mul(u, e["cot"])
        w = algebra.net_mul(e["cos"], e["delta_w"])
        vw, wd = v - w, w - e["delta"]
        ns = range(n_max + 1)
        for net in (u, v, w, vw, wd, e["cos_delta"]):
            rp.batch("algebra.net_at", sid, net.at, [(n,) for n in ns])
        for f, g in ((e["sin"], e["delta_u"]), (u, e["cot"]), (e["cos"], e["delta_w"])):
            rp.batch("series.multiply", None, series.multiply, [(f.at(n), g.at(n)) for n in ns])
        rp.batch("series.sup_norm", sid, series.sup_norm, [(u.at(n),) for n in ns])
        for net in (u, vw, wd):
            rp.ud(sid, net, ws, H_GRID)
            rp.cells(sid, "ud", net, ws, H_GRID, LAM_GRID, 1.0)
            rp.tr.count("algebra.classify_calls")
            rp.tr.count("algebra.classify_cold")


class Coefficient:
    """Coefficient and gauge side: no sup norm, no ud norm."""

    name = "coefficient"

    def __init__(self, seed: int, workdir: str):
        t0 = time.perf_counter()
        self.scales = [
            ("gevrey:1", weights.gevrey(1.0, P_MAX), 1),
            ("gevrey:2", weights.gevrey(2.0, P_MAX), 2),
            ("table:s=1", cli.parse_weights(f"file:{workdir}/logM_s1.json"), 1),
            ("table:s=2", cli.parse_weights(f"file:{workdir}/logM_s2.json"), 2),
        ]
        self.build_s = time.perf_counter() - t0
        rng = np.random.default_rng(seed)
        self.cases = nets.coefficient_cases(rng)
        self.mol = embedding.build_mollifier("dirichlet")
        self.growth_lam = float(rng.uniform(0.5, 2.0))
        self.t_points = np.sort(np.exp(rng.uniform(math.log(1e-2), math.log(1e3), 100_000)))
        self.nets = []

    def fresh(self):
        # one net per scale: two table scales share the memo key (label, p_max),
        # so classifying both on one net reads stale tables (see known_defects)
        self.nets = [[case.build() for _ in self.scales] for case in self.cases]

    def run_pass(self, chk, tr, rp: Replay | None):
        for case, per_scale in zip(self.cases, self.nets):
            self._net(case, per_scale, chk, tr, rp)
        self._extras(chk, tr, rp)

    def _classify(self, tr, rp, chk, op, net, ws, cls, mode):
        with tr.span("algebra.classify") as sid:
            v = chk.call(op, algebra.coef_classify, net, ws, cls, mode)
        if rp is not None and v is not None:
            cold = rp.coef(sid, net, ws, H_GRID)
            rp.cells(sid, "coef", net, ws, H_GRID, LAM_GRID, -1.0 if mode == "moderate" else 1.0)
            rp.classified(sid, cold)
        return v

    def _net(self, case, per_scale, chk, tr, rp):
        for (sname, ws, s), net in zip(self.scales, per_scale):
            base = f"coefficient/{case.label}/{sname}"
            memo = {p: self._classify(tr, rp, chk, f"{base}/{p[0]}/{p[1]}", net, ws, *p) for p in PATTERNS}
            copy = case.build()
            fresh = {
                p: self._classify(tr, rp, chk, f"{base}/{p[0]}/{p[1]}/fresh", copy, ws, *p) for p in PATTERNS
            }
            for p in PATTERNS:
                op = f"{base}/{p[0]}/{p[1]}"
                m, f = memo[p], fresh[p]
                if m is not None:
                    chk.verdict(op, m.bounded, case.expected[s][p])
                if m is not None and f is not None:
                    chk.memo_matches_fresh(f"{op}/memo=fresh", (m.bounded, m.margin), (f.bounded, f.margin))

    def known_defects(self) -> list[dict]:
        """Probe the net memo key once, outside the timed passes.

        Each net is classified under table:s=1 and then table:s=2; every
        s=2 verdict that is wrong or differs from a fresh net is listed.
        At the seed the two scales share the memo key (label "table",
        p_max 4096) and D_n and the bands read the s=1 tables.
        """
        chk = Checker()
        (n1, ws1, _), (n2, ws2, s2) = self.scales[2], self.scales[3]
        cause = (
            f"{n2} reuses the norm tables of {n1}: both scales have label {ws2.label!r} "
            f"and p_max {ws2.p_max}, the whole net memo key (algebra._ws_key)"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for case in self.cases:
                net, copy = case.build(), case.build()
                for p in PATTERNS:
                    chk.call(f"coefficient/{case.label}/{n1}/{p[0]}/{p[1]}", algebra.coef_classify, net, ws1, *p)
                for p in PATTERNS:
                    op = f"coefficient/{case.label}/{n2}-after-{n1}/{p[0]}/{p[1]}"
                    m = chk.call(op, algebra.coef_classify, net, ws2, *p)
                    f = chk.call(f"{op}/fresh", algebra.coef_classify, copy, ws2, *p)
                    if m is not None:
                        chk.verdict(op, m.bounded, case.expected[s2][p], cause)
                    if m is not None and f is not None:
                        chk.memo_matches_fresh(f"{op}/memo=fresh", (m.bounded, m.margin), (f.bounded, f.margin), cause)
        return chk.summary()

    def _extras(self, chk, tr, rp):
        g1, g2 = self.scales[0][1], self.scales[1][1]
        for dist, smooth in ((series.delta(), False), (series.cot_reg(), False), (series.exp_decay(1.0), True)):
            for sname, ws in (("gevrey:1", g1), ("gevrey:2", g2)):
                op = f"coefficient/decay_class/{dist.label}/{sname}"
                with tr.span("regularity.decay_class"):
                    v = chk.call(op, regularity.coefficient_decay_class, dist, ws, "roumieu")
                if v is not None:
                    chk.verdict(op, v.bounded, smooth)
                op = f"coefficient/certify_growth/{dist.label}/{sname}"
                with tr.span("series.certify_growth"):
                    v = chk.call(op, series.certify_growth, dist, ws)
                if v is not None:
                    chk.verdict(op, v.bounded, True)

        lam = self.growth_lam
        for op, args, kwargs in (
            (f"coefficient/factorize/exp_growth:{lam:.3g}/gevrey:2/beurling",
             (series.exp_growth(lam, g2), g2, "beurling"), {"lam": lam}),
            ("coefficient/factorize/cot_reg/gevrey:1/roumieu", (series.cot_reg(), g1, "roumieu"), {}),
        ):
            with tr.span("operators.factorize"):
                fz = chk.call(op, operators.structure_factorize, *args, **kwargs)
            if fz is not None:
                chk.check(
                    op,
                    fz.reconstruction_residual <= 1e-12 and fz.g_inclass.bounded and fz.lower_bound.passed,
                    f"residual {fz.reconstruction_residual:.3g}, g in class {fz.g_inclass.bounded}, "
                    f"lower bound {fz.lower_bound.passed}",
                )

        for dist in (series.exp_decay(1.0), series.delta()):
            op = f"coefficient/embedding_residual/{dist.label}"
            with tr.span("embedding.residual"):
                rep = chk.call(op, regularity.check_embedding_residual, dist, self.mol, g1)
            if rep is not None:
                chk.check(op, rep.passed, f"no grid lambda bounds the residual (margin {rep.margin:.3g})")

        for sname, ws, _ in self.scales:
            op = f"coefficient/doubling/{sname}"
            with tr.span("weights.doubling") as sid:
                rep = chk.call(op, weights.check_doubling_inequality, ws, self.t_points)
            if rep is not None:
                chk.check(op, rep.passed, f"2M(t) exceeds M(Ht) + log A by {rep.max_excess:.3g}")
            if rp is not None and rep is not None:
                rp.gauges(sid, ws, [self.t_points, ws.H * self.t_points])


WORKLOADS = {cls.name: cls for cls in (Battery, Demo, Coefficient)}

