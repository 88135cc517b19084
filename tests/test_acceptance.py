"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with -s to see the lines.

Criterion 10c checks the Schwartz obstruction on the cosine product.
With iota(delta)_n = D_n = sum_{|k|<=n} e^{ikt}/(2 pi), the residue
iota(cos) iota(delta) - iota(delta) has the closed form
(cos((n+1)t) - cos(nt))/(2 pi) for n >= 1: coefficients -1/(4 pi) at
m = +-n and +1/(4 pi) at m = +-(n+1), and sup norm exactly 1/pi (at
t = pi).  At n = 0 it is the constant -1/(2 pi).  Negligibility needs
sup_t |diff_n| e^{M(lambda n)} to stay bounded, which a sup norm fixed
at 1/pi cannot do in either class, so the residue is a nonzero element
of the algebra that is still associated to 0.  A classifier that calls
it negligible is unsound, and 10c then fails.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from periodic_gfa import algebra as A
from periodic_gfa import battery
from periodic_gfa import embedding as E
from periodic_gfa import operators as O
from periodic_gfa import regularity as R
from periodic_gfa import series as S
from periodic_gfa import weights as W

TWO_PI = 2 * math.pi
NMAX = 32


def verdict_line(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def ws():
    return W.gevrey(1.0, 4096)


@pytest.fixture(scope="module")
def mol():
    return E.build_mollifier("dirichlet")


@pytest.fixture(scope="module")
def nets(ws):
    return battery.full_battery(ws, NMAX)


def test_criterion_1_associated_function_oracle():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-2, 1e4, 40)
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", W.TruncationWarning)
        for s in (0.5, 1.0, 2.0):
            ws = W.build_weight_sequence({"kind": "gevrey", "s": s}, 2000)
            logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 2001)))])
            p = np.arange(0, 2001)
            for t in grid:
                brute = max(0.0, float(np.max(p * np.log(t) - s * logfact)))
                ok &= abs(W.associated_function(ws, float(t)) - brute) <= 1e-9
        ws1 = W.build_weight_sequence({"kind": "gevrey", "s": 1.0}, 2000)
        ok &= abs(W.associated_function(ws1, 10.0) - 7.9214) <= 1e-3
        ok &= abs(W.associated_function(ws1, 20.0) - 17.5790) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict_line(1, ok, f"ratio formula = brute force (p <= 2000), 3 scales x 40 points, {elapsed:.2f}s")


def test_criterion_2_doubling_inequality():
    grid = np.geomspace(1e-2, 1e4, 40)
    ok = True
    for s in (0.5, 1.0, 2.0):
        ws = W.build_weight_sequence({"kind": "gevrey", "s": s}, 64)
        ok &= ws.A == 1.0 and ws.H == 2.0**s
        rep = W.check_doubling_inequality(ws, grid)
        ok &= rep.passed and rep.max_excess <= 1e-9
    verdict_line(2, ok, "2M(t) <= M(Ht) + log A on the 40-point grids with (A, H) = (1, 2^s)")


def test_criterion_3_fourier_round_trip():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        deg = int(rng.integers(0, 65))
        coef = rng.standard_normal(2 * deg + 1) + 1j * rng.standard_normal(2 * deg + 1)
        f = S.TrigPoly(coef, deg)
        g = S.fourier_coefficients(lambda t: S.evaluate(f, t), 64)
        ok &= bool(np.max(np.abs(g.coefficient(f.support()) - f.coef)) <= 1e-10)
    verdict_line(3, ok, "100 random TrigPolys of degree <= 64 reconstruct within 1e-10")


def test_criterion_4_multiplier_identity(ws):
    ws2 = W.gevrey(2.0, 512)
    ops = [
        O.build_ultrapolynomial([0, 0, 1], ws, "beurling"),
        O.build_ultrapolynomial({"a": np.exp(-gammaln(np.arange(0, 21) + 1.0))}, ws, "beurling"),
        O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws2, "beurling"),
        O.build_ultrapolynomial(
            {"form": "structure_roumieu", "r": W.linear_rsequence(512), "k": W.linear_rsequence(512)},
            ws, "roumieu",
        ),
        O.shifted_operator(O.build_ultrapolynomial([0, 1, 3], ws, "beurling"), 2),
    ]
    dists = [S.delta(), S.cot_reg(), S.exp_decay(1.0),
             S.from_trigpoly(S.TrigPoly.sine(), label="sin")]
    ks = np.arange(-32, 33)
    ok = True
    for P in ops:
        pk = O.multiplier_values(P, ks)
        for d in dists:
            got = O.apply_operator(P, d).coefficients(ks)
            want = pk * d.coefficients(ks)
            ok &= bool(np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))))
    verdict_line(4, ok, "P(D) acts as the exact multiplier P(k) on the operator battery")


def test_criterion_5_null_characterization(ws, nets):
    t0 = time.perf_counter()
    ok = True
    for net, expect_neg in nets:
        mod = A.classify_moderate(net, ws, "roumieu")
        full = A.classify_negligible(net, ws, "roumieu")
        sup = A.classify_negligible_supnorm(net, ws, "roumieu", moderate=mod)
        ok &= mod.bounded and (full.bounded == sup.bounded == expect_neg)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    verdict_line(5, ok, f"full-norm and sup-norm negligibility agree on the 10-net battery, {elapsed:.1f}s")


def test_criterion_6_coefficient_equivalence(ws, nets):
    ok = True
    for net, expect_neg in nets:
        cm = A.coef_classify(net, ws, "roumieu", "moderate")
        cn = A.coef_classify(net, ws, "roumieu", "negligible")
        ok &= cm.bounded and (cn.bounded == expect_neg)
    verdict_line(6, ok, "coefficient-side classifiers agree with the function side on the battery")


def test_criterion_7_product_preservation(ws, mol):
    rep = E.check_product_preservation(
        S.exp_decay(1.0), S.exp_decay(1.0), mol, ws, "roumieu", n_max=NMAX
    )
    ok = rep.verdict.bounded and rep.residual_bound["ratio"] <= 10.0
    f = S.from_trigpoly(S.TrigPoly.sine(), label="sin")
    g = S.from_trigpoly(S.TrigPoly.cosine(), label="cos")
    rep2 = E.check_product_preservation(f, g, mol, ws, "roumieu", n_max=16)
    ok &= all(s == 0.0 for s in rep2.diff_sup_by_n[2:])
    verdict_line(
        7, ok,
        "sigma(fg) - iota(f)iota(g) negligible with fitted constant <= 10 (1 + 2 pi C) K; "
        "band-limited difference exactly zero from deg f + deg g",
    )


def test_criterion_8_structure_factorization():
    ws2 = W.gevrey(2.0, 512)
    c = S.exp_growth(1.0, ws2, "beurling")
    fact = O.structure_factorize(c, ws2, "beurling", lam=1.0, k_max=200, tau=0.5)
    lb = O.lower_bound_check(fact.P, ws2, 1.0, np.geomspace(1.0, 100.0, 25))
    ok = (
        fact.reconstruction_residual <= 1e-12
        and fact.g_inclass.bounded
        and lb.passed
        and lb.c_prime > 0
    )
    verdict_line(8, ok, "P(k) g(k) reconstructs e^{M(k)} to 1e-12; g gauge-bounded; C' > 0 on [1, 100]")


def test_criterion_9_regularity_instances(ws, mol):
    cases = [
        (S.from_trigpoly(S.TrigPoly.sine(), label="sin"), "roumieu"),
        (S.from_trigpoly(S.TrigPoly.cosine(), label="cos"), "roumieu"),
        (S.from_trigpoly(S.TrigPoly.const(1.0), label="one"), "roumieu"),
        (S.from_trigpoly(S.TrigPoly.dirichlet(8), label="D8"), "roumieu"),
        (S.exp_decay(1.0), "roumieu"),
        (S.exp_decay(0.5), "roumieu"),
        (S.delta(), "roumieu"),
        (S.cot_reg(), "roumieu"),
        (S.exp_growth(1.0, ws, "beurling"), "beurling"),
    ]
    ok = True
    verdicts = {}
    for dist, cls in cases:
        rep = R.check_regularity_equivalence(dist, mol, ws, cls, n_max=NMAX)
        verdicts[dist.label] = rep
        ok &= rep.consistent
    ok &= not verdicts["delta"].regular.regular
    ok &= verdicts["exp_decay:1"].regular.regular
    verdict_line(9, ok, f"consistent biconditionals on {len(cases)} distributions; "
                        "iota(delta) not regular, iota(exp_decay:1) regular")


def test_criterion_10a_schwartz_sup_norms():
    sine = S.TrigPoly.sine()
    sups = {n: S.sup_norm(S.multiply(sine, S.TrigPoly.dirichlet(n))) for n in range(16, 65)}
    ok = all(0.30 <= v <= 0.32 for v in sups.values())
    verdict_line("10a", ok, "sup|sin * D_n| in [0.30, 0.32] for 16 <= n <= 64 (limit 1/pi)")


def test_criterion_10b_embedded_product_not_negligible(ws, mol):
    u = A.make_net(
        A.net_mul(
            E.embed(S.from_trigpoly(S.TrigPoly.sine(), label="sin"), mol, NMAX),
            E.embed(S.delta(), mol, NMAX),
        ).at,
        NMAX, "u",
    )
    v = A.classify_negligible(u, ws, "roumieu")
    verdict_line("10b", not v.bounded, "u = iota(sin) iota(delta) classified not negligible")


def test_criterion_10c_cosine_product_residue(ws, mol):
    w_net = A.net_mul(
        E.embed(S.from_trigpoly(S.TrigPoly.cosine(), label="cos"), mol, NMAX),
        E.embed(S.delta(), mol, NMAX),
    )
    diff = A.make_net((w_net - E.embed(S.delta(), mol, NMAX)).at, NMAX, "w-iota(delta)")
    # Closed form and why it is not negligible: see the module docstring.
    quarter = 1.0 / (4 * math.pi)
    phi = S.exp_decay(1.0)
    coef_err, sup_err, pairings = 0.0, 0.0, []
    for n in range(NMAX + 1):
        p = diff.at(n)
        ks = np.arange(-max(p.degree, n + 1), max(p.degree, n + 1) + 1)
        c = p.coefficient(ks)
        if n == 0:
            expected = np.where(ks == 0, -1.0 / TWO_PI, 0.0)
        else:
            expected = np.select([np.abs(ks) == n, np.abs(ks) == n + 1], [-quarter, quarter], 0.0)
            sup_err = max(sup_err, abs(S.sup_norm(p) - 1 / math.pi))
            pairings.append(abs(TWO_PI * np.sum(c * phi.coefficients(-ks))))
        coef_err = max(coef_err, float(np.max(np.abs(c - expected))))
    neg = A.classify_negligible(diff, ws, "roumieu")
    mod = A.classify_moderate(diff, ws, "roumieu")
    ok = (
        coef_err <= 1e-14
        and sup_err <= 1e-12
        and mod.bounded
        and not neg.bounded
        and pairings[-1] < 1e-12
        and all(b < a for a, b in zip(pairings, pairings[1:]))
    )
    verdict_line("10c", ok, "w - iota(delta) with w = iota(cos) iota(delta) is moderate, not negligible "
                            "(sup norm 1/pi), and pairs to 0 with exp_decay:1")


def test_criterion_11_embedding_residual_bound(ws, mol):
    rep_cot = R.check_embedding_residual(S.cot_reg(), mol, ws, n_max=NMAX)
    rep_gro = R.check_embedding_residual(S.exp_growth(1.0, ws, "beurling"), mol, ws, n_max=NMAX)
    ok = rep_cot.passed and rep_gro.passed
    verdict_line(11, ok, "residual dual-seminorm bound holds at a grid lambda for cot_reg and exp_growth")
