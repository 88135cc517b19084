import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from periodic_gfa import algebra as A
from periodic_gfa import cli
from periodic_gfa import embedding as E
from periodic_gfa import operators as O
from periodic_gfa import series as S
from periodic_gfa import weights as W
from periodic_gfa.verdict import DEFAULTS

TWO_PI = 2 * math.pi
NMAX = 32


@pytest.fixture(scope="module")
def mol():
    return E.build_mollifier("dirichlet")


class TestMollifier:
    def test_dirichlet_constants(self, mol):
        assert (mol.C_bound, mol.R, mol.r) == (1 / TWO_PI, 2.0, 1.0)

    def test_trapezoid(self):
        m = E.build_mollifier("cutoff", r=1.0, R=2.0)
        ks = np.arange(-10, 11)
        vals = m.coefficients(ks, 4)
        assert np.allclose(vals[np.abs(ks) <= 4], 1 / TWO_PI)
        assert np.all(vals[np.abs(ks) >= 8] == 0)
        # linear ramp in between
        assert vals[ks == 6][0] == pytest.approx(0.5 / TWO_PI)

    def test_n_zero_is_constant(self, mol):
        vals = mol.coefficients(np.arange(-3, 4), 0)
        assert vals[3] == pytest.approx(1 / TWO_PI)
        assert np.max(np.abs(np.delete(vals, 3))) == 0

    def test_table_plateau_violation(self):
        with pytest.raises(E.MollifierFail, match=r"plateau.*\(k=-?\d+, n=5\)"):
            E.build_mollifier(
                "table",
                rows={n: {k: 1 / TWO_PI for k in range(-n, n + 1)} for n in range(1, 5)}
                | {5: {0: 1.0}},
                C=1.0,
                R=2.0,
                r=1.0,
            )

    def test_table_bound_violation(self):
        rows = {n: {k: 1 / TWO_PI for k in range(-n, n + 1)} for n in range(1, 9)}
        rows[3][1] = 9.0
        with pytest.raises(E.MollifierFail, match="bound|plateau"):
            E.build_mollifier("table", rows=rows, C=1 / TWO_PI, R=2.0, r=1.0)

    def test_bad_cutoff_profile(self):
        with pytest.raises(E.MollifierFail):
            E.build_mollifier("cutoff", r=1.0, R=2.0, psi=lambda x: np.cos(x), label="cosine")

    def test_validation_names_the_smallest_failing_n_first(self):
        # the plateau breaks at n = 3 and the row for n = 5 is missing: n = 3 is reported
        rows = {n: {k: 1 / TWO_PI for k in range(-n, n + 1)} for n in (1, 2, 3, 4, 6)}
        rows[3][0] = 1.0
        msg = "plateau clause c = 1/(2 pi) for |k| <= r n fails at (k=0, n=3)"
        with pytest.raises(E.MollifierFail, match=f"^{re.escape(msg)}$"):
            E.build_mollifier("table", rows=rows, C=1.0, R=2.0, r=1.0)


def table_mollifier(n_top=40):
    """Rows 1..n_top: the plateau |k| <= n and one complex shoulder at |k| = n + 1."""
    rows = {n: {k: 1 / TWO_PI for k in range(-n, n + 1)} | {n + 1: 0.25, -n - 1: 0.1j} for n in range(1, n_top + 1)}
    return E.build_mollifier("table", rows=rows, C=1.0, R=3.0, r=1.0, label="table")


MOLLIFIERS = {
    "dirichlet": lambda: E.build_mollifier("dirichlet"),
    "trapezoid": lambda: E.build_mollifier("cutoff", r=0.5, R=2.0),
    "table": table_mollifier,
}


class TestMollifierTable:
    @pytest.mark.parametrize("kind", sorted(MOLLIFIERS))
    def test_rows_are_the_per_n_coefficients(self, kind):
        m = MOLLIFIERS[kind]()
        for k_hi in (None, 0, 50):
            ks, c = m.table(12, k_hi=k_hi)
            K = m.degree(12) if k_hi is None else k_hi
            assert ks.tolist() == list(range(-K, K + 1)) and c.shape == (13, 2 * K + 1)
            for n in range(13):
                assert c[n].tobytes() == m.coefficients(ks, n).tobytes(), (kind, k_hi, n)

    def test_a_missing_row_raises(self):
        with pytest.raises(E.MollifierFail, match="no row for n = 41"):
            table_mollifier(40).table(41)


def embed_per_n(f, m, n_max):
    """The members 2 pi f_hat(k) c_{k,n} with one oracle read per n (the reference)."""
    members = []
    for n in range(n_max + 1):
        deg = m.degree(n)
        ks = np.arange(-deg, deg + 1)
        members.append(S.TrigPoly(TWO_PI * f.coefficients(ks) * m.coefficients(ks, n), deg))
    return members


# log M_p = log p! as a table: the same scale as gevrey:1, read through the table path
_TABLE_P1 = W.build_weight_sequence({"kind": "table", "logM": gammaln(np.arange(513) + 1.0)}, p_max=512)


def _file_distribution(tmp_path):
    path = tmp_path / "dist.json"
    rows = [{"k": k, "re": math.cos(k) / (1 + k * k), "im": math.sin(3 * k) / (2 + abs(k))} for k in range(-30, 31)]
    path.write_text(json.dumps({"coef": rows, "class": "roumieu"}))
    return cli.parse_distribution(f"file:{path}", None, "roumieu")


class TestEmbedReadsOnce:
    @pytest.mark.parametrize("kind", sorted(MOLLIFIERS))
    def test_members_equal_the_per_n_reference(self, ws_p1, kind, tmp_path):
        m = MOLLIFIERS[kind]()
        dists = [S.delta(), S.cot_reg(), S.exp_decay(1.0), _file_distribution(tmp_path)]
        dists += [S.exp_growth(1.0, ws, cls) for ws in (ws_p1, _TABLE_P1) for cls in ("roumieu", "beurling")]
        for f in dists:
            for n_max in (8, 32):
                net = E.embed(f, m, n_max)
                for n, want in enumerate(embed_per_n(f, m, n_max)):
                    got = net.at(n)
                    assert got.degree == want.degree and got.coef.tobytes() == want.coef.tobytes(), (f.label, n)

    def test_one_oracle_read_per_net(self, mol):
        reads = []
        delta = S.delta()

        def oracle(ks):
            reads.append(len(ks))
            return delta.coefficients(ks)

        f = S.CoefDistribution(oracle=oracle, tag="delta", label="counted")
        net = E.embed(f, mol, 64)
        for n in range(65):
            net.at(n)
        assert reads == [2 * mol.degree(64) + 1]

    def test_a_missing_mollifier_row_fails_at_its_probe(self):
        with pytest.raises(A.GeneratorFail, match=r"failed at n=16") as info:
            E.embed(S.delta(), table_mollifier(12), 16)
        assert "no row for n = 16" in str(info.value.__cause__)

    def test_an_oracle_error_surfaces_at_the_first_member(self, mol):
        def oracle(ks):
            if np.max(np.abs(ks)) > 20:
                raise KeyError("no coefficient past |k| = 20")
            return np.ones(len(ks), dtype=complex)

        f = S.CoefDistribution(oracle=oracle, tag="table", label="short")
        with pytest.raises(A.GeneratorFail, match=r"failed at n=0"):
            E.embed(f, mol, 16)


class TestEmbed:
    def test_delta_gives_dirichlet(self, mol):
        net = E.embed(S.delta(), mol, 16)
        for n in (0, 1, 5, 16):
            d = S.TrigPoly.dirichlet(n)
            assert np.allclose(net.at(n).coefficient(d.support()), d.coef, atol=1e-15)

    def test_band_limited_plateau_exactness(self, mol):
        f = S.from_trigpoly(S.TrigPoly.dirichlet(3), label="D3")
        net = E.embed(f, mol, 16)
        for n in range(3, 17):
            got = net.at(n).coefficient(np.arange(-3, 4))
            assert np.allclose(got, S.TrigPoly.dirichlet(3).coef, atol=1e-15)

    def test_sine_exact_from_one(self, mol):
        net = E.embed(S.from_trigpoly(S.TrigPoly.sine(), label="sin"), mol, 16)
        assert np.allclose(net.at(1).coefficient(np.array([-1, 1])), [0.5j, -0.5j])

    def test_cot_reg_rows(self, mol):
        net = E.embed(S.cot_reg(), mol, 12)
        for n in (2, 5, 11):
            poly = net.at(n)
            ks = poly.support()
            vals = poly.coefficient(ks)
            expect = np.where((ks < 0) & (ks % 2 == 0) & (np.abs(ks) <= n), 2j, 0 + 0j)
            expect = np.where(ks == 0, 1j, expect)
            assert np.allclose(vals, expect, atol=1e-15)

    def test_linear(self, mol):
        f, g = S.exp_decay(1.0), S.cot_reg()
        alpha = 1.5 - 0.5j
        combo = S.CoefDistribution(
            oracle=lambda ks: alpha * f.coefficients(ks) + g.coefficients(ks),
            tag="table", cls="roumieu", growth_lambda=1.0, label="combo",
        )
        net_combo = E.embed(combo, mol, 12)
        net_f, net_g = E.embed(f, mol, 12), E.embed(g, mol, 12)
        for n in (0, 3, 12):
            lhs = net_combo.at(n).coef
            rhs = net_f.at(n).scaled(alpha).coef + net_g.at(n).coef
            assert np.allclose(lhs, rhs, atol=0)

    def test_injectivity_desk(self, ws_p1, mol):
        dists = [
            S.delta(),
            S.cot_reg(),
            S.exp_decay(1.0),
            S.from_trigpoly(S.TrigPoly.sine(), label="sin"),
            S.exp_growth(1.0, ws_p1, "beurling"),
        ]
        for d in dists:
            net = E.embed(d, mol, NMAX)
            assert not A.classify_negligible(net, ws_p1, "roumieu").bounded, d.label

    def test_embedded_moderate(self, ws_p1, mol):
        net = E.embed(S.cot_reg(), mol, NMAX)
        assert A.classify_moderate(net, ws_p1, "roumieu").bounded
        growing = E.embed(S.exp_growth(1.0, ws_p1, "beurling"), mol, NMAX)
        # the embedding bound needs rates up to H R max(lambda_f, h)
        wide = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0)
        assert A.classify_moderate(growing, ws_p1, "beurling", lam_grid=wide).bounded


class TestConstEmbed:
    def test_trig_poly(self):
        net = E.const_embed(S.TrigPoly.sine(), 16)
        assert net.at(7) is net.at(0)

    def test_exp_decay_truncation(self, ws_p1):
        net = E.const_embed(S.exp_decay(1.0), 16, ws=ws_p1)
        deg = net.meta["degree"]
        tail = net.meta["truncation_error"]
        assert tail <= 2 * math.exp(-deg) / (1 - math.exp(-1))

    def test_delta_rejected(self, ws_p1):
        with pytest.raises(E.DecayFail):
            E.const_embed(S.delta(), 16, ws=ws_p1)

    def test_needs_weights(self):
        with pytest.raises(ValueError):
            E.const_embed(S.exp_decay(1.0), 16)


class TestProductPreservation:
    def test_exp_decay_pair(self, ws_p1, mol):
        rep = E.check_product_preservation(
            S.exp_decay(1.0), S.exp_decay(1.0), mol, ws_p1, "roumieu", n_max=NMAX
        )
        assert rep.verdict.bounded
        assert rep.residual_bound["ratio"] <= 10.0

    def test_band_limited_exact(self, ws_p1, mol):
        f = S.from_trigpoly(S.TrigPoly.sine(), label="sin")
        g = S.from_trigpoly(S.TrigPoly.cosine(), label="cos")
        rep = E.check_product_preservation(f, g, mol, ws_p1, "roumieu", n_max=16)
        assert rep.verdict.bounded
        assert rep.exact_zero_from is not None and rep.exact_zero_from <= 2
        assert all(s == 0.0 for s in rep.diff_sup_by_n[2:])

    def test_zero_pair(self, ws_p1, mol):
        zero = S.from_trigpoly(S.TrigPoly.zero(), label="0")
        rep = E.check_product_preservation(zero, zero, mol, ws_p1, "roumieu", n_max=16)
        assert rep.verdict.bounded


def residual_bound_per_n(f, g, m, ws, lam, n_max, k_max=DEFAULTS.k_max):
    """residual_bound at rate lam, with one associated_gauge call per n (the reference)."""
    fpoly, ftail = S.truncate_distribution(f, k_max=k_max)
    gpoly, gtail = S.truncate_distribution(g, k_max=k_max)
    fg = S.multiply(fpoly, gpoly).trimmed()
    ks, fg_mag = fg.support(), np.abs(fg.coef)
    fit = -np.inf
    for n in range(1, n_max + 1):
        top = float(np.max(fg_mag * np.abs(1.0 - TWO_PI * m.coefficients(ks, n))))
        if top > 0:
            fit = max(fit, math.log(top) + float(W.associated_gauge(ws, lam * m.r * n)))
    K = math.exp(S.log_coef_seminorm(fg, ws, lam, sign="plus"))
    reference = (1.0 + TWO_PI * m.C_bound) * K
    c_fit = math.exp(fit) if np.isfinite(fit) else 0.0
    return {"lambda": lam, "K": K, "C_fit": c_fit, "reference": reference,
            "ratio": c_fit / reference if reference > 0 else math.inf, "truncation_tails": [ftail, gtail]}


class TestProductResidual:
    @pytest.mark.parametrize("mollifier", ["dirichlet", "cutoff"])
    def test_fit_equals_the_per_n_reference(self, ws_p1, mollifier):
        params = {"r": 0.5, "R": 2.0} if mollifier == "cutoff" else {}
        m = E.build_mollifier(mollifier, **params)
        f, g = S.exp_decay(1.0), S.exp_decay(2.0)
        rep = E.check_product_preservation(f, g, m, ws_p1, "roumieu", n_max=NMAX)
        lam = rep.residual_bound["lambda"]
        assert lam is not None
        # repr shows every bit of every float
        assert repr(rep.residual_bound) == repr(residual_bound_per_n(f, g, m, ws_p1, lam, NMAX))

    def test_builds_three_nets(self, ws_p1, mol, monkeypatch):
        built = []
        init = A.Net.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(A.Net, "__init__", spy)
        E.check_product_preservation(S.exp_decay(1.0), S.exp_decay(1.0), mol, ws_p1, "roumieu", n_max=16)
        assert built == ["iota(exp_decay:1)", "iota(exp_decay:1)", "sigma(fg)-iota(f)iota(g)"]

    def test_no_bounded_rate_reads_inf(self, ws_p1, mol):
        f = S.exp_decay(0.05)
        rep = E.check_product_preservation(f, f, mol, ws_p1, "roumieu", n_max=16)
        bound = rep.to_json()["residual_bound"]
        assert bound["lambda"] is None
        assert [bound[key] for key in ("K", "C_fit", "reference", "ratio")] == ["inf"] * 4


def commute_residual_per_n(P, f, m, n_max):
    """max_residual of check_operator_commutes with one operator and oracle read per n (the reference)."""
    applied = O.apply_operator(P, f)
    worst = 0.0
    for n in range(n_max + 1):
        deg = m.degree(n)
        ks = np.arange(-deg, deg + 1)
        pk = O.multiplier_values(P, ks)
        lhs = pk * (TWO_PI * f.coefficients(ks) * m.coefficients(ks, n))
        rhs = TWO_PI * applied.coefficients(ks) * m.coefficients(ks, n)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    return worst


def _structure_beurling(ws):
    return O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws, "beurling")


class TestOperatorCommutes:
    @pytest.mark.parametrize("kind", sorted(MOLLIFIERS))
    def test_residual_equals_the_per_n_reference(self, ws_p1, ws_p2, kind):
        m = MOLLIFIERS[kind]()
        cases = [
            (O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling"), S.delta()),
            (O.build_ultrapolynomial([1, -2, 0.5], ws_p1, "beurling"), S.exp_decay(0.5)),
            (_structure_beurling(ws_p1), S.cot_reg()),
            (_structure_beurling(ws_p2), S.exp_decay(1.0)),
        ]
        for P, f in cases:
            for n_max in (8, 16):
                rep = E.check_operator_commutes(P, f, m, n_max=n_max)
                assert repr(rep["max_residual"]) == repr(commute_residual_per_n(P, f, m, n_max)), (f.label, n_max)

    def test_two_series_sums_per_check(self, ws_p1, mol, monkeypatch):
        calls = []
        inner = O._log_even_series

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(O, "_log_even_series", spy)
        P = _structure_beurling(ws_p1)
        calls.clear()
        assert E.check_operator_commutes(P, S.delta(), mol)["passed"]
        assert len(calls) == 2  # one multiplier_values and one applied-oracle read

    def test_finite_up_to_the_overflow(self, mol):
        P = _structure_beurling(W.gevrey(1.0, 2048))  # log P(k) passes 706 from |k| = 177
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = E.check_operator_commutes(P, S.delta(), mol, n_max=88)  # |k| <= 176
        assert rep["passed"] and repr(rep["max_residual"]) == "1.2002521080640852e-16"
        assert repr(rep["max_residual"]) == repr(commute_residual_per_n(P, S.delta(), mol, 88))

    @pytest.mark.parametrize("n_max", [89, 100])
    def test_overflow_is_an_input_error(self, mol, n_max):
        P = _structure_beurling(W.gevrey(1.0, 2048))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not finite in double precision at \|k\| = 177; take n_max below 89"):
                E.check_operator_commutes(P, S.delta(), mol, n_max=n_max)

    def test_square_delta(self, ws_p1, mol):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling")
        rep = E.check_operator_commutes(P, S.delta(), mol)
        assert rep["passed"] and rep["max_residual"] <= 1e-12

    def test_structure_cot_reg(self, ws_p2, mol):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        rep = E.check_operator_commutes(P, S.cot_reg(), mol)
        assert rep["passed"]

    def test_zero_distribution(self, ws_p1, mol):
        P = O.build_ultrapolynomial([1, 1], ws_p1, "beurling")
        zero = S.from_trigpoly(S.TrigPoly.zero(), label="0")
        rep = E.check_operator_commutes(P, zero, mol)
        assert rep["passed"] and rep["max_residual"] == 0.0


class TestModulationConsistency:
    def test_band_limited_exact_past_plateau(self, mol):
        f = S.from_trigpoly(S.TrigPoly.sine(), label="sin")
        for k in (-4, -1, 2, 4):
            lhs = E.modulate(E.embed(f, mol, 16), k)
            rhs = E.embed(E.modulate(f, k), mol, 16)
            for n in range(1 + abs(k), 17):
                a, b = lhs.at(n), rhs.at(n)
                assert np.allclose(a.coefficient(b.support()), b.coef, atol=1e-15), (k, n)

    def test_smooth_class_negligible_difference(self, ws_p1, mol):
        f = S.exp_decay(1.0)
        for k in (-4, 2):
            lhs = E.modulate(E.embed(f, mol, 16), k)
            rhs = E.embed(E.modulate(f, k), mol, 16)
            diff = A.make_net((lhs - rhs).at, 16, f"mod{k}_diff")
            assert A.classify_negligible(diff, ws_p1, "roumieu").bounded, k
