import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from periodic_gfa import algebra as A
from periodic_gfa import battery
from periodic_gfa import embedding as E
from periodic_gfa import regularity as R
from periodic_gfa import series as S
from periodic_gfa import verdict as V
from periodic_gfa import weights as W

TWO_PI = 2 * math.pi
NMAX = 32


@pytest.fixture(scope="module")
def nets(ws_p1):
    return battery.full_battery(ws_p1, NMAX)


class TestNet:
    def test_constant_net(self):
        net = A.constant_net(S.TrigPoly.sine(), 16)
        assert all(net.at(n) is net.at(0) for n in range(17))

    def test_memoized_deterministic(self):
        calls = []

        def gen(n):
            calls.append(n)
            return S.TrigPoly.dirichlet(n)

        net = A.make_net(gen, 16)
        a = net.at(5)
        b = net.at(5)
        assert a is b and calls.count(5) == 1

    def test_generator_fail(self):
        def gen(n):
            if n == 16:
                raise RuntimeError("boom")
            return S.TrigPoly.sine()

        with pytest.raises(A.GeneratorFail):
            A.make_net(gen, 16)

    def test_nmax_floor(self):
        with pytest.raises(ValueError):
            A.make_net(lambda n: S.TrigPoly.sine(), 4)

    def test_ring_structure(self, rng):
        def rpoly(deg):
            return S.TrigPoly(rng.standard_normal(2 * deg + 1) + 1j * rng.standard_normal(2 * deg + 1), deg)

        f = A.make_net(lambda n: rpoly(3), 16)
        g = A.make_net(lambda n: rpoly(4), 16)
        h = A.make_net(lambda n: rpoly(2), 16)
        for n in (0, 7, 16):
            fg, gf = (f * g).at(n), (g * f).at(n)
            assert np.allclose(fg.coef, gf.coef, atol=1e-10)
            lhs = ((f * g) * h).at(n)
            rhs = (f * (g * h)).at(n)
            assert np.allclose(lhs.coef, rhs.coef, atol=1e-10)
            dist_l = (f * (g + h)).at(n)
            dist_r = ((f * g) + (f * h)).at(n)
            assert np.allclose(dist_l.coefficient(dist_r.support()), dist_r.coef, atol=1e-10)


class TestModerate:
    def test_dirichlet_both_classes(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX, "dirichlet")
        assert A.classify_moderate(net, ws_p1, "roumieu").bounded
        assert A.classify_moderate(net, ws_p1, "beurling").bounded

    def test_constant_net(self, ws_p1):
        net = A.constant_net(S.TrigPoly.sine(), NMAX)
        assert A.classify_moderate(net, ws_p1, "roumieu").bounded
        assert A.classify_moderate(net, ws_p1, "beurling").bounded

    def test_gauge_scaled_dirichlet_not_moderate(self, ws_p1):
        # growth engineered to outrun the largest grid lambda
        net = A.make_net(
            lambda n: S.TrigPoly.dirichlet(n).scaled(
                (2 * n + 1) * math.exp(float(W.associated_gauge(ws_p1, float(n))))
            ),
            NMAX,
        )
        assert not A.classify_moderate(net, ws_p1, "beurling").bounded

    def test_verdict_margin_invariant(self, ws_p1):
        net = A.constant_net(S.TrigPoly.sine(), NMAX)
        v = A.classify_moderate(net, ws_p1, "roumieu")
        assert (v.margin <= v.tau) == v.bounded
        assert v.method == "full_norm" and v.desk_scale


class TestNegligible:
    def test_decaying_sine(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
        assert A.classify_negligible(net, ws_p1, "roumieu").bounded
        # Beurling asks every lambda, including rates above the decay
        assert not A.classify_negligible(net, ws_p1, "beurling").bounded

    def test_dirichlet_not(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        assert not A.classify_negligible(net, ws_p1, "roumieu").bounded

    def test_zero(self, ws_p1):
        net = A.constant_net(S.TrigPoly.zero(), NMAX)
        v = A.classify_negligible(net, ws_p1, "roumieu")
        assert v.bounded and v.margin == -math.inf

    def test_beurling_negligible_needs_fast_decay(self, ws_p1):
        # decay beating twice the largest grid rate passes the forall pattern
        fast = A.make_net(
            lambda n: S.TrigPoly.sine().scaled(
                math.exp(-2.0 * float(W.associated_gauge(ws_p1, 8.0 * n)))
            ),
            NMAX,
        )
        assert A.classify_negligible(fast, ws_p1, "beurling").bounded
        assert A.classify_negligible(fast, ws_p1, "roumieu").bounded


class TestSupnormCharacterization:
    def test_agreement_on_battery(self, ws_p1, nets):
        for net, expect_neg in nets:
            mod = A.classify_moderate(net, ws_p1, "roumieu")
            assert mod.bounded, net.label
            full = A.classify_negligible(net, ws_p1, "roumieu")
            sup = A.classify_negligible_supnorm(net, ws_p1, "roumieu", moderate=mod)
            assert full.bounded == sup.bounded == expect_neg, net.label

    def test_hypothesis_fail(self, ws_p1):
        net = A.make_net(
            lambda n: S.TrigPoly.dirichlet(n).scaled(
                (2 * n + 1) * math.exp(float(W.associated_gauge(ws_p1, float(8 * n))))
            ),
            NMAX,
        )
        with pytest.raises(A.HypothesisFail):
            A.classify_negligible_supnorm(net, ws_p1, "roumieu")


class TestCoefficientSide:
    def test_agreement_on_battery(self, ws_p1, nets):
        for net, expect_neg in nets:
            assert A.coef_classify(net, ws_p1, "roumieu", "moderate").bounded, net.label
            got = A.coef_classify(net, ws_p1, "roumieu", "negligible").bounded
            assert got == expect_neg, net.label

    def test_zero(self, ws_p1):
        net = A.constant_net(S.TrigPoly.zero(), NMAX)
        assert A.coef_classify(net, ws_p1, "roumieu", "negligible").bounded


class TestRjFamilies:
    def test_dirichlet_moderate_with_slow_s(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        r = W.linear_rsequence(256)
        s = W.build_rsequence(np.maximum(1.0, np.arange(0, 257) / 16.0), label="slow")
        v = A.roumieu_rj_classify(net, ws_p1, [(r, s)], "moderate")
        assert v.bounded and v.method == "rj_family"

    def test_zero_negligible_all_families(self, ws_p1):
        net = A.constant_net(S.TrigPoly.zero(), NMAX)
        fams = [(W.linear_rsequence(128), W.linear_rsequence(128))]
        assert A.roumieu_rj_classify(net, ws_p1, fams, "negligible").bounded

    def test_decaying_sine_matches_plain_classifier(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
        fams = [(W.linear_rsequence(128), W.linear_rsequence(128))]
        rj = A.roumieu_rj_classify(net, ws_p1, fams, "negligible")
        plain = A.classify_negligible(net, ws_p1, "roumieu")
        assert rj.bounded and plain.bounded

    def test_empty_family_rejected(self, ws_p1):
        net = A.constant_net(S.TrigPoly.zero(), NMAX)
        with pytest.raises(ValueError):
            A.roumieu_rj_classify(net, ws_p1, [], "moderate")


class TestProducts:
    def test_delta_squared_moderate_not_negligible(self, ws_p1):
        # degree doubles, so moderateness needs h below lambda_min / 2
        net = A.make_net(
            lambda n: S.multiply(S.TrigPoly.dirichlet(n), S.TrigPoly.dirichlet(n)), NMAX
        )
        assert A.classify_moderate(net, ws_p1, "roumieu", h_grid=battery.WIDE_H).bounded
        assert not A.classify_negligible(net, ws_p1, "roumieu").bounded
        peak = S.evaluate(net.at(8), 0.0)
        assert peak.real == pytest.approx((17 / TWO_PI) ** 2, rel=1e-12)

    def test_ideal_property(self, ws_p1):
        moderate = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        negligible = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
        assert A.classify_negligible(moderate * negligible, ws_p1, "roumieu").bounded

    def test_zero_absorbs(self, ws_p1):
        f = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        z = A.constant_net(S.TrigPoly.zero(), NMAX)
        prod = f * z
        assert all(np.max(np.abs(prod.at(n).coef)) == 0 for n in range(NMAX + 1))

    def test_sine_times_cosine(self):
        sn = A.constant_net(S.TrigPoly.sine(), 16)
        cn = A.constant_net(S.TrigPoly.cosine(), 16)
        prod = (sn * cn).at(7)
        assert prod.coefficient(2) == pytest.approx(-0.25j)


class TestPointValues:
    def test_delta_at_origin(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        z = A.point_value(net, A.GeneralizedNumber(np.zeros(NMAX + 1)))
        expect = (2 * np.arange(NMAX + 1) + 1) / TWO_PI
        assert np.allclose(z.values.real, expect, atol=1e-12)
        assert A.gn_classify(z, ws_p1, "roumieu", "moderate").bounded
        assert not A.gn_classify(z, ws_p1, "roumieu", "negligible").bounded

    def test_sine_at_pi(self):
        net = A.constant_net(S.TrigPoly.sine(), 16)
        z = A.point_value(net, A.GeneralizedNumber(np.full(17, math.pi)))
        assert np.max(np.abs(z.values)) < 1e-12

    def test_delta_at_pi(self):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), 16)
        z = A.point_value(net, A.GeneralizedNumber(np.full(17, math.pi)))
        # D_n(pi) alternates +-1/(2 pi)
        assert np.allclose(np.abs(z.values), 1 / TWO_PI, atol=1e-12)

    def test_gn_beurling_patterns(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        z = A.point_value(net, A.GeneralizedNumber(np.zeros(NMAX + 1)))
        assert A.gn_classify(z, ws_p1, "beurling", "moderate").bounded
        assert not A.gn_classify(z, ws_p1, "beurling", "negligible").bounded

    def test_point_value_soundness(self, ws_p1, rng):
        net = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
        assert A.classify_negligible(net, ws_p1, "roumieu").bounded
        for _ in range(20):
            t = A.GeneralizedNumber(rng.uniform(0, TWO_PI, NMAX + 1))
            z = A.point_value(net, t)
            assert A.gn_classify(z, ws_p1, "roumieu", "negligible").bounded

    def test_domain_check(self):
        net = A.constant_net(S.TrigPoly.sine(), 16)
        with pytest.raises(ValueError):
            A.point_value(net, A.GeneralizedNumber(np.full(17, 7.0)))


class TestWitness:
    def test_dirichlet_peaks_at_origin(self, ws_p1):
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        idx, pts = A.find_witness(net, ws_p1, 1.0)
        assert len(idx) > 0
        assert np.allclose(np.minimum(pts, TWO_PI - pts), 0.0, atol=1e-9)
        z = A.GeneralizedNumber(
            np.array([S.evaluate(net.at(n), pts[list(idx).index(n)] if n in idx else 0.0)
                      for n in range(NMAX + 1)])
        )
        assert not A.gn_classify(z, ws_p1, "roumieu", "negligible").bounded

    def test_modulated_dirichlet_peak_location(self, ws_p1):
        net = A.make_net(
            lambda n: S.multiply(S.TrigPoly.sine(), S.TrigPoly.dirichlet(n)), NMAX
        )
        idx, pts = A.find_witness(net, ws_p1, 1.0)
        for n, t in zip(idx, pts):
            t_star = math.pi / (2 * n + 1)
            d = min(abs(t - t_star), abs(TWO_PI - t - t_star))
            assert d < 0.75 * t_star, (n, t)

    def test_zero_has_no_witness(self, ws_p1):
        net = A.constant_net(S.TrigPoly.zero(), NMAX)
        with pytest.raises(A.NoWitness):
            A.find_witness(net, ws_p1, 1.0)


def _synthetic_grid(D, E):
    """Rows (h axis) and gauges (lambda axis) with known cell margins.

    Profiles run over n = 0..20; the head n <= 8 is zero everywhere, so
    every baseline is 0.  Row i is zero on its own tail block
    T_i = (9..14, 15..20)[i] and -inf on the rest of the tail.  Gauge j
    carries D[i][j] at T_i[2j] and -E[i][j] at T_i[2j+1], zero elsewhere.
    The cell rows[i] + gauges[j] thus has margin D[i][j] with witness
    T_i[2j], and rows[i] - gauges[j] has margin E[i][j] with witness
    T_i[2j+1].
    """
    blocks = (range(9, 15), range(15, 21))
    rows = []
    for i in range(2):
        r = np.full(21, -np.inf)
        r[:9] = 0.0
        r[list(blocks[i])] = 0.0
        rows.append(r)
    gauges = []
    for j in range(3):
        g = np.zeros(21)
        for i in range(2):
            g[blocks[i][2 * j]] = D[i][j]
            g[blocks[i][2 * j + 1]] = -E[i][j]
        gauges.append(g)
    return rows, gauges


# Each of the six reductions of this matrix (max, min, and forall-exists /
# exists-forall with either axis outer) picks a different cell.
_D = [[1.0, 6.0, 3.0], [5.0, 2.0, 4.0]]
_E = [[d + 0.5 for d in row] for row in _D]


class TestQuantifierEngine:
    @pytest.mark.parametrize(
        "mode, cls, margin, witness",
        [
            ("moderate", "beurling", 2.5, 18),  # max_h min_lam of E: cell (1, 1)
            ("moderate", "roumieu", 3.5, 14),  # max_lam min_h of E: cell (0, 2)
            ("negligible", "beurling", 6.0, 11),  # max of D: cell (0, 1)
            ("negligible", "roumieu", 1.0, 9),  # min of D: cell (0, 0)
            ("regular", "beurling", 4.5, 20),  # min_lam max_h of E: cell (1, 2)
            ("regular", "roumieu", 5.5, 16),  # min_h max_lam of E: cell (1, 0)
        ],
    )
    def test_pattern_table(self, mode, cls, margin, witness):
        """Any swapped quantifier or sign moves the decisive cell.

        For the forall-forall and exists-exists entries the axis order
        only breaks ties; test_ties_follow_the_axis_order pins it.
        """
        rows, gauges = _synthetic_grid(_D, _E)
        v = A._decide_pattern(rows, gauges, mode, cls, 3.0, {}, "synthetic")
        assert (v.margin, v.witness_n, v.bounded) == (margin, witness, margin <= 3.0)

    def test_table_covers_exactly_the_six_patterns(self):
        assert set(A.PATTERNS) == {
            (mode, cls)
            for mode in ("moderate", "negligible", "regular")
            for cls in ("beurling", "roumieu")
        }

    def test_ties_follow_the_axis_order(self):
        # the maximum 6 sits at (0, 2) and (1, 1), the minimum 1 at (0, 1) and
        # (1, 0): h outer takes row 0 first, lambda outer would take column 0
        tie = [[3.0, 1.0, 6.0], [1.0, 6.0, 3.0]]
        rows, gauges = _synthetic_grid(tie, tie)
        assert A._decide_pattern(rows, gauges, "negligible", "beurling", 0.5, {}, "t").witness_n == 13
        assert A._decide_pattern(rows, gauges, "negligible", "roumieu", 0.5, {}, "t").witness_n == 11

    def test_unknown_class_rejected(self):
        rows, gauges = _synthetic_grid(_D, _E)
        with pytest.raises(ValueError):
            A._decide_pattern(rows, gauges, "moderate", "gevrey", 0.5, {}, "t")

    def test_frequency_profiles_fold_to_abs_k(self):
        ks = np.arange(-20, 21)
        v = V.decide([[0.1 * np.abs(ks)]], "forall", "forall", 0.5, {}, "coefficient", ks=ks)
        # |k| ascending: head |k| <= 4 (nine entries), tail peaks at |k| = 20
        assert v.witness_n == 20 and v.margin == pytest.approx(1.6)

    @pytest.mark.parametrize(
        "mode, cls, reduce",
        [
            ("moderate", "beurling", min),
            ("moderate", "roumieu", max),
            ("negligible", "beurling", max),
            ("negligible", "roumieu", min),
        ],
    )
    def test_one_row_cases_reduce_over_lambda(self, ws_p1, mode, cls, reduce):
        lams = V.DEFAULTS.lambda_grid
        gauges = [A._gauge_table(ws_p1, lam, NMAX) for lam in lams]
        sign = -1.0 if mode == "moderate" else 1.0
        ns = np.arange(NMAX + 1, dtype=float)
        z = A.GeneralizedNumber((ns + 1.0) * np.exp(np.asarray(W.associated_gauge(ws_p1, ns))))
        cells = [V.bounded_test(np.log(np.abs(z.values)) + sign * g)[1:3] for g in gauges]
        v = A.gn_classify(z, ws_p1, cls, mode)
        assert (v.margin, v.witness_n) == reduce(cells, key=lambda c: c[0])
        if mode == "negligible":
            net = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
            logsup = np.array([math.log(S.sup_norm(net.at(n))) for n in range(NMAX + 1)])
            cells = [V.bounded_test(logsup + g)[1:3] for g in gauges]
            v = A.classify_negligible_supnorm(net, ws_p1, cls)
            assert (v.margin, v.witness_n) == reduce(cells, key=lambda c: c[0])


def count_rows(monkeypatch):
    """Record the number of rows of every grid evaluation of D^p rows."""
    rows = []
    inner = S._log_sup_rows

    def counting(coef, ps, *args):
        rows.append(len(ps))
        return inner(coef, ps, *args)

    monkeypatch.setattr(S, "_log_sup_rows", counting)
    return rows


def row_tables(net):
    """The keys (n, p) of the grid rows of the net's table that some reduction read."""
    return net.derivative_rows().rows[0][:-1]  # without the sentinel


def held(table, n):
    """The rows p of f_n that a table holds."""
    keys = table.rows[0][:-1]
    return keys[keys // S._KEY == n] % S._KEY


def evaluated_since(before, net):
    """Rows the net's table gained since before: what evaluating each row once costs."""
    return len(row_tables(net)) - len(before)


class TestMemoKeys:
    """Norm memos are keyed by the content of the scale, not its label or id."""

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    def test_table_scales_sharing_a_label(self):
        p = np.arange(129)
        s1, s2 = (
            W.build_weight_sequence({"kind": "table", "logM": s * gammaln(p + 1.0)})
            for s in (1.0, 2.0)
        )
        assert s1.label == s2.label and s1.p_max == s2.p_max
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        fresh = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        for classify in (A.coef_classify, A.classify_moderate):
            classify(net, s1)
            memo, new = classify(net, s2), classify(fresh, s2)
            assert (memo.bounded, memo.margin) == (new.bounded, new.margin)

    def test_rj_tables_by_content(self, ws_p1, monkeypatch):
        rows = count_rows(monkeypatch)
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        s = W.build_rsequence(np.maximum(1.0, np.arange(0, 257) / 16.0), label="slow")
        added = []
        for r in (W.linear_rsequence(256), W.linear_rsequence(256), s):
            before = (len(rows), len(net._norms))
            A.roumieu_rj_classify(net, ws_p1, [(r, s)], "moderate")
            added.append((len(rows) > before[0], len(net._norms) - before[1]))
        # two equal sequences share one table and its rows; a different one gets its own table
        assert added[0] == (True, 1) and added[1] == (False, 0) and added[2][1] == 1

    def test_ud_tables_share_one_pass_per_representative(self, ws_p1, monkeypatch):
        rows = count_rows(monkeypatch)
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        before = row_tables(net)
        mod = A.classify_moderate(net, ws_p1, "beurling")
        h_grid = [float(h) for h in V.DEFAULTS.h_grid]
        # every grid row of each f_n is evaluated once for all h
        assert sum(rows) == evaluated_since(before, net) > 0
        assert [k for k in net._norms if k[0] == "ud"] == [("ud", ws_p1.memo_key, h) for h in h_grid]

        rows.clear()
        A.classify_negligible(net, ws_p1, "beurling")
        net._norms.clear()
        assert A.classify_moderate(net, ws_p1, "beurling") == mod
        assert rows == []  # warm rows: nothing is evaluated again

        calls = []
        reduce_rows = S.DerivativeRows.log_ud_norms

        def reducing(self, ws, hs):
            calls.append(list(hs))
            return reduce_rows(self, ws, hs)

        monkeypatch.setattr(S.DerivativeRows, "log_ud_norms", reducing)
        before = row_tables(net)
        h_reg = 4.0 * max(V.DEFAULTS.lambda_grid)
        R.classify_regular(net, ws_p1, "beurling", moderate=mod)
        # only the stretched h is reduced, over the whole net; it reads the rows there and grows them
        assert calls == [[h_reg]]
        assert sum(rows) == evaluated_since(before, net) > 0
        assert ("ud", ws_p1.memo_key, h_reg) in net._norms
        assert sum(k[0] == "ud" for k in net._norms) == len(h_grid) + 1

    def test_coef_tables_share_one_call_per_representative(self, monkeypatch):
        """One gauge computation per grid a scale lacks, for the columns it lacks; a memo hit computes none."""
        ws = W.gevrey(1.0, 512)  # a fresh scale: its gauge memo is empty
        calls = []
        kernel = W._gauge_values

        def counting(ws, t, cap, label):
            calls.append((t[:, -1].tolist(), t.shape[1]))  # t = outer(lambdas, K0..K): (lambdas, columns K0..K)
            return kernel(ws, t, cap, label)

        monkeypatch.setattr(W, "_gauge_values", counting)
        # degree 2n: the |k| axis (0..2 NMAX) and the n axis of the M(lambda n) gauges differ
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(2 * n), NMAX)
        h_grid = [float(h) for h in V.DEFAULTS.h_grid]
        assert h_grid == list(V.DEFAULTS.lambda_grid)  # one grid: the M(lambda n) gauges slice its table
        A.coef_classify(net, ws, "beurling", "moderate")
        assert calls == [([2 * NMAX * h for h in h_grid], 2 * NMAX + 1)]
        assert [k for k in net._norms if k[0] == "coef"] == [("coef", ws.memo_key, h) for h in h_grid]

        calls.clear()
        A.coef_classify(net, ws, "roumieu", "negligible")
        A.coef_classify(A.make_net(lambda n: S.TrigPoly.dirichlet(2 * n), NMAX), ws, "roumieu", "moderate")
        assert calls == []
        A.coef_classify(net, ws, "roumieu", "moderate", h_grid=(0.5, 3.0))
        assert calls == [([2 * NMAX * 3.0], 2 * NMAX + 1)]
        calls.clear()
        A.coef_classify(A.make_net(lambda n: S.TrigPoly.dirichlet(3 * n), NMAX), ws, "beurling", "moderate")
        assert calls == [([3 * NMAX * h for h in h_grid], NMAX)]  # the columns 2 NMAX + 1..3 NMAX alone

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    @pytest.mark.parametrize("seed", range(3))
    def test_coef_tables_equal_per_n_seminorms(self, ws_p1, ws_p2, seed):
        """The folded, padded tensor gives each log_coef_seminorms value bit for bit."""
        rng = np.random.default_rng(seed)
        members = []
        for n in range(NMAX + 1):
            d = int(rng.integers(0, 40))
            coef = rng.normal(size=2 * d + 1) * np.exp(1j * rng.uniform(0, TWO_PI, 2 * d + 1))
            coef *= np.exp(rng.uniform(-30, 30, 2 * d + 1))  # |c_k| != |c_-k|
            coef[rng.random(2 * d + 1) < 0.3] = 0.0
            members.append(S.TrigPoly(coef, d))
        members[3] = S.TrigPoly.zero(7)  # a zero member of positive degree
        members[4] = S.TrigPoly.const(2.5)  # degree 0
        members[5] = S.TrigPoly.zero()
        members[6] = S.TrigPoly.basis(-11, 3.0)  # one-sided support
        members[7] = S.TrigPoly.basis(23, 1e-200)
        table = W.build_weight_sequence(
            {"kind": "table", "logM": 1.5 * gammaln(np.arange(41) + 1.0)}, p_max=40
        )
        for ws in (ws_p1, ws_p2, table):
            net = A.make_net(lambda n: members[n], NMAX)
            for hs in (V.DEFAULTS.h_grid, battery.WIDE_H, (0.1, 16.0, 2.0)):
                got = np.array(A._coef_tables(net, ws, hs))
                want = np.array([S.log_coef_seminorms(f, ws, hs) for f in members]).T
                assert got.tobytes() == want.tobytes()

    def test_rj_table_builds_its_scale_once(self, ws_p1, monkeypatch):
        built = []

        def modified(ws, rs):
            built.append(rs.label)
            return W.modified_weights(ws, rs)

        monkeypatch.setattr(A, "modified_weights", modified)
        rows = count_rows(monkeypatch)
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        A.classify_moderate(net, ws_p1, "roumieu")
        before, rows[:] = row_tables(net), []
        r = W.linear_rsequence(256)
        s = W.build_rsequence(np.maximum(1.0, np.arange(0, 257) / 16.0), label="slow")
        A.roumieu_rj_classify(net, ws_p1, [(r, s)], "moderate")
        # once for the r table, once for the s gauge
        assert sorted(built) == sorted([r.label, s.label])
        # the r table reads the gevrey:1 rows and evaluates only rows past them
        assert sum(rows) == evaluated_since(before, net)


class TestGridRows:
    """Classifier tables reduce grid rows only: each is evaluated once and none is refined."""

    @pytest.mark.parametrize("i", [3, 8])
    def test_each_row_evaluated_once(self, ws_p1, monkeypatch, i):
        evaluated = []
        inner = S._log_sup_rows

        def recording(coef, ps, *args):
            evaluated.append(ps.tolist())
            return inner(coef, ps, *args)

        monkeypatch.setattr(S, "_log_sup_rows", recording)
        r, s = W.linear_rsequence(256), W.build_rsequence(np.maximum(1.0, np.arange(257) / 16.0))
        net = battery.full_battery(ws_p1, NMAX)[i][0]
        mod = A.classify_moderate(net, ws_p1, "beurling")
        steps = [
            lambda: A.classify_negligible(net, ws_p1, "roumieu"),
            lambda: R.classify_regular(net, ws_p1, "beurling", moderate=mod),
            lambda: A.roumieu_rj_classify(net, ws_p1, [(r, s), (s, r)]),
            lambda: A.classify_moderate(net, W.gevrey(2.0, 512), "roumieu"),
            lambda: A.classify_negligible_supnorm(net, ws_p1, "beurling", moderate=mod),
        ]
        for step in steps:
            before, start = row_tables(net), len(evaluated)
            step()
            # every row evaluated is new to the table, so no row is evaluated twice
            assert sum(len(ps) for ps in evaluated[start:]) == evaluated_since(before, net)
        assert sum(len(ps) for ps in evaluated) == len(row_tables(net))

    def test_sup_table_is_row_zero(self, ws_p1, monkeypatch):
        rows = count_rows(monkeypatch)
        refined = []
        inner = S._newton_max_rows

        def spying(*args, **kwargs):
            refined.append(len(args[0]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(S, "_newton_max_rows", spying)
        net = battery.full_battery(ws_p1, NMAX)[8][0]
        mod = A.classify_moderate(net, ws_p1, "roumieu")
        assert sum(rows) > 0
        rows.clear()
        for cls in ("roumieu", "beurling"):
            A.classify_negligible_supnorm(net, ws_p1, cls, moderate=mod)
        assert rows == [] and refined == []
        table = net.derivative_rows()
        keys, values = table.rows
        row_zero = [values[np.searchsorted(keys, n * S._KEY)] for n in range(NMAX + 1)]
        assert all(held(table, n)[0] == 0 for n in range(NMAX + 1))
        assert A._sup_table(net).tolist() == row_zero
        # the public point value is refined by Newton steps
        A.find_witness(net, ws_p1, 8.0)
        assert refined


    @pytest.mark.parametrize("i", [1, 7, 9])
    def test_witness_points_in_one_refinement(self, ws_p1, monkeypatch, i):
        calls = []
        inner = S._newton_max_rows

        def spying(ts, *args):
            calls.append(len(ts))
            return inner(ts, *args)

        monkeypatch.setattr(S, "_newton_max_rows", spying)
        net = battery.full_battery(ws_p1, NMAX)[i][0]
        idx, points = A.find_witness(net, ws_p1, 8.0)
        assert len(idx) > 1 and len(calls) == len(list(net.derivative_rows()._runs(idx))) == 1
        # each point is the argmax that its member alone refines to
        assert points.tolist() == [S.sup_norm_argmax(net.at(n))[1] for n in idx]

class TestMarginBracket:
    """Margins from grid tables carry GRID_SLACK both ways; refined tables land inside."""

    @pytest.mark.parametrize("i", [3, 8])
    def test_refined_margin_lies_in_the_bracket(self, ws_p1, i):
        net = battery.full_battery(ws_p1, NMAX)[i][0]
        h_grid, lam_grid = V.DEFAULTS.h_grid, V.DEFAULTS.lambda_grid
        refined = np.array([S.log_ud_norms(net.at(n), ws_p1, h_grid) for n in range(NMAX + 1)]).T
        log_sup = np.array([math.log(S.sup_norm(net.at(n))) for n in range(NMAX + 1)])
        gauges = [A._gauge_table(ws_p1, lam, NMAX) for lam in lam_grid]
        for cls in ("roumieu", "beurling"):
            mod = A.classify_moderate(net, ws_p1, cls)
            cases = [
                (mod, A._decide_pattern(refined, gauges, "moderate", cls, 0.5, {}, "refined")),
                (A.classify_negligible(net, ws_p1, cls),
                 A._decide_pattern(refined, gauges, "negligible", cls, 0.5, {}, "refined")),
                (A.classify_negligible_supnorm(net, ws_p1, cls, moderate=mod),
                 A._decide_pattern([log_sup], gauges, "negligible", cls, 0.5, {}, "refined")),
            ]
            for grid_v, refined_v in cases:
                lo, hi = grid_v.margin_bracket
                assert hi - lo == pytest.approx(2 * S.GRID_SLACK)
                assert lo <= refined_v.margin <= hi
                assert refined_v.margin_bracket == (refined_v.margin, refined_v.margin)
                assert grid_v.to_json()["margin_bracket"] == [lo, hi]

    def test_bracket_follows_the_method(self, ws_p1):
        net = battery.full_battery(ws_p1, NMAX)[5][0]
        v = A.coef_classify(net, ws_p1, "roumieu", "moderate")
        assert v.margin_bracket == (v.margin, v.margin)
        r = W.linear_rsequence(256)
        v = A.roumieu_rj_classify(net, ws_p1, [(r, r)])
        assert v.margin_bracket == (v.margin - S.GRID_SLACK, v.margin + S.GRID_SLACK)
        # regularity is decided from the full-norm tables and carries their bracket
        v = R.classify_regular(net, ws_p1, "roumieu")
        assert v.margin_bracket == (v.margin - S.GRID_SLACK, v.margin + S.GRID_SLACK)
        assert v.to_json()["margin_bracket"] == list(v.margin_bracket)


class TestSharedRowTable:
    """One D^p row table per f_n serves every scale and h as a fresh net would.

    Each step asks for tables the memo does not hold yet, so the fresh net
    computes (and warns) exactly what the shared one does.
    """

    @staticmethod
    def recorded(step, net):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            v = step(net)
        return json.dumps(v.to_json(), sort_keys=True), repr(v.margin), [
            (w.category, str(w.message)) for w in seen
        ]

    @pytest.mark.parametrize("i", [3, 5, 8])
    def test_scales_in_turn_equal_a_fresh_net(self, ws_p1, i):
        table = W.build_weight_sequence(
            {"kind": "table", "logM": 1.5 * gammaln(np.arange(13) + 1.0)}, p_max=12
        )
        r, s = W.linear_rsequence(256), W.build_rsequence(np.maximum(1.0, np.arange(257) / 16.0))
        steps = [
            lambda net: R.classify_regular(net, ws_p1, "beurling"),
            lambda net: A.classify_moderate(net, W.gevrey(2.0, 512), "roumieu"),
            lambda net: A.classify_moderate(net, table, "roumieu"),  # rows longer than p_max
            lambda net: A.classify_negligible(net, table, "beurling", h_grid=(3.0, 16.0)),
            lambda net: A.roumieu_rj_classify(net, ws_p1, [(r, s), (s, r)]),
        ]
        shared = battery.full_battery(ws_p1, NMAX)[i][0]
        for step in steps:
            fresh = battery.full_battery(ws_p1, NMAX)[i][0]
            assert self.recorded(step, shared) == self.recorded(step, fresh)
        assert max(held(shared.derivative_rows(), n).max(initial=-1) for n in range(NMAX + 1)) > 12

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    def test_memo_hit_raises_the_tables_warnings(self, ws_p1):
        table = W.build_weight_sequence(
            {"kind": "table", "logM": 1.5 * gammaln(np.arange(13) + 1.0)}, p_max=12
        )
        shared, fresh = (battery.full_battery(ws_p1, NMAX)[5][0] for _ in range(2))
        assert shared.label == "dirichlet"
        A.classify_moderate(shared, table, "roumieu")

        def negligible(net):
            return A.classify_negligible(net, table, "beurling")

        memo, new = self.recorded(negligible, shared), self.recorded(negligible, fresh)
        assert memo == new
        ud_warnings = [w for w in memo[2] if "ud norm" in w[1]]
        assert len(ud_warnings) == 89

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    def test_threads_equal_serial(self, ws_p1):
        def make():
            return A.make_net(lambda n: S.TrigPoly.dirichlet(n) * S.TrigPoly.cosine(), NMAX)

        rs = W.linear_rsequence(256)
        tasks = [
            lambda net: R.classify_regular(net, ws_p1, "beurling").to_json(),
            lambda net: A.classify_moderate(net, ws_p1, "roumieu", h_grid=battery.WIDE_H).to_json(),
            lambda net: A.classify_negligible(net, W.gevrey(2.0, 512), "beurling").to_json(),
            lambda net: A.roumieu_rj_classify(net, ws_p1, [(rs, rs)]).to_json(),
            lambda net: A.classify_negligible_supnorm(net, ws_p1, "roumieu").to_json(),
        ]
        serial = [task(make()) for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                net = make()  # every task grows the same row tables
                with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
                    futures = [pool.submit(task, net) for task in tasks]
                    assert [f.result(timeout=300) for f in futures] == serial
        finally:
            sys.setswitchinterval(interval)


class TestScaling:
    """f_n -> c f_n shifts every log norm and coefficient by log|c|: verdicts and margins stay."""

    @staticmethod
    def verdicts(net, ws):
        mod = A.classify_moderate(net, ws, "roumieu")
        return [
            mod,
            A.classify_moderate(net, ws, "beurling"),
            *(A.classify_negligible(net, ws, cls) for cls in ("roumieu", "beurling")),
            A.classify_negligible_supnorm(net, ws, "roumieu", moderate=mod),
            *(
                A.coef_classify(net, ws, cls, mode)
                for cls in ("roumieu", "beurling")
                for mode in ("moderate", "negligible")
            ),
        ]

    @pytest.fixture(scope="class")
    def unscaled(self, nets, ws_p1):
        return [self.verdicts(net, ws_p1) for net, _ in nets]

    @settings(max_examples=6, deadline=None)
    @example(log10_c=-6.0, angle=0.0)
    @example(log10_c=6.0, angle=math.pi)
    @given(log10_c=st.floats(-6.0, 6.0), angle=st.floats(0.0, TWO_PI))
    def test_scaled_battery_keeps_verdicts(self, nets, ws_p1, unscaled, log10_c, angle):
        c = 10.0**log10_c * complex(math.cos(angle), math.sin(angle))
        for (net, _), want in zip(nets, unscaled):
            for got, v in zip(self.verdicts(A.net_scale(net, c), ws_p1), want):
                assert got.bounded == v.bounded, (net.label, v.method, c)
                tol = 1e-9 * max(1.0, abs(v.margin))
                assert got.margin == v.margin or abs(got.margin - v.margin) <= tol, (net.label, v.method, c)


class TestNegligibleSum:
    """The negligible nets form an ideal of the moderate ones: adding one keeps a moderate verdict."""

    @pytest.mark.parametrize("cls", ["roumieu", "beurling"])
    def test_adding_a_negligible_net_keeps_moderate(self, nets, ws_p1, cls):
        negligible = [net for net, is_negligible in nets if is_negligible]
        for net, _ in nets:
            want = A.classify_moderate(net, ws_p1, cls).bounded
            for z in negligible:
                # only the boolean: the margin of the zero net moves from -inf
                assert A.classify_moderate(net + z, ws_p1, cls).bounded == want, (net.label, z.label)


class TestNonFiniteGrids:
    """An inf or nan in a grid or tau raises; before, h = inf gave bounded=True with margin -inf."""

    @pytest.mark.parametrize("classify", [A.classify_moderate, A.classify_negligible])
    @pytest.mark.parametrize(
        "kw", [{"h_grid": [math.inf]}, {"lam_grid": [1.0, math.nan]}, {"tau": math.nan}, {"tau": math.inf}]
    )
    def test_dirichlet_net_rejects(self, ws_p1, classify, kw):
        net = A.make_net(S.TrigPoly.dirichlet, 8)
        with pytest.raises(ValueError):
            classify(net, ws_p1, "roumieu", **kw)

    @pytest.mark.parametrize("classify", [A.classify_moderate, A.classify_negligible, A.coef_classify])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficient_rejects(self, ws_p1, classify, bad):
        # checked once per net: the D^p row table and the stacked coefficient fold each raise
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n) + S.TrigPoly.basis(n % 3, bad), 8)
        with pytest.raises(ValueError, match="not finite"):
            classify(net, ws_p1, "roumieu")


def per_member_coef_tables(net, ws, hs):
    """Reference for A._coef_tables: each member folded on its own, padded with -inf to the
    net's largest degree, then the same gauge call and blocked row maxima."""
    polys = [net.at(n) for n in range(net.n_max + 1)]
    logc = np.full((len(polys), 1 + max(f.degree for f in polys)), -np.inf)
    for row, f in zip(logc, polys):
        c = S.log_abs(f.coef)
        row[: f.degree + 1] = np.maximum(c[f.degree :], c[f.degree :: -1])
    gauges = A._gauge_table(ws, [float(h) for h in hs], logc.shape[1] - 1)
    step = max(1, (1 << 16) // gauges.size)
    blocks = [np.max(logc[i : i + step] + gauges[:, None], axis=2) for i in range(0, len(logc), step)]
    return np.concatenate(blocks, axis=1)


_MEMBER_KINDS = ("dense", "zero", "left", "right", "const")


@st.composite
def coef_members(draw):
    """Members of mixed degrees: dense, zero, supported on k <= 0 or k >= 0 only, or of degree 0.
    Magnitudes span e^-30..e^30 and about 30% of the c_k are 0, so |c_k| != |c_-k| almost always."""
    kinds = draw(st.lists(st.sampled_from(_MEMBER_KINDS), min_size=9, max_size=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in kinds:
        d = 0 if kind == "const" else int(rng.integers(1, 24))
        coef = np.exp(rng.uniform(-30.0, 30.0, 2 * d + 1) + 1j * rng.uniform(0.0, TWO_PI, 2 * d + 1))
        coef[rng.random(2 * d + 1) < 0.3] = 0.0
        if kind == "zero":
            coef[:] = 0.0
        elif kind == "left":
            coef[d + 1 :] = 0.0
        elif kind == "right":
            coef[:d] = 0.0
        members.append(S.TrigPoly(coef, d))
    return members


# a table scale that truncates: its gauges warn past p = 12
_TABLE_P12 = W.build_weight_sequence({"kind": "table", "logM": 1.5 * gammaln(np.arange(13) + 1.0)}, p_max=12)


class TestStackedFold:
    """_coef_tables folds one log_abs of the whole stacked net, with the per-member fold's bits."""

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    @settings(max_examples=25, deadline=None)
    @example(members=[S.TrigPoly.zero(3)] * 9)
    @example(members=[S.TrigPoly.const(2.5)] * 4 + [S.TrigPoly.zero()] * 5)
    @example(members=[S.TrigPoly.basis(-k, 1e-200) for k in range(9)])
    @given(members=coef_members())
    def test_equals_the_per_member_fold(self, ws_p1, ws_p2, members):
        for ws in (ws_p1, ws_p2, _TABLE_P12):
            for hs in (V.DEFAULTS.h_grid, battery.WIDE_H):
                net = A.make_net(lambda n: members[n], len(members) - 1)
                got = np.array(A._coef_tables(net, ws, hs))
                assert got.tobytes() == per_member_coef_tables(net, ws, hs).tobytes()

    def test_one_log_abs_per_fill(self, ws_p1, monkeypatch):
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return S.log_abs(x)

        monkeypatch.setattr(A, "log_abs", spy)
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        A._coef_tables(net, ws_p1, V.DEFAULTS.h_grid)
        assert shapes == [(NMAX + 1, 2 * NMAX + 1)]  # the whole stack, at once
        A._coef_tables(net, ws_p1, V.DEFAULTS.h_grid)  # a memo hit folds nothing
        A._coef_tables(net, ws_p1, (0.1, 1.0))  # one missing lambda: one more fill
        assert shapes == [(NMAX + 1, 2 * NMAX + 1)] * 2


def reflected(net):
    """The net of f_n(-t): c_k -> c_{-k} in every member."""
    return net.map(lambda f: S.TrigPoly(f.coef[::-1], f.degree), label=f"reflect({net.label})")


class TestReflection:
    """Reflection c_k -> c_{-k} maps the grid to itself and keeps every |c_k| pair: verdicts stay,
    margins agree within 1e-12 (the FFT rounds differently), coefficient margins bit for bit."""

    def test_reflected_battery_keeps_verdicts(self, nets, ws_p1):
        for net, _ in nets:
            mirror = reflected(net)
            for got, want in zip(TestScaling.verdicts(mirror, ws_p1), TestScaling.verdicts(net, ws_p1)):
                assert got.method == want.method and got.bounded == want.bounded, (net.label, want.method)
                if want.method == "coefficient":
                    assert np.float64(got.margin).tobytes() == np.float64(want.margin).tobytes(), net.label
                else:
                    assert got.margin == want.margin or abs(got.margin - want.margin) <= 1e-12, (
                        net.label, want.method, got.margin - want.margin,
                    )


class TestSmallerH:
    """The Roumieu moderate pattern is forall lambda exists h: more h values can only lower the margin,
    so adding h = 1/16 and 1/64 never turns a moderate verdict false."""

    def test_margin_never_rises(self, nets, ws_p1):
        mol = E.build_mollifier("dirichlet")
        growing = E.embed(S.exp_growth(1.0, ws_p1, "roumieu"), mol, NMAX)
        finer = tuple(sorted(set(V.DEFAULTS.h_grid) | {1 / 16, 1 / 64}))
        for net in [net for net, _ in nets] + [growing]:
            coarse = A.classify_moderate(net, ws_p1, "roumieu")
            fine = A.classify_moderate(net, ws_p1, "roumieu", h_grid=finer)
            assert fine.margin <= coarse.margin, (net.label, fine.margin, coarse.margin)
            assert fine.bounded or not coarse.bounded, net.label
