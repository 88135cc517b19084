import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from periodic_gfa import algebra as A
from periodic_gfa import battery
from periodic_gfa import operators as O
from periodic_gfa import series as S
from periodic_gfa import weights as W

NMAX = 32


def mp_even_series(L, s, x, terms=400):
    """High-precision oracle for sum_p (L x)^{2p} / ((2p)!)^s."""
    with mp.workdps(60):
        tot = mp.mpf(0)
        Lx = mp.mpf(L) * mp.mpf(x)
        for p in range(terms):
            tot += Lx ** (2 * p) / mp.factorial(2 * p) ** s
        return float(mp.log(tot))


class TestBuild:
    def test_finite_polynomial_any_class(self, ws_p2):
        for cls in ("beurling", "roumieu"):
            P = O.build_ultrapolynomial([0, 0, 1], ws_p2, cls)
            assert P.form == "table" and P.degree == 2

    def test_equality_case(self, ws_p1):
        coef = np.exp(-gammaln(np.arange(0, 21) + 1.0))  # a_n = 1/n!
        P = O.build_ultrapolynomial({"a": coef, "C": 1.0, "L": 1.0}, ws_p1, "beurling")
        assert P.cert["C"] == 1.0

    @pytest.mark.parametrize("cls", ["beurling", "roumieu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coefficient_not_finite_raises(self, ws_p1, cls, bad):
        # a NaN coefficient was certified with C(L) = 0 for every L and applied as NaN multipliers
        with pytest.raises(ValueError, match="^a coefficient is not finite$"):
            O.build_ultrapolynomial([1.0, bad], ws_p1, cls)

    def test_declared_bound_violated(self, ws_p1):
        with pytest.raises(O.ClassFail):
            O.build_ultrapolynomial({"a": [1.0, 5.0], "C": 1.0, "L": 1.0}, ws_p1, "beurling")

    def test_structure_beurling_coefficients(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        assert P.cert["L"] == 1.0 * ws_p2.H**2 and P.cert["C"] == 1.0
        # a_{2p} = (lambda H^2)^{2p} / M_{2p} meets the bound with equality
        for p in (0, 1, 3):
            a2p = (1.0 * ws_p2.H**2) ** (2 * p) * math.exp(-float(ws_p2.logM_at(2 * p)))
            bound = P.cert["C"] * P.cert["L"] ** (2 * p) * math.exp(-float(ws_p2.logM_at(2 * p)))
            assert a2p == pytest.approx(bound, rel=1e-12)

    def test_structure_class_mismatch(self, ws_p2):
        with pytest.raises(O.ClassFail):
            O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "roumieu")

    def test_structure_roumieu_certified(self, ws_p1):
        rs = W.linear_rsequence(512)
        P = O.build_ultrapolynomial({"form": "structure_roumieu", "r": rs, "k": rs}, ws_p1, "roumieu")
        assert set(P.cert["C_of_L"]) == {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}


class TestEval:
    def test_structure_at_zero(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        assert O.eval_ultrapoly(P, 0.0) == pytest.approx(1.0)

    def test_square(self, ws_p2):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p2, "beurling")
        assert O.eval_ultrapoly(P, 3.0) == pytest.approx(9.0)

    @pytest.mark.parametrize("x", [0.5, 5.0, 40.0])
    def test_structure_matches_mpmath(self, ws_p2, x):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        got = float(O.log_eval_ultrapoly(P, x)[0])
        want = mp_even_series(1.0 * ws_p2.H**2, 2.0, x)
        assert got == pytest.approx(want, abs=1e-10)

    def test_structure_roumieu_matches_mpmath(self, ws_p1):
        rs = W.linear_rsequence(512)
        P = O.build_ultrapolynomial({"form": "structure_roumieu", "r": rs, "k": rs}, ws_p1, "roumieu")
        with mp.workdps(60):
            tot = mp.mpf(0)
            base = mp.mpf(2 * ws_p1.H * 7.0)
            for p in range(200):
                tot += base ** (2 * p) / (mp.factorial(2 * p + 1) * mp.factorial(2 * p))
            want = 2 * float(mp.log(tot))
        got = float(O.log_eval_ultrapoly(P, 7.0)[0])
        assert got == pytest.approx(want, abs=1e-10)

    def test_even_series_past_its_first_block(self, ws_p1):
        # at x = 200 the terms peak at 2p = 400 and about 240 of them matter
        x, logL = 200.0, math.log(ws_p1.H**2)
        two_p = np.arange(0, 4000, 2)
        terms = two_p * (logL + math.log(x)) - ws_p1.logM_at(two_p)
        assert np.argmax(terms) > 2 * 64
        got = O._log_even_series(ws_p1, logL, np.array([0.0, x]), None)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(logsumexp(terms), rel=1e-14)

    def test_lower_bound_at_x(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        logp = float(O.log_eval_ultrapoly(P, 5.0)[0])
        assert logp >= 2 * float(W.associated_gauge(ws_p2, 5.0))

    def test_no_converge_on_short_table(self):
        logM = gammaln(np.arange(0, 17) + 1.0)
        ws = W.build_weight_sequence({"kind": "table", "logM": logM, "A": 1, "H": 2})
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws, "beurling")
        with pytest.raises(O.NoConverge):
            O.log_eval_ultrapoly(P, 50.0)


class TestApply:
    def test_square_on_sine(self, ws_p1):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling")
        out = O.apply_operator(P, S.TrigPoly.sine())
        assert np.allclose(out.coef, S.TrigPoly.sine().coef)

    def test_exponential_symbol(self, ws_p1):
        coef = np.exp(-gammaln(np.arange(0, 26) + 1.0))
        P = O.build_ultrapolynomial({"a": coef, "C": 1.0, "L": 1.0}, ws_p1, "beurling")
        for k in (1, 2, 4):
            out = O.apply_operator(P, S.TrigPoly.basis(k))
            assert out.coefficient(k) == pytest.approx(math.exp(k), rel=1e-9)

    def test_zero(self, ws_p1):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling")
        out = O.apply_operator(P, S.TrigPoly.zero(4))
        assert np.max(np.abs(out.coef)) == 0.0

    def test_net_application(self, ws_p1):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling")
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), 16)
        out = O.apply_operator(P, net)
        assert out.at(3).coefficient(2) == pytest.approx(4 / (2 * math.pi))

    def test_multiplier_identity_battery(self, ws_p1, ws_p2, rng):
        ops = [
            O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling"),
            O.build_ultrapolynomial(
                {"a": np.exp(-gammaln(np.arange(0, 21) + 1.0))}, ws_p1, "beurling"
            ),
            O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling"),
        ]
        dists = [S.delta(), S.cot_reg(), S.exp_decay(1.0)]
        ks = np.arange(-32, 33)
        for P in ops:
            pk = O.multiplier_values(P, ks)
            for d in dists:
                got = O.apply_operator(P, d).coefficients(ks)
                want = pk * d.coefficients(ks)
                assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))

    def test_closed_form_products_in_log_scale(self):
        # log P(k) passes 706 from |k| = 177, where P(k) reads inf; P(k) c_k is finite through
        # |k| = 178, and past it inf in the real part and 0 in the imaginary one (the phase of delta)
        ws = W.gevrey(1.0, 2048)
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws, "beurling")
        ks = np.arange(-400, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = O.apply_operator(P, S.delta()).coefficients(ks)
        near, fits = np.abs(ks) <= 176, np.abs(ks) <= 178
        want = O.multiplier_values(P, ks[near]) * S.delta().coefficients(ks[near])
        assert got[near].tobytes() == want.tobytes()
        assert np.isfinite(got[fits]).all()
        assert np.all(got.real[~fits] == np.inf) and np.all(got.imag == 0.0)

    def test_far_products_keep_exact_zeros(self):
        # past the far threshold each part of z is scaled by itself, so a part that is 0 stays 0
        # (a phase taken as exp(1j * angle(z)) leaves a rounding residue there, which overflows)
        ws = W.gevrey(1.0, 2048)
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws, "beurling")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_axis = O.apply_operator(P, S.cot_reg()).coefficients([-400])
            negative = O._times_exp(np.array([-2.0 + 0j]), np.array([710.0]))
        assert on_axis.real[0] == 0.0 and on_axis.imag[0] == np.inf
        assert negative.real[0] == -np.inf and negative.imag[0] == 0.0

    def test_near_products_overflow_without_warning(self):
        # the near branch z e^{logs} overflows where |z| is large although logs stays in range:
        # log|c_k| = 76 and log P(k) = 635 at |k| = 159
        ws = W.gevrey(1.0, 2048)
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws, "beurling")
        f = S.exp_growth(0.5, ws, "beurling")
        ks = np.arange(-400, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = O.apply_operator(P, f).coefficients(ks)
        logs, z = O.log_eval_ultrapoly(P, ks), f.coefficients(ks)
        near = np.abs(logs) <= O._LOG_HUGE
        with np.errstate(over="ignore"):
            assert got[near].tobytes() == (z[near] * np.exp(logs[near])).tobytes()
        infinite = np.isinf(got.real) | np.isinf(got.imag)
        assert np.count_nonzero(np.isinf(got.real)) + np.count_nonzero(np.isinf(got.imag)) == 484
        assert np.abs(ks[infinite]).min() == 159 and np.all(infinite[np.abs(ks) >= 159])

    def test_class_closure_polynomial(self, ws_p1):
        P = O.build_ultrapolynomial([1, 0, 1], ws_p1, "roumieu")
        net = A.make_net(lambda n: S.TrigPoly.dirichlet(n), NMAX)
        out = O.apply_operator(P, net)
        assert A.classify_moderate(out, ws_p1, "roumieu", h_grid=battery.WIDE_H).bounded

    def test_class_closure_structure(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 0.25}, ws_p2, "beurling")
        net = A.make_net(lambda n: S.TrigPoly.sine().scaled(math.exp(-n)), NMAX)
        out = O.apply_operator(P, net)
        assert A.classify_moderate(out, ws_p2, "beurling").bounded


class TestShift:
    def test_binomial(self, ws_p1):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p1, "beurling")
        sh = O.shifted_operator(P, 1)
        assert np.allclose(sh.coef, [1, 2, 1])

    def test_zero_shift(self, ws_p1):
        P = O.build_ultrapolynomial([3, 1, 2], ws_p1, "beurling")
        assert np.allclose(O.shifted_operator(P, 0).coef, P.coef)

    def test_leibniz_identity(self, ws_p1, rng):
        from periodic_gfa.embedding import modulate

        for _ in range(6):
            deg_p = int(rng.integers(1, 5))
            P = O.build_ultrapolynomial(
                rng.standard_normal(deg_p + 1) + 1j * rng.standard_normal(deg_p + 1),
                ws_p1,
                "roumieu",
            )
            fdeg = int(rng.integers(0, 7))
            f = S.TrigPoly(
                rng.standard_normal(2 * fdeg + 1) + 1j * rng.standard_normal(2 * fdeg + 1), fdeg
            )
            k = int(rng.integers(-8, 9))
            lhs = O.apply_operator(P, modulate(f, k))
            rhs = modulate(O.apply_operator(O.shifted_operator(P, k), f), k)
            assert np.allclose(lhs.coefficient(rhs.support()), rhs.coef, atol=1e-10)

    def test_structure_refuses_table_shift(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        with pytest.raises(ValueError):
            O.shifted_operator(P, 1)


class TestLowerBound:
    def test_structure_passes(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        rep = O.lower_bound_check(P, ws_p2, 1.0, np.geomspace(1.0, 100.0, 25))
        assert rep.passed and rep.c_prime > 0

    def test_polynomial_fails(self, ws_p2):
        P = O.build_ultrapolynomial([0, 0, 1], ws_p2, "beurling")
        rep = O.lower_bound_check(P, ws_p2, 1.0, np.geomspace(1.0, 100.0, 25))
        assert not rep.passed

    def test_origin_caps_cprime(self, ws_p2):
        P = O.build_ultrapolynomial({"form": "structure_beurling", "lambda": 1.0}, ws_p2, "beurling")
        rep = O.lower_bound_check(P, ws_p2, 1.0, np.geomspace(1e-6, 100.0, 30))
        # at x -> 0 the reference is 1, so C' <= P(0) = 1 up to grid effects
        assert rep.c_prime <= O.eval_ultrapoly(P, 1e-6) + 1e-9


class TestFactorize:
    def test_beurling_instance(self, ws_p2):
        c = S.exp_growth(1.0, ws_p2, "beurling")
        fact = O.structure_factorize(c, ws_p2, "beurling", lam=1.0, k_max=200)
        assert fact.reconstruction_residual <= 1e-12
        assert fact.g_inclass.bounded
        assert fact.lower_bound.passed and fact.lower_bound.c_prime > 0

    def test_beurling_past_double_range(self):
        # log P(k) reaches 799 at k = 200: e^{-log P} underflows there and e^{log P} overflows
        ws = W.gevrey(1.0, 2048)
        c = S.exp_growth(0.5, ws, "beurling").scaled(1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fact = O.structure_factorize(c, ws, "beurling", lam=1.0, k_max=200)
        ks = np.arange(-200, 201)
        logP = O.log_eval_ultrapoly(fact.P, ks)
        g = fact.g.coefficients(ks)
        assert logP.max() > 745 and fact.reconstruction_residual <= 1e-12
        assert np.all(np.abs(g) > 0) and np.allclose(np.angle(g), math.pi / 2)
        # inside double range g is c e^{-log P}, evaluated as before
        near = logP <= 706
        assert np.array_equal(g[near], c.coefficients(ks[near]) * np.exp(-logP[near]))

    def test_delta_instance(self, ws_p2):
        fact = O.structure_factorize(S.delta(), ws_p2, "beurling", lam=1.0, k_max=128)
        assert fact.g_inclass.bounded
        ks = np.arange(1, 129)
        g = np.abs(fact.g.coefficients(ks))
        gauge = np.asarray(W.associated_gauge(ws_p2, ks.astype(float)))
        # away from the origin, P(k) >= C' e^{2M(k)} with C' ~ 200 makes
        # g decay strictly below e^{-M(k)}
        assert np.all(g <= np.exp(-gauge))

    def test_zero_distribution(self, ws_p2):
        zero = S.from_trigpoly(S.TrigPoly.zero(), label="0")
        fact = O.structure_factorize(zero, ws_p2, "beurling", lam=1.0, k_max=64)
        assert fact.reconstruction_residual == 0.0
        assert np.max(np.abs(fact.g.coefficients(np.arange(-16, 17)))) == 0.0

    def test_growth_fail(self, ws_p2):
        bad = S.CoefDistribution(
            oracle=lambda ks: np.exp(np.abs(np.asarray(ks, dtype=float))).astype(complex),
            tag="table",
            cls="beurling",
            growth_lambda=1.0,
            label="e^|k|",
        )
        with pytest.raises(O.GrowthFail):
            O.structure_factorize(bad, ws_p2, "beurling", lam=1.0, k_max=128)

    def test_relation_fail(self, ws_p2):
        c = S.exp_growth(1.0, ws_p2, "beurling")
        with pytest.raises(O.RelationFail):
            O.structure_factorize(c, ws_p2, "beurling", lam=1.0, target=ws_p2, k_max=64)

    def test_target_certification(self, ws_p2):
        c = S.exp_growth(1.0, ws_p2, "beurling")
        target = W.gevrey(3.0, 512)
        fact = O.structure_factorize(c, ws_p2, "beurling", lam=1.0, target=target, k_max=128)
        assert fact.g_target is not None and fact.g_target.bounded

    def test_roumieu_instance(self, ws_p1):
        fact = O.structure_factorize(S.cot_reg(), ws_p1, "roumieu", k_max=128)
        assert fact.reconstruction_residual <= 1e-12
        assert fact.P.form == "structure_roumieu"
        assert fact.g_inclass.bounded
        assert fact.lower_bound.passed

    @pytest.mark.parametrize("cls, calls", [("beurling", 2), ("roumieu", 4)])
    def test_one_log_table_per_factorization(self, ws_p1, monkeypatch, cls, calls):
        # one even-series sum per factor for log P on ks and one for the lower bound's grid;
        # the reconstruction reads the same log P table and does not call g's oracle
        seen = []
        real = O._log_even_series

        def spy(*args):
            seen.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(O, "_log_even_series", spy)
        c = S.delta() if cls == "beurling" else S.cot_reg()
        fact = O.structure_factorize(c, ws_p1, cls, k_max=128)
        assert fact.reconstruction_residual <= 1e-12 and fact.g_inclass.bounded
        assert len(seen) == calls and seen.count(257) == calls // 2

    @pytest.mark.parametrize(
        "dist, cls, k_max",
        [("exp_growth", "beurling", 200), ("cot_reg", "roumieu", 128)],
    )
    def test_g_oracle_divides_by_log_p(self, ws_p1, dist, cls, k_max):
        # the residual no longer reads g's oracle, so check the oracle here: c e^{-log P}, to the byte
        c = S.exp_growth(0.5, ws_p1, cls) if dist == "exp_growth" else S.cot_reg()
        fact = O.structure_factorize(c, ws_p1, cls, k_max=k_max)
        ks = np.arange(-k_max, k_max + 1)
        logP = O.log_eval_ultrapoly(fact.P, ks)
        want = O._times_exp(c.coefficients(ks), -logP)
        assert fact.g.coefficients(ks).tobytes() == want.tobytes()
        assert dist != "exp_growth" or logP.max() > 745

    @pytest.mark.parametrize("cls", ["beurling", "roumieu"])
    def test_window_bounds(self, ws_p1, cls):
        with pytest.raises(ValueError, match="k_max must be at least 0"):
            O.structure_factorize(S.delta(), ws_p1, cls, k_max=-1)
        fact = O.structure_factorize(S.delta(), ws_p1, cls, k_max=0)
        assert fact.reconstruction_residual == 0.0 and fact.g_inclass.bounded
