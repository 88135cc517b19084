import math
from dataclasses import replace

import numpy as np
import pytest

from periodic_gfa import algebra as A
from periodic_gfa import battery
from periodic_gfa import embedding as E
from periodic_gfa import regularity as R
from periodic_gfa import series as S
from periodic_gfa import verdict as V
from periodic_gfa import weights as W
from periodic_gfa.verdict import DEFAULTS

NMAX = 32


@pytest.fixture(scope="module")
def mol():
    return E.build_mollifier("dirichlet")


class TestClassifyRegular:
    def test_embedded_smooth_class_regular(self, ws_p1, mol):
        net = E.embed(S.exp_decay(1.0), mol, NMAX)
        v = R.classify_regular(net, ws_p1, "roumieu")
        assert v.regular and "h" in v.witness

    def test_embedded_delta_not_regular(self, ws_p1, mol):
        net = E.embed(S.delta(), mol, NMAX)
        v = R.classify_regular(net, ws_p1, "roumieu")
        assert not v.regular

    def test_constant_net_regular(self, ws_p1):
        net = A.constant_net(S.TrigPoly.sine(), NMAX)
        assert R.classify_regular(net, ws_p1, "roumieu").regular
        assert R.classify_regular(net, ws_p1, "beurling").regular

    def test_requires_moderate(self, ws_p1):
        net = A.make_net(
            lambda n: S.TrigPoly.dirichlet(n).scaled(
                math.exp(float(W.associated_gauge(ws_p1, 8.0 * n)))
            ),
            NMAX,
        )
        with pytest.raises(A.HypothesisFail):
            R.classify_regular(net, ws_p1, "beurling")

    def test_regular_implies_moderate(self, ws_p1, mol):
        v = R.classify_regular(E.embed(S.exp_decay(1.0), mol, NMAX), ws_p1, "roumieu")
        assert v.moderate.bounded


class TestCoefficientDecay:
    def test_exp_decay_member(self, ws_p1):
        v = R.coefficient_decay_class(S.exp_decay(1.0), ws_p1, "roumieu")
        assert v.bounded and v.grid["pattern"] == "exists mu"

    def test_delta_not_member(self, ws_p1):
        assert not R.coefficient_decay_class(S.delta(), ws_p1, "roumieu").bounded

    def test_delta_names_its_escape_frequency(self, ws_p1):
        # the witness is the frequency |k| where the decisive profile escapes
        v = R.coefficient_decay_class(S.delta(), ws_p1, "roumieu")
        assert type(v.witness_n) is int and 0 <= v.witness_n <= DEFAULTS.k_max
        assert v.to_json()["witness_n"] == v.witness_n

    def test_zero_member(self, ws_p1):
        zero = S.from_trigpoly(S.TrigPoly.zero(), label="0")
        assert R.coefficient_decay_class(zero, ws_p1, "roumieu").bounded

    def test_beurling_needs_all_rates(self, ws_p1):
        # geometric decay beats some but not every gauge rate for p!
        assert R.coefficient_decay_class(S.exp_decay(1.0), ws_p1, "roumieu").bounded
        assert not R.coefficient_decay_class(S.exp_decay(1.0), ws_p1, "beurling").bounded


class TestEmbeddingResidual:
    def test_cot_reg(self, ws_p1, mol):
        rep = R.check_embedding_residual(S.cot_reg(), mol, ws_p1, n_max=NMAX)
        assert rep.passed and rep.best_lambda is not None
        assert rep.fitted_constant <= rep.reference_constant * 10

    def test_exp_growth(self, ws_p1, mol):
        rep = R.check_embedding_residual(S.exp_growth(1.0, ws_p1, "beurling"), mol, ws_p1, n_max=NMAX)
        assert rep.passed

    def test_band_limited_residual_vanishes(self, mol):
        f = S.from_trigpoly(S.TrigPoly.sine(), label="sin")
        ks = np.arange(-16, 17)
        for n in range(1, 8):
            resid = f.coefficients(ks) * (1 - 2 * math.pi * mol.coefficients(ks, n))
            assert np.max(np.abs(resid)) == 0.0

    def test_fails_below_the_growth_rate(self, ws_p1, mol):
        # coefficients e^{M(8k)} leave a residual no rate 1/4 can bound
        f = S.exp_growth(8.0, ws_p1, "beurling")
        rep = R.check_embedding_residual(f, mol, ws_p1, lam_grid=[0.25], n_max=NMAX)
        assert not rep.passed and rep.best_lambda is None and rep.margin > DEFAULTS.tau
        assert rep.to_json() == {
            "passed": False,
            "best_lambda": None,
            "margin": rep.margin,
            "fitted_constant": "inf",
            "reference_constant": "inf",
            "per_lambda_margins": {"0.25": rep.margin},
            "desk_scale": True,
        }

    def test_requires_unit_plateau_rate(self, ws_p1):
        wide = E.build_mollifier("cutoff", r=2.0, R=4.0)
        with pytest.raises(E.MollifierFail):
            R.check_embedding_residual(S.cot_reg(), wide, ws_p1)


def embedding_residual_per_n(f, m, ws, n_max, k_max=1024, tau=DEFAULTS.tau):
    """check_embedding_residual with one mollifier read per n (the reference)."""
    lam_grid = DEFAULTS.lambda_grid
    ks = np.arange(-k_max, k_max + 1)
    fvals = f.coefficients(ks)
    lams = np.asarray(lam_grid, dtype=float)
    dual = S.gauge_profiles(ks, 0.0, ws, ws.H * lams, -1.0)
    sups = np.array([
        np.max(S.log_abs(fvals * (1.0 - 2.0 * math.pi * m.coefficients(ks, n))) + dual, axis=1)
        for n in range(n_max + 1)
    ]).T
    profiles = S.gauge_profiles(np.arange(n_max + 1), sups, ws, lams, 1.0)
    v = V.decide([profiles], "forall", "exists", tau, None, "residual")
    best, fitted, reference = None, math.inf, math.inf
    if v.bounded:
        j = v.details["decisive_inner"]
        best = lam_grid[j]
        finite = profiles[j][np.isfinite(profiles[j])]
        fitted = math.exp(float(np.max(finite))) if finite.size else 0.0
        logK = S.log_coef_seminorm(f, ws, best, sign="minus", k_max=k_max)
        reference = ws.A * (1.0 + 2.0 * math.pi * m.C_bound) * math.exp(logK)
    return R.ResidualBoundReport(
        passed=v.bounded, best_lambda=best, margin=v.margin, fitted_constant=fitted,
        reference_constant=reference, per_lambda=dict(zip(lam_grid, v.details["margins"][0])),
    )


class TestEmbeddingResidualTable:
    @pytest.mark.parametrize("mollifier", ["dirichlet", "cutoff"])
    def test_report_equals_the_per_n_reference(self, ws_p1, ws_p2, mollifier):
        m = E.build_mollifier(mollifier, **({"r": 1.0, "R": 3.0} if mollifier == "cutoff" else {}))
        for ws in (ws_p1, ws_p2):
            for f in (S.cot_reg(), S.exp_decay(1.0), S.delta(), S.exp_growth(1.0, ws, "beurling")):
                rep = R.check_embedding_residual(f, m, ws, n_max=NMAX)
                # repr shows every bit of every float
                assert repr(rep) == repr(embedding_residual_per_n(f, m, ws, NMAX)), f.label


class TestEquivalence:
    @pytest.mark.parametrize(
        "dist,cls,expect",
        [
            ("exp_decay", "roumieu", True),
            ("delta", "roumieu", False),
            ("sin", "roumieu", True),
            ("cot_reg", "roumieu", False),
            ("exp_growth", "beurling", False),
        ],
    )
    def test_biconditional(self, ws_p1, mol, dist, cls, expect):
        d = {
            "exp_decay": lambda: S.exp_decay(1.0),
            "delta": S.delta,
            "sin": lambda: S.from_trigpoly(S.TrigPoly.sine(), label="sin"),
            "cot_reg": S.cot_reg,
            "exp_growth": lambda: S.exp_growth(1.0, ws_p1, "beurling"),
        }[dist]()
        rep = R.check_regularity_equivalence(d, mol, ws_p1, cls, n_max=NMAX)
        assert rep.consistent
        assert rep.regular.regular == expect
        assert rep.decay.bounded == expect

    def test_envelope_diagnostics_present(self, ws_p1, mol):
        rep = R.check_regularity_equivalence(S.exp_decay(1.0), mol, ws_p1, "roumieu", n_max=16)
        assert len(rep.envelope) == 4
        assert all("log_envelope" in row for row in rep.envelope)


def envelope_per_k(f, ws, reg, n_max):
    """The envelope rows by one pass per k, four associated_gauge calls each (the reference)."""
    h_star = reg.witness.get("h", 1.0)
    lam_star = reg.witness.get("lambda", 1.0)
    l_star = 1.0
    ns = np.arange(1, n_max + 1, dtype=float)
    rows = []
    for k in (4, 8, 16, 32):
        term1 = np.asarray(W.associated_gauge(ws, lam_star * ns)) - float(W.associated_gauge(ws, h_star * k))
        term2 = float(W.associated_gauge(ws, ws.H * l_star * k)) - np.asarray(
            W.associated_gauge(ws, l_star * ns)
        )
        env = float(np.min(np.logaddexp(term1, term2)))
        fk = abs(complex(f.coefficients(np.array([k]))[0]))
        rows.append({"k": float(k), "log_envelope": env,
                     "log_coef": math.log(fk) if fk > 0 else float("-inf")})
    return rows


class TestEnvelope:
    @pytest.mark.parametrize("dist,cls", [("exp_decay", "roumieu"), ("delta", "beurling")])
    def test_rows_equal_the_per_k_reference(self, ws_p1, mol, dist, cls):
        f = S.exp_decay(1.0, cls) if dist == "exp_decay" else S.delta(cls)
        rep = R.check_regularity_equivalence(f, mol, ws_p1, cls, n_max=16)
        # repr shows every bit of every float
        assert repr(rep.envelope) == repr(envelope_per_k(f, ws_p1, rep.regular, 16))

    def test_four_gauge_calls_per_check(self, ws_p1, mol, monkeypatch):
        calls = []

        def spy(ws, t):
            calls.append(np.shape(t))
            return W.associated_gauge(ws, t)

        monkeypatch.setattr(R, "associated_gauge", spy)
        R.check_regularity_equivalence(S.exp_decay(1.0), mol, ws_p1, "roumieu", n_max=16)
        assert sorted(calls) == [(4,), (4,), (16,), (16,)]


class TestInclusions:
    def test_const_embed_outputs_regular(self, ws_p1):
        for f in (S.exp_decay(1.0), S.from_trigpoly(S.TrigPoly.sine(), label="sin")):
            net = E.const_embed(f, NMAX, ws=ws_p1)
            v = R.classify_regular(net, ws_p1, "roumieu")
            assert v.regular and v.moderate.bounded, f.label


class TestGridEntryPoints:
    """Every public grid is defaulted and checked in one place: empty, non-positive or non-finite grids
    raise."""

    @pytest.mark.parametrize(
        "grid",
        [[], [0.0], [-1.0], [math.inf], [1.0, math.nan]],
        ids=["empty", "zero", "negative", "inf", "nan"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda ws, m, g: A.classify_moderate(A.constant_net(S.TrigPoly.sine(), 16), ws, h_grid=g),
            lambda ws, m, g: A.classify_moderate(A.constant_net(S.TrigPoly.sine(), 16), ws, lam_grid=g),
            lambda ws, m, g: R.coefficient_decay_class(S.delta(), ws, mu_grid=g),
            lambda ws, m, g: R.check_regularity_equivalence(S.delta(), m, ws, n_max=16, h_grid=g),
            lambda ws, m, g: R.check_regularity_equivalence(S.delta(), m, ws, n_max=16, lam_grid=g),
            lambda ws, m, g: R.check_embedding_residual(S.delta(), m, ws, lam_grid=g, n_max=16),
            lambda ws, m, g: W.relation(ws, W.gevrey(2.0, 512), h_grid=g),
        ],
        ids=["classify-h", "classify-lambda", "decay-mu", "equivalence-h", "equivalence-lambda",
             "residual-lambda", "relation-h"],
    )
    def test_bad_grid_raises(self, ws_p1, mol, call, grid):
        with pytest.raises(ValueError, match="grids must be nonempty with positive entries"):
            call(ws_p1, mol, grid)


def ladder_classify_regular(net, ws, cls="roumieu", h_grid=None, lam_grid=None, tau=DEFAULTS.tau,
                            moderate=None):
    """classify_regular with its grids picked by a ladder on the class (the reference)."""
    h_grid, lam_grid = V.desk_grid(h_grid, DEFAULTS.h_grid), V.desk_grid(lam_grid, DEFAULTS.lambda_grid)
    if moderate is None:
        moderate = A.classify_moderate(net, ws, cls, h_grid=h_grid, lam_grid=lam_grid, tau=tau)
    if not moderate.bounded:
        raise A.HypothesisFail(f"net {net.label!r} is not desk-moderate; regularity is undefined for it")
    if cls == "beurling":
        h_eff = tuple(sorted(set(h_grid) | {4.0 * max(lam_grid)}))
        lam_eff = lam_grid
    elif cls == "roumieu":
        h_eff = h_grid
        lam_eff = tuple(sorted(set(lam_grid) | {min(h_grid) / 4.0}))
    else:
        raise ValueError("cls must be 'beurling' or 'roumieu'")
    v = A._classify(net, ws, A._ud_tables, "regular", cls, h_eff, lam_eff, tau, "full_norm")
    axis = A.PATTERNS["regular", cls][0]
    rates = lam_eff if axis == "lambda" else h_eff
    inner = "h" if axis == "lambda" else "lambda"
    return R.RegularityVerdict(
        regular=v.bounded,
        pattern=f"exists {axis} forall {inner}",
        margin=v.margin,
        witness={axis: rates[v.details["decisive_outer"]]},
        moderate=moderate,
        margin_bracket=v.margin_bracket,
        tau=tau,
        details={"margins": v.details["margins"]},
    )


def moderate_lambda_grid(ws, m, f, lam_grid, h_grid):
    """The gauge grid widened to H R max(lambda_f, max h), by a helper of its own (the reference)."""
    lam_grid = V.desk_grid(lam_grid, DEFAULTS.lambda_grid)
    h_grid = V.desk_grid(h_grid, DEFAULTS.h_grid)
    extra = ws.H * m.R * max(max(h_grid), f.growth_lambda)
    return tuple(sorted(set(lam_grid) | {extra}))


def outcome(call):
    """repr of a verdict with its details (repr shows every bit of every float), or the error raised."""
    try:
        v = call()
    except (A.HypothesisFail, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(v) + repr(v.details)


CUSTOM = {"h_grid": (0.5, 1.0, 3.0), "lam_grid": (0.3, 1.0, 2.0)}


class TestPatternAxes:
    """classify_regular reads its witness axis from PATTERNS and stretches the other grid one step."""

    @pytest.mark.parametrize("grids", [{}, CUSTOM], ids=["default", "custom"])
    @pytest.mark.parametrize("cls", ["beurling", "roumieu"])
    def test_equals_the_class_ladder(self, ws_p1, cls, grids):
        for net, _ in battery.full_battery(ws_p1, NMAX):
            got = outcome(lambda: R.classify_regular(net, ws_p1, cls, **grids))
            assert got == outcome(lambda: ladder_classify_regular(net, ws_p1, cls, **grids)), net.label

    @pytest.mark.parametrize("grids", [{}, CUSTOM], ids=["default", "explicit"])
    @pytest.mark.parametrize("cls", ["beurling", "roumieu"])
    @pytest.mark.parametrize("mollifier", ["dirichlet", "cutoff"])
    def test_equivalence_widens_lambda_as_the_helper(self, ws_p1, cls, grids, mollifier):
        m = E.build_mollifier(mollifier, **({"r": 1.0, "R": 3.0} if mollifier == "cutoff" else {}))
        for f in (S.exp_decay(1.0, cls), S.delta(cls), S.cot_reg(cls), S.exp_growth(1.0, ws_p1, cls)):
            def reference():
                net = E.embed(f, m, 16)
                wide = moderate_lambda_grid(ws_p1, m, f, grids.get("lam_grid"), grids.get("h_grid"))
                moderate = A.classify_moderate(net, ws_p1, cls, h_grid=grids.get("h_grid"), lam_grid=wide)
                reg = ladder_classify_regular(net, ws_p1, cls, moderate=moderate, **grids)
                decay = R.coefficient_decay_class(f, ws_p1, cls, mu_grid=grids.get("lam_grid"))
                return replace(reg, coefficient_decay=decay)

            got = outcome(lambda: R.check_regularity_equivalence(f, m, ws_p1, cls, n_max=16, **grids).regular)
            assert got == outcome(reference), f.label

    def test_unknown_class_raises(self, ws_p1):
        # each of these read a class other than 'beurling' as Roumieu
        moderate = A.classify_moderate(A.constant_net(S.TrigPoly.sine(), NMAX), ws_p1, "roumieu")
        assert moderate.bounded
        calls = [
            lambda: R.coefficient_decay_class(S.exp_decay(1.0), ws_p1, "beurlin"),
            lambda: E.const_embed(S.exp_decay(1.0, "beurlin"), 16, ws=ws_p1),
            lambda: R.classify_regular(A.constant_net(S.TrigPoly.sine(), NMAX), ws_p1, "beurlin",
                                       moderate=moderate),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^cls must be 'beurling' or 'roumieu'$"):
                call()

    def test_hypothesis_messages(self, ws_p1):
        big = A.make_net(
            lambda n: S.TrigPoly.dirichlet(n).scaled(math.exp(float(W.associated_gauge(ws_p1, 8.0 * n)))),
            NMAX, "big",
        )
        with pytest.raises(A.HypothesisFail) as exc:
            R.classify_regular(big, ws_p1, "beurling")
        assert str(exc.value) == "net 'big' is not desk-moderate; regularity is undefined for it"
        with pytest.raises(A.HypothesisFail) as exc:
            A.classify_negligible_supnorm(big, ws_p1, "roumieu")
        assert str(exc.value) == "net 'big' is not desk-moderate; sup-norm characterization needs it"
