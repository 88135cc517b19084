import math

import numpy as np
import pytest

from periodic_gfa import algebra as A
from periodic_gfa import embedding as E
from periodic_gfa import regularity as R
from periodic_gfa import series as S
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

    def test_requires_unit_plateau_rate(self, ws_p1):
        wide = E.build_mollifier("cutoff", r=2.0, R=4.0)
        with pytest.raises(E.MollifierFail):
            R.check_embedding_residual(S.cot_reg(), wide, ws_p1)


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


class TestInclusions:
    def test_const_embed_outputs_regular(self, ws_p1):
        for f in (S.exp_decay(1.0), S.from_trigpoly(S.TrigPoly.sine(), label="sin")):
            net = E.const_embed(f, NMAX, ws=ws_p1)
            v = R.classify_regular(net, ws_p1, "roumieu")
            assert v.regular and v.moderate.bounded, f.label
