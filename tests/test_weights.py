import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from periodic_gfa import weights as W


def brute_force_assoc(s, t, p_cap=2000):
    """Independent oracle: direct sup over p <= p_cap with cumulative logs."""
    if t <= 0:
        return 0.0
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, p_cap + 1)))])
    p = np.arange(0, p_cap + 1)
    return max(0.0, float(np.max(p * math.log(t) - s * logfact)))


def certify_m2_every_split(logM, declared=None):
    """Reference (M.2) certification: every ordered split p + q = m, as W._certify_m2 did before
    it visited each unordered split once."""
    n, m = len(logM), np.arange(len(logM))
    min_split = np.full(n, np.inf)
    for p in range(n):
        np.minimum(min_split[p:], logM[p] + logM[: n - p], out=min_split[p:])
    if declared is not None:
        bad = logM - m * np.log(declared[1]) - min_split > np.log(declared[0]) + 1e-9
        if np.any(bad):
            raise W.CertificationFail(f"(M.2) fails for the declared (A, H) at m = {np.argmax(bad)}")
        return declared
    grid = [2.0 ** (e / 4.0) for e in range(1, 17)]
    logA, H = min(
        ((max(np.max(logM - m * np.log(H) - min_split), 0.0), H) for H in grid),
        key=lambda c: c[0] if np.isfinite(c[0]) else np.inf,
    )
    if not logA < np.log(np.finfo(float).max):
        raise W.CertificationFail("no grid H certifies (M.2) with a finite A on the stored table")
    return float(np.exp(logA)), H


def _outcome(certify, *args):
    try:
        return certify(*args)
    except W.CertificationFail as exc:
        return str(exc)


class TestBuild:
    def test_gevrey1_constants(self):
        ws = W.gevrey(1.0, 64)
        assert ws.A == 1.0 and ws.H == 2.0
        # binomial bound (p+q)! <= 2^{p+q} p! q! on the whole table
        logM = ws.logM
        for p in range(65):
            q = np.arange(0, 65 - p)
            assert np.all(logM[p + q] <= (p + q) * math.log(2) + logM[p] + logM[q] + 1e-9)

    def test_gevrey2_constants(self):
        ws = W.gevrey(2.0, 64)
        assert ws.H == 4.0
        logM = ws.logM
        for p in range(65):
            q = np.arange(0, 65 - p)
            assert np.all(logM[p + q] <= (p + q) * math.log(4) + logM[p] + logM[q] + 1e-9)

    def test_constant_table_rejected(self):
        with pytest.raises(W.InvalidSpec):
            W.build_weight_sequence({"kind": "table", "logM": [0.0] * 16, "A": 1, "H": 1})
        with pytest.raises(W.DivergenceFail):
            W.build_weight_sequence({"kind": "table", "logM": [0.0] * 16, "A": 1, "H": 1})

    def test_m1_violation_rejected(self):
        with pytest.raises(W.InvalidSpec):
            W.build_weight_sequence(
                {"kind": "table", "logM": [0, 1, 1.2, 1.3, 5, 5.1, 5.2, 9, 9.1], "A": 1, "H": 2}
            )

    @pytest.mark.parametrize("declared", [{}, {"A": 1.0, "H": 2.0}], ids=["certified", "declared"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, declared, bad):
        # before, a nan entry passed the (M.1) check, and with declared (A, H) the whole build
        logM = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 33))]))
        logM[5] = bad
        with pytest.raises(W.InvalidSpec, match="finite"):
            W.build_weight_sequence({"kind": "table", "logM": logM, **declared})

    def test_nonzero_first_entry_rejected(self):
        with pytest.raises(W.InvalidSpec):
            W.build_weight_sequence({"kind": "table", "logM": [1.0, 2.0, 4.0], "A": 1, "H": 2})

    def test_table_certification(self):
        logM = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 33))]))
        ws = W.build_weight_sequence({"kind": "table", "logM": logM})
        assert ws.A >= 1.0 and ws.H >= 1.0

    def test_square_table_fails_m2(self):
        # log M_p = p^2 needs A = e^{p^2/2 - p log H}: beyond double range by p = 64
        with pytest.raises(W.CertificationFail):
            W.build_weight_sequence({"kind": "table", "logM": np.arange(65.0) ** 2})

    def test_declared_constants_too_small(self):
        logM = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 65))]))
        assert W.build_weight_sequence({"kind": "table", "logM": logM, "A": 1, "H": 2}).H == 2.0
        with pytest.raises(W.CertificationFail):
            W.build_weight_sequence({"kind": "table", "logM": logM, "A": 1, "H": 1.5})

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_gevrey_tables_certify_in_log_scale(self, s):
        logM = s * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 4097))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ws = W.build_weight_sequence({"kind": "table", "logM": logM})
        assert (ws.A, ws.H) == (1.0, 2.0**s)

    def test_pmax_floor(self):
        with pytest.raises(W.InvalidSpec):
            W.gevrey(1.0, 4)

    def test_extend(self):
        ws = W.gevrey(1.0, 64)
        big = ws.extended(256)
        assert big.p_max == 256
        assert np.allclose(big.logM[:65], ws.logM)

    @settings(max_examples=40, deadline=None)
    @example(n=2, seed=0, mode="steep")
    @example(n=33, seed=0, mode="square")  # A is decided at m = n - 1 = 32, by its middle split alone
    @example(n=65, seed=1, mode="square")
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["steep", "flat", "square"]))
    def test_m2_each_split_once_equals_every_split(self, n, seed, mode):
        """(A, H), or the failure, equals the every-split reference bit for bit, declared or not."""
        rng = np.random.default_rng(seed)
        if mode == "square":
            logM = np.arange(float(n)) ** 2  # no finite A past p = 64
        else:
            # a log-convex table: nondecreasing log ratios, some equal
            steps = rng.exponential(1.0 if mode == "steep" else 1e-3, n - 1) * (rng.random(n - 1) < 0.7)
            logM = np.concatenate([[0.0], np.cumsum(np.cumsum(steps) + rng.uniform(-2.0, 2.0))])
        got, want = _outcome(W._certify_m2, logM), _outcome(certify_m2_every_split, logM)
        assert type(got) is type(want) and got == want
        declared = [(1.0, 2.0), (1e3, 1.5), (2.0, 4.0)]
        if not isinstance(want, str):
            declared.append(want)
        for pair in declared:
            assert _outcome(W._certify_m2, logM, pair) == _outcome(certify_m2_every_split, logM, pair)


class TestPresetLogM:
    """A preset reads log M_p from its table inside it and uses s log p! beyond: the same bits."""

    POINTS = [
        0, 7, 16, 17, 40, -1, np.int64(12), np.uint8(3), 2.5, np.array([], dtype=np.int64),
        np.arange(30), np.array([3, -2, 99, 16]), np.arange(60).reshape(6, 10),
        np.array([[0, 16], [17, 5000]]), np.linspace(0.0, 20.0, 7),
    ]

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 1.0 / 3.0])
    def test_reads_equal_the_closed_form(self, s):
        ws = W.gevrey(s, 16)
        for scale in (ws, ws.extended(64), W.build_weight_sequence({"kind": "gevrey", "s": s, "p_max": 20})):
            for p in self.POINTS:
                want = s * gammaln(np.asarray(p).astype(float) + 1.0)
                got = scale.logM_at(p)
                assert type(got) is type(want) and np.shape(got) == np.shape(want), (scale.p_max, p)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (scale.p_max, p)


class TestAssociatedFunction:
    def test_spot_values(self):
        ws = W.gevrey(1.0, 2000)
        assert W.associated_function(ws, 10.0) == pytest.approx(7.9214, abs=1e-3)
        assert W.associated_function(ws, 20.0) == pytest.approx(17.5790, abs=1e-3)

    def test_t_one_is_zero(self):
        ws = W.gevrey(1.0, 64)
        assert W.associated_function(ws, 1.0) == 0.0
        assert W.associated_function(ws, 0.0) == 0.0

    def test_even_extension(self):
        ws = W.gevrey(1.0, 256)
        assert W.associated_function(ws, -10.0) == W.associated_function(ws, 10.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_matches_brute_force(self, s):
        ws = W.build_weight_sequence({"kind": "gevrey", "s": s}, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", W.TruncationWarning)
            for t in np.geomspace(1e-2, 1e4, 20):
                got = W.associated_function(ws, float(t))
                assert got == pytest.approx(brute_force_assoc(s, float(t)), abs=1e-9)

    def test_truncation_warning(self):
        ws = W.gevrey(1.0, 64)
        with pytest.warns(W.TruncationWarning):
            W.associated_function(ws, 1e3)

    def test_gauge_is_unbounded_for_presets(self):
        ws = W.gevrey(1.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = W.associated_gauge(ws, 1e3)
        assert v == pytest.approx(brute_force_assoc(1.0, 1e3, p_cap=1200), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_monotone(self, t, factor):
        ws = W.gevrey(1.0, 1200)
        assert W.associated_gauge(ws, t * factor) >= W.associated_gauge(ws, t) - 1e-12


class TestModifiedAssociated:
    def test_constant_prefix_matches_plain(self):
        ws = W.gevrey(1.0, 256)
        # r is 1 on j <= 8, so the modified gauge agrees while p* stays there
        rs = W.build_rsequence(np.maximum(1.0, np.arange(0, 65) / 8.0))
        for t in (0.5, 1.5, 3.0, 7.9):
            assert W.associated_function_rj(ws, rs, t) == pytest.approx(
                W.associated_function(ws, t), abs=1e-9
            )

    def test_linear_r_matches_brute_force(self):
        ws = W.gevrey(1.0, 1000)
        rs = W.linear_rsequence(1000)
        logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 1001)))])
        # prod_{j<=p} (j+1) = (p+1)!
        log_shifted_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(2, 1002)))])
        p = np.arange(0, 1001)
        for t in (0.5, 10.0, 50.0):
            brute = max(0.0, float(np.max(p * np.log(t) - logfact - log_shifted_fact)))
            assert W.associated_function_rj(ws, rs, t) == pytest.approx(brute, abs=1e-9)

    def test_small_t_zero(self):
        ws = W.gevrey(1.0, 256)
        rs = W.linear_rsequence(256)
        assert W.associated_function_rj(ws, rs, 0.5) == 0.0

    def test_rsequence_invariants(self):
        with pytest.raises(W.InvalidSpec):
            W.build_rsequence([2.0, 2.0, 5.0])  # r_0 != 1
        with pytest.raises(W.InvalidSpec):
            W.build_rsequence([1.0, 3.0, 2.0, 7.0])  # decreasing step
        with pytest.raises(W.DivergenceFail):
            W.build_rsequence([1.0, 1.0, 1.5, 1.9])  # proxy fails


class TestDoubling:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_gevrey_grid(self, s):
        ws = W.build_weight_sequence({"kind": "gevrey", "s": s}, 64)
        rep = W.check_doubling_inequality(ws, np.geomspace(1e-2, 1e4, 40))
        assert rep.passed and rep.max_excess <= 1e-9

    def test_single_point_value(self):
        ws = W.gevrey(1.0, 2000)
        rep = W.check_doubling_inequality(ws, [10.0])
        two_m = 2 * W.associated_function(ws, 10.0)
        m_ht = W.associated_function(ws, 20.0)
        assert two_m == pytest.approx(15.8429, abs=1e-3)
        assert m_ht == pytest.approx(17.5790, abs=1e-3)
        assert rep.passed

    def test_tiny_t(self):
        ws = W.gevrey(1.0, 64)
        rep = W.check_doubling_inequality(ws, [1e-9, 1e-6])
        assert rep.passed and rep.max_excess == 0.0


class TestRelation:
    def test_strictly_smaller(self, ws_p1, ws_p2):
        assert W.relation(ws_p1, ws_p2, "strict", p_max=256).bounded

    def test_identity_subset(self, ws_p1):
        assert W.relation(ws_p1, ws_p1, "subset", p_max=256).bounded

    def test_reverse_fails(self, ws_p1, ws_p2):
        assert not W.relation(ws_p2, ws_p1, "subset", p_max=256).bounded

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_nontriviality(self, s):
        one = W.WeightSequence(logM=np.zeros(257), label="one")
        ws = W.build_weight_sequence({"kind": "gevrey", "s": s}, 256)
        assert W.relation(one, ws, "strict", p_max=256).bounded

    def test_verdict_invariant(self, ws_p1, ws_p2):
        v = W.relation(ws_p2, ws_p1, "subset", p_max=128)
        assert (v.margin <= v.tau) == v.bounded
