import dataclasses
import functools
import math
import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import test_series
from periodic_gfa import algebra as A
from periodic_gfa import series as S
from periodic_gfa import weights as W


def brute_force_assoc(s, t, p_cap=2000):
    """Independent oracle: direct sup over p <= p_cap with cumulative logs."""
    if t <= 0:
        return 0.0
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, p_cap + 1)))])
    p = np.arange(0, p_cap + 1)
    return max(0.0, float(np.max(p * math.log(t) - s * logfact)))


def ratio_p_star(ws, t):
    """A table's maximising p as WeightSequence._p_star found it before the hull: the number of
    log m_p <= log t (within 1e-12), by binary search; a local maximiser where log m_p dips."""
    with np.errstate(divide="ignore"):
        logt = np.log(np.where(t > 0, t, 1.0))
    ps = np.searchsorted(np.diff(ws.logM), logt + 1e-12, side="right")
    return np.where(t > 0, ps, 0).astype(np.int64)


def reference_p_star(self, t, logt=None):
    """WeightSequence._p_star as it was before the merge search: one binary search per point (the
    edges' slopes and tolerances computed in place, as _hull_edges then gave them)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = self.gevrey_s
    if s is not None:
        ps = np.floor(np.power(t, 1.0 / s) * (1.0 + 1e-14))
        return ps.astype(np.int64) if np.all(ps < 2.0**63) else ps
    if logt is None:
        logt = np.log(np.where(t > 0, t, 1.0))
    length = np.diff(self.hull)
    slope, tol = np.diff(self.logM[self.hull]) / length, 1e-12 / length
    i = np.searchsorted(slope, logt + 1e-12, side="right")
    # where an edge taken lies above log t, walk from the maximiser over ties
    flat, logt = i.reshape(-1), np.reshape(logt, -1)
    tied = np.flatnonzero((flat > 0) & (slope[np.maximum(flat - 1, 0)] > logt))
    lt, stop = logt[tied], flat[tied]
    j = np.searchsorted(slope, lt, side="right")
    while True:
        step = j < stop
        step[step] = slope[j[step]] <= lt[step] + tol[j[step]]
        if not step.any():
            break
        j += step
    flat[tied] = j
    return np.where(t > 0, self.hull[i], 0)


def reference_gauge_values(ws, ta, cap, warn_label):
    """W._gauge_values as it was before its passes were merged, on reference_p_star."""
    if not np.isfinite(ta).all():
        raise ValueError(f"{warn_label}: t must be finite")
    positive = ta > 0
    logt = np.log(np.where(positive, ta, 1.0))
    ps = reference_p_star(ws, ta, logt)
    if not np.all(ps < 2.0**63):
        raise ValueError(f"t = {ta.max():g} is too large for {ws.label}: its p passes 2^63")
    over = None
    if cap is not None:
        over = ps >= cap
        if over.any():
            ps = np.minimum(ps, cap)  # the supremum may sit beyond the table; report it truncated
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ps * logt - ws.logM_at(ps)
    return np.where(positive, np.maximum(vals, 0.0), 0.0), over


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

    def test_closed_form_only_past_the_table(self, monkeypatch):
        ws, seen = W.gevrey(1.5, 16), []
        monkeypatch.setattr(W, "gammaln", lambda x: seen.append(np.size(x)) or gammaln(x))
        p = np.array([3, -2, 99, 16, 17, 0])
        got = ws.logM_at(p)
        assert seen == [3]  # -2, 99 and 17
        assert got.tobytes() == (1.5 * gammaln(p.astype(float) + 1.0)).tobytes()


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

    @pytest.mark.parametrize("fn", [W.associated_function, W.associated_gauge])
    def test_t_past_int64_rejected(self, fn):
        # p* = t for p!: 1e19 passes 2^63, which the int64 cast of p* would wrap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                fn(W.gevrey(1.0, 64), [10.0, 1e19])

    def test_table_with_dips_reaches_its_maximum(self):
        level = math.log(2400)  # the table whose log m_p falls by 0.9e-9 a step
        ws = test_series.TestIntervals.stretched_scale(level, 1500, 1500)
        log_t = level - 0.45 * 0.9e-9 * 1500
        terms = np.arange(ws.p_max + 1) * log_t - ws.logM
        assert np.argmax(terms) == 3000
        assert W.associated_function(ws, math.exp(log_t)) == pytest.approx(terms.max(), abs=1e-9)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, [1.0, math.nan], [[2.0], [-math.inf]]])
    @pytest.mark.parametrize("fn", [W.associated_function, W.associated_gauge])
    def test_non_finite_t_rejected(self, fn, t):
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 9.0)))])
        for ws in (W.gevrey(1.0, 64), W.build_weight_sequence({"kind": "table", "logM": log_fact}, 8)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    fn(ws, t)


class TestRegularization:
    """M(t) by the lower convex hull of log M_p, on tables whose (M.1) holds only within _M1_TOL."""

    @settings(max_examples=30, deadline=None)
    @example(p0=1500, length=1500, fall=0.9)  # test_table_with_dips_reaches_its_maximum's table
    @example(p0=800, length=1000, fall=-0.5)  # log m_p rises on the stretch, so it never falls
    @given(p0=st.integers(400, 2600), length=st.integers(200, 1400), fall=st.floats(-0.95, 0.95))
    def test_hull_gives_the_maximum(self, p0, length, fall):
        level = math.log(2400)  # log m_p falls by fall * _M1_TOL a step on p0..p0 + length
        ws = test_series.TestIntervals.stretched_scale(level, p0, length, step=fall * W._M1_TOL)
        # log t across every stretch's fall (at most 1.33e-6 below level), then across the table
        t = np.append(np.exp(level - np.linspace(-1e-7, 1.5e-6, 61)), np.geomspace(1.5, 4000.0, 25))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", W.TruncationWarning)
            got = W.associated_function(ws, t)
        terms = np.multiply.outer(np.log(t), np.arange(ws.p_max + 1)) - ws.logM
        assert np.max(np.abs(got - terms.max(axis=1))) <= 1e-9
        if np.all(np.diff(ws.logM, 2) >= 0):  # log m_p nondecreasing: the ratio search is the hull's
            t = np.append(0.0, t)
            assert ws._p_star(t).tobytes() == ratio_p_star(ws, t).tobytes()

    @pytest.mark.parametrize("below", [0.9e-12, 0.5e-12])
    def test_long_edge_ties_cost_at_most_1e_12(self, below):
        ws = test_series.TestIntervals.stretched_scale(math.log(2400), 1500, 1500)
        i = int(np.searchsorted(ws.hull, 1499))
        assert ws.hull[i : i + 2].tolist() == [1499, 3000]  # one hull edge spans the stretch
        # log t just below the edge's slope: p* 3000 would be short by 1501 * below
        t = math.exp((ws.logM[3000] - ws.logM[1499]) / 1501 - below)
        terms = np.arange(ws.p_max + 1) * math.log(t) - ws.logM
        assert ws._p_star(t).tolist() == [np.argmax(terms)] == [1499]
        assert abs(W.associated_function(ws, t) - terms.max()) <= 1e-12


@functools.cache
def kernel_scale(name):
    """The scales the M(t) kernel is checked on against its reference."""
    if name.startswith("gevrey:"):
        return W.gevrey(float(name[7:]), 64)  # points past p = 64 read log M_p in closed form
    if name == "log_fact":
        return W.build_weight_sequence({"kind": "table", "logM": gammaln(np.arange(4097) + 1.0)})
    if name == "dips":  # log m_p dips by half _M1_TOL a step on 2300..3100
        return test_series.TestIntervals.stretched_scale(math.log(2400), 2300, 800, step=0.5 * W._M1_TOL)
    if name == "long_edge":  # one hull edge spans 1499..3000
        return test_series.TestIntervals.stretched_scale(math.log(2400), 1500, 1500)
    # collinear: log m_p rounded to eighths, so runs of hull edges share one exact slope; and
    # log M_0 just below 0, so that p* = 0 at t = 0 reads a positive p log t - log M_p there
    logm = np.round(8.0 * np.log(np.arange(1.0, 2049))) / 8.0
    return W.WeightSequence(logM=np.append(-(2.0**-44), np.cumsum(logm)), label="collinear")


class TestKernel:
    """The M(t) kernel equals its reference, reference_p_star and reference_gauge_values, byte for
    byte, whichever search it takes: a merge on ascending points more than the hull's slopes, else
    one binary search per point."""

    @settings(max_examples=12, deadline=None)
    @example(seed=1, n=9000, span=(-6.0, 12.0), ties=40, zeros=2, dups=50, order="ascending")  # a merge
    @example(seed=2, n=9000, span=(-1.0, 9.0), ties=40, zeros=0, dups=50, order="2-d")  # a merge
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([0, 1, 7, 300, 5000, 9000]),
        span=st.tuples(st.floats(-6.0, 4.0), st.floats(0.0, 12.0)),
        ties=st.integers(0, 40),
        zeros=st.integers(0, 3),
        dups=st.integers(0, 50),
        order=st.sampled_from(["ascending", "descending", "shuffled", "2-d", "2-d rows"]),
    )
    @pytest.mark.parametrize("name", ["gevrey:1", "gevrey:2", "gevrey:0.5", "log_fact", "dips", "long_edge", "collinear"])
    def test_equals_the_reference(self, name, seed, n, span, ties, zeros, dups, order):
        ws, rng = kernel_scale(name), np.random.default_rng(seed)
        log_t = span[0] + span[1] * rng.random(n)  # up to e^16: past every table's cap
        if ws.p_cap is not None:  # log t on, and within 1e-12 / length of, the slopes of hull edges
            length = np.diff(ws.hull)
            slope = np.diff(ws.logM[ws.hull]) / length
            e = rng.integers(0, len(slope), ties)
            log_t = np.concatenate([log_t, slope[e] + rng.choice([-1.0, -0.9, -0.5, 0.0, 0.5, 1.0], ties) * 1e-12 / length[e]])
        t = np.concatenate([np.exp(log_t), np.zeros(zeros)])
        t = np.concatenate([t, rng.choice(t, dups)]) if len(t) else t
        t = np.sort(t)
        if order == "descending":
            t = t[::-1]
        elif order == "shuffled":
            t = rng.permutation(t)
        elif order == "2-d":  # ascending when read flat
            t = t[: len(t) // 2 * 2].reshape(2, -1)
        elif order == "2-d rows":  # each row ascending, as gauge_table's outer(lambdas, k)
            t = np.sort(t[: len(t) // 2 * 2].reshape(-1, 2).T, axis=1)
        got, want = ws._p_star(t), reference_p_star(ws, t)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        for fn, cap, label in (
            (W.associated_gauge, ws.p_cap, "associated_gauge"),
            (W.associated_function, ws.p_max, "associated_function"),
        ):
            vals, over = reference_gauge_values(ws, np.atleast_1d(np.abs(t)), cap, label)
            warned = [(W.TruncationWarning, f"{label}: maximizing p hit p_max = {cap}; raise p_max")]
            got = recorded(fn, ws, t)
            assert got[0].shape == vals.shape and got[0].tobytes() == vals.tobytes()
            assert got[1] == (warned if over is not None and over.any() else [])

    @pytest.mark.parametrize("name", ["log_fact", "collinear"])
    def test_merge_runs_on_ascending_points_only(self, monkeypatch, name):
        ws, calls, merge = kernel_scale(name), [], W._merge_counts

        def spy(slope, x):
            calls.append(len(x))
            return merge(slope, x)

        monkeypatch.setattr(W, "_merge_counts", spy)
        n = 2 * len(ws.hull)  # more points than the hull has slopes
        t = np.geomspace(1.5, 4000.0, n)
        with_nan = np.where(np.arange(n) == n // 2, math.nan, t)  # read as log t = 0 there: a dip
        nan_log = np.append(np.log(t[:-1]), math.nan)  # a NaN log t fails the order test itself
        for args, merged in (
            ((t,), True), ((t.reshape(2, -1),), True), ((t[::-1],), False), ((with_nan,), False),
            ((t, nan_log), False), ((t[: len(ws.hull) - 1],), False),  # no more points than slopes
        ):
            calls.clear()
            got, want = ws._p_star(*args), reference_p_star(ws, *args)
            assert got.tobytes() == want.tobytes()
            assert calls == ([args[0].size] if merged else [])
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", W.TruncationWarning)
            W.check_doubling_inequality(ws, t)  # both of its calls: t and H t, each ascending
        assert calls == [n, n]

    @settings(max_examples=60, deadline=None)
    @given(
        slope=st.lists(st.integers(-20, 20), min_size=1, max_size=30),
        x=st.lists(st.integers(-25, 25), min_size=1, max_size=30),
    )
    def test_merge_counts_equal_the_binary_search(self, slope, x):
        slope, x = np.sort(np.asarray(slope, float) / 4.0), np.sort(np.asarray(x, float) / 4.0)
        got = W._merge_counts(slope, x)
        assert got.tolist() == np.searchsorted(slope, x, side="right").tolist()


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = fn(*args)
    return np.asarray(got), [(w.category, str(w.message)) for w in seen]


def truncating_table():
    """65 entries of 1.5 log p!: the gauge truncates once lambda k reaches about 64^1.5."""
    return W.build_weight_sequence({"kind": "table", "logM": 1.5 * gammaln(np.arange(65) + 1.0)})


class TestGaugeMemo:
    """weights.gauge_table memoizes M(lambda k), k = 0..K, per scale and grid: every read equals the
    direct associated_gauge call, its bits and its warnings, hit or miss."""

    SCALES = {
        "gevrey:1": lambda: W.gevrey(1.0, 64), "gevrey:2": lambda: W.gevrey(2.0, 64), "table": truncating_table,
    }

    @settings(max_examples=40, deadline=None)
    @example(scale="table", lams=[1.0, 8.0], by_H=True, reads=[300, 10, 40, 300], span=150, extra=[-300, 7, 299])
    @given(
        scale=st.sampled_from(sorted(SCALES)),
        lams=st.lists(st.floats(0.01, 16.0), min_size=1, max_size=4),
        by_H=st.booleans(),
        reads=st.lists(st.integers(0, 300), min_size=1, max_size=4),
        span=st.integers(0, 300),
        extra=st.lists(st.integers(-400, 400), max_size=5),
    )
    def test_reads_equal_direct_calls(self, scale, lams, by_H, reads, span, extra):
        ws = self.SCALES[scale]()
        grid = np.asarray(lams) * (ws.H if by_H else 1.0)
        for k_max in reads:  # each read a miss, a longer miss or a slice of a longer table
            for g in (grid[0], grid):  # one row, or one per lambda
                want = recorded(W.associated_gauge, ws, np.multiply.outer(g, np.arange(k_max + 1.0)))
                for fn in (W.gauge_table, A._gauge_table):
                    got = recorded(fn, ws, g, k_max)
                    assert not got[0].flags.writeable
                    assert got[0].shape == want[0].shape
                    assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])
            fresh = recorded(W.gauge_table, dataclasses.replace(ws), grid, k_max)  # want is the grid's
            assert (fresh[0].tobytes(), fresh[1]) == (want[0].tobytes(), want[1])
        ks = np.append(np.arange(-span, span + 1), np.array(extra, dtype=int))  # memo: no |k| reaches len(ks)
        logc = np.linspace(-3.0, 2.0, len(ks))
        gauges = recorded(W.associated_gauge, ws, np.multiply.outer(grid, ks))
        for sign in (1.0, -1.0):
            got = recorded(S.gauge_profiles, ks, logc, ws, grid, sign)
            assert (got[0].tobytes(), got[1]) == ((logc + sign * gauges[0]).tobytes(), gauges[1])

    def test_truncation_warns_on_a_hit_as_on_a_fresh_scale(self):
        ws, lams = truncating_table(), [1.0, 8.0, 16.0]
        first = next(k for k in range(1, 100) if ws._p_star(np.multiply.outer(lams, [k])).max() >= ws.p_cap)
        warned = [(W.TruncationWarning, "associated_gauge: maximizing p hit p_max = 64; raise p_max")]
        for k_max in (first - 1, first, 3 * first, first, first - 1, 0):  # a miss, two longer ones, slices
            fresh = recorded(W.gauge_table, truncating_table(), lams, k_max)
            direct = recorded(W.associated_gauge, ws, np.multiply.outer(lams, np.arange(k_max + 1.0)))
            assert fresh[1] == direct[1] == (warned if k_max >= first else [])
            assert recorded(W.gauge_table, ws, lams, k_max)[1] == direct[1]

    def test_sparse_ks_read_directly(self):
        ws, ks, lams = W.gevrey(1.0, 64), np.array([3, -10**7, 10**8]), [0.5, 2.0]
        got = S.gauge_profiles(ks, 0.0, ws, lams, 1.0)
        assert got.tobytes() == (0.0 + W.associated_gauge(ws, np.multiply.outer(lams, ks))).tobytes()
        assert ws._gauges == {}  # a table up to |k| = 10^8 would cost more than ks itself

    def test_scale_with_a_memo_pickles(self):
        ws = truncating_table()
        want = recorded(W.gauge_table, ws, [1.0, 8.0], 100)
        copy = pickle.loads(pickle.dumps(ws))
        got = recorded(W.gauge_table, copy, [1.0, 8.0], 100)
        assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])

    def test_non_finite_grid_rejected(self):
        for lams in ([1.0, math.inf], [math.nan], -math.inf):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
                W.gauge_table(W.gevrey(1.0, 64), lams, 4)

    def test_threads_compute_each_column_once(self, monkeypatch):
        columns, kernel = [], W._gauge_values

        def counting(ws, t, *args):
            columns.append(t.shape[1])
            return kernel(ws, t, *args)

        def read(ws, start, k):
            start.wait()
            return W.gauge_table(ws, grid, k)

        monkeypatch.setattr(W, "_gauge_values", counting)
        grid, k_maxes = [0.5, 2.0], [5, 400, 17, 250, 63, 399, 1, 128]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(k_maxes)) as pool:
                for _ in range(10):  # rounds on a fresh scale, every read starting at once
                    ws, start = W.gevrey(1.0, 512), threading.Barrier(len(k_maxes), timeout=60)
                    columns.clear()
                    futures = [pool.submit(read, ws, start, k) for k in k_maxes]
                    got = [f.result(timeout=60) for f in futures]
                    assert sum(columns) == max(k_maxes) + 1  # no two reads computed the same column
        finally:
            sys.setswitchinterval(interval)
        for k_max, g in zip(k_maxes, got):
            want = W.associated_gauge(ws, np.multiply.outer(grid, np.arange(k_max + 1.0)))
            assert g.tobytes() == want.tobytes()


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


    def test_grid_of_any_shape_is_read_flat(self):
        ws, flat = W.gevrey(1.0, 64), np.geomspace(1e-2, 1e3, 12)
        want = W.check_doubling_inequality(ws, flat)
        for grid in (flat.reshape(3, 4), flat.reshape(2, 3, 2), [flat]):
            got = W.check_doubling_inequality(ws, grid)
            assert got.to_json() == want.to_json() and got.table.tobytes() == want.table.tobytes()
        point = W.check_doubling_inequality(ws, np.float64(10.0))  # a 0-d grid is one point
        assert point.to_json() == W.check_doubling_inequality(ws, [10.0]).to_json()

    @pytest.mark.parametrize("grid", [[], np.empty((0, 3)), np.empty((2, 0))])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="t grid is empty"):
            W.check_doubling_inequality(W.gevrey(1.0, 64), grid)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                W.check_doubling_inequality(W.gevrey(1.0, 64), [1.0, bad, 10.0])

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
