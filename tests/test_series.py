import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import battery
from periodic_gfa import series as S
from periodic_gfa import verdict as V
from periodic_gfa import weights as W
from periodic_gfa.verdict import DEFAULTS

TWO_PI = 2 * math.pi

small_coef = st.lists(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=9,
)


def poly_from_list(vals):
    n = len(vals) // 2
    return S.TrigPoly(np.asarray(vals, dtype=complex), n) if len(vals) % 2 == 1 else None


def random_poly(rng, degree):
    c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    return S.TrigPoly(c, degree)


class TestEvaluate:
    def test_dirichlet_peak(self):
        assert S.evaluate(S.TrigPoly.dirichlet(4), 0.0) == pytest.approx(9 / TWO_PI)

    def test_sine(self):
        assert S.evaluate(S.TrigPoly.sine(), math.pi / 2) == pytest.approx(1.0)

    def test_zero(self):
        assert S.evaluate(S.TrigPoly.zero(), 1.2345) == 0.0

    def test_periodic(self, rng):
        f = random_poly(rng, 24)
        t = rng.uniform(0, TWO_PI, size=8)
        assert np.allclose(S.evaluate(f, t), S.evaluate(f, t + TWO_PI), atol=1e-12)


class TestDerivative:
    def test_sine_twice(self):
        d2 = S.derivative(S.TrigPoly.sine(), 2)
        assert np.allclose(d2.coef, S.TrigPoly.sine().coef)

    def test_eigenfunction(self):
        f = S.TrigPoly.basis(3)
        assert np.allclose(S.derivative(f, 1).coef, 3 * f.coef)

    def test_zeroth_identity(self):
        f = S.TrigPoly.dirichlet(4)
        assert S.derivative(f, 0) is f

    def test_overflow_signals(self):
        f = S.TrigPoly.basis(64)
        with pytest.raises(S.CoefficientOverflow):
            S.derivative(f, 500)


class TestSupNorm:
    def test_dirichlet(self):
        assert S.sup_norm(S.TrigPoly.dirichlet(4)) == pytest.approx(9 / TWO_PI, rel=1e-9)

    def test_sine(self):
        assert S.sup_norm(S.TrigPoly.sine()) == pytest.approx(1.0, rel=1e-9)

    def test_sine_times_dirichlet(self):
        # closed form: sin(t) D_16(t) = cos(t/2) sin(16.5 t) / pi
        got = S.sup_norm(S.multiply(S.TrigPoly.sine(), S.TrigPoly.dirichlet(16)))
        t = np.linspace(0, TWO_PI, 2_000_001)
        oracle = np.max(np.abs(np.cos(t / 2) * np.sin(16.5 * t))) / math.pi
        assert got == pytest.approx(oracle, rel=1e-6)
        assert 0.30 <= got <= 0.32

    def test_against_dense_grid(self, rng):
        for deg in (3, 17, 40):
            f = random_poly(rng, deg)
            t = np.linspace(0, TWO_PI, 400_001)
            oracle = float(np.max(np.abs(S.evaluate(f, t))))
            assert S.sup_norm(f) == pytest.approx(oracle, rel=1e-6)

    def test_high_degree_guarantee(self, rng):
        from scipy.optimize import minimize_scalar

        f = random_poly(rng, 512)
        t = np.linspace(0, TWO_PI, 150_001)
        vals = np.abs(S.evaluate(f, t))
        j = int(np.argmax(vals))
        step = t[1] - t[0]
        # independent refinement (Brent) around the dense-grid argmax
        res = minimize_scalar(
            lambda x: -abs(S.evaluate(f, x)),
            bounds=(t[j] - step, t[j] + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        oracle = max(float(np.max(vals)), -res.fun)
        assert S.sup_norm(f) >= oracle * (1 - 1e-9)
        assert S.sup_norm(f) == pytest.approx(oracle, rel=1e-6)

    def test_single_frequency_refines_one_peak(self, monkeypatch):
        brackets = []
        inner = S._golden_max_rows

        def spying(w, *args, **kwargs):
            brackets.append(len(w))
            return inner(w, *args, **kwargs)

        monkeypatch.setattr(S, "_golden_max_rows", spying)
        # |f| is constant, so rounding alone makes local maxima of the grid row
        assert S.sup_norm(S.TrigPoly.basis(-384, 2.0)) == pytest.approx(2.0, rel=1e-12)
        assert brackets == [1]


def oracle_ud_norm(f, s, h, p_cap=120, grid=8192):
    """Independent dense-grid oracle for sup_p h^p ||D^p f|| / (p!)^s."""
    t = np.linspace(0, TWO_PI, grid, endpoint=False)
    ks = f.support()
    basis = np.exp(1j * np.outer(t, ks))
    best = -np.inf
    for p in range(p_cap + 1):
        vals = basis @ (f.coef * ks.astype(float) ** p)
        m = np.max(np.abs(vals))
        if m > 0:
            best = max(best, math.log(m) + p * math.log(h) - s * math.lgamma(p + 1))
    return best


class TestUdNorm:
    def test_basis_h1(self, ws_p1):
        assert S.ud_norm(S.TrigPoly.basis(1), ws_p1, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_basis_h2(self, ws_p1):
        # sup_p 2^p / p! attained at p in {1, 2}
        assert S.ud_norm(S.TrigPoly.basis(1), ws_p1, 2.0) == pytest.approx(2.0, rel=1e-9)

    def test_zero(self, ws_p1):
        assert S.ud_norm(S.TrigPoly.zero(), ws_p1, 1.0) == 0.0

    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
    def test_against_oracle(self, rng, ws_p1, h):
        for deg in (1, 2, 4):
            f = random_poly(rng, deg)
            got = S.log_ud_norm(f, ws_p1, h)
            assert got == pytest.approx(oracle_ud_norm(f, 1.0, h), abs=1e-6)

    def test_oracle_gevrey2(self, rng, ws_p2):
        f = random_poly(rng, 3)
        got = S.log_ud_norm(f, ws_p2, 2.0)
        assert got == pytest.approx(oracle_ud_norm(f, 2.0, 2.0), abs=1e-6)

    def test_table_truncation_warns(self):
        ws = W.build_weight_sequence(
            {"kind": "table", "logM": np.cumsum([0.0] + [math.log(p) for p in range(1, 9)])},
            p_max=8,
        )
        with pytest.warns(W.TruncationWarning):
            S.log_ud_norm(S.TrigPoly.dirichlet(16), ws, 8.0)

    def test_rj_prefix(self, ws_p1):
        # r = 1 while p <= 8 keeps low-order terms; e^{it} peaks at p = 0
        rs = W.build_rsequence(np.maximum(1.0, np.arange(0, 129) / 8.0))
        got = S.ud_norm_rj(S.TrigPoly.basis(1), ws_p1, rs)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_rj_linear(self, ws_p1):
        rs = W.linear_rsequence(128)
        assert S.ud_norm_rj(S.TrigPoly.basis(1), ws_p1, rs) == pytest.approx(1.0, rel=1e-9)

    def test_rj_zero(self, ws_p1):
        assert S.ud_norm_rj(S.TrigPoly.zero(), ws_p1, W.linear_rsequence(64)) == 0.0


def per_h_log_ud_norm(f, ws, h):
    """log_ud_norm as one pass over p for h alone, refining each block's near-top rows.

    This is the per-h loop that log_ud_norms replaced; the shared pass
    must reproduce it bit for bit.
    """
    g = f.trimmed()
    lc = S.log_abs(g.coef)
    if g.degree == 0:
        return float(lc[0])
    log_sum_c = float(logsumexp(lc[np.isfinite(lc)]))
    table_cap = None if ws.gevrey_s is not None else ws.p_max
    p_peak = int(ws._p_star(h * g.degree, table_cap)[0])
    hard_cap = table_cap if table_cap is not None else p_peak + 4096
    best, p0 = -np.inf, 0
    while True:
        p1 = min(p0 + min(64, max(8, p_peak + 17 - p0)), hard_cap + 1)
        ps = np.arange(p0, p1)
        logM = np.asarray(ws.logM_at(ps), dtype=float)
        offsets = ps * math.log(h) - logM
        out, w, scale, vals = S._log_sup_rows(g, ps)
        adjusted = out + offsets
        m = vals.shape[1]
        rows, ts = [], []
        for i in np.nonzero(adjusted >= np.max(adjusted) - math.log(1.05))[0]:
            for j in S._local_peaks(vals[i]):
                rows.append(i)
                ts.append(TWO_PI * j / m)
        ts = np.array(ts)
        step = TWO_PI / m
        ref_v, _ = S._golden_max_rows(w[rows], g.support().astype(float), ts - step, ts + step)
        for i, v in zip(rows, ref_v):
            if v > 0:
                out[i] = max(out[i], scale[i] + math.log(v))
        best = max(best, float(np.max(out + offsets)))
        bounds = ps * (math.log(h) + math.log(g.degree)) + log_sum_c - logM
        if np.any((ps > p_peak) & (bounds < best)):
            return best
        if p1 > hard_cap:
            warnings.warn("ud norm termination not met by p_max", W.TruncationWarning)
            return best
        p0 = p1


def small_table_scale(p_max=12):
    """log M_p = log p! stored only up to a small p_max, so large h hit the table end."""
    return W.build_weight_sequence(
        {"kind": "table", "logM": gammaln(np.arange(p_max + 1) + 1.0)}, p_max=p_max
    )


class TestSharedRows:
    """log_ud_norms reads one pass over p for every h; each value is that of h alone."""

    def check(self, f, ws, rng, hs=DEFAULTS.h_grid):
        want = [per_h_log_ud_norm(f, ws, h) for h in hs]
        assert S.log_ud_norms(f, ws, hs).tolist() == want
        assert [S.log_ud_norm(f, ws, h) for h in hs] == want
        order = rng.permutation(len(hs))
        assert S.log_ud_norms(f, ws, [hs[i] for i in order]).tolist() == [want[i] for i in order]
        sub = sorted(rng.choice(len(hs), size=rng.integers(1, len(hs) + 1), replace=False))
        assert S.log_ud_norms(f, ws, [hs[i] for i in sub]).tolist() == [want[i] for i in sub]

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    def test_battery_representatives(self, ws_p1):
        rng = np.random.default_rng(11)
        for net, _ in battery.full_battery(ws_p1):
            for n in (0, 1, 9, 32):
                self.check(net.at(n), ws_p1, rng, battery.WIDE_H)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_random_polys_gevrey(self, s):
        rng = np.random.default_rng(12)
        ws = W.gevrey(s, 512)
        for degree in (1, 2, 5, 8, 24, 64):
            self.check(random_poly(rng, degree), ws, rng)

    @pytest.mark.filterwarnings("ignore::periodic_gfa.weights.TruncationWarning")
    def test_random_polys_table_scale_warn_per_h(self):
        rng = np.random.default_rng(13)
        ws = small_table_scale()
        hits = 0
        for degree in (1, 3, 8, 16):
            f = random_poly(rng, degree)
            with warnings.catch_warnings(record=True) as each:
                warnings.simplefilter("always")
                want = [per_h_log_ud_norm(f, ws, h) for h in DEFAULTS.h_grid]
            with warnings.catch_warnings(record=True) as shared:
                warnings.simplefilter("always")
                got = S.log_ud_norms(f, ws, DEFAULTS.h_grid)
            assert got.tolist() == want
            assert all(issubclass(w.category, W.TruncationWarning) for w in shared)
            assert len(shared) == len(each)
            hits += len(each)
            self.check(f, ws, rng)
        assert 0 < hits < 4 * len(DEFAULTS.h_grid)  # some (f, h) reach p_max, some do not

    def test_constant_zero_and_no_h(self, ws_p1):
        assert S.log_ud_norms(S.TrigPoly.const(2.0), ws_p1, [0.5, 8.0]).tolist() == [math.log(2.0)] * 2
        assert S.log_ud_norms(S.TrigPoly.zero(3), ws_p1, [1.0]).tolist() == [-math.inf]
        assert S.log_ud_norms(S.TrigPoly.dirichlet(4), ws_p1, []).shape == (0,)

    def test_nonpositive_h_rejected(self, ws_p1):
        with pytest.raises(ValueError):
            S.log_ud_norms(S.TrigPoly.basis(1), ws_p1, [1.0, 0.0])


def blocked_log_ud_norms(f, ws, hs):
    """DerivativeRows.log_ud_norms as a scan upward from p = 0 in blocks.

    This is the scan that the bound-selected rows replaced.  Blocks reach
    just past the largest live bound peak, then step in short blocks; an h
    stops once a row past its peak has a bound below its running maximum,
    or warns at its cap.  The selection must reproduce it bit for bit,
    warnings included.
    """
    g = f.trimmed()
    lc = S.log_abs(g.coef)
    if g.degree == 0 or len(hs) == 0:
        return np.full(len(hs), float(lc[0]))
    log_sum_c = float(logsumexp(lc[np.isfinite(lc)]))
    log_h = np.array([[math.log(h)] for h in hs])
    log_hk = np.array([[math.log(h) + math.log(g.degree)] for h in hs])
    table_cap = None if ws.gevrey_s is not None else ws.p_max
    peaks = np.array([ws._p_star(h * g.degree, table_cap)[0] for h in hs])
    caps = peaks + 4096 if table_cap is None else np.full(len(hs), table_cap)
    best = np.full(len(hs), -np.inf)
    live, p0 = np.ones(len(hs), dtype=bool), 0
    while live.any():
        block = min(64, max(8, peaks[live].max() + 17 - p0))
        ps = np.arange(p0, min(p0 + block, caps[live].max() + 1))
        grid = S._log_sup_rows(g, ps)[0]
        logM = np.asarray(ws.logM_at(ps), dtype=float)
        reads = live[:, None] & (ps <= caps[:, None])
        terms = np.where(reads, grid + (ps * log_h - logM), -np.inf)
        best = np.maximum(best, terms.max(axis=1))
        bounds = ps * log_hk + log_sum_c - logM
        done = np.any(reads & (ps > peaks[:, None]) & (bounds < best[:, None]), axis=1)
        for _ in range(np.count_nonzero(live & ~done & (ps[-1] >= caps))):
            warnings.warn("ud norm termination not met by p_max; raise p_max", W.TruncationWarning)
        live &= ~done & (ps[-1] < caps)
        p0 = ps[-1] + 1
    return best


def recorded(fn, *args):
    """fn(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        v = fn(*args)
    return v.tolist(), [(w.category, str(w.message)) for w in seen]


def selected_log_ud_norms(table, ws, hs):
    """The reduction of table with the TruncationWarnings that its values raise."""
    values = table.log_ud_norms(ws, hs)
    table.warn_truncated(ws, hs, values)
    return values


class TestSelectedRows:
    """DerivativeRows.log_ud_norms reads only the rows whose bound can reach a maximum."""

    HS = (1 / 16, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    @staticmethod
    def polys(rng, degrees):
        # random, tight-bound (one frequency, alone or over 1e-9 noise) and Dirichlet
        for d in degrees:
            noisy = 1e-9 * rng.standard_normal(2 * d + 1).astype(complex)
            noisy[-1] = 1.3
            yield from (random_poly(rng, d), S.TrigPoly.basis(d, 0.7 - 0.2j),
                        S.TrigPoly(noisy, d), S.TrigPoly.dirichlet(d))

    @pytest.mark.parametrize("degrees, s_list", [
        ((1, 2, 5, 16, 64), (1.0, 1.5, 2.0)),
        ((384,), (1.5, 2.0)),
    ], ids=["low-degree", "degree-384"])
    def test_equals_the_blocked_scan(self, degrees, s_list):
        table_scale = W.build_weight_sequence(
            {"kind": "table", "logM": 1.2 * gammaln(np.arange(41) + 1.0)}, p_max=40
        )
        scales = [W.gevrey(s, 64) for s in s_list] + [table_scale]
        warned = 0
        for f in self.polys(np.random.default_rng(15), degrees):
            table = S.DerivativeRows(f)  # every scale in turn reads one table, holes included
            for ws in scales:
                want = recorded(blocked_log_ud_norms, f, ws, self.HS)
                assert recorded(selected_log_ud_norms, table, ws, self.HS) == want
                warned += len(want[1])
        assert warned > 0

    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(["1", "1.5", "2", "table"]),
        hs=st.lists(st.sampled_from(HS), min_size=1, max_size=8, unique=True),
    )
    def test_random_polys_equal_the_blocked_scan(self, degree, seed, scale, hs):
        rng = np.random.default_rng(seed)
        f = random_poly(rng, degree).scaled(rng.lognormal(0.0, 4.0))
        if scale == "table":
            ws = W.build_weight_sequence(
                {"kind": "table", "logM": 1.5 * gammaln(np.arange(41) + 1.0)}, p_max=40
            )
        else:
            ws = W.gevrey(float(scale), 64)
        got = recorded(selected_log_ud_norms, S.DerivativeRows(f), ws, hs)
        want = recorded(blocked_log_ud_norms, f, ws, hs)
        assert got[0] == want[0]
        assert len(got[1]) == len(want[1])

    def test_warm_call_reads_no_weight_past_the_bound(self, monkeypatch):
        table, ws = S.DerivativeRows(S.TrigPoly.dirichlet(32)), W.gevrey(1.0, 4096)
        table.log_ud_norms(ws, DEFAULTS.h_grid)
        asked = []
        inner = W.WeightSequence.logM_at

        def spying(self, p):
            asked.append(int(np.max(p)))
            return inner(self, p)

        monkeypatch.setattr(W.WeightSequence, "logM_at", spying)
        table.log_ud_norms(ws, DEFAULTS.h_grid)
        # the largest bound peak is p* = 8 * 32 = 256; the concave bound ends the columns near 700
        assert asked and max(asked) <= 1000

    def test_rows_below_the_selection_stay_unread(self):
        table = S.DerivativeRows(random_poly(np.random.default_rng(16), 384))
        table.log_ud_norms(W.gevrey(1.0, 64), [8.0])
        held = np.flatnonzero(~np.isnan(table.rows))
        # row 0 (the sup table) and one interval around the bound peak p* = 8 * 384
        assert held[0] == 0 and held[1] > 2000
        assert held[1:].tolist() == list(range(held[1], held[-1] + 1))
        assert held[1] < 8 * 384 < held[-1]
        assert table.log_sup() == table.rows[0]


def mp_sup(coef, p=0):
    """max_t |sum_k k^p c_k e^{ikt}| in 30-digit arithmetic.

    Every near-top maximum of an oversampled float grid brackets a zero
    of d/dt |f|^2 = 2 Re(conj(f) f') between its neighbours, found by the
    Illinois method; the float grid only locates the peaks.
    """
    n = len(coef) // 2
    ks = np.arange(-n, n + 1)
    with mp.workdps(30):
        c = [mp.mpc(complex(x)) * mp.mpf(int(k)) ** p for k, x in zip(ks, coef)]
        top = max(abs(ck) for ck in c)
        c = [ck / top for ck in c]

        def f(t, d=0):
            return mp.fsum(ck * (1j * k) ** d * mp.expj(k * t) for k, ck in zip(ks.tolist(), c))

        t = TWO_PI * np.arange(128 * n) / (128 * n)
        vals = np.abs(np.exp(1j * np.outer(t, ks)) @ (coef * (ks / n) ** p))
        up = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
        peaks = np.nonzero(up & (vals >= 0.9 * vals.max()))[0]
        step = mp.mpf(2) * mp.pi / len(t)
        best = mp.mpf(0)
        for j in peaks:
            bracket = (mp.mpf(int(j) - 1) * step, mp.mpf(int(j) + 1) * step)
            t_star = mp.findroot(
                lambda x: mp.re(mp.conj(f(x)) * f(x, 1)), bracket, solver="illinois", verify=False
            )
            assert bracket[0] <= t_star <= bracket[1]
            best = max(best, abs(f(t_star)))
        return best * top


def mp_log_ud_norm(coef, s, h):
    """log sup_p h^p ||D^p f|| / (p!)^s; rows within 0.2 of the float grid winner get mp_sup."""
    n = len(coef) // 2
    ks = np.arange(-n, n + 1).astype(float)
    t = TWO_PI * np.arange(128 * n) / (128 * n)
    basis = np.exp(1j * np.outer(t, ks))
    ps = np.arange(400)
    # rows scaled by n^-p stay in double range
    top = np.array([np.max(np.abs(basis @ (coef * (ks / n) ** p))) for p in ps])
    grid = np.log(top) + ps * math.log(n)
    est = grid + ps * math.log(h) - s * gammaln(ps + 1.0)
    # the coefficient bound rules out every p past the range; check that it did
    bound = ps * math.log(h * n) + math.log(np.sum(np.abs(coef))) - s * gammaln(ps + 1.0)
    assert bound[-1] < est.max() - 1
    with mp.workdps(30):
        return max(
            mp.log(mp_sup(coef, int(p))) + p * mp.log(h) - s * mp.loggamma(p + 1)
            for p in ps[est >= est.max() - 0.2]
        )


class TestMpmathOracle:
    """Differential checks of sup_norm and log_ud_norm against 30-digit arithmetic."""

    def test_sup_norm(self):
        rng = np.random.default_rng(14)
        for degree in (1, 2, 3, 5, 8, 8):
            f = random_poly(rng, degree)
            assert S.sup_norm(f) == pytest.approx(float(mp_sup(f.coef)), rel=1e-9)

    CASES = [(1.0, 0.5), (1.0, 2.0), (1.0, 8.0), (2.0, 1.0), (2.0, 8.0)]

    @staticmethod
    @functools.cache
    def oracle(s, h):
        """[(f, ws, 30-digit log ud norm)] for three random polynomials."""
        rng = np.random.default_rng(15)
        ws = W.gevrey(s, 512)
        polys = [random_poly(rng, degree) for degree in (1, 4, 8)]
        return [(f, ws, float(mp_log_ud_norm(f.coef, s, h))) for f in polys]

    @classmethod
    def values(cls, s, h):
        for f, ws, want in cls.oracle(s, h):
            yield S.log_ud_norm(f, ws, h), want

    @pytest.mark.parametrize("s, h", CASES)
    def test_log_ud_norm(self, s, h):
        for got, want in self.values(s, h):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("s, h", CASES)
    def test_log_ud_norm_never_above_within_grid_slack(self, s, h):
        # refined values are attained, so never above the sup; a missed
        # peak is still within the 16x grid's loss of log(1 / cos(pi / 16))
        for got, want in self.values(s, h):
            assert want - math.log(1.0 / math.cos(math.pi / 16)) <= got <= want + 1e-9

    @pytest.mark.parametrize("s, h", CASES)
    def test_grid_rows_bracket_the_norms(self, s, h):
        # a grid value is attained (up to float rounding), and Ehlich-Zeller
        # bounds how far it falls short of the sup
        for f, ws, want in self.oracle(s, h):
            table = S.DerivativeRows(f)
            entry = table.log_ud_norms(ws, [h])[0]
            assert entry - 1e-12 <= want <= entry + S.GRID_SLACK
            log_sup = float(mp.log(mp_sup(f.coef)))
            assert table.log_sup() - 1e-12 <= log_sup <= table.log_sup() + S.GRID_SLACK


class TestQuadrature:
    def test_sine_coefficients(self):
        f = S.fourier_coefficients(lambda t: np.sin(t), 4)
        assert f.coefficient(1) == pytest.approx(-0.5j, abs=1e-12)
        assert f.coefficient(-1) == pytest.approx(0.5j, abs=1e-12)
        assert abs(f.coefficient(0)) < 1e-12

    def test_dirichlet_kernel(self):
        d = S.TrigPoly.dirichlet(6)
        # the kernel's boundary coefficients equal the max, so the
        # undersampling heuristic fires although the result is exact
        with pytest.warns(S.AliasWarning):
            f = S.fourier_coefficients(lambda t: S.evaluate(d, t), 6)
        assert np.allclose(f.coef, np.full(13, 1 / TWO_PI), atol=1e-12)

    def test_constant(self):
        f = S.fourier_coefficients(lambda t: np.ones_like(t), 3)
        assert f.coefficient(0) == pytest.approx(1.0)
        assert np.max(np.abs(f.coef[[0, 1, 2, 4, 5, 6]])) < 1e-14

    def test_round_trip(self, rng):
        for _ in range(25):
            deg = int(rng.integers(0, 65))
            f = random_poly(rng, deg)
            g = S.fourier_coefficients(lambda t: S.evaluate(f, t), 64)
            assert np.allclose(g.coefficient(f.support()), f.coef, atol=1e-10)

    def test_alias_warning(self):
        # degree-6 input sampled for degree 4 aliases onto the k = -4 boundary
        f = S.TrigPoly.basis(6)
        with pytest.warns(S.AliasWarning):
            S.fourier_coefficients(lambda t: S.evaluate(f, t), 4)


class TestConvolve:
    def test_delta_delta(self):
        d = S.convolve(S.delta(), S.delta())
        ks = np.arange(-5, 6)
        assert np.allclose(d.coefficients(ks), np.full(11, 1 / TWO_PI))

    def test_delta_dirichlet(self):
        out = S.convolve(S.delta(), S.TrigPoly.dirichlet(5))
        assert isinstance(out, S.TrigPoly)
        assert np.allclose(out.coef, S.TrigPoly.dirichlet(5).coef)

    def test_with_zero(self):
        out = S.convolve(S.TrigPoly.zero(3), S.TrigPoly.dirichlet(5))
        assert np.max(np.abs(out.coef)) == 0.0


class TestMultiply:
    def test_sine_cosine(self):
        p = S.multiply(S.TrigPoly.sine(), S.TrigPoly.cosine())
        assert p.coefficient(2) == pytest.approx(-0.25j)
        assert p.coefficient(-2) == pytest.approx(0.25j)
        assert abs(p.coefficient(0)) < 1e-15

    def test_identity(self, rng):
        f = random_poly(rng, 5)
        g = S.multiply(f, S.TrigPoly.const(1.0))
        assert np.allclose(g.coef, f.coef)

    def test_matches_pointwise(self, rng):
        f, g = random_poly(rng, 6), random_poly(rng, 9)
        t = rng.uniform(0, TWO_PI, 16)
        lhs = S.evaluate(S.multiply(f, g), t)
        assert np.allclose(lhs, S.evaluate(f, t) * S.evaluate(g, t), atol=1e-10)

    def test_commutative_associative(self, rng):
        for _ in range(10):
            f, g, h = (random_poly(rng, int(rng.integers(0, 33))) for _ in range(3))
            fg, gf = S.multiply(f, g), S.multiply(g, f)
            assert np.allclose(fg.coef, gf.coef, atol=1e-10)
            lhs = S.multiply(S.multiply(f, g), h)
            rhs = S.multiply(f, S.multiply(g, h))
            assert np.allclose(lhs.coef, rhs.coef, atol=1e-10)

    def test_leibniz(self, rng):
        f, g = random_poly(rng, 7), random_poly(rng, 4)
        lhs = S.derivative(S.multiply(f, g), 1)
        rhs = S.multiply(S.derivative(f, 1), g) + S.multiply(f, S.derivative(g, 1))
        assert np.allclose(lhs.coef, rhs.coef, atol=1e-10)


class TestCoefSeminorm:
    def test_delta_dual(self, ws_p1):
        got = S.coef_seminorm(S.delta(), ws_p1, 1.0, sign="minus")
        assert got == pytest.approx(1 / TWO_PI, rel=1e-12)

    def test_exact_cancellation(self, ws_p1):
        ks = np.arange(-64, 65)
        vals = np.exp(-np.asarray(W.associated_gauge(ws_p1, ks.astype(float))))
        assert S.coef_seminorm((ks, vals), ws_p1, 1.0, sign="plus") == pytest.approx(1.0)

    def test_zero(self, ws_p1):
        assert S.coef_seminorm(S.TrigPoly.zero(), ws_p1, 1.0, "plus") == 0.0

    def test_truncation_warning(self, ws_p1):
        with pytest.warns(W.TruncationWarning):
            S.log_coef_seminorm(S.exp_growth(1.0, ws_p1), ws_p1, 0.25, sign="minus", k_max=256)

    def test_decay_bound_property(self, rng, ws_p1):
        # |c_k| <= ud_norm(f, h) e^{-M(h k)} on the stored support
        for h in (0.5, 1.0, 2.0):
            for deg in (2, 8, 20):
                f = random_poly(rng, deg)
                bound = S.log_ud_norm(f, ws_p1, h)
                ks = f.support()
                gauge = np.asarray(W.associated_gauge(ws_p1, h * ks.astype(float)))
                with np.errstate(divide="ignore"):
                    lc = np.where(f.coef != 0, np.log(np.abs(f.coef)), -np.inf)
                assert np.all(lc <= bound - gauge + 1e-9)


def per_lambda_log_coef_seminorm(c, ws, lam, sign="plus", k_max=DEFAULTS.k_max):
    """log_coef_seminorm with its own gauge call for one lambda.

    This is the per-lambda sweep that log_coef_seminorms replaced; the
    shared gauge call must reproduce it bit for bit, warnings included.
    """
    ks, vals, swept = S._coef_arrays(c, k_max)
    if len(ks) == 0:
        return -np.inf
    with np.errstate(divide="ignore"):
        lc = np.where(vals != 0, np.log(np.abs(vals)), -np.inf)
    gauge = np.asarray(W.associated_gauge(ws, lam * ks.astype(float)), dtype=float)
    prof = lc + gauge if sign == "plus" else lc - gauge
    if swept and len(ks) > 16:
        half = len(ks) // 4
        head = np.max(prof[half:-half])
        tail = max(np.max(prof[:half]), np.max(prof[-half:]))
        if tail > head + 1e-9:
            warnings.warn("weighted coefficient profile still rising at k_max", W.TruncationWarning)
    return float(np.max(prof))


class TestSharedGauges:
    """log_coef_seminorms takes every lambda's gauge from one call; each value is that of lambda alone."""

    LAMS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 0.75)

    def check(self, c, ws, sign, k_max=DEFAULTS.k_max):
        with warnings.catch_warnings(record=True) as each:
            warnings.simplefilter("always")
            want = [per_lambda_log_coef_seminorm(c, ws, lam, sign, k_max) for lam in self.LAMS]
        with warnings.catch_warnings(record=True) as shared:
            warnings.simplefilter("always")
            got = S.log_coef_seminorms(c, ws, self.LAMS, sign, k_max)
        with warnings.catch_warnings(record=True) as views:
            warnings.simplefilter("always")
            assert [S.log_coef_seminorm(c, ws, lam, sign, k_max) for lam in self.LAMS] == want
        assert got.tolist() == want
        assert [str(w.message) for w in shared] == [str(w.message) for w in each]
        assert [str(w.message) for w in views] == [str(w.message) for w in each]
        assert all(issubclass(w.category, W.TruncationWarning) for w in shared)
        return len(shared)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_trigpolys(self, rng, s, sign):
        ws = W.gevrey(s, 512)
        for degree in (0, 1, 5, 24, 64):
            assert self.check(random_poly(rng, degree), ws, sign) == 0
        assert self.check(S.TrigPoly.zero(3), ws, sign) == 0

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_swept_oracles(self, s, sign):
        ws = W.gevrey(s, 4096)
        dists = (S.delta(), S.cot_reg(), S.exp_decay(1.0), S.exp_growth(1.0, ws), S.exp_decay(0.01))
        for dist in dists:
            self.check(dist, ws, sign, k_max=512)

    def test_one_warning_per_rising_lambda(self, ws_p1):
        # e^{M(k)} e^{-M(lambda k)} still rises at k_max exactly for lambda < 1
        rising = sum(lam < 1.0 for lam in self.LAMS)
        assert self.check(S.exp_growth(1.0, ws_p1), ws_p1, "minus", k_max=256) == rising == 3

    def test_inputs_rejected(self, ws_p1):
        with pytest.raises(ValueError):
            S.log_coef_seminorms(S.delta(), ws_p1, [1.0, 0.0])
        with pytest.raises(ValueError):
            S.log_coef_seminorms(S.delta(), ws_p1, [1.0], sign="dual")

    @pytest.mark.parametrize("q", ["forall", "exists"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coefficient_verdict_is_decide_on_per_lambda_rows(self, ws_p1, q, sign):
        ks = np.arange(-512, 513)
        for dist in (S.delta(), S.cot_reg(), S.exp_decay(1.0)):
            lc = S.log_abs(dist.coefficients(ks))
            rows = [lc + sign * np.asarray(W.associated_gauge(ws_p1, lam * ks.astype(float)))
                    for lam in self.LAMS]
            want = V.decide([rows], "forall", q, 0.5, {"g": 1}, "coefficient", ks=ks)
            got = S.coefficient_verdict(ks, lc, ws_p1, self.LAMS, q, sign, 0.5, {"g": 1})
            assert got == want  # dataclass equality covers margins, witness and details


class TestDistributions:
    def test_cot_reg_coefficients(self):
        d = S.cot_reg()
        ks = np.array([0, -2, -4, -6, 2, 4, 1, -1, -3])
        vals = d.coefficients(ks)
        assert vals[0] == 1j
        assert np.all(vals[1:4] == 2j)
        assert np.all(vals[4:] == 0)

    def test_exp_decay(self):
        d = S.exp_decay(1.0)
        assert d.coefficients(np.array([3]))[0] == pytest.approx(math.exp(-3))

    def test_truncate_distribution(self):
        poly, tail = S.truncate_distribution(S.exp_decay(1.0), k_max=256)
        assert poly.degree < 64
        assert tail < 1e-14
        assert poly.coefficient(1) == pytest.approx(math.exp(-1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=-40, max_value=40))
    def test_exp_growth_symmetric(self, k):
        ws = W.gevrey(1.0, 256)
        d = S.exp_growth(1.0, ws)
        a, b = d.coefficients(np.array([k, -k]))
        assert a == b

    def test_certify_growth(self, ws_p1):
        assert S.certify_growth(S.delta(), ws_p1, k_max=512).bounded
        assert S.certify_growth(S.cot_reg(), ws_p1, k_max=512).bounded
        assert S.certify_growth(S.exp_growth(1.0, ws_p1), ws_p1, k_max=512).bounded
        too_fast = S.CoefDistribution(
            oracle=lambda ks: np.exp(np.minimum(np.abs(ks).astype(float), 600.0)).astype(complex),
            tag="table", cls="beurling", growth_lambda=0.25, label="e^|k|",
        )
        assert not S.certify_growth(too_fast, ws_p1, k_max=512).bounded
