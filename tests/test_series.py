import functools
import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import gammaln, logsumexp

from periodic_gfa import algebra as A
from periodic_gfa import battery
from periodic_gfa import regularity as R
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


def horner(f, t):
    """f(t) = e^{-iNt} sum_j c_{j-N} z^j at z = e^{it}, by Horner's rule: a dense-grid oracle
    that holds one array of t, where evaluate forms a (t, k) matrix."""
    t = np.asarray(t, dtype=float)
    z, acc = np.exp(1j * t), np.zeros(t.shape, dtype=complex)
    for c in f.coef[::-1]:
        acc *= z
        acc += c
    return acc * np.exp(-1j * f.degree * t)


def grid_rows(g, ps):
    """_log_sup_rows of one trimmed g (degree >= 1) on its m = next_fast_len(max(64, 16N + 1)) points."""
    m = next_fast_len(max(64, 16 * g.degree + 1))
    return S._log_sup_rows(g.coef[None, :], np.asarray(ps), [(len(ps), m, g.degree)])


def held_rows(table, n):
    """Member n's grid rows of a DerivativeRows, nan where no reduction read a row."""
    keys, vals = table.rows[0][:-1], table.rows[1][:-1]  # drop the sentinel
    mine = keys // S._KEY == n
    ps = keys[mine] % S._KEY
    rows = np.full(ps.max(initial=-1) + 1, np.nan)
    rows[ps] = vals[mine]
    return rows


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

    def test_horner_oracle_agrees(self, rng):
        for deg in (0, 3, 40, 512):
            f = random_poly(rng, deg)
            t = np.append(rng.uniform(0, TWO_PI, size=500), [0.0, math.pi, TWO_PI])
            want = S.evaluate(f, t)
            assert np.max(np.abs(horner(f, t) - want)) <= 1e-12 * np.max(np.abs(want))
            assert horner(f, 0.3) == pytest.approx(S.evaluate(f, 0.3), rel=1e-12)


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
            oracle = float(np.max(np.abs(horner(f, t))))
            assert S.sup_norm(f) == pytest.approx(oracle, rel=1e-6)

    def test_high_degree_guarantee(self, rng):
        from scipy.optimize import minimize_scalar

        f = random_poly(rng, 512)
        t = np.linspace(0, TWO_PI, 150_001)
        vals = np.abs(horner(f, t))
        j = int(np.argmax(vals))
        step = t[1] - t[0]
        # independent refinement (Brent) around the dense-grid argmax
        res = minimize_scalar(
            lambda x: -abs(horner(f, x)),
            bounds=(t[j] - step, t[j] + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        oracle = max(float(np.max(vals)), -res.fun)
        assert S.sup_norm(f) >= oracle * (1 - 1e-9)
        assert S.sup_norm(f) == pytest.approx(oracle, rel=1e-6)

    def test_single_frequency_refines_one_peak(self, monkeypatch):
        brackets = []
        inner = S._newton_max_rows

        def spying(w, *args, **kwargs):
            brackets.append(len(w))
            return inner(w, *args, **kwargs)

        monkeypatch.setattr(S, "_newton_max_rows", spying)
        # |f| is constant, so rounding alone makes local maxima of the grid row
        assert S.sup_norm(S.TrigPoly.basis(-384, 2.0)) == pytest.approx(2.0, rel=1e-12)
        assert brackets == [1]


def _golden_max_rows(w: np.ndarray, ks: np.ndarray, lo: np.ndarray, hi: np.ndarray, iters: int = 39):
    """Golden-section maximization of |sum_k w[i,k] e^{ikt}| per row.

    Rows iterate in lockstep, in batches of at most 2^16 row coefficients;
    each step keeps the better interior point and evaluates one new one.
    The midpoint, a grid peak, stands unless beaten, so a bracket costs
    iters + 3 evaluations.  Returns (values, ts).
    """
    chunk = max(1, (1 << 16) // max(len(ks), 1))
    if len(w) > chunk:
        parts = [
            _golden_max_rows(w[i : i + chunk], ks, lo[i : i + chunk], hi[i : i + chunk], iters)
            for i in range(0, len(w), chunk)
        ]
        return tuple(np.concatenate(x) for x in zip(*parts))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def val(ts):
        return np.abs(np.einsum("ik,ik->i", w, np.exp(1j * np.outer(ts, ks))))

    a, b = lo.astype(float), hi.astype(float)
    mid = (a + b) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = val(c), val(d)
    for _ in range(iters):
        left = gc > gd  # keep [a, d], whose upper interior point is c
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        gx = val(x)
        c, d, gc, gd = (
            np.where(left, x, d), np.where(left, c, x), np.where(left, gx, gd), np.where(left, gc, gx)
        )
    top, t = np.maximum(gc, gd), np.where(gd > gc, d, c)  # the best point evaluated
    g0 = val(mid)
    return np.where(top > g0, top, g0), np.where(top > g0, t, mid)


def golden_sup_norm(f):
    """sup_norm_argmax's value with golden section, the refinement it replaced, on the same peaks."""
    g = f.trimmed()
    if g.degree == 0:
        return abs(g.coef[0])
    out, w, scale, vals = grid_rows(g, np.zeros(1, dtype=int))
    m = vals.shape[1]
    ts = TWO_PI * S._local_peaks(vals[0]) / m
    rows = np.zeros(len(ts), dtype=int)
    v, _ = _golden_max_rows(w[rows], g.support().astype(float), ts - TWO_PI / m, ts + TWO_PI / m)
    return max(math.exp(out[0]), math.exp(scale[0]) * float(np.max(v)))


def demo_u_polys(n_max=64):
    """u.at(n), n <= n_max, of pgfa demo: iota(sin) * iota(delta) under the Dirichlet mollifier."""
    from periodic_gfa import embedding as E

    mol = E.build_mollifier("dirichlet")
    sin = S.from_trigpoly(S.TrigPoly.sine(), label="sin")
    u = A.net_mul(E.embed(sin, mol, n_max), E.embed(S.delta(), mol, n_max))
    return [u.at(n) for n in range(n_max + 1)]


class TestNewtonRefinement:
    """Newton steps from each near-top grid peak match golden section, the refinement they replaced."""

    def test_matches_golden_section(self):
        rng = np.random.default_rng(17)
        polys = [random_poly(rng, d) for d in (1, 2, 3, 5, 8, 17, 40, 64, 128, 256, 384, 512)]
        polys += [S.TrigPoly.dirichlet(n) for n in (1, 4, 16, 100, 300)]
        polys += [S.TrigPoly.basis(k, 2.0) for k in (1, -7, 64, -384)]
        polys += demo_u_polys()
        for f in polys:
            got, t = S.sup_norm_argmax(f)
            ref = golden_sup_norm(f)
            assert got >= ref * (1 - 1e-13)
            assert got == pytest.approx(ref, rel=1e-12)
            assert abs(S.evaluate(f, t)) == pytest.approx(got, rel=1e-12)


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
    p_peak = int(ws._p_star(h * g.degree)[0])
    hard_cap = table_cap if table_cap is not None else p_peak + 4096
    best, p0 = -np.inf, 0
    while True:
        p1 = min(p0 + min(64, max(8, p_peak + 17 - p0)), hard_cap + 1)
        ps = np.arange(p0, p1)
        logM = np.asarray(ws.logM_at(ps), dtype=float)
        offsets = ps * math.log(h) - logM
        out, w, scale, vals = grid_rows(g, ps)
        adjusted = out + offsets
        m = vals.shape[1]
        rows, ts = [], []
        for i in np.nonzero(adjusted >= np.max(adjusted) - math.log(1.05))[0]:
            for j in S._local_peaks(vals[i]):
                rows.append(i)
                ts.append(TWO_PI * j / m)
        ts = np.array(ts)
        step = TWO_PI / m
        ref_v, _ = S._newton_max_rows(ts, w, np.array(rows, dtype=int), g.support().astype(float), step)
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

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_h_rejected(self, ws_p1, h):
        f = S.TrigPoly.dirichlet(4)
        with pytest.raises(ValueError, match="finite and positive"):
            S.log_ud_norms(f, ws_p1, [1.0, h])
        with pytest.raises(ValueError, match="finite and positive"):
            S.DerivativeRows([f, f]).log_ud_norms(ws_p1, [h])

    @pytest.mark.parametrize("h", [(2**32 - 1e5) / 20, 3e8, 1e18])
    def test_huge_h_rejected(self, ws_p1, h):
        # for p! and degree 20, p*(hN) = hN: 1e5 rows short of the row key 2^32, the bound still
        # reaches the floor at 2^32; p* passes 2^32 at 3e8 and int64 at 1e18
        f = random_poly(np.random.default_rng(0), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                S.log_ud_norms(f, ws_p1, [1.0, h])
            with pytest.raises(ValueError, match="too large"):
                S.DerivativeRows([f, f]).log_ud_norms(ws_p1, [h])

    def test_large_h_keeps_members_apart(self, ws_p1):
        # at h = 2e8 the bound of f (degree 20) peaks below 2^32 and its end lies past it; a row
        # keyed there would be read as one of g's
        rng = np.random.default_rng(0)
        f, g = random_poly(rng, 20), random_poly(rng, 10)
        hs = [1.0, 1.5e8, 2e8]
        alone = [S.DerivativeRows([x]).log_ud_norms(ws_p1, hs)[:, 0].tolist() for x in (f, g)]
        assert S.DerivativeRows([f, g]).log_ud_norms(ws_p1, hs).T.tolist() == alone


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
    peaks = np.array([ws._p_star(h * g.degree)[0] for h in hs])
    caps = peaks + 4096 if table_cap is None else np.full(len(hs), table_cap)
    best = np.full(len(hs), -np.inf)
    live, p0 = np.ones(len(hs), dtype=bool), 0
    while live.any():
        block = min(64, max(8, peaks[live].max() + 17 - p0))
        ps = np.arange(p0, min(p0 + block, caps[live].max() + 1))
        grid = grid_rows(g, ps)[0]
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
    """The reduction of a one-member table with the TruncationWarnings that its values raise."""
    values = table.log_ud_norms(ws, hs)
    table.warn_truncated(ws, hs, values)
    return values[:, 0]


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
            table = S.DerivativeRows([f])  # every scale in turn reads one table, holes included
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
        got = recorded(selected_log_ud_norms, S.DerivativeRows([f]), ws, hs)
        want = recorded(blocked_log_ud_norms, f, ws, hs)
        assert got[0] == want[0]
        assert len(got[1]) == len(want[1])

    def test_warm_call_reads_no_weight_past_the_bound(self, monkeypatch):
        table, ws = S.DerivativeRows([S.TrigPoly.dirichlet(32)]), W.gevrey(1.0, 4096)
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
        table, ws = S.DerivativeRows([random_poly(np.random.default_rng(16), 384)]), W.gevrey(1.0, 64)
        value = table.log_ud_norms(ws, [8.0])[:, 0]
        rows = held_rows(table, 0)
        held = np.flatnonzero(~np.isnan(rows))
        # row 0 (the sup table), then rows of the cheap-bound window up to the seed p* = 8 * 384
        assert held[0] == 0 and held[1] > 2000 and held[-1] == 8 * 384
        seeds = np.array([0, 8 * 384])
        floor = np.max(rows[seeds] + seeds * math.log(8.0) - ws.logM_at(seeds)) - 1e-9
        ps = np.arange(4 * 8 * 384)
        window = np.flatnonzero(table._bounds(ws, np.array([[math.log(8.0)]]), 0 * ps, ps)[0] >= floor)
        assert value[0] >= floor and set(held[1:]) <= set(window)
        unread = np.setdiff1d(window, held)
        bracket = table._bracket(0 * unread, unread) + unread * math.log(8.0) - ws.logM_at(unread)
        assert len(unread) > 0 and np.all(bracket < floor)
        assert table.log_sups()[0] == rows[0]

    def test_public_norms_read_few_rows_at_high_degree(self, monkeypatch):
        rows = []
        inner = S._log_sup_rows

        def counting(coef, ps, *args):
            rows.append(len(ps))
            return inner(coef, ps, *args)

        monkeypatch.setattr(S, "_log_sup_rows", counting)
        f = random_poly(np.random.default_rng(16), 384)
        # only rows read are refined, so the bracket bounds the Newton work (54 rows today)
        S.log_ud_norms(f, W.gevrey(1.0, 64), [0.25, 1.0, 8.0])
        assert 0 < sum(rows) <= 100


class PolyRows:
    """The per-polynomial row table that one DerivativeRows per net replaced: TestNetTable's reference.

    rows[p] is the grid value of row p of one polynomial for every row a
    reduction read, nan elsewhere; missing rows run in blocks of at most 64.
    The selection of log_ud_norms and the warnings of warn_truncated are
    the net table's, one polynomial at a time.
    """

    def __init__(self, f):
        self.poly = f.trimmed()
        self.rows = np.empty(0)

    def _read(self, ps):
        rows = np.concatenate([self.rows, np.full(max(0, ps.max() + 1 - len(self.rows)), np.nan)])
        miss = np.flatnonzero(np.isnan(rows[ps]))
        for i in range(0, len(miss), 64):
            block = miss[i : i + 64]
            rows[ps[block]] = grid_rows(self.poly, ps[block])[0]
        self.rows = rows
        return rows[ps]

    def _bounds(self, ws, hs, ps):
        log_hn = np.array([[math.log(h)] for h in hs]) + math.log(self.poly.degree)
        log_sum_c = math.log(np.sum(np.abs(self.poly.coef)))
        return ps * log_hn + log_sum_c - np.asarray(ws.logM_at(ps), dtype=float)

    def _bracket(self, ps):
        g = self.poly
        pair = np.abs(g.coef[g.degree + 1 :]) + np.abs(g.coef[g.degree - 1 :: -1])  # |k| = 1..N
        live = np.nonzero(pair)[0]
        log_k, log_c = np.log(live + 1.0), np.log(pair[live])
        out = np.empty(len(ps))
        chunk = max(1, (1 << 16) // len(live))
        for i in range(0, len(ps), chunk):
            terms = ps[i : i + chunk, None] * log_k + log_c
            top = terms.max(axis=1)
            out[i : i + chunk] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        return out

    def log_ud_norms(self, ws, hs):
        if any(h <= 0 for h in hs):
            raise ValueError("h must be positive")
        g = self.poly
        if g.degree == 0 or len(hs) == 0:
            return np.full(len(hs), float(S.log_abs(g.coef)[0]))
        log_h = np.array([[math.log(h)] for h in hs])
        hn = np.asarray(hs, dtype=float) * g.degree

        def best(qs):  # each h's largest term over the rows qs
            return (self._read(qs) + (qs * log_h - np.asarray(ws.logM_at(qs), dtype=float))).max(axis=1)

        seeds = np.unique(np.append(ws._p_star(hn), 0))
        floor = best(seeds) - 1e-9
        end = ws.p_cap
        if end is None:
            gap = math.log(np.sum(np.abs(g.coef))) - floor + W.associated_gauge(ws, math.e * hn)
            end = max(int(np.max(gap)) + 1, seeds[-1])
        ps = np.arange(1, end + 1)
        ps = ps[np.any(self._bounds(ws, hs, ps) >= floor[:, None], axis=0)]
        gain = ps * log_h - np.asarray(ws.logM_at(ps), dtype=float)
        ps = ps[np.any(self._bracket(ps) + gain >= floor[:, None], axis=0)]
        return best(np.union1d(seeds, ps))

    def warn_truncated(self, ws, hs, values):
        if ws.p_cap is None or self.poly.degree == 0 or len(hs) == 0:
            return
        peaks = ws._p_star(np.asarray(hs, dtype=float) * self.poly.degree)
        at_cap = self._bounds(ws, hs, np.array([ws.p_cap]))[:, 0]
        for _ in range(np.count_nonzero((peaks >= ws.p_cap) | (at_cap >= values))):
            warnings.warn("ud norm termination not met by p_max; raise p_max", W.TruncationWarning)


def per_polynomial(refs, ws, hs):
    """Each reference table's values, with its warnings, as the columns of one net table."""
    values = [r.log_ud_norms(ws, hs) for r in refs]
    for r, v in zip(refs, values):
        r.warn_truncated(ws, hs, v)
    return np.array(values).reshape(len(refs), len(hs)).T


def net_table(table, ws, hs):
    values = table.log_ud_norms(ws, hs)
    table.warn_truncated(ws, hs, values)
    return values


class TestNetTable:
    """One DerivativeRows per net reads and gives what one PolyRows per member does, bit for bit."""

    SCALES = {"gevrey:1": W.gevrey(1.0, 64), "gevrey:2": W.gevrey(2.0, 64), "p_max 12": small_table_scale()}
    KINDS = ["random", "zero", "const", "left", "right", "sparse", "basis"]

    @staticmethod
    def member(kind, degree, rng):
        c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        c *= math.exp(rng.uniform(-8.0, 8.0))
        if kind == "zero":
            return S.TrigPoly.zero(degree)
        if kind == "const":
            return S.TrigPoly.const(c[degree])
        if kind == "basis":
            return S.TrigPoly.basis(int(rng.choice([-degree, degree])), c[0])
        if kind in ("left", "right"):  # one-sided support
            c[degree + 1 :] = 0.0 if kind == "left" else c[degree + 1 :]
            c[:degree] = 0.0 if kind == "right" else c[:degree]
        if kind == "sparse":
            c[rng.random(2 * degree + 1) < 0.6] = 0.0
        return S.TrigPoly(c, degree)

    @settings(max_examples=40, deadline=None)
    @given(
        members=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 40)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(SCALES)),
        hs=st.lists(st.sampled_from(TestSelectedRows.HS), min_size=1, max_size=8, unique=True),
    )
    def test_equals_the_per_polynomial_tables(self, members, seed, scale, hs):
        self.check(members, seed, scale, hs)

    @settings(max_examples=12, deadline=None)
    @example(members=[("random", 200), ("basis", 150), ("sparse", 97)], seed=0, scale="gevrey:1",
             hs=list(TestSelectedRows.HS))
    @given(
        members=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(41, 200)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(SCALES)),
        hs=st.lists(st.sampled_from(TestSelectedRows.HS), min_size=1, max_size=8, unique=True),
    )
    def test_high_degree_members_equal_the_per_polynomial_tables(self, members, seed, scale, hs):
        # long candidate ranges, where the chord between far-apart knots rejects most rows
        self.check(members, seed, scale, hs)

    def check(self, members, seed, scale, hs):
        rng = np.random.default_rng(seed)
        polys = [self.member(kind, degree, rng) for kind, degree in members]
        ws, table, refs = self.SCALES[scale], S.DerivativeRows(polys), [PolyRows(f) for f in polys]
        want = recorded(per_polynomial, refs, ws, hs)
        for _ in range(2):  # the second call finds every row held
            got = recorded(net_table, table, ws, hs)
            assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
            assert len(got[1]) == len(want[1])
        for n, ref in enumerate(refs):  # the same rows, held
            assert np.array_equal(held_rows(table, n), ref.rows, equal_nan=True)
        net = A.Net(gen=polys.__getitem__, n_max=len(polys) - 1)
        for _ in range(2):  # a filled memo, then a memo hit: the same warnings on each call
            got = recorded(lambda: np.array(A._ud_tables(net, ws, hs)))
            assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
            assert len(got[1]) == len(want[1])

    @pytest.mark.parametrize("i", range(1, 10))  # net 0, the zero net, has no row to read
    def test_battery_net_in_one_ifft_per_grid_length(self, ws_p1, monkeypatch, i):
        shapes, stages = [], []
        inner_ifft, inner_read = S.ifft, S.DerivativeRows._read

        def spying(x, *args, **kwargs):
            shapes.append(x.shape)
            return inner_ifft(x, *args, **kwargs)

        def reading(self, *args):
            start = len(shapes)
            out = inner_read(self, *args)
            stages.append(shapes[start:])
            return out

        monkeypatch.setattr(S, "ifft", spying)
        monkeypatch.setattr(S.DerivativeRows, "_read", reading)
        net = battery.full_battery(ws_p1, 32)[i][0]
        A.classify_moderate(net, ws_p1, "roumieu")  # the seeds of every f_n, then their selected rows
        A.classify_negligible_supnorm(net, ws_p1, "roumieu", moderate=A.classify_moderate(net, ws_p1))
        assert len(stages) == 3
        for stage in stages:  # one block per grid length m
            assert sorted(m for _, m in stage) == sorted({m for _, m in stage})
        evaluated = sum(rows for rows, _ in shapes)
        refs = [PolyRows(net.at(n)) for n in range(33)]
        per_polynomial(refs, ws_p1, DEFAULTS.h_grid)
        for n, ref in enumerate(refs):  # the reference's rows, each evaluated once
            assert np.array_equal(held_rows(net.derivative_rows(), n), ref.rows, equal_nan=True)
        assert evaluated == sum(np.count_nonzero(~np.isnan(ref.rows)) for ref in refs)


def candidate_ends(table, ws, hs):
    """{n: end} for each member whose rows 1..end log_ud_norms may select, from a spy on _ends."""
    ends = {}
    inner = S.DerivativeRows._ends

    def spying(self, ws, live, hn, floor):
        out = inner(self, ws, live, hn, floor)
        ends.update(zip(live.tolist(), out.tolist()))
        return out

    with mock.patch.object(S.DerivativeRows, "_ends", spying):
        table.log_ud_norms(ws, hs)
    return ends


class TestChord:
    """The chord of the bracket B_p between its knots never lies below B_p: per p >= 1, a <= p on
    S._LADDER and b the next knot or the member's end, as in log_ud_norms's ladder segments."""

    KINDS = ["random", "left", "right", "sparse", "basis"]

    @staticmethod
    def member(kind, degree, rng):  # largest coefficient magnitude e^-30..e^30
        f = TestNetTable.member(kind, degree, rng)
        peak = np.max(np.abs(f.coef))  # a sparse member may have no coefficient left
        return f.scaled(math.exp(rng.uniform(-30.0, 30.0)) / peak) if peak > 0 else f

    @settings(max_examples=25, deadline=None)
    @example(members=[("basis", 1), ("random", 200), ("left", 2)], seed=0, scale="gevrey:1")
    @example(members=[("sparse", 1)] * 4, seed=0, scale="p_max 12")  # two members vanish
    @given(
        members=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 200)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(TestNetTable.SCALES)),
    )
    def test_chord_never_below_the_bracket(self, members, seed, scale):
        rng = np.random.default_rng(seed)
        table = S.DerivativeRows([self.member(kind, degree, rng) for kind, degree in members])
        ends = candidate_ends(table, TestNetTable.SCALES[scale], TestSelectedRows.HS)
        assert sorted(ends) == np.flatnonzero(table.degree).tolist()
        for n, end in ends.items():  # every p <= end, not only the candidates
            ps = np.arange(1, end + 1)
            k = np.searchsorted(S._LADDER, ps, side="right") - 1
            a, b = S._LADDER[k], np.minimum(S._LADDER[k + 1], end)
            assert np.all((1 <= a) & (a <= ps) & (ps <= b) & (b <= end))
            knots = np.unique(np.append(a, b))
            at_knot = table._bracket(np.full(len(knots), n), knots)
            lo, hi = (at_knot[np.searchsorted(knots, q)] for q in (a, b))
            chord = lo + (ps - a) * (hi - lo) / np.maximum(b - a, 1)
            exact = table._bracket(np.full(end, n), ps)
            # convexity, up to rounding of a few eps |B_p| (under 1e-11 for |B_p| < 3e4), which
            # log_ud_norms's 1e-9 slack covers
            assert np.all(chord >= exact - 4 * np.finfo(float).eps * np.max(np.abs(exact)))


class TestIntervals:
    """The interval stage of log_ud_norms misses no row that the cheap bound, the chord and the
    bracket pass: held rows, values and warnings equal PolyRows's, bit for bit.

    A table's (M.1) holds only within _M1_TOL, so -log M_p may be convex by up to 1e-9 a step.  On a
    stretch where log m_p falls by 0.9e-9 a step from just above log(hN), p log(hN) - log M_p dips
    and rises again by about 1e-9 L^2 / 8 over a segment of length L, and the rows that reach the
    floor may lie at the stretch's far end.  The stretch lies above the chord of the lower convex
    hull of log M_p, which the interval stage reads in its place: read against log M_p itself, its
    maximisers and bisection stop short of those rows.
    """

    @staticmethod
    def stretched_scale(level, p0, length, p_max=4096, step=0.9e-9):
        """log m_p = sigma log p with sigma log p0 = level, except that on p0..p0 + length log m_p
        falls from level by step a step: log M_p is nearly linear there."""
        p = np.arange(1.0, p_max + 1)
        logm = level / math.log(p0) * np.log(p)
        logm[p0 - 1 : p0 + length] = level - step * (p[p0 - 1 : p0 + length] - p0)
        return W.build_weight_sequence({"kind": "table", "logM": np.append(0.0, np.cumsum(logm))}, p_max)

    @settings(max_examples=10, deadline=None)
    # the stretch 1500..3000 spans one hull edge; the rows read lie near 3000
    @example(scale="stretched", p0=1500, length=1500, fall=0.45, degree=300, others=[], seed=0, hs=[])
    # log(hN) ties the slope of the hull's chord over the stretch 2300..3100; log M_p in its place drops rows
    @example(scale="stretched", p0=2300, length=800, fall=0.5, degree=300, others=[], seed=0, hs=[])
    @example(scale="gevrey:1", p0=0, length=0, fall=0.0, degree=384, others=[("random", 40)], seed=0, hs=[8.0])
    @given(
        scale=st.sampled_from(["stretched", "gevrey:1"]),
        p0=st.integers(400, 2600),
        length=st.integers(200, 1400),
        fall=st.floats(0.05, 0.95),
        degree=st.integers(300, 384),
        others=st.lists(st.tuples(st.sampled_from(TestNetTable.KINDS), st.integers(1, 60)), max_size=2),
        seed=st.integers(0, 2**32 - 1),
        hs=st.lists(st.sampled_from(TestSelectedRows.HS), max_size=3, unique=True),
    )
    def test_equals_the_per_polynomial_tables(self, scale, p0, length, fall, degree, others, seed, hs):
        rng = np.random.default_rng(seed)
        polys = [S.TrigPoly.basis(degree, 1.0)] + [TestNetTable.member(k, d, rng) for k, d in others]
        if scale == "stretched":  # log(hN) a fraction fall of the stretch's fall below its level
            level = math.log(8.0 * degree)
            ws = self.stretched_scale(level, p0, length)
            hs = [math.exp(level - fall * 0.9e-9 * length) / degree] + hs
        else:
            ws, hs = W.gevrey(1.0, 64), [8.0] + [h for h in hs if h != 8.0]
            # h = 8 at degree >= 300: the rows reach past 4096
            assert candidate_ends(S.DerivativeRows(polys), ws, hs)[0] > 4096
        table, refs = S.DerivativeRows(polys), [PolyRows(f) for f in polys]
        want = recorded(per_polynomial, refs, ws, hs)
        got = recorded(net_table, table, ws, hs)
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        assert got[1] == want[1]
        for n, ref in enumerate(refs):
            assert np.array_equal(held_rows(table, n), ref.rows, equal_nan=True)


class BlockRows(S.DerivativeRows):
    """The net table with the per-block read that runs of blocks replaced: TestBatchedRead's reference.

    Missing rows run by grid length in blocks of 64 rows or 2^16 points,
    whichever is more; each block is padded to its own largest degree and
    sets up its own weights.
    """

    def _read(self, ns, ps, fresh=None):
        keys, vals = self.rows
        want = ns * S._KEY + ps
        at = np.searchsorted(keys, want)
        got, miss = vals[at], np.flatnonzero(keys[at] != want)
        if fresh is not None:
            got[miss] = fresh[miss]
        ms = self.m[ns[miss]] if fresh is None else []
        for m in np.unique(ms):
            group, step = miss[ms == m], max(64, (1 << 16) // m)
            for block in np.split(group, range(step, len(group), step)):
                pad, rows = self._padded(ns[block])
                got[block] = S._log_sup_rows(pad, ps[block], [(len(block), m, pad.shape[1] // 2)], rows)[0]
        if len(miss):
            keys, vals = np.append(keys, want[miss]), np.append(vals, got[miss])
            order = np.argsort(keys, kind="stable")
            self.rows = (keys[order], vals[order])
        return got


def battery_pass(ws):
    """The classifier calls of one seed-1 pass of the perfbench battery workload (perfbench/workloads.py)."""
    from perfbench import nets  # importable from the repository root, where the tests run

    for case in nets.battery_cases(ws, np.random.default_rng(1)):
        net = case.build()
        mod = A.classify_moderate(net, ws, "roumieu")
        A.classify_negligible(net, ws, "roumieu")
        A.classify_negligible_supnorm(net, ws, "roumieu", moderate=mod)
        A.coef_classify(net, ws, "roumieu", "negligible")
        A.classify_moderate(net, ws, "beurling")
        A.classify_negligible(net, ws, "beurling")
        R.classify_regular(net, ws, "roumieu", moderate=mod)


def spy_runs(monkeypatch):
    """Record each weight set-up, each run (rows, D, blocks) and the shape of each ifft."""
    setups, runs, ffts = [], [], []
    inner_weights, inner_rows, inner_ifft = S._weights, S._log_sup_rows, S.ifft

    def weights(coef, ps, *args):
        setups.append(len(ps))
        return inner_weights(coef, ps, *args)

    def rows(coef, ps, blocks, *args):
        runs.append((len(ps), coef.shape[1] // 2, list(blocks)))
        return inner_rows(coef, ps, blocks, *args)

    def ifft(x, *args, **kwargs):
        ffts.append(x.shape)
        return inner_ifft(x, *args, **kwargs)

    monkeypatch.setattr(S, "_weights", weights)
    monkeypatch.setattr(S, "_log_sup_rows", rows)
    monkeypatch.setattr(S, "ifft", ifft)
    return setups, runs, ffts


def within_budget(runs):
    """Each run holds at most 2^14 (row, |k|) entries, or one block; its blocks tile its rows."""
    return all(
        (rows * (top + 1) <= 1 << 14 or len(blocks) == 1)
        and blocks[-1][0] == rows
        and all(d <= top and m > 2 * d for _, m, d in blocks)
        for rows, top, blocks in runs
    )


class TestBatchedRead:
    """DerivativeRows._read sets up weights once per run of whole blocks and reads, bit for bit,
    what BlockRows reads with weights set up per block."""

    @staticmethod
    def tables(members, seed):
        rng = np.random.default_rng(seed)
        polys = [TestNetTable.member(kind, degree, rng) for kind, degree in members]
        return S.DerivativeRows(polys), BlockRows(polys), rng

    @settings(max_examples=25, deadline=None)
    # blocks over the budget; then several runs, some of several grid lengths
    @example(members=[("random", 300)], seed=0, sizes=[150])
    @example(members=[("random", d) for d in (3, 17, 40, 90, 160)], seed=1, sizes=[400, 400])
    @given(
        members=st.lists(
            st.tuples(st.sampled_from(TestNetTable.KINDS), st.integers(0, 320)), min_size=1, max_size=10
        ),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 400), min_size=1, max_size=3),
    )
    def test_reads_equal_the_per_block_read(self, members, seed, sizes):
        table, ref, rng = self.tables(members, seed)
        live = np.flatnonzero(table.degree)
        for size in sizes if len(live) else []:  # later reads find some rows held
            ns, ps = np.divmod(np.unique(rng.choice(live, size) * S._KEY + rng.integers(0, 200, size)), S._KEY)
            assert table._read(ns, ps).tobytes() == ref._read(ns, ps).tobytes()
            assert table.rows[0].tobytes() == ref.rows[0].tobytes()  # the same keys held
            assert table.rows[1].tobytes() == ref.rows[1].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        members=st.lists(
            st.tuples(st.sampled_from(TestNetTable.KINDS), st.integers(0, 64)), min_size=1, max_size=12
        ),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(TestNetTable.SCALES)),
        hs=st.lists(st.sampled_from(TestSelectedRows.HS), min_size=1, max_size=8, unique=True),
    )
    def test_norms_equal_the_per_block_read(self, members, seed, scale, hs):
        table, ref, _ = self.tables(members, seed)
        ws = TestNetTable.SCALES[scale]
        for _ in range(2):  # the second call finds every row held
            got, want = recorded(net_table, table, ws, hs), recorded(net_table, ref, ws, hs)
            assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes() and got[1] == want[1]
            assert table.rows[0].tobytes() == ref.rows[0].tobytes()
            assert table.rows[1].tobytes() == ref.rows[1].tobytes()
        for n in np.flatnonzero(table.degree)[:2]:  # refined rows join both tables alike
            ps = np.array([0, 3, 7])
            assert np.array(table.refined(n, ps)).tobytes() == np.array(ref.refined(n, ps)).tobytes()
            assert table.rows[0].tobytes() == ref.rows[0].tobytes()

    @pytest.mark.parametrize("degrees", [(300,), (3, 17, 40, 90, 160)], ids=["oversize", "spread"])
    def test_runs_are_whole_blocks_within_budget(self, monkeypatch, degrees):
        table, ref, _ = self.tables([("random", d) for d in degrees], 1)
        count = 100 * len(degrees)  # rows p = 0..count-1 of every member
        ns, ps = np.repeat(np.arange(len(degrees)), count), np.tile(np.arange(count), len(degrees))
        setups, runs, ffts = spy_runs(monkeypatch)
        got = table._read(ns, ps)
        mine, blocks = list(runs), sorted(ffts)
        ffts.clear()
        assert ref._read(ns, ps).tobytes() == got.tobytes()
        assert sorted(ffts) == blocks and len(setups) == len(mine) + len(ffts)
        assert within_budget(mine)
        if degrees == (300,):  # 64 rows of degree 300 exceed the budget and run alone; then the other 36
            assert [(rows, top, len(b)) for rows, top, b in mine] == [(64, 300, 1), (36, 300, 1)]
        else:  # several runs, some of several blocks and grid lengths
            assert 1 < len(mine) < len(blocks) and max(len({m for _, m, _ in b}) for _, _, b in mine) > 1

    def test_battery_pass_sets_up_weights_once_per_run(self, ws_p1, monkeypatch):
        setups, runs, ffts = spy_runs(monkeypatch)
        battery_pass(ws_p1)
        # the same 686 FFT blocks as one set-up per block, with at most 60 weight set-ups (686 then)
        assert len(ffts) == 686 and len(setups) <= 60 and within_budget(runs)
        new = sorted(ffts)
        monkeypatch.setattr(S.DerivativeRows, "_read", BlockRows._read)
        ffts.clear()
        battery_pass(ws_p1)
        assert sorted(ffts) == new


def newton_max_rows_7(w, ks, ts, half):
    """The Newton maximization that the batched one replaced: every row takes all seven
    evaluations, over all of ks, in batches of at most 2^16 row coefficients.

    The product is np.multiply(w, e), w first.  Written w * e, numpy reuses the temporary e
    in place once it exceeds 256 KiB (2^14 cells) and computes e * w, and its fused complex
    multiply is not commutative in the last bit.
    """
    chunk = max(1, (1 << 16) // max(len(ks), 1))
    if len(w) > chunk:
        parts = [newton_max_rows_7(w[i : i + chunk], ks, ts[i : i + chunk], half) for i in range(0, len(w), chunk)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    mults = np.stack([np.ones_like(ks), 1j * ks, -ks * ks])
    t = arg = ts
    best = np.full(len(ts), -1.0)
    for _ in range(7):  # t0 and six steps
        g, g1, g2 = np.einsum("ik,jk->ji", np.multiply(w, np.exp(1j * np.outer(t, ks))), mults)
        v = np.abs(g)
        up = v > best
        best, arg = np.where(up, v, best), np.where(up, t, arg)
        d1 = np.real(np.conj(g) * g1)
        d2 = np.abs(g1) ** 2 + np.real(np.conj(g) * g2)
        t = np.clip(t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0), ts - half, ts + half)
    return best, arg


def row_peaks(vals, rel=0.975):
    """The near-top circular local maxima of one grid row, as the per-member refinement found them."""
    top = np.max(vals)
    if np.min(vals) >= top * (1.0 - 1e-12):
        return np.array([np.argmax(vals)])
    up = vals >= np.roll(vals, 1)
    down = vals >= np.roll(vals, -1)
    return np.nonzero(up & down & (vals >= rel * top))[0]


class MemberRows(S.DerivativeRows):
    """The net table with the per-member refinement that one batched pass per net replaced:
    TestBatchedRefinement's reference.

    Each member's rows run as one block of its own degree and grid length,
    with one Newton call (all seven evaluations per peak) and one _read.
    """

    def refined(self, n, ps):
        g, m = self.polys[n], self.m[n]
        out, w, scale, vals = S._log_sup_rows(g.coef[None, :], ps, [(len(ps), m, g.degree)])
        self._read(np.full(len(ps), n), ps, out)
        peaks = [row_peaks(row) for row in vals]
        counts = [len(js) for js in peaks]
        rows = np.repeat(np.arange(len(ps)), counts)
        ts = TWO_PI * np.concatenate(peaks) / m
        v, t = newton_max_rows_7(w[rows], g.support().astype(float), ts, TWO_PI / m)
        lv = scale[rows] + S.log_abs(v)
        top = np.lexsort((lv, rows))[np.cumsum(counts) - 1]
        return np.fmax(out, lv[top]), t[top] % TWO_PI

    def sup_norm_argmax(self, n):
        g = self.polys[n]
        if g.degree == 0:
            return abs(g.coef[0]), 0.0
        v, t = self.refined(n, np.zeros(1, dtype=int))
        return math.exp(v[0]), float(t[0])


@functools.cache
def demo_u_stack():
    return tuple(demo_u_polys())


class TestBatchedRefinement:
    """DerivativeRows.refined refines every requested row of a net in one pass, Newton once per
    run, and gives, bit for bit, what MemberRows gives one member at a time."""

    KINDS = TestNetTable.KINDS + ["dirichlet", "demo"]

    @classmethod
    def member(cls, kind, degree, rng):
        if kind == "dirichlet":
            return S.TrigPoly.dirichlet(degree)
        if kind == "demo":  # u.at(n) of pgfa demo, degree n + 1
            return demo_u_stack()[degree % 65]
        return TestNetTable.member(kind, degree, rng)

    @staticmethod
    def check(polys, pairs, held=()):
        """refined over pairs (n, p) and sup_norm_argmax over every member, against the reference,
        after both tables read the rows held."""
        table, ref = S.DerivativeRows(polys), MemberRows(polys)
        for tab in (table, ref):
            if len(held):
                tab._read(*np.divmod(np.unique(held), S._KEY))
        ns, ps = (np.array(x, dtype=np.int64) for x in zip(*pairs)) if pairs else (np.zeros(0, int),) * 2
        got = table.refined(ns, ps)
        want = [np.empty(0)] * 2
        for n in np.unique(ns):
            v, t = ref.refined(n, np.sort(ps[ns == n]))
            want = [np.append(a, b) for a, b in zip(want, (v, t))]
        order = np.lexsort((ps, ns))  # the reference runs member by member, p ascending
        assert got[0][order].tobytes() == want[0].tobytes() and got[1][order].tobytes() == want[1].tobytes()
        assert table.rows[0].tobytes() == ref.rows[0].tobytes()
        assert table.rows[1].tobytes() == ref.rows[1].tobytes()
        every = np.arange(len(polys))
        got = table.sup_norm_argmax(every)
        want = np.array([ref.sup_norm_argmax(n) for n in every]).reshape(-1, 2).T
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert table.rows[0].tobytes() == ref.rows[0].tobytes()
        assert table.rows[1].tobytes() == ref.rows[1].tobytes()
        if len(polys):
            assert table.sup_norm_argmax(0) == ref.sup_norm_argmax(0)

    @settings(max_examples=25, deadline=None)
    @example(members=[("basis", 7), ("const", 0), ("zero", 3), ("basis", 150)], seed=0, rows=3, held=0)
    @example(members=[("dirichlet", d) for d in (1, 4, 16, 100)] + [("demo", 64)], seed=1, rows=2, held=0)
    @given(
        members=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 200)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 12),
        held=st.integers(0, 20),
    )
    def test_equals_the_per_member_refinement(self, members, seed, rows, held):
        rng = np.random.default_rng(seed)
        polys = [self.member(kind, degree, rng) for kind, degree in members]
        live = np.flatnonzero([f.trimmed().degree for f in polys])
        pairs = sorted({(int(n), int(p)) for n in live for p in rng.integers(0, 40, rows)})
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]  # any order
        keys = rng.choice(live, held) * S._KEY + rng.integers(0, 40, held) if len(live) else []
        self.check(polys, pairs, keys)

    def test_demo_u_stack(self):
        polys = list(demo_u_stack())
        self.check(polys, [(n, p) for n in range(1, 65) for p in (0, 1, 5)])

    def test_stack_of_several_runs(self, monkeypatch):
        rng = np.random.default_rng(2)
        polys = [random_poly(rng, d) for d in (3, 17, 40, 90, 160, 200)]
        pairs = [(n, p) for n in range(len(polys)) for p in range(30)]
        self.check(polys, pairs)
        calls = []
        inner = S._newton_max_rows

        def spying(ts, *args):
            calls.append(len(ts))
            return inner(ts, *args)

        monkeypatch.setattr(S, "_newton_max_rows", spying)
        table = S.DerivativeRows(polys)
        ns, ps = np.repeat(np.arange(len(polys)), 30), np.tile(np.arange(30), len(polys))
        table.refined(ns, ps)
        assert len(calls) == len(list(table._runs(ns))) == 2  # Newton once per run

    def test_no_rows(self):
        self.check([random_poly(np.random.default_rng(3), 5), S.TrigPoly.const(2.0)], [])
        table = S.DerivativeRows([S.TrigPoly.dirichlet(3)])
        v, t = table.refined(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert v.shape == t.shape == (0,) and len(table.rows[0]) == 1  # only the sentinel
        v, t = table.sup_norm_argmax(np.zeros(0, dtype=int))
        assert v.shape == t.shape == (0,)


class TestMetamorphic:
    """log_ud_norms, grid and refined, shift by log|c| under f -> c f and stay put under conjugation."""

    @staticmethod
    def norms(f, ws, hs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", W.TruncationWarning)
            return np.concatenate([S.DerivativeRows([f]).log_ud_norms(ws, hs)[:, 0], S.log_ud_norms(f, ws, hs)])

    @staticmethod
    def case(degree, seed, scale):
        rng = np.random.default_rng(seed)
        f = random_poly(rng, degree).scaled(rng.lognormal(0.0, 4.0))
        if scale == "table":
            return f, W.build_weight_sequence(
                {"kind": "table", "logM": 1.5 * gammaln(np.arange(41) + 1.0)}, p_max=40
            )
        return f, W.gevrey(float(scale), 64)

    @staticmethod
    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    cases = dict(
        degree=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(["1", "1.5", "2", "table"]),
        hs=st.lists(st.sampled_from(TestSelectedRows.HS), min_size=1, max_size=8, unique=True),
    )

    @settings(max_examples=30, deadline=None)
    @given(log10_c=st.floats(-8.0, 8.0), angle=st.floats(0.0, TWO_PI), **cases)
    def test_scaling_shifts_by_log_abs_c(self, log10_c, angle, degree, seed, scale, hs):
        f, ws = self.case(degree, seed, scale)
        c = 10.0**log10_c * complex(math.cos(angle), math.sin(angle))
        want = self.norms(f, ws, hs) + math.log(abs(c))
        assert self.close(self.norms(f.scaled(c), ws, hs), want)

    @settings(max_examples=30, deadline=None)
    @given(**cases)
    def test_conjugation_leaves_values(self, degree, seed, scale, hs):
        f, ws = self.case(degree, seed, scale)
        g = S.TrigPoly(np.conj(f.coef[::-1]), f.degree)  # c_k -> conj(c_-k): g = conj(f)
        assert self.close(self.norms(g, ws, hs), self.norms(f, ws, hs))


class TestTranslation:
    """c_k -> c_k e^{ika} translates f by a: point values stay, grid values move within GRID_SLACK."""

    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), a=st.floats(0.0, TWO_PI, exclude_max=True)
    )
    def test_translation_leaves_values(self, degree, seed, a):
        f = random_poly(np.random.default_rng(seed), degree)
        g = S.TrigPoly(f.coef * np.exp(1j * a * f.support()), degree)
        assert S.sup_norm(g) == pytest.approx(S.sup_norm(f), rel=1e-12)
        ws, hs = W.gevrey(1.0, 2048), [0.25, 1.0, 8.0]
        want = S.log_ud_norms(f, ws, hs)
        assert np.all(np.abs(S.log_ud_norms(g, ws, hs) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert abs(S.DerivativeRows([g]).log_sups()[0] - S.DerivativeRows([f]).log_sups()[0]) <= S.GRID_SLACK


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
            table = S.DerivativeRows([f])
            entry = table.log_ud_norms(ws, [h])[0, 0]
            assert entry - 1e-12 <= want <= entry + S.GRID_SLACK
            log_sup, grid = float(mp.log(mp_sup(f.coef))), table.log_sups()[0]
            assert grid - 1e-12 <= log_sup <= grid + S.GRID_SLACK

    def test_bracket_lies_above_every_row(self):
        # sup_t |D^p f| <= sum_k |k|^p |c_k|, with equality for a Dirichlet kernel at even p
        rng = np.random.default_rng(17)
        ps = np.arange(1, 41)
        for f in [random_poly(rng, d) for d in (1, 3, 8)] + [S.TrigPoly.dirichlet(4)]:
            bracket = S.DerivativeRows([f])._bracket(0 * ps, ps)
            for p in (1, 2, 3, 5, 8, 13, 21, 34, 40):  # 30-digit sups are slow; every row on the grid
                assert mp_sup(f.coef, p) <= mp.exp(bracket[p - 1]) * (1 + 1e-12)
            assert np.all(grid_rows(f, ps)[0] <= bracket + 1e-9)


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


def fancy_gauge_profiles(ks, logc, ws, lams, sign):
    """gauge_profiles with its |k| gather by fancy indexing, gauge_table(...)[..., |ks|]: the same
    values on (lambda, k) rows whose k axis is strided; the reference for the np.take gather."""
    ks = np.asarray(ks)
    k_max = int(np.abs(ks).max(initial=0)) if ks.dtype.kind in "iu" else ks.size
    if k_max < ks.size:
        gauges = W.gauge_table(ws, lams, k_max)[..., np.abs(ks)]
    else:
        gauges = W.associated_gauge(ws, np.multiply.outer(np.asarray(lams, dtype=float), ks))
    return logc + sign * np.asarray(gauges)


class TestContiguousProfiles:
    """gauge_profiles returns C-ordered rows, bit for bit those of the fancy-index gather."""

    KS = {
        "int": np.arange(-512, 513),
        "int_unordered": np.array([3, -7, 0, 7, -3, 1, 1, -1, 2, 5, -5, 4, -4]),
        "int_sparse": np.array([-300, 0, 2, 300]),  # longer than ks: one gauge call, not the memo
        "float": np.linspace(-40.0, 40.0, 161),
    }

    @pytest.mark.parametrize(
        "lams", [2.0, [1.0], [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]], ids=["scalar", "one", "grid"]
    )
    @pytest.mark.parametrize("kind", list(KS))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rows_contiguous_and_bit_identical(self, ws_p1, lams, kind, sign):
        ks = self.KS[kind]
        # zeros (-inf), exact ones (log 0.0) and a spread of magnitudes
        mags = np.where(np.abs(ks) % 3 == 1, 0.0, np.where(ks == 0, 1.0, np.exp(-np.abs(ks) / 7)))
        logc = S.log_abs(mags)
        got = S.gauge_profiles(ks, logc, ws_p1, lams, sign)
        want = fancy_gauge_profiles(ks, logc, ws_p1, lams, sign)
        assert got.flags.c_contiguous
        assert got.shape == want.shape == np.shape(lams) + ks.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_scalar_logc(self, ws_p1):
        # the embedding residual's dual rows -M(H lambda k): logc 0.0 for every k
        ks, lams = np.arange(-64, 65), ws_p1.H * np.array([0.25, 1.0, 8.0])
        got = S.gauge_profiles(ks, 0.0, ws_p1, lams, -1.0)
        assert got.flags.c_contiguous
        want = fancy_gauge_profiles(ks, 0.0, ws_p1, lams, -1.0)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_coefficient_raises(self, ws_p1, bad):
        # a NaN peak kept nothing, so truncation gave the zero polynomial; a NaN in the head of a
        # coefficient profile read as bounded with margin -inf
        d = S.from_trigpoly(S.TrigPoly.from_coef({0: bad, 1: 1.0}))
        calls = [
            lambda: S.truncate_distribution(d, k_max=16),
            lambda: R.coefficient_decay_class(d, ws_p1),
            lambda: S.certify_growth(d, ws_p1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^a coefficient is not finite$"):
                call()

    def test_gauge_profiles_take_zeros_not_non_finite_coefficients(self, ws_p1):
        ks = np.arange(-4, 5)
        assert np.all(S.gauge_profiles(ks, np.full(9, -np.inf), ws_p1, [1.0, 2.0], 1.0) == -np.inf)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^a coefficient is not finite$"):
                S.gauge_profiles(ks, np.where(ks == 0, bad, 0.0), ws_p1, [1.0, 2.0], 1.0)

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
