"""Trigonometric polynomials and coefficient-represented distributions.

Everything computable in this package is a finitely supported Fourier
coefficient table (TrigPoly) or a coefficient oracle with a declared
growth class (CoefDistribution).  Analysis is coefficient-first;
time-domain sampling only enters through sup_norm and the quadrature
round trip.

Derivatives follow the convention D = -i d/dt, so D^p acts on
coefficients as c_k -> k^p c_k.  Norm computations that would overflow
double precision (k^p against (p!)^s) are carried out in log scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.special import logsumexp

from .verdict import DEFAULTS, GrowthVerdict, decide
from .weights import RSequence, TruncationWarning, WeightSequence, associated_gauge, modified_weights

TWO_PI = 2.0 * math.pi
_LOG_HUGE = 706.0  # just under log(DBL_MAX)


class AliasWarning(RuntimeWarning):
    """Quadrature boundary coefficients look undersampled."""


class CoefficientOverflow(OverflowError):
    """k^p c_k left the representable range; use the log-scale norm path."""


def log_abs(x) -> np.ndarray:
    """log|x| elementwise, with -inf where x is 0."""
    x = np.asarray(x)
    with np.errstate(divide="ignore"):
        return np.where(x != 0, np.log(np.abs(x)), -np.inf)


# ---------------------------------------------------------------------------
# TrigPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Finitely supported coefficient table c_k, k in [-N, N]."""

    coef: np.ndarray
    degree: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.coef, dtype=complex)
        if c.shape != (2 * self.degree + 1,):
            raise ValueError("coef must have length 2*degree + 1")
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    @classmethod
    def zero(cls, degree: int = 0) -> "TrigPoly":
        return cls(np.zeros(2 * degree + 1, dtype=complex), degree)

    @classmethod
    def const(cls, value: complex) -> "TrigPoly":
        return cls(np.array([value], dtype=complex), 0)

    @classmethod
    def basis(cls, k: int, value: complex = 1.0) -> "TrigPoly":
        """value * e^{ikt}."""
        n = abs(int(k))
        c = np.zeros(2 * n + 1, dtype=complex)
        c[k + n] = value
        return cls(c, n)

    @classmethod
    def from_coef(cls, table: dict[int, complex]) -> "TrigPoly":
        n = max((abs(int(k)) for k in table), default=0)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, v in table.items():
            c[int(k) + n] += v
        return cls(c, n)

    @classmethod
    def dirichlet(cls, n: int) -> "TrigPoly":
        """D_n = (1/2pi) sum_{|k|<=n} e^{ikt}."""
        return cls(np.full(2 * n + 1, 1.0 / TWO_PI, dtype=complex), n)

    @classmethod
    def sine(cls) -> "TrigPoly":
        return cls.from_coef({1: -0.5j, -1: 0.5j})

    @classmethod
    def cosine(cls) -> "TrigPoly":
        return cls.from_coef({1: 0.5, -1: 0.5})

    def support(self) -> np.ndarray:
        return np.arange(-self.degree, self.degree + 1)

    def coefficient(self, k):
        """c_k with zero outside the stored band; scalar or array k."""
        k = np.asarray(k)
        inside = np.abs(k) <= self.degree
        idx = np.where(inside, k + self.degree, 0)
        vals = np.where(inside, self.coef[idx], 0.0 + 0.0j)
        return complex(vals[()]) if vals.ndim == 0 else vals

    def trimmed(self) -> "TrigPoly":
        """Drop an all-zero outer band."""
        nz = np.nonzero(self.coef)[0]
        if len(nz) == 0:
            return TrigPoly.zero()
        n = int(max(abs(nz[0] - self.degree), abs(nz[-1] - self.degree)))
        c = self.coef[self.degree - n : self.degree + n + 1]
        return TrigPoly(c.copy(), n)

    def scaled(self, a: complex) -> "TrigPoly":
        return TrigPoly(self.coef * a, self.degree)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        n = max(self.degree, other.degree)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n - self.degree : n + self.degree + 1] += self.coef
        c[n - other.degree : n + other.degree + 1] += other.coef
        return TrigPoly(c, n)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return multiply(self, other)
        return self.scaled(other)

    __rmul__ = __mul__

    def __call__(self, t):
        return evaluate(self, t)


def evaluate(f: TrigPoly, t):
    """sum_k c_k e^{ikt}, vectorized over t with chunked summation."""
    t_in = np.asarray(t, dtype=float)
    scalar = t_in.ndim == 0
    tb = np.atleast_1d(t_in)
    ks = f.support()
    out = np.empty(len(tb), dtype=complex)
    chunk = max(1, 2_000_000 // max(len(ks), 1))
    for i in range(0, len(tb), chunk):
        block = tb[i : i + chunk]
        out[i : i + chunk] = np.exp(1j * np.outer(block, ks)) @ f.coef
    return complex(out[0]) if scalar else out


def derivative(f: TrigPoly, p: int = 1) -> TrigPoly:
    """D^p f with D = -i d/dt, i.e. the coefficient multiplier k^p."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        return f
    ks = f.support().astype(float)
    peak = np.max(p * log_abs(ks) + log_abs(f.coef)) if len(ks) else -np.inf
    if peak > _LOG_HUGE:
        raise CoefficientOverflow(
            f"|k|^{p} |c_k| exceeds double range; use the log-scale norm path"
        )
    return TrigPoly(f.coef * ks**p, f.degree)


# ---------------------------------------------------------------------------
# sup norms: oversampled grid plus golden-section refinement
#
# On m >= 16N + 1 points the grid maximum of a degree-N polynomial is at
# least sqrt(1 - 2 pi^2 N^2 / m^2) times its sup (Ehlich and Zeller, Math. Z.
# 86, 1964): refinement raises a log sup by at most 0.0401 < log 1.05.
# ---------------------------------------------------------------------------

_REFINE_LOG = math.log(1.05)


def _golden_max_rows(w: np.ndarray, ks: np.ndarray, lo: np.ndarray, hi: np.ndarray, iters: int = 40):
    """Golden-section maximization of |sum_k w[i,k] e^{ikt}| per row.

    Rows iterate in lockstep, in batches of at most 2^16 row coefficients;
    each step evaluates both interior points with one outer-product
    exponential.  Returns (values, ts).
    """
    chunk = max(1, (1 << 16) // max(len(ks), 1))
    if len(w) > chunk:
        parts = [
            _golden_max_rows(w[i : i + chunk], ks, lo[i : i + chunk], hi[i : i + chunk], iters)
            for i in range(0, len(w), chunk)
        ]
        return tuple(np.concatenate(x) for x in zip(*parts))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()

    def val(ts):
        return np.abs(np.einsum("ik,ik->i", w, np.exp(1j * np.outer(ts, ks))))

    best_v = val((a + b) / 2.0)
    best_t = (a + b) / 2.0
    for _ in range(iters):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        gc, gd = val(c), val(d)
        for g, t in ((gc, c), (gd, d)):
            upd = g > best_v
            best_v = np.where(upd, g, best_v)
            best_t = np.where(upd, t, best_t)
        left = gc > gd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    return best_v, best_t


def _local_peaks(vals: np.ndarray, rel: float = 0.975, cap: int = 4) -> np.ndarray:
    """Indices of circular local maxima within rel of the global max."""
    up = vals >= np.roll(vals, 1)
    down = vals >= np.roll(vals, -1)
    js = np.nonzero(up & down & (vals >= rel * np.max(vals)))[0]
    if len(js) > cap:
        js = js[np.argsort(vals[js])[-cap:]]
    return js


def _peak_brackets(vals: np.ndarray):
    """Golden-section brackets (lo, hi) around the _local_peaks of vals, a uniform grid on [0, 2 pi)."""
    m = len(vals)
    ts = TWO_PI * _local_peaks(vals) / m
    return ts - TWO_PI / m, ts + TWO_PI / m


def sup_norm_argmax(f: TrigPoly):
    """(max_t |f(t)|, argmax t) on an oversampled grid, locally refined.

    Every near-winning local maximum of the grid profile is refined by
    golden section, so ties between peaks cannot hide the true sup.
    """
    if f.degree == 0:
        return abs(f.coef[0]), 0.0
    m = next_fast_len(max(4096, 16 * f.degree + 1))
    buf = np.zeros(m, dtype=complex)
    np.add.at(buf, f.support() % m, f.coef)
    vals = np.abs(ifft(buf) * m)  # f(2 pi j / m) by a zero-padded inverse DFT
    lo, hi = _peak_brackets(vals)
    ref_v, ref_t = _golden_max_rows(np.tile(f.coef, (len(lo), 1)), f.support().astype(float), lo, hi)
    i = int(np.argmax(ref_v))
    if ref_v[i] >= np.max(vals):
        return float(ref_v[i]), float(ref_t[i] % TWO_PI)
    j = int(np.argmax(vals))
    return float(vals[j]), float(TWO_PI * j / m)


def sup_norm(f: TrigPoly) -> float:
    """max_t |f(t)|, accurate to 1e-6 relative for degree <= 512."""
    return sup_norm_argmax(f)[0]


# ---------------------------------------------------------------------------
# ultradifferentiable norms, in log scale, from one row table per polynomial
# ---------------------------------------------------------------------------

def _log_sup_rows(f: TrigPoly, ps: np.ndarray):
    """Grid values of log sup_t |D^p f| for each p in ps, unrefined.

    f is trimmed with degree >= 1, so no row vanishes.  Rows are
    normalized by their largest coefficient magnitude so the batched grid
    evaluation stays in range; the grid is 16x oversampled.  Returns the
    log grid maxima and what refining a row needs: (out, w, scale, vals).
    """
    ks = f.support().astype(float)
    # np.angle stays finite on denormals where c/|c| would not
    phases = np.where(f.coef != 0, np.exp(1j * np.angle(f.coef)), 0)
    pcol = ps[:, None].astype(float)
    with np.errstate(invalid="ignore"):
        term = pcol * log_abs(ks)[None, :]
    term[ps == 0, :] = 0.0
    logmat = log_abs(f.coef)[None, :] + term
    scale = np.max(logmat, axis=1)
    signs = np.where(ks[None, :] < 0, (-1.0) ** pcol, 1.0)
    w = np.exp(logmat - scale[:, None]) * phases[None, :] * signs

    m = next_fast_len(max(64, 16 * f.degree + 1))
    buf = np.zeros((len(ps), m), dtype=complex)
    cols = (f.support() % m).astype(int)
    buf[:, cols] = w  # distinct columns since m > 2*degree
    vals = np.abs(ifft(buf, axis=1) * m)
    return scale + np.log(np.max(vals, axis=1)), w, scale, vals


class DerivativeRows:
    """The rows log sup_t |D^p f| of one polynomial, shared by every scale and h.

    rows[0, p] is the grid value of row p (_log_sup_rows), kept for p = 0,
    1, ... as far as any reduction read; rows[1, p] is the row refined by
    golden section, nan until a reduction first finds it within log 1.05
    of its maximum.  By the grid bound no other row can become a maximum,
    so every value is the one a fresh table gives.  A reduction works on
    its own snapshot and publishes its new rows in one assignment, so
    unsynchronized use is safe.
    """

    def __init__(self, f: TrigPoly):
        self.poly = f.trimmed()
        self.rows = np.empty((2, 0))

    def _refined(self, rows: np.ndarray, ps: np.ndarray, held: dict) -> np.ndarray:
        """rows with the rows ps refined, all in one golden-section batch.

        held[p] = (w, scale, brackets) of a row p this reduction evaluated;
        a row that an earlier reduction evaluated is evaluated again here.
        """
        again = np.array([p for p in ps if p not in held], dtype=int)
        for i in range(0, len(again), 64):
            block = again[i : i + 64]
            _, w, scale, vals = _log_sup_rows(self.poly, block)
            held.update((p, (w[j], scale[j], _peak_brackets(vals[j]))) for j, p in enumerate(block))
        w, scale, brackets = zip(*(held[p] for p in ps))
        counts = [len(lo) for lo, _ in brackets]
        lo, hi = (np.concatenate(x) for x in zip(*brackets))
        ref_v, _ = _golden_max_rows(np.repeat(w, counts, axis=0), self.poly.support().astype(float), lo, hi)
        rows = rows.copy()
        rows[1, ps] = rows[0, ps]
        for i, v in zip(np.repeat(np.arange(len(ps)), counts), ref_v):
            if v > 0:
                rows[1, ps[i]] = max(rows[1, ps[i]], scale[i] + math.log(v))
        return rows

    def log_ud_norms(self, ws: WeightSequence, hs) -> np.ndarray:
        """log sup_p h^p ||D^p f||_inf / M_p for every h in hs, in one pass over p.

        The rows are read in blocks and evaluated on the grid where the
        table ends.  An h stops once the bound h^p ||D^p f|| <= (h k_eff)^p
        sum|c_k|, decreasing past its peak, falls below its running grid
        maximum, or warns at the table end.  Then the rows within log 1.05
        of some h's grid maximum are refined; a new row near its block's
        running maximum keeps what refining it needs from its evaluation.
        """
        if any(h <= 0 for h in hs):
            raise ValueError("h must be positive")
        g = self.poly
        lc = log_abs(g.coef)
        if g.degree == 0 or len(hs) == 0:
            return np.full(len(hs), float(lc[0]))
        log_sum_c = float(logsumexp(lc[np.isfinite(lc)]))
        log_h = np.array([[math.log(h)] for h in hs])
        log_hk = np.array([[math.log(h) + math.log(g.degree)] for h in hs])
        table_cap = None if ws.gevrey_s is not None else ws.p_max
        peaks = np.array([ws._p_star(h * g.degree, table_cap)[0] for h in hs])
        caps = peaks + 4096 if table_cap is None else np.full(len(hs), table_cap)

        table, grown, held = self.rows, [], {}
        best, ends = np.full(len(hs), -np.inf), np.zeros(len(hs), dtype=int)
        live, p0 = np.ones(len(hs), dtype=bool), 0
        while live.any():
            # reach just past the largest live bound peak, then step in short blocks
            block = min(64, max(8, peaks[live].max() + 17 - p0))
            ps = np.arange(p0, min(p0 + block, caps[live].max() + 1))
            new = ps[ps >= table.shape[1]]
            grid = table[0, ps[ps < table.shape[1]]]
            if len(new):
                out, w, scale, vals = _log_sup_rows(g, new)
                grown.append(out)
                grid = np.concatenate([grid, out])
            logM = np.asarray(ws.logM_at(ps), dtype=float)
            reads = live[:, None] & (ps <= caps[:, None])
            terms = np.where(reads, grid + (ps * log_h - logM), -np.inf)
            best = np.maximum(best, terms.max(axis=1))
            bounds = ps * log_hk + log_sum_c - logM
            done = np.any(reads & (ps > peaks[:, None]) & (bounds < best[:, None]), axis=1)
            for _ in range(np.count_nonzero(live & ~done & (ps[-1] >= caps))):
                msg = "ud norm termination not met by p_max; raise p_max"
                warnings.warn(msg, TruncationWarning, stacklevel=2)
            ends = np.where(live, ps[-1] + 1, ends)  # h reads the rows p < ends[h]
            live &= ~done & (ps[-1] < caps)
            near = np.any(terms >= best[:, None] - _REFINE_LOG, axis=0)[len(ps) - len(new) :]
            for i in np.nonzero(near)[0]:  # a copy, so the block is freed before the next
                held[new[i]] = (w[i].copy(), scale[i], _peak_brackets(vals[i]))
            w = vals = None
            p0 = ps[-1] + 1

        rows = table
        if grown:
            grid = np.concatenate(grown)
            rows = np.concatenate([table, [grid, np.full(len(grid), np.nan)]], axis=1)
        ps = np.arange(ends.max())
        gain = np.where(ps < ends[:, None], ps * log_h - np.asarray(ws.logM_at(ps), dtype=float), -np.inf)
        near = np.any(rows[0, : len(ps)] + gain >= best[:, None] - _REFINE_LOG, axis=0)
        fresh = np.nonzero(near & np.isnan(rows[1, : len(ps)]))[0]
        if len(fresh):
            rows = self._refined(rows, fresh, held)
        if rows is not table:
            self.rows = rows
        return np.max(np.fmax(*rows[:, : len(ps)]) + gain, axis=1)


def log_ud_norms(f: TrigPoly, ws: WeightSequence, hs) -> np.ndarray:
    """log sup_p h^p ||D^p f||_inf / M_p for every h in hs; see DerivativeRows."""
    return DerivativeRows(f).log_ud_norms(ws, hs)


def log_ud_norm(f: TrigPoly, ws: WeightSequence, h: float = 1.0) -> float:
    """log sup_p h^p ||D^p f||_inf / M_p; see log_ud_norms."""
    return float(log_ud_norms(f, ws, [h])[0])


def ud_norm(f: TrigPoly, ws: WeightSequence, h: float = 1.0) -> float:
    """sup_p h^p ||D^p f||_inf / M_p (may overflow to inf; see log_ud_norm)."""
    v = log_ud_norm(f, ws, h)
    return math.exp(v) if v < _LOG_HUGE else math.inf


def ud_norm_rj(f: TrigPoly, ws: WeightSequence, rs: RSequence) -> float:
    """sup_p ||D^p f||_inf / (M_p prod_{j<=p} r_j)."""
    return ud_norm(f, modified_weights(ws, rs))


# ---------------------------------------------------------------------------
# quadrature, convolution, multiplication
# ---------------------------------------------------------------------------

def fourier_coefficients(fn: Callable, n: int) -> TrigPoly:
    """Coefficients (1/2pi) int_0^{2pi} f(t) e^{-ikt} dt by the rectangle rule.

    Uses 2n + 2 uniform points, which is exact to roundoff for
    trigonometric polynomials of degree <= n by discrete orthogonality.
    """
    m = 2 * n + 2
    t = TWO_PI * np.arange(m) / m
    try:
        samples = np.asarray(fn(t), dtype=complex)
        if samples.shape != t.shape:
            raise TypeError
    except TypeError:
        samples = np.array([fn(x) for x in t], dtype=complex)
    spec = fft(samples) / m
    ks = np.arange(-n, n + 1)
    coef = spec[ks % m]
    peak = float(np.max(np.abs(coef))) if len(coef) else 0.0
    if peak > 0 and max(abs(coef[0]), abs(coef[-1])) > 0.5 * peak:
        warnings.warn(
            "boundary coefficients are large; input may exceed degree n",
            AliasWarning,
            stacklevel=2,
        )
    return TrigPoly(coef, n)


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product via the Cauchy product of coefficient tables."""
    return TrigPoly(np.convolve(f.coef, g.coef), f.degree + g.degree)


# ---------------------------------------------------------------------------
# coefficient distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefDistribution:
    """A coefficient oracle k -> c(k) with a declared growth class.

    growth_lambda is a lambda for which the weighted sup
    sup_k |c(k)| e^{-M(lambda k)} is finite; cls records whether the
    object is treated as Beurling or Roumieu class downstream.
    """

    oracle: Callable[[np.ndarray], np.ndarray]
    tag: str
    cls: str = "roumieu"
    growth_lambda: float = 1.0
    label: str = ""
    params: dict[str, Any] = field(default_factory=dict)

    def coefficients(self, ks) -> np.ndarray:
        ks = np.atleast_1d(np.asarray(ks))
        return np.asarray(self.oracle(ks), dtype=complex)

    def scaled(self, a: complex) -> "CoefDistribution":
        return CoefDistribution(
            oracle=lambda ks, _o=self.oracle: np.asarray(_o(ks)) * a,
            tag=self.tag,
            cls=self.cls,
            growth_lambda=self.growth_lambda,
            label=f"{a}*{self.label}",
            params=dict(self.params),
        )


def delta(cls: str = "roumieu") -> CoefDistribution:
    """The Dirac comb normalisation: constant coefficients 1/2pi."""
    return CoefDistribution(
        oracle=lambda ks: np.full(len(ks), 1.0 / TWO_PI, dtype=complex),
        tag="delta",
        cls=cls,
        growth_lambda=1.0,
        label="delta",
    )


def cot_reg(cls: str = "roumieu") -> CoefDistribution:
    """Regularized cotangent: c(0) = i and c(-2k) = 2i for k >= 1."""

    def oracle(ks):
        ks = np.asarray(ks)
        vals = np.where((ks < 0) & (ks % 2 == 0), 2.0j, 0.0 + 0.0j)
        return np.where(ks == 0, 1.0j, vals)

    return CoefDistribution(
        oracle=oracle, tag="cot_reg", cls=cls, growth_lambda=1.0, label="cot_reg"
    )


def exp_decay(mu: float, cls: str = "roumieu") -> CoefDistribution:
    """Geometric coefficient decay c(k) = e^{-mu |k|} (a smooth-class function)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return CoefDistribution(
        oracle=lambda ks: np.exp(-mu * np.abs(np.asarray(ks, dtype=float))).astype(complex),
        tag="exp_decay",
        cls=cls,
        growth_lambda=1.0,
        label=f"exp_decay:{mu:g}",
        params={"mu": mu},
    )


def exp_growth(lam: float, ws: WeightSequence, cls: str = "beurling") -> CoefDistribution:
    """Gauge-rate coefficient growth c(k) = e^{M(lambda k)} (a proper ultradistribution).

    Values saturate at 1e300 so that wide sweeps stay inside double
    range; the saturated region only ever makes growth verdicts fail
    harder.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")

    def oracle(ks):
        gauge = np.asarray(associated_gauge(ws, lam * np.asarray(ks, dtype=float)))
        return np.exp(np.minimum(gauge, 690.7)).astype(complex)

    return CoefDistribution(
        oracle=oracle,
        tag="exp_growth",
        cls=cls,
        growth_lambda=lam,
        label=f"exp_growth:{lam:g}",
        params={"lambda": lam, "weights": ws.label},
    )


def from_trigpoly(f: TrigPoly, cls: str = "roumieu", label: str = "table") -> CoefDistribution:
    return CoefDistribution(
        oracle=lambda ks, _f=f: _f.coefficient(np.asarray(ks)),
        tag="table",
        cls=cls,
        growth_lambda=1.0,
        label=label,
        params={"degree": f.degree},
    )


def truncate_distribution(
    dist: CoefDistribution, k_max: int = DEFAULTS.k_max, floor_rel: float = 1e-16
):
    """Degree-limited TrigPoly view of an oracle with a recorded tail estimate.

    Coefficients below floor_rel of the peak are dropped (they cannot
    affect double-precision norms); the tail estimate extrapolates the
    boundary decay geometrically when it is decaying, else reports the
    boundary magnitude.
    """
    ks = np.arange(-k_max, k_max + 1)
    vals = dist.coefficients(ks)
    mags = np.abs(vals)
    peak = float(np.max(mags)) if len(mags) else 0.0
    if peak == 0.0:
        return TrigPoly.zero(), 0.0
    keep = mags >= floor_rel * peak
    if not np.any(keep):
        return TrigPoly.zero(), 0.0
    idx = np.nonzero(keep)[0]
    n = int(max(abs(ks[idx[0]]), abs(ks[idx[-1]])))
    poly = TrigPoly(vals[k_max - n : k_max + n + 1].copy(), n)
    edge = float(max(mags[k_max - n], mags[k_max + n]))
    inner = float(max(mags[k_max - n + 1], mags[k_max + n - 1])) if n >= 1 else edge
    if inner > 0 and edge < inner:
        rho = edge / inner
        tail = 2.0 * edge * rho / (1.0 - rho)
    else:
        tail = float(np.max(np.abs(dist.coefficients(np.array([-(n + 1), n + 1])))))
    return poly, tail


def convolve(f, g):
    """Convolution on the coefficient side: c(k) = 2pi fhat(k) ghat(k).

    Returns a TrigPoly when either factor is one (finite support wins),
    otherwise a CoefDistribution whose declared growth rate combines the
    factors' rates conservatively.
    """
    if isinstance(f, TrigPoly) and isinstance(g, TrigPoly):
        n = min(f.degree, g.degree)
        ks = np.arange(-n, n + 1)
        return TrigPoly(TWO_PI * f.coefficient(ks) * g.coefficient(ks), n)
    if isinstance(f, TrigPoly):
        f, g = g, f
    if isinstance(g, TrigPoly):
        ks = np.arange(-g.degree, g.degree + 1)
        return TrigPoly(TWO_PI * f.coefficients(ks) * g.coefficient(ks), g.degree)
    lam = 4.0 * max(f.growth_lambda, g.growth_lambda)  # covers H <= 4 (Gevrey s <= 2)
    return CoefDistribution(
        oracle=lambda ks: TWO_PI * f.coefficients(ks) * g.coefficients(ks),
        tag="table" if "table" in (f.tag, g.tag) else f.tag,
        cls=f.cls,
        growth_lambda=lam,
        label=f"({f.label})*({g.label})",
    )


# ---------------------------------------------------------------------------
# weighted coefficient seminorms
# ---------------------------------------------------------------------------

def _coef_arrays(c, k_max: int):
    if isinstance(c, TrigPoly):
        return c.support(), c.coef, False
    if isinstance(c, CoefDistribution):
        ks = np.arange(-k_max, k_max + 1)
        return ks, c.coefficients(ks), True
    if isinstance(c, dict):
        ks = np.array(sorted(c), dtype=int)
        return ks, np.array([c[k] for k in ks], dtype=complex), False
    ks, vals = c
    return np.asarray(ks), np.asarray(vals, dtype=complex), False


def gauge_profiles(ks, logc, ws: WeightSequence, lams, sign: float) -> np.ndarray:
    """Rows logc + sign * M(lambda |k|), one per lambda in lams, from one gauge call."""
    gauges = associated_gauge(ws, np.multiply.outer(np.asarray(lams, dtype=float), ks))
    return logc + sign * np.asarray(gauges)


def coefficient_verdict(
    ks, logc, ws: WeightSequence, lams, q: str, sign: float, tau: float, grid
) -> GrowthVerdict:
    """Decide the rows of gauge_profiles with quantifier q over lambda.

    Every row is folded to |k| ascending, and the witness is the
    frequency |k| where the decisive row escapes.
    """
    rows = gauge_profiles(ks, logc, ws, lams, sign)
    return decide([rows], "forall", q, tau, grid, "coefficient", ks=ks)


def log_coef_seminorms(
    c,
    ws: WeightSequence,
    lams,
    sign: str = "plus",
    k_max: int = DEFAULTS.k_max,
) -> np.ndarray:
    """log sup_k |c_k| e^{+/- M(lambda k)} over the stored or swept support, per lambda.

    sign='plus' is the smooth-class seminorm, sign='minus' the dual one.
    Oracle-backed inputs are swept over |k| <= k_max, with a
    TruncationWarning for each lambda whose profile is still rising at
    the boundary.
    """
    if any(lam <= 0 for lam in lams):
        raise ValueError("lambda must be positive")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    ks, vals, swept = _coef_arrays(c, k_max)
    if len(ks) == 0:
        return np.full(len(lams), -np.inf)
    profs = gauge_profiles(ks, log_abs(vals), ws, lams, 1.0 if sign == "plus" else -1.0)
    if swept and len(ks) > 16:
        half = len(ks) // 4
        head = np.max(profs[:, half:-half], axis=1)
        tail = np.maximum(np.max(profs[:, :half], axis=1), np.max(profs[:, -half:], axis=1))
        for _ in range(np.count_nonzero(tail > head + 1e-9)):
            msg = "weighted coefficient profile still rising at k_max"
            warnings.warn(msg, TruncationWarning, stacklevel=2)
    return np.max(profs, axis=1)


def log_coef_seminorm(
    c,
    ws: WeightSequence,
    lam: float,
    sign: str = "plus",
    k_max: int = DEFAULTS.k_max,
) -> float:
    """log sup_k |c_k| e^{+/- M(lambda k)}; see log_coef_seminorms."""
    return float(log_coef_seminorms(c, ws, [lam], sign, k_max)[0])


def coef_seminorm(c, ws, lam, sign="plus", k_max=DEFAULTS.k_max) -> float:
    v = log_coef_seminorm(c, ws, lam, sign, k_max)
    if v == -np.inf:
        return 0.0
    return math.exp(v) if v < _LOG_HUGE else math.inf


def certify_growth(
    dist: CoefDistribution,
    ws: WeightSequence,
    k_max: int = DEFAULTS.k_max,
    tau: float = DEFAULTS.tau,
):
    """Check the declared class: the dual-seminorm profile at growth_lambda stays bounded."""
    ks = np.arange(-k_max, k_max + 1)
    return coefficient_verdict(
        ks, log_abs(dist.coefficients(ks)), ws, [dist.growth_lambda], "forall", -1.0, tau,
        {"lambda": dist.growth_lambda, "mode": "sigma_prime", "k_max": k_max},
    )
