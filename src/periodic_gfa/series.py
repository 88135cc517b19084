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
# sup norms of D^p f: grid rows, refined by golden section for point values
#
# On m >= 16N + 1 points the grid maximum of a degree-N polynomial is at
# least sqrt(1 - 2 pi^2 N^2 / m^2) times its sup (Ehlich and Zeller, Math. Z.
# 86, 1964).  With N / m < 1/16 a grid row of log sup_t |D^p f| is therefore
# short of its sup by at most GRID_SLACK.
# ---------------------------------------------------------------------------

GRID_SLACK = -0.5 * math.log(1.0 - 2.0 * math.pi**2 / 256.0)  # 0.0401


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


def _local_peaks(vals: np.ndarray, rel: float = 0.975) -> np.ndarray:
    """Indices of circular local maxima within rel of the global max; only the
    maximum of a row flat to rounding (|f| constant), whose grid maximum is its sup."""
    top = np.max(vals)
    if np.min(vals) >= top * (1.0 - 1e-12):
        return np.array([np.argmax(vals)])
    up = vals >= np.roll(vals, 1)
    down = vals >= np.roll(vals, -1)
    return np.nonzero(up & down & (vals >= rel * top))[0]


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
    spec = ifft(buf, axis=1, overwrite_x=True)  # in place: a block holds one complex array
    vals = np.abs(np.multiply(spec, m, out=spec))
    return scale + np.log(np.max(vals, axis=1)), w, scale, vals


def _refined_rows(g: TrigPoly, ps: np.ndarray):
    """Refined log sup_t |D^p g| and its argmax t for each p in ps.

    g is trimmed with degree >= 1.  Every near-top grid peak of a row is
    refined by golden section, so ties between peaks cannot hide the sup.
    """
    out, w, scale, vals = _log_sup_rows(g, ps)
    m = vals.shape[1]
    peaks = [_local_peaks(row) for row in vals]
    counts = [len(js) for js in peaks]
    rows = np.repeat(np.arange(len(ps)), counts)
    ts = TWO_PI * np.concatenate(peaks) / m
    v, t = _golden_max_rows(w[rows], g.support().astype(float), ts - TWO_PI / m, ts + TWO_PI / m)
    lv = scale[rows] + log_abs(v)
    top = np.lexsort((lv, rows))[np.cumsum(counts) - 1]  # each row's best peak
    return np.fmax(out, lv[top]), t[top] % TWO_PI


def sup_norm_argmax(f: TrigPoly):
    """(max_t |f(t)|, argmax t): row p = 0 of _refined_rows."""
    g = f.trimmed()
    if g.degree == 0:
        return abs(g.coef[0]), 0.0
    v, t = _refined_rows(g, np.zeros(1, dtype=int))
    return math.exp(v[0]), float(t[0])


def sup_norm(f: TrigPoly) -> float:
    """max_t |f(t)|, accurate to 1e-6 relative for degree <= 512."""
    return sup_norm_argmax(f)[0]


# ---------------------------------------------------------------------------
# ultradifferentiable norms, in log scale, from one row table per polynomial
# ---------------------------------------------------------------------------

class DerivativeRows:
    """The grid rows log sup_t |D^p f| of one polynomial, shared by every scale and h.

    rows[p] is the grid value of row p (_log_sup_rows) for every row a
    reduction read, and nan for a row none read; the sup lies in
    [rows[p], rows[p] + GRID_SLACK].  Each read works on one snapshot and
    publishes its new rows in one assignment, so unsynchronized use is safe.
    """

    def __init__(self, f: TrigPoly):
        self.poly = f.trimmed()
        self.rows = np.empty(0)

    def _read(self, ps: np.ndarray) -> np.ndarray:
        """Grid rows ps (distinct), evaluating those not held in blocks of at most 64."""
        held = self.rows  # one snapshot; a grown copy is published whole
        rows = np.concatenate([held, np.full(max(0, ps.max() + 1 - len(held)), np.nan)])
        miss = ps[np.isnan(rows[ps])]
        for i in range(0, len(miss), 64):
            rows[miss[i : i + 64]] = _log_sup_rows(self.poly, miss[i : i + 64])[0]
        if len(miss):
            self.rows = rows
        return rows[ps]

    def log_sup(self) -> float:
        """Grid value of log sup_t |f|, row p = 0, evaluated only if absent."""
        if self.poly.degree == 0:
            return float(log_abs(self.poly.coef)[0])
        return float(self._read(np.zeros(1, dtype=int))[0])

    def _bounds(self, ws: WeightSequence, hs, ps: np.ndarray) -> np.ndarray:
        """Each h's bound p log(hN) + log sum|c_k| - log M_p on row p's term, concave in p."""
        log_hn = np.array([[math.log(h)] for h in hs]) + math.log(self.poly.degree)
        log_sum_c = math.log(np.sum(np.abs(self.poly.coef)))
        return ps * log_hn + log_sum_c - np.asarray(ws.logM_at(ps), dtype=float)

    def log_ud_norms(self, ws: WeightSequence, hs) -> np.ndarray:
        """Grid value of log sup_p h^p ||D^p f||_inf / M_p for every h in hs, from selected rows.

        Rows 0 and every bound peak p*(hN) seed each h's value; then only the
        rows up to ws.p_cap whose bound (_bounds) reaches some h's seed are
        read.  A preset has no cap: p log(e hN) - log M_p <= M(e hN) puts every
        bound past p = log sum|c_k| - seed + M(e hN) below the seed.  Warns of
        nothing; see warn_truncated.
        """
        if any(h <= 0 for h in hs):
            raise ValueError("h must be positive")
        g = self.poly
        if g.degree == 0 or len(hs) == 0:
            return np.full(len(hs), float(log_abs(g.coef)[0]))
        log_h = np.array([[math.log(h)] for h in hs])
        hn = np.asarray(hs, dtype=float) * g.degree

        def best(qs):  # each h's largest term over the rows qs
            return (self._read(qs) + (qs * log_h - np.asarray(ws.logM_at(qs), dtype=float))).max(axis=1)

        seeds = np.unique(np.append(ws._p_star(hn, ws.p_cap), 0))
        floor = best(seeds) - 1e-9  # a row may exceed its bound by rounding
        end = ws.p_cap
        if end is None:
            gap = math.log(np.sum(np.abs(g.coef))) - floor + associated_gauge(ws, math.e * hn)
            end = max(int(np.max(gap)) + 1, seeds[-1])
        bounds = self._bounds(ws, hs, np.arange(end + 1))
        return best(np.union1d(seeds, np.nonzero(np.any(bounds >= floor[:, None], axis=0))[0]))

    def warn_truncated(self, ws: WeightSequence, hs, values) -> None:
        """A TruncationWarning for each h whose value may lie past the end of a table scale.

        Past its peak the bound decreases, so a value is final once the peak
        lies below p_max and the bound at p_max below the value.  Presets have
        no table end and never warn.
        """
        if ws.p_cap is None or self.poly.degree == 0 or len(hs) == 0:
            return
        peaks = ws._p_star(np.asarray(hs, dtype=float) * self.poly.degree, ws.p_cap)
        at_cap = self._bounds(ws, hs, np.array([ws.p_cap]))[:, 0]
        for _ in range(np.count_nonzero((peaks >= ws.p_cap) | (at_cap >= values))):
            msg = "ud norm termination not met by p_max; raise p_max"
            warnings.warn(msg, TruncationWarning, stacklevel=2)


def log_ud_norms(f: TrigPoly, ws: WeightSequence, hs) -> np.ndarray:
    """log sup_p h^p ||D^p f||_inf / M_p for every h in hs.

    The grid values of a fresh DerivativeRows, with the rows read there
    within GRID_SLACK of some h's grid value refined by _refined_rows: no
    other row can become a maximum, and an unread row's bound lies below.
    """
    table = DerivativeRows(f)
    best = table.log_ud_norms(ws, hs)
    table.warn_truncated(ws, hs, best)
    ps = np.arange(len(table.rows))
    gain = ps * np.array([[math.log(h)] for h in hs]) - np.asarray(ws.logM_at(ps), dtype=float)
    near = np.nonzero(np.any(table.rows + gain >= best[:, None] - GRID_SLACK, axis=0))[0]
    if len(near):
        best = np.maximum(best, np.max(_refined_rows(table.poly, near)[0] + gain[:, near], axis=1))
    return best


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
