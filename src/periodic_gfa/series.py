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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .verdict import DEFAULTS, GrowthVerdict, decide
from .weights import (
    RSequence, TruncationWarning, WeightSequence, associated_gauge, gauge_table, modified_weights,
)

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
# sup norms of D^p f: grid rows, refined by Newton steps for point values
#
# On m >= 16N + 1 points the grid maximum of a degree-N polynomial is at
# least sqrt(1 - 2 pi^2 N^2 / m^2) times its sup (Ehlich and Zeller, Math. Z.
# 86, 1964).  With N / m < 1/16 a grid row of log sup_t |D^p f| is therefore
# short of its sup by at most GRID_SLACK.
# ---------------------------------------------------------------------------

GRID_SLACK = -0.5 * math.log(1.0 - 2.0 * math.pi**2 / 256.0)  # 0.0401


def _newton_max_rows(ts: np.ndarray, w: np.ndarray, rows: np.ndarray, ks: np.ndarray, half):
    """Newton maximization of |g_i(t)|, g_i(t) = sum_k w[rows[i],k] e^{ikt} over ks = -D..D, from t0 = ts[i].

    With phi = |g|^2, phi' = 2 Re(conj(g) g') and phi'' = 2 (|g'|^2 + Re(conj(g) g'')),
    where g' and g'' are the coefficient multipliers ik and -k^2.  A step
    t <- t - phi'/phi'' is taken only where phi'' < 0 and is clamped to
    [t0 - half, t0 + half]; the best |g| evaluated, t0's included, stands.  A t
    that is a fixed point stops; e^{-ikt} is taken as conj(e^{ikt}), and the t0
    run in chunks of about 2^13 (t0, k) cells.  Returns (values, ts).
    """
    d = len(ks) // 2
    mults = np.stack([np.ones_like(ks), 1j * ks, -ks * ks])
    best, arg = np.full(len(ts), -1.0), np.array(ts, dtype=float)
    lo, hi = ts - half, ts + half
    chunk = max(1, (1 << 13) // len(ks))
    for start in range(0, len(ts), chunk):
        live = np.arange(start, min(start + chunk, len(ts)))
        t = ts[live]
        for step in range(7):  # t0 and six steps
            e = np.exp(1j * np.outer(t, ks[d:]))
            terms = w[rows[live]]  # times e^{ikt} in one multiply: numpy rounds a 1-element one apart
            np.multiply(terms, np.concatenate([np.conj(e[:, :0:-1]), e], axis=1), out=terms)
            g, g1, g2 = np.einsum("ik,jk->ji", terms, mults)
            v = np.abs(g)
            up = v > best[live]
            best[live[up]], arg[live[up]] = v[up], t[up]
            if step == 6:
                break
            d1 = np.real(np.conj(g) * g1)  # phi'/2 and phi''/2
            d2 = np.abs(g1) ** 2 + np.real(np.conj(g) * g2)
            nxt = np.clip(t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0), lo[live], hi[live])
            moving = nxt != t
            live, t = live[moving], nxt[moving]
            if len(live) == 0:
                break
    return best, arg


def _local_peaks(vals: np.ndarray, rel: float = 0.975) -> np.ndarray:
    """Flat indices of the circular local maxima of each row of vals within rel of the row's max;
    of a row flat to rounding (|f| constant), whose grid maximum is its sup, only that maximum."""
    rows = np.atleast_2d(vals)
    top = np.max(rows, axis=1, keepdims=True)
    near = rows >= rel * top
    flat = np.flatnonzero(np.min(rows, axis=1) >= top[:, 0] * (1.0 - 1e-12))
    near[flat] = False
    near[flat, np.argmax(rows[flat], axis=1)] = True  # a maximum, so a local one
    i, j = np.nonzero(near)
    m = rows.shape[1]
    v = rows[i, j]
    keep = (v >= rows[i, j - 1]) & (v >= rows[i, (j + 1) % m])
    return i[keep] * m + j[keep]


def _weights(coef: np.ndarray, ps: np.ndarray, rows):
    """Rows w[i] = k^p c_k / exp(scale[i]) of D^p f over k = -D..D for each p in ps and
    f = coef[rows[i]], scaled by their largest coefficient magnitude: (w, scale)."""
    half = coef.shape[1] // 2
    ks = np.arange(-half, half + 1)
    pcol = ps[:, None].astype(float)
    with np.errstate(invalid="ignore"):
        logmat = pcol * log_abs(ks.astype(float))[None, :]
    logmat[ps == 0, :] = 0.0
    logmat = log_abs(coef)[rows] + logmat
    scale = np.max(logmat, axis=1)
    logmat -= scale[:, None]  # in place: a run's weights are the largest arrays of a read
    # np.angle stays finite on denormals where c/|c| would not
    w = np.exp(logmat, out=logmat) * np.where(coef != 0, np.exp(1j * np.angle(coef)), 0)[rows]
    w *= np.where(ks[None, :] < 0, (-1.0) ** pcol, 1.0)
    return w, scale


def _log_sup_rows(coef: np.ndarray, ps: np.ndarray, blocks, rows=0):
    """Grid values of log sup_t |D^p f| for each p in ps and f = coef[rows[i]], unrefined.

    coef holds polynomials of degree >= 1 (so no row vanishes) over k = -D..D.  The weights
    (_weights) are set up once for all rows; the rows then run in blocks (stop, m, d), the
    rows up to stop cut to k = -d..d, their largest degree, on m > 2d points, so zero padding
    changes no value.  Returns the log grid maxima and what refining a one-block call needs:
    (out, w, scale, vals), vals the last block's grid values.
    """
    w, scale = _weights(coef, ps, rows)
    half, out, start = coef.shape[1] // 2, np.empty(len(ps)), 0
    for stop, m, d in blocks:
        vals = _grid_abs(w[start:stop, half - d : half + d + 1], m)
        out[start:stop], start = np.log(np.max(vals, axis=1)), stop
    return scale + out, w, scale, vals


def _grid_abs(w: np.ndarray, m: int) -> np.ndarray:
    """|sum_k w[i,k] e^{ikt}| at t = 2 pi j / m, j < m, for w over k = -d..d and m > 2d.
    A function of its own, so a block's buffer is freed before the next one's is made."""
    d = w.shape[1] // 2
    buf = np.zeros((len(w), m), dtype=complex)
    buf[:, : d + 1], buf[:, m - d :] = w[:, d:], w[:, :d]  # k = 0..d, then k = -d..-1 (m > 2d)
    spec = ifft(buf, axis=1, overwrite_x=True)  # in place: a block holds one complex array
    return np.abs(np.multiply(spec, m, out=spec))


# ---------------------------------------------------------------------------
# ultradifferentiable norms, in log scale, from one row table per net
# ---------------------------------------------------------------------------

_KEY = 1 << 32  # row p of member n is held under the key n * _KEY + p
_RUN = 1 << 14  # (row, |k|) entries of the weights set up at once
_LADDER = np.unique(np.rint(1.5 ** np.arange(100))).astype(np.int64)  # chord knots 1, 2, 3, 5, 8, 11, 17, ...
_SLACK = 1e-6  # the interval stage's allowance for rounding, its regularization's too (see log_ud_norms)


class DerivativeRows:
    """The grid rows log sup_t |D^p f_n| of a stack f_0, f_1, ..., shared by every scale and h.

    f_n is read on m[n] = next_fast_len(max(64, 16 N_n + 1)) points.  rows holds the sorted
    keys of the rows read, closed by a sentinel, and their grid values; the sup lies in
    [value, value + GRID_SLACK].  Each read works on one snapshot and publishes its new rows
    in one assignment, so unsynchronized use is safe.  A coefficient that is not finite
    raises ValueError.
    """

    def __init__(self, polys):
        self.polys = [f.trimmed() for f in polys]
        if not np.isfinite(np.concatenate([g.coef for g in self.polys])).all():
            raise ValueError("a coefficient is not finite")
        self.degree = np.array([g.degree for g in self.polys], dtype=np.int64)
        self.m = np.array([next_fast_len(max(64, 16 * d + 1)) for d in self.degree])
        self.log_c0 = log_abs(np.array([g.coef[0] for g in self.polys]))  # the value at degree 0
        self.log_n = np.array([math.log(max(d, 1)) for d in self.degree])  # math.log, as for one f
        self.log_sum_c = np.array([math.log(np.sum(np.abs(g.coef)) or 1.0) for g in self.polys])
        self.rows = (np.array([np.iinfo(np.int64).max]), np.full(1, np.nan))

    def _padded(self, ns: np.ndarray):
        """Members ns (degree >= 1, repeats adjacent) once each, padded to k = -D..D, and each one's row."""
        new = np.concatenate([[True], ns[1:] != ns[:-1]])
        uniq, big = ns[new], self.degree[ns].max()
        pad = np.zeros((len(uniq), 2 * big + 1), dtype=complex)
        for row, n in zip(pad, uniq):
            row[big - self.degree[n] : big + self.degree[n] + 1] = self.polys[n].coef
        return pad, np.cumsum(new) - 1

    def _runs(self, ns: np.ndarray):
        """The FFT blocks of rows of members ns (ascending): one group per grid length, in blocks of 64
        rows or 2^16 points, whichever is more.  Whole blocks gather into runs of at most _RUN
        (row, |k|) entries, a larger block alone; yields each run's rows and blocks (stop, m, d)."""
        if len(ns) == 0:
            return
        order = np.argsort(self.m[ns], kind="stable")  # by grid length, ns ascending within one
        ms = self.m[ns[order]].tolist()
        edges = np.flatnonzero(np.diff(ms, prepend=-1)).tolist() + [len(ms)]  # each group's bounds
        starts = [i for a, b in zip(edges, edges[1:]) for i in range(a, b, max(64, (1 << 16) // ms[a]))]
        degrees = np.maximum.reduceat(self.degree[ns[order]], starts).tolist()
        first, top, blocks = 0, 0, []
        for lo, hi, d in zip(starts, starts[1:] + [len(ms)], degrees):
            if blocks and (hi - first) * (max(top, d) + 1) > _RUN:
                yield order[first:lo], blocks
                first, top, blocks = lo, 0, []
            top = max(top, d)
            blocks.append((hi - first, ms[lo], d))
        yield order[first:], blocks

    def _read(self, ns: np.ndarray, ps: np.ndarray, fresh: np.ndarray | None = None) -> np.ndarray:
        """Grid rows (ns[i], ps[i]) (distinct, ns ascending, degree >= 1); unless fresh holds them,
        those not held run in the blocks of _runs, weights set up once per run."""
        keys, vals = self.rows  # one snapshot; a merged copy is published whole
        want = ns * _KEY + ps
        at = np.searchsorted(keys, want)
        got, miss = vals[at], np.flatnonzero(keys[at] != want)
        if fresh is not None:
            got[miss] = fresh[miss]
        else:
            for run, blocks in self._runs(ns[miss]):
                i = miss[run]
                pad, rows = self._padded(ns[i])
                got[i] = _log_sup_rows(pad, ps[i], blocks, rows)[0]
        if len(miss):
            keys, vals = np.append(keys, want[miss]), np.append(vals, got[miss])
            order = np.argsort(keys, kind="stable")
            self.rows = (keys[order], vals[order])
        return got

    def refined(self, ns, ps):
        """Refined log sup_t |D^p f_n| and its argmax t for each pair (ns[i], ps[i]), degree >= 1;
        a scalar n or p pairs with every entry of the other.

        Every near-top grid peak of a row is refined by _newton_max_rows, so ties between peaks
        cannot hide the sup; a value is never below the grid value.  The rows run in the blocks
        of _runs, Newton once per run with the peaks padded to its k = -D..D, and every row is
        published in one _read.
        """
        want = np.ravel(np.asarray(ns, dtype=np.int64) * _KEY + np.asarray(ps))
        keys, back = np.unique(want, return_inverse=True)
        ns, ps = np.divmod(keys, _KEY)
        grid, out, arg = np.empty(len(ps)), np.empty(len(ps)), np.empty(len(ps))
        for run, blocks in self._runs(ns):
            pad, rows = self._padded(ns[run])
            start, parts = 0, []
            for stop, m, d in blocks:
                block, lo, hi = run[start:stop], rows[start], rows[stop - 1] + 1  # its members: pad[lo:hi]
                grid[block], w, scale, vals = _log_sup_rows(
                    pad[lo:hi], ps[block], [(len(block), m, d)], rows[start:stop] - lo
                )
                i, j = np.divmod(_local_peaks(vals), m)
                parts.append((w, scale, start + i, TWO_PI * j / m, np.full(len(j), TWO_PI / m)))
                start = stop
            w, scale, at, ts, half = map(np.concatenate, zip(*parts))
            big = pad.shape[1] // 2
            v, t = _newton_max_rows(ts, w, at, np.arange(-big, big + 1).astype(float), half)
            lv = scale[at] + log_abs(v)
            top = np.lexsort((lv, at))[np.cumsum(np.bincount(at)) - 1]  # each row's best peak
            out[run], arg[run] = np.fmax(grid[run], lv[top]), t[top] % TWO_PI
        self._read(ns, ps, grid)
        return out[back], arg[back]

    def sup_norm_argmax(self, ns):
        """(max_t |f_n(t)|, argmax t) for each n in ns, floats for a scalar n: row p = 0, refined."""
        ns = np.asarray(ns)
        flat = ns.ravel()
        live = self.degree[flat] > 0
        vals, args = np.empty(len(flat)), np.zeros(len(flat))
        v, args[live] = self.refined(flat[live], 0)
        vals[live] = [math.exp(x) for x in v]
        vals[~live] = [abs(self.polys[n].coef[0]) for n in flat[~live]]
        return (float(vals[0]), float(args[0])) if ns.ndim == 0 else (vals, args)

    def log_sups(self) -> np.ndarray:
        """Grid values of log sup_t |f_n| for every n: row p = 0, evaluated only where absent."""
        live, out = np.flatnonzero(self.degree), self.log_c0.copy()
        out[live] = self._read(live, np.zeros_like(live))
        return out

    def _bounds(self, ws: WeightSequence, log_h: np.ndarray, ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """Each h's bound p log(hN) + log sum|c_k| - log M_p on row (ns[i], ps[i])'s term, concave in p."""
        return ps * (log_h + self.log_n[ns]) + self.log_sum_c[ns] - np.asarray(ws.logM_at(ps), dtype=float)

    def _bracket(self, ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """log sum_k |k|^p |c_k| >= sup_t |D^p f_n| per row (ns[i], ps[i]), p >= 1, in 2^14-entry blocks."""
        out = np.empty(len(ps))
        log_k = np.log(np.arange(1.0, self.degree[ns].max(initial=1) + 1))
        chunk = max(1, (1 << 14) // len(log_k))
        for i in range(0, len(ps), chunk):
            c, rows = self._padded(ns[i : i + chunk])
            half = c.shape[1] // 2
            pair = np.abs(c[:, half + 1 :]) + np.abs(c[:, half - 1 :: -1])  # |k| = 1..half
            terms = ps[i : i + chunk, None] * log_k[:half] + log_abs(pair)[rows]
            top = terms.max(axis=1)
            out[i : i + chunk] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        return out

    def _ends(self, ws: WeightSequence, live: np.ndarray, hn: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """Each live member's last row: ws.p_cap, or for a preset the p past which every bound lies
        below its floor, as p log(e hN) - log M_p <= M(e hN), and past the bound's peak p*(hN).
        No row from _KEY on can be held: past the peak (below _KEY) the bound decreases, so if it
        lies below every floor at _KEY, an end past _KEY - 1 stops there; else ValueError."""
        if ws.p_cap is not None:
            return np.full(len(live), ws.p_cap)
        gap = np.max(self.log_sum_c[live] - floor + associated_gauge(ws, math.e * hn), axis=0)
        if np.max(gap) >= _KEY - 1:
            if np.any(_KEY * np.log(hn) + self.log_sum_c[live] - ws.logM_at(_KEY) >= floor):
                raise ValueError("h is too large: rows past 2^32 may reach the floor")
            gap = np.minimum(gap, _KEY - 2)
        return np.maximum(gap.astype(np.int64) + 1, np.max(ws._p_star(hn), axis=0))

    def log_ud_norms(self, ws: WeightSequence, hs) -> np.ndarray:
        """Grid value of log sup_p h^p ||D^p f_n||_inf / M_p for each h in hs (rows) and n (columns).

        Per f_n, rows 0 and every bound peak p*(hN) seed each h's value (its floor).  Of its other
        rows up to _ends, those read have a bracket B_p (_bracket), which lies above the row, that
        reaches some h's floor.  Two stages find them.  First, per h and _LADDER segment a..z (z
        before the next knot, or the end), the cheap bound (_bounds) and the chord of B_p between
        the knots a and b (the next knot, or the end) each ask y + v p - log M_p >= 0 with log M_p
        replaced by its log-convex regularization (a table's WeightSequence.hull, a preset's own):
        that lies below log M_p, so each test stays an upper test, and is convex, so each is concave.
        B_p is a log-sum-exp of functions linear in p, so convex: it lies below its chord, and the
        chord below the bound's line.  A pair is kept if its bound reaches the floor at its
        maximiser, one _bracket call gives B at the kept knots, and bisection from each kept pair's
        maximiser bounds the rows its chord passes.  Then one _bracket call tests those rows.  The
        1e-9 slacks of the floor and the chord cover rounding of a few eps (|B_p| + log M_p): about
        1e-10 where presets end at degree 384 and h = 8 (p ~ e h N ~ 8,350, |B_p| ~ 5e4), under 1e-9
        while both stay below 1e6.  _SLACK covers the first stage's, the hull's included.  Warns of
        nothing; see warn_truncated.  Raises ValueError unless every h is finite and positive, and
        for an h so large that p*(hN) or a row that may reach the floor lies at 2^32 or past.
        """
        if not all(math.isfinite(h) and h > 0 for h in hs):
            raise ValueError("h must be finite and positive")
        out, live = np.tile(self.log_c0, (len(hs), 1)), np.flatnonzero(self.degree)
        if len(live) == 0 or len(hs) == 0:
            return out
        log_h = np.array([[math.log(h)] for h in hs])
        hn = np.multiply.outer(np.asarray(hs, dtype=float), self.degree[live])

        def best(keys):  # each h's largest term over the rows keys, per member
            ns, ps = np.divmod(keys, _KEY)
            terms = self._read(ns, ps) + (ps * log_h - np.asarray(ws.logM_at(ps), dtype=float))
            return np.maximum.reduceat(terms, np.flatnonzero(np.diff(ns, prepend=-1)), axis=1)

        def log_mc(p):  # the log-convex regularization of log M_p
            return ws.logM_at(p) if ws.p_cap is None else np.interp(p, ws.hull, ws.logM[ws.hull])

        def top(a, z, y, v):  # the maximiser q on a..z of y + v p - log_mc(p), concave, and if it reaches 0
            q = np.clip(ws._p_star(np.exp(v)), a, z)
            return q, y + v * q - log_mc(q) >= 0

        peaks = ws._p_star(hn)  # a float past 2^63 is rejected here, before its cast
        if peaks.max() >= _KEY:
            raise ValueError("h is too large: the bound peaks past row 2^32")
        seeds = np.unique(np.append(live * _KEY + peaks, live * _KEY))
        floor = best(seeds) - 1e-9  # a row may exceed its bracket by rounding
        end = self._ends(ws, live, hn, floor)
        count = np.searchsorted(_LADDER, end, side="right")  # member j has a segment at each knot <= end[j]
        j = np.repeat(np.arange(len(live)), count)
        k = np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
        a, b, z = _LADDER[k], np.minimum(_LADDER[k + 1], end[j]), np.minimum(_LADDER[k + 1] - 1, end[j])
        y = self.log_sum_c[live[j]] - floor[:, j] + _SLACK  # each h's bound test is y + v p - log M_p >= 0
        h, s = np.nonzero(top(a, z, y, log_h + self.log_n[live[j]])[1])  # the pairs kept
        knots = np.unique(np.append(j[s] * _KEY + a[s], j[s] * _KEY + b[s]))
        at_knot = self._bracket(live[knots // _KEY], knots % _KEY)
        lo, hi = (at_knot[np.searchsorted(knots, j[s] * _KEY + e)] for e in (a[s], b[s]))
        a, z, j, slope = a[s], z[s], j[s], (hi - lo) / np.maximum(b[s] - a[s], 1)
        y = lo - a * slope - floor[h, j] + (1e-9 + _SLACK)  # and its chord test
        v = log_h[h, 0] + slope
        q, kept = top(a, z, y, v)
        y, v, q, a, z, j = (x[kept] for x in (y, v, q, a, z, j))
        y, v, near, far = np.tile(y, 2), np.tile(v, 2), np.tile(q, 2), np.append(a - 1, z + 1)
        while np.any(abs(far - near) > 1):  # bisect for the first and the last row of each kept pair
            mid = np.where(abs(far - near) > 1, (near + far) // 2, near)
            ok = y + v * mid - log_mc(mid) >= 0
            near, far = np.where(ok, mid, near), np.where(ok, far, mid)
        first, last = np.split(near, 2)
        n = last - first + 1
        cand = np.unique(np.repeat(j * _KEY + first - np.cumsum(n) + n, n) + np.arange(n.sum()))
        j, ps = np.divmod(cand, _KEY)
        gain = ps * log_h - np.asarray(ws.logM_at(ps), dtype=float)
        ok = np.any(self._bracket(live[j], ps) + gain >= floor[:, j], axis=0)
        out[:, live] = best(np.unique(np.append(seeds, live[j[ok]] * _KEY + ps[ok])))
        return out

    def warn_truncated(self, ws: WeightSequence, hs, values) -> None:
        """A TruncationWarning for each value[i][n] (of hs[i] and f_n) that may lie past a table end.

        Past its peak the bound decreases, so a value is final once the peak lies below p_max
        and the bound at p_max below the value.  Presets have no table end and never warn.
        """
        live = np.flatnonzero(self.degree)
        if ws.p_cap is None or len(hs) == 0:
            return
        peaks = ws._p_star(np.multiply.outer(np.asarray(hs, dtype=float), self.degree[live]))
        log_h = np.array([[math.log(h)] for h in hs])
        at_cap = self._bounds(ws, log_h, live, np.full(len(live), ws.p_cap))
        for _ in range(np.count_nonzero((peaks >= ws.p_cap) | (at_cap >= np.asarray(values)[:, live]))):
            msg = "ud norm termination not met by p_max; raise p_max"
            warnings.warn(msg, TruncationWarning, stacklevel=2)


def sup_norm_argmax(f: TrigPoly):
    """(max_t |f(t)|, argmax t); see DerivativeRows.sup_norm_argmax."""
    return DerivativeRows([f]).sup_norm_argmax(0)


def sup_norm(f: TrigPoly) -> float:
    """max_t |f(t)|, accurate to 1e-6 relative for degree <= 512."""
    return sup_norm_argmax(f)[0]


def log_ud_norms(f: TrigPoly, ws: WeightSequence, hs) -> np.ndarray:
    """log sup_p h^p ||D^p f||_inf / M_p for every h in hs.

    The grid values of a DerivativeRows of f alone, with the rows read there within GRID_SLACK
    of some h's grid value refined by DerivativeRows.refined: no other row can become a
    maximum, and an unread row's bracket lies below.
    """
    table = DerivativeRows([f])
    best = table.log_ud_norms(ws, hs)[:, 0]
    table.warn_truncated(ws, hs, best[:, None])
    ps, rows = table.rows[0][:-1], table.rows[1][:-1]  # f's keys are its p
    gain = ps * np.array([[math.log(h)] for h in hs]) - np.asarray(ws.logM_at(ps), dtype=float)
    near = np.any(rows + gain >= best[:, None] - GRID_SLACK, axis=0)
    if near.any():
        best = np.maximum(best, np.max(table.refined(0, ps[near])[0] + gain[:, near], axis=1))
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

    def coefficients(self, ks) -> np.ndarray:
        ks = np.atleast_1d(np.asarray(ks))
        return np.asarray(self.oracle(ks), dtype=complex)

    def scaled(self, a: complex) -> "CoefDistribution":
        return replace(
            self, oracle=lambda ks, _o=self.oracle: np.asarray(_o(ks)) * a, label=f"{a}*{self.label}"
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
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError("mu must be finite and positive")
    return CoefDistribution(
        oracle=lambda ks: np.exp(-mu * np.abs(np.asarray(ks, dtype=float))).astype(complex),
        tag="exp_decay",
        cls=cls,
        growth_lambda=1.0,
        label=f"exp_decay:{mu:g}",
    )


def exp_growth(lam: float, ws: WeightSequence, cls: str = "beurling") -> CoefDistribution:
    """Gauge-rate coefficient growth c(k) = e^{M(lambda k)} (a proper ultradistribution).

    Values saturate at 1e300 so that wide sweeps stay inside double
    range; the saturated region only ever makes growth verdicts fail
    harder.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive")

    def oracle(ks):
        gauge = np.asarray(associated_gauge(ws, lam * np.asarray(ks, dtype=float)))
        return np.exp(np.minimum(gauge, 690.7)).astype(complex)

    return CoefDistribution(
        oracle=oracle,
        tag="exp_growth",
        cls=cls,
        growth_lambda=lam,
        label=f"exp_growth:{lam:g}",
    )


def from_trigpoly(f: TrigPoly, cls: str = "roumieu", label: str = "table") -> CoefDistribution:
    return CoefDistribution(
        oracle=lambda ks, _f=f: _f.coefficient(np.asarray(ks)),
        tag="table",
        cls=cls,
        growth_lambda=1.0,
        label=label,
    )


def truncate_distribution(dist: CoefDistribution, k_max: int = DEFAULTS.k_max):
    """Degree-limited TrigPoly view of an oracle with a recorded tail estimate.

    Coefficients below 1e-16 of the peak are dropped (they cannot
    affect double-precision norms); the tail estimate extrapolates the
    boundary decay geometrically when it is decaying, else reports the
    boundary magnitude.  A coefficient that is not finite raises ValueError.
    """
    ks = np.arange(-k_max, k_max + 1)
    vals = dist.coefficients(ks)
    if not np.isfinite(vals).all():
        raise ValueError("a coefficient is not finite")
    mags = np.abs(vals)
    peak = float(np.max(mags)) if len(mags) else 0.0
    if peak == 0.0:
        return TrigPoly.zero(), 0.0
    keep = mags >= 1e-16 * peak
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
    return replace(
        f,
        oracle=lambda ks: TWO_PI * f.coefficients(ks) * g.coefficients(ks),
        tag="table" if "table" in (f.tag, g.tag) else f.tag,
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
    """Rows logc + sign * M(lambda |k|), one per lambda in lams: read at |k| from the scale's memo
    (weights.gauge_table) for integer ks whose table is no longer than ks, else from one gauge call.
    A logc that is NaN or +inf (a coefficient that is not finite) raises ValueError; -inf is a zero."""
    if not np.all(np.less(logc, np.inf)):
        raise ValueError("a coefficient is not finite")
    ks = np.asarray(ks)
    k_max = int(np.abs(ks).max(initial=0)) if ks.dtype.kind in "iu" else ks.size
    if k_max < ks.size:
        gauges = gauge_table(ws, lams, k_max)[..., np.abs(ks)]
    else:
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
