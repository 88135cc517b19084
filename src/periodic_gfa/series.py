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
from dataclasses import dataclass
from typing import Callable

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
# sup norms of D^p f: grid rows, refined by Newton steps for point values
#
# On m >= 16N + 1 points the grid maximum of a degree-N polynomial is at
# least sqrt(1 - 2 pi^2 N^2 / m^2) times its sup (Ehlich and Zeller, Math. Z.
# 86, 1964).  With N / m < 1/16 a grid row of log sup_t |D^p f| is therefore
# short of its sup by at most GRID_SLACK.
# ---------------------------------------------------------------------------

GRID_SLACK = -0.5 * math.log(1.0 - 2.0 * math.pi**2 / 256.0)  # 0.0401


def _newton_max_rows(w: np.ndarray, ks: np.ndarray, ts: np.ndarray, half: float):
    """Newton maximization of |g_i(t)|, g_i(t) = sum_k w[i,k] e^{ikt}, from each t0 = ts[i].

    With phi = |g|^2, phi' = 2 Re(conj(g) g') and phi'' = 2 (|g'|^2 + Re(conj(g) g'')),
    where g' and g'' are the coefficient multipliers ik and -k^2.  A step
    t <- t - phi'/phi'' is taken only where phi'' < 0 and is clamped to
    [t0 - half, t0 + half]; the best |g| evaluated, t0's included, stands.
    Rows run in batches of at most 2^16 row coefficients.  Returns (values, ts).
    """
    chunk = max(1, (1 << 16) // max(len(ks), 1))
    if len(w) > chunk:
        parts = [
            _newton_max_rows(w[i : i + chunk], ks, ts[i : i + chunk], half) for i in range(0, len(w), chunk)
        ]
        return tuple(np.concatenate(x) for x in zip(*parts))
    mults = np.stack([np.ones_like(ks), 1j * ks, -ks * ks])
    t = arg = ts
    best = np.full(len(ts), -1.0)
    for _ in range(7):  # t0 and six steps
        g, g1, g2 = np.einsum("ik,jk->ji", w * np.exp(1j * np.outer(t, ks)), mults)
        v = np.abs(g)
        up = v > best
        best, arg = np.where(up, v, best), np.where(up, t, arg)
        d1 = np.real(np.conj(g) * g1)  # phi'/2 and phi''/2
        d2 = np.abs(g1) ** 2 + np.real(np.conj(g) * g2)
        t = np.clip(t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0), ts - half, ts + half)
    return best, arg


def _local_peaks(vals: np.ndarray, rel: float = 0.975) -> np.ndarray:
    """Indices of circular local maxima within rel of the global max; only the
    maximum of a row flat to rounding (|f| constant), whose grid maximum is its sup."""
    top = np.max(vals)
    if np.min(vals) >= top * (1.0 - 1e-12):
        return np.array([np.argmax(vals)])
    up = vals >= np.roll(vals, 1)
    down = vals >= np.roll(vals, -1)
    return np.nonzero(up & down & (vals >= rel * top))[0]


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
    buf[:, np.arange(-d, d + 1) % m] = w  # distinct columns since m > 2d
    spec = ifft(buf, axis=1, overwrite_x=True)  # in place: a block holds one complex array
    return np.abs(np.multiply(spec, m, out=spec))


# ---------------------------------------------------------------------------
# ultradifferentiable norms, in log scale, from one row table per net
# ---------------------------------------------------------------------------

_KEY = 1 << 32  # row p of member n is held under the key n * _KEY + p
_RUN = 1 << 14  # (row, |k|) entries of the weights set up at once


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

    def refined(self, n: int, ps: np.ndarray):
        """Refined log sup_t |D^p f_n| and its argmax t for each p in ps (distinct), degree >= 1.

        Every near-top grid peak of a row is refined by _newton_max_rows, so ties between peaks
        cannot hide the sup; a value is never below the grid value, whose row is published."""
        g, m = self.polys[n], self.m[n]
        out, w, scale, vals = _log_sup_rows(g.coef[None, :], ps, [(len(ps), m, g.degree)])
        self._read(np.full(len(ps), n), ps, out)
        peaks = [_local_peaks(row) for row in vals]
        counts = [len(js) for js in peaks]
        rows = np.repeat(np.arange(len(ps)), counts)
        ts = TWO_PI * np.concatenate(peaks) / m
        v, t = _newton_max_rows(w[rows], g.support().astype(float), ts, TWO_PI / m)
        lv = scale[rows] + log_abs(v)
        top = np.lexsort((lv, rows))[np.cumsum(counts) - 1]  # each row's best peak
        return np.fmax(out, lv[top]), t[top] % TWO_PI

    def sup_norm_argmax(self, n: int):
        """(max_t |f_n(t)|, argmax t): row p = 0, refined."""
        g = self.polys[n]
        if g.degree == 0:
            return abs(g.coef[0]), 0.0
        v, t = self.refined(n, np.zeros(1, dtype=int))
        return math.exp(v[0]), float(t[0])

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

    def log_ud_norms(self, ws: WeightSequence, hs) -> np.ndarray:
        """Grid value of log sup_p h^p ||D^p f_n||_inf / M_p for each h in hs (rows) and n (columns).

        Per f_n, rows 0 and every bound peak p*(hN) seed each h's value; then only the rows
        up to ws.p_cap that can reach some h's seed are read: first the cheap bound (_bounds)
        must reach it, then the bracket (_bracket), which lies above the row.  The 1e-9 slack
        on the seeds covers the rounding of both (each about eps |value|, under 1e-11 at
        degree 384 and p <= 4096).  A preset has no cap: p log(e hN) - log M_p <= M(e hN)
        puts every bound past p = log sum|c_k| - seed + M(e hN) below the seed.  All seeds
        are read at once, then all selected rows; candidates are filtered in chunks of about
        2^14 (row, h) cells.  Warns of nothing; see warn_truncated.  Raises ValueError unless
        every h is finite and positive.
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

        seeds = np.unique(np.append(live * _KEY + ws._p_star(hn, ws.p_cap), live * _KEY))
        floor = best(seeds) - 1e-9  # a row may exceed its bracket by rounding
        end = np.full(len(live), ws.p_cap or 0)
        if ws.p_cap is None:
            gap = self.log_sum_c[live] - floor + associated_gauge(ws, math.e * hn)
            end = np.maximum(np.max(gap, axis=0).astype(np.int64) + 1, np.max(ws._p_star(hn, None), axis=0))
        first, keep = np.cumsum(end) - end, [seeds]
        total, step = int(end.sum()), max(1, (1 << 14) // len(hs))
        for i in range(0, total, step):
            at = np.arange(i, min(i + step, total))
            j = np.searchsorted(first, at, side="right") - 1
            ps = at - first[j] + 1
            ok = np.any(self._bounds(ws, log_h, live[j], ps) >= floor[:, j], axis=0)
            j, ps = j[ok], ps[ok]
            gain = ps * log_h - np.asarray(ws.logM_at(ps), dtype=float)
            ok = np.any(self._bracket(live[j], ps) + gain >= floor[:, j], axis=0)
            keep.append(live[j[ok]] * _KEY + ps[ok])
        out[:, live] = best(np.unique(np.concatenate(keep)))
        return out

    def warn_truncated(self, ws: WeightSequence, hs, values) -> None:
        """A TruncationWarning for each value[i][n] (of hs[i] and f_n) that may lie past a table end.

        Past its peak the bound decreases, so a value is final once the peak lies below p_max
        and the bound at p_max below the value.  Presets have no table end and never warn.
        """
        live = np.flatnonzero(self.degree)
        if ws.p_cap is None or len(hs) == 0:
            return
        peaks = ws._p_star(np.multiply.outer(np.asarray(hs, dtype=float), self.degree[live]), ws.p_cap)
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
        return CoefDistribution(
            oracle=lambda ks, _o=self.oracle: np.asarray(_o(ks)) * a,
            tag=self.tag,
            cls=self.cls,
            growth_lambda=self.growth_lambda,
            label=f"{a}*{self.label}",
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
