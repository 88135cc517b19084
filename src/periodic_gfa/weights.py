"""Weight sequences and their associated functions.

A weight sequence M_p (M_0 = 1) fixes the growth scale against which
every object in this package is measured.  Two standing conditions are
certified at construction time:

    (M.1)   M_p^2 <= M_{p-1} M_{p+1}          (log convexity)
    (M.2)   M_{p+q} <= A H^{p+q} M_p M_q      for some A, H >= 1

together with a finite proxy for m_p = M_p / M_{p-1} -> infinity.
All arithmetic is carried out on log M_p; the Gevrey presets
M_p = (p!)^s keep a closed form so that evaluations never run off the
stored table.

The associated function

    M(t) = sup_{p} log(t^p / M_p),   M(0) = 0,  M(t) = M(|t|)

is computed on the lower convex hull of log M_p, the log-convex
regularization (Komatsu, Ultradistributions I, 1973, section 3), which
leaves M unchanged; a table is log-convex only within _M1_TOL a step.  The
supremum is attained at the last hull vertex p* with left slope <= log t.
"""

from __future__ import annotations

import hashlib
import math
import threading
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np
from scipy.special import gammaln

from .verdict import DEFAULTS, GrowthVerdict, decide, desk_grid, json_float

_M1_TOL = 1e-9
_GAUGE_LOCK = threading.Lock()  # one reader at a time extends a gauge_table memo


class InvalidSpec(ValueError):
    """Weight-sequence descriptor or table violates a structural condition."""


class DivergenceFail(InvalidSpec):
    """The finite proxy for m_p -> infinity fails on the stored range."""


class CertificationFail(InvalidSpec):
    """No grid H certifies (M.2) for the supplied table."""


class TruncationWarning(RuntimeWarning):
    """A supremum hit the end of the stored table; raise p_max to refine."""


def _digest(table: np.ndarray) -> str:
    return hashlib.blake2b(table.tobytes(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class WeightSequence:
    """Log-scale table of a weight sequence with certified (M.2) constants.

    The dataclass itself only enforces log M_0 = 0 and (M.1); the
    divergence proxy and the (A, H) certification are performed by
    build_weight_sequence, so that degenerate sequences (for example the
    constant sequence 1) remain constructible as comparison partners for
    relation().
    """

    logM: np.ndarray
    A: float = 1.0
    H: float = 1.0
    label: str = "table"
    spec: dict[str, Any] = field(default_factory=lambda: {"kind": "table"})

    def __post_init__(self):
        logM = np.asarray(self.logM, dtype=float)
        logM.setflags(write=False)
        object.__setattr__(self, "logM", logM)
        if logM.ndim != 1 or len(logM) < 2:
            raise InvalidSpec("logM must be a 1-d table with at least two entries")
        if not np.isfinite(logM).all():
            raise InvalidSpec("logM entries must be finite")
        if abs(logM[0]) > 1e-12:
            raise InvalidSpec("log M_0 must equal 0 (M_0 = 1)")
        d2 = logM[:-2] + logM[2:] - 2.0 * logM[1:-1]
        if np.any(d2 < -_M1_TOL):
            p = int(np.argmax(d2 < -_M1_TOL)) + 1
            raise InvalidSpec(f"(M.1) log convexity fails at p = {p}")
        # gauge_table's memo: grid bytes -> (its table over k = 0..K, the first k whose p* reaches p_cap)
        object.__setattr__(self, "_gauges", {})

    @property
    def p_max(self) -> int:
        return len(self.logM) - 1

    @property
    def p_cap(self) -> int | None:
        """Last p a supremum over p may reach: None for presets (closed form), else p_max."""
        return None if self.gevrey_s is not None else self.p_max

    @property
    def kind(self) -> str:
        return self.spec.get("kind", "table")

    @cached_property
    def memo_key(self) -> tuple:
        """What every norm against this scale depends on, for memo keys."""
        return (self.gevrey_s, _digest(self.logM), self.A, self.H)

    @property
    def gevrey_s(self) -> float | None:
        return self.spec.get("s") if self.kind == "gevrey" else None

    def logM_at(self, p):
        """log M_p for arbitrary p: the stored table, and for presets s log p! in closed form beyond it.

        A preset's table holds the same s * gammaln(p + 1.0), so reading it changes no value.
        """
        p = np.asarray(p)
        s = self.gevrey_s
        if s is not None:
            if p.dtype.kind not in "iu":
                return s * gammaln(p.astype(float) + 1.0)
            beyond = (p < 0) | (p > self.p_max)
            if not beyond.any():
                return self.logM[p]
            if beyond.all():
                return s * gammaln(p + 1.0)
            out = self.logM[np.where(beyond, 0, p)]
            out[beyond] = s * gammaln(p[beyond] + 1.0)
            return out
        if np.any(p > self.p_max):
            raise IndexError("p beyond stored table for a table-backed sequence")
        return self.logM[p]

    def extended(self, p_max: int) -> "WeightSequence":
        """Copy with the table grown to p_max (presets only)."""
        if p_max <= self.p_max:
            return self
        s = self.gevrey_s
        if s is None:
            raise InvalidSpec("a table-backed sequence cannot be extended")
        return build_weight_sequence(self.spec, p_max)

    @cached_property
    def hull(self) -> np.ndarray:
        """The p of the vertices of the lower convex hull of log M_p, ascending: every point whose left
        slope exceeds its right slope lies above the hull, and is deleted until none is left."""
        p, done = np.arange(len(self.logM)), False
        while not done:
            slope = np.diff(self.logM[p]) / np.diff(p)
            keep = np.concatenate([[True], slope[:-1] <= slope[1:], [True]])
            p, done = p[keep], keep.all()
        return p

    @cached_property
    def _hull_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slope of each hull edge, its tie tolerance 1e-12 / its length, and the left slope of
        each hull vertex (-inf at p = 0), for _p_star."""
        length = np.diff(self.hull)
        slope = np.diff(self.logM[self.hull]) / length
        return slope, 1e-12 / length, np.concatenate([[-np.inf], slope])

    def _p_star(self, t, logt=None) -> np.ndarray:
        """Last maximiser p of p log t - log M_p, for an array of t >= 0 (logt: its log, where t > 0):
        int64, except a preset's floor(t^{1/s}) that passes 2^63 stays a float, for the caller to reject.

        A table's p* takes each hull edge whose slope exceeds log t by at most 1e-12 / its length, so
        an edge taken past the maximiser costs at most 1e-12; on unit edges this is log m_p <= log t + 1e-12.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = self.gevrey_s
        if s is not None:
            ps = np.power(t, 1.0 / s)
            ps *= 1.0 + 1e-14
            np.floor(ps, out=ps)
            return ps.astype(np.int64) if np.all(ps < 2.0**63) else ps
        if logt is None:
            logt = np.log(np.where(t > 0, t, 1.0))
        slope, tol, left = self._hull_edges
        logt = np.reshape(logt, -1)
        x = logt + 1e-12
        # ascending points (a NaN fails the order test), more than the slopes: the merge searches
        # at most every slope among the points, fewer searches than each point among the slopes
        if len(x) > len(slope) and np.all(x[1:] >= x[:-1]):
            i = _merge_counts(slope, x)
        else:
            i = np.searchsorted(slope, x, side="right")
        # where an edge taken lies above log t, walk from the maximiser over ties
        tied = np.flatnonzero(left[i] > logt)
        if tied.size:
            lt, stop = logt[tied], i[tied]
            j = np.searchsorted(slope, lt, side="right")
            while True:
                step = j < stop
                step[step] = slope[j[step]] <= lt[step] + tol[j[step]]
                if not step.any():
                    break
                j += step
            i[tied] = j
        return np.where(t > 0, self.hull[i].reshape(t.shape), 0)


def _merge_counts(slope: np.ndarray, x: np.ndarray) -> np.ndarray:
    """searchsorted(slope, x, "right") for ascending x (at least one point), by one merge: each slope
    in (x[0], x[-1]] is searched among the points, and the counts are exact integers."""
    lo, hi = np.searchsorted(slope, x[[0, -1]], side="right")
    pos = np.searchsorted(x, slope[lo:hi], side="left")
    return lo + np.cumsum(np.bincount(pos, minlength=len(x) + 1)[:-1])


def _gauge_values(ws: WeightSequence, ta: np.ndarray, cap: int | None, warn_label: str):
    """M at the points ta >= 0 (at least 1-d), and where p* reached cap (None where it reached it nowhere)."""
    if not np.isfinite(ta).all():
        raise ValueError(f"{warn_label}: t must be finite")
    positive = ta > 0
    logt = np.log(np.where(positive, ta, 1.0))
    ps = ws._p_star(ta, logt)
    top = ps.max(initial=0)
    if not top < 2.0**63:
        raise ValueError(f"t = {ta.max():g} is too large for {ws.label}: its p passes 2^63")
    over = None
    if cap is not None and top >= cap:
        over = ps >= cap
        np.minimum(ps, cap, out=ps)  # the supremum may sit beyond the table; report it truncated
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ps * logt
        vals -= ws.logM[ps] if top <= ws.p_max else ws.logM_at(ps)
    np.maximum(vals, 0.0, out=vals)
    vals[~positive] = 0.0
    return vals, over


def _warn_truncated(warn_label: str, cap: int, stacklevel: int):
    msg = f"{warn_label}: maximizing p hit p_max = {cap}; raise p_max"
    warnings.warn(msg, TruncationWarning, stacklevel=stacklevel + 1)


def _assoc_value(ws: WeightSequence, t, cap: int | None, warn_label: str):
    t_in = np.asarray(t, dtype=float)
    vals, over = _gauge_values(ws, np.atleast_1d(np.abs(t_in)), cap, warn_label)
    if over is not None and over.any():
        _warn_truncated(warn_label, cap, stacklevel=3)
    return float(vals[0]) if t_in.ndim == 0 else vals


def associated_function(ws: WeightSequence, t):
    """M(t) = max_{p <= p_max} (p log t - log M_p), extended by M(|t|), M(0) = 0.

    The supremum is taken over the stored table only; a TruncationWarning
    signals that it was attained at the boundary.  Accepts scalars or
    arrays; a t that is not finite raises ValueError.
    """
    return _assoc_value(ws, t, ws.p_max, "associated_function")


def associated_gauge(ws: WeightSequence, t):
    """The growth gauge M(t) used inside coefficient estimates.

    Identical to associated_function except that preset-backed sequences
    are evaluated in closed form without a table cap, so the gauge never
    truncates for them.
    """
    return _assoc_value(ws, t, ws.p_cap, "associated_gauge")


def gauge_table(ws: WeightSequence, lams, k_max: int) -> np.ndarray:
    """associated_gauge(ws, outer(lams, 0..k_max)), read-only: one row per lambda of a grid, or one row.

    Each scale memoizes the table of each grid (keyed by its float bytes) up to the largest k_max
    read; a longer read computes only the missing columns.  Hit or miss, a read warns as the direct
    call does: once, when p*(lambda k) reaches p_cap at some k <= k_max.
    """
    lams = np.asarray(lams, dtype=float)
    grid = lams.reshape(-1)
    memo, key = ws._gauges, grid.tobytes()
    with _GAUGE_LOCK:
        table, first = memo.get(key, (np.empty((grid.size, 0)), math.inf))
        if table.shape[1] <= k_max:
            t = np.multiply.outer(grid, np.arange(table.shape[1], k_max + 1, dtype=float))
            vals, over = _gauge_values(ws, np.abs(t), ws.p_cap, "associated_gauge")
            if over is not None and math.isinf(first) and over.any():
                first = table.shape[1] + int(np.argmax(over.any(axis=0)))
            table = np.concatenate([table, vals], axis=1)
            table.setflags(write=False)
            memo[key] = table, first
    if k_max >= first:
        _warn_truncated("associated_gauge", ws.p_cap, stacklevel=2)
    return table[:, : k_max + 1].reshape(lams.shape + (k_max + 1,))


@dataclass(frozen=True)
class RSequence:
    """Non-decreasing sequence r_j with r_0 = 1, used to modify a weight scale."""

    r: np.ndarray
    label: str = "r"

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @property
    def j_max(self) -> int:
        return len(self.r) - 1

    def log_prod(self) -> np.ndarray:
        """log of the running products prod_{j<=p} r_j."""
        return np.cumsum(np.log(self.r))


def build_rsequence(table, label: str = "r") -> RSequence:
    r = np.asarray(table, dtype=float)
    if r.ndim != 1 or len(r) < 3:
        raise InvalidSpec("r table must be 1-d with at least three entries")
    if abs(r[0] - 1.0) > 1e-12:
        raise InvalidSpec("r_0 must equal 1")
    if np.any(np.diff(r) < -1e-12):
        raise InvalidSpec("r must be non-decreasing")
    if not r[-1] > 2.0 * r[1]:
        raise DivergenceFail("divergence proxy r_Jmax > 2 r_1 fails")
    return RSequence(r=r, label=label)


def linear_rsequence(j_max: int = 512) -> RSequence:
    """The preset r_j = j + 1."""
    return build_rsequence(np.arange(1, j_max + 2, dtype=float), label="j+1")


def modified_weights(ws: WeightSequence, rs: RSequence) -> WeightSequence:
    """The weight sequence M_p * prod_{j<=p} r_j as a table-backed sequence."""
    p_hi = rs.j_max if ws.gevrey_s is not None else min(ws.p_max, rs.j_max)
    p = np.arange(0, p_hi + 1)
    logM = np.asarray(ws.logM_at(p), dtype=float) + rs.log_prod()[: p_hi + 1]
    return WeightSequence(
        logM=logM,
        A=ws.A,
        H=ws.H,
        label=f"{ws.label}*{rs.label}",
        spec={"kind": "table", "modified_by": rs.label},
    )


def associated_function_rj(ws: WeightSequence, rs: RSequence, t):
    """Associated function of the modified sequence M_p prod_{j<=p} r_j."""
    return associated_function(modified_weights(ws, rs), t)


def _certify_m2(logM: np.ndarray, declared: tuple[float, float] | None = None):
    """(A, H) with M_m <= A H^m min_{p+q=m} M_p M_q on the stored table, in log scale.

    A declared (A, H) is checked; otherwise H is the first grid point
    2^{1/4}..2^4 that needs the least A.  An A beyond double range
    certifies nothing.
    """
    n, m = len(logM), np.arange(len(logM))
    min_split = np.full(n, np.inf)  # min over p of logM[p] + logM[m - p]
    for p in range((n + 1) // 2):  # each split once, p <= m - p
        np.minimum(min_split[2 * p :], logM[p] + logM[p : n - p], out=min_split[2 * p :])
    if declared is not None:
        bad = logM - m * np.log(declared[1]) - min_split > np.log(declared[0]) + 1e-9
        if np.any(bad):
            raise CertificationFail(f"(M.2) fails for the declared (A, H) at m = {np.argmax(bad)}")
        return declared
    grid = [2.0 ** (e / 4.0) for e in range(1, 17)]
    logA, H = min(
        ((max(np.max(logM - m * np.log(H) - min_split), 0.0), H) for H in grid),
        key=lambda c: c[0] if np.isfinite(c[0]) else np.inf,
    )
    if not logA < np.log(np.finfo(float).max):
        raise CertificationFail("no grid H certifies (M.2) with a finite A on the stored table")
    return float(np.exp(logA)), H


def build_weight_sequence(spec, p_max: int | None = None) -> WeightSequence:
    """Construct and certify a weight sequence from a descriptor.

    Descriptors: {"kind": "gevrey", "s": s, "p_max": n} gives
    log M_p = s log p! with the analytic constants A = 1, H = 2^s
    (from the binomial bound (p+q)! <= 2^{p+q} p! q!);
    {"kind": "table", "logM": [...], "A": a, "H": h} takes an explicit
    log table, certifying (A, H) by grid search when not supplied.
    """
    if not isinstance(spec, dict):
        raise InvalidSpec("spec must be a descriptor dict")
    kind = spec.get("kind")
    if p_max is None:
        p_max = int(spec.get("p_max", 64))
    if p_max < 8:
        raise InvalidSpec("p_max must be at least 8")

    if kind == "gevrey":
        s = float(spec["s"])
        if not (math.isfinite(s) and s > 0):
            raise InvalidSpec("gevrey exponent must be finite and positive")
        p = np.arange(0, p_max + 1)
        logM = s * gammaln(p + 1.0)
        ws = WeightSequence(
            logM=logM,
            A=1.0,
            H=2.0**s,
            label=f"gevrey:{s:g}",
            spec={"kind": "gevrey", "s": s},
        )
    elif kind == "table":
        logM = np.asarray(spec["logM"], dtype=float)
        declared = (float(spec["A"]), float(spec["H"])) if "A" in spec and "H" in spec else None
        ws = WeightSequence(logM=logM, label=spec.get("label", "table"), spec={"kind": "table"})
        A, H = _certify_m2(ws.logM, declared)
        ws = replace(ws, A=A, H=H)
    else:
        raise InvalidSpec(f"unknown weight-sequence kind: {kind!r}")

    logm = np.diff(ws.logM)
    if not logm[-1] > np.log(2.0) + logm[0]:
        raise DivergenceFail(
            "divergence proxy m_pmax > 2 m_1 fails; the ratios m_p do not grow"
        )
    return ws


def gevrey(s: float, p_max: int = 64) -> WeightSequence:
    """The Gevrey preset M_p = (p!)^s."""
    return build_weight_sequence({"kind": "gevrey", "s": s}, p_max)


@dataclass(frozen=True)
class DoublingReport:
    """Grid check of 2 M(t) <= M(H t) + log A."""

    passed: bool
    max_excess: float
    worst_t: float
    H: float
    logA: float
    table: np.ndarray  # rows (t, 2 M(t), M(H t))

    def to_json(self):
        return {
            "passed": self.passed,
            "max_excess": json_float(self.max_excess),
            "worst_t": self.worst_t,
            "H": self.H,
            "logA": json_float(self.logA),
            "grid": [
                {"t": t, "2M(t)": json_float(a), "M(Ht)": json_float(b)}
                for t, a, b in self.table.tolist()
            ],
            "desk_scale": True,
        }


def check_doubling_inequality(ws: WeightSequence, t_grid) -> DoublingReport:
    """Verify 2 M(t) <= M(H t) + log A over a grid of evaluation points.

    Evaluations use the analytic gauge for preset-backed sequences so
    that table truncation cannot produce spurious violations.  A grid of
    any shape is read flat; an empty grid raises ValueError.
    """
    t_grid = np.ravel(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("check_doubling_inequality: the t grid is empty")
    lhs = 2.0 * associated_gauge(ws, t_grid)
    rhs = associated_gauge(ws, ws.H * t_grid)
    excess = lhs - rhs - np.log(ws.A)
    i = int(np.argmax(excess))
    return DoublingReport(
        passed=bool(np.max(excess) <= 1e-9),
        max_excess=float(excess[i]),
        worst_t=float(t_grid[i]),
        H=ws.H,
        logA=float(np.log(ws.A)),
        table=np.column_stack([t_grid, lhs, rhs]),
    )


def relation(
    wsM: WeightSequence,
    wsN: WeightSequence,
    kind: str = "subset",
    p_max: int | None = None,
    h_grid=None,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Desk test of M_p <= C h^p N_p, for one grid h (subset) or all (strict).

    The boundedness of log M_p - log N_p - p log h over p is decided by
    the head-versus-tail rule.
    """
    if kind not in ("subset", "strict"):
        raise ValueError("kind must be 'subset' or 'strict'")
    if p_max is None:
        p_max = min(wsM.p_max, wsN.p_max)
    h_grid = desk_grid(h_grid, DEFAULTS.h_grid)
    p = np.arange(0, p_max + 1)
    diff = np.asarray(wsM.logM_at(p), dtype=float) - np.asarray(
        wsN.logM_at(p), dtype=float
    )
    inner = "forall" if kind == "strict" else "exists"
    return decide(
        [[diff - p * np.log(h) for h in h_grid]],
        "forall", inner, tau,
        {"h_grid": list(h_grid), "kind": kind, "p_max": p_max},
        "weight_relation",
    )
