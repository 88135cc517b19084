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

is computed by the ratio formula: under (M.1) the supremum is attained
at p* = max{p : m_p <= t} and equals p* log t - log M_{p*}.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np
from scipy.special import gammaln

from .verdict import DEFAULTS, GrowthVerdict, decide, desk_grid, json_float

_M1_TOL = 1e-9


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
            return np.where(beyond, s * gammaln(p + 1.0), self.logM[np.where(beyond, 0, p)])[()]
        if np.any(p > self.p_max):
            raise IndexError("p beyond stored table for a table-backed sequence")
        return self.logM[p]

    def log_ratio(self) -> np.ndarray:
        """log m_p = log M_p - log M_{p-1} for p = 1..p_max."""
        return np.diff(self.logM)

    def extended(self, p_max: int) -> "WeightSequence":
        """Copy with the table grown to p_max (presets only)."""
        if p_max <= self.p_max:
            return self
        s = self.gevrey_s
        if s is None:
            raise InvalidSpec("a table-backed sequence cannot be extended")
        return build_weight_sequence(self.spec, p_max)

    def _p_star(self, t, cap: int | None) -> np.ndarray:
        """Largest p <= cap with m_p <= t, for an array of t >= 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = self.gevrey_s
        if s is not None:
            ps = np.floor(np.power(t, 1.0 / s) * (1.0 + 1e-14)).astype(np.int64)
            ps = np.maximum(ps, 0)
            if cap is not None:
                ps = np.minimum(ps, cap)
            return ps
        cap = self.p_max if cap is None else min(cap, self.p_max)
        logm = self.log_ratio()[:cap]
        with np.errstate(divide="ignore"):
            logt = np.log(np.where(t > 0, t, 1.0))
        ps = np.searchsorted(logm, logt + 1e-12, side="right")
        return np.where(t > 0, ps, 0).astype(np.int64)


def _assoc_value(ws: WeightSequence, t, cap: int | None, warn_label: str):
    t_in = np.asarray(t, dtype=float)
    scalar = t_in.ndim == 0
    ta = np.atleast_1d(np.abs(t_in))
    ps = ws._p_star(ta, cap)
    if cap is not None and np.any(ps >= cap):
        # the supremum may sit beyond the table; report it truncated
        warnings.warn(
            f"{warn_label}: maximizing p hit p_max = {cap}; raise p_max",
            TruncationWarning,
            stacklevel=3,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ps * np.log(np.where(ta > 0, ta, 1.0)) - ws.logM_at(ps)
    vals = np.where(ta > 0, np.maximum(vals, 0.0), 0.0)
    return float(vals[0]) if scalar else vals


def associated_function(ws: WeightSequence, t):
    """M(t) = max_{p <= p_max} (p log t - log M_p), extended by M(|t|), M(0) = 0.

    The supremum is taken over the stored table only; a TruncationWarning
    signals that it was attained at the boundary.  Accepts scalars or
    arrays.
    """
    return _assoc_value(ws, t, ws.p_max, "associated_function")


def associated_gauge(ws: WeightSequence, t):
    """The growth gauge M(t) used inside coefficient estimates.

    Identical to associated_function except that preset-backed sequences
    are evaluated in closed form without a table cap, so the gauge never
    truncates for them.
    """
    return _assoc_value(ws, t, ws.p_cap, "associated_gauge")


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

    logm = ws.log_ratio()
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
    that table truncation cannot produce spurious violations.
    """
    t_grid = np.asarray(t_grid, dtype=float)
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
