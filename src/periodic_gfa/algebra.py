"""Nets of trigonometric polynomials and their growth classification.

A Net is an indexed family n -> TrigPoly representing an element of the
generalized-function algebra: the algebra itself is (moderate nets)
modulo (negligible nets).  The defining suprema over n and over the
norm parameters h, lambda are decided at desk scale by the
head-versus-tail rule of verdict.bounded_test over finite grids; every
verdict records its grid and tolerance and is labelled desk-scale.

Quantifier patterns follow the class conventions exactly:

    moderate    Beurling: forall h exists lambda   Roumieu: forall lambda exists h
    negligible  Beurling: forall h forall lambda   Roumieu: exists lambda exists h
    regular     Beurling: exists lambda forall h   Roumieu: exists h forall lambda

with the weighted quantity ||f_n||_h e^{-M(lambda n)} (moderate, regular)
or ||f_n||_h e^{+M(lambda n)} (negligible).  The table PATTERNS holds
them, and every classifier decides through verdict.decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .series import (
    GRID_SLACK,
    DerivativeRows,
    TrigPoly,
    evaluate,
    log_abs,
    multiply,
)
from .verdict import DEFAULTS, GrowthVerdict, bounded_test, decide, desk_grid, head_end
from .weights import WeightSequence, associated_gauge, modified_weights


class GeneratorFail(RuntimeError):
    """A net generator raised at a probed index."""


class HypothesisFail(RuntimeError):
    """An operation requiring an established moderate verdict was called without one."""


class NoWitness(RuntimeError):
    """No failure witness exists: the net is negligible at the requested rate."""


@dataclass
class Net:
    """Lazily evaluated, memoized family n -> TrigPoly for n = 0..n_max."""

    gen: Callable[[int], TrigPoly]
    n_max: int
    label: str = "net"
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    _norms: dict = field(default_factory=dict, repr=False)
    _table: DerivativeRows | None = field(default=None, repr=False)

    def at(self, n: int) -> TrigPoly:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"index {n} outside 0..{self.n_max}")
        if n not in self._cache:
            try:
                self._cache[n] = self.gen(n)
            except Exception as exc:  # noqa: BLE001 - reported with context
                raise GeneratorFail(f"generator of {self.label!r} failed at n={n}") from exc
        return self._cache[n]

    def derivative_rows(self) -> DerivativeRows:
        """The D^p rows of f_0..f_n_max: one table for every ud table, the sup table and point value."""
        if self._table is None:
            self._table = DerivativeRows([self.at(n) for n in range(self.n_max + 1)])
        return self._table

    def map(self, fn: Callable[[TrigPoly], TrigPoly], label: str | None = None) -> "Net":
        return Net(
            gen=lambda n: fn(self.at(n)),
            n_max=self.n_max,
            label=label or f"map({self.label})",
        )

    def __add__(self, other: "Net") -> "Net":
        return net_add(self, other)

    def __sub__(self, other: "Net") -> "Net":
        return net_add(self, net_scale(other, -1.0))

    def __mul__(self, other: "Net") -> "Net":
        return net_mul(self, other)


def make_net(gen: Callable[[int], TrigPoly], n_max: int, label: str = "net") -> Net:
    """Wrap a deterministic generator, probing a few indices up front."""
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    net = Net(gen=gen, n_max=n_max, label=label)
    for n in (0, 1, n_max):
        net.at(n)
    return net


def constant_net(f: TrigPoly, n_max: int, label: str = "const") -> Net:
    return make_net(lambda n: f, n_max, label=label)


def net_add(f: Net, g: Net, label: str | None = None) -> Net:
    n_max = min(f.n_max, g.n_max)
    return Net(
        gen=lambda n: f.at(n) + g.at(n),
        n_max=n_max,
        label=label or f"({f.label}+{g.label})",
    )


def net_mul(f: Net, g: Net, label: str | None = None) -> Net:
    n_max = min(f.n_max, g.n_max)
    return Net(
        gen=lambda n: multiply(f.at(n), g.at(n)),
        n_max=n_max,
        label=label or f"({f.label}*{g.label})",
    )


def net_scale(f: Net, a: complex, label: str | None = None) -> Net:
    return Net(gen=lambda n: f.at(n).scaled(a), n_max=f.n_max, label=label or f.label)


# ---------------------------------------------------------------------------
# norm tables (memoized per net, keyed by the content of the scale); every
# ud table, for any scale and h, and the sup table (row p = 0) read the grid
# rows of the one table Net.derivative_rows
# ---------------------------------------------------------------------------

def _memo_rows(net: Net, keys: list, fill: Callable[[list], np.ndarray]) -> list[np.ndarray]:
    """Tables over n under keys, memoized on the net; fill(missing) gives one row per missing key."""
    missing = list(dict.fromkeys(k for k in keys if k not in net._norms))
    if missing:
        net._norms.update(zip(missing, np.array(fill(missing), dtype=float)))
    return [net._norms[k] for k in keys]


def _ud_tables(net: Net, ws: WeightSequence, hs) -> list[np.ndarray]:
    """The ud tables per h, with their TruncationWarnings raised on every call, memo hit or not."""
    tables = _memo_rows(net, [("ud", ws.memo_key, float(h)) for h in hs],
                        lambda miss: net.derivative_rows().log_ud_norms(ws, [k[2] for k in miss]))
    net.derivative_rows().warn_truncated(ws, hs, tables)
    return tables


def _sup_table(net: Net) -> np.ndarray:
    return _memo_rows(net, [("sup",)], lambda _: [net.derivative_rows().log_sups()])[0]


def _coef_tables(net: Net, ws: WeightSequence, hs) -> list[np.ndarray]:
    """The tables log sup_k |c_k| e^{M(lambda k)} over n, one per lambda in hs, from one tensor.

    Every f_n is copied, centred, into one stack over k = -D..D, D the net's
    largest degree, whose zeros give -inf; one log_abs of the stack is folded
    to |k| (the larger of |c_k| and |c_-k|).  One gauge call serves every
    lambda not memoized.  Row maxima run in blocks of 2^16 (lambda, n, |k|).
    Raises ValueError on a coefficient that is not finite.
    """
    def fill(missing):
        polys = [net.at(n) for n in range(net.n_max + 1)]
        big = max(f.degree for f in polys)
        stack = np.zeros((len(polys), 2 * big + 1), dtype=complex)
        for row, f in zip(stack, polys):
            row[big - f.degree : big + f.degree + 1] = f.coef
        if not np.isfinite(stack).all():
            raise ValueError(f"net {net.label!r} has a coefficient that is not finite")
        c = log_abs(stack)
        logc = np.maximum(c[:, big:], c[:, big::-1])
        gauges = _gauge_table(ws, [k[2] for k in missing], logc.shape[1] - 1)
        step = max(1, (1 << 16) // gauges.size)
        blocks = [np.max(logc[i : i + step] + gauges[:, None], axis=2) for i in range(0, len(logc), step)]
        return np.concatenate(blocks, axis=1)

    return _memo_rows(net, [("coef", ws.memo_key, float(h)) for h in hs], fill)


def _gauge_table(ws: WeightSequence, lams, n_max: int) -> np.ndarray:
    """M(lambda n) for n = 0..n_max: one row per lambda of a grid, from one gauge call, or one row."""
    return np.asarray(associated_gauge(ws, np.multiply.outer(lams, np.arange(n_max + 1, dtype=float))))


# ---------------------------------------------------------------------------
# quantifier patterns
# ---------------------------------------------------------------------------

# (mode, class) -> (outer axis, outer quantifier, inner quantifier, gauge sign)
# over the profiles rows[h] + sign * gauges[lambda].  The axis order is part
# of the pattern: ties in the reduction go to the first grid point.
PATTERNS = {
    ("moderate", "beurling"): ("h", "forall", "exists", -1.0),
    ("moderate", "roumieu"): ("lambda", "forall", "exists", -1.0),
    ("negligible", "beurling"): ("h", "forall", "forall", +1.0),
    ("negligible", "roumieu"): ("h", "exists", "exists", +1.0),
    ("regular", "beurling"): ("lambda", "exists", "forall", -1.0),
    ("regular", "roumieu"): ("h", "exists", "forall", -1.0),
}


def _decide_pattern(
    rows, gauges, mode: str, cls: str, tau: float, grid: dict, method: str
) -> GrowthVerdict:
    """Decide rows[h] + sign * gauges[lambda] by the pattern of (mode, cls).

    A single row (a sup-norm table, a scalar net) leaves only the lambda
    quantifiers of the pattern.
    """
    if (mode, cls) not in PATTERNS:
        raise ValueError("cls must be 'beurling' or 'roumieu'")
    axis, outer_q, inner_q, sign = PATTERNS[mode, cls]
    cells = np.asarray(rows, dtype=float)[:, None] + sign * np.asarray(gauges, dtype=float)
    if axis == "lambda":
        cells = cells.transpose(1, 0, 2)
    # grid-row tables: each entry is short of its norm by at most GRID_SLACK,
    # and every reduction is monotone, so the margin is too
    slack = GRID_SLACK if method in ("full_norm", "sup_norm", "rj_family") else 0.0
    return decide(cells, outer_q, inner_q, tau, grid, method, slack=slack)


def _require_mode(mode: str):
    if mode not in ("moderate", "negligible"):
        raise ValueError("mode must be 'moderate' or 'negligible'")


def _classify_row(row: np.ndarray, ws: WeightSequence, mode, cls, lam_grid, tau, method):
    """Decide a single row against the gauges: only the lambda quantifiers remain."""
    lam_grid = desk_grid(lam_grid, DEFAULTS.lambda_grid)
    grid = {"lambda_grid": list(lam_grid), "class": cls, "mode": mode}
    return _decide_pattern([row], _gauge_table(ws, lam_grid, len(row) - 1), mode, cls, tau, grid, method)


def _classify(net: Net, ws: WeightSequence, tables, mode, cls, h_grid, lam_grid, tau, method):
    """Decide the per-h norm tables of a net against the gauges by the pattern."""
    h_grid, lam_grid = desk_grid(h_grid, DEFAULTS.h_grid), desk_grid(lam_grid, DEFAULTS.lambda_grid)
    grid = {"h_grid": list(h_grid), "lambda_grid": list(lam_grid), "class": cls, "mode": mode}
    return _decide_pattern(
        tables(net, ws, h_grid),
        _gauge_table(ws, lam_grid, net.n_max),
        mode, cls, tau, grid, method,
    )


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def classify_moderate(
    net: Net,
    ws: WeightSequence,
    cls: str = "roumieu",
    h_grid=None,
    lam_grid=None,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Desk verdict on membership in the moderate space of the given class."""
    return _classify(net, ws, _ud_tables, "moderate", cls, h_grid, lam_grid, tau, "full_norm")


def classify_negligible(
    net: Net,
    ws: WeightSequence,
    cls: str = "roumieu",
    h_grid=None,
    lam_grid=None,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Desk verdict on membership in the negligible ideal of the given class."""
    return _classify(net, ws, _ud_tables, "negligible", cls, h_grid, lam_grid, tau, "full_norm")


def classify_negligible_supnorm(
    net: Net,
    ws: WeightSequence,
    cls: str = "roumieu",
    lam_grid=None,
    tau: float = DEFAULTS.tau,
    moderate: GrowthVerdict | None = None,
) -> GrowthVerdict:
    """Negligibility decided from plain sup norms alone.

    Valid only on nets already known moderate (the sup-norm
    characterization of the null ideal); pass the moderate verdict in or
    let it be recomputed here.  Quantifiers are over lambda only:
    Beurling forall, Roumieu exists.
    """
    if moderate is None:
        moderate = classify_moderate(net, ws, cls, tau=tau)
    if not moderate.bounded:
        raise HypothesisFail(
            f"net {net.label!r} is not desk-moderate; sup-norm characterization needs it"
        )
    return _classify_row(_sup_table(net), ws, "negligible", cls, lam_grid, tau, "sup_norm")


def coef_classify(
    coef_net,
    ws: WeightSequence,
    cls: str = "roumieu",
    mode: str = "moderate",
    h_grid=None,
    lam_grid=None,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Classification on the coefficient side, via weighted seminorms.

    Accepts a Net (its coefficient tables are used) or a callable
    n -> TrigPoly.  Equivalent to the function-side classifiers by the
    coefficient characterization; the test batteries confirm agreement.
    """
    _require_mode(mode)
    net = coef_net if isinstance(coef_net, Net) else make_net(coef_net, DEFAULTS.n_max)
    return _classify(net, ws, _coef_tables, mode, cls, h_grid, lam_grid, tau, "coefficient")


def roumieu_rj_classify(
    net: Net,
    ws: WeightSequence,
    r_families,
    mode: str = "moderate",
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Projective-style Roumieu classification over a finite family of pairs.

    r_families is a list of (r, s) RSequence pairs standing in for the
    full directed family: moderate asks that every supplied r admits
    some supplied s with ||f_n||_{r} e^{-M_s(n)} bounded; negligible
    asks boundedness of ||f_n||_{r} e^{+M_s(n)} for every pair.  These
    are the Beurling patterns with r in place of h and s in place of
    lambda.
    """
    pairs = list(r_families)
    if not pairs:
        raise ValueError("r_families must be nonempty")
    _require_mode(mode)
    ns = np.arange(net.n_max + 1, dtype=float)
    grid = {"families": [(r.label, s.label) for r, s in pairs], "mode": mode}
    return _decide_pattern(
        [_ud_tables(net, modified_weights(ws, r), [1.0])[0] for r, _ in pairs],
        [np.asarray(associated_gauge(modified_weights(ws, s), ns)) for _, s in pairs],
        mode, "beurling", tau, grid, "rj_family",
    )


# ---------------------------------------------------------------------------
# generalized numbers and point values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedNumber:
    """A net of complex values, the scalar counterpart of a Net.

    The quotient ring (moderate modulo negligible) these represent is
    not a field: nets vanishing on alternating index ranges are zero
    divisors.
    """

    values: np.ndarray
    label: str = "z"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def gn_classify(
    z: GeneralizedNumber,
    ws: WeightSequence,
    cls: str = "roumieu",
    mode: str = "moderate",
    lam_grid=None,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Classify a generalized number.

    The patterns are the function-side PATTERNS with no h axis: log|z_n|
    is the single row, so only the lambda quantifiers remain, and they
    flip relative to the function case:

        moderate    Beurling: exists lambda    Roumieu: forall lambda
        negligible  Beurling: forall lambda    Roumieu: exists lambda
    """
    _require_mode(mode)
    return _classify_row(log_abs(z.values), ws, mode, cls, lam_grid, tau, "scalar")


def point_value(net: Net, t: GeneralizedNumber, label: str | None = None) -> GeneralizedNumber:
    """The generalized point value n -> f_n(t_n)."""
    tv = np.real(t.values)
    if np.any(tv < -1e-12) or np.any(tv > 2.0 * math.pi + 1e-12):
        raise ValueError("point entries must lie in [0, 2pi]")
    n_max = min(net.n_max, t.n_max)
    vals = np.array([evaluate(net.at(n), float(tv[n])) for n in range(n_max + 1)])
    return GeneralizedNumber(vals, label=label or f"{net.label}({t.label})")


def find_witness(
    net: Net,
    ws: WeightSequence,
    lam: float = 1.0,
    tau: float = DEFAULTS.tau,
):
    """Indices and evaluation points realizing a negligibility failure.

    Looks at log sup|f_n| + M(lambda n): if the profile is bounded the
    net is negligible at this rate and NoWitness is raised; otherwise
    returns the tail indices exceeding the head baseline together with
    the sup-norm argmax points, whose induced generalized point value is
    non-negligible.
    """
    prof = _sup_table(net) + _gauge_table(ws, lam, net.n_max)
    bounded, _, _, baseline = bounded_test(prof, tau)
    if bounded:
        raise NoWitness(f"net {net.label!r} is negligible at lambda={lam}")
    idx = [n for n in range(head_end(net.n_max) + 1, net.n_max + 1) if prof[n] > baseline + tau]
    points = np.array([net.derivative_rows().sup_norm_argmax(n)[1] for n in idx])
    return np.array(idx, dtype=int), points
