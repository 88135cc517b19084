"""Desk-scale boundedness verdicts.

Every classification in this package ultimately asks whether some
nonnegative sequence a_n is bounded.  At desk scale only finitely many
indices are available, so boundedness is decided by a head-versus-tail
margin rule: the tail of log a_n may not exceed the maximum over the
head by more than a tolerance tau.  Verdicts carry their parameters and
are always labelled desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class DeskParams:
    """Default grids and tolerances shared by the classifiers and the CLI."""

    h_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    lambda_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    tau: float = 0.5
    n_max: int = 64
    k_max: int = 4096


DEFAULTS = DeskParams()


def desk_grid(values, default: tuple[float, ...]) -> tuple[float, ...]:
    """A grid of norm parameters: values as a tuple, or default when values is None.

    Raises ValueError on an empty grid or an entry that is not finite and positive.
    """
    grid = default if values is None else tuple(values)
    if len(grid) == 0 or not all(math.isfinite(v) and v > 0 for v in grid):
        raise ValueError("grids must be nonempty with positive entries, each finite")
    return grid


def _check_tau(tau: float) -> None:
    """Raises ValueError unless tau is a finite tolerance >= 0."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")


def head_end(n_max: int) -> int:
    """n0: the head of a sequence over n = 0..n_max is n <= n0."""
    return max(8, n_max // 8)


def _head_tail(e: np.ndarray):
    """The rule of bounded_test along the last axis of e: margins, witnesses (-1: none), baselines."""
    n0 = head_end(e.shape[-1] - 1)
    head = e[..., : n0 + 1]  # np.max with initial runs another loop, whose max(0.0, -0.0) may be -0.0
    baseline = np.max(head, axis=-1) if head.shape[-1] else np.full(e.shape[:-1], NEG_INF)
    tail = e[..., n0 + 1 :]
    if tail.shape[-1] == 0:
        return np.full_like(baseline, NEG_INF), np.full(baseline.shape, -1), baseline
    tail_max = np.max(tail, axis=-1)
    none = tail_max == NEG_INF
    with np.errstate(invalid="ignore"):
        grows = np.where(np.isinf(baseline) | (tail_max == math.inf), math.inf, tail_max - baseline)
    return np.where(none, NEG_INF, grows), np.where(none, -1, n0 + 1 + np.argmax(tail, axis=-1)), baseline


def bounded_test(log_values, tau: float = DEFAULTS.tau):
    """Head-versus-tail boundedness decision on a sequence of log magnitudes.

    The head is n <= n0 with n0 = head_end(n_max); the sequence is
    declared bounded iff max over the tail does not exceed the head
    maximum by more than tau.  Entries equal to -inf (zero magnitudes)
    satisfy every bound; +inf anywhere, or a finite tail over an all
    -inf head, gives margin +inf.  The one-row case of decide.  Returns
    (bounded, margin, witness_n, baseline).  Raises ValueError unless tau
    is finite and >= 0.
    """
    _check_tau(tau)
    margin, witness, baseline = _head_tail(np.asarray(log_values, dtype=float))
    margin = float(margin)
    return margin <= tau, margin, (int(witness) if witness >= 0 else None), float(baseline)


@dataclass(frozen=True)
class GrowthVerdict:
    """Outcome of a desk-scale boundedness test over a quantifier pattern.

    margin is the tail excess over the head baseline in log scale,
    combined across the grid according to the quantifier pattern; the
    invariant margin <= tau iff bounded holds by construction.
    margin_bracket contains the margin that exact norms would give; it
    is (margin, margin) unless the profiles carry a numerical bound.
    """

    bounded: bool
    margin: float
    witness_n: int | None
    grid: dict[str, Any]
    method: str
    tau: float = DEFAULTS.tau
    details: dict[str, Any] = field(default_factory=dict, repr=False)
    desk_scale: bool = True
    margin_bracket: tuple[float, float] | None = None

    def __post_init__(self):
        if self.margin_bracket is None:
            object.__setattr__(self, "margin_bracket", (self.margin, self.margin))

    def to_json(self) -> dict[str, Any]:
        return {
            "bounded": self.bounded,
            "margin": json_float(self.margin),
            "margin_bracket": [json_float(x) for x in self.margin_bracket],
            "witness_n": self.witness_n,
            "grid": self.grid,
            "method": self.method,
            "tau": self.tau,
            "desk_scale": True,
        }


def json_float(x):
    """JSON has no inf/nan; map non-finite floats to strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return repr(x)


_QUANTIFIERS = {"forall": (np.max, np.argmax), "exists": (np.min, np.argmin)}


def decide(
    profiles, outer_q: str, inner_q: str, tau: float, grid: dict, method: str, ks=None,
    slack: float = 0.0,
) -> GrowthVerdict:
    """The quantifier engine: one verdict from a grid of log profiles.

    profiles[outer][inner] is a sequence of log magnitudes, all of one
    length; the stacked profiles are judged at once by the rule of
    bounded_test (_head_tail) and the cell margins are reduced over the
    inner axis, then the outer one, 'forall' with max (every grid point
    must pass) and 'exists' with min (one witness suffices).  Ties go to
    the first grid point, so the axis order fixes the witness.  Given
    ks, each profile is indexed by the frequencies ks, folded to |k|
    ascending, and the witness is reported as a frequency |k|.  Given
    slack, each profile entry is short of its value by at most slack,
    and so is the margin: margin_bracket is margin -/+ slack.  Raises
    ValueError unless tau is finite and >= 0.
    """
    _check_tau(tau)
    e = np.asarray(profiles, dtype=float)
    if ks is not None:
        order = np.argsort(np.abs(ks), kind="stable")
        freqs, e = np.abs(ks)[order], e[..., order]
    margins, witnesses, _ = _head_tail(e)
    inner_red, inner_arg = _QUANTIFIERS[inner_q]
    outer_red, outer_arg = _QUANTIFIERS[outer_q]
    per_outer = inner_red(margins, axis=1)
    margin = float(outer_red(per_outer))
    i_star = int(outer_arg(per_outer))
    j_star = int(inner_arg(margins[i_star]))
    w = int(witnesses[i_star, j_star])
    return GrowthVerdict(
        bounded=margin <= tau,
        margin=margin,
        witness_n=None if w < 0 else int(freqs[w]) if ks is not None else w,
        grid=grid,
        method=method,
        tau=tau,
        details={"margins": margins.tolist(), "decisive_outer": i_star, "decisive_inner": j_star},
        margin_bracket=(margin - slack, margin + slack),
    )
