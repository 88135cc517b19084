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


def bounded_test(log_values, tau: float = DEFAULTS.tau):
    """Head-versus-tail boundedness decision on a sequence of log magnitudes.

    The head is n <= n0 with n0 = max(8, n_max // 8); the sequence is
    declared bounded iff max over the tail does not exceed the head
    maximum by more than tau.  Entries equal to -inf (zero magnitudes)
    satisfy every bound.  Returns (bounded, margin, witness_n, baseline).
    """
    e = np.asarray(log_values, dtype=float)
    n_max = len(e) - 1
    n0 = max(8, n_max // 8)
    head = e[: min(n0, n_max) + 1]
    tail = e[n0 + 1 :]
    baseline = float(np.max(head)) if head.size else NEG_INF
    if tail.size == 0:
        return True, NEG_INF, None, baseline
    tail_max = float(np.max(tail))
    if tail_max == NEG_INF:
        return True, NEG_INF, None, baseline
    witness = int(n0 + 1 + int(np.argmax(tail)))
    if tail_max == math.inf or baseline == math.inf:
        # an overflowed entry anywhere is never evidence of boundedness
        return False, math.inf, witness, baseline
    if baseline == NEG_INF:
        # finite tail over an identically-zero head is unbounded growth
        return False, math.inf, witness, baseline
    margin = tail_max - baseline
    return margin <= tau, margin, witness, baseline


@dataclass(frozen=True)
class GrowthVerdict:
    """Outcome of a desk-scale boundedness test over a quantifier pattern.

    margin is the tail excess over the head baseline in log scale,
    combined across the grid according to the quantifier pattern; the
    invariant margin <= tau iff bounded holds by construction.
    """

    bounded: bool
    margin: float
    witness_n: int | None
    grid: dict[str, Any]
    method: str
    tau: float = DEFAULTS.tau
    details: dict[str, Any] = field(default_factory=dict, repr=False)
    desk_scale: bool = True

    def to_json(self) -> dict[str, Any]:
        return {
            "bounded": self.bounded,
            "margin": json_float(self.margin),
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
    profiles, outer_q: str, inner_q: str, tau: float, grid: dict, method: str, ks=None
) -> GrowthVerdict:
    """The quantifier engine: one verdict from a grid of log profiles.

    profiles[outer][inner] is a sequence of log magnitudes; each cell is
    judged by bounded_test and the cell margins are reduced over the
    inner axis, then the outer one, 'forall' with max (every grid point
    must pass) and 'exists' with min (one witness suffices).  Ties go to
    the first grid point, so the axis order fixes the witness.  Given
    ks, each profile is indexed by the frequencies ks, folded to |k|
    ascending, and the witness is reported as a frequency |k|.
    """
    if ks is not None:
        freqs = np.abs(np.asarray(ks))
        order = np.argsort(freqs, kind="stable")
        freqs = freqs[order]
    margins = np.empty((len(profiles), len(profiles[0])))
    witnesses = {}
    for i, row in enumerate(profiles):
        for j, prof in enumerate(row):
            if ks is not None:
                prof = np.asarray(prof)[order]
            _, m, w, _ = bounded_test(prof, tau)
            margins[i, j] = m
            witnesses[i, j] = int(freqs[w]) if ks is not None and w is not None else w
    inner_red, inner_arg = _QUANTIFIERS[inner_q]
    outer_red, outer_arg = _QUANTIFIERS[outer_q]
    per_outer = inner_red(margins, axis=1)
    margin = float(outer_red(per_outer))
    i_star = int(outer_arg(per_outer))
    j_star = int(inner_arg(margins[i_star]))
    return GrowthVerdict(
        bounded=margin <= tau,
        margin=margin,
        witness_n=witnesses[i_star, j_star],
        grid=grid,
        method=method,
        tau=tau,
        details={"margins": margins.tolist(), "decisive_outer": i_star, "decisive_inner": j_star},
    )


def profile_verdict(ks, log_values, tau: float, grid: dict, method: str) -> GrowthVerdict:
    """Boundedness of a symmetric coefficient profile, folded to |k| ascending."""
    return decide([[log_values]], "forall", "forall", tau, grid, method, ks=ks)
