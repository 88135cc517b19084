"""Regular nets: growth witnesses uniform across the norm parameter.

A moderate net is regular when one gauge rate works for every norm
parameter (Beurling: exists lambda forall h; Roumieu: exists h forall
lambda).  On embedded distributions this is equivalent to the
coefficients lying in the smooth-class sequence space, and the checks
here verify that equivalence instance by instance, together with the
dual-seminorm bound on the embedding residual f_hat - iota(f)_n_hat
that drives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .algebra import (
    PATTERNS,
    HypothesisFail,
    Net,
    _decide_pattern,
    _gauge_table,
    _grids,
    _ud_tables,
    classify_moderate,
)
from .embedding import Mollifier, MollifierFail, embed
from .series import CoefDistribution, coefficient_verdict, gauge_profiles, log_abs, log_coef_seminorm
from .verdict import DEFAULTS, GrowthVerdict, decide, json_float
from .weights import WeightSequence, associated_gauge


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the uniform-witness classification."""

    regular: bool
    pattern: str
    margin: float
    witness: dict[str, Any]
    moderate: GrowthVerdict
    margin_bracket: tuple[float, float]  # that of the full-norm verdict deciding it
    coefficient_decay: GrowthVerdict | None = None
    tau: float = DEFAULTS.tau
    details: dict[str, Any] = field(default_factory=dict, repr=False)

    def to_json(self):
        return {
            "regular": self.regular,
            "pattern": self.pattern,
            "margin": json_float(self.margin),
            "margin_bracket": [json_float(x) for x in self.margin_bracket],
            "witness": self.witness,
            "moderate": self.moderate.to_json(),
            "coefficient_decay": None
            if self.coefficient_decay is None
            else self.coefficient_decay.to_json(),
            "tau": self.tau,
            "desk_scale": True,
        }


def classify_regular(
    net: Net,
    ws: WeightSequence,
    cls: str = "roumieu",
    h_grid=None,
    lam_grid=None,
    tau: float = DEFAULTS.tau,
    moderate: GrowthVerdict | None = None,
) -> RegularityVerdict:
    """Desk verdict on regularity of a moderate net.

    The universally quantified grid is stretched one factor-4 step past
    the witness grid (smaller lambda in the Roumieu pattern, larger h in
    the Beurling one): with matched grids a norm profile that tracks the
    gauge exactly would always find a spurious witness on the diagonal.
    A not-regular verdict means no grid witness exists; it is a
    statement about the supplied grids, recorded in the result.
    """
    h_grid, lam_grid = _grids(h_grid, lam_grid)
    if moderate is None:
        moderate = classify_moderate(net, ws, cls, h_grid=h_grid, lam_grid=lam_grid, tau=tau)
    if not moderate.bounded:
        raise HypothesisFail(
            f"net {net.label!r} is not desk-moderate; regularity is undefined for it"
        )
    if cls == "beurling":
        h_eff = tuple(sorted(set(h_grid) | {4.0 * max(lam_grid)}))
        lam_eff = lam_grid
    elif cls == "roumieu":
        h_eff = h_grid
        lam_eff = tuple(sorted(set(lam_grid) | {min(h_grid) / 4.0}))
    else:
        raise ValueError("cls must be 'beurling' or 'roumieu'")
    v = _decide_pattern(
        _ud_tables(net, ws, h_eff),
        _gauge_table(ws, lam_eff, net.n_max),
        "regular", cls, tau,
        {"h_grid": list(h_eff), "lambda_grid": list(lam_eff), "class": cls},
        "full_norm",
    )
    # the witness is the outer ("exists") grid point of the pattern
    axis = PATTERNS["regular", cls][0]
    rates = lam_eff if axis == "lambda" else h_eff
    inner = "h" if axis == "lambda" else "lambda"
    return RegularityVerdict(
        regular=v.bounded,
        pattern=f"exists {axis} forall {inner}",
        margin=v.margin,
        witness={axis: rates[v.details["decisive_outer"]]},
        moderate=moderate,
        margin_bracket=v.margin_bracket,
        tau=tau,
        details={"margins": v.details["margins"]},
    )


def coefficient_decay_class(
    c: CoefDistribution,
    ws: WeightSequence,
    cls: str = "roumieu",
    mu_grid=None,
    k_max: int = DEFAULTS.k_max,
    tau: float = DEFAULTS.tau,
) -> GrowthVerdict:
    """Membership of (c_k) in the smooth-class sequence space.

    Beurling asks the plus-seminorm profile to stay bounded for every
    grid mu, Roumieu for some mu.  This is the coefficient side of the
    regularity equivalence.
    """
    mu_grid = tuple(mu_grid) if mu_grid is not None else DEFAULTS.lambda_grid
    ks = np.arange(-k_max, k_max + 1)
    q = "forall" if cls == "beurling" else "exists"
    v = coefficient_verdict(ks, log_abs(c.coefficients(ks)), ws, mu_grid, q, 1.0, tau, None)
    # witness_n is the frequency |k| where the decisive profile escapes
    return replace(
        v,
        grid={"mu_grid": list(mu_grid), "class": cls, "pattern": f"{q} mu",
              "decisive_mu": mu_grid[v.details["decisive_inner"]]},
    )


def _moderate_lambda_grid(ws: WeightSequence, m: Mollifier, f: CoefDistribution, lam_grid, h_grid):
    """Grids wide enough to witness moderateness of an embedded net.

    The embedding bound needs rates up to H R max(lambda_f, h), so those
    points are appended to the gauge grid.
    """
    lam_grid = tuple(lam_grid) if lam_grid is not None else DEFAULTS.lambda_grid
    h_grid = tuple(h_grid) if h_grid is not None else DEFAULTS.h_grid
    extra = ws.H * m.R * max(max(h_grid), f.growth_lambda)
    return tuple(sorted(set(lam_grid) | {extra}))


@dataclass(frozen=True)
class ResidualBoundReport:
    """Dual-seminorm control of the embedding residual at some grid rate."""

    passed: bool
    best_lambda: float | None
    margin: float
    fitted_constant: float
    reference_constant: float
    per_lambda: dict[float, float]

    def to_json(self):
        return {
            "passed": self.passed,
            "best_lambda": self.best_lambda,
            "margin": json_float(self.margin),
            "fitted_constant": json_float(self.fitted_constant),
            "reference_constant": json_float(self.reference_constant),
            "per_lambda_margins": {str(k): json_float(v) for k, v in self.per_lambda.items()},
            "desk_scale": True,
        }


def check_embedding_residual(
    f: CoefDistribution,
    m: Mollifier,
    ws: WeightSequence,
    lam_grid=None,
    n_max: int = 32,
    k_max: int = 1024,
    tau: float = DEFAULTS.tau,
) -> ResidualBoundReport:
    """Find a grid lambda with sup_n sigma'_{H lambda}(residual_n) e^{M(lambda n)} bounded.

    residual_n(k) = f_hat(k) (1 - 2 pi c_{k,n}) is the coefficient gap
    between f and its embedding at index n.  Requires a plateau rate
    r = 1.  The fitted constant is reported against the reference form
    A (1 + 2 pi C) K with K the dual seminorm of f_hat at the same
    lambda.
    """
    if abs(m.r - 1.0) > 1e-12:
        raise MollifierFail("the residual bound assumes a mollifier with r = 1")
    lam_grid = tuple(lam_grid) if lam_grid is not None else DEFAULTS.lambda_grid
    ks = np.arange(-k_max, k_max + 1)
    fvals = f.coefficients(ks)
    lams = np.asarray(lam_grid, dtype=float)
    dual = gauge_profiles(ks, 0.0, ws, ws.H * lams, -1.0)  # -M(H lambda k), one row per lambda
    # sup_k |residual_n(k)| e^{-M(H lambda k)} in log scale, as rows over n per lambda
    sups = np.array([
        np.max(log_abs(fvals * (1.0 - 2.0 * math.pi * m.coefficients(ks, n))) + dual, axis=1)
        for n in range(n_max + 1)
    ]).T
    profiles = gauge_profiles(np.arange(n_max + 1), sups, ws, lams, 1.0)
    # exists lambda: the decisive rate is the one with the smallest margin
    v = decide([profiles], "forall", "exists", tau, None, "residual")
    per_lambda = dict(zip(lam_grid, v.details["margins"][0]))
    if not v.bounded:
        return ResidualBoundReport(
            passed=False,
            best_lambda=None,
            margin=v.margin,
            fitted_constant=math.inf,
            reference_constant=math.inf,
            per_lambda=per_lambda,
        )
    j = v.details["decisive_inner"]
    best = lam_grid[j]
    finite = profiles[j][np.isfinite(profiles[j])]
    logK = log_coef_seminorm(f, ws, best, sign="minus", k_max=k_max)
    return ResidualBoundReport(
        passed=True,
        best_lambda=best,
        margin=v.margin,
        fitted_constant=math.exp(float(np.max(finite))) if finite.size else 0.0,
        reference_constant=ws.A * (1.0 + 2.0 * math.pi * m.C_bound) * math.exp(logK),
        per_lambda=per_lambda,
    )


@dataclass(frozen=True)
class RegularityEquivalenceReport:
    """Both sides of the regularity equivalence on one embedded distribution."""

    consistent: bool
    regular: RegularityVerdict
    decay: GrowthVerdict
    envelope: list[dict[str, float]]

    def to_json(self):
        return {
            "consistent": self.consistent,
            "net_regular": self.regular.regular,
            "coefficients_smooth_class": self.decay.bounded,
            "regular": self.regular.to_json(),
            "decay": self.decay.to_json(),
            "envelope_diagnostics": self.envelope,
            "desk_scale": True,
        }


def check_regularity_equivalence(
    f: CoefDistribution,
    m: Mollifier,
    ws: WeightSequence,
    cls: str = "roumieu",
    n_max: int = DEFAULTS.n_max,
    h_grid=None,
    lam_grid=None,
    k_max: int = DEFAULTS.k_max,
    tau: float = DEFAULTS.tau,
) -> RegularityEquivalenceReport:
    """Instance check: embedded f is regular iff its coefficients are smooth-class.

    Also tabulates the two-term envelope
    e^{M(lambda n) - M(h k)} + e^{M(H l k) - M(l n)} minimized over n,
    the quantity the equivalence rests on, at a few frequencies.
    """
    net = embed(f, m, n_max)
    wide = _moderate_lambda_grid(ws, m, f, lam_grid, h_grid)
    moderate = classify_moderate(net, ws, cls, h_grid=h_grid, lam_grid=wide, tau=tau)
    reg = classify_regular(
        net, ws, cls, h_grid=h_grid, lam_grid=lam_grid, tau=tau, moderate=moderate
    )
    decay = coefficient_decay_class(f, ws, cls, mu_grid=lam_grid, k_max=k_max, tau=tau)
    reg = replace(reg, coefficient_decay=decay)

    h_star = reg.witness.get("h", 1.0)
    lam_star = reg.witness.get("lambda", 1.0)
    l_star = 1.0
    envelope = []
    ns = np.arange(1, n_max + 1, dtype=float)
    for k in (4, 8, 16, 32):
        term1 = np.asarray(associated_gauge(ws, lam_star * ns)) - float(
            associated_gauge(ws, h_star * k)
        )
        term2 = float(associated_gauge(ws, ws.H * l_star * k)) - np.asarray(
            associated_gauge(ws, l_star * ns)
        )
        env = float(np.min(np.logaddexp(term1, term2)))
        fk = abs(complex(f.coefficients(np.array([k]))[0]))
        envelope.append(
            {"k": float(k), "log_envelope": env,
             "log_coef": math.log(fk) if fk > 0 else float("-inf")}
        )
    return RegularityEquivalenceReport(
        consistent=reg.regular == decay.bounded,
        regular=reg,
        decay=decay,
        envelope=envelope,
    )
