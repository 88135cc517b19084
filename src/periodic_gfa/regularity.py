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

from .algebra import Net, _classify, _pattern, _require_moderate, _ud_tables, classify_moderate
from .embedding import Mollifier, MollifierFail, embed
from .series import TWO_PI, CoefDistribution, coefficient_verdict, gauge_profiles, log_abs, log_coef_seminorm
from .verdict import DEFAULTS, GrowthVerdict, decide, desk_grid, json_float
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
    grids = {"h": desk_grid(h_grid, DEFAULTS.h_grid), "lambda": desk_grid(lam_grid, DEFAULTS.lambda_grid)}
    moderate = _require_moderate(net, ws, cls, moderate, "regularity is undefined for it",
                                 h_grid=grids["h"], lam_grid=grids["lambda"], tau=tau)
    # the witness is the outer ("exists") grid point of the pattern
    axis = _pattern("regular", cls)[0]
    inner = "h" if axis == "lambda" else "lambda"
    step = 4.0 * max(grids[axis]) if axis == "lambda" else min(grids[axis]) / 4.0
    grids[inner] = tuple(sorted(set(grids[inner]) | {step}))
    v = _classify(net, ws, _ud_tables, "regular", cls, grids["h"], grids["lambda"], tau, "full_norm")
    return RegularityVerdict(
        regular=v.bounded,
        pattern=f"exists {axis} forall {inner}",
        margin=v.margin,
        witness={axis: grids[axis][v.details["decisive_outer"]]},
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
    mu_grid = desk_grid(mu_grid, DEFAULTS.lambda_grid)
    ks = np.arange(-k_max, k_max + 1)
    # read as one row over |k|, a smooth-class sequence decays as a negligible net does over lambda
    q = _pattern("negligible", cls)[2]
    v = coefficient_verdict(ks, log_abs(c.coefficients(ks)), ws, mu_grid, q, 1.0, tau, None)
    # witness_n is the frequency |k| where the decisive profile escapes
    return replace(
        v,
        grid={"mu_grid": list(mu_grid), "class": cls, "pattern": f"{q} mu",
              "decisive_mu": mu_grid[v.details["decisive_inner"]]},
    )


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
    lam_grid = desk_grid(lam_grid, DEFAULTS.lambda_grid)
    ks, c = m.table(n_max, k_hi=k_max)
    fvals = f.coefficients(ks)
    lams = np.asarray(lam_grid, dtype=float)
    dual = gauge_profiles(ks, 0.0, ws, ws.H * lams, -1.0)  # -M(H lambda k), one row per lambda
    # sup_k |residual_n(k)| e^{-M(H lambda k)} in log scale, as rows over n per lambda
    sups = np.array([np.max(log_abs(fvals * (1.0 - TWO_PI * row)) + dual, axis=1) for row in c]).T
    profiles = gauge_profiles(np.arange(n_max + 1), sups, ws, lams, 1.0)
    # exists lambda: the decisive rate is the one with the smallest margin
    v = decide([profiles], "forall", "exists", tau, None, "residual")
    best, fitted, reference = None, math.inf, math.inf
    if v.bounded:
        j = v.details["decisive_inner"]
        best = lam_grid[j]
        finite = profiles[j][np.isfinite(profiles[j])]
        fitted = math.exp(float(np.max(finite))) if finite.size else 0.0
        logK = log_coef_seminorm(f, ws, best, sign="minus", k_max=k_max)
        reference = ws.A * (1.0 + 2.0 * math.pi * m.C_bound) * math.exp(logK)
    return ResidualBoundReport(
        passed=v.bounded,
        best_lambda=best,
        margin=v.margin,
        fitted_constant=fitted,
        reference_constant=reference,
        per_lambda=dict(zip(lam_grid, v.details["margins"][0])),
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
    lam_grid, h_grid = desk_grid(lam_grid, DEFAULTS.lambda_grid), desk_grid(h_grid, DEFAULTS.h_grid)
    # the embedding bound witnesses moderateness at rates up to H R max(lambda_f, h)
    wide = tuple(sorted(set(lam_grid) | {ws.H * m.R * max(max(h_grid), f.growth_lambda)}))
    moderate = classify_moderate(net, ws, cls, h_grid=h_grid, lam_grid=wide, tau=tau)
    reg = classify_regular(
        net, ws, cls, h_grid=h_grid, lam_grid=lam_grid, tau=tau, moderate=moderate
    )
    decay = coefficient_decay_class(f, ws, cls, mu_grid=lam_grid, k_max=k_max, tau=tau)
    reg = replace(reg, coefficient_decay=decay)

    # the envelope's terms at k = 4, 8, 16, 32 (rows) and n = 1..n_max (columns), with l = 1
    ks = np.array([4.0, 8.0, 16.0, 32.0])
    ns = np.arange(1, n_max + 1, dtype=float)
    h_star, lam_star, l_star = reg.witness.get("h", 1.0), reg.witness.get("lambda", 1.0), 1.0
    M_lam_n, M_h_k, M_Hl_k, M_l_n = (np.asarray(associated_gauge(ws, t))
                                     for t in (lam_star * ns, h_star * ks, ws.H * l_star * ks, l_star * ns))
    envs = np.min(np.logaddexp(M_lam_n - M_h_k[:, None], M_Hl_k[:, None] - M_l_n), axis=1)
    fks = [abs(complex(c)) for c in f.coefficients(ks.astype(int))]
    envelope = [
        {"k": k, "log_envelope": float(env), "log_coef": math.log(fk) if fk > 0 else float("-inf")}
        for k, env, fk in zip(ks.tolist(), envs, fks)
    ]
    return RegularityEquivalenceReport(
        consistent=reg.regular == decay.bounded,
        regular=reg,
        decay=decay,
        envelope=envelope,
    )
