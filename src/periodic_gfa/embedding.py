"""Mollifier sequences and the convolution embedding into the algebra.

A mollifier sequence is a family of trigonometric polynomials phi_n
whose coefficients c_{k,n} are uniformly bounded, vanish for
|k| >= R n, and equal 1/(2 pi) on the plateau |k| <= r n.  Convolving a
coefficient distribution with phi_n gives the net

    iota(f)_n  with coefficients 2 pi f_hat(k) c_{k,n},

which is moderate in f's class, linear in f, commutes with the
multiplier action of ultradifferential operators, and agrees with the
constant embedding on smooth-class inputs up to a negligible net.

The three defining clauses are contradictory at n = 0 as literally
quantified, so phi_0 is fixed to the constant function 1/(2 pi); all
clause checks run for n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .algebra import Net, classify_negligible, constant_net, make_net, net_mul
from .series import (
    TWO_PI,
    CoefDistribution,
    TrigPoly,
    coefficient_verdict,
    log_abs,
    log_coef_seminorm,
    multiply,
    truncate_distribution,
)
from .verdict import DEFAULTS, GrowthVerdict, json_float
from .weights import WeightSequence, associated_gauge


class MollifierFail(ValueError):
    """A mollifier clause fails; the message names the clause and witness."""


class DecayFail(ValueError):
    """Coefficients do not decay at the rate the constant embedding requires."""


@dataclass(frozen=True)
class Mollifier:
    """Coefficient table (k, n) -> c_{k,n} with certified clause constants."""

    c: Callable[[np.ndarray, int], np.ndarray]
    C_bound: float
    R: float
    r: float
    kind: str
    label: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    def degree(self, n: int) -> int:
        """Degree ceil(R n) of the n-th embedded polynomial."""
        return max(int(math.ceil(self.R * n)), 0)

    def coefficients(self, ks, n: int) -> np.ndarray:
        ks = np.atleast_1d(np.asarray(ks))
        if n == 0:
            return np.where(ks == 0, 1.0 / TWO_PI, 0.0).astype(complex)
        return np.asarray(self.c(ks, n), dtype=complex)


def _validate_mollifier(m: Mollifier, n_probe: int):
    k_hi = m.degree(n_probe) + 1
    ks = np.arange(-k_hi, k_hi + 1)
    for n in range(1, n_probe + 1):
        vals = m.coefficients(ks, n)
        mags = np.abs(vals)
        clauses = [
            (f"bound clause |c| <= {m.C_bound}", mags > m.C_bound + 1e-12),
            ("support clause c = 0 for |k| >= R n",
             (np.abs(ks) >= m.R * n - 1e-9) & (mags > 1e-15)),
            ("plateau clause c = 1/(2 pi) for |k| <= r n",
             (np.abs(ks) <= m.r * n + 1e-9) & (np.abs(vals - 1.0 / TWO_PI) > 1e-12)),
        ]
        for clause, bad in clauses:
            if np.any(bad):
                raise MollifierFail(f"{clause} fails at (k={int(ks[np.argmax(bad)])}, n={n})")


def build_mollifier(kind: str, n_probe: int = 64, **params) -> Mollifier:
    """Construct a mollifier and verify its clauses on n = 1..n_probe.

    Kinds: 'dirichlet' (sharp cutoff at |k| = n, constants
    (1/2pi, 2, 1)); 'cutoff' with a continuous profile psi, compactly
    supported and equal to 1/(2pi) near 0, giving c_{k,n} = psi(k/n)
    ('trapezoid' builds the piecewise-linear profile from r to R);
    'table' with explicit rows {n: {k: value}}.
    """
    if kind == "dirichlet":
        m = Mollifier(
            c=lambda ks, n: np.where(np.abs(ks) <= n, 1.0 / TWO_PI, 0.0).astype(complex),
            C_bound=1.0 / TWO_PI,
            R=2.0,
            r=1.0,
            kind="dirichlet",
            label="dirichlet",
        )
    elif kind == "cutoff":
        r = float(params.get("r", 1.0))
        R = float(params.get("R", 2.0))
        psi = params.get("psi")
        if psi is None or psi == "trapezoid":
            if not 0 < r < R:
                raise MollifierFail("trapezoid profile needs 0 < r < R")

            def psi(x, _r=r, _R=R):
                x = np.abs(np.asarray(x, dtype=float))
                ramp = np.clip((_R - x) / (_R - _r), 0.0, 1.0)
                return ramp / TWO_PI

            label = f"cutoff:trapezoid:r={r:g}:R={R:g}"
        else:
            label = params.get("label", f"cutoff:r={r:g}:R={R:g}")
        # profile sanity on a grid: plateau near 0, compact support
        xs = np.linspace(-r, r, 41)
        if np.max(np.abs(np.asarray(psi(xs)) - 1.0 / TWO_PI)) > 1e-12:
            raise MollifierFail("cutoff profile is not 1/(2 pi) on the declared plateau")
        xs = np.linspace(R, 3 * R, 41)
        if np.max(np.abs(np.asarray(psi(xs)))) > 1e-15:
            raise MollifierFail("cutoff profile is not supported in |x| < R")
        C = float(np.max(np.abs(np.asarray(psi(np.linspace(-R, R, 801))))))
        m = Mollifier(
            c=lambda ks, n, _psi=psi: np.asarray(_psi(np.asarray(ks, dtype=float) / n)).astype(complex),
            C_bound=C,
            R=R,
            r=r,
            kind="cutoff",
            label=label,
        )
    elif kind == "table":
        rows = {int(n): {int(k): complex(v) for k, v in row.items()} for n, row in params["rows"].items()}
        C = float(params["C"])
        R = float(params["R"])
        r = float(params["r"])
        n_probe = min(n_probe, max(rows) if rows else 0)
        if n_probe < 1:
            raise MollifierFail("table mollifier needs rows for n >= 1")

        def c(ks, n, _rows=rows):
            row = _rows.get(n)
            if row is None:
                raise MollifierFail(f"table mollifier has no row for n = {n}")
            return np.array([row.get(int(k), 0.0) for k in np.atleast_1d(ks)], dtype=complex)

        m = Mollifier(c=c, C_bound=C, R=R, r=r, kind="table", label=params.get("label", "table"))
    else:
        raise MollifierFail(f"unknown mollifier kind {kind!r}")
    _validate_mollifier(m, n_probe)
    return m


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def embed(f: CoefDistribution, m: Mollifier, n_max: int = DEFAULTS.n_max) -> Net:
    """The convolution embedding: net with coefficients 2 pi f_hat(k) c_{k,n}.

    Linear in f coefficient-wise; classifies moderate in f's class (the
    classifier grids must reach lambda ~ H R max(h) for growing inputs).
    """

    def gen(n: int) -> TrigPoly:
        deg = m.degree(n)
        ks = np.arange(-deg, deg + 1)
        coef = TWO_PI * f.coefficients(ks) * m.coefficients(ks, n)
        return TrigPoly(coef, deg)

    return make_net(gen, n_max, label=f"iota({f.label})")


def const_embed(
    f,
    n_max: int = DEFAULTS.n_max,
    ws: WeightSequence | None = None,
    k_max: int = DEFAULTS.k_max,
    tau: float = DEFAULTS.tau,
) -> Net:
    """The constant embedding sigma(f): the net equal to f at every index.

    TrigPoly inputs embed as they are.  Oracle-backed inputs must decay
    like a smooth-class function: the plus-seminorm profile must be
    bounded for some grid lambda (Roumieu) or all (Beurling), measured
    against the supplied weight sequence; they are truncated to a
    TrigPoly with the dropped tail recorded in net.meta.
    """
    if isinstance(f, TrigPoly):
        return constant_net(f, n_max, label="sigma(poly)")
    if ws is None:
        raise ValueError("const_embed of a coefficient oracle needs a weight sequence")
    poly, tail = truncate_distribution(f, k_max=k_max)
    lam_grid = DEFAULTS.lambda_grid
    q = "forall" if f.cls == "beurling" else "exists"
    v = coefficient_verdict(poly.support(), log_abs(poly.coef), ws, lam_grid, q, 1.0, tau, None)
    if not v.bounded:
        raise DecayFail(
            f"{f.label!r} does not satisfy the {f.cls} smooth-class decay on the grid"
        )
    passing = [lam for lam, m in zip(lam_grid, v.details["margins"][0]) if m <= tau]
    net = constant_net(poly, n_max, label=f"sigma({f.label})")
    net.meta.update({"truncation_error": tail, "degree": poly.degree, "decay_lambdas": passing})
    return net


def modulate(f, k: int):
    """Multiplication by e^{ikt}: the coefficient index shift c(m) -> c(m - k)."""
    if isinstance(f, TrigPoly):
        return multiply(f, TrigPoly.basis(k))
    if isinstance(f, CoefDistribution):
        return CoefDistribution(
            oracle=lambda ks, _o=f.oracle: np.asarray(_o(np.asarray(ks) - k)),
            tag=f.tag,
            cls=f.cls,
            growth_lambda=f.growth_lambda,
            label=f"e^(i{k}t)*{f.label}",
            params=dict(f.params),
        )
    if isinstance(f, Net):
        return f.map(lambda tp: multiply(tp, TrigPoly.basis(k)), label=f"e^(i{k}t)*{f.label}")
    raise TypeError(f"cannot modulate {type(f).__name__}")


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductPreservationReport:
    """sigma(f g) versus iota(f) iota(g), with the coefficient residual bound."""

    verdict: GrowthVerdict
    residual_bound: dict[str, Any]
    diff_sup_by_n: list[float]
    exact_zero_from: int | None

    def to_json(self):
        return {
            "negligible": self.verdict.bounded,
            "verdict": self.verdict.to_json(),
            "residual_bound": {k: json_float(v) if isinstance(v, float) else v
                               for k, v in self.residual_bound.items()},
            "diff_sup_by_n": [json_float(v) for v in self.diff_sup_by_n],
            "exact_zero_from": self.exact_zero_from,
        }


def check_product_preservation(
    f: CoefDistribution,
    g: CoefDistribution,
    m: Mollifier,
    ws: WeightSequence,
    cls: str = "roumieu",
    n_max: int = 32,
    k_max: int = DEFAULTS.k_max,
    tau: float = DEFAULTS.tau,
    h_grid=None,
    lam_grid=None,
) -> ProductPreservationReport:
    """Classify sigma(fg) - iota(f) iota(g) and test the residual bound.

    The pointwise product fg is computed from truncated coefficient
    tables; the residual bound checks, per n and grid lambda, that

        max_k |(fg)_hat(k)| |1 - 2 pi c_{k,n}| <= C_fit e^{-M(lambda r n)}

    with the fitted C_fit reported against the reference
    (1 + 2 pi C) K, K the plus-seminorm of the product coefficients.
    """
    f_net = embed(f, m, n_max)
    g_net = embed(g, m, n_max)
    fpoly, ftail = truncate_distribution(f, k_max=k_max)
    gpoly, gtail = truncate_distribution(g, k_max=k_max)
    fg = multiply(fpoly, gpoly).trimmed()
    sigma_net = constant_net(fg, n_max, label="sigma(fg)")
    diff = (sigma_net - net_mul(f_net, g_net)).map(lambda p: p.trimmed(), "sigma(fg)-iota(f)iota(g)")
    diff = make_net(diff.gen, n_max, label=diff.label)
    verdict = classify_negligible(diff, ws, cls, h_grid=h_grid, lam_grid=lam_grid, tau=tau)

    sups = [float(np.max(np.abs(diff.at(n).coef))) for n in range(n_max + 1)]
    last = max((n for n, s in enumerate(sups) if s != 0.0), default=-1)
    exact_from = last + 1 if last < n_max else None  # the final run of exact zeros

    # residual bound at the smallest grid rate whose plus-seminorm profile
    # is genuinely bounded (larger rates satisfy the bound vacuously)
    ks = fg.support()
    fg_mag = np.abs(fg.coef)
    lams = sorted(DEFAULTS.lambda_grid)
    scan = coefficient_verdict(ks, log_abs(fg.coef), ws, lams, "exists", 1.0, tau, None)
    lam = next((lam for lam, mg in zip(lams, scan.details["margins"][0]) if mg <= tau), None)
    if lam is None:
        best = {"lambda": None, "K": math.inf, "C_fit": math.inf,
                "reference": math.inf, "ratio": math.inf}
    else:
        fit = -np.inf
        for n in range(1, n_max + 1):
            resid = fg_mag * np.abs(1.0 - TWO_PI * m.coefficients(ks, n))
            top = float(np.max(resid))
            if top > 0:
                fit = max(fit, math.log(top) + float(associated_gauge(ws, lam * m.r * n)))
        K = math.exp(log_coef_seminorm(fg, ws, lam, sign="plus"))
        reference = (1.0 + TWO_PI * m.C_bound) * K
        c_fit = math.exp(fit) if np.isfinite(fit) else 0.0
        best = {
            "lambda": lam,
            "K": K,
            "C_fit": c_fit,
            "reference": reference,
            "ratio": c_fit / reference if reference > 0 else math.inf,
        }
    best["truncation_tails"] = [ftail, gtail]
    return ProductPreservationReport(
        verdict=verdict,
        residual_bound=best,
        diff_sup_by_n=sups,
        exact_zero_from=exact_from,
    )


def check_operator_commutes(P, f: CoefDistribution, m: Mollifier, n_max: int = 16) -> dict:
    """Coefficient-wise identity P(k) (2 pi f_hat c_{k,n}) = 2 pi (P(k) f_hat) c_{k,n}."""
    from .operators import apply_operator, multiplier_values

    worst = 0.0
    for n in range(n_max + 1):
        deg = m.degree(n)
        ks = np.arange(-deg, deg + 1)
        pk = multiplier_values(P, ks)
        lhs = pk * (TWO_PI * f.coefficients(ks) * m.coefficients(ks, n))
        rhs = TWO_PI * apply_operator(P, f).coefficients(ks) * m.coefficients(ks, n)
        denom = 1.0 + np.abs(rhs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / denom)))
    return {"passed": worst <= 1e-12, "max_residual": worst, "n_max": n_max}
