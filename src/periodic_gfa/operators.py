"""Ultrapolynomials acting as Fourier multipliers.

An ultrapolynomial of class (M_p) is an entire series sum a_n z^n with
|a_n| <= C L^n / M_n for one pair (C, L); the Roumieu class requires a
C_L for every L.  The induced operator acts on coefficients as the
multiplier c_k -> P(k) c_k, and the canonical dominating constructions

    P(z)   = sum_p (lambda H^2 z)^{2p} / M_{2p}                (Beurling)
    P_i(z) = sum_p (2 H z)^{2p} / (prod_{j<=2p} r_j * M_{2p})  (Roumieu,
                                                P = P_1 P_2)

satisfy the lower bounds P(x) >= C' e^{2 M(lambda x)} and
P(x) >= C' e^{M_r(x) + M_k(x)} used in the factorization of an
arbitrary coefficient distribution into P(k) times a rapidly decaying
remainder.  Series values reach e^{2M(...)} magnitudes, so all
evaluation is log-compensated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from scipy.special import logsumexp

from .algebra import Net
from .series import _LOG_HUGE, CoefDistribution, TrigPoly, coefficient_verdict, log_abs
from .verdict import DEFAULTS, GrowthVerdict, bounded_test, jsonable
from .weights import (
    RSequence,
    WeightSequence,
    associated_gauge,
    linear_rsequence,
    modified_weights,
    relation,
)

_LOG_TINY = math.log(1e-16)


class ClassFail(ValueError):
    """Declared coefficient bound of the ultrapolynomial class fails."""


class NoConverge(RuntimeError):
    """Series terms were still growing when the table or cap ran out."""


class GrowthFail(ValueError):
    """The input coefficients exceed the declared growth rate."""


class RelationFail(ValueError):
    """The target weight sequence does not strictly dominate the base one."""


_L_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class Ultrapolynomial:
    """Finite coefficient table or closed-form dominating series."""

    form: str  # 'table' | 'structure_beurling' | 'structure_roumieu'
    ws: WeightSequence
    cls: str  # 'beurling' | 'roumieu'
    coef: np.ndarray | None = None
    lam: float | None = None
    r_seq: RSequence | None = None
    k_seq: RSequence | None = None
    cert: dict[str, Any] = field(default_factory=dict)
    label: str = "P"

    @property
    def degree(self) -> int | None:
        return None if self.coef is None else len(self.coef) - 1


def _fit_C(coef: np.ndarray, ws: WeightSequence, L: float) -> float:
    n = np.arange(len(coef))
    prof = log_abs(coef) + np.asarray(ws.logM_at(n), dtype=float) - n * math.log(L)
    m = float(np.max(prof))
    return math.exp(m) if m > -np.inf else 0.0


def build_ultrapolynomial(spec, ws: WeightSequence, cls: str = "beurling") -> Ultrapolynomial:
    """Construct and certify an ultrapolynomial.

    spec is a finite coefficient sequence (ascending powers, optionally
    with declared bound constants via {"a": [...], "C": c, "L": l}) or a
    closed form {"form": "structure_beurling", "lambda": l} /
    {"form": "structure_roumieu", "r": RSequence, "k": RSequence}.
    A coefficient that is not finite raises ValueError.
    """
    if cls not in ("beurling", "roumieu"):
        raise ValueError("cls must be 'beurling' or 'roumieu'")

    if isinstance(spec, dict) and "form" in spec:
        form = spec["form"]
        if form == "structure_beurling":
            if cls != "beurling":
                raise ClassFail("the single-factor dominating series is Beurling class only")
            lam = spec.get("lambda")
            if not isinstance(lam, numbers.Real) or isinstance(lam, bool) or not 0 < lam < math.inf:
                raise ValueError(f"structure_beurling needs a positive finite lambda, got {lam!r}")
            lam = float(lam)
            L = lam * ws.H**2
            return Ultrapolynomial(
                form="structure_beurling",
                ws=ws,
                cls="beurling",
                lam=lam,
                cert={"C": 1.0, "L": L},
                label=f"structure_beurling({lam:g},{ws.label})",
            )
        if form == "structure_roumieu":
            if cls != "roumieu":
                raise ClassFail("the two-factor dominating series is Roumieu class only")
            r, k = spec["r"], spec["k"]
            return Ultrapolynomial(
                form="structure_roumieu", ws=ws, cls="roumieu", r_seq=r, k_seq=k,
                cert=_certify_roumieu_product(ws, r, k),
                label=f"structure_roumieu({r.label},{k.label},{ws.label})",
            )
        raise ValueError(f"unknown ultrapolynomial form {form!r}")

    if isinstance(spec, dict):
        coef = np.asarray(spec["a"], dtype=complex)
        declared = {k: spec[k] for k in ("C", "L") if k in spec}
    else:
        coef = np.asarray(spec, dtype=complex)
        declared = {}
    if coef.ndim != 1 or len(coef) == 0:
        raise ValueError("coefficient table must be a nonempty 1-d sequence")
    if not np.isfinite(coef).all():
        raise ValueError("a coefficient is not finite")

    if cls == "beurling":
        L = float(declared.get("L", 1.0))
        C_fit = _fit_C(coef, ws, L)
        C = float(declared.get("C", C_fit))
        if C_fit > C * (1.0 + 1e-12):
            raise ClassFail(f"|a_n| <= C L^n / M_n fails: need C >= {C_fit}, declared {C}")
        cert = {"C": C, "L": L}
    else:
        cert = {"C_of_L": {L: _fit_C(coef, ws, L) for L in _L_GRID}}
    return Ultrapolynomial(
        form="table", ws=ws, cls=cls, coef=coef, cert=cert, label="table"
    )


def _certify_roumieu_product(ws: WeightSequence, r: RSequence, k: RSequence):
    """Desk certification |c_n| <= C_L L^n / M_n for the two-factor product.

    Product coefficients are assembled in log scale from the factors'
    even terms.  The bound profile for small L rises until roughly
    p ~ 4H/L before the growing r, k products win, so the probe range is
    doubled until the head/tail rule can see past that bump (capped by
    the supplied sequence tables).  Each doubling adds only the new
    coefficients: c_p depends on the terms up to p alone.  Profiles are
    judged at the default tau.
    """
    probe_cap = min(r.j_max, k.j_max)
    n_probe = 64
    log2H = math.log(2.0 * ws.H)
    logc = np.empty(0)
    while True:
        p_hi = min(n_probe, probe_cap) // 2
        n = 2 * np.arange(0, p_hi + 1)
        logMn = np.asarray(ws.logM_at(n), dtype=float)
        b1 = n * log2H - r.log_prod()[n] - logMn
        b2 = n * log2H - k.log_prod()[n] - logMn
        ps, j = np.arange(len(logc), p_hi + 1)[:, None], np.arange(p_hi + 1)
        terms = np.where(j <= ps, b1 + b2[np.abs(ps - j)], -np.inf)  # b1[j] + b2[p - j] for j <= p
        logc = np.append(logc, logsumexp(terms, axis=1))
        C_of_L = {}
        last_fail = None
        for L in _L_GRID:
            prof = logc + logMn - n * math.log(L)
            ok, margin, _, _ = bounded_test(prof, DEFAULTS.tau)
            if not ok:
                last_fail = (L, margin)
                break
            C_of_L[L] = math.exp(float(np.max(prof)))
        if last_fail is None:
            return {"C_of_L": C_of_L, "n_probe": 2 * p_hi}
        if 2 * p_hi >= probe_cap:
            L, margin = last_fail
            raise ClassFail(
                f"Roumieu bound fails up to the table end at L={L} (margin {margin:.2f}); "
                "supply longer r and k sequences"
            )
        n_probe *= 2


# ---------------------------------------------------------------------------
# evaluation (log-compensated)
# ---------------------------------------------------------------------------

def _log_even_series(ws: WeightSequence, logL: float, x: np.ndarray, rs: RSequence | None):
    """log sum_p (L x)^{2p} / (M_{2p} prod_{j<=2p} r_j) for an array of x >= 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x))  # value at x=0 is the p=0 term, equal to 1
    live = x > 0
    if not np.any(live):
        return out
    with np.errstate(divide="ignore"):
        loglx = logL + np.log(np.where(live, x, 1.0))
    logprod = rs.log_prod() if rs is not None else None

    running = np.full(len(x), -np.inf)
    block, p0 = 64, 0
    hard = 1 << 22
    while np.any(live):
        p1 = p0 + block
        two_p = np.arange(2 * p0, 2 * p1, 2)
        if ws.p_cap is not None and two_p[-1] > ws.p_cap:
            two_p = two_p[two_p <= ws.p_cap]
            if len(two_p) == 0:
                raise NoConverge("series terms still growing at the end of the weight table")
        if logprod is not None and two_p[-1] >= len(logprod):
            raise NoConverge("the supplied r sequence table is too short for this x")
        logM = np.asarray(ws.logM_at(two_p), dtype=float)
        extra = logprod[two_p] if logprod is not None else 0.0
        terms = two_p[None, :] * loglx[:, None] - (logM + extra)[None, :]
        for j in range(terms.shape[1]):
            t = terms[:, j]
            running = np.logaddexp(running, np.where(live, t, -np.inf))
            live &= ~(t < running + _LOG_TINY)
        if not np.any(live):
            break
        if ws.p_cap is not None and two_p[-1] >= ws.p_cap:
            raise NoConverge("series terms still growing at the end of the weight table")
        p0 = p1
        if 2 * p0 > hard:
            raise NoConverge("series failed to converge within the hard term cap")
    out[x > 0] = running[x > 0]
    return out


def _times_exp(z: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """z e^{logs}; where e^{|logs|} leaves double range, each part x of z as sign(x) e^{log|x| + logs}.

    A part of the product that overflows is +-inf, and a part that is 0 stays 0; no
    RuntimeWarning is raised.
    """
    far = np.abs(logs) > _LOG_HUGE
    zf, lf = z[far], logs[far]
    with np.errstate(over="ignore"):
        out = z * np.exp(np.where(far, 0.0, logs))
        out.real[far] = np.sign(zf.real) * np.exp(log_abs(zf.real) + lf)
        out.imag[far] = np.sign(zf.imag) * np.exp(log_abs(zf.imag) + lf)
    return out


def log_eval_ultrapoly(P: Ultrapolynomial, x) -> np.ndarray:
    """log P(x) for real x (structure forms only; always positive there)."""
    x = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    if P.form == "structure_beurling":
        return _log_even_series(P.ws, math.log(P.lam * P.ws.H**2), x, None)
    if P.form == "structure_roumieu":
        logL = math.log(2.0 * P.ws.H)
        return _log_even_series(P.ws, logL, x, P.r_seq) + _log_even_series(
            P.ws, logL, x, P.k_seq
        )
    raise ValueError("log evaluation applies to the closed-form series only")


def eval_ultrapoly(P: Ultrapolynomial, x):
    """P(x); structure forms are summed in log scale and exponentiated."""
    if P.form == "table":
        xs = np.asarray(x)
        vals = np.polynomial.polynomial.polyval(xs, P.coef)
        return complex(vals) if xs.ndim == 0 else vals
    logs = log_eval_ultrapoly(P, x)
    vals = np.where(logs < _LOG_HUGE, np.exp(np.minimum(logs, _LOG_HUGE)), np.inf)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def multiplier_values(P: Ultrapolynomial, ks) -> np.ndarray:
    return np.asarray(eval_ultrapoly(P, np.asarray(ks, dtype=float)), dtype=complex)


def _times_multiplier(P: Ultrapolynomial, ks, c) -> np.ndarray:
    """P(k) c_k; a closed-form P acts in log scale, so the product stays finite where P(k) overflows."""
    if P.form == "table":
        return multiplier_values(P, ks) * c
    return _times_exp(np.asarray(c, dtype=complex), log_eval_ultrapoly(P, ks))


def _applied_growth_lambda(P: Ultrapolynomial, lam_f: float) -> float:
    """Conservative growth rate of P(k) c_k from |P(x)| <= C e^{M(2 L x)}."""
    H = P.ws.H
    if P.form == "structure_beurling":
        return H * max(2.0 * P.lam * H**2, lam_f)
    if P.form == "structure_roumieu":
        return H * max(4.0 * H**2, lam_f)
    return H * lam_f


def apply_operator(P: Ultrapolynomial, f):
    """The multiplier action c_k -> P(k) c_k on a TrigPoly, distribution, or Net."""
    if isinstance(f, TrigPoly):
        return TrigPoly(_times_multiplier(P, f.support(), f.coef), f.degree)
    if isinstance(f, CoefDistribution):
        return replace(
            f,
            oracle=lambda ks, _o=f.oracle: _times_multiplier(P, np.asarray(ks), _o(ks)),
            growth_lambda=_applied_growth_lambda(P, f.growth_lambda),
            label=f"{P.label}({f.label})",
        )
    if isinstance(f, Net):
        return f.map(lambda tp: apply_operator(P, tp), label=f"{P.label}({f.label})")
    raise TypeError(f"cannot apply an operator to {type(f).__name__}")


def shifted_operator(P: Ultrapolynomial, k: int) -> Ultrapolynomial:
    """Coefficients of z -> P(z + k) by synthetic Taylor shift (finite tables).

    Satisfies apply(P, e^{ikt} f) = e^{ikt} apply(shifted(P, k), f): both
    sides carry the coefficient P(m) f_hat(m - k) at frequency m.
    """
    if P.form != "table":
        raise ValueError(
            "closed-form series are shifted through multiplier semantics, not tables"
        )
    d = len(P.coef) - 1
    if d > 0:
        peak = math.log(max(np.max(np.abs(P.coef)), 1e-300)) + d * math.log(abs(k) + 2.0) + d
        if peak > _LOG_HUGE:
            raise OverflowError("binomial shift overflows for this k and degree")
    a = P.coef.astype(complex).copy()
    for i in range(d + 1):
        for j in range(d - 1, i - 1, -1):
            a[j] += k * a[j + 1]
    return build_ultrapolynomial({"a": a}, P.ws, P.cls)


# ---------------------------------------------------------------------------
# lower bound and factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundReport:
    """Grid fit of P(x) >= C' * reference(x); pass means the margin holds its head."""

    passed: bool
    c_prime: float
    log_c_prime: float
    trend_margin: float
    reference: str
    x_grid: list

    def to_json(self):
        return jsonable({
            "passed": self.passed,
            "c_prime": self.c_prime,
            "log_c_prime": self.log_c_prime,
            "trend_margin": self.trend_margin,
            "reference": self.reference,
            "x_grid": self.x_grid,
            "desk_scale": True,
        })


def lower_bound_check(
    P: Ultrapolynomial,
    ws: WeightSequence,
    lam: float = 1.0,
    x_grid=None,
    tau: float = DEFAULTS.tau,
) -> LowerBoundReport:
    """Fit the largest C' with P(x) >= C' e^{2M(lambda x)} on the grid.

    For the Roumieu two-factor form the reference is
    e^{M_r(x) + M_k(x)}.  The fitted C' comes from the grid minimum of
    the log margin; the pass flag additionally requires the negated
    margin to stay bounded (a polynomial P fails by divergence).
    """
    if x_grid is None:
        x_grid = np.geomspace(1.0, 100.0, 25)
    x_grid = np.asarray(x_grid, dtype=float)
    if P.form == "table":
        logP = log_abs(multiplier_values(P, x_grid))
    else:
        logP = log_eval_ultrapoly(P, x_grid)
    if P.form == "structure_roumieu":
        ref = np.asarray(
            associated_gauge(modified_weights(ws, P.r_seq), x_grid)
        ) + np.asarray(associated_gauge(modified_weights(ws, P.k_seq), x_grid))
        ref_name = "exp(M_r + M_k)"
    else:
        ref = 2.0 * np.asarray(associated_gauge(ws, lam * x_grid))
        ref_name = f"exp(2 M({lam:g} x))"
    margin = logP - ref
    ok, trend, _, _ = bounded_test(-margin, tau)
    log_c = float(np.min(margin))
    return LowerBoundReport(
        passed=bool(ok and np.isfinite(log_c)),
        c_prime=math.exp(log_c) if log_c < _LOG_HUGE else math.inf,
        log_c_prime=log_c,
        trend_margin=trend,
        reference=ref_name,
        x_grid=x_grid.tolist(),
    )


@dataclass(frozen=True)
class StructureFactorization:
    """f = P(D) g on the coefficient side: c_k = P(k) g_k."""

    P: Ultrapolynomial
    g: CoefDistribution
    reconstruction_residual: float
    g_inclass: GrowthVerdict
    g_target: GrowthVerdict | None
    lower_bound: LowerBoundReport

    def to_json(self):
        return jsonable({
            "operator": self.P.label,
            "reconstruction_residual": self.reconstruction_residual,
            "g_inclass": self.g_inclass.to_json(),
            "g_target": None if self.g_target is None else self.g_target.to_json(),
            "lower_bound": self.lower_bound.to_json(),
        })


def structure_factorize(
    c: CoefDistribution,
    ws: WeightSequence,
    cls: str = "beurling",
    lam: float | None = None,
    r_seq: RSequence | None = None,
    k_seq: RSequence | None = None,
    target: WeightSequence | None = None,
    k_max: int = 200,
    tau: float = DEFAULTS.tau,
) -> StructureFactorization:
    """Factor a coefficient distribution as P(k) g_k with g rapidly decaying.

    Beurling: requires sup_k |c_k| e^{-M(lam k)} bounded and divides by
    the single-factor series; g is then certified in the plus-seminorm
    at the same lam (membership in the Roumieu-class sequence space).
    Roumieu: the caller supplies the r and k sequences of the two-factor
    series (their existence lemmas are non-constructive); the defaults
    are r_j = k_j = j + 1.  When a target weight sequence is given it
    must strictly dominate ws, and g is additionally swept against the
    target gauge over the default grid.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be at least 0, got {k_max}")
    ks = np.arange(-k_max, k_max + 1)
    cvals = c.coefficients(ks)
    logc = log_abs(cvals)

    # each class picks the rate, the pre-check's scale, grid and bound, the
    # series, and the scale and grid of the space g lands in
    if cls == "beurling":
        lam = 1.0 if lam is None else float(lam)
        pre_ws, pre_grid, bound = ws, {"lambda": lam, "mode": "sigma_prime"}, f"e^{{M({lam:g} k)}}"
        spec = {"form": "structure_beurling", "lambda": lam}
        # the single-factor series even lands g in the base-scale space
        in_ws, in_grid = ws, {"lambda": lam, "mode": "sigma_plus"}
    elif cls == "roumieu":
        lam, default = 1.0, linear_rsequence(max(512, 2 * k_max))
        r_seq = default if r_seq is None else r_seq
        k_seq = default if k_seq is None else k_seq
        pre_ws, pre_grid = modified_weights(ws, r_seq), {"r": r_seq.label, "mode": "sigma_prime_r"}
        bound = "the supplied modified gauge"
        spec = {"form": "structure_roumieu", "r": r_seq, "k": k_seq}
        # the two factors cancel the r-modified growth and leave decay at the k-modified gauge
        in_ws = modified_weights(ws, k_seq)
        in_grid = {"k_sequence": k_seq.label, "mode": "sigma_plus_k_modified"}
    else:
        raise ValueError("cls must be 'beurling' or 'roumieu'")

    pre = coefficient_verdict(ks, logc, pre_ws, [lam], "forall", -1.0, tau, pre_grid)
    if not pre.bounded:
        raise GrowthFail(f"coefficients exceed {bound} (margin {pre.margin:.2f})")
    P = build_ultrapolynomial(spec, ws, cls)
    if target is not None and not relation(ws, target, kind="strict").bounded:
        raise RelationFail(f"target {target.label} does not strictly dominate {ws.label}")

    g = replace(
        c,
        oracle=lambda kk: _times_exp(c.coefficients(kk), -log_eval_ultrapoly(P, np.asarray(kk, dtype=float))),
        tag="table",
        cls=cls,
        label=f"({c.label})/P",
    )

    # one log P(k) table: the reconstruction multiplies back g's oracle values on ks
    logP = log_eval_ultrapoly(P, ks)
    recon = _times_exp(_times_exp(cvals, -logP), logP)
    residual = float(np.max(np.abs(recon - cvals) / (1.0 + np.abs(cvals))))

    logg = logc - logP
    g_inclass = coefficient_verdict(ks, logg, in_ws, [lam], "forall", 1.0, tau, in_grid)
    g_target = None
    if target is not None:
        g_target = coefficient_verdict(
            ks, logg, target, DEFAULTS.lambda_grid, "forall", 1.0, tau,
            {"mu_grid": list(DEFAULTS.lambda_grid), "target": target.label},
        )

    lb = lower_bound_check(P, ws, lam=lam, tau=tau)
    return StructureFactorization(
        P=P,
        g=g,
        reconstruction_residual=residual,
        g_inclass=g_inclass,
        g_target=g_target,
        lower_bound=lb,
    )
