"""Net constructions for the benchmark, each with its verdicts by construction.

The battery keeps its own copy of the ten reference nets (five
negligible, five moderate but not negligible), so that the workload does
not move when the test battery does.  Seeded random members of each
construction vary amplitudes, phases and decay rates but never the
degree structure, so every seed asks for about the same work.  Rates are
drawn from ranges whose desk margins sit far from tau, so the expected
verdicts hold for every seed.

Expected-verdict keys: roumieu_moderate, roumieu_negligible,
beurling_moderate, beurling_negligible, regular (Roumieu pattern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from periodic_gfa import algebra, embedding, series, weights

BATTERY_N_MAX = 32
COEF_N_MAX = 64

NEGLIGIBLE = {
    "roumieu_moderate": True,
    "roumieu_negligible": True,
    "beurling_moderate": True,
    "regular": True,
}
MODERATE = {
    "roumieu_moderate": True,
    "roumieu_negligible": False,
    "beurling_moderate": True,
    "beurling_negligible": False,
    "regular": False,
}


@dataclass(frozen=True)
class NetCase:
    """A reproducible net: build() returns a fresh Net with an empty memo.

    factors(n), when set, gives the (f_n, g_n) pair the generator
    multiplies at index n, so a traced run can replay series.multiply;
    embedded marks nets that build() makes with embedding.embed.
    """

    label: str
    build: Callable[[], algebra.Net]
    expected: dict
    factors: Callable[[int], tuple] | None = None
    embedded: bool = False


def _unit(rng) -> complex:
    """A random complex amplitude of modulus in [0.5, 2]."""
    return rng.uniform(0.5, 2.0) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _net(gen, label, n_max):
    return lambda: algebra.make_net(gen, n_max, label)


# ---------------------------------------------------------------------------
# battery: the ten reference nets and random members of the same constructions
# ---------------------------------------------------------------------------

def _negligible_cases(ws, n_max, rng=None):
    """zero, e^-rn sin, e^-cn^2 cos, e^-rn D_n, e^-M(rho n) e^int.

    Without rng these are the reference nets (r = 1, c = 1, r = 3,
    rho = 1, unit amplitude).  Rates keep the Beurling verdicts apart:
    exponential decay at rate <= 4 loses to M(8n) ~ 8n, while
    e^{-c n^2} with c >= 0.75 peaks inside the head n <= 8.
    """
    ref = rng is None
    sine, cosine = series.TrigPoly.sine(), series.TrigPoly.cosine()
    a = [1.0] * 4 if ref else [_unit(rng) for _ in range(4)]
    r1, c2, r3, rho = (1.0, 1.0, 3.0, 1.0) if ref else (
        rng.uniform(1.0, 2.0), rng.uniform(0.75, 1.5), rng.uniform(2.5, 3.5), rng.uniform(1.0, 1.5)
    )
    zero = series.TrigPoly.zero(0 if ref else int(rng.integers(0, 5)))
    labels = (
        ["zero", "e^-n sin", "e^-n^2 cos", "e^-3n D_n", "e^-M(n) e^int"] if ref else
        ["zero~", f"e^-{r1:.3g}n sin~", f"e^-{c2:.3g}n^2 cos~", f"e^-{r3:.3g}n D_n~",
         f"e^-M({rho:.3g}n) e^int~"]
    )
    gens = [
        lambda n: zero,
        lambda n: sine.scaled(a[0] * math.exp(-r1 * n)),
        lambda n: cosine.scaled(a[1] * math.exp(-c2 * n * n)),
        lambda n: series.TrigPoly.dirichlet(n).scaled(a[2] * math.exp(-r3 * n)),
        lambda n: series.TrigPoly.basis(n).scaled(
            a[3] * math.exp(-float(weights.associated_gauge(ws, rho * n)))
        ),
    ]
    beurling = [True, False, True, False, False]
    return [
        NetCase(label, _net(gen, label, n_max), {**NEGLIGIBLE, "beurling_negligible": b})
        for label, gen, b in zip(labels, gens, beurling)
    ]


def _moderate_cases(ws, n_max, rng=None):
    """dirichlet, sin, sin*D_n, cos*D_n, iota(cot_reg).

    Random members scale by a complex amplitude (margins are invariant
    under scaling), shift the Dirichlet band by a few frequencies, and
    replace the constant sin by a random first-degree polynomial.
    """
    sine, cosine = series.TrigPoly.sine(), series.TrigPoly.cosine()
    mol = embedding.build_mollifier("dirichlet")
    if rng is None:
        tag, const, cot = "", sine, series.cot_reg()
        lsin, lcos = sine, cosine
        dirichlet = NetCase(
            "dirichlet", _net(lambda n: series.TrigPoly.dirichlet(n), "dirichlet", n_max), MODERATE
        )
    else:
        tag = "~"
        const = sine.scaled(_unit(rng)) + cosine.scaled(_unit(rng))
        cot = series.cot_reg().scaled(_unit(rng))
        lsin, lcos = sine.scaled(_unit(rng)), cosine.scaled(_unit(rng))
        band = series.TrigPoly.basis(int(rng.integers(-3, 4)), _unit(rng))
        dirichlet = NetCase(
            "e^ijt D_n~",
            _net(lambda n: series.multiply(band, series.TrigPoly.dirichlet(n)), "e^ijt D_n~", n_max),
            MODERATE,
            factors=lambda n: (band, series.TrigPoly.dirichlet(n)),
        )
    return [
        dirichlet,
        NetCase(
            "sin" + tag,
            lambda: algebra.constant_net(const, n_max, "sin" + tag),
            {**MODERATE, "regular": True},
        ),
        NetCase(
            "sin*D_n" + tag,
            _net(lambda n: series.multiply(lsin, series.TrigPoly.dirichlet(n)), "sin*D_n" + tag, n_max),
            MODERATE,
            factors=lambda n: (lsin, series.TrigPoly.dirichlet(n)),
        ),
        NetCase(
            "cos*D_n" + tag,
            _net(lambda n: series.multiply(lcos, series.TrigPoly.dirichlet(n)), "cos*D_n" + tag, n_max),
            MODERATE,
            factors=lambda n: (lcos, series.TrigPoly.dirichlet(n)),
        ),
        NetCase("iota(cot_reg)" + tag, lambda: embedding.embed(cot, mol, n_max), MODERATE, embedded=True),
    ]


def battery_cases(ws, rng, n_max: int = BATTERY_N_MAX) -> list[NetCase]:
    """The ten reference nets followed by one random member of each construction."""
    return (
        _negligible_cases(ws, n_max)
        + _moderate_cases(ws, n_max)
        + _negligible_cases(ws, n_max, rng)
        + _moderate_cases(ws, n_max, rng)
    )


# ---------------------------------------------------------------------------
# coefficient workload: nets whose verdicts are read off their coefficients
# ---------------------------------------------------------------------------

def _all(moderate: bool, negligible: bool) -> dict:
    return {
        (cls, "moderate"): moderate for cls in ("roumieu", "beurling")
    } | {(cls, "negligible"): negligible for cls in ("roumieu", "beurling")}


def coefficient_cases(rng, n_max: int = COEF_N_MAX) -> list[NetCase]:
    """D_n, two random bands, two super-exponential and two exponential decays.

    Expected verdicts are keyed by Gevrey exponent s (1 or 2; the table
    scales log M_p = s log p! share them) and (class, mode).

    - band: |c_k| in [0.9, 1.1]/(2 pi) for |k| <= n, random phases.
      Moderate with lambda = h, never negligible.  The amplitude spread
      moves the profile by at most log(1.1/0.9) = 0.2 < tau.
    - e^{-c n^2} q, q of degree 2: negligible in every pattern.
    - e^{-r n} q with r in [1.5, 3]: Beurling-negligible only for s = 2,
      where M(8n) ~ 2 sqrt(8n) grows slower than r n past the head.
    """
    cases = [
        NetCase(
            "D_n",
            _net(lambda n: series.TrigPoly.dirichlet(n), "D_n", n_max),
            {1: _all(True, False), 2: _all(True, False)},
        )
    ]
    for i in range(2):
        mags = rng.uniform(0.9, 1.1, 2 * n_max + 1) / (2.0 * math.pi)
        table = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2 * n_max + 1))
        cases.append(
            NetCase(
                f"band#{i}",
                _net(
                    lambda n, t=table: series.TrigPoly(t[n_max - n : n_max + n + 1].copy(), n),
                    f"band#{i}",
                    n_max,
                ),
                {1: _all(True, False), 2: _all(True, False)},
            )
        )
    for i in range(2):
        q = series.TrigPoly(np.array([_unit(rng) for _ in range(5)]), 2)
        c = rng.uniform(0.75, 1.5)
        cases.append(
            NetCase(
                f"e^-{c:.3g}n^2 q#{i}",
                _net(lambda n, q=q, c=c: q.scaled(math.exp(-c * n * n)), f"superexp#{i}", n_max),
                {1: _all(True, True), 2: _all(True, True)},
            )
        )
    for i in range(2):
        q = series.TrigPoly(np.array([_unit(rng) for _ in range(5)]), 2)
        r = rng.uniform(1.5, 3.0)
        s1 = _all(True, True) | {("beurling", "negligible"): False}
        cases.append(
            NetCase(
                f"e^-{r:.3g}n q#{i}",
                _net(lambda n, q=q, r=r: q.scaled(math.exp(-r * n)), f"exp#{i}", n_max),
                {1: s1, 2: _all(True, True)},
            )
        )
    return cases
