"""Each derived CoefDistribution equals the explicit construction it replaced.

`scaled`, `modulate`, `apply_operator`, `convolve` and the factor g of
`structure_factorize` build their results with `dataclasses.replace`. The
`_explicit_*` functions below restate every field by hand, as these sites did
before; each derived distribution must match its reference in tag, class,
growth rate and label, and in its coefficients byte for byte on a window that
reaches the range where P(k) leaves double precision.
"""

import math

import numpy as np
import pytest

from periodic_gfa import embedding as E
from periodic_gfa import operators as O
from periodic_gfa import series as S
from periodic_gfa import weights as W

TWO_PI = 2 * math.pi
WS = W.gevrey(1.0, 2048)
# log P(k) passes 745 from |k| = 200 for the Beurling series and near |k| = 9000 for the Roumieu one,
# whose window takes two far points (the Beurling series is slow to sum there)
KS = np.arange(-400, 401)
ROUMIEU_KS = np.concatenate([KS, [-12000, 12000]])
RS = W.linear_rsequence(1024)


def _explicit_scaled(d, a):
    return S.CoefDistribution(
        oracle=lambda ks, _o=d.oracle: np.asarray(_o(ks)) * a,
        tag=d.tag,
        cls=d.cls,
        growth_lambda=d.growth_lambda,
        label=f"{a}*{d.label}",
    )


def _explicit_modulate(f, k):
    return S.CoefDistribution(
        oracle=lambda ks, _o=f.oracle: np.asarray(_o(np.asarray(ks) - k)),
        tag=f.tag,
        cls=f.cls,
        growth_lambda=f.growth_lambda,
        label=f"e^(i{k}t)*{f.label}",
    )


def _explicit_apply(P, f):
    return S.CoefDistribution(
        oracle=lambda ks, _o=f.oracle: O._times_multiplier(P, np.asarray(ks), _o(ks)),
        tag=f.tag,
        cls=f.cls,
        growth_lambda=O._applied_growth_lambda(P, f.growth_lambda),
        label=f"{P.label}({f.label})",
    )


def _explicit_convolve(f, g):
    lam = 4.0 * max(f.growth_lambda, g.growth_lambda)
    return S.CoefDistribution(
        oracle=lambda ks: TWO_PI * f.coefficients(ks) * g.coefficients(ks),
        tag="table" if "table" in (f.tag, g.tag) else f.tag,
        cls=f.cls,
        growth_lambda=lam,
        label=f"({f.label})*({g.label})",
    )


def _explicit_quotient(c, P, cls):
    def g_oracle(kk, _c=c, _P=P):
        kk = np.asarray(kk)
        return O._times_exp(np.asarray(_c.coefficients(kk)), -O.log_eval_ultrapoly(_P, kk.astype(float)))

    return S.CoefDistribution(
        oracle=g_oracle,
        tag="table",
        cls=cls,
        growth_lambda=c.growth_lambda,
        label=f"({c.label})/P",
    )


def _fields(d):
    return d.tag, d.cls, d.growth_lambda, d.label


def assert_same(got, want, ks=KS):
    assert _fields(got) == _fields(want)
    assert got.coefficients(ks).tobytes() == want.coefficients(ks).tobytes()


SOURCES = {
    "delta-beurling": lambda: S.delta("beurling"),
    "cot_reg": lambda: S.cot_reg(),
    "exp_growth": lambda: S.exp_growth(0.5, WS, "beurling"),
    "complex-table": lambda: S.from_trigpoly(S.TrigPoly.basis(3).scaled(1 - 2j), cls="beurling", label="t"),
}


def _operator(form):
    if form == "table":
        return O.build_ultrapolynomial([1, 0, 1], WS, "roumieu")
    if form == "structure_beurling":
        return O.build_ultrapolynomial({"form": form, "lambda": 1.0}, WS, "beurling")
    return O.build_ultrapolynomial({"form": form, "r": RS, "k": RS}, WS, "roumieu")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("a", [2.5, 1j, -0.5 + 3j])
def test_scaled(source, a):
    d = SOURCES[source]()
    assert_same(d.scaled(a), _explicit_scaled(d, a))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("k", [3, -5])
def test_modulate(source, k):
    f = SOURCES[source]()
    assert_same(E.modulate(f, k), _explicit_modulate(f, k))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("form", ["table", "structure_beurling", "structure_roumieu"])
def test_apply_operator(source, form):
    P, f = _operator(form), SOURCES[source]()
    ks = ROUMIEU_KS if form == "structure_roumieu" else KS
    assert form == "table" or O.log_eval_ultrapoly(P, ks).max() > 745
    assert_same(O.apply_operator(P, f), _explicit_apply(P, f), ks)


@pytest.mark.parametrize("pair", [("cot_reg", "exp_growth"), ("complex-table", "delta-beurling"),
                                  ("delta-beurling", "complex-table"), ("exp_growth", "cot_reg")])
def test_convolve(pair):
    f, g = (SOURCES[name]() for name in pair)
    assert_same(S.convolve(f, g), _explicit_convolve(f, g))


@pytest.mark.parametrize(
    "c, cls",
    [(S.exp_growth(0.5, WS, "roumieu").scaled(1j), "beurling"), (S.cot_reg("beurling"), "roumieu")],
    ids=["beurling", "roumieu"],
)
def test_structure_factor_g(c, cls):
    # c's class differs from the factorization's, so g must take the class it is factored in
    fact = O.structure_factorize(c, WS, cls, r_seq=RS, k_seq=RS, k_max=200)
    ks = ROUMIEU_KS if cls == "roumieu" else KS
    assert fact.g.cls == cls != c.cls and O.log_eval_ultrapoly(fact.P, ks).max() > 745
    assert_same(fact.g, _explicit_quotient(c, fact.P, cls), ks)
