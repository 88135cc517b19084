"""The tensor quantifier engine against the per-cell rule it replaced."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from periodic_gfa import embedding as E
from periodic_gfa import regularity as R
from periodic_gfa import series as S
from periodic_gfa import verdict as V

NEG_INF = float("-inf")


def reference_bounded_test(log_values, tau):
    """The per-cell head-versus-tail rule, one sequence at a time."""
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
        return False, math.inf, witness, baseline
    if baseline == NEG_INF:
        return False, math.inf, witness, baseline
    margin = tail_max - baseline
    return margin <= tau, margin, witness, baseline


_QUANTIFIERS = {"forall": (np.max, np.argmax), "exists": (np.min, np.argmin)}


def reference_decide(profiles, outer_q, inner_q, tau, grid, method, ks=None, slack=0.0):
    """The cell loop: reference_bounded_test per cell, then the quantifier reductions."""
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
            _, m, w, _ = reference_bounded_test(prof, tau)
            margins[i, j] = m
            witnesses[i, j] = int(freqs[w]) if ks is not None and w is not None else w
    inner_red, inner_arg = _QUANTIFIERS[inner_q]
    outer_red, outer_arg = _QUANTIFIERS[outer_q]
    per_outer = inner_red(margins, axis=1)
    margin = float(outer_red(per_outer))
    i_star = int(outer_arg(per_outer))
    j_star = int(inner_arg(margins[i_star]))
    return V.GrowthVerdict(
        bounded=margin <= tau,
        margin=margin,
        witness_n=witnesses[i_star, j_star],
        grid=grid,
        method=method,
        tau=tau,
        details={"margins": margins.tolist(), "decisive_outer": i_star, "decisive_inner": j_star},
        margin_bracket=(margin - slack, margin + slack),
    )


# few distinct values, so ties and +/-inf are common
ENTRIES = st.one_of(
    st.sampled_from([NEG_INF, math.inf, -1.0, 0.0, 0.5, 2.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def profile_grids(draw):
    """A (outer, inner, n) stack of profiles; some cells get an all -inf head or tail."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 80)))
    e = draw(hnp.arrays(float, shape, elements=ENTRIES))
    n0 = max(8, (shape[2] - 1) // 8)
    e[draw(hnp.arrays(bool, shape[:2])), : n0 + 1] = NEG_INF
    e[draw(hnp.arrays(bool, shape[:2])), n0 + 1 :] = NEG_INF
    return e


def summary(v):
    return v.bounded, repr(v.margin), v.witness_n, v.details, v.margin_bracket


class TestTensorEngine:
    @settings(max_examples=300, deadline=None)
    @given(
        e=profile_grids(),
        outer_q=st.sampled_from(["forall", "exists"]),
        inner_q=st.sampled_from(["forall", "exists"]),
        tau=st.sampled_from([0.0, 0.5, 3.0]),
        slack=st.sampled_from([0.0, S.GRID_SLACK]),
        nested=st.booleans(),
    )
    def test_equals_the_cell_loop(self, e, outer_q, inner_q, tau, slack, nested):
        profiles = [[list(p) for p in row] for row in e] if nested else e
        got = V.decide(profiles, outer_q, inner_q, tau, {"g": 1}, "m", slack=slack)
        want = reference_decide(profiles, outer_q, inner_q, tau, {"g": 1}, "m", slack=slack)
        assert summary(got) == summary(want)

    @settings(max_examples=300, deadline=None)
    @given(e=profile_grids(), data=st.data(), q=st.sampled_from(["forall", "exists"]))
    def test_frequency_fold_equals_the_cell_loop(self, e, data, q):
        # negative and repeated frequencies, in any order
        ks = data.draw(st.lists(st.integers(-12, 12), min_size=e.shape[2], max_size=e.shape[2]))
        got = V.decide(e, "forall", q, 0.5, None, "coefficient", ks=ks)
        want = reference_decide(e, "forall", q, 0.5, None, "coefficient", ks=ks)
        assert summary(got) == summary(want)

    @settings(max_examples=300, deadline=None)
    @given(e=profile_grids(), tau=st.sampled_from([0.0, 0.5]))
    def test_bounded_test_is_the_one_row_case(self, e, tau):
        row = e[0, 0]
        got, want = V.bounded_test(row, tau), reference_bounded_test(row, tau)
        assert (got[0], repr(got[1]), got[2], repr(got[3])) == (want[0], repr(want[1]), want[2], repr(want[3]))
        assert [type(x) for x in got] == [type(x) for x in want]


def fancy_fold_decide(profiles, outer_q, inner_q, tau, grid, method, ks, slack=0.0):
    """decide(..., ks=ks) with its fold by fancy indexing, e[..., order]: the stack decided on rows
    whose k axis is strided, the witness read as |k|; the reference for the np.take fold."""
    freqs = np.abs(np.asarray(ks))
    order = np.argsort(freqs, kind="stable")
    e = np.asarray(profiles, dtype=float)[..., order]
    v = V.decide(e, outer_q, inner_q, tau, grid, method, slack=slack)
    return dataclasses.replace(v, witness_n=None if v.witness_n is None else int(freqs[order][v.witness_n]))


def signed_reprs(v):
    """repr of the verdict and of its details, which tell -0.0 from 0.0 where == does not."""
    return repr(v), repr(v.details)


class TestContiguousFold:
    """decide folds the stack to |k| ascending with np.take, which keeps every row C-ordered."""

    KS = np.array([k * (-1) ** k for k in range(21)] + [-k for k in range(1, 21)])  # |k| <= 20, each sign

    @staticmethod
    def rows(ks):
        """(1, 6, len(ks)) profiles over ks: +inf in the tail, an empty tail, tail maxima tied at
        |k| = 7 and 9 (and at +-7), the same row twice (tied margins), -0.0 tail entries over a
        +0.0 baseline (margin -0.0) and an all -inf head under a finite tail.  The head ends at
        |k| = 4.  No row's maximum is a zero held with both signs: see the test on that case."""
        a = np.abs(ks).astype(float)
        inf_tail = np.where(a == 15, math.inf, -a)
        empty_tail = np.where(a <= 4, 1.0, NEG_INF)
        tied = np.where(np.isin(a, (7, 9)), 3.0, -a)
        signed = np.where(a == 0, 0.0, np.where((a > 4) & (a % 2 == 0), -0.0, -1.0 - a))
        no_head = np.where(a <= 4, NEG_INF, 1.0 - a)
        return np.array([[inf_tail, empty_tail, tied, tied, signed, no_head]])

    @pytest.mark.parametrize("cells", [slice(None), slice(1, 5), slice(2, 4), slice(4, 5), slice(1, 2)])
    @pytest.mark.parametrize("inner_q", ["forall", "exists"])
    @pytest.mark.parametrize("outer_q", ["forall", "exists"])
    def test_equals_the_fancy_fold(self, cells, inner_q, outer_q):
        rng = np.random.default_rng(30)
        for ks in (self.KS, rng.permutation(self.KS), np.sort(self.KS)):
            e = self.rows(ks)[:, cells]
            got = V.decide(e, outer_q, inner_q, 0.5, {"g": 1}, "coefficient", ks=ks, slack=0.25)
            want = fancy_fold_decide(e, outer_q, inner_q, 0.5, {"g": 1}, "coefficient", ks, slack=0.25)
            assert signed_reprs(got) == signed_reprs(want)

    def test_witness_order_and_signed_zero_margin(self):
        e = self.rows(self.KS)
        tied = V.decide(e[:, 2:4], "forall", "forall", 0.5, None, "coefficient", ks=self.KS)
        assert (tied.margin, tied.witness_n, tied.details["decisive_inner"]) == (3.0, 7, 0)
        signed = V.decide(e[:, 4:5], "forall", "forall", 0.5, None, "coefficient", ks=self.KS)
        assert repr(signed.margin) == "-0.0" and signed.witness_n == 6

    def test_zero_of_both_signs_follows_the_cell_loop(self):
        # A row whose maximum is a zero held with both signs: the sign of its max is the reduction
        # loop's, and a strided row may take another loop than a contiguous one.  The fold keeps
        # rows contiguous, as the cell loop does.
        rng = np.random.default_rng(31)
        for _ in range(200):
            shape = (rng.integers(1, 4), rng.integers(1, 7), rng.integers(10, 81))
            e = rng.choice([0.0, -0.0, -1.0, NEG_INF], size=shape)
            ks = rng.integers(-20, 21, size=shape[2])
            for qs in (("forall", "exists"), ("exists", "forall")):
                got = V.decide(e, *qs, 0.5, None, "coefficient", ks=ks)
                want = reference_decide(e, *qs, 0.5, None, "coefficient", ks=ks)
                assert signed_reprs(got) == signed_reprs(want)

    def test_head_tail_reads_contiguous_rows(self, monkeypatch, ws_p1):
        seen, head_tail = [], V._head_tail

        def spying(e):
            seen.append((e.shape[:-1], e.flags.c_contiguous))
            return head_tail(e)

        monkeypatch.setattr(V, "_head_tail", spying)
        R.coefficient_decay_class(S.exp_decay(1.0), ws_p1, "beurling")
        S.certify_growth(S.cot_reg(), ws_p1)
        assert seen == [((1, len(V.DEFAULTS.lambda_grid)), True), ((1, 1), True)]


class TestNonFiniteInputs:
    """A non-finite grid entry or tau raises instead of giving a verdict."""

    @pytest.mark.parametrize("grid", [[math.inf], [1.0, math.nan], [0.5, -math.inf]])
    def test_desk_grid_rejects_non_finite_entries(self, grid):
        with pytest.raises(ValueError, match="each finite"):
            V.desk_grid(grid, V.DEFAULTS.h_grid)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -0.5])
    def test_tau_must_be_finite_and_nonnegative(self, tau):
        e = np.zeros((1, 1, 17))
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            V.bounded_test(e[0, 0], tau)
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            V.decide(e, "forall", "exists", tau, None, "m")

    def test_zero_tau_is_accepted(self):
        assert V.bounded_test(np.zeros(17), 0.0)[0]
        assert V.decide(np.zeros((1, 1, 17)), "forall", "exists", 0.0, None, "m").bounded


def _growth(**kw):
    base = {"bounded": True, "margin": 0.0, "witness_n": None, "grid": {}, "method": "m"}
    return V.GrowthVerdict(**(base | kw))


class TestJsonable:
    """jsonable is the one encoder of every report."""

    def test_rules(self):
        got = V.jsonable({
            0.25: (math.inf, -math.inf, math.nan),
            "array": np.array([1.5, np.inf]),
            "f64": np.float64(0.5),
            "f32": np.float32(-np.inf),
            "i64": np.int64(7),
            "z": complex(1.0, -math.inf),
            "kept": ["s", True, None, 3],
        })
        assert got == {
            "0.25": ["inf", "-inf", "nan"],
            "array": [1.5, "inf"],
            "f64": 0.5,
            "f32": "-inf",
            "i64": 7,
            "z": {"re": 1.0, "im": "-inf"},
            "kept": ["s", True, None, 3],
        }
        assert type(got["f64"]) is float and type(got["i64"]) is int

    @pytest.mark.parametrize(
        "report, path, want",
        [
            (_growth(grid={"h_grid": (0.5, math.inf)}), ("grid", "h_grid"), [0.5, "inf"]),
            (_growth(witness_n=np.int64(9)), ("witness_n",), 9),
            (E.ProductPreservationReport(_growth(), {"truncation_tails": [math.inf, 0.0]}, [0.0], 0),
             ("residual_bound", "truncation_tails"), ["inf", 0.0]),
        ],
        ids=["growth-grid-inf", "growth-witness-int64", "product-tails-inf"],
    )
    def test_to_json_is_strict_json(self, report, path, want):
        # each nested value reached the report as it was, so json.dumps wrote Infinity or failed
        out = report.to_json()
        json.dumps(out, allow_nan=False)
        for key in path:
            out = out[key]
        assert out == want and type(out) is type(want)
