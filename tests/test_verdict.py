"""The tensor quantifier engine against the per-cell rule it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
