"""Self-test of the outcome checker: each kind of wrong outcome is a failed op.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from perfbench.checker import Checker


def test_correct_outcomes_fail_nothing():
    chk = Checker()
    chk.verdict("net/roumieu_negligible", True, True)
    chk.agree("net/methods", {"full_norm": False, "sup_norm": False, "coefficient": False})
    chk.memo_matches_fresh("net/memo=fresh", (True, 0.25), (True, 0.25))
    chk.implies("net/negligible=>moderate", True, True, "negligible without moderate")
    assert (chk.attempted, chk.failed) == (4, 0)


def test_flipped_expected_verdict_is_failed():
    chk = Checker()
    chk.verdict("net/roumieu_negligible", True, expected=False)
    assert (chk.attempted, chk.failed) == (1, 1)
    assert chk.failures[0][0] == "net/roumieu_negligible"
    assert "expected False" in chk.failures[0][1]


def test_method_disagreement_is_failed():
    chk = Checker()
    chk.agree("net/methods", {"full_norm": True, "sup_norm": True, "coefficient": False})
    assert chk.failed == 1
    assert "coefficient=False" in chk.failures[0][1]


def test_memo_fresh_mismatch_is_failed():
    chk = Checker()
    chk.memo_matches_fresh("net/memo=fresh", (False, 8.955), (True, 0.0), cause="shared memo key")
    chk.memo_matches_fresh("net/margin", (False, 17.04), (False, 8.082))
    assert (chk.attempted, chk.failed) == (2, 2)
    assert "shared memo key" in chk.failures[0][1]


def test_failed_implication_and_raised_call_are_failed():
    chk = Checker()
    chk.implies("net/beurling=>roumieu", True, False, "Beurling-negligible only")

    def boom():
        raise ValueError("bad grid")

    assert chk.call("net/call", boom) is None
    assert (chk.attempted, chk.failed) == (2, 2)
    assert chk.failures[1] == ("net/call", "raised ValueError: bad grid")


def test_summary_counts_repeats():
    chk = Checker()
    for _ in range(3):
        chk.verdict("net/regular", False, True)
    assert chk.summary() == [
        {"op": "net/regular", "reason": "verdict False, expected True by construction", "count": 3}
    ]
