"""Outcome checker: every checked outcome is one op, attempted or failed.

An op fails when the call behind it raised or its outcome is wrong.
Failures keep their name and reason so a run can list them.  The module
has no dependency on the package, so its self-test runs on plain values.
"""

from __future__ import annotations

from collections import Counter


class Checker:
    """Counts ops and records each failure as (name, reason)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, reason: str = "") -> bool:
        """Record one op; reason explains a failure."""
        self.attempted += 1
        if not ok:
            self.failures.append((name, reason or "check failed"))
        return ok

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn; on an exception record a failed op and return None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - an error is a failed op, not a crash
            self.check(name, False, f"raised {type(exc).__name__}: {exc}")
            return None

    def verdict(self, name: str, got: bool, expected: bool, extra: str = "") -> bool:
        """A verdict against its value by construction."""
        reason = f"verdict {got}, expected {expected} by construction" + (f"; {extra}" if extra else "")
        return self.check(name, got == expected, reason)

    def agree(self, name: str, verdicts: dict[str, bool]) -> bool:
        """Methods that decide the same question must agree."""
        ok = len(set(verdicts.values())) <= 1
        return self.check(name, ok, "methods disagree: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()))

    def implies(self, name: str, premise: bool, conclusion: bool, text: str) -> bool:
        """A grid implication such as negligible => moderate."""
        return self.check(name, (not premise) or conclusion, f"implication fails: {text}")

    def memo_matches_fresh(
        self, name: str, memo: tuple[bool, float], fresh: tuple[bool, float], cause: str = ""
    ) -> bool:
        """A memoized (bounded, margin) against the same verdict on a fresh net."""
        same = memo[0] == fresh[0] and _close(memo[1], fresh[1])
        reason = f"memoized {memo[0]} (margin {memo[1]:.4g}) != fresh {fresh[0]} (margin {fresh[1]:.4g})"
        return self.check(name, same, reason + (f"; {cause}" if cause else ""))

    def within(self, name: str, value: float, lo: float, hi: float) -> bool:
        return self.check(name, lo <= value <= hi, f"{value!r} outside [{lo}, {hi}]")

    def summary(self) -> list[dict]:
        """Distinct failures with their counts, in first-seen order."""
        counts = Counter(self.failures)
        return [{"op": n, "reason": r, "count": c} for (n, r), c in counts.items()]


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
