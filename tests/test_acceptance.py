"""Acceptance gate: every numbered criterion at full scale, on seed 0.

Each test prints its PASS/FAIL line unconditionally (capture disabled) so a
full run always shows the per-criterion verdicts, then asserts both the
verdict and the runtime budget.
"""

import pytest

from dupkit import verify


@pytest.mark.parametrize("number", sorted(verify.BUDGETS))
def test_criterion(number, capsys):
    res = verify.ALL_CRITERIA[number - 1](0)
    assert res.number == number
    line = (
        f"{'PASS' if res.passed else 'FAIL'}  criterion {res.number} ({res.name}): "
        f"{res.detail} [{res.elapsed:.1f}s of {verify.BUDGETS[number]:.0f}s budget]"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert res.passed, line
    assert res.elapsed < verify.BUDGETS[number], line
