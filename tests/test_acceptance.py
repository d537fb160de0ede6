"""Acceptance gate: every numbered criterion at full scale, on seed 0.

Each test prints its PASS/FAIL line unconditionally (capture disabled) so a
full run always shows the per-criterion verdicts, then asserts both the
verdict and the runtime budget.
"""

import inspect
import time

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


def test_criterion_5_samples_each_plan_once(monkeypatch):
    # 5 instances of 2-6 bidders: one estimate per candidate plan of the
    # single, kfree and kcon families, plus one each for vcg2 and hr; the
    # winning single duplicate is not sampled again
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    estimate = verify.estimate_revenue
    monkeypatch.setattr(verify, "estimate_revenue", counted)
    monkeypatch.setattr(verify, "_SWEEP_INSTANCES", 5)
    monkeypatch.setattr(verify, "_SWEEP_SAMPLES", 2_000)
    res = verify.ALL_CRITERIA[4](0)
    assert res.passed, res.detail
    assert len(calls) == 76
    assert all(call[3] == 2_000 for call in calls)


def test_each_criterion_is_one_row_of_the_table():
    assert verify.BUDGETS == {1: 1.0, 2: 60.0, 3: 300.0, 4: 1.0, 5: 600.0, 6: 60.0,
                              7: 300.0, 8: 30.0, 9: 300.0}
    assert [c.number for c in verify.ALL_CRITERIA] == list(range(1, 10))
    for criterion in verify.ALL_CRITERIA:
        assert list(inspect.signature(criterion).parameters) == ["seed"]
        assert list(inspect.signature(criterion.check).parameters) == ["seed"]


def test_a_row_times_its_check():
    def check(seed):
        time.sleep(0.01)
        return seed == 3, f"seed {seed}"

    res = verify.Criterion(10, "sleeps", 1.0, check)(3)
    assert (res.number, res.name, res.passed, res.detail) == (10, "sleeps", True, "seed 3")
    assert 0.01 <= res.elapsed < 1.0
