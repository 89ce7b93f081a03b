"""The acceptance gate: every criterion of `crossmod.verify.CRITERIA` at its
stated tolerance and time budget, one pass/fail line each. Tolerances are
exact equality throughout (all arithmetic is exact); the budgets live in the
table, and a criterion passes only within its budget.
"""

import pytest

from crossmod import verify


@pytest.mark.parametrize("criterion", verify.CRITERIA,
                         ids=lambda c: f"{c.number:02d}_{c.suite}")
def test_criterion(criterion):
    result = criterion.run()
    print("\n" + "\n".join([result.summary(), *result.lines]))
    assert result.ok, f"{result.summary()}; budget {criterion.budget}s"


def test_suites_partition_the_criteria():
    everything = [c.number for c in verify.SUITES["all"]]
    assert everything == list(range(1, 12))  # each of the 11 criteria once, in order
    named = [name for name in verify.SUITES if name not in ("none", "all")]
    assert named == ["axioms", "iso", "interchange", "boxed", "evaluator", "invariance",
                     "pushforward", "adjunction", "simplicial", "mutations"]
    assert sorted(c.number for name in named for c in verify.SUITES[name]) == everything
    assert verify.SUITES["none"] == []
    assert all(c.budget > 0 for c in verify.CRITERIA)


def test_a_passing_check_over_its_budget_fails():
    late = verify.Criterion(0, "no time allowed", "none", 0.0, lambda: (True, ["  ran"]))
    result = late.run()
    assert not result.ok and result.lines == ["  ran"]
    assert result.summary().startswith("FAIL criterion 0: no time allowed (")
