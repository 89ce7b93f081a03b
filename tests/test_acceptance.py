"""The acceptance gate: every criterion of `crossmod.verify.CRITERIA` at its
stated tolerance and time budget, one pass/fail line each. Tolerances are
exact equality throughout (all arithmetic is exact); the budgets live in the
table, and a criterion passes only within its budget.
"""

import dataclasses

import pytest

from crossmod import algebras, fixtures, verify
from crossmod.fields import QQ
from crossmod.groups import GroupHomomorphism
from crossmod.report import AxiomResult, CheckReport


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


def _criterion(number):
    return next(c for c in verify.CRITERIA if c.number == number)


def test_pushforward_criterion_checks_the_pushforward_once(monkeypatch):
    """Criterion 8 reads its checker line off the check that
    pushforward_data runs, and runs check_crossed_algebra no second time."""
    fixtures.std_algebras(QQ)  # built before counting
    calls = []
    real = algebras.check_crossed_algebra

    def counting(L):
        calls.append(L.name)
        return real(L)

    monkeypatch.setattr(algebras, "check_crossed_algebra", counting)
    monkeypatch.setattr(verify, "check_crossed_algebra", counting)
    ok, lines = _criterion(8).check()
    assert ok and "  pushforward of K[S3] over (1->Z/2): checker ok" in lines
    assert calls == ["push(KP.CM-A3S3)"]


# the fixture crossed modules with every boundary value moved to base element
# 1, so that no grade dimension of K[C] matches the formula
BOUNDARY_MOVED = {name: dataclasses.replace(cm, boundary=GroupHomomorphism(
                      cm.top, cm.base, (1,) * cm.top.order))
                  for name, cm in fixtures.std_crossed_modules().items()}


def _raise_rho_ill_defined(fmor, L, name=None):
    raise algebras.RhoIllDefined("no pairing in class 1 is preserved by the quotient map")


# (criterion, the attribute of verify or fixtures that is replaced to fail
# one of its sub-checks, the replacement, the passing lines of that
# sub-check, a line that states its failure)
FAILING_SUBCHECKS = {
    "dims": (2, (fixtures, "std_crossed_modules"), lambda: BOUNDARY_MOVED,
             [f"  KC.{name}: grade dims match |ker d| * [p in dC]"
              for name in fixtures.std_crossed_modules()],
             "  KC.CM-Mod: FAIL: grade dims [3, 0], |ker d| * [p in dC] [0, 0], "
             "brute-force count [0, 3]"),
    "pushforward": (8, (verify, "pushforward_data"), _raise_rho_ill_defined,
                    ["  pushforward of K[S3] over (1->Z/2): checker ok"],
                    "  pushforward of K[S3] over (1->Z/2): FAIL: "
                    "no pairing in class 1 is preserved by the quotient map"),
    "transposes": (9, (verify, "morphisms_equal"), lambda a, b: False,
                   ["  transposes are mutually inverse on every enumerated morphism"],
                   "  FAIL: a transpose is not a morphism, or not inverse to its untranspose"),
    "simplicial": (10, (verify, "validate_simplicial"),
                   lambda m: CheckReport("simplicial formal map",
                                         [AxiomResult("boundary", False, "t", "fails", 1)]),
                   ["  potential-derived labelings of the full tetrahedron validate",
                    "  CM-Id2: both annulus triangulations flatten to the same piece, all (c,g,h)",
                    "  CM-A3S3: 50 random tuples, both triangulations agree"],
                   "  FAIL: a potential-derived labeling of the full tetrahedron does not validate"),
}


@pytest.mark.parametrize("subcheck", FAILING_SUBCHECKS)
def test_a_failing_subcheck_prints_no_passing_line(monkeypatch, subcheck):
    """A sub-check that fails fails its criterion, and none of the lines
    printed states what passing lines would: one states the failure."""
    number, (owner, name), replacement, passing, failing = FAILING_SUBCHECKS[subcheck]
    fixtures.std_algebras(QQ)  # built over the real crossed modules
    monkeypatch.setattr(owner, name, replacement)
    ok, lines = _criterion(number).check()
    assert not ok
    assert not any(text in line for line in lines for text in passing), lines
    assert failing in lines, lines
