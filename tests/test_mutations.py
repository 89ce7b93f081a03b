"""Each corpus mutation is caught by the one family it names: the Detection's
instance is the first failing result of that family in the checker's report."""

import pytest

from crossmod import mutations
from crossmod.report import CheckReport


@pytest.mark.parametrize("name", list(mutations.MUTATIONS))
def test_mutation_is_caught_by_its_own_family(monkeypatch, name):
    seen = []

    def spy(mutation, family, report):
        seen.append((family, report))
        return _from_report(mutation, family, report)

    _from_report = mutations._from_report
    monkeypatch.setattr(mutations, "_from_report", spy)
    detection = mutations.run_mutation(name)
    assert detection.detected, detection
    if not seen:  # the section mutation raises instead of reporting
        assert name == "section"
        return
    (family, report), = seen
    assert detection.family == family
    first = next(r for r in report.results if r.axiom == family and not r.ok)
    assert (detection.instance, detection.detail) == (first.instance, first.detail)


def test_failure_of_another_family_is_not_a_detection():
    report = CheckReport("algebra")
    report.add("unit", [("1*e_e", "unit law fails")])
    report.add_pass("trace")
    detection = mutations._from_report("algebra.phi_trace_entry", "trace", report)
    assert not detection.detected
    assert (detection.instance, detection.detail) == (None, None)
