"""Axiom check reports shared by all validators.

A report lists, per axiom family, whether it passed and the first
counterexample instance found, plus a violation count so exhaustive sweeps
can be summarized without storing every failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AxiomResult:
    axiom: str
    ok: bool
    instance: str | None = None
    detail: str | None = None
    violations: int = 0

    def to_json(self):
        doc = {"axiom": self.axiom, "ok": self.ok}
        if not self.ok:
            doc["instance"] = self.instance
            doc["detail"] = self.detail
            doc["violations"] = self.violations
        return doc


@dataclass
class CheckReport:
    subject: str
    results: list[AxiomResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.ok]

    def first_failure(self) -> AxiomResult | None:
        bad = self.failures()
        return bad[0] if bad else None

    def require(self, error=ValueError) -> "CheckReport":
        """The report itself when every family passed; otherwise raise
        `error` naming the subject and the first failing family, instance
        and detail. The one place a failing check becomes an exception."""
        for r in self.results:
            if not r.ok:
                raise error(f"{self.subject}: {r.axiom} fails at {r.instance}: {r.detail}")
        return self

    def add_pass(self, axiom: str):
        self.results.append(AxiomResult(axiom, True))

    def add(self, axiom: str, failures: list[tuple[str, str]]):
        """Record one axiom family from a list of (instance, detail) failures."""
        if not failures:
            self.add_pass(axiom)
        else:
            inst, detail = failures[0]
            self.results.append(AxiomResult(axiom, False, inst, detail, len(failures)))

    def merge(self, other: "CheckReport"):
        self.results.extend(other.results)

    def to_json(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [r.to_json() for r in self.results],
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.subject}"]
        for r in self.failures():
            lines.append(f"  {r.axiom}: {r.violations} violation(s), first at {r.instance}: {r.detail}")
        return "\n".join(lines)
