"""Crossed modules (C, P, boundary, action), their morphisms, standard
constructors and derived invariants. Their 2-cells, which compose
horizontally as the semidirect product of C by P, are
`formal_maps.LabeledCell`."""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (
    FiniteGroup,
    GroupAction,
    GroupConstructionError,
    GroupHomomorphism,
    automorphism_group,
    check_action,
    check_homomorphism,
    identity_hom,
    is_normal,
    quotient_group,
    restrict_subgroup,
    trivial_action,
    trivial_group,
    trivial_hom,
)
from .report import CheckReport


class CrossedModuleMismatch(ValueError):
    """Two inputs that must be over one crossed module are not."""


@dataclass(frozen=True)
class CrossedModule:
    """A boundary homomorphism top -> base with a base-action on top,
    satisfying equivariance (CM1) and the Peiffer identity (CM2). Equality
    and hashing compare the groups, boundary and action, never the name."""

    name: str = field(compare=False)
    top: FiniteGroup
    base: FiniteGroup
    boundary: GroupHomomorphism
    act: GroupAction

    def d(self, c: int) -> int:
        return self.boundary.map[c]

    def action(self, p: int, c: int) -> int:
        return self.act.table[p][c]

    def __repr__(self):
        return f"CrossedModule({self.name}: |C|={self.top.order}, |P|={self.base.order})"


def require_same(cm: CrossedModule, other: CrossedModule, subject: str, relation: str) -> None:
    """Raise CrossedModuleMismatch unless cm and other are one crossed module
    (the same groups, boundary and action, whatever their names), with the
    message "<subject> is over crossed module <cm>, <relation> <other>". The
    other is named "a different crossed module of that name" when the two
    names are equal."""
    if cm != other:
        name = "a different crossed module of that name" if cm.name == other.name else other.name
        raise CrossedModuleMismatch(f"{subject} is over crossed module {cm.name}, {relation} {name}")


def check_crossed_module(cm: CrossedModule) -> CheckReport:
    """CM1 over all (p, c) and CM2 over all (c, c'), exhaustively."""
    report = CheckReport(f"crossed module {cm.name}")
    report.merge(check_homomorphism(cm.boundary))
    report.merge(check_action(cm.act))
    C, P = cm.top, cm.base
    fails = []
    for p in P.elements():
        for c in C.elements():
            if cm.d(cm.action(p, c)) != P.conj(p, cm.d(c)):
                fails.append((f"(p={P.names[p]}, c={C.names[c]})",
                              "d(^p c) != p d(c) p^-1"))
    report.add("CM1_equivariance", fails)
    fails = []
    for c in C.elements():
        for c2 in C.elements():
            if cm.action(cm.d(c), c2) != C.conj(c, c2):
                fails.append((f"(c={C.names[c]}, c'={C.names[c2]})",
                              "^(dc) c' != c c' c^-1"))
    report.add("CM2_peiffer", fails)
    return report


def crossed_module(name, top, base, boundary, act) -> CrossedModule:
    cm = CrossedModule(name, top, base, boundary, act)
    check_crossed_module(cm).require(GroupConstructionError)
    return cm


def from_normal_inclusion(g: FiniteGroup, members, name=None) -> CrossedModule:
    """Normal subgroup inclusion with the conjugation action. The action and
    the boundary are checked once, by `crossed_module`."""
    sub, incl = restrict_subgroup(g, members)
    if not is_normal(g, incl):
        raise GroupConstructionError(f"{list(incl)} is not normal")
    pos = {m: i for i, m in enumerate(incl)}
    act = GroupAction(g, sub, tuple(tuple(pos[g.conj(p, m)] for m in incl)
                                    for p in g.elements()))
    return crossed_module(name or "inclusion", sub, g, GroupHomomorphism(sub, g, incl), act)


def from_module(m: FiniteGroup, p: FiniteGroup, act: GroupAction, name=None) -> CrossedModule:
    """A P-module with the constant-identity boundary; m must be abelian."""
    if not m.is_abelian():
        raise GroupConstructionError("constant boundary forces an abelian top group")
    if act.actor != p or act.space != m:
        raise GroupConstructionError("action must be of p on m")
    return crossed_module(name or "module", m, p, trivial_hom(m, p), act)


def from_conjugation_aut(g: FiniteGroup, name=None) -> CrossedModule:
    """g -> Aut(g) by inner automorphisms, with the standard action."""
    aut = automorphism_group(g)
    return crossed_module(name or "inner", g, aut.group, aut.embedding, aut.standard_action)


def kernel_and_image(cm: CrossedModule):
    """(ker d, im d, the quotient base/im with its projection)."""
    ker = tuple(c for c in cm.top.elements() if cm.d(c) == 0)
    img = tuple(sorted(set(cm.boundary.map)))
    quot, proj = quotient_group(cm.base, img)
    return ker, img, quot, proj


@dataclass(frozen=True)
class CrossedModuleMorphism:
    source: CrossedModule
    target: CrossedModule
    f_top: GroupHomomorphism
    f_base: GroupHomomorphism


def check_morphism(m: CrossedModuleMorphism) -> CheckReport:
    report = CheckReport("crossed module morphism")
    report.merge(check_homomorphism(m.f_top))
    report.merge(check_homomorphism(m.f_base))
    src, tgt = m.source, m.target
    fails = []
    for c in src.top.elements():
        if tgt.d(m.f_top.map[c]) != m.f_base.map[src.d(c)]:
            fails.append((f"c={src.top.names[c]}", "d' f1 != f0 d"))
    report.add("square_commutes", fails)
    fails = []
    for p in src.base.elements():
        for c in src.top.elements():
            if m.f_top.map[src.action(p, c)] != tgt.action(m.f_base.map[p], m.f_top.map[c]):
                fails.append((f"(p={src.base.names[p]}, c={src.top.names[c]})",
                              "f1(^p c) != ^(f0 p) f1(c)"))
    report.add("action_equivariant", fails)
    return report


def morphism(source, target, f_top, f_base) -> CrossedModuleMorphism:
    m = CrossedModuleMorphism(source, target, f_top, f_base)
    check_morphism(m).require(GroupConstructionError)
    return m


def identity_morphism(cm: CrossedModule) -> CrossedModuleMorphism:
    return morphism(cm, cm, identity_hom(cm.top), identity_hom(cm.base))


def quotient_morphism(cm: CrossedModule) -> CrossedModuleMorphism:
    """The collapse of cm onto (1 -> base/im d), the crossed module with the
    trivial top group and the trivial action."""
    _, _, quot, proj = kernel_and_image(cm)
    one = trivial_group()
    target = crossed_module(f"(1->{cm.name}/d)", one, quot,
                            trivial_hom(one, quot), trivial_action(quot, one))
    return morphism(cm, target, trivial_hom(cm.top, one), proj)

