"""Crossed modules (C, P, boundary, action), their morphisms, standard
constructors, derived invariants, and the semidirect-product calculus."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    CheckReport,
    FiniteGroup,
    GroupAction,
    GroupConstructionError,
    GroupHomomorphism,
    NotNormal,
    action,
    automorphism_group,
    check_action,
    check_homomorphism,
    hom,
    identity_hom,
    is_normal,
    is_subgroup,
    quotient_group,
    restrict_subgroup,
    trivial_action,
    trivial_group,
    trivial_hom,
)


class NotAbelian(GroupConstructionError):
    pass


class ParentMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CrossedModule:
    """A boundary homomorphism top -> base with a base-action on top,
    satisfying equivariance (CM1) and the Peiffer identity (CM2)."""

    name: str
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
    rep = check_crossed_module(cm)
    if not rep.ok:
        fail = rep.first_failure()
        raise GroupConstructionError(
            f"{name}: {fail.axiom} fails at {fail.instance}: {fail.detail}")
    return cm


def from_normal_inclusion(g: FiniteGroup, members, name=None) -> CrossedModule:
    """Normal subgroup inclusion with the conjugation action."""
    if not is_subgroup(g, members):
        raise GroupConstructionError(f"{sorted(members)} is not a subgroup")
    if not is_normal(g, members):
        raise NotNormal(f"{sorted(members)} is not normal")
    sub, incl = restrict_subgroup(g, members)
    pos = {m: i for i, m in enumerate(incl)}
    act = action(g, sub, [[pos[g.conj(p, m)] for m in incl] for p in g.elements()])
    boundary = hom(sub, g, incl)
    return crossed_module(name or "inclusion", sub, g, boundary, act)


def from_module(m: FiniteGroup, p: FiniteGroup, act: GroupAction, name=None) -> CrossedModule:
    """A P-module with the constant-identity boundary; m must be abelian."""
    if not m.is_abelian():
        raise NotAbelian("constant boundary forces an abelian top group")
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
    assert is_normal(cm.base, img), "boundary image must be normal"
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
    rep = check_morphism(m)
    if not rep.ok:
        fail = rep.first_failure()
        raise GroupConstructionError(f"invalid morphism ({fail.axiom}) at {fail.instance}")
    return m


def identity_morphism(cm: CrossedModule) -> CrossedModuleMorphism:
    return morphism(cm, cm, identity_hom(cm.top), identity_hom(cm.base))


def quotient_crossed_module(cm: CrossedModule) -> CrossedModule:
    """(1 -> base/im d) with trivial top group and trivial action."""
    _, img, quot, _ = kernel_and_image(cm)
    one = trivial_group()
    return crossed_module(f"(1->{cm.name}/d)", one, quot,
                          trivial_hom(one, quot), trivial_action(quot, one))


def quotient_morphism(cm: CrossedModule) -> CrossedModuleMorphism:
    """The collapse of cm onto (1 -> base/im d)."""
    _, img, quot, proj = kernel_and_image(cm)
    target = quotient_crossed_module(cm)
    # rebuild proj against the same quotient group object used in target
    proj = hom(cm.base, target.base, proj.map)
    return morphism(cm, target, trivial_hom(cm.top, target.top), proj)


@dataclass(frozen=True)
class SemidirectElement:
    parent: CrossedModule
    c: int
    p: int

    def __repr__(self):
        return f"({self.parent.top.names[self.c]},{self.parent.base.names[self.p]})"


def sd_mul(a: SemidirectElement, b: SemidirectElement) -> SemidirectElement:
    """(c1,g1)(c2,g2) = (c1 * ^{g1}c2, g1 g2)."""
    if a.parent is not b.parent and a.parent != b.parent:
        raise ParentMismatch("semidirect elements from different crossed modules")
    cm = a.parent
    return SemidirectElement(cm, cm.top.mul(a.c, cm.action(a.p, b.c)),
                             cm.base.mul(a.p, b.p))
