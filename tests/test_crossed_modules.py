import pytest

from conftest import perm_mul
from crossmod.crossed_modules import (
    CrossedModule,
    check_crossed_module,
    check_morphism,
    from_conjugation_aut,
    from_module,
    from_normal_inclusion,
    identity_morphism,
    kernel_and_image,
    quotient_morphism,
)
from crossmod.formal_maps import LabeledCell, compose_h
from crossmod.groups import (
    GroupConstructionError,
    GroupHomomorphism,
    cyclic_group,
    make_group,
    symmetric_group_3,
)


def test_normal_inclusion_is_crossed_module(cms):
    assert check_crossed_module(cms["CM-A3S3"]).ok
    assert cms["CM-A3S3"].top.order == 3 and cms["CM-A3S3"].base.order == 6


def test_module_case_is_crossed_module(cms):
    assert check_crossed_module(cms["CM-Mod"]).ok
    assert all(cms["CM-Mod"].d(c) == 0 for c in cms["CM-Mod"].top.elements())


def test_peiffer_failure_zero_boundary_nonabelian():
    # constant boundary forces commutativity; S3 with the inner action fails CM2
    cm = from_conjugation_aut(symmetric_group_3())
    zero = GroupHomomorphism(cm.top, cm.base, (0,) * 6)
    mutated = CrossedModule("bad", cm.top, cm.base, zero, cm.act)
    report = check_crossed_module(mutated)
    assert not report.ok
    fail = next(r for r in report.results if r.axiom == "CM2_peiffer")
    assert not fail.ok and fail.violations > 0


def test_from_module_rejects_nonabelian():
    s3 = symmetric_group_3()
    from crossmod.groups import trivial_action, trivial_group
    with pytest.raises(GroupConstructionError, match="abelian top group"):
        from_module(s3, trivial_group(), trivial_action(trivial_group(), s3))


def test_normal_inclusion_degenerate_cases():
    s3 = symmetric_group_3()
    cm = from_normal_inclusion(cyclic_group(2), (0, 1))
    assert cm.top.order == 2 and cm.boundary.map == (0, 1)
    cm = from_normal_inclusion(s3, (0,))
    assert cm.top.order == 1


def test_from_conjugation_aut_examples():
    cm = from_conjugation_aut(cyclic_group(2))
    assert cm.base.order == 1  # Aut(Z/2) is trivial
    cm = from_conjugation_aut(cyclic_group(3))
    assert cm.base.order == 2
    assert all(x == 0 for x in cm.boundary.map)  # abelian: inner automorphisms trivial
    cm = from_conjugation_aut(symmetric_group_3())
    assert cm.base.order == 6
    assert len(set(cm.boundary.map)) == 6  # S3 is complete: an isomorphism


def test_kernel_and_image(cms):
    ker, img, quot, proj = kernel_and_image(cms["CM-Id2"])
    assert ker == (0,) and img == (0, 1) and quot.order == 1
    ker, img, quot, proj = kernel_and_image(cms["CM-A3S3"])
    assert ker == (0,) and img == (0, 4, 5) and quot.order == 2
    assert proj.map == (0, 1, 1, 1, 0, 0)
    ker, img, quot, proj = kernel_and_image(cms["CM-Mod"])
    assert ker == (0, 1, 2) and img == (0,) and quot.order == 2


def test_kernel_central_in_top(cms):
    for cm in cms.values():
        ker, _, _, _ = kernel_and_image(cm)
        for k in ker:
            for c in cm.top.elements():
                assert cm.top.mul(k, c) == cm.top.mul(c, k)


def test_image_normal_in_base(cms):
    from crossmod.groups import is_normal
    for cm in cms.values():
        _, img, _, _ = kernel_and_image(cm)
        assert is_normal(cm.base, img)


def test_quotient_morphism(cms):
    for name, expected_pi in [("CM-A3S3", 2), ("CM-Id2", 1), ("CM-Mod", 2)]:
        m = quotient_morphism(cms[name])
        assert check_morphism(m).ok
        assert m.target.top.order == 1
        assert m.target.base.order == expected_pi


def test_sd_mul_examples(cms):
    """The horizontal composite of 2-cells is the semidirect product."""
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    i123 = C.names.index("(123)")
    p12, p13 = P.names.index("(12)"), P.names.index("(13)")
    prod = compose_h(LabeledCell(cm, i123, p12), LabeledCell(cm, i123, p13))
    # oracle: (c1 * ^{g1}c2, g1 g2) computed by permutations
    from conftest import perm_conj
    c_expected = perm_mul("(123)", perm_conj("(12)", "(123)"))
    assert c_expected == "e"
    assert C.names[prod.c] == c_expected
    assert P.names[prod.p] == perm_mul("(12)", "(13)")
    # left unit in the C-slot up to the action
    for c in C.elements():
        for p in P.elements():
            for q in P.elements():
                got = compose_h(LabeledCell(cm, 0, p), LabeledCell(cm, c, q))
                assert (got.c, got.p) == (cm.action(p, c), P.mul(p, q))
    # products with trivial base stay in the top group
    for c in C.elements():
        for c2 in C.elements():
            got = compose_h(LabeledCell(cm, c, 0), LabeledCell(cm, c2, 0))
            assert (got.c, got.p) == (C.mul(c, c2), 0)


def test_sd_parent_mismatch(cms):
    with pytest.raises(ValueError, match="different crossed modules"):
        compose_h(LabeledCell(cms["CM-Id2"], 0, 0), LabeledCell(cms["CM-A3S3"], 0, 0))


def test_semidirect_group_axioms(cms):
    # exhaustive associativity/identity/inverse for |C||P| <= 64, via make_group
    for cm in cms.values():
        if cm.top.order * cm.base.order > 64:
            continue
        # the pairs (c, p), identity (0, 0) first, tabulated through compose_h
        pairs = [(c, p) for p in cm.base.elements() for c in cm.top.elements()]
        index = {cp: i for i, cp in enumerate(pairs)}
        table = []
        for c1, p1 in pairs:
            row = []
            for c2, p2 in pairs:
                prod = compose_h(LabeledCell(cm, c1, p1), LabeledCell(cm, c2, p2))
                row.append(index[(prod.c, prod.p)])
            table.append(row)
        g = make_group([str(cp) for cp in pairs], table)  # raises if any group axiom fails
        assert g.order == cm.top.order * cm.base.order


def test_constructors_pass_checker(cms):
    for cm in cms.values():
        assert check_crossed_module(cm).ok


def test_morphism_invariants(cms):
    for cm in cms.values():
        assert check_morphism(identity_morphism(cm)).ok
        assert check_morphism(quotient_morphism(cm)).ok


def test_swapped_action_fails_at_action_level():
    # the nontrivial bijection of Z/2 does not fix the identity, so it is not
    # an action by automorphisms at all
    z2 = cyclic_group(2)
    from crossmod.groups import GroupAction, check_action
    swapped = GroupAction(z2, z2, ((0, 1), (1, 0)))
    report = check_action(swapped)
    assert not report.ok
    assert any(not r.ok and r.axiom == "acts_by_automorphisms" for r in report.results)


def test_kernel_action_descends_to_quotient(cms):
    # the image of d acts trivially on ker d, so the action on the kernel
    # factors through base / im d
    for cm in cms.values():
        ker, img, _, _ = kernel_and_image(cm)
        assert all(cm.action(p, k) == k for p in img for k in ker)
