"""The shipped mutation corpus: single-entry mutations of passing fixtures,
each naming the one axiom family that must catch it.

Each mutation runs the relevant checker on the corrupted object. It is
detected when the report's result for its family fails (for the section
mutation, when construction raises), and it carries that result's first
counterexample instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures
from .algebras import (
    CrossedCAlgebra,
    aut_square_check,
    check_boxed_identities,
    check_crossed_algebra,
)
from .crossed_modules import (
    CrossedModule,
    CrossedModuleMorphism,
    check_crossed_module,
    check_morphism,
)
from .fields import QQ
from .formal_maps import (
    Cap,
    Disc,
    SimplicialFormalMap,
    expression,
    labeling_from_vertex_potential,
    OrderedComplex,
    typecheck,
    validate_simplicial,
)
from .groups import (
    GroupAction,
    GroupConstructionError,
    GroupHomomorphism,
    check_action,
    check_group_table,
    check_homomorphism,
    section,
)
from .linalg import Matrix


@dataclass
class Detection:
    mutation: str
    family: str
    detected: bool
    instance: str | None
    detail: str | None


def _from_report(name, family, report) -> Detection:
    """Detected only when a result of `family` fails; the Detection carries
    that result's instance and detail."""
    for r in report.results:
        if r.axiom == family and not r.ok:
            return Detection(name, family, True, r.instance, r.detail)
    return Detection(name, family, False, None, None)


def _mutate_table(table, i, j, value):
    rows = [list(r) for r in table]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


def _clone_algebra(L: CrossedCAlgebra, **override) -> CrossedCAlgebra:
    parts = dict(name=L.name + "*", cm=L.cm, field=L.field, dims=L.dims,
                 basis_names=L.basis_names, mul=L.mul, unit=L.unit, rho=L.rho,
                 phi=L.phi, tilde=L.tilde)
    parts.update(override)
    return CrossedCAlgebra(**parts)


def _scaled_matrix(m: Matrix, i, j, value) -> Matrix:
    data = [list(row) for row in m.data]
    data[i][j] = value
    return Matrix(m.field, data, cols=m.cols)


# --- individual mutations ---------------------------------------------------

def _grp():
    return fixtures.std_groups()


def _cms():
    return fixtures.std_crossed_modules()


def _algs():
    return fixtures.std_algebras(QQ)


def mut_group_associativity():
    s3 = _grp()["S3"]
    report = check_group_table(s3.names, _mutate_table(s3.table, 1, 2, 0))
    return _from_report("group.table_entry", "latin_square", report)


def mut_homomorphism():
    s3, z2 = _grp()["S3"], _grp()["Z2"]
    sign = [0, 1, 1, 1, 0, 0]
    sign[4] = 1
    report = check_homomorphism(GroupHomomorphism(s3, z2, tuple(sign)))
    return _from_report("homomorphism.map_entry", "homomorphism", report)


def mut_action():
    z2, z3 = _grp()["Z2"], _grp()["Z3"]
    table = _mutate_table(((0, 1, 2), (0, 2, 1)), 1, 1, 1)
    report = check_action(GroupAction(z2, z3, table))
    return _from_report("action.table_entry", "action_compatible", report)


def mut_cm_equivariance():
    cm = _cms()["CM-A3S3"]
    bad = GroupHomomorphism(cm.top, cm.base, (0, 4, 4))  # (132) |-> (123)
    mutated = CrossedModule("CM-A3S3*", cm.top, cm.base, bad, cm.act)
    report = check_crossed_module(mutated)
    return _from_report("crossed_module.boundary_entry", "CM1_equivariance", report)


def mut_cm_peiffer():
    # constant-identity boundary with a non-abelian top: the Peiffer sweep
    # finds non-commuting pairs (constituents all remain individually valid)
    cm = _cms()["CM-AutS3"]
    zero = GroupHomomorphism(cm.top, cm.base, (0,) * cm.top.order)
    mutated = CrossedModule("CM-AutS3*", cm.top, cm.base, zero, cm.act)
    report = check_crossed_module(mutated)
    return _from_report("crossed_module.zero_boundary", "CM2_peiffer", report)


def mut_cm_action_entry():
    cm = _cms()["CM-A3S3"]
    act = GroupAction(cm.base, cm.top, _mutate_table(cm.act.table, 1, 1, 1))
    mutated = CrossedModule("CM-A3S3*", cm.top, cm.base, cm.boundary, act)
    report = check_crossed_module(mutated)
    return _from_report("crossed_module.action_entry", "action_compatible", report)


def mut_morphism_square():
    m = fixtures.std_morphisms()["q.CM-A3S3"]
    f_base = GroupHomomorphism(m.f_base.source, m.f_base.target,
                               _mutate_table((m.f_base.map,), 0, 1, 0)[0])
    mutated = CrossedModuleMorphism(m.source, m.target, m.f_top, f_base)
    report = check_morphism(mutated)
    return _from_report("morphism.base_entry", "homomorphism", report)


def mut_algebra_unit():
    L = _algs()["KP.CM-A3S3"]
    two = L.field.of(2)
    report = check_crossed_algebra(_clone_algebra(L, unit=(two,)))
    return _from_report("algebra.unit_entry", "unit", report)


def mut_algebra_associativity():
    L = _algs()["KC.CM-Mod"]
    mul = dict(L.mul)
    block = [[list(cell) for cell in row] for row in mul[(0, 0)]]
    block[1][1] = [L.field.one, L.field.zero, L.field.zero]  # e1*e1 := e0
    mul[(0, 0)] = block
    report = check_crossed_algebra(_clone_algebra(L, mul=mul))
    return _from_report("algebra.mul_entry", "associativity", report)


def mut_rho_symmetric():
    L = _algs()["KP.CM-A3S3"]
    rho = dict(L.rho)
    rho[4] = Matrix(L.field, [[L.field.of(2)]])  # grade (123), inverse (132) untouched
    report = check_crossed_algebra(_clone_algebra(L, rho=rho))
    return _from_report("algebra.rho_symmetry_entry", "rho_symmetric", report)


def mut_rho_nondegenerate():
    L = _algs()["KP.CM-A3S3"]
    rho = dict(L.rho)
    rho[1] = Matrix(L.field, [[L.field.zero]])  # (12) is self-inverse
    report = check_crossed_algebra(_clone_algebra(L, rho=rho))
    return _from_report("algebra.rho_zero_entry", "rho_nondegenerate", report)


def mut_rho_invariance():
    L = _algs()["KC.CM-Mod"]
    rho = dict(L.rho)
    rho[0] = _scaled_matrix(rho[0], 1, 1, L.field.one)
    report = check_crossed_algebra(_clone_algebra(L, rho=rho))
    return _from_report("algebra.rho_diag_entry", "rho_invariant", report)


def mut_phi_homomorphism():
    L = _algs()["KP.CM-A3S3"]
    phi = dict(L.phi)
    phi[(1, 4)] = Matrix(L.field, [[L.field.of(2)]])
    report = check_crossed_algebra(_clone_algebra(L, phi=phi))
    return _from_report("algebra.phi_entry", "phi_homomorphism", report)


def mut_phi_multiplicative():
    L = _algs()["KC.CM-Mod"]
    phi = dict(L.phi)
    phi[(1, 0)] = _scaled_matrix(phi[(1, 0)], 1, 1, L.field.one)
    report = check_crossed_algebra(_clone_algebra(L, phi=phi))
    return _from_report("algebra.phi_perm_entry", "phi_multiplicative", report)


def mut_phi_fixes_own_grade():
    L = _algs()["KP.CM-A3S3"]
    phi = dict(L.phi)
    phi[(4, 4)] = Matrix(L.field, [[L.field.of(2)]])
    report = check_crossed_algebra(_clone_algebra(L, phi=phi))
    return _from_report("algebra.phi_own_grade_entry", "phi_fixes_own_grade", report)


def mut_twisted_commutativity():
    L = _algs()["KP.CM-A3S3"]
    mul = dict(L.mul)
    mul[(1, 2)] = [[[L.field.of(2)]]]
    report = check_crossed_algebra(_clone_algebra(L, mul=mul))
    return _from_report("algebra.mul_offdiag_entry", "twisted_commutativity", report)


def mut_trace():
    L = _algs()["KP.CM-A3S3"]
    phi = dict(L.phi)
    phi[(2, 4)] = Matrix(L.field, [[L.field.of(2)]])  # phi_(13) on L_(123)
    report = check_crossed_algebra(_clone_algebra(L, phi=phi))
    return _from_report("algebra.phi_trace_entry", "trace", report)


def mut_tilde_unit():
    L = _algs()["KP.CM-A3S3"]
    tilde = list(L.tilde)
    tilde[0] = (L.field.of(2),)
    report = check_crossed_algebra(_clone_algebra(L, tilde=tilde))
    return _from_report("algebra.tilde_unit_entry", "tilde_unit", report)


def mut_tilde_multiplicative():
    L = _algs()["KP.CM-Id2"]
    tilde = list(L.tilde)
    tilde[1] = (L.field.zero,)  # kills the distinguished unit over sigma
    report = check_crossed_algebra(_clone_algebra(L, tilde=tilde))
    return _from_report("algebra.tilde_entry", "tilde_multiplicative", report)


def mut_tilde_equivariant():
    L = _algs()["KC.CM-A3S3"]
    tilde = list(L.tilde)
    tilde[1] = (L.field.of(-1),)
    report = check_crossed_algebra(_clone_algebra(L, tilde=tilde))
    return _from_report("algebra.tilde_sign_entry", "tilde_equivariant", report)


def mut_boxed_composition():
    L = _algs()["KC.CM-A3S3"]
    tilde = list(L.tilde)
    tilde[1] = (L.field.of(2),)
    report = check_boxed_identities(_clone_algebra(L, tilde=tilde))
    return _from_report("boxed.tilde_entry", "theta_composition", report)


def mut_boxed_phi():
    L = _algs()["KP.CM-A3S3"]
    phi = dict(L.phi)
    phi[(1, 4)] = Matrix(L.field, [[L.field.of(2)]])
    report = check_boxed_identities(_clone_algebra(L, phi=phi))
    return _from_report("boxed.phi_entry", "theta_phi", report)


def mut_aut_square():
    L = _algs()["KP.CM-A3S3"]
    tilde = list(L.tilde)
    tilde[1] = (L.field.of(3),)
    report = aut_square_check(_clone_algebra(L, tilde=tilde))
    return _from_report("aut_square.tilde_entry", "delta_tilde_equals_phi_boundary", report)


def mut_expression_typecheck():
    cm = _cms()["CM-A3S3"]
    e = expression(cm, [], [[Disc(1)], [Cap(cm.d(1))]], [])
    report = typecheck(e)
    return _from_report("expression.disc_into_cap", "layer_interfaces", report)


def mut_simplicial_boundary():
    cm = _cms()["CM-A3S3"]
    complex_ = OrderedComplex(3, (0, 1, 2), edges=((0, 1), (0, 2), (1, 2)),
                              triangles=((0, 1, 2),))
    m = labeling_from_vertex_potential(cm, complex_, (0, 1, 4))
    mutated = SimplicialFormalMap(cm, complex_, m.edge_labels, (1,), m.start_vertices)
    report = validate_simplicial(mutated)
    return _from_report("simplicial.tri_label", "boundary_condition", report)


def mut_simplicial_cocycle():
    # kernel-valued corruption: boundary conditions survive, the tetrahedron
    # condition does not
    cm = _cms()["CM-Mod"]
    complex_ = OrderedComplex(
        4, (0, 1, 2, 3),
        edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        triangles=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        tetrahedra=((0, 1, 2, 3),))
    m = labeling_from_vertex_potential(cm, complex_, (0, 1, 0, 1))
    tris = list(m.tri_labels)
    tris[0] = 1  # in ker(boundary), so only the cocycle condition breaks
    mutated = SimplicialFormalMap(cm, complex_, m.edge_labels, tuple(tris),
                                  m.start_vertices)
    report = validate_simplicial(mutated)
    return _from_report("simplicial.kernel_label", "cocycle_condition", report)


def mut_section():
    q = fixtures.std_morphisms()["q.CM-A3S3"].f_base
    try:
        section(q, (1, 1))  # does not send identity to identity
    except GroupConstructionError as exc:
        return Detection("section.identity_choice", "section", True,
                         "s(1)", str(exc))
    return Detection("section.identity_choice", "section", False, None, None)


MUTATIONS = {fn.__name__.removeprefix("mut_"): fn for fn in [
    mut_group_associativity,
    mut_homomorphism,
    mut_action,
    mut_cm_equivariance,
    mut_cm_peiffer,
    mut_cm_action_entry,
    mut_morphism_square,
    mut_algebra_unit,
    mut_algebra_associativity,
    mut_rho_symmetric,
    mut_rho_nondegenerate,
    mut_rho_invariance,
    mut_phi_homomorphism,
    mut_phi_multiplicative,
    mut_phi_fixes_own_grade,
    mut_twisted_commutativity,
    mut_trace,
    mut_tilde_unit,
    mut_tilde_multiplicative,
    mut_tilde_equivariant,
    mut_boxed_composition,
    mut_boxed_phi,
    mut_aut_square,
    mut_expression_typecheck,
    mut_simplicial_boundary,
    mut_simplicial_cocycle,
    mut_section,
]}


def run_mutation(name: str) -> Detection:
    if name not in MUTATIONS:
        raise KeyError(f"unknown mutation {name!r}")
    return MUTATIONS[name]()


def run_all():
    return [run_mutation(name) for name in MUTATIONS]
