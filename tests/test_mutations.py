"""Each corpus mutation is caught by the one family it names: the Detection's
instance is the first failing result of that family in the checker's report."""

import pytest

from crossmod import mutations
from crossmod.report import CheckReport
from crossmod.serialize import Workspace, check_doc


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


@pytest.mark.parametrize("key", list(mutations.ROWS))
def test_row_edits_an_existing_entry_of_a_passing_document(key):
    """The base document decodes and passes the row's checker, the path
    names an entry that is there, and the edit changes that entry."""
    row, ws = mutations.ROWS[key], Workspace()
    base = row.base_doc(ws)
    assert check_doc(base, ws, base["kind"], row.checker).ok
    node = base
    for step in row.path:
        if isinstance(node, dict):
            assert step in node, (key, step)
        else:
            assert type(step) is int and 0 <= step < len(node), (key, step)
        node = node[step]
    assert node != row.value
    assert row.mutant(ws) != base


def test_corpus_keys_names_families_and_instances():
    got = [(key, d.mutation, d.family, d.instance)
           for key, d in zip(mutations.MUTATIONS, mutations.run_all())]
    assert got == [
        ("group_associativity", "group.table_entry", "latin_square", "(12)"),
        ("group_identity", "group.identity_row_entry", "identity_at_zero", "(12)"),
        ("group_inverses", "group.inverse_entry", "inverses", "(12)"),
        ("homomorphism", "homomorphism.map_entry", "homomorphism", "((12),(23))"),
        ("action", "action.table_entry", "action_compatible", "(1,1,2)"),
        ("action_identity", "action.identity_row_entry", "identity_acts_trivially", "1"),
        ("action_automorphisms", "action.bijection_entry", "acts_by_automorphisms", "1"),
        ("cm_equivariance", "crossed_module.boundary_entry", "CM1_equivariance",
         "(p=(12), c=(123))"),
        ("cm_peiffer", "crossed_module.zero_boundary", "CM2_peiffer", "(c=(12), c'=(13))"),
        ("cm_action_entry", "crossed_module.action_entry", "action_compatible",
         "((12),(12),(132))"),
        ("morphism_square", "morphism.base_entry", "homomorphism", "((12),(13))"),
        ("square_commutes", "morphism.collapse_base_entry", "square_commutes", "c=1"),
        ("action_equivariant", "morphism.identity_base_entry", "action_equivariant",
         "(p=1, c=1)"),
        ("algebra_unit", "algebra.unit_entry", "unit", "1*e_e"),
        ("algebra_associativity", "algebra.mul_entry", "associativity", "(e_1,e_1,e_2)"),
        ("rho_symmetric", "algebra.rho_symmetry_entry", "rho_symmetric", "g=(123)"),
        ("rho_nondegenerate", "algebra.rho_zero_entry", "rho_nondegenerate", "g=(12)"),
        ("rho_invariance", "algebra.rho_diag_entry", "rho_invariant", "(e_0,e_1,e_1)"),
        ("phi_homomorphism", "algebra.phi_entry", "phi_homomorphism",
         "(h=(12),k=(12),g=(123))"),
        ("phi_isometry", "algebra.phi_scale_entry", "phi_isometry", "(h=(12),g=(123))"),
        ("phi_multiplicative", "algebra.phi_perm_entry", "phi_multiplicative", "(h=1,e_1,e_1)"),
        ("phi_fixes_own_grade", "algebra.phi_own_grade_entry", "phi_fixes_own_grade",
         "g=(123)"),
        ("twisted_commutativity", "algebra.mul_offdiag_entry", "twisted_commutativity",
         "(a=e_(13),b=e_(12))"),
        ("trace", "algebra.phi_trace_entry", "trace", "(g=(13),h=(132),c=e_(132))"),
        ("tilde_unit", "algebra.tilde_unit_entry", "tilde_unit", "c=1"),
        ("tilde_multiplicative", "algebra.tilde_entry", "tilde_multiplicative", "(c'=1,c=1)"),
        ("tilde_equivariant", "algebra.tilde_sign_entry", "tilde_equivariant",
         "(h=(12),c=(123))"),
        ("boxed_composition", "boxed.tilde_entry", "theta_composition",
         "(c'=(123),c=(123),g=e)"),
        ("boxed_phi", "boxed.phi_entry", "theta_phi", "(c=(123),g=e,h=(12))"),
        ("theta_translation", "boxed.mul_entry", "theta_translation", "(c=e,g=(12))"),
        ("theta_rho", "boxed.rho_entry", "theta_rho", "(c=1,g=0)"),
        ("aut_square", "aut_square.tilde_entry", "delta_tilde_equals_phi_boundary",
         "(c=(123),g=e)"),
        ("tilde_units", "aut_square.mul_entry", "tilde_units", "c=0"),
        ("square_equivariance", "aut_square.phi_entry", "square_equivariance", "(p=(12),c=e)"),
        ("unit_preserved", "algebra_morphism.unit_block", "unit_preserved", "1"),
        ("multiplicative", "algebra_morphism.mul_block", "multiplicative", "(e_(12),e_(12))"),
        ("rho_preserved", "algebra_morphism.rho_block", "rho_preserved", "g=(12)"),
        ("phi_compatible", "algebra_morphism.phi_block", "phi_compatible", "(h=(13),g=(12))"),
        ("tilde_compatible", "algebra_morphism.tilde_block", "tilde_compatible", "c=(123)"),
        ("disc_cylinder", "invariance_a.mul_entry", "family_a_disc_cylinder", "(c=e,h=e)"),
        ("pants_reduction", "invariance_b.mul_entry", "family_b_pants_reduction",
         "(c1=e,c2=e,g1=e,g2=e)"),
        ("whiskering", "invariance_c.mul_entry", "family_c_whiskering", "(c=e,g1=e,g2=(123))"),
        ("pairing", "invariance_d.mul_entry", "family_d_pairing", "(c=e,g=(123))"),
        ("normalized_boundaries", "expression.unnormalized_target", "normalized_boundaries",
         "(4, 4)"),
        ("expression_typecheck", "expression.disc_into_cap", "layer_interfaces", "layer 1"),
        ("declared_target", "expression.target_label", "declared_target", "target"),
        ("simplicial_boundary", "simplicial.tri_label", "boundary_condition", "triangle (0, 1, 2)"),
        ("simplicial_cocycle", "simplicial.kernel_label", "cocycle_condition",
         "tetrahedron (0, 1, 2, 3)"),
        ("section", "section.identity_choice", "section", "s(1)"),
    ]
