"""The shipped mutation corpus: single-entry mutations of passing fixtures,
each naming the one axiom family that must catch it.

A mutation is a row of `ROWS`: a base document (a workspace object through
`to_doc`, or a small inline document that names its groups and crossed
module), one JSON path into it, the new value there, the family, and
optionally a checker to run in place of the kind's own. A row is applied
the way `crossmod check` runs on a file: the edit, then `serialize.check_doc`
(`from_doc`, then the checker). It is detected when the report's result for
its family fails, and it carries that result's first counterexample
instance. The one mutation that is not a document edit is `section`, a
constructor that must raise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from . import fixtures
from .algebras import aut_square_check, check_boxed_identities
from .groups import GroupConstructionError, section
from .hqft import FormalHQFT, check_equivalence_invariance
from .report import CheckReport
from .serialize import Workspace, check_doc, to_doc


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


@dataclass(frozen=True)
class Mutation:
    name: str
    family: str
    base: str | dict        # a workspace object's name, or an inline document
    path: tuple             # keys and list indices from the document's root
    value: object
    checker: Callable[..., CheckReport] | None = None

    def base_doc(self, ws: Workspace) -> dict:
        if isinstance(self.base, str):
            return to_doc(*ws.objects[self.base])
        return copy.deepcopy(self.base)

    def mutant(self, ws: Workspace) -> dict:
        doc = self.base_doc(ws)
        *head, last = self.path
        node = doc
        for key in head:
            node = node[key]
        node[last] = self.value
        return doc


# the sign character of S3
SIGN = {"kind": "homomorphism", "source": "S3", "target": "Z2", "map": [0, 1, 1, 1, 0, 0]}
# Z2 acting on Z3 by inversion
INVERSION = {"kind": "action", "actor": "Z2", "space": "Z3", "table": [[0, 1, 2], [0, 2, 1]]}
# the identity morphism of CM-Mod, where Z2 acts on Z3 by inversion
ID_MOD = {"kind": "morphism", "source": "CM-Mod", "target": "CM-Mod", "f_top": [0, 1, 2],
          "f_base": [0, 1]}
# a disc of c = (123), whose boundary (123) goes through an identity cylinder
DISC_THEN_ID = {"kind": "expression", "crossed_module": "CM-A3S3", "source": [], "target": [[4]],
                "layers": [[{"piece": "disc", "c": 1}], [{"piece": "id", "g": 4}]]}
# a triangle labelled by the vertex potential (e, (12), (123)) over CM-A3S3
TRIANGLE = {"kind": "simplicial", "crossed_module": "CM-A3S3", "vertices": 3,
            "order": [0, 1, 2], "simplices": {"1": [[0, 1], [0, 2], [1, 2]], "2": [[0, 1, 2]]},
            "edge_labels": [1, 4, 3], "tri_labels": [0], "start_vertices": [0]}
# a tetrahedron labelled by the vertex potential (0, 1, 0, 1) over CM-Mod
TETRAHEDRON = {"kind": "simplicial", "crossed_module": "CM-Mod", "vertices": 4,
               "order": [0, 1, 2, 3], "simplices": {
                   "1": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                   "2": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "3": [[0, 1, 2, 3]]},
               "edge_labels": [1, 0, 1, 1, 0, 1], "tri_labels": [0, 0, 0, 0],
               "start_vertices": [0, 0, 0, 1]}

KP, KC = "KP.CM-A3S3", "KC.CM-A3S3"
# the identity of K[P](CM-A3S3), whose grades all have dimension 1
ID_KP = {"kind": "algebra_morphism", "source": KP, "target": KP, "f_top": [0, 1, 2],
         "f_base": [0, 1, 2, 3, 4, 5], "blocks": {str(p): [["1"]] for p in range(6)}}


def invariance_check(L) -> CheckReport:
    """Families (a)-(d) on an evaluator built directly over L, since
    `make_hqft` refuses an algebra that fails the checker."""
    return check_equivalence_invariance(FormalHQFT(L))


# key -> row, in report order
ROWS = {
    "group_associativity": Mutation("group.table_entry", "latin_square", "S3", ("table", 1, 2), 0),
    # a one-entry change to a group table repeats an element in its row, so
    # latin_square fails too, and it is reported before inverses
    "group_identity": Mutation("group.identity_row_entry", "identity_at_zero", "S3",
                               ("table", 0, 1), 2),
    "group_inverses": Mutation("group.inverse_entry", "inverses", "S3", ("table", 1, 1), 1),
    "homomorphism": Mutation("homomorphism.map_entry", "homomorphism", SIGN, ("map", 4), 1),
    "action": Mutation("action.table_entry", "action_compatible", INVERSION, ("table", 1, 1), 1),
    # a one-entry change to a row p != 1 leaves it no bijection, so ^p ^(p^-1)
    # is not the identity and action_compatible fails before
    # acts_by_automorphisms
    "action_identity": Mutation("action.identity_row_entry", "identity_acts_trivially",
                                INVERSION, ("table", 0, 1), 2),
    "action_automorphisms": Mutation("action.bijection_entry", "acts_by_automorphisms",
                                     INVERSION, ("table", 1, 1), 1),
    # (132) |-> (123)
    "cm_equivariance": Mutation("crossed_module.boundary_entry", "CM1_equivariance",
                                "CM-A3S3", ("boundary", 2), 4),
    # the constant boundary with a non-abelian top: each constituent stays
    # valid, the Peiffer sweep finds non-commuting pairs
    "cm_peiffer": Mutation("crossed_module.zero_boundary", "CM2_peiffer", "CM-AutS3",
                           ("boundary",), [0] * 6),
    "cm_action_entry": Mutation("crossed_module.action_entry", "action_compatible",
                                "CM-A3S3", ("action", 1, 1), 1),
    "morphism_square": Mutation("morphism.base_entry", "homomorphism", "q.CM-A3S3",
                                ("f_base", 1), 0),
    # f0 := id on Z2, while f1 still kills the top
    "square_commutes": Mutation("morphism.collapse_base_entry", "square_commutes",
                                "collapse.CM-Id2", ("f_base", 1), 1),
    # f0 := trivial, a homomorphism that forgets the inversion action
    "action_equivariant": Mutation("morphism.identity_base_entry", "action_equivariant", ID_MOD,
                                   ("f_base", 1), 0),
    "algebra_unit": Mutation("algebra.unit_entry", "unit", KP, ("unit", 0), "2"),
    # e1*e1 := e0
    "algebra_associativity": Mutation("algebra.mul_entry", "associativity", "KC.CM-Mod",
                                      ("mul", "0,0", 1, 1), ["1", "0", "0"]),
    # grade (123); its inverse (132) is untouched
    "rho_symmetric": Mutation("algebra.rho_symmetry_entry", "rho_symmetric", KP,
                              ("rho", "4", 0, 0), "2"),
    # (12) is self-inverse
    "rho_nondegenerate": Mutation("algebra.rho_zero_entry", "rho_nondegenerate", KP,
                                  ("rho", "1", 0, 0), "0"),
    "rho_invariance": Mutation("algebra.rho_diag_entry", "rho_invariant", "KC.CM-Mod",
                               ("rho", "0", 1, 1), "1"),
    "phi_homomorphism": Mutation("algebra.phi_entry", "phi_homomorphism", KP,
                                 ("phi", "1,4", 0, 0), "2"),
    "phi_isometry": Mutation("algebra.phi_scale_entry", "phi_isometry", KP,
                             ("phi", "1,4", 0, 0), "2"),
    "phi_multiplicative": Mutation("algebra.phi_perm_entry", "phi_multiplicative",
                                   "KC.CM-Mod", ("phi", "1,0", 1, 1), "1"),
    "phi_fixes_own_grade": Mutation("algebra.phi_own_grade_entry", "phi_fixes_own_grade", KP,
                                    ("phi", "4,4", 0, 0), "2"),
    "twisted_commutativity": Mutation("algebra.mul_offdiag_entry", "twisted_commutativity",
                                      KP, ("mul", "1,2", 0, 0, 0), "2"),
    # phi_(13) on L_(123)
    "trace": Mutation("algebra.phi_trace_entry", "trace", KP, ("phi", "2,4", 0, 0), "2"),
    "tilde_unit": Mutation("algebra.tilde_unit_entry", "tilde_unit", KP, ("tilde", "0", 0), "2"),
    # kills the distinguished unit over sigma
    "tilde_multiplicative": Mutation("algebra.tilde_entry", "tilde_multiplicative",
                                     "KP.CM-Id2", ("tilde", "1", 0), "0"),
    "tilde_equivariant": Mutation("algebra.tilde_sign_entry", "tilde_equivariant", KC,
                                  ("tilde", "1", 0), "-1"),
    "boxed_composition": Mutation("boxed.tilde_entry", "theta_composition", KC,
                                  ("tilde", "1", 0), "2", check_boxed_identities),
    "boxed_phi": Mutation("boxed.phi_entry", "theta_phi", KP, ("phi", "1,4", 0, 0), "2",
                          check_boxed_identities),
    "theta_translation": Mutation("boxed.mul_entry", "theta_translation", KP,
                                  ("mul", "1,0", 0, 0, 0), "2", check_boxed_identities),
    "theta_rho": Mutation("boxed.rho_entry", "theta_rho", "KC.CM-Id2", ("rho", "0", 0, 0), "2",
                          check_boxed_identities),
    "aut_square": Mutation("aut_square.tilde_entry", "delta_tilde_equals_phi_boundary", KP,
                           ("tilde", "1", 0), "3", aut_square_check),
    "tilde_units": Mutation("aut_square.mul_entry", "tilde_units", "KC.CM-Id2",
                            ("mul", "0,0", 0, 0, 0), "2", aut_square_check),
    "square_equivariance": Mutation("aut_square.phi_entry", "square_equivariance", KC,
                                    ("phi", "1,0", 0, 0), "2", aut_square_check),
    # theta := 2 on the unit's grade e, on (12) or on d(c) = (123); decode
    # refuses a block of the wrong shape, so block_shapes has no row
    **{family: Mutation(f"algebra_morphism.{what}_block", family, ID_KP, ("blocks", g), [["2"]])
       for family, what, g in (("unit_preserved", "unit", "0"), ("multiplicative", "mul", "1"),
                               ("rho_preserved", "rho", "1"), ("phi_compatible", "phi", "1"),
                               ("tilde_compatible", "tilde", "4"))},
    # e_e * e_e := 2 e_e
    "disc_cylinder": Mutation("invariance_a.mul_entry", "family_a_disc_cylinder", KC,
                              ("mul", "0,0", 0, 0, 0), "2", invariance_check),
    "pants_reduction": Mutation("invariance_b.mul_entry", "family_b_pants_reduction", KC,
                                ("mul", "0,0", 0, 0, 0), "2", invariance_check),
    "whiskering": Mutation("invariance_c.mul_entry", "family_c_whiskering", KC,
                           ("mul", "0,0", 0, 0, 0), "2", invariance_check),
    # e_e * e_(123) := 2 e_(123)
    "pairing": Mutation("invariance_d.mul_entry", "family_d_pairing", KC,
                        ("mul", "0,4", 0, 0, 0), "2", invariance_check),
    "normalized_boundaries": Mutation("expression.unnormalized_target", "normalized_boundaries",
                                      DISC_THEN_ID, ("target", 0), [4, 4]),
    "expression_typecheck": Mutation("expression.disc_into_cap", "layer_interfaces",
                                     DISC_THEN_ID, ("layers", 1, 0), {"piece": "cap", "g": 4}),
    "declared_target": Mutation("expression.target_label", "declared_target", DISC_THEN_ID,
                                ("target", 0), [5]),
    "simplicial_boundary": Mutation("simplicial.tri_label", "boundary_condition", TRIANGLE,
                                    ("tri_labels", 0), 1),
    # in ker(boundary), so only the cocycle condition breaks
    "simplicial_cocycle": Mutation("simplicial.kernel_label", "cocycle_condition",
                                   TETRAHEDRON, ("tri_labels", 0), 1),
}


def mut_section():
    q = fixtures.std_morphisms()["q.CM-A3S3"].f_base
    try:
        section(q, (1, 1))  # does not send identity to identity
    except GroupConstructionError as exc:
        return Detection("section.identity_choice", "section", True, "s(1)", str(exc))
    return Detection("section.identity_choice", "section", False, None, None)


MUTATIONS = (*ROWS, "section")


def run_mutation(key: str) -> Detection:
    if key == "section":
        return mut_section()
    if key not in ROWS:
        raise KeyError(f"unknown mutation {key!r}")
    row, ws = ROWS[key], Workspace()
    doc = row.mutant(ws)
    return _from_report(row.name, row.family, check_doc(doc, ws, doc["kind"], row.checker))


def run_all():
    return [run_mutation(key) for key in MUTATIONS]
