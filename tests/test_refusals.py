"""Refusals and failure paths of `src/crossmod` that no other test reaches,
each with its exact result: the exit code and JSON output of `crossmod
check` on a file, an exception's type and text, or the value a failing
check returns. `REFUSALS` is also the input list of the `refusals` golden
section in `tests/test_golden.py`; `tests/reach.py` lists every line of
`src/crossmod` that no test reaches."""

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from crossmod import mutations, verify
from crossmod.algebras import (
    enumerate_algebra_morphisms,
    group_algebra_C,
    group_algebra_P,
    pullback,
    same_structure,
    verify_cocycle_multiplication,
)
from crossmod.cli import main
from crossmod.crossed_modules import (
    from_module,
    from_normal_inclusion,
    identity_morphism,
    quotient_morphism,
)
from crossmod.fields import GF, QQ
from crossmod.fixtures import std_crossed_modules, std_groups
from crossmod.formal_maps import (
    LabeledCell,
    OrderedComplex,
    SimplicialFormalMap,
    annulus_flatten,
    annulus_labeling,
    annulus_square_complex,
    compose_expressions,
    compose_v,
    expression,
    transport_label,
)
from crossmod.groups import (
    GroupAction,
    GroupHomomorphism,
    TwoCocycle,
    check_action,
    check_homomorphism,
    cocycle_from_section,
    restrict_subgroup,
    section,
    trivial_hom,
)
from crossmod.linalg import Matrix
from crossmod.mutations import TETRAHEDRON, TRIANGLE, run_mutation
from crossmod.serialize import to_doc
from test_checker_oracle import corrupt


def _raised(call, *args):
    """The type and text of the exception call(*args) raises."""
    try:
        call(*args)
    except (ArithmeticError, AssertionError, LookupError, ValueError) as exc:
        return {"error": type(exc).__name__, "text": str(exc)}
    raise AssertionError(f"{call!r} raised nothing")


def _check(kind, doc):
    """`crossmod check KIND FILE` on doc: the exit code and the JSON output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", kind, str(path)])
    return {"exit": code, "output": json.loads(out.getvalue())}


def _edited(doc, **fields):
    """A deep copy of doc with `fields` replaced; a `simplices` value
    replaces only the dimensions it names."""
    doc = copy.deepcopy(doc)
    simplices = fields.pop("simplices", {})
    doc["simplices"].update(simplices)
    doc.update(fields)
    return doc


def _cm(name):
    return std_crossed_modules()[name]


def _id2_map(K, edge_labels, tri_labels, start_vertices):
    return SimplicialFormalMap(_cm("CM-Id2"), K, edge_labels, tri_labels, start_vertices)


def _triangle():
    return OrderedComplex(3, (0, 1, 2), edges=((0, 1), (0, 2), (1, 2)), triangles=((0, 1, 2),))


def _kernel_escape():
    """A 'projection' Z4 -> Z2 that is not a homomorphism: s = (0, 1) is a
    section of it, but f(1, 1) = 2 maps to 1."""
    z4, z2 = std_groups()["Z4"], std_groups()["Z2"]
    return cocycle_from_section(section(GroupHomomorphism(z4, z2, (0, 1, 1, 1)), (0, 1)))


def _cocycle_law(corrupted):
    """verify_cocycle_multiplication on K[P](CM-A3S3)'s witness data over Q,
    with one cocycle value or one pullback product moved."""
    cm = _cm("CM-A3S3")
    qmor = quotient_morphism(cm)
    sec = section(qmor.f_base)
    coc = cocycle_from_section(sec)
    pulled = pullback(qmor, group_algebra_P(qmor.target, QQ))
    if corrupted == "coc":
        values = [list(row) for row in coc.values]
        values[1][1] = 1
        coc = TwoCocycle(coc.base, tuple(map(tuple, values)))
    else:
        pulled = corrupt(pulled, random.Random(0), "mul")
    verify_cocycle_multiplication(cm, qmor.f_base, sec, coc, pulled)


def _kp_iso_failing():
    """Criterion 3's result when the witness raises."""
    def refused(cm, field):
        raise AssertionError("witness refused")
    with mock.patch.object(verify, "kp_iso_witness", refused):
        return list(verify._kp_iso())


def _section_undetected():
    """The section mutation's Detection when `section` accepts s(1) != 1."""
    with mock.patch.object(mutations, "section", lambda q, choice: None):
        return vars(mutations.mut_section())


def _same_structure_differs():
    """same_structure on K[C](CM-A3S3) over Q against K[P], and against a
    copy with its unit, a mul entry or a rho entry moved."""
    L = group_algebra_C(_cm("CM-A3S3"), QQ)
    others = [group_algebra_P(_cm("CM-A3S3"), QQ),
              *(corrupt(L, random.Random(0), target) for target in ("unit", "mul", "rho"))]
    return [same_structure(L, other) for other in others]


def _renamed_hash():
    """A renamed crossed module is equal and hashes equal: the name is not
    compared, and each group hashes by its names and table."""
    cm = _cm("CM-A3S3")
    renamed = from_normal_inclusion(cm.base, (0, 4, 5), name="renamed")
    return [renamed == cm, hash(renamed) == hash(cm)]


def _morphism_search_over_q():
    L = group_algebra_P(_cm("CM-Id2"), QQ)
    return enumerate_algebra_morphisms(identity_morphism(L.cm), L, L)


def _simplicial_error(text):
    return {"exit": 2, "output": {"error": f"bad simplicial document: {text}"}}


def _report(subject, *checks):
    return {"subject": subject, "ok": all(c["ok"] for c in checks), "checks": list(checks)}


def _fail(axiom, instance, detail, violations=1):
    return {"axiom": axiom, "ok": False, "instance": instance, "detail": detail,
            "violations": violations}


def _error(kind, text):
    return {"error": kind, "text": text}


Z2, S3 = std_groups()["Z2"], std_groups()["S3"]
DIAGONAL = _error("ValueError", "diagonal must be 'up' or 'down'")

# (id, thunk, its result)
REFUSALS = [
    # crossmod check simplicial FILE: the complex and the map as they decode
    ("check simplicial: order not a permutation",
     lambda: _check("simplicial", _edited(TRIANGLE, order=[0, 0, 1])),
     _simplicial_error("rank must be a permutation of the vertices")),
    ("check simplicial: degenerate edge",
     lambda: _check("simplicial", _edited(TRIANGLE, simplices={"1": [[0, 1], [0, 2], [1, 1]]})),
     _simplicial_error("degenerate simplex (1, 1)")),
    ("check simplicial: edge against the vertex order",
     lambda: _check("simplicial", _edited(TRIANGLE, simplices={"1": [[0, 1], [2, 0], [1, 2]]})),
     _simplicial_error("simplex (2, 0) not listed in vertex order")),
    ("check simplicial: tetrahedron missing a face",
     lambda: _check("simplicial", _edited(
         TETRAHEDRON, simplices={"2": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]},
         tri_labels=[0, 0, 0], start_vertices=[0, 0, 0])),
     _simplicial_error("tetrahedron (0, 1, 2, 3) missing face (1, 2, 3)")),
    ("check simplicial: start vertex outside its triangle",
     lambda: _check("simplicial", _edited(TETRAHEDRON, start_vertices=[3, 0, 0, 1])),
     _simplicial_error("start vertex 3 not in triangle (0, 1, 2)")),
    # crossmod check group FILE
    ("check group: duplicate names",
     lambda: _check("group", {"kind": "group", "name": "Z2", "names": ["e", "e"],
                              "table": [[0, 1], [1, 0]]}),
     {"exit": 1, "output": _report(
         "group table", _fail("well_formed", "names", "element names must be distinct"))}),
    ("check group: no names",
     lambda: _check("group", {"kind": "group", "name": "Z2", "table": [[0, 1], [1, 0]]}),
     {"exit": 2, "output": {"error": "group document needs names and table"}}),
    # the simplicial constructors, where decoding refuses first
    ("OrderedComplex: vertex out of range",
     lambda: _raised(OrderedComplex, 2, (0, 1), ((0, 2),)),
     _error("ValueError", "vertex out of range in (0, 2)")),
    ("SimplicialFormalMap: edge labels",
     lambda: _raised(_id2_map, _triangle(), (0, 0), (0,), (0,)),
     _error("ValueError", "one label per edge required")),
    ("SimplicialFormalMap: triangle labels",
     lambda: _raised(_id2_map, _triangle(), (0, 0, 0), (), (0,)),
     _error("ValueError", "one label per triangle required")),
    ("SimplicialFormalMap: start vertices",
     lambda: _raised(_id2_map, _triangle(), (0, 0, 0), (0,), ()),
     _error("ValueError", "one start vertex per triangle required")),
    ("transport_label: not a vertex of the triangle",
     lambda: _raised(transport_label, _id2_map(_triangle(), (0, 0, 0), (0,), (0,)), 0, 3),
     _error("ValueError", "3 is not a vertex of triangle (0, 1, 2)")),
    ("annulus_square_complex: diagonal",
     lambda: _raised(annulus_square_complex, "left"), DIAGONAL),
    ("annulus_labeling: diagonal",
     lambda: _raised(annulus_labeling, _cm("CM-Id2"), 0, 0, 0, "left"), DIAGONAL),
    ("annulus_flatten: seams",
     lambda: _raised(annulus_flatten, _id2_map(annulus_square_complex("up"), (0, 0, 0, 1, 1),
                                               (0, 0), (0, 0))),
     _error("ValueError", "seam edges carry different labels")),
    # cells and expressions
    ("compose_v: different crossed modules",
     lambda: _raised(compose_v, LabeledCell(_cm("CM-Id2"), 0, 0),
                     LabeledCell(_cm("CM-Mod"), 0, 0)),
     _error("ValueError", "cells over different crossed modules")),
    ("compose_expressions: boundaries differ",
     lambda: _raised(compose_expressions, expression(_cm("CM-A3S3"), [4], [], [4]),
                     expression(_cm("CM-A3S3"), [5], [], [5])),
     _error("TypecheckFailed", "expressions do not compose")),
    # groups and crossed modules
    ("from_normal_inclusion: not normal",
     lambda: _raised(from_normal_inclusion, S3, (0, 1)),
     _error("GroupConstructionError", "[0, 1] is not normal")),
    ("from_module: action of another group",
     lambda: _raised(from_module, std_groups()["Z3"], Z2, GroupAction(Z2, Z2, ((0, 1), (0, 1)))),
     _error("GroupConstructionError", "action must be of p on m")),
    ("restrict_subgroup: not a subgroup",
     lambda: _raised(restrict_subgroup, S3, (0, 4)),
     _error("GroupConstructionError", "[0, 4] is not a subgroup")),
    ("section: not surjective",
     lambda: _raised(section, trivial_hom(Z2, Z2)),
     _error("GroupConstructionError", "section requires a surjective projection")),
    ("cocycle_from_section: kernel",
     lambda: _raised(_kernel_escape),
     _error("GroupConstructionError", "cocycle value escaped the kernel")),
    ("check_homomorphism: shape",
     lambda: check_homomorphism(GroupHomomorphism(Z2, Z2, (0,))).to_json(),
     _report("homomorphism",
             _fail("well_formed", "shape", "map length or index out of range"))),
    ("check_homomorphism: identity",
     lambda: check_homomorphism(GroupHomomorphism(Z2, Z2, (1, 0))).to_json(),
     _report("homomorphism", {"axiom": "well_formed", "ok": True},
             _fail("homomorphism", "e", "identity not sent to identity", 5))),
    ("CheckReport.summary",
     lambda: check_homomorphism(GroupHomomorphism(Z2, Z2, (1, 0))).summary(),
     "FAIL homomorphism\n"
     "  homomorphism: 5 violation(s), first at e: identity not sent to identity"),
    ("check_action: shape",
     lambda: check_action(GroupAction(Z2, Z2, ((0, 1),))).to_json(),
     _report("group action", _fail("well_formed", "shape", "table shape mismatch"))),
    # matrices and fields
    ("Matrix @: shapes",
     lambda: _raised(Matrix(QQ, [[1, 2]]).__matmul__, Matrix(QQ, [[1, 2]])),
     _error("ValueError", "shape mismatch in matrix product: (1, 2) @ (1, 2)")),
    ("Matrix.apply: length",
     lambda: _raised(Matrix(QQ, [[1, 2]]).apply, (1,)),
     _error("ValueError", "vector length mismatch")),
    ("QQ.div: zero",
     lambda: _raised(QQ.div, 1, 0), _error("ZeroDivisionError", "division by zero in Q")),
    ("GF(5).div: zero",
     lambda: _raised(GF(5).div, 1, 5), _error("ZeroDivisionError", "division by zero in F5")),
    ("GF(5).parse: another modulus",
     lambda: _raised(GF(5).parse, "3 mod 7"), _error("ScalarParseError", "'3 mod 7' is not in F5")),
    ("GF(5).parse: not a residue",
     lambda: _raised(GF(5).parse, "x mod 5"), _error("ScalarParseError", "bad residue 'x mod 5'")),
    ("reprs",
     lambda: [repr(x) for x in (S3, Matrix(GF(5), [[1, 2], [3, 4]]), _cm("CM-A3S3"), QQ, GF(5))],
     ["FiniteGroup({e, (12), (13), (23), (123), (132)})",
      "Matrix[2x2](1 mod 5 2 mod 5; 3 mod 5 4 mod 5)",
      "CrossedModule(CM-A3S3: |C|=3, |P|=6)", "QQ", "GF(5)"]),
    ("FiniteGroup.__hash__", _renamed_hash, [True, True]),
    # algebras
    ("same_structure: differs", _same_structure_differs, [False, False, False, False]),
    ("enumerate_algebra_morphisms: over Q",
     lambda: _raised(_morphism_search_over_q),
     _error("ValueError", "exhaustive morphism search needs a finite prime field")),
    ("verify_cocycle_multiplication: cocycle",
     lambda: _raised(_cocycle_law, "coc"),
     _error("AssertionError", "cocycle law fails at ((12),(12))")),
    ("verify_cocycle_multiplication: pullback",
     lambda: _raised(_cocycle_law, "pulled"),
     _error("AssertionError", "pullback product is not the unit basis vector at ((123),e)")),
    # serialize, mutations and verify
    ("to_doc: unknown kind",
     lambda: _raised(to_doc, "ring", None), _error("SerializationError", "unknown kind 'ring'")),
    ("run_mutation: unknown key",
     lambda: _raised(run_mutation, "nope"), _error("KeyError", "\"unknown mutation 'nope'\"")),
    ("run_suite: unknown name",
     lambda: _raised(verify.run_suite, "nope"), _error("KeyError", "\"unknown suite 'nope'\"")),
    ("criterion 3: the witness raises", _kp_iso_failing, [False, ["  witness refused"]]),
    ("mut_section: not detected", _section_undetected,
     {"mutation": "section.identity_choice", "family": "section", "detected": False,
      "instance": None, "detail": None}),
]


@pytest.mark.parametrize("call, result", [(call, result) for _, call, result in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refusal(call, result):
    assert call() == result
