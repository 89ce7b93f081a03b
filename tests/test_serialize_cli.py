import contextlib
import functools
import io
import json
import tempfile

import pytest

from crossmod import algebras as algebra_module, cli, fixtures, serialize
from crossmod.algebras import (
    CrossedAlgebraMorphism,
    check_crossed_algebra,
    group_algebra_C,
    group_algebra_P,
    kp_iso_witness,
    pushforward,
    same_structure,
)
from crossmod.cli import build_parser, main
from crossmod.crossed_modules import identity_morphism
from crossmod.fields import GF, QQ
from crossmod.fixtures import std_crossed_modules, std_morphisms
from crossmod.formal_maps import Cap, Cup, Cyl, Disc, Id, Pants, expression, annulus_labeling
from crossmod.groups import symmetric_group_3
from crossmod.linalg import Matrix
from crossmod.serialize import (
    SerializationError,
    UnknownObject,
    Workspace,
    dumps,
    from_doc,
    to_doc,
)


@pytest.fixture(scope="module")
def ws():
    return Workspace()


def test_group_roundtrip(ws, groups):
    doc = {**to_doc("group", groups["S3"]), "name": "S3"}
    kind, name, obj = from_doc(doc, ws)
    assert kind == "group" and obj == groups["S3"]


def test_crossed_module_roundtrip(ws, cms):
    for cm in cms.values():
        doc = to_doc("crossed_module", cm)
        kind, _, obj = from_doc(doc, ws)
        assert obj.boundary.map == cm.boundary.map
        assert obj.act.table == cm.act.table


def test_morphism_roundtrip(ws):
    m = std_morphisms()["q.CM-A3S3"]
    kind, _, obj = from_doc(to_doc("morphism", m), ws)
    assert obj.f_base.map == m.f_base.map


def test_algebra_roundtrip(ws, algebras):
    for name in ("KC.CM-A3S3", "KP.CM-Id2", "QKG.CM-A3S3", "PUSH.CM-A3S3"):
        L = algebras[name]
        kind, _, obj = from_doc(to_doc("algebra", L), ws)
        assert same_structure(obj, L)
        assert check_crossed_algebra(obj).ok


def test_algebra_morphism_roundtrip(ws, cms):
    w = kp_iso_witness(cms["CM-A3S3"], QQ)
    kind, _, obj = from_doc(to_doc("algebra_morphism", w), ws)
    assert all(obj.blocks[p] == w.blocks[p] for p in w.source.P.elements())


def test_expression_roundtrip(ws, cms):
    cm = cms["CM-A3S3"]
    e = expression(cm, [1], [[Disc(1), Cyl(0, 1, 2)], [Cap(cm.d(1))]], [])
    kind, _, obj = from_doc(to_doc("expression", e), ws)
    assert obj.layers == e.layers and obj.source == e.source


def test_simplicial_roundtrip(ws, cms):
    m = annulus_labeling(cms["CM-A3S3"], 1, 4, 1)
    kind, _, obj = from_doc(to_doc("simplicial", m), ws)
    assert obj.edge_labels == m.edge_labels
    assert obj.tri_labels == m.tri_labels


def test_named_references_resolve(ws):
    doc = {"kind": "homomorphism", "name": "sign", "source": "S3", "target": "Z2",
           "map": [0, 1, 1, 1, 0, 0]}
    kind, name, obj = from_doc(doc, ws)
    assert obj.source == symmetric_group_3()


def test_malformed_documents(ws):
    with pytest.raises(SerializationError):
        from_doc({"no": "kind"}, ws)
    with pytest.raises(SerializationError):
        from_doc({"kind": "group", "names": ["e", "s"], "table": [[0, 1]]}, ws)
    with pytest.raises(SerializationError):
        from_doc({"kind": "algebra", "crossed_module": "CM-Id2", "field": "Q"}, ws)


def test_workspace_builds_fixture_algebras_on_first_lookup(monkeypatch, groups):
    """A workspace builds no algebra until an algebra name (or an unknown
    one) is looked up; the fixture algebras then enter all at once, under
    any object added first with one of their names, and every lookup
    error keeps its message."""
    calls = []
    std_algebras = fixtures.std_algebras
    monkeypatch.setattr(fixtures, "std_algebras",
                        lambda field: calls.append(field) or std_algebras(field))
    ws = Workspace()
    assert ws.get("Z2", "group") is groups["Z2"]
    assert calls == []
    ws.add("KC.CM-Id2", "group", groups["S3"])
    with pytest.raises(UnknownObject, match="'KC.CM-Mod' is a algebra, not a group"):
        ws.get("KC.CM-Mod", "group")
    assert calls == [QQ]
    assert ws.get("KP.CM-Id2", "algebra") is std_algebras(QQ)["KP.CM-Id2"]
    assert ws.objects["PUSH.CM-Id2"] == ("algebra", std_algebras(QQ)["PUSH.CM-Id2"])
    assert ws.get("KC.CM-Id2", "group") is groups["S3"]
    assert calls == [QQ]
    with pytest.raises(UnknownObject, match="no object named 'KC.nothing'"):
        ws.get("KC.nothing")


def test_build_pushforward_checks_the_algebra_once(monkeypatch, capsys, algebras):
    """`pushforward` runs check_crossed_algebra on what it builds and raises
    on a result that fails, so `build pushforward` does not check it again."""
    calls = []
    check = check_crossed_algebra

    def counted(L):
        calls.append(L.name)
        return check(L)

    monkeypatch.setattr(algebra_module, "check_crossed_algebra", counted)
    monkeypatch.setitem(serialize.KINDS, "algebra",
                        serialize.KINDS["algebra"]._replace(check=counted))
    assert main(["build", "pushforward", "q.CM-A3S3", "KP.CM-A3S3"]) == 0
    assert calls == ["push(KP.CM-A3S3)"]
    monkeypatch.undo()
    push = pushforward(std_morphisms()["q.CM-A3S3"], algebras["KP.CM-A3S3"])
    assert capsys.readouterr().out == dumps(to_doc("algebra", push))


def test_build_kp_iso_checks_the_blocks_once(monkeypatch, capsys, cms):
    """`kp_iso_witness` checks its blocks over an identity morphism, so
    `build kp_iso` does not check the witness again."""
    calls = []
    check_blocks = algebra_module._check_blocks

    def counted(m, report):
        calls.append(m)
        return check_blocks(m, report)

    monkeypatch.setattr(algebra_module, "_check_blocks", counted)
    assert main(["build", "kp_iso", "CM-Id2"]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    witness = kp_iso_witness(cms["CM-Id2"], QQ)
    assert capsys.readouterr().out == dumps(to_doc("algebra_morphism", witness))


# --- CLI --------------------------------------------------------------------

def test_cli_check_builtin_passes(capsys):
    assert main(["check", "crossed-module", "CM-A3S3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_cli_check_algebra_and_field_flag(capsys):
    assert main(["--field", "Fp:2", "check", "algebra", "KP.CM-A3S3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_check_mutated_file_fails(tmp_path, capsys, groups):
    s3 = groups["S3"]
    doc = {**to_doc("group", s3), "name": "S3mut"}
    doc["table"][1][2] = 0
    path = tmp_path / "bad_group.json"
    path.write_text(dumps(doc))
    assert main(["check", "group", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing and failing[0]["instance"]


def test_cli_check_file_of_another_kind_exits_2(tmp_path, capsys, cms):
    path = tmp_path / "cm.json"
    path.write_text(dumps(to_doc("crossed_module", cms["CM-A3S3"])))
    assert main(["check", "algebra", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "'CM-A3S3' is a crossed_module, not a algebra"}
    assert main(["check", "crossed-module", str(path)]) == 0


def test_document_of_another_kind_is_one_error(tmp_path, capsys, ws, cms):
    """`crossmod eval` on a file, and an inline reference, of another kind
    raise the error of `crossmod check`, naming the document."""
    path = tmp_path / "cm.json"
    path.write_text(dumps(to_doc("crossed_module", cms["CM-A3S3"])))
    assert main(["eval", str(path), str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "'CM-A3S3' is a crossed_module, not a algebra"}
    with pytest.raises(SerializationError, match="^'S3' is a group, not a crossed_module$"):
        ws.resolve({**to_doc("group", cms["CM-A3S3"].base), "name": "S3"}, "crossed_module")


def test_cli_check_malformed_exits_2(tmp_path, capsys, cms):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "group", str(path)]) == 2
    path2 = tmp_path / "unknown.json"
    assert main(["check", "group", "NoSuchGroup"]) == 2
    capsys.readouterr()
    # a non-integer group-table entry, alone and inside the documents that
    # embed a group
    group = to_doc("group", cms["CM-A3S3"].top)
    group["table"][1][1] = "x"
    cm = to_doc("crossed_module", cms["CM-A3S3"])
    cm["top"] = group
    alg = to_doc("algebra", group_algebra_C(cms["CM-A3S3"], QQ))
    alg["crossed_module"] = cm
    for kind, doc in (("group", group), ("crossed-module", cm), ("algebra", alg)):
        path = tmp_path / f"bad-{kind}.json"
        path.write_text(dumps(doc))
        assert main(["check", kind, str(path)]) == 2
        assert "error" in json.loads(capsys.readouterr().out)
    # a field spec with a modulus that is not a prime
    for argv in (["--field", "Fp:4", "check", "algebra", "KP.CM-Mod"],
                 ["--field", "Fp:x", "build", "kC", "CM-Mod"]):
        assert main(argv) == 2
        assert "error" in json.loads(capsys.readouterr().out)


# every index field of every piece kind, and the expression's boundary labels;
# in CM-A3S3, c indexes the top group A3 and every other field the base S3
PIECE_FIELDS = {"disc": ["c"], "cyl": ["c", "g", "h"], "pants": ["c", "g1", "g2"],
                "copants": ["g1", "g2"], "cup": ["g"], "cap": ["g"], "id": ["g"],
                "swap": ["g1", "g2"]}
INDEX_CASES = [(kind, field) for kind, fields in PIECE_FIELDS.items() for field in fields]
INDEX_CASES += [("source", None), ("target", None)]


@pytest.mark.parametrize("kind,field", INDEX_CASES,
                         ids=[f"{k}.{f}" if f else k for k, f in INDEX_CASES])
def test_cli_out_of_range_indices_exit_2(tmp_path, capsys, ws, kind, field):
    order = 3 if field == "c" else 6

    def doc_with(value):
        doc = {"kind": "expression", "crossed_module": "CM-A3S3",
               "source": [], "layers": [], "target": []}
        if field is None:
            doc[kind] = [[value]]
        else:
            doc["layers"] = [[{"piece": kind, **dict.fromkeys(PIECE_FIELDS[kind], 0),
                               field: value}]]
        return doc

    from_doc(doc_with(order - 1), ws)  # the largest index parses
    path = tmp_path / "bad.json"
    for value in (order, 99, -1, "x", "1", True):
        path.write_text(json.dumps(doc_with(value)))
        for argv in (["check", "expression", str(path)], ["eval", "KC.CM-A3S3", str(path)]):
            assert main(argv) == 2, (argv, value)
            assert "error" in json.loads(capsys.readouterr().out)


# --- malformed-document corpus ---------------------------------------------

@functools.lru_cache(maxsize=None)
def _fixture_doc_text(kind):
    """A valid document of each kind (named as on the command line), built
    from the fixtures and kept as text, so that every case mutates a copy."""
    cm = std_crossed_modules()["CM-A3S3"]
    obj = {
        "homomorphism": lambda: cm.boundary,
        "action": lambda: cm.act,
        "crossed-module": lambda: cm,
        "morphism": lambda: std_morphisms()["q.CM-A3S3"],
        "algebra": lambda: group_algebra_C(cm, QQ),
        "algebra-morphism": lambda: kp_iso_witness(cm, QQ),
        "expression": lambda: expression(cm, [1, 2], [], [1, 2]),
        "simplicial": lambda: annulus_labeling(cm, 1, 4, 1),
    }[kind]()
    return dumps(to_doc(kind.replace("-", "_"), obj))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# every index list of every document kind: (the path to the list, the path
# to what bounds its entries: a group's names, or the vertex count)
INDEX_LISTS = {
    "homomorphism": [(("map",), ("target", "names"))],
    "action": [(("table", 1), ("space", "names"))],
    "crossed-module": [(("boundary",), ("base", "names")),
                       (("action", 1), ("top", "names"))],
    "morphism": [(("f_top",), ("target", "top", "names")),
                 (("f_base",), ("target", "base", "names"))],
    "algebra": [(("crossed_module", "boundary"), ("crossed_module", "base", "names")),
                (("crossed_module", "action", 1), ("crossed_module", "top", "names"))],
    "algebra-morphism": [(("f_top",), ("target", "crossed_module", "top", "names")),
                         (("f_base",), ("target", "crossed_module", "base", "names"))],
    "expression": [(("source", 0), ("crossed_module", "base", "names")),
                   (("target", 1), ("crossed_module", "base", "names"))],
    "simplicial": [(("order",), ("vertices",)),
                   (("simplices", "1", 0), ("vertices",)),
                   (("simplices", "2", 1), ("vertices",)),
                   (("edge_labels",), ("crossed_module", "base", "names")),
                   (("tri_labels",), ("crossed_module", "top", "names")),
                   (("start_vertices",), ("vertices",))],
}
ORDER = object()    # stands for the bound itself: the first index out of range


def _check_mutated(kind, mutate):
    """argv of `check <kind>` on a fixture document changed by `mutate`."""
    def argv(tmp_path, ws):
        doc = json.loads(_fixture_doc_text(kind))
        from_doc(doc, ws)   # unchanged, the document decodes
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return ["check", kind, str(path)]
    return argv


def _set_entry(list_path, bound_path, value):
    def mutate(doc):
        bound = _at(doc, bound_path)
        n = len(bound) if isinstance(bound, list) else bound
        _at(doc, list_path)[-1] = n if value is ORDER else value
    return mutate


def _set(path, value):
    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value
    return mutate


def _fixtures_dir_with(text):
    def argv(tmp_path, ws):
        (tmp_path / "bad.json").write_text(text)
        return ["--fixtures-dir", str(tmp_path), "check", "group", "Z2"]
    return argv


def _eval_file(data: bytes):
    def argv(tmp_path, ws):
        (tmp_path / "bad.json").write_bytes(data)
        return ["eval", "KC.CM-A3S3", str(tmp_path / "bad.json")]
    return argv


def _eval_pants_out(tmp_path, ws):
    """argv of an `eval` that succeeds but whose --out lies in a missing directory."""
    cm = std_crossed_modules()["CM-A3S3"]
    path = tmp_path / "pants.json"
    path.write_text(dumps(to_doc("expression", expression(cm, [4, 4], [[Pants(0, 4, 4)]], [5]))))
    return ["eval", "KC.CM-A3S3", str(path), "--out", str(tmp_path / "missing" / "out.json")]


def _fixtures_dir_a_file(tmp_path, ws):
    (tmp_path / "fx.json").write_text("{}")
    return ["--fixtures-dir", str(tmp_path / "fx.json"), "check", "group", "Z2"]


CORPUS = [(f"{kind}.{'.'.join(map(str, list_path))}={'order' if value is ORDER else repr(value)}",
           _check_mutated(kind, _set_entry(list_path, bound_path, value)))
          for kind, lists in INDEX_LISTS.items() for list_path, bound_path in lists
          for value in (ORDER, 99, -1, 1.5, True, "1")]
CORPUS += [
    ("morphism.f_top=5", _check_mutated("morphism", _set(("f_top",), 5))),
    ("algebra-morphism.f_top=5", _check_mutated("algebra-morphism", _set(("f_top",), 5))),
    ("algebra.dims=1.7", _check_mutated("algebra", _set(("dims", "0"), 1.7))),
    ("algebra.dims=-1", _check_mutated("algebra", _set(("dims", "0"), -1))),
    ("algebra.basis_names-count", _check_mutated(
        "algebra", lambda doc: doc["basis_names"]["0"].append("extra"))),
    # without basis_names, a grade's default names are built only after rho
    # and phi have compared its dimension with the document
    ("algebra.dims-huge", _check_mutated(
        "algebra", lambda doc: (doc.pop("basis_names"), doc["dims"].update({"1": 10 ** 9})))),
    # shape faults: the CrossedCAlgebra constructor refuses them as they decode
    ("algebra.unit-extra", _check_mutated("algebra", lambda doc: doc["unit"].append("0"))),
    ("algebra.mul-reshaped", _check_mutated(
        "algebra", lambda doc: doc["mul"]["0,0"][0].append(["0"]))),
    ("algebra.tilde-extra", _check_mutated("algebra", lambda doc: doc["tilde"]["0"].append("0"))),
    ("simplicial.simplices=list", _check_mutated("simplicial", _set(("simplices",), [[0, 1]]))),
    ("expression.kind=list", _check_mutated("expression", _set(("kind",), ["expression"]))),
    ("eval-not-utf8", _eval_file(b"\xff\xfe")),
    ("build-too-few", lambda tmp_path, ws: ["build", "pullback", "q.CM-A3S3"]),
    ("build-too-many", lambda tmp_path, ws: ["build", "kC", "CM-A3S3", "extra"]),
    ("fixtures-dir-not-json", _fixtures_dir_with("{not json")),
    ("fixtures-dir-bad-index", _fixtures_dir_with(json.dumps(
        {"kind": "homomorphism", "source": "Z2", "target": "Z2", "map": [0, 2]}))),
    ("fixtures-dir-name-not-a-string", _fixtures_dir_with(json.dumps(
        {"kind": "group", "name": ["Z1"], "names": ["e"], "table": [[0]]}))),
    ("fixtures-dir-missing", lambda tmp_path, ws:
        ["--fixtures-dir", str(tmp_path / "missing"), "check", "group", "Z2"]),
    ("fixtures-dir-a-file", _fixtures_dir_a_file),
    # an --out path in a directory that does not exist cannot be written
    ("build-out-unwritable", lambda tmp_path, ws:
        ["build", "kC", "CM-A3S3", "--out", str(tmp_path / "missing" / "kc.json")]),
    ("eval-out-unwritable", _eval_pants_out),
]
# field moduli past the float range (10**400) and prime but too large to test
# by trial division (2**61 - 1), from --field and from a document's field
for label, modulus in (("10**400", 10 ** 400), ("2**61-1", 2 ** 61 - 1)):
    CORPUS += [
        (f"field-flag-Fp:{label}", lambda tmp_path, ws, modulus=modulus:
            ["--field", f"Fp:{modulus}", "check", "algebra", "KP.CM-Mod"]),
        (f"algebra.field-Fp:{label}",
         _check_mutated("algebra", _set(("field",), {"Fp": modulus}))),
    ]
# a document's modulus is a JSON integer and a --field modulus ASCII digits;
# int() would read each of these as a prime
CORPUS += [
    ("algebra.field-Fp:5.5", _check_mutated("algebra", _set(("field",), {"Fp": 5.5}))),
    ("algebra.field-Fp:'5'", _check_mutated("algebra", _set(("field",), {"Fp": "5"}))),
    ("field-flag-Fp:1_1",
     lambda tmp_path, ws: ["--field", "Fp:1_1", "check", "algebra", "KP.CM-Mod"]),
]
# each grade's basis_names must be a list of strings: a string is not split
# into names, nor a list of numbers taken as names (grade 0 of KC.CM-Mod has
# dimension 3, so either has the right count)
def _kc_mod_with_names(names):
    def argv(tmp_path, ws):
        doc = json.loads(dumps(to_doc("algebra", ws.get("KC.CM-Mod", "algebra"))))
        doc["basis_names"]["0"] = names
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return ["check", "algebra", str(path)]
    return argv


CORPUS += [("algebra.basis_names-str", _kc_mod_with_names("xyz")),
           ("algebra.basis_names-ints", _kc_mod_with_names([1, 2, 3]))]
# an algebra's keyed fields must be JSON objects; a string in their place is
# reported by crossmod, not by the interpreter's own TypeError text
OBJECT_FIELDS = ("dims", "rho", "phi", "mul", "tilde", "basis_names")
CORPUS += [(f"algebra.{key}='x'", _check_mutated("algebra", _set((key,), "x")))
           for key in OBJECT_FIELDS]


@pytest.mark.parametrize("make_argv", [make for _, make in CORPUS],
                         ids=[case for case, _ in CORPUS])
def test_cli_malformed_corpus_exits_2(tmp_path, capsys, ws, make_argv):
    argv = make_argv(tmp_path, ws)
    assert main(argv) == 2, argv
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("key", OBJECT_FIELDS)
def test_cli_algebra_field_not_an_object_is_named(tmp_path, capsys, ws, key):
    assert main(_check_mutated("algebra", _set((key,), "x"))(tmp_path, ws)) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.endswith(f"bad algebra document: {key} must be an object"), error


LIST_OF = "bad algebra document: {} must be a list of {}scalars"


@pytest.mark.parametrize("kind, path, value, error", [
    ("algebra", ("unit",), "1", LIST_OF.format("unit", "")),
    ("algebra", ("unit",), {"1": 0}, LIST_OF.format("unit", "")),
    ("algebra", ("tilde", "1"), {"1": 0}, LIST_OF.format("tilde 1", "")),
    ("algebra", ("mul", "0,0"), "1", LIST_OF.format("mul 0,0", "lists of lists of ")),
    ("algebra", ("mul", "0,0"), ["1"], LIST_OF.format("mul 0,0", "lists of lists of ")),
    ("algebra", ("rho", "0"), "1", LIST_OF.format("rho 0", "lists of ")),
    ("algebra", ("phi", "1,0"), ["1"], LIST_OF.format("phi 1,0", "lists of ")),
    ("algebra-morphism", ("blocks", "0"), "1",
     "bad algebra_morphism document: blocks 0 must be a list of lists of scalars"),
    ("algebra-morphism", ("blocks", "1"), {"1": 0},
     "bad algebra_morphism document: blocks 1 must be a list of lists of scalars"),
    # a container whose items do not parse keeps the scalar's message
    ("algebra", ("unit",), "x", "bad algebra document: bad rational 'x'"),
    ("algebra", ("rho", "0"), "x", "bad algebra document: bad rational 'x'"),
    # a number, boolean or null where a list belongs is refused at once
    ("algebra", ("unit",), 5, LIST_OF.format("unit", "")),
    ("algebra", ("tilde", "1"), None, LIST_OF.format("tilde 1", "")),
    ("algebra", ("mul", "0,0"), True, LIST_OF.format("mul 0,0", "lists of lists of ")),
    ("algebra", ("mul", "0,0", 0), 5, LIST_OF.format("mul 0,0", "lists of lists of ")),
    ("algebra", ("mul", "0,0", 0, 0), None, LIST_OF.format("mul 0,0", "lists of lists of ")),
    ("algebra", ("rho", "0"), 5, LIST_OF.format("rho 0", "lists of ")),
    ("algebra", ("phi", "1,0", 0), True, LIST_OF.format("phi 1,0", "lists of ")),
    ("algebra-morphism", ("blocks", "0"), None,
     "bad algebra_morphism document: blocks 0 must be a list of lists of scalars"),
    # and a string or a number where the object of blocks belongs
    ("algebra-morphism", ("blocks",), "x", "bad algebra_morphism document: blocks must be an object"),
    ("algebra-morphism", ("blocks",), 5, "bad algebra_morphism document: blocks must be an object"),
])
def test_cli_string_or_object_in_place_of_a_list_exits_2(tmp_path, capsys, kind, path, value,
                                                          error):
    """On KP.CM-Id2 and its kp_iso witness, where every grade has dimension
    1, a string or an object of one parsable scalar where a list belongs
    would be iterated like a list of it: it is malformed, and the error
    names the field. So is a number, boolean or null there, which cannot be
    iterated."""
    cm = std_crossed_modules()["CM-Id2"]
    doc = (to_doc("algebra", group_algebra_P(cm, QQ)) if kind == "algebra"
           else to_doc("algebra_morphism", kp_iso_witness(cm, QQ)))
    _set(path, value)(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(["check", kind, str(file)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


def _simplices_with_edges(value):
    """The simplicial fixture with no triangle or tetrahedron and `value`
    for its edges."""
    def mutate(doc):
        doc.update(edge_labels=[], tri_labels=[], start_vertices=[],
                   simplices={"1": value, "2": [], "3": []})
    return mutate


LAYERS = "bad expression document: layers must be a list of lists of pieces"


@pytest.mark.parametrize("kind, mutate, error", [
    ("expression", _set(("layers",), ""), LAYERS),
    ("expression", _set(("layers",), {}), LAYERS),
    ("expression", _set(("layers",), [{}]), LAYERS),
    ("expression", _set(("source",), {}),
     "bad expression document: source must be a list of circuits"),
    ("expression", _set(("target",), {}),
     "bad expression document: target must be a list of circuits"),
    ("simplicial", _simplices_with_edges({}),
     "bad simplicial document: simplices 1 must be a list of simplices"),
    ("simplicial", _set(("simplices", "3"), {}),
     "bad simplicial document: simplices 3 must be a list of simplices"),
    # a string whose entries do not parse keeps the piece's message
    ("expression", _set(("layers",), "x"), "unknown piece kind 'x'"),
    # a number, boolean or null where a list belongs is refused at once
    ("expression", _set(("layers",), 5), LAYERS),
    ("expression", _set(("layers",), [None]), LAYERS),
    ("expression", _set(("source",), True),
     "bad expression document: source must be a list of circuits"),
    ("expression", _set(("target",), 5),
     "bad expression document: target must be a list of circuits"),
    ("simplicial", _set(("simplices", "1"), None),
     "bad simplicial document: simplices 1 must be a list of simplices"),
    # a piece kind that is an object or a list is no piece kind
    ("expression", _set(("layers",), [[{"piece": {}}]]), "unknown piece kind {'piece': {}}"),
    ("expression", _set(("layers",), [[{"piece": []}]]), "unknown piece kind {'piece': []}"),
    ("simplicial", _set(("simplices",), 5), "bad simplicial document: simplices must be an object"),
], ids=["layers=''", "layers={}", "layers=[{}]", "source={}", "target={}",
        "simplices.1={}", "simplices.3={}", "layers='x'", "layers=5", "layers=[null]",
        "source=true", "target=5", "simplices.1=null", "piece={}", "piece=[]", "simplices=5"])
def test_cli_expression_or_simplicial_field_not_a_list_exits_2(tmp_path, capsys, ws, kind,
                                                                mutate, error):
    """An object or a string where a list of layers, circuits or simplices
    belongs would be iterated like a list: `""` and `{}` as an empty one (an
    identity expression, or a complex with no simplices of that dimension)
    and `[{}]` as one empty layer. It is malformed, and the error names the
    field; so does a number, boolean or null there."""
    assert main(_check_mutated(kind, mutate)(tmp_path, ws)) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


# one document of each kind over CM-Mod (top group Z/3, base group Z/2):
# its algebra has grades of dimension 3 and 0
def _sweep_docs():
    cm = std_crossed_modules()["CM-Mod"]
    objs = {"group": cm.top, "homomorphism": cm.boundary, "action": cm.act,
            "crossed-module": cm, "morphism": std_morphisms()["q.CM-Mod"],
            "algebra": group_algebra_C(cm, QQ), "algebra-morphism": kp_iso_witness(cm, QQ),
            "expression": expression(cm, [1, 1], [[Pants(0, 1, 1)]], [0]),
            "simplicial": annulus_labeling(cm, 1, 1, 1)}
    return {kind: to_doc(kind.replace("-", "_"), obj) for kind, obj in objs.items()}


def _node_paths(node, depth):
    """The path to every node below `node`, `depth` levels deep: every key
    of an object and the first two items of a list."""
    if depth == 0 or not isinstance(node, (dict, list)):
        return
    for key in node if isinstance(node, dict) else range(min(2, len(node))):
        yield (key,)
        yield from ((key, *path) for path in _node_paths(node[key], depth - 1))


PYTHON_WORDING = ("object is not", "indices must be", "not subscriptable", "unhashable",
                  "not iterable")


@functools.lru_cache(maxsize=None)
def one_node_edits():
    """(kind, node path, value, exit code, stdout) of `crossmod check` on
    each node of one document of each kind (`_sweep_docs`), down to depth 3,
    replaced by a number, null, a boolean, a string, an object and a list;
    run once per process, and pinned by the golden section `cli`. One file
    is rewritten in place for each edit and cut to its new length after the
    write, which costs a fraction of opening it anew or emptying it first."""
    results = []
    with tempfile.NamedTemporaryFile("w", suffix=".json") as doc_file:
        for kind, doc in _sweep_docs().items():
            text = json.dumps(doc)
            for node in _node_paths(doc, 3):
                for value in (5, None, True, "x", {}, []):
                    edited = json.loads(text)
                    _set(node, value)(edited)
                    doc_file.seek(0)
                    doc_file.write(json.dumps(edited))
                    doc_file.truncate()
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        code = main(["check", kind, doc_file.name])
                    results.append((kind, node, value, code, out.getvalue()))
    return tuple(results)


def test_cli_every_one_node_edit_exits_0_1_or_2_in_crossmod_words():
    """Each edit of `one_node_edits`: `crossmod check` exits 0, 1 or 2 (an
    exception would escape `main`), and no error carries the interpreter's
    own TypeError wording."""
    for kind, node, value, code, out in one_node_edits():
        assert code in (0, 1, 2), (kind, node, value)
        if code == 2:
            error = json.loads(out)["error"]
            assert not any(w in error for w in PYTHON_WORDING), (kind, node, value, error)


@pytest.mark.parametrize("make_argv, error", [
    (_check_mutated("algebra", _set(("field",), None)),
     "bad algebra document: unknown field spec None"),
    (lambda tmp_path, ws: ["--field", "", "check", "algebra", "KP.CM-Mod"],
     "unknown field spec ''"),
], ids=["algebra.field=null", "field-flag-empty"])
def test_cli_null_or_empty_field_spec_exits_2(tmp_path, capsys, ws, make_argv, error):
    """A field spec is "Q", or a prime modulus as {"Fp": p} in a document or
    Fp:<p> on the command line; neither a null field nor an empty --field
    is Q."""
    assert main(make_argv(tmp_path, ws)) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


GROUP_DOC = "group document needs a list of names and a table of integers"


@pytest.mark.parametrize("kind, edits, error", [
    ("group", {("kind",): 5}, "unknown kind 5"),
    ("group", {("name",): 5}, "name must be a string, not 5"),
    ("group", {("kind",): "action"}, "'group' is a action, not a group"),
    ("group", {("names",): [5, None, {}]}, GROUP_DOC),
    ("crossed-module", {("top", "names"): [5, None, {}]}, GROUP_DOC),
    ("group", {("table", 1, 1): "x"}, GROUP_DOC),
    ("algebra", {("unit",): [True, "0", "0"]}, "bad algebra document: bad rational True"),
    ("algebra", {("field",): {"Fp": 3}, ("unit",): [True, "0", "0"]},
     "bad algebra document: bad residue True"),
    ("algebra", {("mul", "0,0", 0, 0, 0): False}, "bad algebra document: bad rational False"),
], ids=["group.kind=5", "group.name=5", "group.kind=action", "group.names",
        "crossed-module.top.names", "group.table-entry", "algebra.unit", "algebra-F3.unit",
        "algebra.mul-entry"])
def test_cli_group_header_names_and_boolean_scalars_exit_2(tmp_path, capsys, kind, edits, error):
    """On CM-Mod's top group, CM-Mod and KC.CM-Mod: `check group` reads a
    group document's kind and name by the rule of every other kind, a
    group's names must be strings (alone and inside a crossed module), and
    a JSON boolean is no scalar over Q or GF(p)."""
    cm = std_crossed_modules()["CM-Mod"]
    obj = {"group": cm.top, "crossed-module": cm, "algebra": group_algebra_C(cm, QQ)}[kind]
    doc = json.loads(dumps(to_doc(kind.replace("-", "_"), obj)))
    for path, value in edits.items():
        _set(path, value)(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(["check", kind, str(file)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


def _pop(*path):
    return lambda doc: _at(doc, path[:-1]).pop(path[-1])


def _names_dup(doc):
    doc["basis_names"]["0"][1] = doc["basis_names"]["0"][0]


# one case per kind of shape fault on KC.CM-Mod (dims (3, 0) over Z/2, top
# group Z/3): the constructor arguments that carry it and the fault the
# constructor names, then a document edit of the same kind and the error of
# `crossmod check algebra` on it. A document cannot give a wrong count of
# dims, mul blocks or tilde vectors, nor a rho or phi block of the wrong
# shape: a missing entry is a missing field, and serialize's matrix decoder
# compares each block with the dims as it is read
SHAPE_FAULTS = {
    "dims": (lambda L: {"dims": L.dims + (0,)},
             "dims: one dimension per base element required",
             _pop("dims", "1"), "bad algebra document: missing field '1'"),
    "mul-missing": (lambda L: {"mul": {k: v for k, v in L.mul.items() if k != (0, 1)}},
                    "mul(0,1): missing block",
                    _pop("mul", "0,1"), "bad algebra document: missing field '0,1'"),
    "mul-shape": (lambda L: {"mul": {**L.mul, (0, 0): L.mul[(0, 0)][:2]}},
                  "mul(0,0): bad shape",
                  lambda doc: doc["mul"]["0,0"][0].append(["0", "0", "0"]),
                  "bad algebra document: mul(0,0): bad shape"),
    "unit": (lambda L: {"unit": L.unit + (0,)}, "unit: wrong length",
             lambda doc: doc["unit"].append("0"), "bad algebra document: unit: wrong length"),
    "rho": (lambda L: {"rho": {**L.rho, 0: Matrix.identity(QQ, 2)}}, "rho(0): bad shape",
            lambda doc: doc["rho"]["0"].append(["0", "0", "0"]),
            "bad algebra document: expected 3 rows, got 4"),
    "phi": (lambda L: {"phi": {**L.phi, (1, 0): Matrix.identity(QQ, 2)}},
            "phi(1,0): bad shape",
            lambda doc: doc["phi"]["1,0"].append(["0", "0", "0"]),
            "bad algebra document: expected 3 rows, got 4"),
    "tilde-count": (lambda L: {"tilde": L.tilde[:2]},
                    "tilde: one vector per top element required",
                    _pop("tilde", "2"), "bad algebra document: missing field '2'"),
    "tilde-grade": (lambda L: {"tilde": (L.tilde[0] + (0,),) + L.tilde[1:]},
                    "tilde(0): vector not in grade d(c)",
                    lambda doc: doc["tilde"]["0"].append("0"),
                    "bad algebra document: tilde(0): vector not in grade d(c)"),
    "basis_names-count": (lambda L: {"basis_names": (("a", "b", "c", "d"), ())},
                          "basis_names(0): 4 names for dim 3",
                          lambda doc: doc["basis_names"]["0"].append("extra"),
                          "bad algebra document: basis_names(0): 4 names for dim 3"),
    "basis_names-duplicate": (lambda L: {"basis_names": (("a", "b", "a"), ())},
                              "basis_names(0): duplicate names",
                              _names_dup, "bad algebra document: basis_names(0): duplicate names"),
}


@pytest.mark.parametrize("fault", SHAPE_FAULTS)
def test_algebra_shape_fault_is_refused_as_built(tmp_path, capsys, algebras, fault):
    edit_args, error, edit_doc, doc_error = SHAPE_FAULTS[fault]
    L = algebras["KC.CM-Mod"]
    args = dict(name=L.name, cm=L.cm, field=L.field, dims=L.dims, basis_names=L.basis_names,
                mul=L.mul, unit=L.unit, rho=L.rho, phi=L.phi, tilde=L.tilde)
    with pytest.raises(ValueError) as exc:
        algebra_module.CrossedCAlgebra(**{**args, **edit_args(L)})
    assert str(exc.value) == error
    doc = to_doc("algebra", L)
    edit_doc(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(["check", "algebra", str(file)]) == 2
    assert capsys.readouterr().out == dumps({"error": doc_error})


def test_cli_unknown_name_error_is_not_requoted(capsys):
    assert main(["eval", "KC.CM-A3S3", "no-such-file.json"]) == 2
    out = capsys.readouterr().out
    assert "no-such-file.json" in json.loads(out)["error"] and '\\"' not in out


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """Consecutive calls in one process share the parser, so an option of
    one call (--field, --out) or an argparse exit must not leak into the
    next."""
    fields = []
    monkeypatch.setitem(cli.KINDS, "algebra", cli.KINDS["algebra"]._replace(
        check=lambda L: fields.append(L.field) or check_crossed_algebra(L)))
    assert main(["--field", "Fp:5", "check", "algebra", "KC.CM-A3S3"]) == 0
    assert main(["check", "algebra", "KC.CM-A3S3"]) == 0
    assert fields == [GF(5), QQ]
    capsys.readouterr()

    out = tmp_path / "kc.json"
    assert main(["build", "kC", "CM-A3S3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["build", "kC", "CM-A3S3"]) == 0
    assert capsys.readouterr().out == out.read_text()

    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-kind", "CM-A3S3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", "crossed-module", "CM-A3S3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_build_kc_roundtrips(tmp_path, capsys):
    out = tmp_path / "kc.json"
    assert main(["build", "kC", "CM-A3S3", "--out", str(out)]) == 0
    assert main(["check", "algebra", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_cli_build_pushforward(tmp_path, capsys):
    out = tmp_path / "push.json"
    assert main(["build", "pushforward", "q.CM-A3S3", "KP.CM-A3S3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dims"] == {"0": 1, "1": 1}
    assert main(["check", "algebra", str(out)]) == 0


def test_cli_build_pushforward_of_a_renamed_crossed_module(tmp_path, capsys):
    """K[P] whose inline crossed module has another name pushes forward
    exactly like the built file."""
    kp = tmp_path / "kp.json"
    assert main(["build", "kP", "CM-A3S3", "--out", str(kp)]) == 0
    doc = json.loads(kp.read_text())
    doc["crossed_module"]["name"] = "CM-A3S3-renamed"
    renamed = tmp_path / "kp-renamed.json"
    renamed.write_text(dumps(doc))
    outputs = []
    for path in (kp, renamed):
        assert main(["build", "pushforward", "q.CM-A3S3", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("construction, morphism, algebra, error", [
    ("pushforward", "collapse.CM-Id2", "KC.CM-A3S3",
     "the algebra is over crossed module CM-A3S3, the morphism's source is CM-Id2"),
    ("pullback", "q.CM-A3S3", "KQ.1Z2",
     "the algebra is over crossed module 1->Z2, the morphism's target is (1->CM-A3S3/d)"),
], ids=["pushforward", "pullback"])
def test_cli_build_over_another_crossed_module_exits_2(capsys, construction, morphism,
                                                        algebra, error):
    assert main(["build", construction, morphism, algebra]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": error}


def test_cli_build_over_another_crossed_module_of_the_same_name_exits_2(tmp_path, capsys,
                                                                        algebras):
    """K[P](CM-Mod) whose crossed module is renamed CM-A3S3 is over another
    crossed module than q.CM-A3S3's source, which the error calls a
    different crossed module of that name."""
    doc = to_doc("algebra", algebras["KP.CM-Mod"])
    doc["crossed_module"]["name"] = "CM-A3S3"
    kp = tmp_path / "kp.json"
    kp.write_text(dumps(doc))
    assert main(["build", "pushforward", "q.CM-A3S3", str(kp)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "the algebra is over crossed module CM-A3S3, the morphism's source is "
                 "a different crossed module of that name"}


def test_cli_build_unwritable_out_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "kc.json"
    assert main(["build", "kC", "CM-A3S3", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"cannot write {out}: "), error


def test_cli_build_whose_result_fails_its_check_exits_1(tmp_path, capsys):
    """The pullback along q.CM-A3S3 of K[G] with unit[0] = 2 is built, fails
    the algebra checker, and is printed as that report instead of a document."""
    q = std_morphisms()["q.CM-A3S3"]
    doc = to_doc("algebra", group_algebra_P(q.target, QQ))
    doc["unit"][0] = "2"
    path = tmp_path / "kg-bad.json"
    path.write_text(dumps(doc))
    out = tmp_path / "never.json"
    assert main(["build", "pullback", "q.CM-A3S3", str(path), "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    first = next(check for check in report["checks"] if not check["ok"])
    assert (report["ok"], first["axiom"], first["instance"]) == (False, "unit", "1*e_[e]@e")
    assert not out.exists()


def test_algebra_document_without_basis_names(tmp_path, capsys, ws, algebras):
    """basis_names is optional: without it KC.CM-A3S3 still checks ok and each
    basis element is named <grade>#<k>."""
    L = algebras["KC.CM-A3S3"]
    doc = to_doc("algebra", L)
    del doc["basis_names"]
    path = tmp_path / "kc.json"
    path.write_text(dumps(doc))
    assert main(["check", "algebra", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    decoded = from_doc(doc, ws, "algebra")[2]
    assert decoded.basis_names == tuple(
        tuple(f"{L.P.names[g]}#{k}" for k in range(L.dims[g])) for g in L.P.elements())
    assert decoded.basis_names[0] == ("e#0",) and decoded.basis_names[1] == ()


def test_cli_build_pushforward_ill_defined_fails(capsys):
    assert main(["build", "pushforward", "q.CM-Mod", "KC.CM-Mod"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_cli_build_kp_iso(tmp_path, capsys):
    out = tmp_path / "iso.json"
    assert main(["build", "kp_iso", "CM-A3S3", "--out", str(out)]) == 0
    assert main(["check", "algebra-morphism", str(out)]) == 0


def test_cli_eval_disc(tmp_path, capsys, cms):
    cm = cms["CM-Id2"]
    e = expression(cm, [], [[Disc(1)]], [cm.d(1)])
    path = tmp_path / "disc.json"
    path.write_text(dumps(to_doc("expression", e)))
    assert main(["eval", "KP.CM-Id2", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["1"]]
    assert doc["source_dims"] == [] and doc["target_dims"] == [1]


def test_cli_eval_identity_expression(tmp_path, capsys, cms):
    cm = cms["CM-Mod"]
    e = expression(cm, [0], [], [0])
    path = tmp_path / "ident.json"
    path.write_text(dumps(to_doc("expression", e)))
    assert main(["eval", "KC.CM-Mod", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_cli_eval_closed_cup_cap(tmp_path, capsys, cms):
    cm = cms["CM-Id2"]
    e = expression(cm, [], [[Cup(1)], [Cap(1)]], [])
    path = tmp_path / "closed.json"
    path.write_text(dumps(to_doc("expression", e)))
    assert main(["eval", "KP.CM-Id2", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["1"]]


def test_cli_eval_typecheck_failure(tmp_path, capsys, cms):
    cm = cms["CM-A3S3"]
    e = expression(cm, [], [[Disc(1)], [Cap(cm.d(1))]], [])
    path = tmp_path / "bad.json"
    path.write_text(dumps(to_doc("expression", e)))
    assert main(["eval", "KP.CM-A3S3", str(path)]) == 1


def test_cli_eval_over_another_crossed_module_exits_2(tmp_path, capsys, cms):
    """The pants expression over CM-A3S3, and Id(1) over CM-A3S3 (its label
    is in range for CM-Mod's base too), against KC.CM-Mod: exit 2 with an
    error naming both crossed modules."""
    cm = cms["CM-A3S3"]
    for e in (expression(cm, [4, 4], [[Pants(0, 4, 4)]], [5]),
              expression(cm, [1], [[Id(1)]], [1])):
        path = tmp_path / "expr.json"
        path.write_text(dumps(to_doc("expression", e)))
        assert main(["eval", "KC.CM-Mod", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "the expression is over crossed module CM-A3S3, the algebra over CM-Mod"}


def test_cli_eval_compares_crossed_modules_before_checking_the_algebra(
        tmp_path, capsys, cms, algebras):
    """K[C](CM-A3S3) with its unit corrupted fails the checker (exit 1 with
    an expression over CM-A3S3), but with an expression over CM-Mod the
    mismatch is malformed input: exit 2, naming both crossed modules."""
    doc = to_doc("algebra", algebras["KC.CM-A3S3"])
    doc["unit"][0] = "2"
    alg = tmp_path / "kc-bad.json"
    alg.write_text(dumps(doc))
    own = tmp_path / "own.json"
    own.write_text(dumps(to_doc("expression", expression(cms["CM-A3S3"], [0], [], [0]))))
    assert main(["eval", str(alg), str(own)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    other = tmp_path / "other.json"
    other.write_text(dumps(to_doc("expression", expression(cms["CM-Mod"], [0], [], [0]))))
    assert main(["eval", str(alg), str(other)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "the expression is over crossed module CM-Mod, the algebra over CM-A3S3"}


def test_cli_eval_compares_crossed_modules_by_structure(tmp_path, capsys, cms, algebras):
    """An algebra file whose inline crossed module has another name evaluates
    like the named algebra."""
    doc = to_doc("algebra", algebras["KC.CM-Mod"])
    doc["crossed_module"]["name"] = "CM-Mod-renamed"
    alg = tmp_path / "alg.json"
    alg.write_text(dumps(doc))
    path = tmp_path / "expr.json"
    path.write_text(dumps(to_doc("expression", expression(cms["CM-Mod"], [0, 0],
                                                          [[Pants(1, 0, 0)]], [0]))))
    outputs = []
    for algebra in (str(alg), "KC.CM-Mod"):
        assert main(["eval", algebra, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["source_dims"] == [3, 3]


def test_cli_algebra_morphism_over_a_failing_morphism_exits_1(tmp_path, capsys, algebras):
    """Identity blocks on KP.CM-Id2 with f_top = [0, 0], f_base = [0, 1]: the
    algebra families alone would pass, but the square does not commute."""
    L = algebras["KP.CM-Id2"]
    m = CrossedAlgebraMorphism(identity_morphism(L.cm), L, L,
                               {p: Matrix.identity(QQ, L.dims[p]) for p in L.P.elements()})
    doc = to_doc("algebra_morphism", m)
    path = tmp_path / "amor.json"
    path.write_text(dumps(doc))
    assert main(["check", "algebra-morphism", str(path)]) == 0
    capsys.readouterr()
    doc["f_top"] = [0, 0]
    path.write_text(dumps(doc))
    assert main(["check", "algebra-morphism", str(path)]) == 1
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["ok"]]
    assert [(c["axiom"], c["instance"]) for c in failed] == [("square_commutes", "c=1")]
    # check morphism fails the same maps the same way
    doc = to_doc("morphism", m.over)
    doc["f_top"] = [0, 0]
    path.write_text(dumps(doc))
    assert main(["check", "morphism", str(path)]) == 1
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["ok"]]
    assert [(c["axiom"], c["instance"]) for c in failed] == [("square_commutes", "c=1")]


def test_cli_output_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["build", "kC", "CM-A3S3", "--out", str(out1)])
    main(["build", "kC", "CM-A3S3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_suite(capsys):
    assert main(["verify", "interchange"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_cli_verify_mutation_injection(capsys):
    assert main(["verify", "--mutate", "trace"]) == 1  # detected: suite fails
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mutate", "nosuch"])
    assert exc.value.code == 2


def test_cli_fixtures_dir(tmp_path, capsys, groups):
    path = tmp_path / "mygroup.json"
    path.write_text(dumps({**to_doc("group", groups["Z4"]), "name": "MyZ4"}))
    assert main(["--fixtures-dir", str(tmp_path), "check", "group", "MyZ4"]) == 0


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_demo_stops_at_a_failing_algebra(tmp_path, capsys, algebras):
    """K[C](CM-A3S3) with its unit scaled by 2, loaded with --fixtures-dir
    under its fixture name: demo reports the failing checker and exits 1,
    evaluating nothing."""
    doc = to_doc("algebra", algebras["KC.CM-A3S3"])
    doc["unit"][0] = "2"
    (tmp_path / "kc.json").write_text(dumps(doc))
    assert main(["--fixtures-dir", str(tmp_path), "demo"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("algebra checker: fail\n")
    assert "matrix" not in out


def test_cli_verify_empty_suite():
    assert main(["verify", "none"]) == 0


def test_cli_check_expression_typecheck_failure(tmp_path, cms):
    cm = cms["CM-A3S3"]
    e = expression(cm, [], [[Disc(1)], [Cap(cm.d(1))]], [])
    path = tmp_path / "expr.json"
    path.write_text(dumps(to_doc("expression", e)))
    assert main(["check", "expression", str(path)]) == 1


def test_cli_build_kc_total_dim(tmp_path):
    out = tmp_path / "kc.json"
    assert main(["build", "kC", "CM-A3S3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sum(doc["dims"].values()) == 3


def test_cli_nested_crossed_module_failing_its_axioms_exits_2(tmp_path, capsys, cms, algebras):
    """K[P](CM-Mod) whose inline crossed module has the action row of the
    generator [0, 1, 1], not an automorphism: `check algebra` and `eval`
    exit 2 naming the failing family, while `check crossed-module` on the
    same crossed module alone exits 1 with its report."""
    doc = to_doc("algebra", algebras["KP.CM-Mod"])
    doc["crossed_module"]["action"] = [[0, 1, 2], [0, 1, 1]]
    alg = tmp_path / "kp-bad.json"
    alg.write_text(dumps(doc))
    expr = dict(to_doc("expression", expression(cms["CM-Mod"], [], [[Disc(0)]], [0])),
                crossed_module=doc["crossed_module"])
    disc = tmp_path / "disc.json"
    disc.write_text(dumps(expr))
    error = ("crossed module CM-Mod: action_compatible fails at (1,1,2): "
             "^(pq)c != ^p(^q c)")
    for argv in (["check", "algebra", str(alg)], ["eval", "KP.CM-Mod", str(disc)],
                 ["eval", str(alg), str(disc)]):
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out) == {"error": error}
    cm = tmp_path / "cm-bad.json"
    cm.write_text(dumps(doc["crossed_module"]))
    assert main(["check", "crossed-module", str(cm)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["axiom"] for c in report["checks"] if not c["ok"]][0] == "action_compatible"


def test_cli_fixtures_dir_crossed_module_failing_its_axioms_exits_2(tmp_path, capsys,
                                                                   algebras):
    """The same corrupted CM-Mod, named CM-Bad, loaded with --fixtures-dir
    and named by K[P](CM-Mod)'s document: it is checked as it loads, so
    `check algebra` exits 2 naming the failing family."""
    fx = tmp_path / "fx"
    fx.mkdir()
    doc = to_doc("algebra", algebras["KP.CM-Mod"])
    cm = dict(doc["crossed_module"], name="CM-Bad", action=[[0, 1, 2], [0, 1, 1]])
    (fx / "cm-bad.json").write_text(dumps(cm))
    alg = tmp_path / "alg.json"
    alg.write_text(dumps(dict(doc, crossed_module="CM-Bad")))
    assert main(["--fixtures-dir", str(fx), "check", "algebra", str(alg)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "crossed module CM-Bad: action_compatible fails at (1,1,2): ^(pq)c != ^p(^q c)"}
