"""Self-describing JSON documents for every object kind, each kind's checker,
and the workspace that resolves named references (built-in fixtures and
loaded files).

Outputs always inline nested objects; inputs may reference other objects by
name. Scalars are serialized as strings ("3/4", "2 mod 5"); indices are
0-based with index 0 the identity.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import fixtures
from .algebras import (
    CrossedAlgebraMorphism,
    CrossedCAlgebra,
    check_algebra_morphism,
    check_crossed_algebra,
    well_formed,
)
from .crossed_modules import (
    CrossedModule,
    CrossedModuleMorphism,
    check_crossed_module,
    check_morphism,
)
from .fields import field_from_json
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHomomorphism,
    check_action,
    check_group_table,
    check_homomorphism,
    make_group,
)
from .formal_maps import (
    Cap,
    CobordismExpression,
    Copants,
    Cup,
    Cyl,
    Disc,
    FormalBoundary,
    Id,
    OrderedComplex,
    Pants,
    SimplicialFormalMap,
    Swap,
    index_fault,
    typecheck,
    validate_simplicial,
)
from .linalg import Matrix


class SerializationError(ValueError):
    pass


class UnknownObject(KeyError):
    pass


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# to_doc
# --------------------------------------------------------------------------

def group_to_doc(g: FiniteGroup, name=None):
    return {"kind": "group", "name": name or "group",
            "names": list(g.names), "table": [list(r) for r in g.table]}


def hom_to_doc(h: GroupHomomorphism, name=None):
    return {"kind": "homomorphism", "name": name or "hom",
            "source": group_to_doc(h.source), "target": group_to_doc(h.target),
            "map": list(h.map)}


def action_to_doc(a: GroupAction, name=None):
    return {"kind": "action", "name": name or "action",
            "actor": group_to_doc(a.actor), "space": group_to_doc(a.space),
            "table": [list(r) for r in a.table]}


def cm_to_doc(cm: CrossedModule, name=None):
    return {"kind": "crossed_module", "name": name or cm.name,
            "top": group_to_doc(cm.top), "base": group_to_doc(cm.base),
            "boundary": list(cm.boundary.map),
            "action": [list(r) for r in cm.act.table]}


def morphism_to_doc(m: CrossedModuleMorphism, name=None):
    return {"kind": "morphism", "name": name or "morphism",
            "source": cm_to_doc(m.source), "target": cm_to_doc(m.target),
            "f_top": list(m.f_top.map), "f_base": list(m.f_base.map)}


def algebra_to_doc(L: CrossedCAlgebra, name=None):
    f = L.field
    return {
        "kind": "algebra",
        "name": name or L.name,
        "crossed_module": cm_to_doc(L.cm),
        "field": f.to_json(),
        "dims": {str(g): L.dims[g] for g in L.P.elements()},
        "basis_names": {str(g): list(L.basis_names[g]) for g in L.P.elements()},
        "mul": {f"{g},{h}": [[[f.format(s) for s in cell] for cell in row]
                             for row in L.mul[(g, h)]]
                for g in L.P.elements() for h in L.P.elements()},
        "unit": [f.format(x) for x in L.unit],
        "rho": {str(g): L.rho[g].to_json() for g in L.P.elements()},
        "phi": {f"{h},{g}": L.phi[(h, g)].to_json()
                for h in L.P.elements() for g in L.P.elements()},
        "tilde": {str(c): [f.format(x) for x in L.tilde[c]] for c in L.C.elements()},
    }


def algebra_morphism_to_doc(m: CrossedAlgebraMorphism, name=None):
    return {
        "kind": "algebra_morphism",
        "name": name or "algebra_morphism",
        "source": algebra_to_doc(m.source),
        "target": algebra_to_doc(m.target),
        "f_top": list(m.over.f_top.map),
        "f_base": list(m.over.f_base.map),
        "blocks": {str(p): m.blocks[p].to_json() for p in m.source.P.elements()},
    }


# a piece's document is its kind and its dataclass fields; field c indexes
# the top group, every other field the base group
_PIECE_CLASSES = {"disc": Disc, "cyl": Cyl, "pants": Pants, "copants": Copants,
                  "cup": Cup, "cap": Cap, "id": Id, "swap": Swap}
_PIECE_KINDS = {cls: kind for kind, cls in _PIECE_CLASSES.items()}


def expression_to_doc(e: CobordismExpression, name=None):
    return {
        "kind": "expression",
        "name": name or "expression",
        "crossed_module": cm_to_doc(e.cm),
        "source": [list(c.labels) for c in e.source.circuits],
        "layers": [[{"piece": _PIECE_KINDS[type(p)], **dataclasses.asdict(p)} for p in layer]
                   for layer in e.layers],
        "target": [list(c.labels) for c in e.target.circuits],
    }


def simplicial_to_doc(m: SimplicialFormalMap, name=None):
    K = m.complex
    return {
        "kind": "simplicial",
        "name": name or "simplicial",
        "crossed_module": cm_to_doc(m.cm),
        "vertices": K.n_vertices,
        "order": list(K.rank),
        "simplices": {"1": [list(e) for e in K.edges],
                      "2": [list(t) for t in K.triangles],
                      "3": [list(s) for s in K.tetrahedra]},
        "edge_labels": list(m.edge_labels),
        "tri_labels": list(m.tri_labels),
        "start_vertices": list(m.start_vertices),
    }


TO_DOC = {
    "group": group_to_doc,
    "homomorphism": hom_to_doc,
    "action": action_to_doc,
    "crossed_module": cm_to_doc,
    "morphism": morphism_to_doc,
    "algebra": algebra_to_doc,
    "algebra_morphism": algebra_morphism_to_doc,
    "expression": expression_to_doc,
    "simplicial": simplicial_to_doc,
}


def to_doc(kind: str, obj, name=None):
    if kind not in TO_DOC:
        raise SerializationError(f"unknown kind {kind!r}")
    return TO_DOC[kind](obj, name)


# --------------------------------------------------------------------------
# workspace and from_doc
# --------------------------------------------------------------------------

class _Objects(dict):
    """name -> (kind, object). The fixture algebras over `field` are built
    the first time a name is not found, not up front: each fixture algebra
    then enters under its name unless an object was added under it first."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, name):
        for alg_name, alg in fixtures.std_algebras(self.field).items():
            self.setdefault(alg_name, ("algebra", alg))
        if name not in self:
            raise KeyError(name)
        return self.get(name)


class Workspace:
    """Named objects: built-in fixtures plus documents loaded from files."""

    def __init__(self, field=None):
        from .fields import QQ
        self.field = field or QQ
        self.objects: dict[str, tuple[str, object]] = _Objects(self.field)
        for name, g in fixtures.std_groups().items():
            self.objects[name] = ("group", g)
        for name, cm in fixtures.std_crossed_modules().items():
            self.objects[name] = ("crossed_module", cm)
        for name, mor in fixtures.std_morphisms().items():
            self.objects[name] = ("morphism", mor)

    def add(self, name: str, kind: str, obj):
        self.objects[name] = (kind, obj)

    def get(self, name: str, kind: str | None = None):
        try:
            got_kind, obj = self.objects[name]
        except KeyError:
            raise UnknownObject(f"no object named {name!r}") from None
        if kind is not None and got_kind != kind:
            raise UnknownObject(f"{name!r} is a {got_kind}, not a {kind}")
        return obj

    def load_dir(self, path):
        """Add every JSON document of the directory under its name; each
        crossed module among them is checked as it loads (`_checked`)."""
        for file in sorted(Path(path).glob("*.json")):
            kind, name, obj = load_file(file, self)
            self.add(name, kind, _checked(kind, obj))

    def resolve(self, ref, kind: str):
        """A reference is either a name or an inline document. An inline
        crossed module is checked here, once (`_checked`)."""
        if isinstance(ref, str):
            return self.get(ref, kind)
        if isinstance(ref, dict):
            return _checked(kind, from_doc(ref, self, kind)[2])
        raise SerializationError(f"bad reference {ref!r}")


def _checked(kind: str, obj):
    """obj, checked first when it is a crossed module that a document may
    name or inline: every document over one assumes its axioms, so one that
    fails raises SerializationError naming the first failing family."""
    if kind == "crossed_module":
        check_crossed_module(obj).require(SerializationError)
    return obj


def _indices(value, n, length, field) -> tuple[int, ...]:
    """A JSON list of `length` indices below n (any length when `length` is
    None), as a tuple. Every index list of every document goes through here."""
    if not isinstance(value, list) or length is not None and len(value) != length \
       or any(index_fault(x, n) for x in value):
        count = "" if length is None else f"{length} "
        raise SerializationError(f"{field} must be a list of {count}indices below {n}")
    return tuple(value)


def _count(x, field) -> int:
    if type(x) is not int or x < 0:
        raise SerializationError(f"{field} must be a non-negative integer, not {x!r}")
    return x


def _object(doc, key):
    """The field `key` of an algebra document, which must be a JSON object."""
    value = doc[key]
    if not isinstance(value, dict):
        raise SerializationError(f"bad algebra document: {key} must be an object")
    return value


def _names(x, g) -> tuple[str, ...]:
    """Grade g's entry of an algebra document's basis_names: a list of strings.
    Their count and distinctness are checked by `well_formed`."""
    if not isinstance(x, list) or not all(isinstance(name, str) for name in x):
        raise SerializationError(
            f"bad algebra document: basis_names {g} must be a list of strings")
    return tuple(x)


def _hom(source: FiniteGroup, target: FiniteGroup, value, field) -> GroupHomomorphism:
    return GroupHomomorphism(source, target, _indices(value, target.order, source.order, field))


def _action(actor: FiniteGroup, space: FiniteGroup, table, field) -> GroupAction:
    if not isinstance(table, list) or len(table) != actor.order:
        raise SerializationError(f"{field} must be a list of {actor.order} rows")
    return GroupAction(actor, space, tuple(_indices(row, space.order, space.order, f"{field} row")
                                           for row in table))


def group_table_from_doc(doc):
    """The names and table of a group document. Table entries must be
    integers; whether the table is a group is the table checker's question."""
    if not isinstance(doc, dict) or "names" not in doc or "table" not in doc:
        raise SerializationError("group document needs names and table")
    names, table = doc["names"], doc["table"]
    if not isinstance(names, list) or not isinstance(table, list) or \
       not all(isinstance(row, list) and all(type(x) is int for x in row) for row in table):
        raise SerializationError("group document needs a list of names and a table of integers")
    return names, table


def group_from_doc(doc, ws=None) -> FiniteGroup:
    return make_group(*group_table_from_doc(doc))


def hom_from_doc(doc, ws) -> GroupHomomorphism:
    return _hom(ws.resolve(doc["source"], "group"), ws.resolve(doc["target"], "group"),
                doc["map"], "map")


def action_from_doc(doc, ws) -> GroupAction:
    return _action(ws.resolve(doc["actor"], "group"), ws.resolve(doc["space"], "group"),
                   doc["table"], "table")


def cm_from_doc(doc, ws) -> CrossedModule:
    top = ws.resolve(doc["top"], "group")
    base = ws.resolve(doc["base"], "group")
    return CrossedModule(doc.get("name", "crossed_module"), top, base,
                         _hom(top, base, doc["boundary"], "boundary"),
                         _action(base, top, doc["action"], "action"))


def morphism_from_doc(doc, ws) -> CrossedModuleMorphism:
    src = ws.resolve(doc["source"], "crossed_module")
    tgt = ws.resolve(doc["target"], "crossed_module")
    return CrossedModuleMorphism(src, tgt, _hom(src.top, tgt.top, doc["f_top"], "f_top"),
                                 _hom(src.base, tgt.base, doc["f_base"], "f_base"))


def algebra_from_doc(doc, ws) -> CrossedCAlgebra:
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    field = field_from_json(doc["field"])
    P, C = cm.base, cm.top
    dims_doc, rho_doc, phi_doc, mul_doc, tilde_doc = (
        _object(doc, key) for key in ("dims", "rho", "phi", "mul", "tilde"))
    dims = tuple(_count(dims_doc[str(g)], "dims") for g in P.elements())
    # rho and phi compare every grade's dimension with the document's own
    # data, so a huge dimension fails here, before anything of that size is built
    rho = {g: Matrix.from_json(field, rho_doc[str(g)], rows=dims[g], cols=dims[P.inv[g]],
                               name=f"rho {g}")
           for g in P.elements()}
    phi = {(h, g): Matrix.from_json(field, phi_doc[f"{h},{g}"],
                                    rows=dims[P.conj(h, g)], cols=dims[g], name=f"phi {h},{g}")
           for h in P.elements() for g in P.elements()}
    if doc.get("basis_names") is None:
        basis_names = tuple(tuple(f"{P.names[g]}#{k}" for k in range(dims[g]))
                            for g in P.elements())
    else:
        names_doc = _object(doc, "basis_names")
        basis_names = tuple(_names(names_doc[str(g)], g) for g in P.elements())
    mul = {(g, h): [[[field.parse(s) for s in cell] for cell in row]
                    for row in mul_doc[f"{g},{h}"]]
           for g in P.elements() for h in P.elements()}
    unit = tuple(field.parse(x) for x in doc["unit"])
    tilde = [tuple(field.parse(x) for x in tilde_doc[str(c)]) for c in C.elements()]
    L = CrossedCAlgebra(doc.get("name", "algebra"), cm, field, dims, basis_names,
                        mul, unit, rho, phi, tilde)
    shape = well_formed(L)
    if shape:
        raise SerializationError(f"bad algebra document: {shape[0][0]}: {shape[0][1]}")
    # a string or object in place of a list was iterated above like one; it
    # is refused only now, so that a bad scalar or shape in it keeps its message
    vectors = {"unit": doc["unit"], **{f"tilde {c}": tilde_doc[str(c)] for c in C.elements()}}
    for what, vec in vectors.items():
        if not isinstance(vec, list):
            raise SerializationError(f"bad algebra document: {what} must be a list of scalars")
    for g, h in mul:
        block = mul_doc[f"{g},{h}"]
        if not isinstance(block, list) or not all(
                [isinstance(row, list) and all([isinstance(cell, list) for cell in row])
                 for row in block]):
            raise SerializationError(
                f"bad algebra document: mul {g},{h} must be a list of lists of lists of scalars")
    return L


def algebra_morphism_from_doc(doc, ws) -> CrossedAlgebraMorphism:
    src = ws.resolve(doc["source"], "algebra")
    tgt = ws.resolve(doc["target"], "algebra")
    f_top = _hom(src.cm.top, tgt.cm.top, doc["f_top"], "f_top")
    f_base = _hom(src.cm.base, tgt.cm.base, doc["f_base"], "f_base")
    blocks = {p: Matrix.from_json(src.field, doc["blocks"][str(p)],
                                  rows=tgt.dims[f_base.map[p]], cols=src.dims[p],
                                  name=f"blocks {p}")
              for p in src.P.elements()}
    return CrossedAlgebraMorphism(CrossedModuleMorphism(src.cm, tgt.cm, f_top, f_base),
                                  src, tgt, blocks)


def _piece_from_doc(doc, cm: CrossedModule):
    if not isinstance(doc, dict) or doc.get("piece") not in _PIECE_CLASSES:
        raise SerializationError(f"unknown piece kind {doc!r}")
    cls = _PIECE_CLASSES[doc["piece"]]
    args = []
    for field in dataclasses.fields(cls):
        n = cm.top.order if field.name == "c" else cm.base.order
        if index_fault(doc.get(field.name), n):
            raise SerializationError(f"bad piece {doc!r}: {field.name} must be an index below {n}")
        args.append(doc[field.name])
    return cls(*args)


def _boundary_from_doc(circuits, cm: CrossedModule, side) -> FormalBoundary:
    return FormalBoundary.of(*(_indices(c, cm.base.order, None, f"{side} circuit")
                               for c in circuits))


def expression_from_doc(doc, ws) -> CobordismExpression:
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    source = _boundary_from_doc(doc["source"], cm, "source")
    target = _boundary_from_doc(doc["target"], cm, "target")
    layers = tuple(tuple(_piece_from_doc(p, cm) for p in layer) for layer in doc["layers"])
    return CobordismExpression(cm, source, layers, target)


def simplicial_from_doc(doc, ws) -> SimplicialFormalMap:
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    n = _count(doc["vertices"], "vertices")
    simp = doc["simplices"]
    if not isinstance(simp, dict):
        raise SerializationError("simplices must be an object keyed by dimension")
    edges, triangles, tetrahedra = (
        tuple(_indices(s, n, k + 1, f"{k}-simplex") for s in simp.get(str(k), []))
        for k in (1, 2, 3))
    complex_ = OrderedComplex(n, _indices(doc["order"], n, n, "order"),
                              edges, triangles, tetrahedra)
    return SimplicialFormalMap(
        cm, complex_, _indices(doc["edge_labels"], cm.base.order, len(edges), "edge_labels"),
        _indices(doc["tri_labels"], cm.top.order, len(triangles), "tri_labels"),
        _indices(doc["start_vertices"], n, len(triangles), "start_vertices"))


FROM_DOC = {
    "group": group_from_doc,
    "homomorphism": hom_from_doc,
    "action": action_from_doc,
    "crossed_module": cm_from_doc,
    "morphism": morphism_from_doc,
    "algebra": algebra_from_doc,
    "algebra_morphism": algebra_morphism_from_doc,
    "expression": expression_from_doc,
    "simplicial": simplicial_from_doc,
}


# each document kind's checker, which returns a CheckReport
CHECKABLE = {
    "group": lambda obj: check_group_table(obj.names, obj.table),
    "homomorphism": check_homomorphism,
    "action": check_action,
    "crossed_module": check_crossed_module,
    "morphism": check_morphism,
    "algebra": check_crossed_algebra,
    "algebra_morphism": check_algebra_morphism,
    "expression": typecheck,
    "simplicial": validate_simplicial,
}


def from_doc(doc, ws: Workspace, kind: str | None = None):
    """Decode one document into (kind, name, object). Every fault of the
    document raises SerializationError, or UnknownObject for a name that does
    not resolve; so does a document that is not of `kind`, when it is given.
    An IndexError is not caught: every index is checked before use, so one
    is a bug."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SerializationError("document must be an object with a 'kind' field")
    got_kind, name = doc["kind"], doc.get("name", doc["kind"])
    if not isinstance(got_kind, str) or got_kind not in FROM_DOC:
        raise SerializationError(f"unknown kind {got_kind!r}")
    if not isinstance(name, str):
        raise SerializationError(f"name must be a string, not {name!r}")
    if kind is not None and got_kind != kind:
        raise SerializationError(f"{name!r} is a {got_kind}, not a {kind}")
    try:
        return got_kind, name, FROM_DOC[got_kind](doc, ws)
    except (SerializationError, UnknownObject):
        raise
    except KeyError as exc:
        raise SerializationError(
            f"bad {got_kind} document: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        # scalar parse errors, matrix shapes, and the validation of the
        # complex and of the simplicial map
        raise SerializationError(f"bad {got_kind} document: {exc}") from exc


def check_doc(doc, ws: Workspace, kind: str, checker=None):
    """The report of `checker`, by default the kind's checker in CHECKABLE, on
    a document of `kind`: the one decode-and-check path of `crossmod check`
    on a file and of the mutation corpus. Groups validate at construction,
    so a group document is checked as its bare table: a table that is not a
    group is a failing report with a counterexample, not a decode error."""
    if kind == "group":
        return check_group_table(*group_table_from_doc(doc))
    return (checker or CHECKABLE[kind])(from_doc(doc, ws, kind)[2])


def read_doc(path):
    """The JSON document in a file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:    # ValueError: JSON or UTF-8 decoding
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def load_file(path, ws: Workspace, kind: str | None = None):
    return from_doc(read_doc(path), ws, kind)
