"""Self-describing JSON documents for every object kind, plus the workspace
that resolves named references (built-in fixtures and loaded files).

Outputs always inline nested objects; inputs may reference other objects by
name. Scalars are serialized as strings ("3/4", "2 mod 5"); indices are
0-based with index 0 the identity.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import fixtures
from .algebras import CrossedAlgebraMorphism, CrossedCAlgebra
from .crossed_modules import CrossedModule, CrossedModuleMorphism
from .fields import field_from_json
from .groups import FiniteGroup, GroupAction, GroupHomomorphism, make_group
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

class Workspace:
    """Named objects: built-in fixtures plus documents loaded from files."""

    def __init__(self, field=None):
        from .fields import QQ
        self.field = field or QQ
        self.objects: dict[str, tuple[str, object]] = {}
        for name, g in fixtures.std_groups().items():
            self.objects[name] = ("group", g)
        for name, cm in fixtures.std_crossed_modules().items():
            self.objects[name] = ("crossed_module", cm)
        for name, mor in fixtures.std_morphisms().items():
            self.objects[name] = ("morphism", mor)
        for name, alg in fixtures.std_algebras(self.field).items():
            self.objects[name] = ("algebra", alg)

    def add(self, name: str, kind: str, obj):
        self.objects[name] = (kind, obj)

    def get(self, name: str, kind: str | None = None):
        if name not in self.objects:
            raise UnknownObject(f"no object named {name!r}")
        got_kind, obj = self.objects[name]
        if kind is not None and got_kind != kind:
            raise UnknownObject(f"{name!r} is a {got_kind}, not a {kind}")
        return obj

    def load_dir(self, path):
        for file in sorted(Path(path).glob("*.json")):
            try:
                doc = json.loads(file.read_text())
                kind, name, obj = from_doc(doc, self)
            except (SerializationError, json.JSONDecodeError, KeyError, ValueError):
                continue
            self.add(name, kind, obj)

    def resolve(self, ref, kind: str):
        """A reference is either a name or an inline document."""
        if isinstance(ref, str):
            return self.get(ref, kind)
        if isinstance(ref, dict):
            got_kind, _, obj = from_doc(ref, self)
            if got_kind != kind:
                raise SerializationError(f"expected {kind}, got {got_kind}")
            return obj
        raise SerializationError(f"bad reference {ref!r}")


def _require(doc, *keys):
    for key in keys:
        if key not in doc:
            raise SerializationError(f"missing field {key!r}")


def _is_index(x, n) -> bool:
    """A JSON integer (not a boolean) in range(n)."""
    return type(x) is int and 0 <= x < n


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
    names, table = group_table_from_doc(doc)
    from .groups import GroupConstructionError
    try:
        return make_group(names, table)
    except GroupConstructionError as exc:
        raise SerializationError(f"invalid group: {exc}") from exc


def hom_from_doc(doc, ws) -> GroupHomomorphism:
    _require(doc, "source", "target", "map")
    src = ws.resolve(doc["source"], "group")
    tgt = ws.resolve(doc["target"], "group")
    m = tuple(int(x) for x in doc["map"])
    if len(m) != src.order or any(not (0 <= x < tgt.order) for x in m):
        raise SerializationError("homomorphism map out of range")
    return GroupHomomorphism(src, tgt, m)


def action_from_doc(doc, ws) -> GroupAction:
    _require(doc, "actor", "space", "table")
    actor = ws.resolve(doc["actor"], "group")
    space = ws.resolve(doc["space"], "group")
    table = tuple(tuple(int(x) for x in row) for row in doc["table"])
    if len(table) != actor.order or any(len(r) != space.order for r in table) or \
       any(not (0 <= x < space.order) for r in table for x in r):
        raise SerializationError("action table out of range")
    return GroupAction(actor, space, table)


def cm_from_doc(doc, ws) -> CrossedModule:
    _require(doc, "top", "base", "boundary", "action")
    top = ws.resolve(doc["top"], "group")
    base = ws.resolve(doc["base"], "group")
    boundary = hom_from_doc({"source": doc["top"], "target": doc["base"],
                             "map": doc["boundary"]}, ws)
    boundary = GroupHomomorphism(top, base, boundary.map)
    act = action_from_doc({"actor": doc["base"], "space": doc["top"],
                           "table": doc["action"]}, ws)
    act = GroupAction(base, top, act.table)
    return CrossedModule(doc.get("name", "crossed_module"), top, base, boundary, act)


def morphism_from_doc(doc, ws) -> CrossedModuleMorphism:
    _require(doc, "source", "target", "f_top", "f_base")
    src = ws.resolve(doc["source"], "crossed_module")
    tgt = ws.resolve(doc["target"], "crossed_module")
    f_top = GroupHomomorphism(src.top, tgt.top, tuple(int(x) for x in doc["f_top"]))
    f_base = GroupHomomorphism(src.base, tgt.base, tuple(int(x) for x in doc["f_base"]))
    if len(f_top.map) != src.top.order or len(f_base.map) != src.base.order:
        raise SerializationError("morphism maps have wrong length")
    return CrossedModuleMorphism(src, tgt, f_top, f_base)


def algebra_from_doc(doc, ws) -> CrossedCAlgebra:
    _require(doc, "crossed_module", "field", "dims", "mul", "unit", "rho", "phi", "tilde")
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    field = field_from_json(doc["field"])
    P, C = cm.base, cm.top
    try:
        dims = tuple(int(doc["dims"][str(g)]) for g in P.elements())
        names_doc = doc.get("basis_names")
        if names_doc is None:
            basis_names = tuple(tuple(f"{P.names[g]}#{k}" for k in range(dims[g]))
                                for g in P.elements())
        else:
            basis_names = tuple(tuple(names_doc[str(g)]) for g in P.elements())
        mul = {}
        for g in P.elements():
            for h in P.elements():
                raw = doc["mul"][f"{g},{h}"]
                mul[(g, h)] = [[[field.parse(s) for s in cell] for cell in row]
                               for row in raw]
        unit = tuple(field.parse(x) for x in doc["unit"])
        rho = {g: Matrix.from_json(field, doc["rho"][str(g)],
                                   rows=dims[g], cols=dims[P.inv[g]])
               for g in P.elements()}
        phi = {(h, g): Matrix.from_json(field, doc["phi"][f"{h},{g}"],
                                        rows=dims[P.conj(h, g)], cols=dims[g])
               for h in P.elements() for g in P.elements()}
        tilde = [tuple(field.parse(x) for x in doc["tilde"][str(c)])
                 for c in C.elements()]
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad algebra document: {exc}") from exc
    return CrossedCAlgebra(doc.get("name", "algebra"), cm, field, dims, basis_names,
                           mul, unit, rho, phi, tilde)


def algebra_morphism_from_doc(doc, ws) -> CrossedAlgebraMorphism:
    _require(doc, "source", "target", "f_top", "f_base", "blocks")
    src = ws.resolve(doc["source"], "algebra")
    tgt = ws.resolve(doc["target"], "algebra")
    f_top = GroupHomomorphism(src.cm.top, tgt.cm.top,
                              tuple(int(x) for x in doc["f_top"]))
    f_base = GroupHomomorphism(src.cm.base, tgt.cm.base,
                               tuple(int(x) for x in doc["f_base"]))
    over = CrossedModuleMorphism(src.cm, tgt.cm, f_top, f_base)
    try:
        blocks = {p: Matrix.from_json(src.field, doc["blocks"][str(p)],
                                      rows=tgt.dims[f_base.map[p]], cols=src.dims[p])
                  for p in src.P.elements()}
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad morphism blocks: {exc}") from exc
    return CrossedAlgebraMorphism(over, src, tgt, blocks)


def _piece_from_doc(doc, cm: CrossedModule):
    if not isinstance(doc, dict) or doc.get("piece") not in _PIECE_CLASSES:
        raise SerializationError(f"unknown piece kind {doc!r}")
    cls = _PIECE_CLASSES[doc["piece"]]
    args = []
    for field in dataclasses.fields(cls):
        n = cm.top.order if field.name == "c" else cm.base.order
        if not _is_index(doc.get(field.name), n):
            raise SerializationError(f"bad piece {doc!r}: {field.name} must be an index below {n}")
        args.append(doc[field.name])
    return cls(*args)


def _boundary_from_doc(circuits, cm: CrossedModule) -> FormalBoundary:
    n = cm.base.order
    for circ in circuits:
        for g in circ:
            if not _is_index(g, n):
                raise SerializationError(f"circuit label {g!r} is not an index below {n}")
    return FormalBoundary.of(*circuits)


def expression_from_doc(doc, ws) -> CobordismExpression:
    _require(doc, "crossed_module", "source", "layers", "target")
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    try:
        source = _boundary_from_doc(doc["source"], cm)
        target = _boundary_from_doc(doc["target"], cm)
        layers = tuple(tuple(_piece_from_doc(p, cm) for p in layer)
                       for layer in doc["layers"])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad expression document: {exc}") from exc
    return CobordismExpression(cm, source, layers, target)


def simplicial_from_doc(doc, ws) -> SimplicialFormalMap:
    _require(doc, "crossed_module", "vertices", "order", "simplices",
             "edge_labels", "tri_labels", "start_vertices")
    cm = ws.resolve(doc["crossed_module"], "crossed_module")
    try:
        simp = doc["simplices"]
        complex_ = OrderedComplex(
            int(doc["vertices"]), tuple(int(r) for r in doc["order"]),
            tuple(tuple(int(v) for v in e) for e in simp.get("1", [])),
            tuple(tuple(int(v) for v in t) for t in simp.get("2", [])),
            tuple(tuple(int(v) for v in s) for s in simp.get("3", [])))
        return SimplicialFormalMap(
            cm, complex_, tuple(int(x) for x in doc["edge_labels"]),
            tuple(int(x) for x in doc["tri_labels"]),
            tuple(int(x) for x in doc["start_vertices"]))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad simplicial document: {exc}") from exc


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


def from_doc(doc, ws: Workspace):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SerializationError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in FROM_DOC:
        raise SerializationError(f"unknown kind {kind!r}")
    obj = FROM_DOC[kind](doc, ws)
    return kind, doc.get("name", kind), obj


def load_file(path, ws: Workspace):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    return from_doc(doc, ws)
