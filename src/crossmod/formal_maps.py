"""Labeled circuits, 2-cells and their composition calculus, elementary
cobordism pieces, typed layered expressions, and the simplicial layer with
boundary/cocycle validation and the triangle-combination moves.

Cells are kept in globular form: a cell (c, p) runs from the path labeled p
to the path labeled d(c)*p. Triangles with ordered vertices (v0, v1, v2) give
the cell (c, p2*p0) with target p1, which is exactly the stored boundary
condition d(c) = p1 p0^-1 p2^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .crossed_modules import CrossedModule
from .report import CheckReport


class TypecheckFailed(ValueError):
    pass


# --------------------------------------------------------------------------
# circuits and boundaries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalCircuit:
    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a circuit carries at least one label")


@dataclass(frozen=True)
class FormalBoundary:
    circuits: tuple[FormalCircuit, ...] = ()

    @classmethod
    def of(cls, *label_lists) -> "FormalBoundary":
        return cls(tuple(FormalCircuit(tuple(ls)) for ls in label_lists))


# --------------------------------------------------------------------------
# labeled 2-cells and the #0 / #1 calculus
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledCell:
    """A 2-cell from the path labeled p to the path labeled d(c)*p."""

    cm: CrossedModule
    c: int
    p: int

    @property
    def target(self) -> int:
        return self.cm.base.mul(self.cm.d(self.c), self.p)

    def __repr__(self):
        return f"({self.cm.top.names[self.c]},{self.cm.base.names[self.p]})"


def compose_v(a: LabeledCell, b: LabeledCell) -> LabeledCell:
    """(c,p) #1 (c', d(c)p) = (c'c, p); the cells share a 1-cell."""
    if a.cm != b.cm:
        raise ValueError("cells over different crossed modules")
    if b.p != a.target:
        raise ValueError(
            f"vertical composite undefined: target {a.cm.base.names[a.target]} "
            f"!= source {a.cm.base.names[b.p]}")
    return LabeledCell(a.cm, a.cm.top.mul(b.c, a.c), a.p)


def compose_h(a: LabeledCell, b: LabeledCell) -> LabeledCell:
    """(c,p) #0 (c',p') = (c * ^p c', pp'); the cells share a 0-cell."""
    if a.cm != b.cm:
        raise ValueError("cells over different crossed modules")
    cm = a.cm
    return LabeledCell(cm, cm.top.mul(a.c, cm.action(a.p, b.c)),
                       cm.base.mul(a.p, b.p))


def cell_identity(cm: CrossedModule, p: int) -> LabeledCell:
    return LabeledCell(cm, 0, p)


def cell_v_inverse(a: LabeledCell) -> LabeledCell:
    """The vertically inverse cell, from d(c)p back to p."""
    return LabeledCell(a.cm, a.cm.top.inv[a.c], a.target)


# --------------------------------------------------------------------------
# elementary pieces and expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Disc:
    c: int


@dataclass(frozen=True)
class Cyl:
    c: int
    g: int
    h: int


@dataclass(frozen=True)
class Pants:
    c: int
    g1: int
    g2: int


@dataclass(frozen=True)
class Copants:
    g1: int
    g2: int


@dataclass(frozen=True)
class Cup:
    g: int


@dataclass(frozen=True)
class Cap:
    g: int


@dataclass(frozen=True)
class Id:
    g: int


@dataclass(frozen=True)
class Swap:
    g1: int
    g2: int


ElementaryPiece = Disc | Cyl | Pants | Copants | Cup | Cap | Id | Swap

# piece kind -> the labels of its source circuits and of its target circuits
_IO = {
    Disc: lambda p, cm: ((), (cm.d(p.c),)),
    Cyl: lambda p, cm: ((p.g,), (cm.base.product((cm.d(p.c), cm.base.inv[p.h], p.g, p.h)),)),
    Pants: lambda p, cm: ((p.g1, p.g2), (cm.base.product((cm.d(p.c), p.g1, p.g2)),)),
    Copants: lambda p, cm: ((cm.base.mul(p.g1, p.g2),), (p.g1, p.g2)),
    Cup: lambda p, cm: ((), (p.g, cm.base.inv[p.g])),
    Cap: lambda p, cm: ((p.g, cm.base.inv[p.g]), ()),
    Id: lambda p, cm: ((p.g,), (p.g,)),
    Swap: lambda p, cm: ((p.g1, p.g2), (p.g2, p.g1)),
}

# piece kind -> the plain key (kind, *labels) of a piece, read in C and
# hashed and compared in C; `kind(*labels)` is the piece again
PIECE_KEY = {kind: attrgetter("__class__", *kind.__match_args__) for kind in _IO}


def piece_io(piece: ElementaryPiece, cm: CrossedModule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The labels of a piece's source circuits and of its target circuits."""
    io = _IO.get(type(piece))
    if io is None:
        raise TypeError(f"not a piece: {piece!r}")
    return io(piece, cm)


def index_fault(x, n: int) -> str | None:
    """Why x is not an element index below n (an `int`, not a `bool`, in
    range), or None when it is; a negative index would otherwise wrap to
    another element. The one index rule of formal maps and documents."""
    if type(x) is not int:
        return "is not an int"
    if not 0 <= x < n:
        return f"outside range({n})"
    return None


def piece_range_fault(piece, cm: CrossedModule) -> str | None:
    """Why `piece` is not a piece whose fields are element indices (`c` of
    the top group, every other field of the base group), or None when it is."""
    if type(piece) not in _IO:
        return f"{piece!r} is not a piece"
    # __match_args__ names a piece's fields without materializing its __dict__
    for name in type(piece).__match_args__:
        fault = index_fault(getattr(piece, name),
                            cm.top.order if name == "c" else cm.base.order)
        if fault:
            return f"{piece!r}: {name} {fault}"
    return None


@dataclass(frozen=True)
class CobordismExpression:
    """Layers of elementary pieces; each layer's concatenated sources must
    match the previous layer's concatenated targets, circuit by circuit."""

    cm: CrossedModule
    source: FormalBoundary
    layers: tuple[tuple[ElementaryPiece, ...], ...]
    target: FormalBoundary


def expression(cm, source_labels, layers, target_labels) -> CobordismExpression:
    return CobordismExpression(
        cm,
        FormalBoundary.of(*[[g] for g in source_labels]),
        tuple(tuple(layer) for layer in layers),
        FormalBoundary.of(*[[g] for g in target_labels]),
    )


def typecheck(e: CobordismExpression) -> CheckReport:
    """Every label is an element index (boundary labels and piece fields of
    the base group, a piece's `c` of the top group), boundaries are
    normalized, and each layer's sources are the previous layer's targets."""
    report = CheckReport("cobordism expression")
    P = e.cm.base
    n_base = P.order
    fails = []
    for circ in e.source.circuits + e.target.circuits:
        if len(circ.labels) != 1:
            fails.append((str(circ.labels), "boundary circuits must be normalized"))
        elif fault := index_fault(circ.labels[0], n_base):
            fails.append((str(circ.labels), f"label {fault}"))
    report.add("normalized_boundaries", fails)
    if fails:
        return report
    cm = e.cm
    cur = [c.labels[0] for c in e.source.circuits]
    for k, layer in enumerate(e.layers):
        wanted, out = [], []
        for piece in layer:
            if fault := piece_range_fault(piece, cm):
                report.add("layer_interfaces", [(f"layer {k}", fault)])
                return report
            sources, targets = _IO[type(piece)](piece, cm)
            wanted += sources
            out += targets
        if wanted != cur:
            report.add("layer_interfaces",
                       [(f"layer {k}", f"needs sources {[P.names[g] for g in wanted]}, "
                                       f"has {[P.names[g] for g in cur]}")])
            return report
        cur = out
    report.add_pass("layer_interfaces")
    tgt = [c.labels[0] for c in e.target.circuits]
    report.add("declared_target",
               [] if cur == tgt else
               [("target", f"expression produces {[P.names[g] for g in cur]}, "
                           f"declares {[P.names[g] for g in tgt]}")])
    return report


def compose_expressions(e1: CobordismExpression, e2: CobordismExpression) -> CobordismExpression:
    if e1.cm != e2.cm or e1.target != e2.source:
        raise TypecheckFailed("expressions do not compose")
    return CobordismExpression(e1.cm, e1.source, e1.layers + e2.layers, e2.target)


# --------------------------------------------------------------------------
# ordered simplicial complexes and formal maps on them
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedComplex:
    """Dimension <= 3 complex; each simplex lists vertices in increasing rank."""

    n_vertices: int
    rank: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...] = ()
    tetrahedra: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        if sorted(self.rank) != list(range(self.n_vertices)):
            raise ValueError("rank must be a permutation of the vertices")
        edge_set = set(self.edges)
        for simplex in (*self.edges, *self.triangles, *self.tetrahedra):
            if len(set(simplex)) != len(simplex):
                raise ValueError(f"degenerate simplex {simplex}")
            if any(v >= self.n_vertices for v in simplex):
                raise ValueError(f"vertex out of range in {simplex}")
            ranks = [self.rank[v] for v in simplex]
            if ranks != sorted(ranks):
                raise ValueError(f"simplex {simplex} not listed in vertex order")
        tri_set = set(self.triangles)
        for t in self.triangles:
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                if e not in edge_set:
                    raise ValueError(f"triangle {t} missing edge {e}")
        for s in self.tetrahedra:
            for skip in range(4):
                face = tuple(v for i, v in enumerate(s) if i != skip)
                if face not in tri_set:
                    raise ValueError(f"tetrahedron {s} missing face {face}")

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position of each edge in `edges`, built once per complex."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def triangle_index(self) -> dict[tuple[int, int, int], int]:
        """Position of each triangle in `triangles`, built once per complex."""
        return {t: i for i, t in enumerate(self.triangles)}


@dataclass(frozen=True)
class SimplicialFormalMap:
    cm: CrossedModule
    complex: OrderedComplex
    edge_labels: tuple[int, ...]
    tri_labels: tuple[int, ...]
    start_vertices: tuple[int, ...]

    def __post_init__(self):
        K = self.complex
        if len(self.edge_labels) != len(K.edges):
            raise ValueError("one label per edge required")
        if len(self.tri_labels) != len(K.triangles):
            raise ValueError("one label per triangle required")
        if len(self.start_vertices) != len(K.triangles):
            raise ValueError("one start vertex per triangle required")
        for t, s in zip(K.triangles, self.start_vertices):
            if s not in t:
                raise ValueError(f"start vertex {s} not in triangle {t}")

    def label_of(self, u: int, v: int) -> int:
        """The label of the oriented path u -> v along a single edge."""
        idx = self.complex.edge_index
        if (u, v) in idx:
            return self.edge_labels[idx[(u, v)]]
        if (v, u) in idx:
            return self.cm.base.inv[self.edge_labels[idx[(v, u)]]]
        raise ValueError(f"no edge between {u} and {v}")

    def path_label(self, vertices) -> int:
        return self.cm.base.product(
            self.label_of(u, v) for u, v in zip(vertices, vertices[1:]))

    def base_label(self, t_idx: int) -> int:
        """The triangle label transported to the triangle's first vertex."""
        t = self.complex.triangles[t_idx]
        return transport_label(self, t_idx, t[0])


def transport_label(m: SimplicialFormalMap, t_idx: int, to_vertex: int) -> int:
    """Change the start vertex of a triangle label: moving the base point
    along an edge labeled u acts on the cell label by u."""
    t = m.complex.triangles[t_idx]
    if to_vertex not in t:
        raise ValueError(f"{to_vertex} is not a vertex of triangle {t}")
    s = m.start_vertices[t_idx]
    c = m.tri_labels[t_idx]
    # to the first vertex: act by the path label (t[0] -> s)
    at_v0 = m.cm.action(m.path_label((t[0], s)) if s != t[0] else 0, c)
    if to_vertex == t[0]:
        return at_v0
    u = m.path_label((t[0], to_vertex))
    return m.cm.action(m.cm.base.inv[u], at_v0)


def triangle_cell(m: SimplicialFormalMap, t_idx: int) -> LabeledCell:
    """The globular cell of a triangle: from the two-edge route through the
    middle vertex to the direct long edge, based at the first vertex."""
    t = m.complex.triangles[t_idx]
    return LabeledCell(m.cm, m.base_label(t_idx), m.path_label(t))


def validate_simplicial(m: SimplicialFormalMap) -> CheckReport:
    """Boundary condition on every triangle; cocycle condition on every
    tetrahedron (two composite faces of the square agree)."""
    report = CheckReport("simplicial formal map")
    cm = m.cm
    P, C = cm.base, cm.top
    fails = []
    for i, t in enumerate(m.complex.triangles):
        v0, v1, v2 = t
        p0 = m.label_of(v1, v2)
        p1 = m.label_of(v0, v2)
        p2 = m.label_of(v0, v1)
        c0 = m.base_label(i)
        if cm.d(c0) != P.product((p1, P.inv[p0], P.inv[p2])):
            fails.append((f"triangle {t}", "d(c) != p1 p0^-1 p2^-1"))
    report.add("boundary_condition", fails)

    tri_index = m.complex.triangle_index
    fails = []
    for s in m.complex.tetrahedra:
        faces = [tuple(v for i, v in enumerate(s) if i != skip) for skip in range(4)]
        c = [m.base_label(tri_index[f]) for f in faces]
        p01 = m.label_of(s[0], s[1])
        lhs = C.mul(c[2], cm.action(p01, c[0]))
        rhs = C.mul(c[1], c[3])
        if lhs != rhs:
            fails.append((f"tetrahedron {s}", "c2 ^{p01}c0 != c1 c3"))
    report.add("cocycle_condition", fails)
    return report


def labeling_from_vertex_potential(cm: CrossedModule, complex_: OrderedComplex,
                                   potential) -> SimplicialFormalMap:
    """Edge labels pot(u)^-1 pot(v) with identity 2-labels: always valid."""
    P = cm.base
    pot = tuple(potential)
    edge_labels = tuple(P.mul(P.inv[pot[u]], pot[v]) for u, v in complex_.edges)
    return SimplicialFormalMap(cm, complex_, edge_labels,
                               (0,) * len(complex_.triangles),
                               tuple(t[0] for t in complex_.triangles))


# --------------------------------------------------------------------------
# combining adjacent triangles and flattening annuli
# --------------------------------------------------------------------------

def _square_of(m: SimplicialFormalMap, t1: int, t2: int):
    """The shared edge and the four rank-ordered vertices of two adjacent
    triangles."""
    K = m.complex
    tri1, tri2 = K.triangles[t1], K.triangles[t2]
    shared = set(tri1) & set(tri2)
    if t1 == t2 or len(shared) != 2:
        raise ValueError(f"triangles {tri1} and {tri2} do not share exactly one edge")
    verts = sorted(set(tri1) | set(tri2), key=lambda v: K.rank[v])
    return tuple(sorted(shared, key=lambda v: K.rank[v])), verts


def combine_triangles(m: SimplicialFormalMap, t1: int, t2: int) -> LabeledCell:
    """Compose two adjacent triangle cells into the square cell they bound.

    The square's diagonal (the shared edge) must be (w0,w2), (w0,w3) or
    (w1,w2) in the vertex order w0 < w1 < w2 < w3, and the whole labeling
    must pass `validate_simplicial`; an invalid one raises ValueError naming
    its first failing triangle."""
    diag, (w0, w1, w2, w3) = _square_of(m, t1, t2)
    if diag not in ((w0, w2), (w0, w3), (w1, w2)):
        raise ValueError(f"diagonal {diag} not supported")
    validate_simplicial(m).require()
    cm = m.cm
    cell1 = triangle_cell(m, t1)
    cell2 = triangle_cell(m, t2)
    tri1 = m.complex.triangles[t1]
    if diag == (w0, w2):
        # source route w0-w1-w2-w3, target the direct edge (w0,w3)
        first, second = (cell1, cell2) if w1 in tri1 else (cell2, cell1)
        whiskered = compose_h(first, cell_identity(cm, m.label_of(w2, w3)))
        return compose_v(whiskered, second)
    if diag == (w0, w3):
        # source route through w1, target route through w2
        first, second = (cell1, cell2) if w1 in tri1 else (cell2, cell1)
        return compose_v(first, cell_v_inverse(second))
    # diag == (w1, w2): source route w0-w1-w3, target route w0-w2-w3
    first, second = (cell1, cell2) if w0 in tri1 else (cell2, cell1)
    whisk_a = compose_h(first, cell_identity(cm, m.label_of(w2, w3)))
    whisk_b = compose_h(cell_identity(cm, m.label_of(w0, w1)), second)
    return compose_v(cell_v_inverse(whisk_b), whisk_a)


def annulus_square_complex(diagonal: str) -> OrderedComplex:
    """The cut-open annulus: vertices 0 (inner base), 1 (inner base again),
    2, 3 (outer base twice); seams (0,2) and (1,3) carry the same label.
    diagonal: "up" for the (0,3) diagonal, "down" for (1,2)."""
    if diagonal == "up":
        return OrderedComplex(4, (0, 1, 2, 3),
                              edges=((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)),
                              triangles=((0, 1, 3), (0, 2, 3)))
    if diagonal == "down":
        return OrderedComplex(4, (0, 1, 2, 3),
                              edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)),
                              triangles=((0, 1, 2), (1, 2, 3)))
    raise ValueError("diagonal must be 'up' or 'down'")


# the two reference squares that `annulus_flatten` accepts, built once
_ANNULUS_SQUARES = tuple(map(annulus_square_complex, ("up", "down")))


def annulus_flatten(m: SimplicialFormalMap) -> Cyl:
    """Flatten a two-triangle annulus labeling to its cylinder piece.

    The square cell is composed across the diagonal, then rebased at the
    outer circle (acting by the inverse seam label); both diagonal choices
    give the same piece. The outer edge must carry d(c) h^-1 g h."""
    K = m.complex
    cm = m.cm
    P = cm.base
    if not any((K.edges, K.triangles) == (sq.edges, sq.triangles) for sq in _ANNULUS_SQUARES):
        raise ValueError("not one of the two annulus squares")
    if m.label_of(0, 2) != m.label_of(1, 3):
        raise ValueError("seam edges carry different labels")
    g = m.label_of(0, 1)
    h = m.label_of(0, 2)
    square = combine_triangles(m, 0, 1)  # triangle 0 carries the inner route
    # square: g*h => h*k based at the inner vertex; rebase at the outer circle
    c_star = cm.action(P.inv[h], square.c)
    piece = Cyl(c_star, g, h)
    k = m.label_of(2, 3)
    assert piece_io(piece, cm)[1] == (k,), "outer label mismatch"
    assert square.p == P.mul(g, h)
    return piece


def whiskering_orders(cm: CrossedModule, c: int, p: int, c2: int, p2: int):
    """The two ways of forming the horizontal composite by whiskering and
    composing vertically; the interchange/Peiffer law makes them equal."""
    a = LabeledCell(cm, c, p)
    b = LabeledCell(cm, c2, p2)
    # whisker b left along p, a right along d(c')p', then compose
    route1 = compose_v(compose_h(cell_identity(cm, a.p), b),
                       compose_h(a, cell_identity(cm, b.target)))
    # whisker a right along p', b left along d(c)p, then compose
    route2 = compose_v(compose_h(a, cell_identity(cm, b.p)),
                       compose_h(cell_identity(cm, a.target), b))
    return route1, route2


def annulus_labeling(cm: CrossedModule, c: int, g: int, h: int,
                     diagonal: str = "up", concentrate: str = "first") -> SimplicialFormalMap:
    """A labeled annulus square flattening to Cyl(c, g, h): inner edge g,
    seams h, outer edge d(c) h^-1 g h. `concentrate` picks which triangle
    carries the whole 2-label ("first" or "second" in triangle order)."""
    P, C = cm.base, cm.top
    k = P.product((cm.d(c), P.inv[h], g, h))
    if diagonal == "up":
        # triangles (0,1,3) [inner route] and (0,2,3) [outer route]
        if concentrate == "second":
            b = P.mul(g, h)
            tris = (0, C.inv[cm.action(h, c)])
        else:
            b = P.mul(h, k)
            tris = (cm.action(h, c), 0)
        return SimplicialFormalMap(cm, annulus_square_complex("up"),
                                   (g, h, b, h, k), tris, (0, 0))
    if diagonal == "down":
        # triangles (0,1,2) and (1,2,3)
        if concentrate == "first":
            b = P.mul(h, P.inv[k])
            tris = (cm.action(h, c), 0)
        else:
            b = P.mul(P.inv[g], h)
            tris = (0, cm.action(P.mul(P.inv[g], h), C.inv[c]))
        return SimplicialFormalMap(cm, annulus_square_complex("down"),
                                   (g, h, b, h, k), tris, (0, 1))
    raise ValueError("diagonal must be 'up' or 'down'")
