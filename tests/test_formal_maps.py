import itertools
import random
import re

import pytest

from conftest import perm_conj, perm_inv, perm_mul
from crossmod.formal_maps import (
    Cap,
    CobordismExpression,
    Copants,
    Cup,
    Cyl,
    Disc,
    FormalBoundary,
    Id,
    LabeledCell,
    OrderedComplex,
    Pants,
    SimplicialFormalMap,
    Swap,
    annulus_flatten,
    annulus_labeling,
    cell_v_inverse,
    combine_triangles,
    compose_expressions,
    compose_h,
    compose_v,
    expression,
    labeling_from_vertex_potential,
    piece_io,
    transport_label,
    triangle_cell,
    typecheck,
    validate_simplicial,
    whiskering_orders,
)


def test_compose_v_examples(cms):
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    i123 = C.names.index("(123)")
    p12 = P.names.index("(12)")
    # (1,p) then (c, p) composes to (c, p)
    for c in C.elements():
        for p in P.elements():
            got = compose_v(LabeledCell(cm, 0, p), LabeledCell(cm, c, p))
            assert (got.c, got.p) == (c, p)
    # the worked example: ((123),(12)) #1 ((123),(123)(12)) = ((132),(12))
    second_p = P.mul(cm.d(i123), p12)
    assert P.names[second_p] == perm_mul("(123)", "(12)")
    got = compose_v(LabeledCell(cm, i123, p12), LabeledCell(cm, i123, second_p))
    assert C.names[got.c] == "(132)" and got.p == p12
    # inverse cell cancels
    for c in C.elements():
        for p in P.elements():
            cell = LabeledCell(cm, c, p)
            got = compose_v(cell, cell_v_inverse(cell))
            assert (got.c, got.p) == (0, p)
    with pytest.raises(ValueError, match="vertical composite undefined"):
        compose_v(LabeledCell(cm, i123, p12), LabeledCell(cm, i123, p12))


def test_whiskering_orders_agree(cms):
    for cm in cms.values():
        for c, p, c2, p2 in itertools.product(cm.top.elements(), cm.base.elements(),
                                              cm.top.elements(), cm.base.elements()):
            r1, r2 = whiskering_orders(cm, c, p, c2, p2)
            assert (r1.c, r1.p) == (r2.c, r2.p)
            direct = compose_h(LabeledCell(cm, c, p), LabeledCell(cm, c2, p2))
            assert (r1.c, r1.p) == (direct.c, direct.p)


def test_interchange_law(cms):
    # (a #0 b) #1 (a' #0 b') = (a #1 a') #0 (b #1 b') whenever both sides defined
    for cm in cms.values():
        if cm.top.order * cm.base.order > 36:
            continue
        C, P = cm.top, cm.base
        for c1, p1, c2, p2 in itertools.product(C.elements(), P.elements(),
                                                C.elements(), P.elements()):
            a = LabeledCell(cm, c1, p1)
            b = LabeledCell(cm, c2, p2)
            for d1, d2 in itertools.product(C.elements(), repeat=2):
                a2 = LabeledCell(cm, d1, a.target)
                b2 = LabeledCell(cm, d2, b.target)
                lhs = compose_v(compose_h(a, b), compose_h(a2, b2))
                rhs = compose_h(compose_v(a, a2), compose_v(b, b2))
                assert (lhs.c, lhs.p) == (rhs.c, rhs.p)


def test_compose_h_semidirect_cases(cms):
    """A pants cell from two labeled legs, (c1 * ^{g1}c2, g1 g2), on cases
    worked out by hand."""
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    i123 = C.names.index("(123)")
    p12 = P.names.index("(12)")
    # c2 = 1 keeps the first label
    for c1 in C.elements():
        for g1 in P.elements():
            for g2 in P.elements():
                cell = compose_h(LabeledCell(cm, c1, g1), LabeledCell(cm, 0, g2))
                assert (cell.c, cell.p) == (c1, P.mul(g1, g2))
    cell = compose_h(LabeledCell(cm, 0, 0), LabeledCell(cm, i123, p12))
    assert (cell.c, cell.p) == (i123, p12)
    cell = compose_h(LabeledCell(cm, i123, p12), LabeledCell(cm, i123, 0))
    assert C.names[cell.c] == perm_mul("(123)", perm_conj("(12)", "(123)")) == "e"
    assert cell.p == p12


def test_piece_signatures(cms):
    """piece_io on every piece kind: source and target labels written out by
    hand on CM-A3S3 (top A3, base S3, d the inclusion), then every piece of
    all eight kinds on every fixture crossed module against the labels
    written as products in the base group; a non-piece raises."""
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    c, c2 = C.names.index("(123)"), C.names.index("(132)")
    e, p12, p13, p23, p123, p132 = (P.names.index(n) for n in
                                    ("e", "(12)", "(13)", "(23)", "(123)", "(132)"))
    assert perm_mul("(12)", "(13)") == "(132)"
    assert perm_conj("(12)", "(13)") == "(23)"
    expected = {
        Disc(c): ((), (p123,)),
        Disc(0): ((), (e,)),
        # d(c) * h^-1 g h: (123) (12) (13) (12) = (123) (23) = (12)
        Cyl(c, p13, p12): ((p13,), (p12,)),
        Cyl(0, p123, p12): ((p123,), (p132,)),
        # d(c) g1 g2: (123) (12) (13) = (123) (132) = e
        Pants(c, p12, p13): ((p12, p13), (e,)),
        Pants(c2, p123, p123): ((p123, p123), (p123,)),
        Copants(p12, p13): ((p132,), (p12, p13)),
        Cup(p123): ((), (p123, p132)),
        Cup(p12): ((), (p12, p12)),
        Cap(p132): ((p132, p123), ()),
        Id(p23): ((p23,), (p23,)),
        Swap(p12, p123): ((p12, p123), (p123, p12)),
    }
    assert {type(piece) for piece in expected} == {Disc, Cyl, Pants, Copants, Cup, Cap, Id, Swap}
    for piece, io in expected.items():
        assert piece_io(piece, cm) == io, piece
    for other in cms.values():
        C, P, d = other.top.elements(), other.base, other.d
        G, inv = P.elements(), P.inv
        oracle = {Disc(c): ((), (d(c),)) for c in C}
        for c, g, h in itertools.product(C, G, G):
            oracle[Cyl(c, g, h)] = ((g,), (P.product((d(c), inv[h], g, h)),))
            oracle[Pants(c, g, h)] = ((g, h), (P.product((d(c), g, h)),))
        for g, h in itertools.product(G, G):
            oracle[Copants(g, h)] = ((P.product((g, h)),), (g, h))
            oracle[Swap(g, h)] = ((g, h), (h, g))
        for g in G:
            oracle[Cup(g)] = ((), (g, inv[g]))
            oracle[Cap(g)] = ((g, inv[g]), ())
            oracle[Id(g)] = ((g,), (g,))
        for piece, io in oracle.items():
            assert piece_io(piece, other) == io, (other.name, piece)
    for not_a_piece in (object(), (0,), None, LabeledCell(cm, 0, 0)):
        with pytest.raises(TypeError, match="not a piece"):
            piece_io(not_a_piece, cm)


def test_typecheck_examples(cms):
    cm = cms["CM-A3S3"]
    c, g = 1, 1
    # a disc feeding a cap: wrong arity, must fail
    bad = expression(cm, [], [[Disc(c)], [Cap(cm.d(c))]], [])
    report = typecheck(bad)
    assert not report.ok
    # disc next to an identity strand into pants
    dc = cm.d(c)
    good = expression(cm, [g], [[Disc(c), Id(g)], [Pants(0, dc, g)]],
                      [cm.base.mul(dc, g)])
    assert typecheck(good).to_json() == {
        "subject": "cobordism expression", "ok": True,
        "checks": [{"axiom": "normalized_boundaries", "ok": True},
                   {"axiom": "layer_interfaces", "ok": True},
                   {"axiom": "declared_target", "ok": True}]}
    # cup into cap: a closed expression
    closed = expression(cm, [], [[Cup(g)], [Cap(g)]], [])
    assert typecheck(closed).ok
    # a boundary circuit with more than one label, on either side, is rejected
    two = FormalBoundary.of([g, cm.base.inv[g]])
    for source, target in ((two, FormalBoundary.of([0])), (FormalBoundary.of([0]), two)):
        report = typecheck(CobordismExpression(cm, source, (), target))
        assert [(r.axiom, r.ok) for r in report.results] == [("normalized_boundaries", False)]
        assert report.first_failure().detail == "boundary circuits must be normalized"


def test_expression_compose_rebracketing(cms):
    cm = cms["CM-Id2"]
    e1 = expression(cm, [1], [[Cyl(0, 1, 1)]], [1])
    e2 = expression(cm, [1], [[Id(1)]], [1])
    e3 = expression(cm, [1], [[Cyl(1, 1, 0)]], [cm.base.mul(cm.d(1), 1)])
    left = compose_expressions(compose_expressions(e1, e2), e3)
    right = compose_expressions(e1, compose_expressions(e2, e3))
    assert left == right  # signature chain independent of bracketing


def test_validate_simplicial_single_triangle(cms):
    cm = cms["CM-Id2"]
    tri = OrderedComplex(3, (0, 1, 2), edges=((0, 1), (0, 2), (1, 2)),
                         triangles=((0, 1, 2),))
    # exhaustive table: c forced by the edge word p1 p0^-1 p2^-1
    P = cm.base
    for g, h, k in itertools.product(P.elements(), repeat=3):
        word = P.product((h, P.inv[k], P.inv[g]))  # p1 p0^-1 p2^-1
        for c in cm.top.elements():
            m = SimplicialFormalMap(cm, tri, (g, h, k), (c,), (0,))
            assert validate_simplicial(m).ok == (cm.d(c) == word)


def test_validate_simplicial_identity_labelings(cms):
    tetra = OrderedComplex(4, (0, 1, 2, 3),
                           edges=tuple(itertools.combinations(range(4), 2)),
                           triangles=tuple(itertools.combinations(range(4), 3)),
                           tetrahedra=((0, 1, 2, 3),))
    for cm in cms.values():
        for pot in itertools.product(cm.base.elements(), repeat=4):
            m = labeling_from_vertex_potential(cm, tetra, pot)
            assert validate_simplicial(m).ok


def test_start_vertex_transport(cms):
    # relabeling with a moved start vertex stays valid when the label is
    # transported along the connecting edge
    cm = cms["CM-A3S3"]
    tri = OrderedComplex(3, (0, 1, 2), edges=((0, 1), (0, 2), (1, 2)),
                         triangles=((0, 1, 2),))
    P, C = cm.base, cm.top
    for c in C.elements():
        for g, k in itertools.product(P.elements(), repeat=2):
            h = P.product((cm.d(c), g, k))  # long edge making the condition hold
            base = SimplicialFormalMap(cm, tri, (g, h, k), (c,), (0,))
            assert validate_simplicial(base).ok
            moved = SimplicialFormalMap(cm, tri, (g, h, k),
                                        (cm.action(P.inv[g], c),), (1,))
            assert validate_simplicial(moved).ok
            assert transport_label(moved, 0, 0) == c


def concentration_square(cm, c, c2, g, g2, h):
    """The two-triangle square with labels c (upper) and c' (lower), edge
    route g, g', h on the source side; combining concentrates c'c."""
    P = cm.base
    mid = P.product((cm.d(c), g, g2))
    bottom = P.product((cm.d(cm.top.mul(c2, c)), g, g2, h))
    complex_ = OrderedComplex(4, (0, 1, 2, 3),
                              edges=((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)),
                              triangles=((0, 1, 2), (0, 2, 3)))
    # edges: (0,1)=g, (0,2)=mid, (0,3)=bottom, (1,2)=g', (2,3)=h
    return SimplicialFormalMap(cm, complex_, (g, mid, bottom, g2, h), (c, c2), (0, 0))


def test_combine_triangles_concentrates(cms):
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    for c, c2 in itertools.product(C.elements(), repeat=2):
        for g, g2, h in itertools.product((0, 1, 4), repeat=3):
            m = concentration_square(cm, c, c2, g, g2, h)
            assert validate_simplicial(m).ok
            cell = combine_triangles(m, 0, 1)
            assert cell.c == C.mul(c2, c)
            assert cell.p == P.product((g, g2, h))


def test_combine_triangles_trivial(cms):
    cm = cms["CM-Id2"]
    m = concentration_square(cm, 0, 0, 1, 1, 1)
    cell = combine_triangles(m, 0, 1)
    assert cell.c == 0


def test_combine_requires_adjacency(cms):
    cm = cms["CM-Id2"]
    m = concentration_square(cm, 0, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="do not share exactly one edge"):
        combine_triangles(m, 0, 0)


def square_complex(diagonal):
    """The two triangles on the vertices 0 < 1 < 2 < 3 that share the edge
    `diagonal`, with the five edges they span."""
    x, y = (v for v in range(4) if v not in diagonal)
    return OrderedComplex(4, (0, 1, 2, 3),
                          edges=tuple(e for e in itertools.combinations(range(4), 2)
                                      if e != (x, y)),
                          triangles=(tuple(sorted((*diagonal, x))),
                                     tuple(sorted((*diagonal, y)))))


# each supported diagonal's square cell: (source route, target route)
SQUARE_ROUTES = {(0, 2): ((0, 1, 2, 3), (0, 3)),
                 (0, 3): ((0, 1, 3), (0, 2, 3)),
                 (1, 2): ((0, 1, 3), (0, 2, 3))}


def square_labelings(cm, complex_, rng=None, draws=30):
    """Every labeling of a two-triangle complex over cm; or, given rng,
    `draws` seeded edge labelings and start vertices, each with every pair
    of triangle labels."""
    P, C = cm.base, cm.top
    if rng is None:
        edges_starts = itertools.product(
            itertools.product(P.elements(), repeat=len(complex_.edges)),
            itertools.product(*complex_.triangles))
    else:
        edges_starts = [(tuple(rng.randrange(P.order) for _ in complex_.edges),
                         tuple(rng.choice(t) for t in complex_.triangles))
                        for _ in range(draws)]
    for edge_labels, starts in edges_starts:
        for tri_labels in itertools.product(C.elements(), repeat=2):
            yield SimplicialFormalMap(cm, complex_, edge_labels, tri_labels, starts)


@pytest.mark.parametrize("diagonal", list(SQUARE_ROUTES),
                         ids=[f"{u}-{v}" for u, v in SQUARE_ROUTES])
@pytest.mark.parametrize("name", ["CM-Id2", "CM-A3S3", "CM-Mod", "CM-AutS3"])
def test_combine_triangles_exactly_when_valid(cms, name, diagonal):
    """Every labeling of the square over CM-Id2, and seeded ones over the
    other fixtures: combine_triangles, in either triangle order, returns the
    cell from the square's source route to its target route exactly when
    validate_simplicial passes, and otherwise raises ValueError naming the
    first triangle whose cell does not end on its long edge."""
    cm = cms[name]
    complex_ = square_complex(diagonal)
    source, target = SQUARE_ROUTES[diagonal]
    rng = None if name == "CM-Id2" else random.Random(f"{name} {diagonal}")
    seen = set()
    for m in square_labelings(cm, complex_, rng):
        bad = [t for i, t in enumerate(complex_.triangles)
               if triangle_cell(m, i).target != m.label_of(t[0], t[2])]
        valid = validate_simplicial(m).ok
        assert valid == (not bad)
        seen.add(valid)
        for t1, t2 in ((0, 1), (1, 0)):
            if valid:
                cell = combine_triangles(m, t1, t2)
                assert (cell.p, cell.target) == (m.path_label(source), m.path_label(target))
            else:
                with pytest.raises(ValueError, match=re.escape(f"fails at triangle {bad[0]}:")):
                    combine_triangles(m, t1, t2)
    assert seen == {True, False}


@pytest.mark.parametrize("diagonal", [(0, 1), (1, 3), (2, 3)], ids=["0-1", "1-3", "2-3"])
def test_combine_triangles_refuses_fan_squares(cms, diagonal):
    """The squares on the other three diagonals are refused, even with a
    valid labeling."""
    m = labeling_from_vertex_potential(cms["CM-A3S3"], square_complex(diagonal), (0, 1, 4, 2))
    assert validate_simplicial(m).ok
    for t1, t2 in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"diagonal {diagonal} not supported")):
            combine_triangles(m, t1, t2)


def test_label_of_reversed_and_missing_edges(cms):
    cm = cms["CM-A3S3"]
    P = cm.base
    m = annulus_labeling(cm, 1, 4, 1)  # the "up" square: no edge between 1 and 2
    assert any(P.inv[g] != g for g in m.edge_labels)
    for u, v in m.complex.edges:
        assert m.label_of(v, u) == P.inv[m.label_of(u, v)]
    for u, v in ((1, 2), (2, 1)):
        with pytest.raises(ValueError, match=f"no edge between {u} and {v}"):
            m.label_of(u, v)


def test_annulus_flatten_paper_labeling(cms):
    # b = gh with ^h(c^-1) in the outer-route triangle is the printed case
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    for c, g, h in itertools.product(C.elements(), P.elements(), P.elements()):
        m = annulus_labeling(cm, c, g, h, diagonal="up", concentrate="second")
        b = m.label_of(0, 3)
        assert b == P.mul(g, h)
        assert m.tri_labels[1] == C.inv[cm.action(h, c)]
        assert annulus_flatten(m) == Cyl(c, g, h)


def test_annulus_flatten_both_triangulations(cms):
    for name in ("CM-Id2", "CM-A3S3"):
        cm = cms[name]
        for c, g, h in itertools.product(cm.top.elements(), cm.base.elements(),
                                         cm.base.elements()):
            pieces = {annulus_flatten(annulus_labeling(cm, c, g, h, diag, conc))
                      for diag in ("up", "down") for conc in ("first", "second")}
            assert pieces == {Cyl(c, g, h)}


def test_annulus_outer_label_oracle(cms):
    # the stated instance: g=(123), h=(12), c=(123): outer = d(c) h^-1 g h = e
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    c = C.names.index("(123)")
    g, h = P.names.index("(123)"), P.names.index("(12)")
    m = annulus_labeling(cm, c, g, h)
    outer = P.names[m.label_of(2, 3)]
    oracle = perm_mul(perm_mul("(123)", perm_inv("(12)")), perm_mul("(123)", "(12)"))
    assert outer == oracle == "e"


def test_annulus_rejects_other_complexes(cms):
    cm = cms["CM-Id2"]
    tri = OrderedComplex(3, (0, 1, 2), edges=((0, 1), (0, 2), (1, 2)),
                         triangles=((0, 1, 2),))
    m = labeling_from_vertex_potential(cm, tri, (0, 0, 0))
    with pytest.raises(ValueError, match="not one of the two annulus squares"):
        annulus_flatten(m)


def test_compose_v_associative_where_defined(cms):
    for cm in cms.values():
        if cm.top.order ** 3 * cm.base.order > 1500:
            continue
        C, P = cm.top, cm.base
        for c1, c2, c3 in itertools.product(C.elements(), repeat=3):
            for p in P.elements():
                a = LabeledCell(cm, c1, p)
                b = LabeledCell(cm, c2, a.target)
                c = LabeledCell(cm, c3, b.target)
                lhs = compose_v(compose_v(a, b), c)
                rhs = compose_v(a, compose_v(b, c))
                assert (lhs.c, lhs.p) == (rhs.c, rhs.p)


def test_compose_h_unit(cms):
    cm = cms["CM-A3S3"]
    unit = LabeledCell(cm, 0, 0)
    for c in cm.top.elements():
        for p in cm.base.elements():
            cell = LabeledCell(cm, c, p)
            left = compose_h(unit, cell)
            right = compose_h(cell, unit)
            assert (left.c, left.p) == (right.c, right.p) == (c, p)


def test_combine_invariant_under_start_vertex_transport(cms):
    # re-basing the stored labels at other start vertices must not change
    # the combined cell
    cm = cms["CM-A3S3"]
    C, P = cm.top, cm.base
    for c, c2 in itertools.product((0, 1, 2), repeat=2):
        for g, g2, h in ((1, 4, 2), (4, 4, 1), (0, 5, 3)):
            m = concentration_square(cm, c, c2, g, g2, h)
            base_cell = combine_triangles(m, 0, 1)
            for s0 in m.complex.triangles[0]:
                for s1 in m.complex.triangles[1]:
                    moved = SimplicialFormalMap(
                        cm, m.complex, m.edge_labels,
                        (transport_label(m, 0, s0), transport_label(m, 1, s1)),
                        (s0, s1))
                    assert validate_simplicial(moved).ok
                    cell = combine_triangles(moved, 0, 1)
                    assert (cell.c, cell.p) == (base_cell.c, base_cell.p)


def test_annulus_flatten_with_moved_start_vertices(cms):
    cm = cms["CM-A3S3"]
    for c, g, h in ((1, 4, 1), (2, 1, 5)):
        m = annulus_labeling(cm, c, g, h)
        tris = m.complex.triangles
        moved = SimplicialFormalMap(
            cm, m.complex, m.edge_labels,
            (transport_label(m, 0, tris[0][1]), transport_label(m, 1, tris[1][2])),
            (tris[0][1], tris[1][2]))
        assert validate_simplicial(moved).ok
        assert annulus_flatten(moved) == Cyl(c, g, h)
