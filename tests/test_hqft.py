import dataclasses
import itertools
from collections import Counter
import math
import os
import random
import time
from fractions import Fraction

import pytest

from crossmod import hqft
from crossmod.algebras import (
    CrossedCAlgebra,
    group_algebra_C,
    group_algebra_P,
    same_structure,
    theta,
)
from crossmod.crossed_modules import CrossedModuleMismatch, from_normal_inclusion
from crossmod.fields import GF, QQ
from crossmod.fixtures import fixture_algebra_names, std_algebras
from crossmod.formal_maps import (
    Cap,
    CobordismExpression,
    Copants,
    Cup,
    Cyl,
    Disc,
    FormalBoundary,
    Id,
    Pants,
    Swap,
    TypecheckFailed,
    compose_expressions,
    expression,
    piece_io,
    typecheck,
)
from crossmod.groups import permutation_group
from crossmod.hqft import (
    INVARIANCE,
    SNAKES,
    FormalHQFT,
    check_equivalence_invariance,
    eval_expression,
    eval_piece,
    extract_algebra,
    make_hqft,
    random_expression,
    state_space,
)
from crossmod.linalg import Matrix
from crossmod.report import CheckReport
from crossmod.serialize import Workspace, dumps, from_doc, to_doc
from test_checker_oracle import FIELDS, gauge
from test_groups import _alternating_group_4


def test_state_space_examples(cms, algebras):
    tau = make_hqft(algebras["KP.CM-A3S3"])
    assert state_space(tau, FormalBoundary.of()) == ()  # empty boundary: the field
    assert state_space(tau, FormalBoundary.of([4])) == (1,)
    tau = make_hqft(algebras["KC.CM-Mod"])
    assert state_space(tau, FormalBoundary.of([0], [0])) == (3, 3)  # 3 (x) 3
    assert state_space(tau, FormalBoundary.of([0], [1])) == (3, 0)
    # circuits are normalized before reading the grade
    assert state_space(tau, FormalBoundary.of([1, 1])) == (3,)


def test_eval_disc(algebras):
    tau = make_hqft(algebras["KP.CM-A3S3"])
    assert eval_piece(tau, Disc(0)) == Matrix(QQ, [[1]])  # the unit of L_1
    tau = make_hqft(algebras["KC.CM-Mod"])
    assert eval_piece(tau, Disc(2)).transpose().data[0] == (QQ.zero, QQ.zero, QQ.one)


def test_eval_cylinder(cms, algebras):
    tau = make_hqft(algebras["KP.CM-A3S3"])
    P = tau.algebra.P
    g = P.names.index("(123)")
    # Cyl(1,g,1) is the identity on L_g
    assert eval_piece(tau, Cyl(0, g, 0)) == Matrix.identity(QQ, 1)
    # Cyl(1,(123),(12)): e_(123) |-> e_(132); in the 1-dim grade bases this is [[1]]
    h = P.names.index("(12)")
    assert eval_piece(tau, Cyl(0, g, h)) == Matrix(QQ, [[1]])
    assert piece_io(Cyl(0, g, h), cms["CM-A3S3"])[1] == (P.names.index("(132)"),)


def test_eval_swap_and_cap(algebras):
    tau = make_hqft(algebras["KC.CM-Mod"])
    L = tau.algebra
    m = eval_piece(tau, Swap(0, 0))
    for i in range(3):
        for j in range(3):
            vec = [QQ.zero] * 9
            vec[i * 3 + j] = QQ.one
            assert m.apply(tuple(vec))[j * 3 + i] == QQ.one
    cap = eval_piece(tau, Cap(0))
    for i in range(3):
        for j in range(3):
            vec = [QQ.zero] * 9
            vec[i * 3 + j] = QQ.one
            assert cap.apply(tuple(vec))[0] == L.rho[0].data[i][j]


def test_eval_empty_expression_is_identity(cms, algebras):
    tau = make_hqft(algebras["KC.CM-Mod"])
    e = expression(tau.cm, [0], [], [0])
    assert eval_expression(tau, e).matrix == Matrix.identity(QQ, 3)


def test_eval_disc_through_cylinder_is_acted_disc(algebras):
    # [Disc(c)];[Cyl(1,dc,h)] equals Disc(^{h^-1}c)
    for name in ("KC.CM-A3S3", "KP.CM-A3S3", "QKG.CM-A3S3"):
        tau = make_hqft(algebras[name])
        cm = tau.cm
        for c in cm.top.elements():
            for h in cm.base.elements():
                dc = cm.d(c)
                e1 = expression(cm, [], [[Disc(c)], [Cyl(0, dc, h)]],
                                [cm.base.conj(cm.base.inv[h], dc)])
                ch = cm.action(cm.base.inv[h], c)
                e2 = expression(cm, [], [[Disc(ch)]], [cm.d(ch)])
                assert eval_expression(tau, e1).matrix == eval_expression(tau, e2).matrix


def test_eval_closed_cup_swap_cap(algebras):
    # scalar value computed independently with plain matrix algebra
    tau = make_hqft(algebras["KC.CM-Mod"])
    L = tau.algebra
    g = 0
    e = expression(L.cm, [], [[Cup(g)], [Swap(g, g)], [Cap(g)]], [])
    got = eval_expression(tau, e).matrix.data[0][0]
    # oracle: co = rho^-T; value = sum_{k,l} co[k][l] * rho[l][k]
    co = L.rho[g].transpose().inverse()
    oracle = QQ.zero
    for k in range(3):
        for l in range(3):
            oracle += co.data[k][l] * L.rho[g].data[l][k]
    assert got == oracle == Fraction(3)


def test_eval_typecheck_failure(algebras):
    tau = make_hqft(algebras["KP.CM-Id2"])
    bad = expression(tau.cm, [], [[Disc(1)], [Cap(tau.cm.d(1))]], [])
    with pytest.raises(TypecheckFailed):
        eval_expression(tau, bad)


def test_eval_over_another_crossed_module_fails(cms, algebras):
    """An expression over another crossed module raises CrossedModuleMismatch,
    naming both, even when its labels are in range for the algebra's (Id(1)
    over CM-A3S3 against KC.CM-Mod, base Z/2); under the algebra's crossed
    module's name it says the crossed module is a different one of that
    name. One with the same groups, boundary and action under another name
    evaluates."""
    tau = make_hqft(algebras["KC.CM-Mod"])
    pants = expression(cms["CM-A3S3"], [4, 4], [[Pants(0, 4, 4)]], [5])
    for e in (pants, expression(cms["CM-A3S3"], [1], [[Id(1)]], [1])):
        with pytest.raises(CrossedModuleMismatch, match="over crossed module CM-A3S3, "
                                                        "the algebra over CM-Mod"):
            eval_expression(tau, e)
    impostor = dataclasses.replace(cms["CM-Id2"], name="CM-Mod")
    with pytest.raises(CrossedModuleMismatch,
                       match="over crossed module CM-Mod, the algebra over a different "
                             "crossed module of that name"):
        eval_expression(tau, expression(impostor, [1], [[Id(1)]], [1]))
    renamed = dataclasses.replace(tau.cm, name="CM-Mod-renamed")
    assert renamed == tau.cm
    e = expression(renamed, [0], [[Cyl(1, 0, 1)]], [cms["CM-Mod"].d(1)])
    assert eval_expression(tau, e).matrix == \
        eval_expression(tau, dataclasses.replace(e, cm=tau.cm)).matrix


# one well-typed piece of each kind with fields, over CM-Mod (C = Z/3, P = Z/2)
_IN_RANGE_PIECES = [Disc(1), Cyl(1, 1, 1), Pants(1, 1, 1), Copants(1, 1), Cup(1),
                    Cap(1), Id(1), Swap(1, 0)]


@pytest.mark.parametrize("piece", _IN_RANGE_PIECES, ids=lambda p: type(p).__name__)
def test_out_of_range_piece_fields_fail_typecheck(algebras, piece):
    """A piece field outside its group's index range is a layer_interfaces
    failure, and eval_piece called directly raises too (Id(-2), Disc(-1), ...),
    so a negative label never wraps to another grade and a large one never
    reaches an IndexError."""
    tau = make_hqft(algebras["KC.CM-Mod"])
    cm = tau.cm
    source, target = piece_io(piece, cm)
    assert eval_expression(tau, expression(cm, source, [[piece]], target))
    for name in type(piece).__match_args__:
        n = cm.top.order if name == "c" else cm.base.order
        for bad in (-1, -n, n, n + 3):
            bad_piece = dataclasses.replace(piece, **{name: bad})
            with pytest.raises(TypecheckFailed, match=f"{name} outside range"):
                eval_piece(tau, bad_piece)
            e = expression(cm, source, [[bad_piece]], target)
            report = typecheck(e)
            assert [(r.axiom, r.ok) for r in report.results] == \
                [("normalized_boundaries", True), ("layer_interfaces", False)], (name, bad)
            with pytest.raises(TypecheckFailed, match="layer_interfaces"):
                eval_expression(tau, e)


@pytest.mark.parametrize("bad", [-1, -2, 2, 5, 1.0, True])
def test_out_of_range_boundary_labels_fail_typecheck(algebras, bad):
    """A boundary label outside range(order), or one that is not an int (a
    bool is not one either), fails normalized_boundaries."""
    tau = make_hqft(algebras["KC.CM-Mod"])
    cm = tau.cm
    for e in (CobordismExpression(cm, FormalBoundary.of([bad]), ((Id(bad),),),
                                  FormalBoundary.of([bad])),
              expression(cm, [bad], [], [0]),
              expression(cm, [0], [], [bad]),
              expression(cm, [], [[Disc(0)]], [bad])):
        report = typecheck(e)
        assert [(r.axiom, r.ok) for r in report.results] == [("normalized_boundaries", False)]
        with pytest.raises(TypecheckFailed, match="normalized_boundaries"):
            eval_expression(tau, e)


@pytest.mark.parametrize("bad", [object(), "Disc(0)", Disc(1.0), Disc(True), Cap("1"),
                                 Pants(0, 1, None)],
                         ids=["object", "str", "float", "bool", "str-field", "none-field"])
def test_non_pieces_and_non_int_fields_fail_typecheck(algebras, bad):
    """A layer entry that is not a piece, or a piece with a field that is not
    an int (a bool is not one either), is a layer_interfaces failure and
    never a TypeError or an IndexError."""
    tau = make_hqft(algebras["KC.CM-Mod"])
    e = expression(tau.cm, [], [[bad]], [0])
    report = typecheck(e)
    assert [(r.axiom, r.ok) for r in report.results] == \
        [("normalized_boundaries", True), ("layer_interfaces", False)]
    with pytest.raises(TypecheckFailed, match="layer_interfaces"):
        eval_expression(tau, e)
    with pytest.raises(TypecheckFailed):
        eval_piece(tau, bad)


def _counting(monkeypatch, owner, name):
    """Record the arguments of each call of the method owner.name from here on."""
    calls = []
    method = getattr(owner, name)

    def counted(self, *args):
        calls.append((self, *args))
        return method(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", ["KC.CM-Mod", "KP.CM-A3S3", "QKG.CM-A3S3"])
def test_copairing_is_inverted_once_per_grade(algebras, monkeypatch, name):
    """Cup and Copants evaluated twice on one evaluator equal their value on
    a fresh one, each grade's pairing block is inverted once, and every cup
    and copants is stored in the piece table under its key."""
    L = algebras[name]
    P = L.P
    pieces = [Cup(g) for g in P.elements()]
    pieces += [Copants(g, h) for g in P.elements() for h in P.elements()]
    want = {piece: eval_piece(make_hqft(L), piece) for piece in pieces}
    tau = make_hqft(L)
    calls = _counting(monkeypatch, Matrix, "inverse")
    for _ in range(2):
        for piece in pieces:
            assert eval_piece(tau, piece) == want[piece], piece
    assert {key for key in tau.pieces if key[0] in (Cup, Copants)} == set(map(_key, pieces))
    assert len(calls) == P.order


def singular_pairing(L):
    """L with its grade-0 pairing block zeroed, which the checker refuses,
    so an evaluator over it is built directly."""
    zero = Matrix(L.field, [[0] * L.dims[0]] * L.dims[0], cols=L.dims[0])
    return CrossedCAlgebra(L.name + "*", L.cm, L.field, L.dims, L.basis_names,
                           L.mul, L.unit, {**L.rho, 0: zero}, L.phi, L.tilde)


def test_singular_pairing_raises_on_every_call(algebras):
    """An evaluator built directly over an algebra with a singular pairing
    block raises ValueError on each cup through it and never stores it."""
    L = algebras["KC.CM-Mod"]
    tau = FormalHQFT(singular_pairing(L))
    for _ in range(2):
        with pytest.raises(ValueError, match="pairing at grade 0 is singular"):
            eval_piece(tau, Cup(0))
        with pytest.raises(ValueError, match="pairing at grade 0 is singular"):
            eval_piece(tau, Copants(0, 0))
        with pytest.raises(ValueError, match="pairing at grade 0 is singular"):
            eval_expression(tau, expression(tau.cm, [], [[Cup(0)]], [0, 0]))
    assert not tau.pieces  # neither Cup(0) nor Copants(0, 0) is stored
    assert eval_piece(tau, Cup(1)).shape() == (L.dims[1] ** 2, 1)  # other grades still evaluate
    assert set(tau.pieces) == {(Cup, 1)}


def test_evaluators_over_one_algebra_are_equal(algebras):
    """The piece table is a cache: two evaluators over one algebra compare
    and hash equal whatever it holds, and it is not in the repr."""
    L = algebras["KC.CM-Mod"]
    used, fresh = make_hqft(L), FormalHQFT(L)
    eval_piece(used, Cup(0))
    eval_piece(used, Cyl(1, 0, 1))
    eval_piece(used, Pants(1, 0, 0))
    assert set(used.pieces) == {(Cup, 0), (Cyl, 1, 0, 1), (Pants, 1, 0, 0)}
    assert not fresh.pieces
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and "pieces" not in repr(used)
    assert used != FormalHQFT(algebras["KP.CM-Mod"])


def test_copairing_cannot_be_passed_in(algebras):
    """Only eval_piece fills the piece table, copairing columns included:
    the constructor takes no such argument, so no caller can pre-fill or
    share one."""
    L = algebras["KC.CM-Mod"]
    with pytest.raises(TypeError):
        FormalHQFT(L, {})
    with pytest.raises(TypeError):
        FormalHQFT(L, pieces={})
    assert FormalHQFT(L).pieces is not FormalHQFT(L).pieces


def test_copants_value(algebras):
    tau = make_hqft(algebras["KP.CM-A3S3"])
    P = tau.algebra.P
    g1, g2 = 4, 1
    assert eval_piece(tau, Copants(g1, g2)).shape() == (1, 1)
    # copants then pants is the handle operator, not the identity in general;
    # but cap(copants) recovers the pairing against the counit side
    e = expression(tau.cm, [P.mul(g1, g2)], [[Copants(g1, g2)], [Pants(0, g1, g2)]],
                   [P.mul(g1, g2)])
    assert eval_expression(tau, e).matrix.shape() == (1, 1)


ALL_KINDS = (Disc, Cyl, Pants, Copants, Cup, Cap, Id, Swap)


def _key(piece):
    """The piece table's key of a piece: its kind, then its fields in order."""
    return (type(piece), *dataclasses.astuple(piece))


def _every_piece(cm, kind):
    C, P = cm.top.elements(), cm.base.elements()
    if kind in (Disc, Cup, Cap, Id):
        labels = C if kind is Disc else P
        return [kind(x) for x in labels]
    if kind in (Copants, Swap):
        return [kind(g1, g2) for g1, g2 in itertools.product(P, repeat=2)]
    return [kind(c, g1, g2) for c, g1, g2 in itertools.product(C, P, P)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", fixture_algebra_names())
def test_eval_piece_shape_is_target_by_source(algebras, name, kind):
    tau = make_hqft(algebras[name])
    L = tau.algebra
    for piece in _every_piece(tau.cm, kind):
        sources, targets = piece_io(piece, tau.cm)
        rows = math.prod(L.dims[g] for g in targets)
        cols = math.prod(L.dims[g] for g in sources)
        m = eval_piece(tau, piece)
        assert m.shape() == (rows, cols), piece
        # pieces built without the public constructor hold its validated form
        assert type(m.data) is tuple and all(type(r) is tuple and len(r) == cols
                                             for r in m.data), piece
        assert m == Matrix(m.field, m.data, cols=cols), piece


def _reference(L, piece):
    """The matrix of a Cyl, Pants, Cup or Copants straight from theta,
    mul_matrix and the inverse pairing blocks, with no evaluator."""
    P, f = L.P, L.field
    match piece:
        case Cyl(c, g, h):
            hinv = P.inv[h]
            return theta(L, c, P.conj(hinv, g)) @ L.phi[(hinv, g)]
        case Pants(c, g1, g2):
            return theta(L, c, P.mul(g1, g2)) @ L.mul_matrix(g1, g2)
        case Cup(g):
            co = L.rho[P.inv[g]].inverse()
            return Matrix(f, [[x] for row in co.data for x in row], cols=1)
        case Copants(g1, g2):
            g12 = P.mul(g1, g2)
            first = _reference(L, Cup(g1)).kron(Matrix.identity(f, L.dims[g12]))
            second = Matrix.identity(f, L.dims[g1]).kron(_reference(L, Pants(0, P.inv[g1], g12)))
            return second @ first


def _oracle_algebras(subject):
    """Every fixture algebra over QQ or GF(5), or K[C](CM-Mod) over QQ in a
    seeded dense basis."""
    if subject == "gauge":
        return [gauge(std_algebras(QQ)["KC.CM-Mod"], random.Random("hqft/gauge"))]
    return list(std_algebras(FIELDS[subject]).values())


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_stored_identities_are_the_shared_instance(subject):
    """Every rho and phi block an algebra stores, and every piece its
    evaluator stores, is the shared identity of its size exactly when it
    passes an entrywise Kronecker-delta test; eval_piece returns the stored
    piece. The gauge subject adds the `evaluator` golden section's gauge
    bases, whose identity-valued phi blocks are built by products."""
    from test_golden import _gauged  # test_golden imports this module

    algebras = _oracle_algebras(subject) + (list(_gauged()) if subject == "gauge" else [])
    counts = Counter()
    for L in algebras:
        tau = make_hqft(L)
        pieces = [piece for kind in ALL_KINDS for piece in _every_piece(L.cm, kind)]
        returned = {_key(piece): eval_piece(tau, piece) for piece in pieces}
        for key, (n, d) in tau.pieces.items():
            assert returned[key] is n or d != 1, (L.name, key)
        for m in [*L.rho.values(), *L.phi.values(), *(n for n, _ in tau.pieces.values())]:
            delta = m.rows == m.cols and all(Fraction(x) == (i == j) for i, row in enumerate(m.data)
                                             for j, x in enumerate(row))
            assert (m.rows == m.cols and m is Matrix.identity(L.field, m.rows)) == delta, L.name
            counts[delta] += 1
    assert counts[True] and counts[False], counts


def _cached_pieces(cm):
    return [piece for kind in (Cyl, Pants, Copants, Cup) for piece in _every_piece(cm, kind)]


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_cached_pieces_match_reference(subject):
    """On a warm evaluator, whose table holds every Cyl, Pants, Copants and
    Cup, each of them equals its reference, and is the stored N itself when
    its D is 1."""
    for L in _oracle_algebras(subject):
        tau = make_hqft(L)
        pieces = _cached_pieces(L.cm)
        for piece in pieces:
            eval_piece(tau, piece)
        assert set(tau.pieces) == set(map(_key, pieces)), L.name
        for piece in pieces:
            m = eval_piece(tau, piece)
            n, d = tau.pieces[_key(piece)]
            assert m is n or d != 1, (L.name, piece)
            assert m == _reference(L, piece), (L.name, piece)


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_evaluator_builds_each_matrix_once(subject, monkeypatch):
    """Over one invariance sweep, then every Cyl, Pants, Copants and Cup, an
    evaluator builds each stored Cyl and Pants once, so it builds theta once
    per stored Cyl and Pants and the product block once per stored Pants,
    and inverts each pairing block once."""
    lefts = _counting(monkeypatch, CrossedCAlgebra, "left_mul_matrix")
    products = _counting(monkeypatch, CrossedCAlgebra, "mul_matrix")
    inverses = _counting(monkeypatch, Matrix, "inverse")
    for L in _oracle_algebras(subject):
        cm, P = L.cm, L.P
        tau = make_hqft(L)
        for calls in (lefts, products, inverses):
            calls.clear()
        assert check_equivalence_invariance(tau).ok, L.name
        for piece in _cached_pieces(cm):
            eval_piece(tau, piece)
        # theta(c, g) is left_mul_matrix(d(c), tilde(c), g): a cylinder's g
        # is its source label conjugated by h, a pants's the product g1 g2
        want = Counter()
        for kind, *labels in tau.pieces:
            match kind(*labels):
                case Cyl(c, g, h):
                    want[(cm.d(c), L.tilde[c], P.conj(P.inv[h], g))] += 1
                case Pants(c, g1, g2):
                    want[(cm.d(c), L.tilde[c], P.mul(g1, g2))] += 1
        assert Counter((g, a, h) for _, g, a, h in lefts) == want, L.name
        stored = [key[2:] for key in tau.pieces if key[0] is Pants]
        assert Counter((g1, g2) for _, g1, g2 in products) == Counter(stored), L.name
        # every grade's cup is evaluated, so one inverse per grade is the least
        assert all(any(m is L.rho[g] for g in P.elements()) for m, in inverses), L.name
        assert len(inverses) == P.order, L.name


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_second_pass_builds_nothing(subject, monkeypatch):
    """Once every piece has been evaluated, evaluating each again builds no
    theta, product block, inverse or matrix product, and returns the first
    call's matrix itself for every piece stored with D = 1."""
    for L in _oracle_algebras(subject):
        tau = make_hqft(L)
        pieces = [piece for kind in ALL_KINDS for piece in _every_piece(L.cm, kind)]
        first = {piece: eval_piece(tau, piece) for piece in pieces}
        calls = []
        for owner, name in ((CrossedCAlgebra, "left_mul_matrix"), (CrossedCAlgebra, "mul_matrix"),
                            (Matrix, "inverse"), (Matrix, "__matmul__")):
            calls.append(_counting(monkeypatch, owner, name))
        for piece in pieces:
            m = eval_piece(tau, piece)
            assert m == first[piece], (L.name, piece)
            if tau.pieces[_key(piece)][1] == 1:
                assert m is first[piece], (L.name, piece)
        monkeypatch.undo()
        assert calls == [[], [], [], []], L.name


def test_range_check_runs_before_the_lookup(algebras):
    """True == 1 and hash(True) == hash(1), so the key (Cyl, True, 0, 1) of
    Cyl(True, 0, 1) would find the stored (Cyl, 1, 0, 1); the range check
    refuses the piece, and a negative field, before the table is read.
    eval_expression typechecks before it reads the table, so it refuses
    Cyl(True, 0, 1) there too."""
    tau = make_hqft(algebras["KC.CM-Mod"])
    stored = eval_piece(tau, Cyl(1, 0, 1))
    assert (Cyl, True, 0, 1) == (Cyl, 1, 0, 1) and (Cyl, True, 0, 1) in tau.pieces
    assert _key(Cyl(True, 0, 1)) in tau.pieces
    for piece in (Cyl(True, 0, 1), Cyl(1, 0, True), Cyl(-2, 0, 1), Cyl(1, 0, -1)):
        with pytest.raises(TypecheckFailed):
            eval_piece(tau, piece)
    assert tau.pieces == {(Cyl, 1, 0, 1): (stored, 1)}
    eval_expression(tau, expression(tau.cm, [0], [[Cyl(1, 0, 1)]], [0]))
    with pytest.raises(TypecheckFailed, match="layer_interfaces"):
        eval_expression(tau, expression(tau.cm, [0], [[Cyl(True, 0, 1)]], [0]))


def _plain_fold(tau, e):
    """The matrix of e folded from eval_piece's matrices through kron and @,
    with every intermediate entry a canonical scalar and no clearing."""
    total = Matrix.identity(tau.field, math.prod(state_space(tau, e.source)))
    for layer in e.layers:
        layer_mat = Matrix.identity(tau.field, 1)
        for piece in layer:
            layer_mat = layer_mat.kron(eval_piece(tau, piece))
        total = layer_mat @ total
    return total


def _canonical(m):
    """Every entry is a reduced residue over GF(p), or over Q an int or a
    Fraction that is not integral."""
    if m.field == QQ:
        return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                   for row in m.data for x in row)
    return all(type(x) is int and 0 <= x < m.field.p for row in m.data for x in row)


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_eval_expression_matches_plain_fold(subject):
    """Evaluating over the stored (N, D) pieces and dividing once gives the
    matrix of the plain fold, in canonical form, on seeded random expressions."""
    rng = random.Random(f"fold/{subject}")
    for L in _oracle_algebras(subject):
        tau = make_hqft(L)
        for _ in range(120 if subject == "gauge" else 25):
            e = random_expression(tau, rng)
            m = eval_expression(tau, e).matrix
            assert m == _plain_fold(tau, e), (L.name, e)
            assert _canonical(m), (L.name, e)


def test_long_gauge_expression_matches_plain_fold():
    """42 layers over the gauge basis of K[C](CM-Mod), whose grade 0 has dim
    3 (CM-Mod's boundary is trivial, so every label stays 0): a copants, two
    cylinders, a pants, 14 times over. The product of the pieces'
    denominators, by which the evaluator divides once at the end, has about
    300 bits, where the result's own denominator is 11."""
    L, = _oracle_algebras("gauge")
    tau = make_hqft(L)
    rng = random.Random("fold/long")
    C, P = L.C.elements(), L.P.elements()
    layers = []
    for _ in range(14):
        layers += [[Copants(0, 0)],
                   [Cyl(rng.choice(C), 0, rng.choice(P)), Cyl(rng.choice(C), 0, rng.choice(P))],
                   [Pants(rng.choice(C), 0, 0)]]
    e = expression(L.cm, [0], layers, [0])
    m = eval_expression(tau, e).matrix
    assert m == _plain_fold(tau, e) and _canonical(m)
    assert math.prod(tau.pieces[_key(piece)][1] for layer in layers for piece in layer) \
        .bit_length() > 250


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_cleared_table_holds_each_piece_over_its_least_denominator(subject):
    """After an invariance sweep and one eval_piece of every piece, the piece
    table holds exactly the pieces of all eight kinds, each cleared over its
    least denominator: (N, D) with D the least common denominator of
    eval_piece's matrix m and N = D m in ints; over GF(p) D is 1."""
    for L in _oracle_algebras(subject):
        tau = make_hqft(L)
        assert check_equivalence_invariance(tau).ok, L.name
        pieces = [piece for kind in ALL_KINDS for piece in _every_piece(L.cm, kind)]
        for piece in pieces:
            eval_piece(tau, piece)
        assert set(tau.pieces) == set(map(_key, pieces)), L.name
        for (kind, *labels), (n, d) in tau.pieces.items():
            piece = kind(*labels)
            m = eval_piece(tau, piece)
            entries = [x for row in n.data for x in row]
            assert all(type(x) is int for x in entries) and type(d) is int, (L.name, piece)
            assert n == Matrix(L.field, [[d * x for x in row] for row in m.data], cols=m.cols)
            assert math.gcd(d, *entries) == 1, (L.name, piece)
            assert d == 1 or L.field == QQ, (L.name, piece)


@pytest.mark.parametrize("subject", ["QQ", "GF5", "gauge"])
def test_stored_pieces_evaluate_without_eval_piece(subject, monkeypatch):
    """Once eval_piece has built every piece, evaluating each as a one-piece
    expression reads the table alone: no eval_piece call, and the matrix
    eval_piece returned."""
    for L in _oracle_algebras(subject):
        tau = make_hqft(L)
        pieces = [piece for kind in ALL_KINDS for piece in _every_piece(L.cm, kind)]
        first = {piece: eval_piece(tau, piece) for piece in pieces}
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_piece(*args)

        monkeypatch.setattr(hqft, "eval_piece", counted)
        for piece in pieces:
            source, target = piece_io(piece, L.cm)
            m = eval_expression(tau, expression(L.cm, source, [[piece]], target)).matrix
            assert m == first[piece], (L.name, piece)
        monkeypatch.undo()
        assert calls == [], L.name


def test_eval_expression_divides_through_combine(monkeypatch):
    """With every piece stored, evaluating over the gauge basis makes no
    `div` call: the final division by the product of the pieces' D is one
    `combine` per row. The seeded expressions include results with
    non-integral entries, so that division really runs."""
    L, = _oracle_algebras("gauge")
    tau = make_hqft(L)
    for piece in (piece for kind in ALL_KINDS for piece in _every_piece(L.cm, kind)):
        eval_piece(tau, piece)
    rng = random.Random("fold/no-div")
    expressions = [random_expression(tau, rng) for _ in range(40)]
    calls, div = [], QQ.div

    def counted(*args):
        calls.append(args)
        return div(*args)

    monkeypatch.setattr(QQ, "div", counted)
    matrices = [eval_expression(tau, e).matrix for e in expressions]
    monkeypatch.undo()
    assert calls == []
    assert any(type(x) is Fraction for m in matrices for row in m.data for x in row)
    assert all(m == _plain_fold(tau, e) for m, e in zip(matrices, expressions))


def test_snake_identities(algebras):
    for name in fixture_algebra_names():
        tau = make_hqft(algebras[name])
        L = tau.algebra
        for g in L.P.elements():
            ident = Matrix.identity(QQ, L.dims[g])
            e1 = expression(L.cm, [g], [[Id(g), Cup(L.P.inv[g])], [Cap(g), Id(g)]], [g])
            e2 = expression(L.cm, [g], [[Cup(g), Id(g)], [Id(g), Cap(L.P.inv[g])]], [g])
            assert eval_expression(tau, e1).matrix == ident
            assert eval_expression(tau, e2).matrix == ident


def test_round_trip_extraction(algebras):
    for name in fixture_algebra_names():
        tau = make_hqft(algebras[name])
        assert same_structure(extract_algebra(tau), tau.algebra), name


def test_equivalence_invariance_families(algebras):
    for name in ("KC.CM-Id2", "KP.CM-A3S3", "PUSH.CM-A3S3"):
        assert check_equivalence_invariance(make_hqft(algebras[name])).ok


@pytest.mark.parametrize("block, failures", [
    ("0,0", [("family_a_disc_cylinder", "(c=e,h=e)"),
             ("family_b_pants_reduction", "(c1=e,c2=e,g1=e,g2=e)"),
             ("family_c_whiskering", "(c=e,g1=e,g2=(123))")]),
    ("0,4", [("family_a_disc_cylinder", "(c=(123),h=e)"),
             ("family_b_pants_reduction", "(c1=e,c2=e,g1=e,g2=(123))"),
             ("family_c_whiskering", "(c=e,g1=e,g2=(123))"),
             ("family_d_pairing", "(c=e,g=(123))")]),
])
def test_equivalence_invariance_families_fail(algebras, block, failures):
    """KC.CM-A3S3 with one product entry set to 2 fails the checker, so
    make_hqft refuses it; an evaluator built directly over it fails these
    equivalence-invariance families at these first instances."""
    doc = to_doc("algebra", algebras["KC.CM-A3S3"])
    doc["mul"][block][0][0][0] = "2"
    L = from_doc(doc, Workspace(QQ), "algebra")[2]
    with pytest.raises(ValueError):
        make_hqft(L)
    report = check_equivalence_invariance(FormalHQFT(L))
    assert [(r.axiom, r.instance) for r in report.failures()] == failures


def test_a_warm_sweep_builds_no_piece_and_hashes_none(algebras, monkeypatch):
    """The relation rows are plain keys `(kind, *labels)`, so an invariance
    sweep on a warm evaluator over KC.CM-A3S3 calls neither `__init__` nor
    `__hash__` of any of the eight piece classes."""
    tau = make_hqft(algebras["KC.CM-A3S3"])
    cold = check_equivalence_invariance(tau)
    calls = [_counting(monkeypatch, kind, name)
             for kind in ALL_KINDS for name in ("__init__", "__hash__")]
    warm = check_equivalence_invariance(tau)
    assert [len(c) for c in calls] == [0] * 16
    hash(Cyl(0, 0, 0))  # the counters do see a piece built and hashed
    monkeypatch.undo()
    assert sum(map(len, calls)) == 2
    assert warm.ok and dumps(warm.to_json()) == dumps(cold.to_json())


def _hand_loops(tau):
    """Families (a)-(d) as four hand-written loops, the reference for the
    relation table: (family, instance, message, matrices) of each instance,
    each side built by `expression` and evaluated by `eval_expression`."""
    L = tau.algebra
    cm, P, C = L.cm, L.P, L.C
    d = cm.d

    def values(*exprs):
        return [eval_expression(tau, e).matrix for e in exprs]

    for c in C.elements():
        for h in P.elements():
            e1 = expression(cm, [], [[Disc(c)], [Cyl(0, d(c), h)]],
                            [P.conj(P.inv[h], d(c))])
            ch = cm.action(P.inv[h], c)
            e2 = expression(cm, [], [[Disc(ch)]], [d(ch)])
            yield ("family_a_disc_cylinder", f"(c={C.names[c]},h={P.names[h]})",
                   "disc+cylinder != acted disc", values(e1, e2))

    for c1 in C.elements():
        for c2 in C.elements():
            for g1 in P.elements():
                for g2 in P.elements():
                    k1, k2 = P.mul(d(c1), g1), P.mul(d(c2), g2)
                    e1 = expression(cm, [g1, g2],
                                    [[Cyl(c1, g1, 0), Cyl(c2, g2, 0)],
                                     [Pants(0, k1, k2)]],
                                    [P.mul(k1, k2)])
                    cc = C.mul(c1, cm.action(g1, c2))
                    e2 = expression(cm, [g1, g2], [[Pants(cc, g1, g2)]],
                                    [P.product((d(cc), g1, g2))])
                    yield ("family_b_pants_reduction",
                           f"(c1={C.names[c1]},c2={C.names[c2]},g1={P.names[g1]},g2={P.names[g2]})",
                           "two cylinders into pants != semidirect pants", values(e1, e2))

    for c in C.elements():
        for g1 in P.elements():
            for g2 in P.elements():
                out = P.product((g1, d(c), g2))
                e1 = expression(cm, [g1, g2],
                                [[Id(g1), Cyl(c, g2, 0)], [Pants(0, g1, P.mul(d(c), g2))]],
                                [out])
                gc = cm.action(g1, c)
                e2 = expression(cm, [g1, g2],
                                [[Pants(0, g1, g2)], [Cyl(gc, P.mul(g1, g2), 0)]],
                                [out])
                e3 = expression(cm, [g1, g2],
                                [[Cyl(gc, g1, 0), Id(g2)], [Pants(0, P.mul(d(gc), g1), g2)]],
                                [out])
                yield ("family_c_whiskering", f"(c={C.names[c]},g1={P.names[g1]},g2={P.names[g2]})",
                       "whiskering orders disagree", values(e1, e2, e3))

    for c in C.elements():
        for g in P.elements():
            dcg = P.mul(d(c), g)
            y = P.inv[dcg]
            e1 = expression(cm, [g, y], [[Cyl(c, g, 0), Id(y)], [Cap(dcg)]], [])
            cginv = cm.action(P.inv[g], c)
            e2 = expression(cm, [g, y], [[Id(g), Cyl(cginv, y, 0)], [Cap(g)]], [])
            yield ("family_d_pairing", f"(c={C.names[c]},g={P.names[g]})",
                   "pairing composites disagree", values(e1, e2))


def _instances(cm, rows):
    """(family, instance, sides) of every instance of every row, in the
    order `check_relations` visits them."""
    for family, names, sides, _ in rows:
        groups = [cm.top if name.startswith("c") else cm.base for name in names]
        for labels in itertools.product(*(G.elements() for G in groups)):
            text = ",".join(f"{n}={G.names[x]}" for n, G, x in zip(names, groups, labels))
            yield family, f"({text})", sides(cm, *labels)


def _invariance_subjects():
    """Every fixture algebra over Q and GF(3) but the two over CM-AutS3,
    then the two over CM-AutS3 over Q and the gauge bases of the
    `evaluator` golden section, whose grades of dimension 2-3 carry pieces
    with denominators, then KC.CM-A3S3 with the product entry of block 0,0
    or 0,4 set to 2."""
    from test_golden import _gauged  # test_golden imports this module

    for field in (QQ, GF(3)):
        algs = std_algebras(field)
        yield from (L for name, L in algs.items() if not name.endswith("CM-AutS3"))
    yield from (L for name, L in std_algebras(QQ).items() if name.endswith("CM-AutS3"))
    yield from _gauged()
    for block in ("0,0", "0,4"):
        doc = to_doc("algebra", std_algebras(QQ)["KC.CM-A3S3"])
        doc["mul"][block][0][0][0] = "2"
        yield from_doc(doc, Workspace(QQ), "algebra")[2]


def check_rows_against_the_hand_loops(tau):
    """Each instance of each row of INVARIANCE evaluates, side by side, to
    the JSON of the hand loops' matrices, and the relation table's report is
    the report the hand loops give, byte for byte: the same families, first
    instances, details and violation counts. Returns the report."""
    hand = list(_hand_loops(tau))
    rows = list(_instances(tau.cm, INVARIANCE))
    assert [(family, instance) for family, instance, _ in rows] == \
        [(family, instance) for family, instance, _, _ in hand]
    for (_, instance, sides), (family, _, _, matrices) in zip(rows, hand):
        got = [hqft._evaluate(tau, source, layers).to_json() for source, layers in sides]
        assert got == [m.to_json() for m in matrices], (tau.algebra.name, family, instance)
    want = CheckReport(f"equivalence invariance for {tau.algebra.name}")
    for family, group in itertools.groupby(hand, key=lambda item: item[0]):
        want.add(family, [(instance, message) for _, instance, message, (first, *rest) in group
                          if not all(m == first for m in rest)])
    report = check_equivalence_invariance(tau)
    assert dumps(report.to_json()) == dumps(want.to_json()), tau.algebra.name
    return report


def test_relation_table_matches_the_hand_loops():
    failing = 0
    for L in _invariance_subjects():
        failing += not check_rows_against_the_hand_loops(FormalHQFT(L)).ok
    assert failing == 2


def check_row_typing(cm):
    """Every instance of every row of INVARIANCE + SNAKES on cm, each key
    `(kind, *labels)` turned into its piece `kind(*labels)` and each side
    built by `expression` with the target the last layer's pieces produce,
    passes `typecheck`, and all sides of an instance share source and
    target. Returns the number of instances."""
    count = 0
    for family, instance, sides in _instances(cm, INVARIANCE + SNAKES):
        exprs = []
        for source, keys in sides:
            layers = [[kind(*labels) for kind, *labels in layer] for layer in keys]
            exprs.append(expression(cm, source, layers,
                                    [g for piece in layers[-1] for g in piece_io(piece, cm)[1]]))
        for e in exprs:
            report = typecheck(e)
            assert report.ok, (cm.name, family, instance, report.summary())
        assert len({(e.source, e.target) for e in exprs}) == 1, (cm.name, family, instance)
        count += 1
    return count


@pytest.mark.parametrize("name", ["CM-Id2", "CM-A3S3", "CM-Mod", "CM-AutS3"])
def test_relation_rows_are_well_typed(cms, name):
    """The rows are library constants that `check_relations` evaluates
    without a typecheck, so each is typechecked here, once per crossed
    module: |C|^2 |P|^2 instances of family (b) among them."""
    cm = cms[name]
    C, P = cm.top.order, cm.base.order
    assert check_row_typing(cm) == C * P + C * C * P * P + C * P * P + C * P + P


# A4 = A4 has |C||P| = 144, so family (b) has 20,736 instances there; its
# sweeps run in their own CI step
A4_SWEEPS = pytest.mark.skipif(not os.environ.get("CROSSMOD_A4_SWEEPS"),
                               reason="set CROSSMOD_A4_SWEEPS=1 to run the A4 = A4 sweeps")


def _a4_equals_a4():
    g = _alternating_group_4()
    return from_normal_inclusion(g, g.elements(), name="A4=A4")


def _s4_equals_s4():
    perms = list(itertools.permutations(range(4)))
    g = permutation_group(perms, [str(p) for p in perms])
    return from_normal_inclusion(g, g.elements(), name="S4=S4")


@A4_SWEEPS
def test_relation_rows_are_well_typed_on_a4():
    assert check_row_typing(_a4_equals_a4()) == 12 * 12 + 12 ** 4 + 12 ** 3 + 12 * 12 + 12


@A4_SWEEPS
@pytest.mark.parametrize("kind", ["K[P]", "K[C]"])
def test_relation_table_matches_the_hand_loops_on_a4(kind):
    """The hand-loop oracle on K[P] and K[C] of A4 = A4 over Q; prints the
    time of the relation table's sweep, on a fresh evaluator, and of the
    oracle."""
    build = group_algebra_P if kind == "K[P]" else group_algebra_C
    L = build(_a4_equals_a4(), QQ)
    start = time.perf_counter()
    assert check_equivalence_invariance(FormalHQFT(L)).ok
    sweep = time.perf_counter() - start
    start = time.perf_counter()
    assert check_rows_against_the_hand_loops(FormalHQFT(L)).ok
    print(f"\nA4 = A4 {kind} over Q: invariance sweep {sweep:.2f} s, "
          f"hand-loop oracle {time.perf_counter() - start:.2f} s")


@A4_SWEEPS
@pytest.mark.parametrize("kind", ["K[P]", "K[C]"])
def test_invariance_sweeps_on_s4(kind):
    """K[P] and K[C] of S4 = S4 over Q pass the invariance sweep, on a fresh
    evaluator: 331,776 instances of family (b) each. Prints the sweep's
    time."""
    build = group_algebra_P if kind == "K[P]" else group_algebra_C
    L = build(_s4_equals_s4(), QQ)
    start = time.perf_counter()
    assert check_equivalence_invariance(FormalHQFT(L)).ok
    print(f"\nS4 = S4 {kind} over Q: invariance sweep {time.perf_counter() - start:.2f} s")


def test_functoriality_random(algebras):
    rng = random.Random(99)
    for name in ("KC.CM-A3S3", "KP.CM-Id2", "QKG.CM-A3S3"):
        tau = make_hqft(algebras[name])
        for _ in range(40):
            e1 = random_expression(tau, rng)
            e2 = random_expression(tau, rng,
                                   source=[c.labels[0] for c in e1.target.circuits])
            combined = eval_expression(tau, compose_expressions(e1, e2)).matrix
            assert combined == eval_expression(tau, e2).matrix @ eval_expression(tau, e1).matrix


def test_monoidality_of_layers(algebras):
    tau = make_hqft(algebras["KP.CM-A3S3"])
    cm = tau.cm
    g, h = 4, 1
    layer = expression(cm, [g, h], [[Cyl(0, g, h), Id(h)]],
                       [cm.base.conj(cm.base.inv[h], g), h])
    kron = eval_piece(tau, Cyl(0, g, h)).kron(eval_piece(tau, Id(h)))
    assert eval_expression(tau, layer).matrix == kron
    # swap twice is the identity
    e = expression(cm, [g, h], [[Swap(g, h)], [Swap(h, g)]], [g, h])
    assert eval_expression(tau, e).matrix == Matrix.identity(QQ, 1)


def test_copants_counit_identity(algebras):
    # (id (x) rho(-, unit)) after Copants(g, 1) is the identity on L_g:
    # pins down the comultiplication convention against the pairing
    for name in ("KP.CM-A3S3", "KC.CM-Mod", "QKG.CM-A3S3"):
        tau = make_hqft(algebras[name])
        L = tau.algebra
        for g in L.P.elements():
            if L.dims[g] == 0:
                continue
            e = expression(L.cm, [g],
                           [[Copants(g, 0)],
                            [Id(g), Id(0), Disc(0)],
                            [Id(g), Cap(0)]],
                           [g])
            assert eval_expression(tau, e).matrix == Matrix.identity(QQ, L.dims[g])
