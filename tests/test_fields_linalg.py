import itertools
import random
import sys
from fractions import Fraction

import pytest

from crossmod import linalg
from crossmod.fields import GF, QQ, ScalarParseError, field_from_json
from crossmod.fixtures import std_algebras
from crossmod.hqft import FormalHQFT, eval_expression, random_expression
from crossmod.linalg import (
    Matrix,
    RowSpace,
    SingularMatrixError,
    unit_vector,
)


def test_rational_field_roundtrip():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.format(Fraction(-7, 2)) == "-7/2"
    assert QQ.format(Fraction(5)) == "5"
    assert QQ.div(QQ.of(1), QQ.of(3)) == Fraction(1, 3)
    with pytest.raises(ScalarParseError):
        QQ.parse("x")


def test_rational_scalar_types():
    """Integral rationals are held as int, never as a bool or an integral
    Fraction, and format writes both representations alike."""
    for value in (QQ.parse("4/2"), QQ.div(4, 2), QQ.of(3), QQ.parse(7), QQ.parse(" -6/3 ")):
        assert type(value) is int
    assert type(QQ.parse("3/4")) is Fraction and type(QQ.div(3, 4)) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert [QQ.format(x) for x in (0, 5, Fraction(-3, 4), Fraction(6, 3))] == ["0", "5", "-3/4", "2"]


@pytest.mark.parametrize("field, message", [(QQ, "bad rational"), (GF(3), "bad residue")],
                         ids=["QQ", "GF3"])
def test_json_boolean_is_not_a_scalar(field, message):
    for value in (True, False):
        with pytest.raises(ScalarParseError, match=f"^{message} {value}$"):
            field.parse(value)
    assert field.parse(1) == 1 and field.parse("1") == 1


def test_rational_arithmetic_is_canonical():
    """add, sub, mul and neg return an int when the result is integral, so
    a product of Fractions never stores an integral Fraction."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    for value in (QQ.add(half, half), QQ.sub(Fraction(3, 2), half), QQ.mul(half, 2),
                  QQ.mul(Fraction(2, 3), Fraction(3, 2)), QQ.neg(Fraction(4, 2)),
                  QQ.add(third, Fraction(2, 3))):
        assert type(value) is int, value
    assert QQ.add(half, third) == Fraction(5, 6) and type(QQ.mul(half, 3)) is Fraction
    assert type(QQ.of(Fraction(6, 3))) is int and QQ.of(Fraction(3, 4)) == Fraction(3, 4)


def test_public_matrix_stores_canonical_entries():
    """Matrix(field, data) reduces mod p over GF(p) and stores an integral
    rational as an int, so equal matrices compare and hash equal."""
    f3 = GF(3)
    assert Matrix(f3, [[4, -1]]) == Matrix(f3, [[1, 2]])
    assert hash(Matrix(f3, [[4, -1]])) == hash(Matrix(f3, [[1, 2]]))
    assert Matrix(f3, [[4, -1]]).data == ((1, 2),)
    m = Matrix(QQ, [[Fraction(4, 2), Fraction(1, 2), True]])
    assert m.data == ((2, Fraction(1, 2), 1),)
    assert [type(x) for x in m.data[0]] == [int, Fraction, int]
    k = Matrix(QQ, [[Fraction(1, 2)]]).kron(Matrix(QQ, [[2]]))
    assert k.data == ((1,),) and type(k.data[0][0]) is int


def test_field_of_refuses_other_types():
    """`of`, and so the public Matrix, takes an int, and over Q also a
    Fraction; a Fraction over GF(p), or a float anywhere, is refused rather
    than stored as given."""
    f5 = GF(5)
    for value in (Fraction(1, 2), 2.5):
        with pytest.raises(TypeError):
            Matrix(f5, [[value]])
    with pytest.raises(TypeError):
        Matrix(QQ, [[0.5]])
    assert Matrix(QQ, [[Fraction(1, 2)]]).data == ((Fraction(1, 2),),)
    assert f5.of(True) == 1 and type(f5.of(True)) is int


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.div(f5.of(1), f5.of(2)) == 3  # 2*3 = 6 = 1 mod 5
    assert f5.parse("7 mod 5") == 2
    assert f5.format(8) == "3 mod 5"
    with pytest.raises(ValueError):
        GF(6)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert f5.add(f5.add(a, b), c) == f5.add(a, f5.add(b, c))
                assert f5.mul(a, f5.add(b, c)) == f5.add(f5.mul(a, b), f5.mul(a, c))


def test_field_from_json():
    assert field_from_json("Q") is QQ
    assert field_from_json({"Fp": 3}) == GF(3)
    assert field_from_json("Fp:7") == GF(7)
    with pytest.raises(ScalarParseError):
        field_from_json("R")


def test_scalar_inverse():
    assert Matrix(QQ, [[2]]).inverse() == Matrix(QQ, [[Fraction(1, 2)]])


def test_inverse_2x2_adjugate_oracle():
    # oracle: inverse of [[a,b],[c,d]] is adjugate over determinant
    m = Matrix(QQ, [[1, 1], [0, 1]])
    a, b, c, d = (Fraction(x) for x in (1, 1, 0, 1))
    det = a * d - b * c
    oracle = Matrix(QQ, [[d / det, -b / det], [-c / det, a / det]])
    assert m.inverse() == oracle
    assert m.inverse() == Matrix(QQ, [[1, -1], [0, 1]])


def test_inverse_roundtrip_and_singular():
    m = Matrix(QQ, [[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    assert m.inverse() @ m == Matrix.identity(QQ, 3)
    with pytest.raises(SingularMatrixError):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()


def test_kron_block_structure():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.shape() == (4, 4)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                for t in range(2):
                    assert k.data[2 * i + s][2 * j + t] == a.data[i][j] * b.data[s][t]


def test_zero_dimensional_shapes():
    z = Matrix(QQ, [], cols=3)
    assert z.shape() == (0, 3)
    assert (z @ Matrix(QQ, [[0, 0]] * 3, cols=2)).shape() == (0, 2)
    assert z.transpose().shape() == (3, 0)
    assert Matrix.identity(QQ, 0).inverse().shape() == (0, 0)
    assert Matrix.identity(QQ, 2).kron(z).shape() == (0, 6)


def _assert_trusted(m):
    """m holds what the public constructor would build from its data: a
    tuple of tuple rows, each `cols` long, equal and hash-equal to a copy."""
    assert type(m.data) is tuple and len(m.data) == m.rows
    assert all(type(row) is tuple and len(row) == m.cols for row in m.data)
    copy = Matrix(m.field, m.data, cols=m.cols)
    assert m == copy and hash(m) == hash(copy)


@pytest.mark.parametrize("f", [QQ, GF(5), GF(2 ** 31 - 1)],
                         ids=["QQ", "GF5", "GF2147483647"])
def test_internal_matrices_hold_trusted_data(f):
    """Every matrix linalg builds itself skips the public constructor's
    validation, so each result must already be in the validated form."""
    rng = random.Random(29)
    pool = [0, 0, 1, 2, f.neg(f.one), f.div(f.one, f.of(3))]
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (3, 3)]

    def rand(r, c):
        return Matrix(f, [[rng.choice(pool) for _ in range(c)] for _ in range(r)], cols=c)

    for r, c in shapes:
        a = rand(r, c)
        _assert_trusted(a.transpose())
        _assert_trusted(Matrix(f, [[f.zero] * c] * r, cols=c))
        _assert_trusted(Matrix.from_columns(f, list(zip(*a.data)) if r else [()] * c, r))
        for k in (0, 1, 3):
            _assert_trusted(a @ rand(c, k))
        for r2, c2 in shapes:
            _assert_trusted(a.kron(rand(r2, c2)))
    for n in (0, 1, 3):
        _assert_trusted(Matrix.identity(f, n))
        # unit upper times unit lower triangular: invertible in every field
        upper = Matrix(f, [[1 if i == j else rng.choice(pool) if j > i else 0
                            for j in range(n)] for i in range(n)], cols=n)
        lower = upper.transpose()
        _assert_trusted((upper @ lower).inverse())
        _assert_trusted(upper.inverse())


def test_solve():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    x = m.solve((QQ.of(5), QQ.of(11)))
    assert m.apply(x) == (QQ.of(5), QQ.of(11))
    inconsistent = Matrix(QQ, [[1, 1], [1, 1]])
    assert inconsistent.solve((QQ.of(0), QQ.of(1))) is None


# -- one intake rule: every caller entry goes through field.of ---------------

INTAKE_FIELDS = pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])


def _uncanonical(f, vec):
    """vec as a caller may give it: over Q with integral Fractions, over
    GF(p) with unreduced residues of either sign."""
    return tuple(Fraction(x) if f is QQ else x + f.p * (-1) ** k for k, x in enumerate(vec))


def _refused_entries(f):
    """Entries `field.of` refuses: a float, and over GF(p) a Fraction."""
    return (0.5, Fraction(1, 2)) if f is not QQ else (0.5,)


@INTAKE_FIELDS
def test_apply_takes_entries_through_of(f):
    m = Matrix(f, [[1, 2], [3, 4]])
    vec = (f.of(3), f.of(-2))
    want = m.apply(vec)
    got = m.apply(_uncanonical(f, vec))
    assert got == want and _canonical(f, got)
    for bad in _refused_entries(f):
        with pytest.raises(TypeError):
            m.apply((bad, f.one))


@INTAKE_FIELDS
def test_solve_takes_entries_through_of(f):
    m = Matrix(f, [[1]])
    assert m.solve((7,)) == (f.of(7),)
    got = m.solve(_uncanonical(f, (f.of(2),)))
    assert got == (2,) and _canonical(f, got)
    for bad in _refused_entries(f):
        with pytest.raises(TypeError):
            m.solve((bad,))


@INTAKE_FIELDS
def test_rowspace_reduce_takes_entries_through_of(f):
    space = RowSpace(f, 2)
    space.add((f.one, f.zero))
    got = space.reduce(_uncanonical(f, (f.of(2), f.of(4))))
    assert got == (0, 4) and _canonical(f, got)
    for bad in _refused_entries(f):
        with pytest.raises(TypeError):
            space.reduce((bad, f.one))


@INTAKE_FIELDS
def test_rowspace_add_takes_entries_through_of(f):
    space = RowSpace(f, 2)
    for bad in _refused_entries(f):
        with pytest.raises(TypeError):
            space.add((f.one, bad))
    assert space.dim == 0
    assert space.add(_uncanonical(f, (f.of(2), f.of(4))))
    assert space.basis == [(1, 2)] and _canonical(f, space.basis[0])
    assert not space.add(_uncanonical(f, (f.of(3), f.of(6))))


# -- the fast path against a naive dense oracle over Fraction ----------------

def _to_field(f, x):
    """An oracle value (a Fraction) as a scalar of f."""
    return x if f is QQ else f.of(int(x))


def _oracle_matmul(f, A, B):
    """The dense triple sum over Fraction, zeros included."""
    return [[_to_field(f, sum((Fraction(A.data[i][k]) * Fraction(B.data[k][j])
                               for k in range(A.cols)), Fraction(0)))
             for j in range(B.cols)] for i in range(A.rows)]


def _oracle_kron(f, A, B):
    return [[_to_field(f, Fraction(A.data[i // B.rows][j // B.cols])
                       * Fraction(B.data[i % B.rows][j % B.cols]))
             for j in range(A.cols * B.cols)] for i in range(A.rows * B.rows)]


def _fast_path_matrices(f, rng):
    """Sparse, dense, identity, near-identity and (over Q) non-integral
    matrices, and ones whose entries are all 0, 1 or -1, with the empty
    shapes 0xn and nx0 and the 1x1 shape among them. The near-identity
    squares (a permutation, a shear, diag(1, 2)) must not be taken for an
    identity, nor a 0x3 or 3x0 matrix for the 0x0 one."""
    entries = {"sparse": lambda: f.of(rng.choice([0] * 5 + [1, -1, 2])),
               "dense": lambda: f.of(rng.choice([1, 2, 3, -1, -2])),
               "units": lambda: f.of(rng.choice([0, 1, 1, -1]))}
    if f is QQ:
        entries["non-integral"] = lambda: QQ.div(rng.randint(-4, 4), rng.randint(1, 3))
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (4, 4)]
    out = [Matrix.identity(f, n) for n in (0, 1, 2, 3, 4)]
    near = ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [0, 2]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]])
    out += [Matrix(f, rows) for rows in near]
    for entry in entries.values():
        for rows, cols in shapes:
            out.append(Matrix(f, [[entry() for _ in range(cols)]
                                  for _ in range(rows)], cols=cols))
    return out


def _uncanonical_twin(f, m, rng):
    """The entries of m as public input need not hold them: over GF(p) as
    unreduced residues of either sign, over Q as Fractions even when
    integral."""
    if f is QQ:
        return [[Fraction(x) for x in row] for row in m.data]
    return [[x + f.p * rng.randint(-3, 3) for x in row] for row in m.data]


def _canonical(f, entries) -> bool:
    """Every entry is a canonical scalar of f: over Q an int or a
    non-integral Fraction, over GF(p) an int in range(p)."""
    if f is QQ:
        return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                   for x in entries)
    return all(type(x) is int and 0 <= x < f.p for x in entries)


def _oracle_combine(f, n, terms):
    """The naive sum of every c * v[k]: over Q in Fraction, over GF(p) in
    int reduced mod p, zeros included."""
    if f is QQ:
        out = [Fraction(0)] * n
        for c, v in terms:
            for k in range(n):
                out[k] += Fraction(c) * Fraction(v[k])
        return out
    out = [0] * n
    for c, v in terms:
        for k in range(n):
            out[k] += c * v[k]
    return [x % f.p for x in out]


def _kernel_cases(f, rng):
    """(n, terms) cases for the contraction kernel: no terms, n = 0, seeded
    random terms and, over Q, large coprime denominators, mixed int and
    Fraction values of both signs, integral Fractions, and sums that cancel
    to an integer and to zero."""
    cases = [(0, []), (3, []), (0, [(f.one, ())]), (2, [(f.zero, (f.one, f.one))])]
    if f is QQ:
        big = [10 ** 9 + 7, 10 ** 9 + 9, 998244353, 2 ** 61 - 1]
        pool = [0, 0, 1, -1, 3, -7, Fraction(0), Fraction(4), Fraction(1, 2), Fraction(-2, 3),
                Fraction(5, 6), *(Fraction(rng.randint(-10 ** 12, 10 ** 12) or 1, d) for d in big)]
        third, sixth = Fraction(1, 3), Fraction(1, 6)
        cases += [
            (2, [(third, (1, 2)), (Fraction(2, 3), (1, 1))]),          # 1 and 4/3
            (3, [(sixth, (1, third, 5)), (-sixth, (1, third, -1))]),     # 0, 0 and 1
            (2, [(Fraction(1, big[0]), (1, big[1])), (Fraction(-1, big[0]), (1, big[1]))]),
            (1, [(Fraction(1, d), (1,)) for d in big] + [(Fraction(-1, d), (1,)) for d in big]),
            (2, [(Fraction(1, big[0]), (Fraction(1, big[1]), 1)),
                 (Fraction(1, big[2]), (1, Fraction(1, big[3])))]),
        ]
    else:
        pool = [0, 0, 1, f.p - 1, f.p // 2, rng.randrange(f.p)]
    for n in (1, 2, 5):
        for count in (1, 2, 6):
            cases.append((n, [(rng.choice(pool), tuple(rng.choice(pool) for _ in range(n)))
                              for _ in range(count)]))
    return cases


@pytest.mark.parametrize("f", [QQ, GF(5), GF(2), GF(2 ** 31 - 1)],
                         ids=["QQ", "GF5", "GF2", "GF2147483647"])
def test_fast_path_against_dense_fraction_oracle(f):
    """@, kron, inverse and combine against dense sums that skip nothing,
    so the identity pass-through of @ and the copied 0 and 1 blocks of kron
    meet near-identities, empty shapes, unit and non-integral left factors
    and public input that was not canonical. Over Q, integral operands give
    int entries, and every entry of each result is canonical: an int when
    integral and a reduced, non-integral Fraction otherwise."""
    for n, terms in _kernel_cases(f, random.Random(13)):
        got = f.combine(n, iter(terms))
        assert got == tuple(_oracle_combine(f, n, terms)), terms
        assert _canonical(f, got), got
    rng = random.Random(11)
    mats = _fast_path_matrices(f, rng)
    for A in mats:
        twin = Matrix(f, _uncanonical_twin(f, A, rng), cols=A.cols)
        assert twin == A and twin.data == A.data
        assert _canonical(f, (x for row in twin.data for x in row))
    products = krons = inverses = 0
    for A in mats:
        for B in mats:
            if A.cols == B.rows:
                AB = A @ B
                assert AB.shape() == (A.rows, B.cols)
                assert AB.data == tuple(map(tuple, _oracle_matmul(f, A, B)))
                assert _canonical(f, (x for row in AB.data for x in row))
                if all(type(x) is int for m in (A, B) for row in m.data for x in row):
                    assert all(type(x) is int for row in AB.data for x in row)
                products += 1
            if A.rows * B.rows <= 16:
                K = A.kron(B)
                assert K.shape() == (A.rows * B.rows, A.cols * B.cols)
                assert K.data == tuple(map(tuple, _oracle_kron(f, A, B)))
                assert _canonical(f, (x for row in K.data for x in row))
                krons += 1
        if A.rows == A.cols:
            try:
                inv = A.inverse()
            except SingularMatrixError:
                pass
            else:
                assert _oracle_matmul(f, A, inv) == [list(row) for row in
                                                     Matrix.identity(f, A.rows).data]
                assert _canonical(f, (x for row in inv.data for x in row))
                inverses += 1
        coeffs = [f.of(rng.choice([0, 0, 1, -2, 3])) for _ in range(A.rows)]
        want = [_to_field(f, sum((Fraction(c) * Fraction(row[k])
                                  for c, row in zip(coeffs, A.data)), Fraction(0)))
                for k in range(A.cols)]
        assert f.combine(A.cols, zip(coeffs, A.data)) == tuple(want)
        y = Matrix(f, [[f.of(rng.choice([0, 1, -3]))] for _ in range(A.cols)], cols=1)
        assert A.apply(tuple(x for x, in y.data)) == tuple(x for x, in _oracle_matmul(f, A, y))
    assert products > 50 and krons > 100 and inverses > 8


def _delta_oracle(f, m) -> bool:
    """m is square with entry (i, j) equal to 1 when i == j and 0 otherwise,
    entry by entry, in Fraction."""
    return m.rows == m.cols and all(Fraction(x) == (i == j) for i, row in enumerate(m.data)
                                    for j, x in enumerate(row))


@pytest.mark.parametrize("f", [QQ, GF(5), GF(2)], ids=["QQ", "GF5", "GF2"])
def test_shared_identities_against_a_delta_oracle(f):
    """Matrix.identity hands out one instance per (field, n), never one of
    another field. _is_identity, A @ I and I @ A agree with an entrywise
    Kronecker-delta oracle on the shared identities, on identity-valued
    products that are not the shared instance, on near-identities and on
    the 0x0, 0xn and nx0 shapes."""
    for n in range(5):
        ident = Matrix.identity(f, n)
        assert Matrix.identity(f, n) is ident and ident.field == f and ident.shape() == (n, n)
        assert _delta_oracle(f, ident)
        for other in {QQ, GF(5), GF(7), GF(2)} - {f}:
            assert Matrix.identity(other, n) is not ident
            assert Matrix.identity(other, n).field == other != ident.field
    rng = random.Random(17)
    mats = _fast_path_matrices(f, rng)
    valued = [A @ A.inverse() for A in mats if A.rows == A.cols and A.rows
              and _naive_rank(f, A.data, A.cols) == A.rows]
    assert len(valued) >= 5
    assert all(P is not Matrix.identity(f, P.rows) for P in valued)
    wide = [Matrix(f, [], cols=3), Matrix(f, [[]] * 3, cols=0)]
    identities = 0
    for A in [*mats, *valued, *wide]:
        assert A._is_identity() == _delta_oracle(f, A), A
        identities += A._is_identity()
        right, left = Matrix.identity(f, A.cols), Matrix.identity(f, A.rows)
        # @ returns its right operand when its left one is an identity
        for got, X, Y in ((A @ right, A, right), (left @ A, left, A)):
            assert got is (Y if X._is_identity() else X)
            assert got.data == tuple(map(tuple, _oracle_matmul(f, X, Y)))
        if A._is_identity():
            for B in mats:
                if B.rows == A.cols:
                    assert A @ B is B
    assert identities >= 5 + len(valued)


def _plain_loop_kron(f, A, B):
    """The Kronecker product by four plain loops and `field.mul`, with no
    block skipped or copied."""
    rows = [[f.mul(A.data[i][j], B.data[k][l]) for j in range(A.cols) for l in range(B.cols)]
            for i in range(A.rows) for k in range(B.rows)]
    return Matrix(f, rows, cols=A.cols * B.cols)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_kron_passes_the_right_factor_through_only_the_shared_1x1_identity(f):
    """kron against a plain-loop oracle: with the shared 1x1 identity on the
    left it returns the right factor itself; with a separately built [[1]],
    [[2]], the 0x0, 0xn and nx0 shapes or a dense 2x3 on the left it returns
    an equal new matrix."""
    rng = random.Random(f"kron-pass/{f.name}")

    def dense(rows, cols):
        return Matrix(f, [[rng.choice([1, 2, 3, -1, -2]) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)

    rights = [dense(2, 3), dense(3, 1), dense(1, 1), Matrix.identity(f, 2),
              Matrix(f, [], cols=2), Matrix(f, [[]] * 2, cols=0), Matrix.identity(f, 0)]
    shared = Matrix.identity(f, 1)
    lefts = [Matrix(f, [[1]]), Matrix(f, [[2]]), Matrix.identity(f, 0), Matrix(f, [], cols=3),
             Matrix(f, [[]] * 3, cols=0), dense(2, 3), dense(2, 3)]
    assert lefts[0] == shared and lefts[0] is not shared
    for B in rights:
        assert shared.kron(B) is B and B == _plain_loop_kron(f, shared, B)
        for A in lefts:
            got = A.kron(B)
            assert got == _plain_loop_kron(f, A, B), (A, B)
            assert got is not B and got is not A, (A, B)


def test_a_warm_evaluation_builds_no_identity(monkeypatch):
    """Evaluating an expression a second time builds no identity: its seeds
    are the shared instances the first evaluation built."""
    builds = []

    class CountingCache(dict):
        def __setitem__(self, key, m):
            builds.append(key)
            super().__setitem__(key, m)

    monkeypatch.setattr(linalg, "_IDENTITIES", CountingCache())
    tau = FormalHQFT(std_algebras(QQ)["KC.CM-Mod"])
    rng = random.Random(23)
    exprs = [random_expression(tau, rng) for _ in range(20)]
    cold = [eval_expression(tau, e).matrix for e in exprs]
    assert (QQ.name, 1) in builds
    builds.clear()
    assert [eval_expression(tau, e).matrix for e in exprs] == cold
    assert builds == []


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_a_warm_evaluation_hashes_no_field(field, monkeypatch):
    """The shared identities are keyed by the field's name: 20 warm
    evaluations of seeded expressions over K[C](CM-Mod) and K[P](CM-A3S3),
    whose seeds are identities of sizes 0, 1, 3 and 9, make no call to
    RationalField.__hash__ or PrimeField.__hash__."""
    rng = random.Random(f"warm-hash/{field.name}")
    for name in ("KC.CM-Mod", "KP.CM-A3S3"):
        tau = FormalHQFT(std_algebras(field)[name])
        exprs = [random_expression(tau, rng) for _ in range(20)]
        cold = [eval_expression(tau, e).matrix for e in exprs]
        calls = []
        for cls in (type(QQ), type(GF(5))):
            def counted(self, _hash=cls.__hash__):
                calls.append(self)
                return _hash(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        warm = [eval_expression(tau, e).matrix for e in exprs]
        monkeypatch.undo()
        assert warm == cold and calls == [], name


def _naive_det(f, rows):
    """Laplace expansion along the first row."""
    if not rows:
        return f.one
    acc = f.zero
    for j, a in enumerate(rows[0]):
        term = f.mul(a, _naive_det(f, [row[:j] + row[j + 1:] for row in rows[1:]]))
        acc = f.add(acc, term) if j % 2 == 0 else f.sub(acc, term)
    return acc


def _naive_rank(f, rows, ncols):
    """The size of the largest square minor with a nonzero determinant."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(ncols), k):
                if not f.is_zero(_naive_det(f, [[rows[r][c] for c in cs] for r in rs])):
                    return k
    return 0


def _random_matrices(f, rng):
    """Square, rectangular and empty shapes; each with at least two rows also
    comes with a singular twin whose last row combines the first two."""
    shapes = [(n, n) for n in range(1, 5)] * 3
    shapes += [(2, 3), (3, 2), (4, 2), (2, 4), (3, 5), (0, 3), (3, 0), (0, 0)]
    for rows, cols in shapes:
        data = [[f.of(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        yield Matrix(f, data, cols=cols)
        if rows >= 2:
            k = f.of(rng.randint(-2, 2))
            data[-1] = [f.add(a, f.mul(k, b)) for a, b in zip(data[0], data[1])]
            yield Matrix(f, data, cols=cols)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_elimination_against_naive_rank(f):
    rng = random.Random(7)
    for A in _random_matrices(f, rng):
        rank = _naive_rank(f, A.data, A.cols)
        if A.rows == A.cols and rank == A.rows:
            inv = A.inverse()
            assert A @ inv == Matrix.identity(f, A.rows) == inv @ A
        else:
            with pytest.raises(SingularMatrixError):
                A.inverse()
        y = tuple(f.of(rng.randint(-2, 2)) for _ in range(A.cols))
        for b in (A.apply(y), tuple(f.of(rng.randint(-2, 2)) for _ in range(A.rows))):
            in_span = _naive_rank(f, [row + (x,) for row, x in zip(A.data, b)], A.cols + 1) == rank
            x = A.solve(b)
            assert (x is not None) == in_span
            assert x is None or A.apply(x) == b
        null = A.nullspace()
        assert len(null) == A.cols - rank
        assert all(A.apply(v) == (f.zero,) * A.rows for v in null)
        assert _naive_rank(f, null, A.cols) == len(null)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_rowspace_against_naive_rank(f):
    """add grows the space exactly when the Laplace-minor rank grows, a zero
    residue under reduce agrees with that rank, and the basis stays in
    reduced row-echelon form."""
    rng = random.Random(9)
    for n in range(6):
        space, independent = RowSpace(f, n), []
        for _ in range(3 * n + 2):
            pick = rng.random()
            if pick < 0.2:
                v = (f.zero,) * n
            elif pick < 0.5 and len(independent) >= 2:
                a, b = rng.sample(independent, 2)
                k = f.of(rng.randint(-2, 2))
                v = tuple(f.add(x, f.mul(k, y)) for x, y in zip(a, b))
            else:
                v = tuple(f.of(rng.randint(-2, 2)) for _ in range(n))
            grows = _naive_rank(f, independent + [v], n) > len(independent)
            assert any(space.reduce(v)) == grows
            assert space.add(v) == grows
            if grows:
                independent.append(v)
            assert space.dim == len(independent) == _naive_rank(f, space.basis, n)
            assert space.pivots == sorted(space.pivots)
            for r, (row, p) in enumerate(zip(space.basis, space.pivots)):
                assert row[p] == f.one and all(f.is_zero(x) for x in row[:p])
                assert all(f.is_zero(other[p]) for s, other in enumerate(space.basis) if s != r)
            assert not any(x for v in independent for x in space.reduce(v))
        # a wrong length, on the filled space and on an empty one
        for wrong in [(f.one,) * (n + 1)] + [(f.one,) * (n - 1)] * (n > 0):
            for target in (space, RowSpace(f, n)):
                with pytest.raises(ValueError):
                    target.add(wrong)
                with pytest.raises(ValueError):
                    target.reduce(wrong)


@pytest.mark.parametrize("f", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_rowspace_add_in_span_eliminates_nothing(f, monkeypatch):
    """A vector in the span reduces to zero: add returns False without
    re-eliminating and leaves the basis and pivots as they were. A vector
    outside it eliminates once."""
    space = RowSpace(f, 4)
    for v in ((1, 2, 0, 1), (0, 1, 1, 2)):
        assert space.add(tuple(f.of(x) for x in v))
    basis, pivots = space.basis, space.pivots
    saved = (list(basis), list(pivots))
    calls = []
    eliminate = Matrix._eliminate

    def counted(self, *args):
        calls.append(self)
        return eliminate(self, *args)

    monkeypatch.setattr(Matrix, "_eliminate", counted)
    in_span = tuple(f.add(f.mul(f.of(2), a), f.neg(b)) for a, b in zip(*space.basis))
    for v in (in_span, (f.zero,) * 4):
        assert not space.add(v)
    assert space.basis is basis and space.pivots is pivots
    assert (space.basis, space.pivots) == saved
    assert calls == []
    with pytest.raises(ValueError, match="vector length mismatch"):
        space.add((f.one,) * 3)
    assert space.add((f.zero, f.zero, f.zero, f.one)) and space.dim == 3
    assert len(calls) == 1


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_elimination_is_combine_calls(f, monkeypatch):
    """inverse, solve, nullspace and RowSpace.add make no `mul` or `sub`
    call: each row operation of the elimination is one `combine`, and a
    pivot row whose pivot is already one is not scaled by a one-term
    `combine`."""
    rng = random.Random(11)
    matrices = [Matrix(f, [[f.div(f.of(rng.randint(-2, 2)), f.of(rng.choice((1, 2, 3))))
                            for _ in range(cols)] for _ in range(rows)], cols=cols)
                for rows, cols in [(n, n) for n in range(1, 5)] * 3 + [(2, 4), (4, 2), (3, 3)]]
    expected = [(A.inverse() if _naive_rank(f, A.data, A.cols) == A.rows == A.cols else None,
                 A.nullspace()) for A in matrices]

    def refused(*args):
        raise AssertionError("a per-entry mul or sub in the elimination")

    combine, scalings = f.combine, []

    def combine_in_elimination(n, terms):
        if sys._getframe(1).f_code is Matrix._eliminate.__code__:
            terms = list(terms)
            assert terms[0][0] != f.one or len(terms) > 1, "a pivot row scaled by one"
            scalings.append(len(terms) == 1)
        return combine(n, terms)

    monkeypatch.setattr(f, "mul", refused)
    monkeypatch.setattr(f, "sub", refused)
    monkeypatch.setattr(f, "combine", combine_in_elimination)
    for A, (inv, null) in zip(matrices, expected):
        if inv is not None:
            assert A.inverse() == inv
        assert A.nullspace() == null
        b = A.apply(tuple(f.one for _ in range(A.cols)))
        assert A.apply(A.solve(b)) == b
        space = RowSpace(f, A.cols)
        for row in A.data:
            space.add(row)
        assert space.dim == A.cols - len(null)
    assert sum(inv is not None for inv, _ in expected) >= 5
    assert any(scalings)


def test_unit_vector():
    assert unit_vector(QQ, 3, 1) == (QQ.of(0), QQ.of(1), QQ.of(0))


def test_dual_basis_on_every_fixture_grade_block():
    from crossmod.fixtures import fixture_algebra_names, std_algebras
    algs = std_algebras(QQ)
    for name in fixture_algebra_names():
        L = algs[name]
        for g in L.P.elements():
            if L.dims[g] == 0:
                continue
            assert L.rho[g] @ L.rho[g].inverse() == Matrix.identity(QQ, L.dims[g])
