"""Cross-field oracle: reduction mod p is a ring map from the rationals
whose denominators p does not divide onto GF(p), so every polynomial
identity commutes with it. So each algebra over Q below, reduced mod p
wherever p divides no denominator of its structure maps, is a crossed
algebra over GF(p), and the evaluator over GF(p) gives the reduction of
the value over Q: the two fields' kernels are compared through every
layer, with no second implementation. The `linalg` golden section's
matrices over Q, reduced the same way, give the reductions of their
inverses, solutions, nullspaces and row spaces, unless the reduction drops
a rank, which is recorded as a finding. So do the pushforwards along the
quotients of Z/n by each of its subgroups: each build over Q, reduced mod
p, is the same build over GF(p)."""

import functools
import random
from fractions import Fraction

import pytest

from crossmod.algebras import (
    CrossedCAlgebra,
    aut_square_check,
    check_boxed_identities,
    check_crossed_algebra,
    group_algebra_C,
    group_algebra_P,
    pushforward_data,
)
from crossmod.crossed_modules import from_normal_inclusion, quotient_morphism
from crossmod.fields import GF, QQ
from crossmod.fixtures import std_algebras
from crossmod.hqft import FormalHQFT, eval_expression, random_expression
from crossmod.groups import cyclic_group
from crossmod.linalg import Matrix, RowSpace, SingularMatrixError
from crossmod.serialize import to_doc
from test_checker_oracle import _entries
from test_golden import GAUGED, PUSH_MAX_N, _gauged, linalg_inputs

PRIMES = (5, 7, 11, 13, 101)


@functools.lru_cache(maxsize=None)
def _algebras():
    """The fixture algebras over Q and the gauge bases of the `evaluator`
    golden section."""
    return [*std_algebras(QQ).values(), *_gauged()]


def _reduce(F, x):
    n, d = x.as_integer_ratio()
    return F.div(F.of(n), F.of(d))


def _reduce_matrix(F, m):
    return Matrix(F, [[_reduce(F, x) for x in row] for row in m.data], cols=m.cols)


def reduced(L, p):
    """L over GF(p): every structure constant reduced mod p."""
    F = GF(p)
    return CrossedCAlgebra(
        f"{L.name} mod {p}", L.cm, F, L.dims, L.basis_names,
        {key: [[[_reduce(F, x) for x in cell] for cell in row] for row in block]
         for key, block in L.mul.items()},
        [_reduce(F, x) for x in L.unit],
        {g: _reduce_matrix(F, m) for g, m in L.rho.items()},
        {key: _reduce_matrix(F, m) for key, m in L.phi.items()},
        [[_reduce(F, x) for x in v] for v in L.tilde])


# algebra index -> the primes that divide a denominator of its structure
# maps: the second gauge basis of KC.CM-Mod has 11 in one
SKIPPED = {13: [11]}


@pytest.mark.parametrize("index", range(len(std_algebras(QQ)) + len(GAUGED)))
def test_reduction_mod_p_commutes_with_the_checker_and_the_evaluator(index):
    L = _algebras()[index]
    tau = FormalHQFT(L)
    skipped = [p for p in PRIMES if any(x.as_integer_ratio()[1] % p == 0 for x in _entries(L))]
    assert skipped == SKIPPED.get(index, [])
    for p in (p for p in PRIMES if p not in skipped):
        R = reduced(L, p)
        for check in (check_crossed_algebra, check_boxed_identities, aut_square_check):
            report = check(R)
            assert report.ok, report.summary()
        tau_p = FormalHQFT(R)
        rng = random.Random(f"cross-field/{L.name}/{index}/{p}")
        for _ in range(30):
            e = random_expression(tau, rng)
            want = _reduce_matrix(R.field, eval_expression(tau, e).matrix)
            assert eval_expression(tau_p, e).matrix == want, (L.name, p, e)


def _linalg_results(m, rhs, vecs):
    """What the `linalg` section asks of m: its inverse (None when
    singular), one solution of each right-hand side (None when there is
    none), its nullspace, and the verdict and basis of each `RowSpace.add`
    of the vectors in turn."""
    try:
        inverse = m.inverse().data
    except SingularMatrixError:
        inverse = None
    space, added = RowSpace(m.field, m.cols), []
    for vec in vecs:
        added.append((space.add(vec), tuple(space.basis)))
    return {"inverse": inverse, "solve": [m.solve(b) for b in rhs],
            "nullspace": m.nullspace(), "rowspace": added}


def _ranks(m, results):
    """The ranks behind the results: of m, whether each [m | b] has a rank
    above m's (no solution), and of the row space after each add."""
    return (m.cols - len(results["nullspace"]), [x is None for x in results["solve"]],
            [len(basis) for _, basis in results["rowspace"]])


def _scalars(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _scalars(y)
    elif x is not None and type(x) is not bool:
        yield x


def _mapped(fn, x):
    """x with every scalar mapped by fn, every sequence made a tuple and
    None and every verdict kept."""
    if isinstance(x, dict):
        return {key: _mapped(fn, y) for key, y in x.items()}
    if isinstance(x, (tuple, list)):
        return tuple(_mapped(fn, y) for y in x)
    return x if x is None or type(x) is bool else fn(x)


# p -> the indices of the `linalg` section's Q inputs where p divides a
# denominator of an entry, of a vector or of a result over Q
LINALG_SKIPPED = {5: [21, 35, 38], 7: [17], 11: [], 13: [25], 101: []}

# findings: (index, p) -> the ranks over Q and over GF(p) of the inputs
# whose reduction drops a rank although p divides no denominator met
LINALG_RANK_DROPS = {
    # a 5x2 dense matrix of rank 2: its first two rows are dependent mod 7,
    # so the second add is refused there
    (32, 7): ((2, [False, True], [1, 2, 2, 2, 2, 2]), (2, [False, True], [1, 1, 2, 2, 2, 2])),
    # a 3x4 matrix of rank 2: the seeded right-hand side is outside its
    # column space over Q and inside it mod 11
    (37, 11): ((2, [False, True], [1, 2, 2, 3]), (2, [False, False], [1, 2, 2, 3])),
}


def test_linalg_over_q_reduces_to_gf_p():
    """For each Q input of the `linalg` section and each p that divides no
    denominator met (of the input or of a result over Q), `inverse`,
    `solve`, `nullspace` and `RowSpace.add` over GF(p) give the reductions
    of their results over Q, wherever no rank drops mod p; where one drops,
    it only drops, and the case is one of the recorded findings."""
    inputs = list(linalg_inputs(QQ))
    assert len(inputs) == 41
    skipped, drops = {p: [] for p in PRIMES}, {}
    for index, (kind, m, rhs, vecs) in enumerate(inputs):
        # the last right-hand side and vector have the wrong length
        rhs, vecs = rhs[:-1], vecs[:-1]
        want = _linalg_results(m, rhs, vecs)
        denominators = {Fraction(x).denominator for x in _scalars([m.data, rhs, vecs, want])}
        for p in PRIMES:
            if any(d % p == 0 for d in denominators):
                skipped[p].append(index)
                continue
            F = GF(p)
            got = _linalg_results(_reduce_matrix(F, m),
                                  *_mapped(functools.partial(_reduce, F), [rhs, vecs]))
            ranks = (_ranks(m, want), _ranks(m, got))
            if ranks[0] != ranks[1]:
                (rank_q, none_q, dims_q), (rank_p, none_p, dims_p) = ranks
                assert rank_p <= rank_q and all(a <= b for a, b in zip(dims_p, dims_q))
                # a system with a solution over Q has its reduction mod p
                assert not any(np and not nq for nq, np in zip(none_q, none_p)), (index, p)
                drops[(index, p)] = ranks
                continue
            assert _mapped(functools.partial(_reduce, F), want) == _mapped(int, got), \
                (index, kind, p)
    assert skipped == LINALG_SKIPPED
    assert drops == LINALG_RANK_DROPS


def _pushforward(fmor, L):
    """`pushforward_data(fmor, L)`, or the type and text of its refusal."""
    try:
        return pushforward_data(fmor, L)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _reduced_pushforward(data, F):
    """What a pushforward build gave, every scalar reduced into F (which
    raises ZeroDivisionError where p divides a denominator): the algebra's
    document without its name and field, each class's ideal dimension, its
    free basis and the quotient maps; a refusal as it is."""
    if isinstance(data, tuple):
        return data
    doc = to_doc("algebra", reduced(data.algebra, F.p))
    del doc["name"], doc["field"]
    return (doc, [data.spans[q].dim for q in data.algebra.P.elements()], data.free,
            [_reduce_matrix(F, data.pis[p]).to_json() for p in data.source.P.elements()])


# (n, k, kind, p) -> (the reduction of the result over Q, the result over
# GF(p)) where they differ. Every pushforward of K[P] or K[C] along the
# quotient of Z/n by kZ/n builds over Q with integral entries and grades of
# dimension 1, and none differs.
PUSHFORWARD_FINDINGS = {}


@pytest.mark.parametrize("n", range(1, PUSH_MAX_N + 1))
def test_pushforward_over_q_reduces_to_gf_p(n):
    """Along the quotient of Z/n by each subgroup kZ/n (the `pushforward`
    golden section's inputs), K[P] and K[C] over Q pushed forward and
    reduced mod p give the pushforward of K[P] and K[C] over GF(p): the
    algebra, the ideal dimensions, the free basis and the quotient maps, or
    the same refusal."""
    findings = {}
    for k in (k for k in range(1, n + 1) if n % k == 0):
        cm = from_normal_inclusion(cyclic_group(n), range(0, n, k))
        fmor = quotient_morphism(cm)
        for kind, build in (("K[P]", group_algebra_P), ("K[C]", group_algebra_C)):
            over_q = _pushforward(fmor, build(cm, QQ))
            for p in PRIMES:
                F = GF(p)
                want = _reduced_pushforward(over_q, F)
                got = _reduced_pushforward(_pushforward(fmor, build(cm, F)), F)
                if got != want:
                    findings[(n, k, kind, p)] = (want, got)
    assert findings == {key: value for key, value in PUSHFORWARD_FINDINGS.items()
                        if key[0] == n}
