"""Cross-field oracle: reduction mod p is a ring map from the rationals
whose denominators p does not divide onto GF(p), so every polynomial
identity commutes with it. So each algebra over Q below, reduced mod p
wherever p divides no denominator of its structure maps, is a crossed
algebra over GF(p), and the evaluator over GF(p) gives the reduction of
the value over Q: the two fields' kernels are compared through every
layer, with no second implementation."""

import functools
import random

import pytest

from crossmod.algebras import CrossedCAlgebra, check_crossed_algebra
from crossmod.fields import GF, QQ
from crossmod.fixtures import std_algebras
from crossmod.hqft import FormalHQFT, eval_expression, random_expression
from crossmod.linalg import Matrix
from test_checker_oracle import _entries
from test_golden import GAUGED, _gauged

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
        report = check_crossed_algebra(R)
        assert report.ok, report.summary()
        tau_p = FormalHQFT(R)
        rng = random.Random(f"cross-field/{L.name}/{index}/{p}")
        for _ in range(30):
            e = random_expression(tau, rng)
            want = _reduce_matrix(R.field, eval_expression(tau, e).matrix)
            assert eval_expression(tau_p, e).matrix == want, (L.name, p, e)
