"""Seeded change of basis for every grade of a crossed algebra over Q.

The gauge algebra is isomorphic to the original, but its structure data is
dense and non-integral where the group basis is sparse 0/1 data, so the two
bases put different loads on the matrix and scalar layers.
"""

from __future__ import annotations

import random
from fractions import Fraction

import exact
from crossmod.algebras import CrossedCAlgebra
from crossmod.linalg import Matrix

_ENTRIES = [Fraction(a, b) for a in range(-2, 3) for b in (1, 2, 3)]
_NONZERO = [x for x in set(_ENTRIES) if x]


CANDIDATES = 9


def _bits(m):
    return sum(abs(x.numerator).bit_length() + x.denominator.bit_length()
               for row in m for x in row)


def random_invertible(rng: random.Random, n: int):
    """An n x n rational matrix with small entries and its inverse.

    Of several invertible draws, the one of median size (bits of the matrix
    and its inverse) is kept: the cost of gauge-basis arithmetic follows
    that size, and the median keeps it nearly the same from seed to seed."""
    pool = sorted(set(_ENTRIES))
    nonzero = sorted(_NONZERO)
    drawn = []
    while len(drawn) < CANDIDATES:
        if n == 1:
            m = [[rng.choice(nonzero)]]
        else:
            m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        try:
            inv = exact.inverse(m)
        except ZeroDivisionError:
            continue
        drawn.append((_bits(m) + _bits(inv), len(drawn), m, inv))
    _, _, m, inv = sorted(drawn)[CANDIDATES // 2]
    return m, inv


def gauge_transform(L: CrossedCAlgebra, rng: random.Random, name=None):
    """Carry mul, unit, rho, phi and tilde into the basis whose vectors are
    the columns of a random invertible S_g in each grade g.

    Returns the new algebra and the basis change {g: S_g}."""
    P, C, cm, f = L.P, L.C, L.cm, L.field
    S, Sinv = {}, {}
    for g in P.elements():
        S[g], Sinv[g] = random_invertible(rng, L.dims[g]) if L.dims[g] else ([], [])

    def new_coords(g, vec):
        return tuple(sum((Sinv[g][i][k] * vec[k] for k in range(len(vec)) if vec[k]),
                         Fraction(0)) for i in range(L.dims[g]))

    mul = {}
    for g in P.elements():
        for h in P.elements():
            gh = P.mul(g, h)
            dg, dh, dgh = L.dims[g], L.dims[h], L.dims[gh]
            old = L.mul[(g, h)]
            # contract one index at a time: O(n^4) rather than O(n^5)
            t1 = [[[sum((S[g][a][i] * old[a][b][k] for a in range(dg)), Fraction(0))
                    for k in range(dgh)] for b in range(dh)] for i in range(dg)]
            t2 = [[[sum((S[h][b][j] * t1[i][b][k] for b in range(dh)), Fraction(0))
                    for k in range(dgh)] for j in range(dh)] for i in range(dg)]
            mul[(g, h)] = [[list(new_coords(gh, t2[i][j])) for j in range(dh)]
                           for i in range(dg)]
    rho = {}
    for g in P.elements():
        ginv = P.inv[g]
        if L.dims[g] == 0:
            rho[g] = Matrix(f, [], cols=L.dims[ginv])
            continue
        St = [list(col) for col in zip(*S[g])]
        rho[g] = Matrix(f, _q(exact.matmul(exact.matmul(St, L.rho[g].data), S[ginv])),
                        cols=L.dims[ginv])
    phi = {}
    for (h, g), m in L.phi.items():
        tgt = P.conj(h, g)
        if L.dims[tgt] == 0 or L.dims[g] == 0:
            phi[(h, g)] = Matrix(f, [[f.zero] * L.dims[g] for _ in range(L.dims[tgt])],
                                 cols=L.dims[g])
            continue
        phi[(h, g)] = Matrix(f, _q(exact.matmul(exact.matmul(Sinv[tgt], m.data), S[g])),
                             cols=L.dims[g])
    unit = new_coords(0, L.unit)
    tilde = [new_coords(cm.d(c), L.tilde[c]) for c in C.elements()]
    names = [[f"{n}'" for n in L.basis_names[g]] for g in P.elements()]
    algebra = CrossedCAlgebra(name or f"gauge({L.name})", cm, f, L.dims, names,
                              mul, unit, rho, phi, tilde)
    return algebra, S


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]
