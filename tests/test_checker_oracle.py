"""The exhaustive checkers against a slow oracle.

All three checkers read the same tables off the algebra with its
denominators cleared, each stored vector packed into one int with
fixed-width slots: basis products and action images from the structure
maps, rows of rho, the unit and each tilde(c), each with its support read
off its entries. They sum packed vectors over the supports of the vectors
they multiply (taking a one-term support with value 1 as the stored vector
itself) and compare the sides of an axiom as ints, over GF(p) by their
slots mod p when the ints differ. check_crossed_algebra also sums the trace
axiom's structure constants directly and composes the action blocks column
by column; check_boxed_identities and aut_square_check keep each theta(c, g)
as its packed columns with their supports and compare both sides of an
identity column by column, with no Matrix built. The oracle below keeps
the direct loops that multiply unit vectors with `multiply` and `pairing`
(which call the field's `combine`, not the packed tables), takes the torus
traces of products of left multiplication matrices, composes the action
blocks with one Matrix product per instance, rebuilds theta as a Matrix for
every instance, and multiplies and conjugates basis vectors one at a time,
on the algebra as given. Both must give byte-identical reports on the
fixtures, on seeded changes of basis, on diagonal changes of basis by large
primes, on seeded one-entry corruptions and on random structure maps whose
paired grades differ in dimension, over Q, GF(5) and GF(2**31 - 1), and on
K[C] of the check-ladder benchmark's crossed modules in seeded gauge bases.
The packing rule itself (round trips at the widest slots, a slot that
differs by p, a grade of dimension 0, the slot width) has tests of its own.

check_algebra_morphism reads each basis product as a stored cell and each
image of a basis vector as a block column; its oracle sums structure
constants and block entries in plain loops, one scalar at a time.
"""

import copy
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from crossmod.algebras import (
    CrossedAlgebraMorphism,
    CrossedCAlgebra,
    _differ,
    _nonzero,
    _pack,
    _slots,
    _tables,
    aut_square_check,
    check_algebra_morphism,
    check_boxed_identities,
    check_crossed_algebra,
    group_algebra_C,
    pushforward_data,
    theta,
    untranspose_to_pushforward,
)
from crossmod.crossed_modules import (
    crossed_module,
    from_module,
    from_normal_inclusion,
    identity_morphism,
)
from crossmod.fields import GF, QQ
from crossmod.fixtures import fixture_algebra_names, std_algebras, std_morphisms
from crossmod.groups import (
    GroupHomomorphism,
    action,
    cyclic_group,
    trivial_action,
    trivial_group,
)
from crossmod.linalg import Matrix, SingularMatrixError, unit_vector
from crossmod.report import CheckReport

# GF(2**31 - 1) is the largest prime field below fields.MAX_MODULUS, so its
# residues fill 31 bits and the checkers' slots are at their widest
FIELDS = {"QQ": QQ, "GF5": GF(5), "GF2147483647": GF(2 ** 31 - 1)}


# --------------------------------------------------------------------------
# the oracle: unit vectors through multiply, pairing and theta
# --------------------------------------------------------------------------

def _units(L, g):
    return [(L.basis_names[g][i], unit_vector(L.field, L.dims[g], i)) for i in range(L.dims[g])]


def slow_unit(L, nonzero):
    fails = []
    for g in nonzero:
        for name, e in _units(L, g):
            if L.multiply(0, L.unit, g, e) != e:
                fails.append((f"1*{name}", "left unit fails"))
            if L.multiply(g, e, 0, L.unit) != e:
                fails.append((f"{name}*1", "right unit fails"))
    return fails


def slow_associativity(L, nonzero):
    P, fails = L.P, []
    for g, h, k in itertools.product(nonzero, repeat=3):
        gh, hk = P.mul(g, h), P.mul(h, k)
        for ni, ei in _units(L, g):
            for nj, ej in _units(L, h):
                ij = L.multiply(g, ei, h, ej)
                for nl, el in _units(L, k):
                    lhs = L.multiply(gh, ij, k, el)
                    rhs = L.multiply(g, ei, hk, L.multiply(h, ej, k, el))
                    if lhs != rhs:
                        fails.append((f"({ni},{nj},{nl})", "associativity fails"))
    return fails


def slow_rho_invariant(L, nonzero):
    P, fails = L.P, []
    for g, h in itertools.product(nonzero, repeat=2):
        gh = P.mul(g, h)
        ghinv = P.inv[gh]
        for ni, ei in _units(L, g):
            for nj, ej in _units(L, h):
                for nk, ek in _units(L, ghinv):
                    lhs = L.pairing(gh, L.multiply(g, ei, h, ej), ek)
                    rhs = L.pairing(g, ei, L.multiply(h, ej, ghinv, ek))
                    if lhs != rhs:
                        fails.append((f"({ni},{nj},{nk})", "rho(ab,c) != rho(a,bc)"))
    return fails


def slow_phi_multiplicative(L, nonzero):
    P, fails = L.P, []
    for h in P.elements():
        if L.phi[(h, 0)].apply(L.unit) != L.unit:
            fails.append((f"h={P.names[h]}", "phi_h(1) != 1"))
        for g1, g2 in itertools.product(nonzero, repeat=2):
            g12 = P.mul(g1, g2)
            for ni, ei in _units(L, g1):
                for nj, ej in _units(L, g2):
                    lhs = L.phi[(h, g12)].apply(L.multiply(g1, ei, g2, ej))
                    rhs = L.multiply(P.conj(h, g1), L.phi[(h, g1)].apply(ei),
                                     P.conj(h, g2), L.phi[(h, g2)].apply(ej))
                    if lhs != rhs:
                        fails.append((f"(h={P.names[h]},{ni},{nj})",
                                      "phi_h(xy) != phi_h(x) phi_h(y)"))
    return fails


def slow_phi_homomorphism(L, nonzero):
    """One Matrix product per (h, k, g)."""
    P, fails = L.P, []
    for g in P.elements():
        if L.phi[(0, g)] != Matrix.identity(L.field, L.dims[g]):
            fails.append((f"g={P.names[g]}", "phi_1 is not the identity"))
    for h, k in itertools.product(P.elements(), repeat=2):
        for g in nonzero:
            if L.phi[(h, P.conj(k, g))] @ L.phi[(k, g)] != L.phi[(P.mul(h, k), g)]:
                fails.append((f"(h={P.names[h]},k={P.names[k]},g={P.names[g]})",
                              "phi_h phi_k != phi_hk"))
    return fails


def slow_twisted_commutativity(L, nonzero):
    P, fails = L.P, []
    for g, h in itertools.product(nonzero, repeat=2):
        for na, a in _units(L, g):
            fa = L.phi[(h, g)].apply(a)
            for nb, b in _units(L, h):
                if L.multiply(P.conj(h, g), fa, h, b) != L.multiply(h, b, g, a):
                    fails.append((f"(a={na},b={nb})", "phi_h(a)b != ba"))
    return fails


def torus_traces(L, g, h, c_vec):
    """Both traces of the torus-compatibility condition for a vector c in the
    commutator grade of (g, h): tr(x |-> c phi_h(x)) on L_g and
    tr(x |-> phi_{g^-1}(c x)) on L_h, from left multiplication matrices.
    They agree on a valid algebra."""
    P = L.P
    comm = P.commutator(g, h)
    m1 = L.left_mul_matrix(comm, c_vec, P.conj(h, g)) @ L.phi[(h, g)]
    m2 = L.phi[(P.inv[g], P.conj(g, h))] @ L.left_mul_matrix(comm, c_vec, h)
    f = L.field
    return tuple(functools.reduce(f.add, (m.data[i][i] for i in range(m.rows)), f.zero)
                 for m in (m1, m2))


def slow_trace(L, nonzero):
    P, fails = L.P, []
    for g, h in itertools.product(nonzero, repeat=2):
        for nt, t in _units(L, P.commutator(g, h)):
            t1, t2 = torus_traces(L, g, h, t)
            if t1 != t2:
                fails.append((f"(g={P.names[g]},h={P.names[h]},c={nt})", "trace axiom fails"))
    return fails


def slow_tilde_multiplicative(L, nonzero):
    C, d, fails = L.C, L.cm.d, []
    for c2, c in itertools.product(C.elements(), repeat=2):
        if L.tilde[C.mul(c2, c)] != L.multiply(d(c2), L.tilde[c2], d(c), L.tilde[c]):
            fails.append((f"(c'={C.names[c2]},c={C.names[c]})",
                          "tilde(c'c) != tilde(c') tilde(c)"))
    return fails


def slow_tilde_equivariant(L, nonzero):
    P, C, d, fails = L.P, L.C, L.cm.d, []
    for h, c in itertools.product(P.elements(), C.elements()):
        if L.phi[(h, d(c))].apply(L.tilde[c]) != L.tilde[L.cm.action(h, c)]:
            fails.append((f"(h={P.names[h]},c={C.names[c]})", "phi_h(tilde c) != tilde(^h c)"))
    return fails


SLOW_FAMILIES = {
    "unit": slow_unit,
    "associativity": slow_associativity,
    "rho_invariant": slow_rho_invariant,
    "phi_homomorphism": slow_phi_homomorphism,
    "phi_multiplicative": slow_phi_multiplicative,
    "twisted_commutativity": slow_twisted_commutativity,
    "trace": slow_trace,
    "tilde_multiplicative": slow_tilde_multiplicative,
    "tilde_equivariant": slow_tilde_equivariant,
}


def slow_crossed_report(L, fast: CheckReport) -> CheckReport:
    """The report of check_crossed_algebra with every family that reads its
    tables or supports recomputed by the oracle; the other families are
    copied from `fast`, so their order and subject are compared too."""
    slow = CheckReport(fast.subject)
    if fast.results[0].ok:      # well formed: every family ran
        assert set(SLOW_FAMILIES) <= {r.axiom for r in fast.results}
    nonzero = [g for g in L.P.elements() if L.dims[g] > 0]
    for r in fast.results:
        if r.axiom in SLOW_FAMILIES:
            slow.add(r.axiom, SLOW_FAMILIES[r.axiom](L, nonzero))
        else:
            slow.results.append(r)
    return slow


def slow_boxed_report(L) -> CheckReport:
    report = CheckReport(f"boxed identities for {L.name}")
    P, C, d = L.P, L.C, L.cm.d

    fails = []
    for c2, c, g in itertools.product(C.elements(), C.elements(), P.elements()):
        lhs = theta(L, C.mul(c2, c), g)
        rhs = theta(L, c2, P.mul(d(c), g)) @ theta(L, c, g)
        if lhs != rhs:
            fails.append((f"(c'={C.names[c2]},c={C.names[c]},g={P.names[g]})",
                          "theta(c'c,g) != theta(c',dc*g) theta(c,g)"))
    report.add("theta_composition", fails)

    fails = []
    for c, g in itertools.product(C.elements(), P.elements()):
        gc = L.cm.action(g, c)
        if any(L.multiply(g, x, d(c), L.tilde[c]) != L.multiply(d(gc), L.tilde[gc], g, x)
               for _, x in _units(L, g)):
            fails.append((f"(c={C.names[c]},g={P.names[g]})", "x tilde(c) != tilde(^g c) x"))
    report.add("theta_translation", fails)

    fails = []
    for c, g in itertools.product(C.elements(), P.elements()):
        dcg = P.mul(d(c), g)
        lhs = theta(L, c, g).transpose() @ L.rho[dcg]
        rhs = L.rho[g] @ theta(L, L.cm.action(P.inv[g], c), P.inv[dcg])
        if lhs != rhs:
            fails.append((f"(c={C.names[c]},g={P.names[g]})",
                          "rho(tilde(c) x, y) != rho(x, tilde(^{g^-1}c) y)"))
    report.add("theta_rho", fails)

    fails = []
    for c, g, h in itertools.product(C.elements(), P.elements(), P.elements()):
        lhs = L.phi[(h, P.mul(d(c), g))] @ theta(L, c, g)
        rhs = theta(L, L.cm.action(h, c), P.conj(h, g)) @ L.phi[(h, g)]
        if lhs != rhs:
            fails.append((f"(c={C.names[c]},g={P.names[g]},h={P.names[h]})",
                          "phi_h theta(c,g) != theta(^h c, ^h g) phi_h"))
    report.add("theta_phi", fails)
    return report


def slow_aut_square_report(L) -> CheckReport:
    report = CheckReport(f"units/automorphisms square for {L.name}")
    P, C, d = L.P, L.C, L.cm.d

    fails = []
    for c in C.elements():
        cinv = C.inv[c]
        if L.multiply(d(c), L.tilde[c], d(cinv), L.tilde[cinv]) != L.unit or \
                L.multiply(d(cinv), L.tilde[cinv], d(c), L.tilde[c]) != L.unit:
            fails.append((f"c={C.names[c]}", "tilde(c) is not a unit"))
    report.add("tilde_units", fails)

    fails = []
    for c, g in itertools.product(C.elements(), P.elements()):
        cinv, dcg = C.inv[c], P.mul(d(c), g)
        if any(L.multiply(dcg, L.multiply(d(c), L.tilde[c], g, x), d(cinv), L.tilde[cinv])
               != L.phi[(d(c), g)].apply(x) for _, x in _units(L, g)):
            fails.append((f"(c={C.names[c]},g={P.names[g]})",
                          "conjugation by tilde(c) != phi_{d(c)}"))
    report.add("delta_tilde_equals_phi_boundary", fails)

    fails = []
    for p, c in itertools.product(P.elements(), C.elements()):
        if L.phi[(p, d(c))].apply(L.tilde[c]) != L.tilde[L.cm.action(p, c)]:
            fails.append((f"(p={P.names[p]},c={C.names[c]})", "phi_p(tilde c) != tilde(^p c)"))
    report.add("square_equivariance", fails)
    return report


# --------------------------------------------------------------------------
# test algebras: fixtures, crossed modules with two-dimensional grades,
# seeded changes of basis and seeded corruptions
# --------------------------------------------------------------------------

def doubling_module(n, invert):
    """Z/n --x2--> Z/n (n even); the base acts trivially, or by inversion
    through its parity, which fixes the image {0, 2, ...} of the boundary."""
    z = cyclic_group(n)
    if invert:
        act = action(z, z, [[(-c if p % 2 else c) % n for c in range(n)] for p in range(n)])
    else:
        act = trivial_action(z, z)
    # crossed_module checks the boundary homomorphism
    return crossed_module(f"Z{n}-x2-Z{n}", z, z,
                          GroupHomomorphism(z, z, tuple(2 * c % n for c in range(n))), act)


def random_invertible(f, n, rng):
    if n == 0:
        return Matrix.identity(f, 0), Matrix.identity(f, 0)
    while True:
        m = Matrix(f, [[f.div(f.of(rng.randint(-2, 2)), f.of(rng.choice((1, 2, 3))))
                        for _ in range(n)] for _ in range(n)])
        try:
            return m, m.inverse()
        except SingularMatrixError:
            continue


def gauge(L, rng):
    """L in the basis whose vectors in grade g are the columns of a random
    invertible S_g: an isomorphic algebra with dense structure data."""
    S, Sinv = {}, {}
    for g in L.P.elements():
        S[g], Sinv[g] = random_invertible(L.field, L.dims[g], rng)
    return change_basis(L, S, Sinv, f"gauge({L.name})")


# Mersenne primes, the largest first, so that the common denominator of
# every big-prime basis below exceeds 2**64
BIG_PRIMES = (2 ** 89 - 1, 2 ** 61 - 1, 2 ** 31 - 1, 2 ** 19 - 1, 2 ** 17 - 1, 2 ** 13 - 1)


def big_prime_basis(L):
    """L over Q in the basis e_i / p_i, with p_i the big primes in turn:
    every structure map gets denominators that are products of them."""
    S, Sinv, n = {}, {}, 0
    for g in L.P.elements():
        ps = [BIG_PRIMES[(n + i) % len(BIG_PRIMES)] for i in range(L.dims[g])]
        n += L.dims[g]
        S[g] = Matrix(QQ, [[Fraction(1, p) if i == j else 0 for j in range(len(ps))]
                           for i, p in enumerate(ps)], cols=len(ps))
        Sinv[g] = Matrix(QQ, [[p if i == j else 0 for j in range(len(ps))]
                              for i, p in enumerate(ps)], cols=len(ps))
    return change_basis(L, S, Sinv, f"primes({L.name})")


def change_basis(L, S, Sinv, name):
    """L in the basis whose vectors in grade g are the columns of S_g, with
    Sinv_g its inverse."""
    P, f = L.P, L.field

    def basis(g, i):
        return tuple(row[i] for row in S[g].data)

    mul = {(g, h): [[list(Sinv[P.mul(g, h)].apply(L.multiply(g, basis(g, i), h, basis(h, j))))
                     for j in range(L.dims[h])] for i in range(L.dims[g])]
           for g in P.elements() for h in P.elements()}
    rho = {g: S[g].transpose() @ L.rho[g] @ S[P.inv[g]] for g in P.elements()}
    phi = {(h, g): Sinv[P.conj(h, g)] @ L.phi[(h, g)] @ S[g]
           for h in P.elements() for g in P.elements()}
    tilde = [Sinv[L.cm.d(c)].apply(L.tilde[c]) for c in L.C.elements()]
    return CrossedCAlgebra(name, L.cm, f, L.dims, L.basis_names,
                           mul, Sinv[0].apply(L.unit), rho, phi, tilde)


TARGETS = ("mul", "unit", "rho", "phi", "tilde")


def corrupt(L, rng, target):
    """A copy of L with one entry of one structure map moved, in grades
    that carry states."""
    P, f = L.P, L.field
    mul, unit, rho, phi, tilde = L.mul, L.unit, L.rho, L.phi, L.tilde

    def moved(x):
        return f.add(x, f.of(rng.choice((1, 2))))

    if target == "mul":
        key = rng.choice([k for k in sorted(mul)
                          if L.dims[k[0]] and L.dims[k[1]] and L.dims[P.mul(*k)]])
        block = copy.deepcopy(mul[key])
        cell = block[rng.randrange(len(block))][rng.randrange(L.dims[key[1]])]
        k = rng.randrange(len(cell))
        cell[k] = moved(cell[k])
        mul = {**mul, key: block}
    elif target == "unit":
        k = rng.randrange(len(unit))
        unit = unit[:k] + (moved(unit[k]),) + unit[k + 1:]
    elif target in ("rho", "phi"):
        table = rho if target == "rho" else phi
        key = rng.choice([k for k in sorted(table) if table[k].rows and table[k].cols])
        data = [list(row) for row in table[key].data]
        i, j = rng.randrange(len(data)), rng.randrange(len(data[0]))
        data[i][j] = moved(data[i][j])
        table = {**table, key: Matrix(f, data)}
        rho, phi = (table, phi) if target == "rho" else (rho, table)
    else:
        c = rng.choice([c for c in L.C.elements() if tilde[c]])
        k = rng.randrange(len(tilde[c]))
        tilde = tilde[:c] + (tilde[c][:k] + (moved(tilde[c][k]),) + tilde[c][k + 1:],) + \
            tilde[c + 1:]
    return CrossedCAlgebra(f"{L.name}+{target}", L.cm, f, L.dims, L.basis_names,
                           mul, unit, rho, phi, tilde)


def base_algebras(field):
    """The fixtures, K[C] of two doubling modules, whose grades are two
    dimensional and, for Z/6, include mutually inverse grades 2 and 4, and
    K[C] of Z/6 over the trivial group, whose one grade has dimension 6."""
    algs = dict(std_algebras(field))
    for n, invert in ((4, True), (6, False)):
        cm = doubling_module(n, invert)
        algs[f"KC.{cm.name}"] = group_algebra_C(cm, field, name=f"KC.{cm.name}")
    one = trivial_group()
    cm = from_module(cyclic_group(6), one, trivial_action(one, cyclic_group(6)), name="Z6/1")
    algs[f"KC.{cm.name}"] = group_algebra_C(cm, field, name=f"KC.{cm.name}")
    return algs


def gauge_pushforward_inputs(fname):
    """Two pushforwards in seeded gauge bases over FIELDS[fname], as
    {name: (morphism, algebra)}: along the identity of the Z/4 doubling
    module with inversion on its K[C], whose quotient grades are two
    dimensional, and along q.CM-A3S3 on K[P](CM-A3S3), whose ideal is dense."""
    field = FIELDS[fname]
    cm = doubling_module(4, True)
    return {
        "push-id": (identity_morphism(cm), gauge(group_algebra_C(cm, field),
                                                 random.Random(f"{fname}/push-id"))),
        "push": (std_morphisms()["q.CM-A3S3"], gauge(std_algebras(field)["KP.CM-A3S3"],
                                                     random.Random(f"{fname}/push"))),
    }


GAUGED = ("KC.CM-A3S3", "KC.CM-Mod", "KC.CM-AutS3", "KP.CM-A3S3", "PUSH.CM-A3S3",
          "KC.Z4-x2-Z4", "KC.Z6-x2-Z6", "KC.Z6/1")


def _cases():
    for fname, field in FIELDS.items():
        algs = base_algebras(field)
        for name, L in algs.items():
            yield f"{fname}/{name}", L
        for name in GAUGED:
            G = gauge(algs[name], random.Random(f"{fname}/{name}"))
            yield f"{fname}/{G.name}", G
            rng = random.Random(f"corrupt/{fname}/{name}")
            for n, target in enumerate(TARGETS):
                bad = corrupt((algs[name], G)[n % 2], rng, target)
                yield f"{fname}/{bad.name}", bad
            if field == QQ:
                B = big_prime_basis(G)
                yield f"{fname}/{B.name}", B
                bad = corrupt(B, rng, TARGETS[GAUGED.index(name) % len(TARGETS)])
                yield f"{fname}/{bad.name}", bad


# the fixture algebras in the order of `fixtures.std_algebras`, then K[C] of
# the two doubling modules and of Z/6 over the trivial group, as in
# `base_algebras`
BASE_NAMES = ("KC.CM-Id2", "KP.CM-Id2", "KC.CM-A3S3", "KP.CM-A3S3", "KC.CM-Mod", "KP.CM-Mod",
              "KC.CM-AutS3", "KP.CM-AutS3", "QKG.CM-A3S3", "PUSH.CM-A3S3", "PUSH.CM-Id2",
              "KQ.1Z2", "KC.Z4-x2-Z4", "KC.Z6-x2-Z6", "KC.Z6/1")


def _case_names():
    """The names of `_cases`, in its order, written out without building an
    algebra, so that collecting this module runs no crossmod kernel."""
    for fname in FIELDS:
        yield from (f"{fname}/{name}" for name in BASE_NAMES)
        for k, name in enumerate(GAUGED):
            gauged = f"gauge({name})"
            yield f"{fname}/{gauged}"
            for n, target in enumerate(TARGETS):
                yield f"{fname}/{(name, gauged)[n % 2]}+{target}"
            if fname == "QQ":
                yield f"{fname}/primes({gauged})"
                yield f"{fname}/primes({gauged})+{TARGETS[k % len(TARGETS)]}"


CASE_NAMES = tuple(_case_names())


@functools.lru_cache(maxsize=None)
def cases():
    """{name: algebra} of every case, built the first time a test asks."""
    built = dict(_cases())
    assert tuple(built) == CASE_NAMES
    return built


@functools.lru_cache(maxsize=None)
def fast_reports(name):
    L = cases()[name]
    return check_crossed_algebra(L), check_boxed_identities(L), aut_square_check(L)


def test_case_set():
    # 12 fixtures, 2 doubling modules and Z/6 over the trivial group per
    # field; the gauge algebras (the big-prime bases among them) are crossed
    # algebras, and over each field the corruptions alone reach every family
    # the oracle recomputes, so each fast path (each comparison mod p too)
    # meets a failure
    assert sum("gauge" not in name and "+" not in name for name in cases()) == 45
    assert sum(name.startswith("QQ/primes(") for name in cases()) == 2 * len(GAUGED)
    L = cases()["QQ/KC.CM-Id2"]
    families = set(SLOW_FAMILIES).union(
        *({r.axiom for r in rep.results} for rep in (slow_boxed_report(L),
                                                      slow_aut_square_report(L))))
    failed = {fname: set() for fname in FIELDS}
    for name in CASE_NAMES:
        reports = fast_reports(name)
        if "gauge" in name and "+" not in name:
            assert all(rep.ok for rep in reports), name
        if "+" in name:
            failed[name.split("/")[0]] |= {r.axiom for rep in reports for r in rep.failures()}
    for fname in FIELDS:
        assert families <= failed[fname], (fname, families - failed[fname])


@pytest.mark.parametrize("name", CASE_NAMES)
def test_checkers_match_oracle(name):
    L = cases()[name]
    fast, boxed, square = fast_reports(name)
    assert fast.to_json() == slow_crossed_report(L, fast).to_json()
    assert boxed.to_json() == slow_boxed_report(L).to_json()
    assert square.to_json() == slow_aut_square_report(L).to_json()


# the crossed modules of the check-ladder benchmark workload: Z/n over the
# trivial group and over Z/2 acting by inversion (n = 2..6), and Z/n = Z/n
# (n = 4, 6, 8)
LADDER = tuple([f"Z{n}/1" for n in range(2, 7)] + [f"Z{n}/Z2" for n in range(2, 7)]
               + [f"Z{n}=Z{n}" for n in (4, 6, 8)])


def ladder_module(name):
    """The crossed module of LADDER with this name, built from crossmod."""
    n = int(name[1:].split("/")[0].split("=")[0])
    zn, one, z2 = cyclic_group(n), trivial_group(), cyclic_group(2)
    if name.endswith("/1"):
        return from_module(zn, one, trivial_action(one, zn), name=name)
    if name.endswith("/Z2"):
        return from_module(zn, z2, action(z2, zn, [list(range(n)), [-c % n for c in range(n)]]),
                           name=name)
    return from_normal_inclusion(zn, zn.elements(), name=name)


@pytest.mark.parametrize("name", [f"{fname}/{cm}" for fname in ("QQ", "GF5") for cm in LADDER])
def test_checkers_match_oracle_on_the_ladder(name):
    """K[C] of each crossed module of the check-ladder workload, in a seeded
    gauge basis over Q and GF(5): all three checkers give the oracle's
    reports, and the algebra passes them."""
    fname, cm = name.split("/", 1)
    L = gauge(group_algebra_C(ladder_module(cm), FIELDS[fname], name=f"KC.{cm}"),
              random.Random(f"ladder/{name}"))
    fast, boxed, square = (check_crossed_algebra(L), check_boxed_identities(L),
                           aut_square_check(L))
    assert fast.ok and boxed.ok and square.ok
    assert fast.to_json() == slow_crossed_report(L, fast).to_json()
    assert boxed.to_json() == slow_boxed_report(L).to_json()
    assert square.to_json() == slow_aut_square_report(L).to_json()


def _entries(L):
    """Every entry of mul, unit, rho, phi and tilde, in one fixed order."""
    return [*(x for key in sorted(L.mul) for row in L.mul[key] for cell in row for x in cell),
            *L.unit, *(x for g in sorted(L.rho) for row in L.rho[g].data for x in row),
            *(x for key in sorted(L.phi) for row in L.phi[key].data for x in row),
            *(x for v in L.tilde for x in v)]


def _unpack(v, n, w):
    """The n slots of the packed int v, lowest first, each the residue of v
    mod 2**w read in [-2**(w-1), 2**(w-1)); nothing may be left over."""
    out = []
    for _ in range(n):
        s = v % 2 ** w
        if s >= 2 ** (w - 1):
            s -= 2 ** w
        out.append(s)
        v = (v - s) // 2 ** w
    assert v == 0
    return out


def _table_entries(t):
    """The entries of the packed cells, unit, rho rows, phi blocks (packed
    by columns) and tilde of the tables t, unpacked, in the order of
    `_entries`."""
    L, w = t.L, t.w
    P, dims = L.P, L.dims
    phi_rows = []
    for h, g in sorted(t.phis):
        cols = [_unpack(col, dims[P.conj(h, g)], w) for col in t.phis[(h, g)]]
        phi_rows += [col[r] for r in range(dims[P.conj(h, g)]) for col in cols]
    return [*(x for (g, h) in sorted(t.prod) for row in t.prod[(g, h)] for cell in row
              for x in _unpack(cell, dims[P.mul(g, h)], w)),
            *_unpack(t.unit, dims[0], w),
            *(x for g in sorted(t.rho_rows) for row in t.rho_rows[g]
              for x in _unpack(row, dims[P.inv[g]], w)),
            *phi_rows,
            *(x for c, v in enumerate(t.tilde) for x in _unpack(v, dims[L.cm.d(c)], w))]


def test_cleared_leaves_integral_and_prime_field_algebras_as_they_are():
    """The tables of an all-int algebra, and of any over GF(p), read its own
    maps with D = 1, and their packed vectors hold its entries."""
    names = [name for name in CASE_NAMES if name.startswith("GF")]
    names += [name for name in CASE_NAMES if name.startswith("QQ/")
              and all(type(x) is int for x in _entries(cases()[name]))]
    assert "QQ/KC.CM-A3S3" in names and "GF5/gauge(KC.CM-Mod)" in names
    for name in names:
        L = cases()[name]
        t = _tables(L)
        assert t.D == 1 and (t.mul, t.rho, t.phi) == (L.mul, L.rho, L.phi), name
        assert t.mul is L.mul and t.rho is L.rho and t.phi is L.phi, name
        assert _table_entries(t) == _entries(L), name


@pytest.mark.parametrize("name", [name for name in CASE_NAMES if name.startswith("QQ/primes(")])
def test_cleared_scales_every_map_by_the_common_denominator(name):
    """On the big-prime bases the common denominator exceeds 2**64; every
    packed slot is an int, D times the entry it replaces, and the slot width
    is 4 bits(M) + 3 bits(n) + 2 with M = max(|cleared entry|, D) and n the
    largest grade dimension."""
    L = cases()[name]
    t = _tables(L)
    D = t.D
    assert D > 2 ** 64
    assert _table_entries(t) == [D * x for x in _entries(L)]
    assert math.lcm(*(Fraction(x).denominator for x in _entries(L))) == D
    M = max(D, *(abs(int(D * x)) for x in _entries(L)))
    assert t.w == 4 * M.bit_length() + 3 * max(L.dims).bit_length() + 2


def test_packing_round_trips_at_the_widest_slots():
    """Every slot at +-(2**(w-1) - 1), the widest a difference of two sides
    may reach, packs and unpacks to itself, for the slot widths of the
    widest tables here and of a narrow one; `_slots` drops only trailing
    zero slots."""
    widths = {_tables(cases()[name]).w for name in ("QQ/KC.CM-Id2", "GF2147483647/KC.Z6/1",
                                                    "QQ/primes(gauge(KC.Z6/1))")}
    assert len(widths) == 3 and max(widths) > 2 ** 9
    for w in widths:
        top = 2 ** (w - 1) - 1
        for n in range(1, 7):
            for vec in ([top] * n, [-top] * n, [(-1) ** k * top for k in range(n)],
                        [-(-1) ** k * top for k in range(n)]):
                v = _pack(vec, w)
                assert _unpack(v, n, w) == vec
                assert _slots(v, w) == vec
        v = _pack([top, -top, 0, 0], w)
        assert _unpack(v, 4, w) == [top, -top, 0, 0] and _slots(v, w) == [top, -top]


@pytest.mark.parametrize("fname", [fname for fname in FIELDS if fname != "QQ"])
def test_a_slot_that_differs_by_p_differs_over_q_only(fname):
    """Two packed vectors that differ by p in one slot are unequal ints, so
    they differ over Q, and equal over GF(p); a second slot that differs by
    1 makes them differ over GF(p) too."""
    field = FIELDS[fname]
    tp = _tables(cases()[f"{fname}/gauge(KC.Z6/1)"])
    tq = _tables(cases()["QQ/KC.Z6/1"])._replace(w=tp.w)
    assert (tp.p, tq.p) == (field.p, 0) and tp.w > 4 * field.p.bit_length()
    vec = [3, -1, 4, 1, -5, field.p - 1]
    for k in range(len(vec)):
        moved = vec[:k] + [vec[k] + field.p] + vec[k + 1:]
        x, y = _pack(vec, tp.w), _pack(moved, tp.w)
        assert x != y
        assert _nonzero(tq, x - y) and _differ(tq, [0, x], [0, y])
        assert not _nonzero(tp, x - y) and not _differ(tp, [0, x], [0, y])
        moved[k - 1] += 1
        y = _pack(moved, tp.w)
        assert _nonzero(tp, x - y) and _differ(tp, [0, x], [0, y])


def test_a_dimension_zero_grade_packs_to_zero():
    """A vector in a grade of dimension 0 is empty and packs to the int 0
    with an empty support: basis products landing in such a grade, the rows
    of pairing blocks against it and tilde(c) in it, on the random algebras
    with grades of dimension 0 over Z/2 --x2--> Z/4."""
    assert _pack((), 5) == 0 and _slots(0, 5) == []
    rng, seen = random.Random("uneven/QQ"), set()
    for n in range(40):
        L = random_algebra(uneven_module(), QQ, rng, f"random{n}")
        t, P, dims = _tables(L), L.P, L.dims
        for (g, h), block in t.prod.items():
            if dims[P.mul(g, h)] == 0 and dims[g] and dims[h]:
                seen.add("cell")
                assert all(cell == 0 for row in block for cell in row)
                assert all(sup == [] for row in t.prod_sup[(g, h)] for sup in row)
        for c, v in enumerate(t.tilde):
            if dims[L.cm.d(c)] == 0:
                seen.add("tilde")
                assert v == 0 and t.tilde_sup[c] == []
        for g, rows in t.rho_rows.items():
            if dims[P.inv[g]] == 0 and dims[g]:
                seen.add("rho row")
                assert rows == [0] * dims[g] and t.rho_sup[g] == [[]] * dims[g]
    assert seen == {"cell", "tilde", "rho row"}


def uneven_module():
    """Z/2 --x2--> Z/4 with the trivial action: the grades 1 and 3 are
    paired, and the boundary's image is {0, 2}."""
    top, base = cyclic_group(2), cyclic_group(4)
    return crossed_module("Z2-x2-Z4", top, base, GroupHomomorphism(top, base, (0, 2)),
                          trivial_action(base, top))


def random_algebra(cm, field, rng, name):
    """Structure maps of the shapes that grade dimensions drawn from 0-2
    ask for, with entries drawn from {0, 0, 1, -1, 2}: well formed but
    seldom a crossed algebra, and paired grades often differ in dimension."""
    P = cm.base
    dims = [rng.randint(0, 2) for _ in P.elements()]

    def vec(n):
        return [field.of(rng.choice((0, 0, 1, -1, 2))) for _ in range(n)]

    def mat(rows, cols):
        return Matrix(field, [vec(cols) for _ in range(rows)], cols=cols)

    mul = {(g, h): [[vec(dims[P.mul(g, h)]) for _ in range(dims[h])] for _ in range(dims[g])]
           for g in P.elements() for h in P.elements()}
    rho = {g: mat(dims[g], dims[P.inv[g]]) for g in P.elements()}
    phi = {(h, g): mat(dims[P.conj(h, g)], dims[g]) for h in P.elements() for g in P.elements()}
    tilde = [vec(dims[cm.d(c)]) for c in cm.top.elements()]
    names = [[f"e{g}.{i}" for i in range(dims[g])] for g in P.elements()]
    return CrossedCAlgebra(name, cm, field, dims, names, mul, vec(dims[0]), rho, phi, tilde)


@pytest.mark.parametrize("fname", list(FIELDS))
def test_checkers_match_oracle_on_uneven_grades(fname):
    """40 seeded random algebras over Z/2 --x2--> Z/4: all three checkers
    give the oracle's reports, and across them every boxed and square family
    fails somewhere, with paired grades of different dimensions among them."""
    cm, field = uneven_module(), FIELDS[fname]
    rng = random.Random(f"uneven/{fname}")
    families, failed, uneven = set(), set(), 0
    for n in range(40):
        L = random_algebra(cm, field, rng, f"random{n}")
        fast, boxed, square = (check_crossed_algebra(L), check_boxed_identities(L),
                               aut_square_check(L))
        assert fast.to_json() == slow_crossed_report(L, fast).to_json(), L.name
        assert boxed.to_json() == slow_boxed_report(L).to_json(), L.name
        assert square.to_json() == slow_aut_square_report(L).to_json(), L.name
        families |= {r.axiom for rep in (boxed, square) for r in rep.results}
        failed |= {r.axiom for rep in (boxed, square) for r in rep.failures()}
        uneven += L.dims[1] != L.dims[3]
    assert failed == families and len(families) == 7
    assert uneven >= 10


# --------------------------------------------------------------------------
# the morphism checker
# --------------------------------------------------------------------------

def _sum_of_products(f, terms):
    total = f.zero
    for factors in terms:
        term = f.one
        for x in factors:
            term = f.mul(term, x)
        total = f.add(total, term)
    return total


def slow_block_families(m):
    """{family: (ok, first instance, violation count)} of the algebra map
    of m, whose blocks have the right shapes, by plain loops over structure
    constants and block entries: entry a of theta(e_i e_j) sums
    B_gh[a][k] (e_i e_j)[k] over k, and entry k of theta(e_i) theta(e_j)
    sums B_g[a][i] B_h[b][j] (e'_a e'_b)[k] over a and b."""
    L, Lp, B = m.source, m.target, m.blocks
    P, C, f = L.P, L.C, L.field
    f0, f1 = m.over.f_base.map, m.over.f_top.map
    Q = m.over.target.base

    def image(p, vec):
        return [_sum_of_products(f, zip(row, vec)) for row in B[p].data]

    fails = {family: [] for family in ("unit_preserved", "multiplicative", "rho_preserved",
                                       "phi_compatible", "tilde_compatible")}
    if image(0, L.unit) != list(Lp.unit):
        fails["unit_preserved"].append("1")
    for g, h in itertools.product(P.elements(), repeat=2):
        gh, target = P.mul(g, h), Lp.mul[(f0[g], f0[h])]
        n = Lp.dims[Q.mul(f0[g], f0[h])]
        for (i, ni), (j, nj) in itertools.product(enumerate(L.basis_names[g]),
                                                  enumerate(L.basis_names[h])):
            rhs = [_sum_of_products(f, [(B[g].data[a][i], B[h].data[b][j], target[a][b][k])
                                        for a in range(Lp.dims[f0[g]])
                                        for b in range(Lp.dims[f0[h]])])
                   for k in range(n)]
            if image(gh, L.mul[(g, h)][i][j]) != rhs:
                fails["multiplicative"].append(f"({ni},{nj})")
    for g in P.elements():
        ginv, rho = P.inv[g], Lp.rho[f0[g]].data
        if any(_sum_of_products(f, [(B[g].data[a][i], rho[a][b], B[ginv].data[b][j])
                                    for a in range(len(rho)) for b in range(len(rho[a]))])
               != L.rho[g].data[i][j] for i in range(L.dims[g]) for j in range(L.dims[ginv])):
            fails["rho_preserved"].append(f"g={P.names[g]}")
    for h, g in itertools.product(P.elements(), repeat=2):
        hg, phi_t, phi = P.conj(h, g), Lp.phi[(f0[h], f0[g])].data, L.phi[(h, g)].data
        if any(_sum_of_products(f, [(phi_t[a][b], B[g].data[b][i]) for b in range(len(phi_t[a]))])
               != _sum_of_products(f, [(B[hg].data[a][k], phi[k][i]) for k in range(L.dims[hg])])
               for a in range(Lp.dims[f0[hg]]) for i in range(L.dims[g])):
            fails["phi_compatible"].append(f"(h={P.names[h]},g={P.names[g]})")
    for c in C.elements():
        if image(L.cm.d(c), L.tilde[c]) != list(Lp.tilde[f1[c]]):
            fails["tilde_compatible"].append(f"c={C.names[c]}")
    return {family: (not found, found[0] if found else None, len(found))
            for family, found in fails.items()}


MORPHISM_FIELDS = {"QQ": QQ, "GF3": GF(3)}


def _morphism_cases(field, rng):
    """(label, morphism) pairs: over the identity of each fixture algebra,
    the identity blocks scaled by 1, 2 and -1, the identity with one grade
    scaled by 2, and three seeded random blocks; over q.CM-A3S3 and
    collapse.CM-Id2, the quotient map onto the pushforward as it is and with
    one block scaled by 2."""
    def scaled(blk, k):
        return Matrix(field, [[field.mul(field.of(k), x) for x in row] for row in blk.data],
                      cols=blk.cols)

    algs = std_algebras(field)
    for name in fixture_algebra_names():
        L = algs[name]
        over, grades = identity_morphism(L.cm), L.P.elements()
        ident = {p: Matrix.identity(field, L.dims[p]) for p in grades}
        for k in (1, 2, -1):
            yield f"{name} x{k}", CrossedAlgebraMorphism(
                over, L, L, {p: scaled(ident[p], k) for p in grades})
        p = rng.choice([p for p in grades if L.dims[p]])
        yield f"{name} grade {p} x2", CrossedAlgebraMorphism(
            over, L, L, {**ident, p: scaled(ident[p], 2)})
        for n in range(3):
            yield f"{name} random {n}", CrossedAlgebraMorphism(over, L, L, {
                p: Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(L.dims[p])]
                                  for _ in range(L.dims[p])], cols=L.dims[p])
                for p in grades})
    for fmor, name in (("q.CM-A3S3", "KP.CM-A3S3"), ("collapse.CM-Id2", "KC.CM-Id2")):
        data = pushforward_data(std_morphisms()[fmor], algs[name])
        fL = data.algebra
        pi = untranspose_to_pushforward(CrossedAlgebraMorphism(
            identity_morphism(fL.cm), fL, fL,
            {q: Matrix.identity(field, d) for q, d in enumerate(fL.dims)}), data)
        yield f"pi {fmor}", pi
        p = rng.choice([p for p in pi.blocks if pi.blocks[p].rows])
        yield f"pi {fmor} grade {p} x2", CrossedAlgebraMorphism(
            pi.over, pi.source, pi.target, {**pi.blocks, p: scaled(pi.blocks[p], 2)})


@pytest.mark.parametrize("fname", list(MORPHISM_FIELDS))
def test_morphism_checker_matches_oracle(fname):
    """Each family of check_algebra_morphism after the crossed-module ones
    has the oracle's verdict, first instance and violation count, in the
    oracle's order; among the cases every family passes somewhere, and
    multiplicative fails with two or more violations somewhere."""
    field, rng = MORPHISM_FIELDS[fname], random.Random(f"morphisms/{fname}")
    all_pass = multiplicative = 0
    for label, m in _morphism_cases(field, rng):
        report = check_algebra_morphism(m)
        got = {r.axiom: (r.ok, r.instance, r.violations) for r in report.results}
        want = slow_block_families(m)
        assert list(got)[-len(want) - 1:] == ["block_shapes", *want], label
        assert {family: got[family] for family in want} == want, label
        all_pass += report.ok
        multiplicative += want["multiplicative"][2] >= 2
    assert all_pass and multiplicative
