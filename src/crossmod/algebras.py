"""Crossed C-algebras: representation, the full axiom checker, group-algebra
constructions, the boxed composition identities, morphisms (same base or over
a crossed-module morphism), pullback, pushforward, and adjunction transposes.

An algebra is stored gradewise: structure constants per grade pair, the
pairing per grade against its inverse grade, and the action per (actor,
grade). Graded multiplication landing in the product grade is therefore
unrepresentable to violate, a block that does not fit the grade dimensions
is refused as the algebra is built, and everything else is an explicit,
exhaustively checkable axiom.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .crossed_modules import (
    CrossedModule,
    CrossedModuleMorphism,
    check_morphism,
    identity_morphism,
    quotient_morphism,
    require_same,
)
from .fields import QQ
from .groups import cocycle_from_section, section
from .linalg import Matrix, RowSpace, unit_vector
from .report import CheckReport


class RhoIllDefined(ValueError):
    pass


class CrossedCAlgebra:
    """A graded algebra over the base group of a crossed module, with pairing
    rho, action phi, and the distinguished units indexed by the top group.

    Its shape is checked as it is built (`well_formed`): every structure map
    fits the grade dimensions and the basis names name each grade's basis
    once, or the constructor raises ValueError("<where>: <what>") for the
    first fault. Every consumer indexes by `dims` with no check of its own."""

    def __init__(self, name, cm: CrossedModule, field, dims, basis_names,
                 mul, unit, rho, phi, tilde):
        self.name = name
        self.cm = cm
        self.field = field
        self.dims = tuple(dims)
        self.basis_names = tuple(tuple(ns) for ns in basis_names)
        # every scalar is stored canonical, through field.of, as Matrix
        # stores those of rho and phi; mul maps (g, h) to the [i][j][k]
        # structure constants
        of = field.of
        self.mul = {key: [[list(map(of, cell)) for cell in row] for row in block]
                    for key, block in mul.items()}
        self.unit = tuple(map(of, unit))
        self.rho = rho        # g -> Matrix dims[g] x dims[g^-1]
        self.phi = phi        # (h, g) -> Matrix dims[hgh^-1] x dims[g]
        self.tilde = tuple(tuple(map(of, v)) for v in tilde)  # c -> vector in grade d(c)
        if fault := well_formed(self):
            raise ValueError(f"{fault[0]}: {fault[1]}")

    # -- shape helpers ------------------------------------------------------

    @property
    def P(self):
        return self.cm.base

    @property
    def C(self):
        return self.cm.top

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def grade_offsets(self):
        offs, acc = [], 0
        for d in self.dims:
            offs.append(acc)
            acc += d
        return offs

    # -- arithmetic on homogeneous vectors -----------------------------------

    def multiply(self, g: int, x, h: int, y):
        """Product of x in grade g with y in grade h, in grade g*h, by `_product`."""
        return tuple(_product(self.field, self.dims[self.P.mul(g, h)], _support(x), _support(y),
                              self.mul[(g, h)]))

    def mul_matrix(self, g: int, h: int) -> Matrix:
        """Multiplication L_g (x) L_h -> L_{gh} as a matrix on the pair basis:
        the column of the pair (i, j) is the structure vector block[i][j]."""
        cells = [cell for row in self.mul[(g, h)] for cell in row]
        return Matrix.from_columns(self.field, cells, self.dims[self.P.mul(g, h)])

    def left_mul_matrix(self, g: int, a, h: int) -> Matrix:
        """Matrix of x |-> a*x with a in grade g, acting L_h -> L_{gh}: column
        j is `_total` of a's support against column j of the mul(g, h) cells."""
        f, block, sup = self.field, self.mul[(g, h)], _support(a)
        dgh = self.dims[self.P.mul(g, h)]
        cols = [_total(f, dgh, sup, [row[j] for row in block]) for j in range(self.dims[h])]
        return Matrix.from_columns(f, cols, dgh)

    def pairing(self, g: int, x, y):
        """rho(x, y) for x in grade g, y in grade g^-1, by `_product`."""
        block = [[(v,) for v in row] for row in self.rho[g].data]
        return _product(self.field, 1, _support(x), _support(y), block)[0]

    def __repr__(self):
        return f"CrossedCAlgebra({self.name} over {self.cm.name}, dims={self.dims})"


def same_structure(a: CrossedCAlgebra, b: CrossedCAlgebra) -> bool:
    """Identical structure constants (names aside): the round-trip contract."""
    if a.field != b.field or a.dims != b.dims:
        return False
    if a.unit != b.unit or a.tilde != b.tilde:
        return False
    if any(a.mul[key] != b.mul[key] for key in a.mul):
        return False
    if any(a.rho[g] != b.rho[g] for g in a.P.elements()):
        return False
    return all(a.phi[key] == b.phi[key] for key in a.phi)


# --------------------------------------------------------------------------
# the axiom checker
# --------------------------------------------------------------------------

def well_formed(L: CrossedCAlgebra) -> tuple[str, str] | None:
    """The first shape fault of L as (where, what), or None: a structure map
    whose blocks do not fit the grade dimensions, or basis names that do not
    name each grade's basis once. The constructor refuses an L with one, so
    every axiom family assumes there is none."""
    P, C = L.P, L.C
    if len(L.dims) != P.order:
        return "dims", "one dimension per base element required"
    for g in P.elements():
        for h in P.elements():
            block = L.mul.get((g, h))
            gh = P.mul(g, h)
            if block is None:
                return f"mul({P.names[g]},{P.names[h]})", "missing block"
            if len(block) != L.dims[g] or any(len(row) != L.dims[h] for row in block) or \
               any(len(cell) != L.dims[gh] for row in block for cell in row):
                return f"mul({P.names[g]},{P.names[h]})", "bad shape"
    if len(L.unit) != L.dims[0]:
        return "unit", "wrong length"
    for g in P.elements():
        m = L.rho.get(g)
        if m is None or m.shape() != (L.dims[g], L.dims[P.inv[g]]):
            return f"rho({P.names[g]})", "bad shape"
    for h in P.elements():
        for g in P.elements():
            m = L.phi.get((h, g))
            if m is None or m.shape() != (L.dims[P.conj(h, g)], L.dims[g]):
                return f"phi({P.names[h]},{P.names[g]})", "bad shape"
    if len(L.tilde) != C.order:
        return "tilde", "one vector per top element required"
    for c in C.elements():
        if len(L.tilde[c]) != L.dims[L.cm.d(c)]:
            return f"tilde({C.names[c]})", "vector not in grade d(c)"
    if len(L.basis_names) != P.order:
        return "basis_names", "one name tuple per base element required"
    for g, names in enumerate(L.basis_names):
        if len(names) != L.dims[g]:
            return f"basis_names({P.names[g]})", f"{len(names)} names for dim {L.dims[g]}"
        if len(set(names)) != len(names):
            return f"basis_names({P.names[g]})", "duplicate names"
    return None


def _cleared(L: CrossedCAlgebra):
    """(L', D): L with every structure map (mul, unit, rho, phi and tilde)
    multiplied by D, the least common denominator of all their entries, one
    `combine(n, [(D, vec)])` per vector, so that every entry of L' is an int.
    An all-int algebra, and any over GF(p), is returned as it is, with D = 1.
    On L' an axiom side of degree k in the structure maps is D**k times its
    value on L, so a checker multiplies the side of lower degree by the power
    of D that evens the degrees, which keeps each comparison's truth value."""
    if L.field != QQ:
        return L, 1
    entries = itertools.chain(
        (x for block in L.mul.values() for row in block for cell in row for x in cell),
        L.unit, itertools.chain.from_iterable(L.tilde),
        (x for m in (*L.rho.values(), *L.phi.values()) for row in m.data for x in row))
    D = math.lcm(*{x.denominator for x in entries})
    if D == 1:
        return L, 1

    def cleared(vec):
        return QQ.combine(len(vec), [(D, vec)])

    def cleared_matrix(m):
        return Matrix._of(m.field, tuple([cleared(row) for row in m.data]), m.cols)

    mul = {key: [[cleared(cell) for cell in row] for row in block]
           for key, block in L.mul.items()}
    return CrossedCAlgebra(L.name, L.cm, L.field, L.dims, L.basis_names, mul,
                           cleared(L.unit), {g: cleared_matrix(m) for g, m in L.rho.items()},
                           {key: cleared_matrix(m) for key, m in L.phi.items()},
                           [cleared(v) for v in L.tilde]), D


def _times(k: int, vec):
    """k * vec for a vector of ints; vec itself when k is 1."""
    return vec if k == 1 else tuple([k * x for x in vec])


def _times_matrix(k: int, m: Matrix) -> Matrix:
    """k * m for a matrix of ints; m itself when k is 1."""
    return m if k == 1 else Matrix._of(m.field, tuple([_times(k, row) for row in m.data]),
                                       m.cols)


def _support(vec):
    """The (index, value) pairs of the nonzero entries of vec."""
    return [(k, x) for k, x in enumerate(vec) if x]


def _total(f, n, sup, vecs):
    """The n-vector sum of x vecs[k] over the support terms (k, x) of a
    vector: its product with the stored vectors `vecs`, by the field f's
    `combine` on the support alone. A support of one term with value 1 gives
    the stored vector itself, with no `combine`, as every product does in a
    group basis. With `_product`, the one contraction of structure constants."""
    if len(sup) == 1 and sup[0][1] == 1:
        return vecs[sup[0][0]]
    return f.combine(n, [(x, vecs[k]) for k, x in sup])


def _product(f, n, sup1, sup2, block):
    """The n-vector product of the vectors with supports sup1 and sup2, from
    the block of basis products block[a][b] = e_a e_b, summed as in `_total`."""
    if len(sup1) == 1 and len(sup2) == 1 and sup1[0][1] * sup2[0][1] == 1:
        return block[sup1[0][0]][sup2[0][0]]
    return f.combine(n, [(x * y, block[a][b]) for a, x in sup1 for b, y in sup2])


class _Tables(NamedTuple):
    """What the checkers read off `_cleared(L)`, with no multiplication (see
    `_tables`)."""
    L: CrossedCAlgebra
    D: int
    prod: dict        # (g, h) -> [i][j] -> e_i e_j, the cells of mul(g, h)
    cols: dict        # (g, h) -> [j] -> [e_i e_j over i], the columns of mul(g, h)
    phis: dict        # (h, g) -> [i] -> phi_h(e_i), the columns of phi(h, g)
    phis_sup: dict    # (h, g) -> [i] -> support of phi_h(e_i)
    unit_sup: list
    tilde_sup: list   # c -> support of tilde(c)


def _tables(L: CrossedCAlgebra) -> _Tables:
    """The tables of the three checkers, read once per call off
    `_cleared(L)`: the basis products (the cells of mul as tuples) and their
    columns (one for every j in range(dims[h]), empty when dims[g] is 0), the
    action images (the columns of each phi block), and the supports of the
    action images, the unit and each tilde(c). A checker multiplies by
    passing a support and these stored vectors to `_total` or `_product`."""
    L, D = _cleared(L)
    prod = {key: [[tuple(cell) for cell in row] for row in block] for key, block in L.mul.items()}
    cols = {(g, h): [[row[j] for row in block] for j in range(L.dims[h])]
            for (g, h), block in prod.items()}
    phis = {key: m.transpose().data for key, m in L.phi.items()}
    return _Tables(
        L, D, prod, cols, phis, {key: [_support(v) for v in block] for key, block in phis.items()},
        _support(L.unit), [_support(v) for v in L.tilde])


def check_crossed_algebra(L: CrossedCAlgebra) -> CheckReport:
    """Every axiom family, exhaustively; the report carries the first
    counterexample instance per family.

    The families run on `_cleared(L)`: over Q every structure map is
    multiplied by the common denominator D of its entries, so every
    contraction sums ints. Each comparison then multiplies its side of lower
    degree in the structure maps by D to the difference of the degrees (the
    unit axiom compares 1 e_i, of degree 2, with e_i times D**2), which keeps
    every result, and so the report, what it is on L.

    Beside the tables of `_tables`, the families read the supports of the
    basis products and of each row of phi(h, g). A product with a stored
    vector is `_total` or `_product` over its support. The trace family sums
    products of structure constants directly."""
    report = CheckReport(f"crossed algebra {L.name}")
    # the constructor refused every shape fault
    report.add_pass("well_formed")
    tables = _tables(L)
    L, D, prod, cols, phis, phis_sup, unit_sup, tilde_sup = tables
    P, C, f = L.P, L.C, L.field
    dims = L.dims
    nonzero = [g for g in P.elements() if dims[g] > 0]
    names = L.basis_names

    prod_sup = {key: [[_support(v) for v in row] for row in block] for key, block in prod.items()}

    # 1 e_i and e_i 1 have degree 2 (the unit and mul), e_i degree 0
    fails = []
    for g in nonzero:
        for i, name in enumerate(names[g]):
            e2 = _times(D ** 2, unit_vector(f, dims[g], i))
            if _total(f, dims[g], unit_sup, cols[(0, g)][i]) != e2:
                fails.append((f"1*{name}", "left unit fails"))
            if _total(f, dims[g], unit_sup, prod[(g, 0)][i]) != e2:
                fails.append((f"{name}*1", "right unit fails"))
    report.add("unit", fails)

    # (e_i e_j) e_l sums column l of mul(gh, k) over the support of e_i e_j,
    # and e_i (e_j e_l) sums row i of mul(g, hk) over that of e_j e_l; both
    # sides have degree 2, as in rho_invariant and trace
    fails = []
    for g, h, k in itertools.product(nonzero, repeat=3):
        gh, hk = P.mul(g, h), P.mul(h, k)
        d, col = dims[P.mul(gh, k)], cols[(gh, k)]
        for i, ni in enumerate(names[g]):
            row = prod[(g, hk)][i]
            for j, nj in enumerate(names[h]):
                ij, jls = prod_sup[(g, h)][i][j], prod_sup[(h, k)][j]
                for l, nl in enumerate(names[k]):
                    if _total(f, d, ij, col[l]) != _total(f, d, jls[l], row):
                        fails.append((f"({ni},{nj},{nl})", "associativity fails"))
    report.add("associativity", fails)

    fails = []
    for g in P.elements():
        if L.rho[g] != L.rho[P.inv[g]].transpose():
            fails.append((f"g={P.names[g]}", "rho_g != transpose(rho_{g^-1})"))
    report.add("rho_symmetric", fails)

    fails = []
    for g in P.elements():
        if dims[g] != dims[P.inv[g]]:
            fails.append((f"g={P.names[g]}", "paired grades have different dimensions"))
        elif L.rho[g].nullspace():
            fails.append((f"g={P.names[g]}", "rho block is singular"))
    report.add("rho_nondegenerate", fails)

    # rho(e_i e_j, e_k) for every k at once sums the rows of rho_gh over the
    # support of e_i e_j; rho(e_i, e_j e_k) sums row i of rho_g over that of
    # e_j e_k
    fails = []
    for g, h in itertools.product(nonzero, repeat=2):
        gh = P.mul(g, h)
        ghinv = P.inv[gh]
        rho_gh, rho_g = L.rho[gh].data, L.rho[g].data
        for i, ni in enumerate(names[g]):
            row = [(x,) for x in rho_g[i]]
            for j, nj in enumerate(names[h]):
                lhs = _total(f, dims[ghinv], prod_sup[(g, h)][i][j], rho_gh)
                for k, nk in enumerate(names[ghinv]):
                    if lhs[k] != _total(f, 1, prod_sup[(h, ghinv)][j][k], row)[0]:
                        fails.append((f"({ni},{nj},{nk})", "rho(ab,c) != rho(a,bc)"))
    report.add("rho_invariant", fails)

    # the identity, of degree 0, is compared with phi_1 (degree 1), and
    # phi_hk (degree 1) with phi_h phi_k (degree 2), row by row: row r of
    # phi_h phi_k sums the rows of phi_k over the support of row r of phi_h
    ident = [_times_matrix(D, Matrix.identity(f, dims[g])) for g in P.elements()]
    rows_sup = {key: [_support(row) for row in m.data] for key, m in L.phi.items()}
    phi_D = {key: [_times(D, row) for row in m.data] for key, m in L.phi.items()}
    fails = []
    for g in P.elements():
        if L.phi[(0, g)] != ident[g]:
            fails.append((f"g={P.names[g]}", "phi_1 is not the identity"))
    for h in P.elements():
        for k in P.elements():
            hk = P.mul(h, k)
            for g in nonzero:
                inner = L.phi[(k, g)].data
                if any(_total(f, dims[g], sup, inner) != want
                       for sup, want in zip(rows_sup[(h, P.conj(k, g))], phi_D[(hk, g)])):
                    fails.append((f"(h={P.names[h]},k={P.names[k]},g={P.names[g]})",
                                  "phi_h phi_k != phi_hk"))
    report.add("phi_homomorphism", fails)

    # phi_h(1) has degree 2 against 1, phi_h(xy) degree 2 against 3
    fails = []
    unit = _times(D, L.unit)
    for h in P.elements():
        if _total(f, dims[0], unit_sup, phis[(h, 0)]) != unit:
            fails.append((f"h={P.names[h]}", "phi_h(1) != 1"))
        for g1, g2 in itertools.product(nonzero, repeat=2):
            g12 = P.mul(g1, g2)
            hg1, hg2 = P.conj(h, g1), P.conj(h, g2)
            image, block = phis[(h, g12)], prod[(hg1, hg2)]
            d, d12 = dims[P.conj(h, g12)], dims[P.mul(hg1, hg2)]
            for i, ni in enumerate(names[g1]):
                fa = phis_sup[(h, g1)][i]
                for j, nj in enumerate(names[g2]):
                    lhs = _times(D, _total(f, d, prod_sup[(g1, g2)][i][j], image))
                    rhs = _product(f, d12, fa, phis_sup[(h, g2)][j], block)
                    if lhs != rhs:
                        fails.append((f"(h={P.names[h]},{ni},{nj})",
                                      "phi_h(xy) != phi_h(x) phi_h(y)"))
    report.add("phi_multiplicative", fails)

    # degree 3 against 1
    fails = []
    for h in P.elements():
        for g in P.elements():
            lhs = L.phi[(h, g)].transpose() @ L.rho[P.conj(h, g)] @ L.phi[(h, P.inv[g])]
            if lhs != _times_matrix(D ** 2, L.rho[g]):
                fails.append((f"(h={P.names[h]},g={P.names[g]})",
                              "phi_h does not preserve rho"))
    report.add("phi_isometry", fails)

    fails = []
    for g in P.elements():
        if L.phi[(g, g)] != ident[g]:
            fails.append((f"g={P.names[g]}", "phi_g is not the identity on L_g"))
    report.add("phi_fixes_own_grade", fails)

    # phi_h(e_i) e_j sums cols[(hgh^-1, h)][j] over the support of
    # phi_h(e_i); it has degree 2 against 1
    fails = []
    for g, h in itertools.product(nonzero, repeat=2):
        hg = P.conj(h, g)
        d, col = dims[P.mul(hg, h)], cols[(hg, h)]
        for i, na in enumerate(names[g]):
            fa = phis_sup[(h, g)][i]
            for j, nb in enumerate(names[h]):
                if _total(f, d, fa, col[j]) != _times(D, prod[(h, g)][j][i]):
                    fails.append((f"(a={na},b={nb})", "phi_h(a)b != ba"))
    report.add("twisted_commutativity", fails)

    # the trace condition compares the two cuttings of the labeled torus: for
    # c = e_t in the commutator grade, tr(x |-> c phi_h(x)) on L_g is the sum
    # over j of <e_t e_j, row j of phi(h, g)> (e_j in L_{hgh^-1}), and
    # tr(x |-> phi_{g^-1}(c x)) on L_h the sum over s of <row s of
    # phi(g^-1, ghg^-1), e_t e_s> (e_s in L_h). It is checked over grade
    # pairs that both carry states (with the empty-cut instances included,
    # the boundary-group algebra of a non-surjective boundary map would fail
    # it, contradicting its construction)
    fails = []
    for g, h in itertools.product(nonzero, repeat=2):
        comm, hg = P.commutator(g, h), P.conj(h, g)
        phi1, phi2 = L.phi[(h, g)].data, L.phi[(P.inv[g], P.conj(g, h))].data
        for t, nt in enumerate(names[comm]):
            t1 = sum([x * phi1[j][a] for j, sup in enumerate(prod_sup[(comm, hg)][t])
                      for a, x in sup])
            t2 = sum([x * phi2[s][a] for s, sup in enumerate(prod_sup[(comm, h)][t])
                      for a, x in sup])
            if f.of(t1 - t2):
                fails.append((f"(g={P.names[g]},h={P.names[h]},c={nt})", "trace axiom fails"))
    report.add("trace", fails)

    fails = []
    if L.tilde[0] != L.unit:
        fails.append(("c=1", "tilde(1) != 1"))
    report.add("tilde_unit", fails)

    # tilde(c') tilde(c) sums the products e_a e_b over the supports of both;
    # it has degree 3 against 1
    fails = []
    for c2 in C.elements():
        d2 = L.cm.d(c2)
        for c in C.elements():
            dc = L.cm.d(c)
            rhs = _product(f, dims[P.mul(d2, dc)], tilde_sup[c2], tilde_sup[c], prod[(d2, dc)])
            if _times(D ** 2, L.tilde[C.mul(c2, c)]) != rhs:
                fails.append((f"(c'={C.names[c2]},c={C.names[c]})",
                              "tilde(c'c) != tilde(c') tilde(c)"))
    report.add("tilde_multiplicative", fails)

    report.add("tilde_equivariant", _equivariance_fails(tables, "h"))
    return report


def _equivariance_fails(t: _Tables, letter: str):
    """The failing instances of phi_h(tilde c) = tilde(^h c), with h written
    `letter`: h in tilde_equivariant, p in square_equivariance. The left side
    sums the columns of phi(h, d(c)) over the support of tilde(c); degree 2
    against 1."""
    L, D = t.L, t.D
    P, C, dims, f = L.P, L.C, L.dims, L.field
    fails = []
    for h in P.elements():
        for c in C.elements():
            dc = L.cm.d(c)
            image = _total(f, dims[P.conj(h, dc)], t.tilde_sup[c], t.phis[(h, dc)])
            if image != _times(D, L.tilde[L.cm.action(h, c)]):
                fails.append((f"({letter}={P.names[h]},c={C.names[c]})",
                              f"phi_{letter}(tilde c) != tilde(^{letter} c)"))
    return fails


# --------------------------------------------------------------------------
# group-algebra constructions
# --------------------------------------------------------------------------

def group_algebra_C(cm: CrossedModule, field, name=None) -> CrossedCAlgebra:
    """Basis e_c graded by the boundary; products multiply in the top group,
    the pairing picks out inverses, the action permutes basis labels, and
    each distinguished unit is its own basis vector."""
    C, P, f = cm.top, cm.base, field
    members = [[c for c in C.elements() if cm.d(c) == p] for p in P.elements()]
    pos = {}
    for p in P.elements():
        for i, c in enumerate(members[p]):
            pos[c] = i
    dims = [len(m) for m in members]
    basis_names = [[f"e_{C.names[c]}" for c in members[p]] for p in P.elements()]
    mul = {}
    for g in P.elements():
        for h in P.elements():
            gh = P.mul(g, h)
            block = [[[f.one if C.mul(a, b) == t else f.zero for t in members[gh]]
                      for b in members[h]] for a in members[g]]
            mul[(g, h)] = block
    unit = tuple(f.one if c == 0 else f.zero for c in members[0])
    rho = {}
    for g in P.elements():
        ginv = P.inv[g]
        rho[g] = Matrix(f, [[f.one if C.inv[a] == b else f.zero for b in members[ginv]]
                            for a in members[g]], cols=dims[ginv])
    phi = {}
    for h in P.elements():
        for g in P.elements():
            tgt = P.conj(h, g)
            phi[(h, g)] = Matrix(f, [[f.one if cm.action(h, a) == b else f.zero
                                      for a in members[g]] for b in members[tgt]],
                                 cols=dims[g])
    tilde = []
    for c in C.elements():
        vec = [f.zero] * dims[cm.d(c)]
        vec[pos[c]] = f.one
        tilde.append(tuple(vec))
    return CrossedCAlgebra(name or f"K[C]({cm.name})", cm, f, dims, basis_names,
                           mul, unit, rho, phi, tilde)


def group_algebra_P(cm: CrossedModule, field, name=None) -> CrossedCAlgebra:
    """One basis vector e_g per base element; the action conjugates labels
    and the distinguished units are tilde(c) = e_{d(c)}."""
    P, C, f = cm.base, cm.top, field
    dims = [1] * P.order
    basis_names = [[f"e_{P.names[g]}"] for g in P.elements()]
    mul = {(g, h): [[[f.one]]] for g in P.elements() for h in P.elements()}
    rho = {g: Matrix(f, [[f.one]]) for g in P.elements()}
    phi = {(h, g): Matrix(f, [[f.one]]) for h in P.elements() for g in P.elements()}
    tilde = [(f.one,) for _ in C.elements()]
    return CrossedCAlgebra(name or f"K[P]({cm.name})", cm, f, dims, basis_names,
                           mul, (f.one,), rho, phi, tilde)


# --------------------------------------------------------------------------
# theta and the boxed identities
# --------------------------------------------------------------------------

def theta(L: CrossedCAlgebra, c: int, g: int) -> Matrix:
    """Left multiplication by tilde(c), as a matrix L_g -> L_{d(c) g};
    invertible on a valid algebra."""
    return L.left_mul_matrix(L.cm.d(c), L.tilde[c], g)


def _theta_columns(t: _Tables):
    """The columns of every theta(c, g) on the tables' algebra and their
    supports, as two dicts keyed by (c, g). Column j is tilde(c) e_j, the
    sum of column j of the mul(d(c), g) cells over the support of tilde(c);
    it has degree 2 (tilde and mul)."""
    L = t.L
    P, C, dims, d, f = L.P, L.C, L.dims, L.cm.d, L.field
    cols, sups = {}, {}
    for c in C.elements():
        for g in P.elements():
            n = dims[P.mul(d(c), g)]
            cols[(c, g)] = [_total(f, n, t.tilde_sup[c], col) for col in t.cols[(d(c), g)]]
            sups[(c, g)] = [_support(v) for v in cols[(c, g)]]
    return cols, sups


def check_boxed_identities(L: CrossedCAlgebra) -> CheckReport:
    """The four composition identities relating theta, the product, rho and
    phi, swept over every (c, c', g, h) in the crossed module.

    They run on `_cleared(L)`, with the side of lower degree in the
    structure maps multiplied up by D as in `check_crossed_algebra`, and read
    the same tables (`_tables`). No matrix is built or multiplied: each
    theta(c, g) is kept as its columns and their supports
    (`_theta_columns`), and both sides of an identity are compared column by
    column (row by row for rho), each column a `_total` of stored vectors over
    a support."""
    report = CheckReport(f"boxed identities for {L.name}")
    t = _tables(L)
    L, D, prod, phis, phis_sup, tilde_sup = t.L, t.D, t.prod, t.phis, t.phis_sup, t.tilde_sup
    P, C, dims, f = L.P, L.C, L.dims, L.field
    d, act = L.cm.d, L.cm.action
    thetas, theta_sup = _theta_columns(t)

    # column j of theta(c', dc*g) theta(c, g) sums the columns of
    # theta(c', dc*g) over the support of column j of theta(c, g); degree 2
    # against 4
    scaled = {key: [_times(D ** 2, v) for v in cols] for key, cols in thetas.items()}
    fails = []
    for c2 in C.elements():
        for c in C.elements():
            c2c = C.mul(c2, c)
            for g in P.elements():
                outer, n = thetas[(c2, P.mul(d(c), g))], dims[P.mul(d(c2c), g)]
                if [_total(f, n, sup, outer) for sup in theta_sup[(c, g)]] != scaled[(c2c, g)]:
                    fails.append((f"(c'={C.names[c2]},c={C.names[c]},g={P.names[g]})",
                                  "theta(c'c,g) != theta(c',dc*g) theta(c,g)"))
    report.add("theta_composition", fails)

    # column i of x |-> x tilde(c) on L_g sums row i of the mul(g, dc) cells
    # over the support of tilde(c); degree 2 against 2
    fails = []
    for c in C.elements():
        dc = d(c)
        for g in P.elements():
            n = dims[P.mul(g, dc)]
            if [_total(f, n, tilde_sup[c], row) for row in prod[(g, dc)]] != \
                    thetas[(act(g, c), g)]:
                fails.append((f"(c={C.names[c]},g={P.names[g]})",
                              "x tilde(c) != tilde(^g c) x"))
    report.add("theta_translation", fails)

    # row j of theta(c, g)^T rho_dcg sums the rows of rho_dcg over the
    # support of column j of theta(c, g); row k of (rho_g theta')^T, with
    # theta' = theta(^{g^-1}c, (dcg)^-1), sums the columns of rho_g over that
    # of column k of theta'. Paired grades may differ in dimension, so the
    # second is transposed with its row count given. Degree 3 against 3
    rho_cols = {g: m.transpose().data for g, m in L.rho.items()}
    fails = []
    for c in C.elements():
        for g in P.elements():
            dcg = P.mul(d(c), g)
            n, rho_rows = dims[P.inv[dcg]], L.rho[dcg].data
            lhs = [_total(f, n, sup, rho_rows) for sup in theta_sup[(c, g)]]
            rhs_t = [_total(f, dims[g], sup, rho_cols[g])
                     for sup in theta_sup[(act(P.inv[g], c), P.inv[dcg])]]
            if lhs != (list(zip(*rhs_t)) if rhs_t else [()] * dims[g]):
                fails.append((f"(c={C.names[c]},g={P.names[g]})",
                              "rho(tilde(c) x, y) != rho(x, tilde(^{g^-1}c) y)"))
    report.add("theta_rho", fails)

    # column j of phi_h theta(c, g) sums the columns of phi(h, dcg) over the
    # support of column j of theta(c, g), and column j of
    # theta(^h c, ^h g) phi_h sums the columns of theta(^h c, ^h g) over the
    # support of phi_h(e_j); degree 3 against 3
    fails = []
    for c in C.elements():
        for g in P.elements():
            dcg = P.mul(d(c), g)
            for h in P.elements():
                n, image = dims[P.conj(h, dcg)], phis[(h, dcg)]
                outer = thetas[(act(h, c), P.conj(h, g))]
                if [_total(f, n, sup, image) for sup in theta_sup[(c, g)]] != \
                        [_total(f, n, sup, outer) for sup in phis_sup[(h, g)]]:
                    fails.append((f"(c={C.names[c]},g={P.names[g]},h={P.names[h]})",
                                  "phi_h theta(c,g) != theta(^h c, ^h g) phi_h"))
    report.add("theta_phi", fails)

    return report


def aut_square_check(L: CrossedCAlgebra) -> CheckReport:
    """Pointwise verification that tilde and phi form a morphism into the
    units/automorphisms crossed module of L, without enumerating Aut(L):
    each tilde(c) is a unit, conjugation by tilde(c) equals phi_{d(c)} on
    every grade, and tilde is action-equivariant. The families run on
    `_cleared(L)`, with the side of lower degree in the structure maps
    multiplied up by the common denominator, and read the tables of
    `check_crossed_algebra` and the theta supports of
    `check_boxed_identities`: every product is a `_total` or `_product` of
    stored vectors over a support, and no matrix is built."""
    report = CheckReport(f"units/automorphisms square for {L.name}")
    t = _tables(L)
    L, D, prod, phis, tilde_sup = t.L, t.D, t.prod, t.phis, t.tilde_sup
    P, C, dims, f = L.P, L.C, L.dims, L.field
    d = L.cm.d

    # tilde(c) tilde(c^-1) has degree 3 against 1
    fails = []
    unit = _times(D ** 2, L.unit)
    for c in C.elements():
        cinv = C.inv[c]
        dc, dcinv = d(c), d(cinv)
        left = _product(f, dims[P.mul(dc, dcinv)], tilde_sup[c], tilde_sup[cinv],
                        prod[(dc, dcinv)])
        right = _product(f, dims[P.mul(dcinv, dc)], tilde_sup[cinv], tilde_sup[c],
                         prod[(dcinv, dc)])
        if left != unit or right != unit:
            fails.append((f"c={C.names[c]}", "tilde(c) is not a unit"))
    report.add("tilde_units", fails)

    # x |-> tilde(c) x tilde(c)^-1, using tilde(c^-1) as the inverse: column
    # j sums the columns of x |-> x tilde(c^-1) on L_dcg (row k of the
    # mul(dcg, d(c^-1)) cells summed over the support of tilde(c^-1)) over
    # the support of column j of theta(c, g); degree 4 against 1
    _, theta_sup = _theta_columns(t)
    fails = []
    for c in C.elements():
        cinv = C.inv[c]
        dcinv = d(cinv)
        for g in P.elements():
            dcg = P.mul(d(c), g)
            n = dims[P.mul(dcg, dcinv)]
            right = [_total(f, n, tilde_sup[cinv], row) for row in prod[(dcg, dcinv)]]
            if [_total(f, n, sup, right) for sup in theta_sup[(c, g)]] != \
                    [_times(D ** 3, v) for v in phis[(d(c), g)]]:
                fails.append((f"(c={C.names[c]},g={P.names[g]})",
                              "conjugation by tilde(c) != phi_{d(c)}"))
    report.add("delta_tilde_equals_phi_boundary", fails)
    report.add("square_equivariance", _equivariance_fails(t, "p"))
    return report


# --------------------------------------------------------------------------
# morphisms
# --------------------------------------------------------------------------

@dataclass
class CrossedAlgebraMorphism:
    """A grade-respecting algebra map over a crossed-module morphism.

    The pairing condition is required gradewise: rho'(theta a, theta b) =
    rho(a, b) for a, b in inverse grades of the source (the reading under
    which the pullback/pushforward transposes are bijections)."""

    over: CrossedModuleMorphism
    source: CrossedCAlgebra
    target: CrossedCAlgebra
    blocks: dict  # p -> Matrix dims'[f0(p)] x dims[p]


def check_algebra_morphism(m: CrossedAlgebraMorphism) -> CheckReport:
    """The crossed-module morphism it lies over, then the algebra map."""
    report = CheckReport("crossed algebra morphism")
    report.merge(check_morphism(m.over))
    if report.ok:
        _check_blocks(m, report)
    return report


def _check_blocks(m: CrossedAlgebraMorphism, report: CheckReport) -> CheckReport:
    """Add to `report` the families of the algebra map: its block shapes,
    then, if they fit, each structure map it must preserve. Assumes the
    crossed-module morphism it lies over passes.

    theta(e_i e_j) is the block of gh applied to the stored cell e_i e_j,
    and theta(e_i) is column i of the block of g, so no basis vector is
    built or multiplied."""
    L, Lp, B = m.source, m.target, m.blocks
    P, C = L.P, L.C
    f0, f1 = m.over.f_base.map, m.over.f_top.map
    bad = []
    for p in P.elements():
        blk = B.get(p)
        want = (Lp.dims[f0[p]], L.dims[p])
        if blk is None or blk.shape() != want:
            bad.append((f"p={P.names[p]}", f"block shape should be {want}"))
    report.add("block_shapes", bad)
    if bad:
        return report

    report.add("unit_preserved",
               [] if B[0].apply(L.unit) == Lp.unit else [("1", "theta(1) != 1'")])

    fails = []
    cols = {p: B[p].transpose().data for p in P.elements()}
    for g in P.elements():
        for h in P.elements():
            gh, cells = P.mul(g, h), L.mul[(g, h)]
            for i, ni in enumerate(L.basis_names[g]):
                for j, nj in enumerate(L.basis_names[h]):
                    lhs = B[gh].apply(cells[i][j])
                    if lhs != Lp.multiply(f0[g], cols[g][i], f0[h], cols[h][j]):
                        fails.append((f"({ni},{nj})", "theta(xy) != theta(x) theta(y)"))
    report.add("multiplicative", fails)

    fails = []
    for g in P.elements():
        lhs = B[g].transpose() @ Lp.rho[f0[g]] @ B[P.inv[g]]
        if lhs != L.rho[g]:
            fails.append((f"g={P.names[g]}", "pairing not preserved gradewise"))
    report.add("rho_preserved", fails)

    fails = []
    for h in P.elements():
        for g in P.elements():
            if Lp.phi[(f0[h], f0[g])] @ B[g] != B[P.conj(h, g)] @ L.phi[(h, g)]:
                fails.append((f"(h={P.names[h]},g={P.names[g]})",
                              "phi'_{f0 h} theta != theta phi_h"))
    report.add("phi_compatible", fails)

    fails = []
    for c in C.elements():
        if B[L.cm.d(c)].apply(L.tilde[c]) != Lp.tilde[f1[c]]:
            fails.append((f"c={C.names[c]}", "theta(tilde c) != tilde'(f1 c)"))
    report.add("tilde_compatible", fails)
    return report


def is_isomorphism(m: CrossedAlgebraMorphism) -> bool:
    """Every block is square with no kernel."""
    blocks = [m.blocks[p] for p in m.source.P.elements()]
    return all(blk.rows == blk.cols and not blk.nullspace() for blk in blocks)


# --------------------------------------------------------------------------
# pullback
# --------------------------------------------------------------------------

def pullback(fmor: CrossedModuleMorphism, Lp: CrossedCAlgebra, name=None) -> CrossedCAlgebra:
    """Re-grade an algebra over the target along the base map: grade p gets a
    copy of the target's grade f0(p); the pairing vanishes between non-inverse
    source grades by construction."""
    require_same(Lp.cm, fmor.target, "the algebra", "the morphism's target is")
    src = fmor.source
    f0 = fmor.f_base.map
    f1 = fmor.f_top.map
    P, f = src.base, Lp.field
    dims = [Lp.dims[f0[p]] for p in P.elements()]
    basis_names = [[f"{nm}@{P.names[p]}" for nm in Lp.basis_names[f0[p]]]
                   for p in P.elements()]
    mul = {(g, h): Lp.mul[(f0[g], f0[h])] for g in P.elements() for h in P.elements()}
    rho = {g: Lp.rho[f0[g]] for g in P.elements()}
    phi = {(h, g): Lp.phi[(f0[h], f0[g])] for h in P.elements() for g in P.elements()}
    tilde = [Lp.tilde[f1[c]] for c in src.top.elements()]
    return CrossedCAlgebra(name or f"pullback({Lp.name})", src, f, dims,
                           basis_names, mul, Lp.unit, rho, phi, tilde)


# --------------------------------------------------------------------------
# the section/cocycle isomorphism K[P] ~ q*(K[G])
# --------------------------------------------------------------------------

def kp_iso_witness(cm: CrossedModule, field):
    """The isomorphism e_p |-> (e_{q(p)})_n between the base group algebra and
    the pullback of the quotient group algebra, where p = n s(q(p)).

    Verifies that the witness is a morphism of crossed algebras over the
    identity (its blocks are 1x1 identities, so it is an isomorphism), and
    that multiplication in the pullback follows the section's twisted
    cocycle law. Returns the witness morphism.
    """
    qmor = quotient_morphism(cm)
    q = qmor.f_base
    sec = section(q)
    coc = cocycle_from_section(sec)
    KG = group_algebra_P(qmor.target, field, name=f"K[G]({cm.name})")
    pulled = pullback(qmor, KG, name=f"q*(K[G])({cm.name})")
    KP = group_algebra_P(cm, field)
    blocks = {p: Matrix.identity(field, 1) for p in cm.base.elements()}
    # identity_morphism checked the crossed-module morphism; only the blocks remain
    witness = CrossedAlgebraMorphism(identity_morphism(cm), KP, pulled, blocks)
    _check_blocks(witness, CheckReport("crossed algebra morphism")).require(AssertionError)
    verify_cocycle_multiplication(cm, q, sec, coc, pulled)
    return witness


def verify_cocycle_multiplication(cm, q, sec, coc, pulled):
    """Check (e_{g1})_{n1} (e_{g2})_{n2} = (e_{g1g2})_{n1 ^{s(g1)}n2 f(g1,g2)}
    for every pair of basis units of the pullback algebra."""
    P, G = cm.base, q.target
    f = pulled.field

    def nPart(p):
        return P.mul(p, P.inv[sec(q.map[p])])

    for p1 in P.elements():
        for p2 in P.elements():
            g1, g2 = q.map[p1], q.map[p2]
            n1, n2 = nPart(p1), nPart(p2)
            n = P.mul(P.mul(n1, P.conj(sec(g1), n2)), coc.values[g1][g2])
            expected_grade = P.mul(n, sec(G.mul(g1, g2)))
            if P.mul(p1, p2) != expected_grade:
                raise AssertionError(
                    f"cocycle law fails at ({P.names[p1]},{P.names[p2]})")
            if pulled.mul[(p1, p2)][0][0] != [f.one]:
                raise AssertionError(
                    f"pullback product is not the unit basis vector at ({P.names[p1]},{P.names[p2]})")


# --------------------------------------------------------------------------
# pushforward
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PushforwardData:
    """The pushforward f_*L of `source` along `fmor`, with what factors
    morphisms through it. The grades p with f0(p) = q make up class q, laid
    end to end in one class block; `spans[q]` is the ideal of that block, in
    reduced row-echelon form. Quotient basis vector k of class q is the class
    of e_i in L_p, with (p, i) = `free[q][k]` at the k-th free column, and
    `pis[p]` is the quotient map pi on L_p."""

    fmor: CrossedModuleMorphism
    source: CrossedCAlgebra
    algebra: CrossedCAlgebra
    members: dict   # q -> [p with f0(p) = q]
    spans: dict     # q -> RowSpace, the ideal of class q
    free: dict      # q -> [(p, i)] at the free columns of class q, in order
    pis: dict       # p -> Matrix, pi on L_p


def _column(m: Matrix, i: int):
    return tuple(row[i] for row in m.data)


def _quotient_pairing(L: CrossedCAlgebra, pis, grades, dq: int, dqinv: int, name: str) -> Matrix:
    """The pairing of the pushforward at the class named `name`, whose
    grades are `grades`: the unique B with pi(a)^T B pi(b) = rho_p(a, b) for
    every grade p of the class and all basis vectors a of L_p and b of
    L_{p^-1}, with pi_p read from `pis`.

    Each constraint is linear in the entries of B read row by row, with the
    Kronecker product of pi(a) and pi(b) as its coefficients, so grade p
    contributes the rows of pi_p^T (x) pi_{p^-1}^T against rho_p read row by
    row, and one solve gives B. Raises RhoIllDefined when no B satisfies
    every constraint, or when more than one does."""
    field = L.field
    system, rhs = [], []
    for p in grades:
        pinv = L.P.inv[p]
        system += pis[p].transpose().kron(pis[pinv].transpose()).data
        rhs += [x for row in L.rho[p].data for x in row]
    A = Matrix._of(field, tuple(system), dq * dqinv)
    x = A.solve(rhs)
    if x is None:
        raise RhoIllDefined(f"no pairing in class {name} is preserved by the quotient map")
    if A.nullspace():
        raise RhoIllDefined(f"the quotient map does not determine the pairing in class {name}")
    return Matrix._of(field, tuple(x[k * dqinv:(k + 1) * dqinv] for k in range(dq)), dqinv)


def pushforward_ideal(fmor: CrossedModuleMorphism, L: CrossedCAlgebra) -> tuple[dict, dict]:
    """The defining ideal of the pushforward, as `(members, spans)`: class q
    is the grades `members[q]` (those p with f0(p) = q) laid end to end, and
    `spans[q]` is the ideal's row space of that class block. The ideal is
    generated by phi_n(a) - a (n in ker f0) and tilde(b) - 1 (b in ker f1),
    closed under left/right products with every basis vector; the generators
    are homogeneous for the target grading, so it is kept per class.

    Every product reads the stored cells: e_i x, for e_i in L_r and x in
    L_p, sums row i of the mul(r, p) cells over the support of x, and x e_i
    sums column i of the mul(p, r) cells. Multiplying by e_i maps the grades
    of a class one to one onto those of its image class (p to rp on the
    left, to pr on the right), so the product of a class vector is the
    products of its grade parts laid end to end, in the image class's order."""
    require_same(L.cm, fmor.source, "the algebra", "the morphism's source is")
    tgt = fmor.target
    P, Q, C, D = fmor.source.base, tgt.base, fmor.source.top, tgt.top
    f0, f1 = fmor.f_base.map, fmor.f_top.map
    field, dims = L.field, L.dims
    if set(f1) != set(D.elements()):
        raise ValueError("pushforward requires the top map to be surjective")

    members = {q: [p for p in P.elements() if f0[p] == q] for q in Q.elements()}
    offsets = {q: dict(zip(ps, itertools.accumulate((dims[p] for p in ps), initial=0)))
               for q, ps in members.items()}
    spans = {q: RowSpace(field, sum(dims[p] for p in ps)) for q, ps in members.items()}

    def generator(q, p1, v1, p2, v2):
        """v1 in the slot of grade p1 minus v2 in that of grade p2, as a
        vector of class q."""
        out = [field.zero] * spans[q].n
        o1, o2 = offsets[q][p1], offsets[q][p2]
        out[o1:o1 + len(v1)] = v1
        for k, x in enumerate(v2):
            out[o2 + k] = field.sub(out[o2 + k], x)
        return q, tuple(out)

    generators = []
    for n in (p for p in members[0] if p != 0):
        for p in P.elements():
            for i, image in enumerate(L.phi[(n, p)].transpose().data):
                generators.append(generator(f0[p], P.conj(n, p), image,
                                            p, unit_vector(field, dims[p], i)))
    for b in (c for c in C.elements() if f1[c] == 0 and c != 0):
        generators.append(generator(0, L.cm.d(b), L.tilde[b], 0, L.unit))

    queue = [(qq, vec) for qq, vec in generators if spans[qq].add(vec)]
    while queue:
        qq, vec = queue.pop()
        sups = {p: _support(vec[o:o + dims[p]]) for p, o in offsets[qq].items()}
        for r in P.elements():
            ql, qr, rinv = Q.mul(f0[r], qq), Q.mul(qq, f0[r]), P.inv[r]
            # (p, grade of the product) in the order of the image class
            lefts = [(P.mul(rinv, rp), rp) for rp in members[ql]]
            rights = [(P.mul(pr, rinv), pr) for pr in members[qr]]
            for i in range(dims[r]):
                out = tuple(itertools.chain.from_iterable(
                    _total(field, dims[rp], sups[p], L.mul[(r, p)][i]) for p, rp in lefts))
                if any(out) and spans[ql].add(out):
                    queue.append((ql, out))
                out = tuple(itertools.chain.from_iterable(
                    _total(field, dims[pr], sups[p], [row[i] for row in L.mul[(p, r)]])
                    for p, pr in rights))
                if any(out) and spans[qr].add(out):
                    queue.append((qr, out))
    return members, spans


def pushforward_data(fmor: CrossedModuleMorphism, L: CrossedCAlgebra, name=None) -> PushforwardData:
    """The pushforward algebra: the source quotiented by the defining ideal
    (`pushforward_ideal`), regraded over the target base group.

    The quotient maps are read off each class's reduced rows: free column k
    maps to unit vector k, and the pivot column of row r to minus row r on
    the free columns. So the quotient basis of a class is the classes of its
    free basis vectors, each structure constant of f_*L is pi of one of L's,
    and each column of the action is pi of one column of L's. For a target
    grade outside the image of f0 the action is extended by the identity.
    The pairing is the one form that pi preserves in every grade
    (`_quotient_pairing`).

    Raises, at the first fault met:
    - CrossedModuleMismatch when L is not over the source of fmor;
    - ValueError "pushforward requires the top map to be surjective" when
      f1 is not onto;
    - RhoIllDefined "no pairing in class q is preserved by the quotient
      map" when no pairing is preserved (K[C](CM-Mod) along its quotient),
      and "the quotient map does not determine the pairing in class q" when
      more than one is;
    - ValueError "cannot extend the action to a outside the image" when a
      grade a outside the image of f0 moves a grade q by conjugation or
      changes its dimension, as (12) does for (1 -> 1) -> (1 -> S3);
    - ValueError "action on the quotient depends on the representative of
      a" when two grades of class a act differently on the quotient, and
      "tilde on the quotient depends on the lift of d" when two lifts of d
      have units in different classes. The ideal holds phi_n(x) - x and
      tilde(b) - 1 for n and b in the kernels, so only an L that fails
      `check_crossed_algebra` reaches these (L itself is not checked);
    - ValueError naming the first failing family when f_*L fails
      `check_crossed_algebra`.
    """
    members, spans = pushforward_ideal(fmor, L)
    tgt = fmor.target
    P, Q, C, D = fmor.source.base, tgt.base, fmor.source.top, tgt.top
    f1 = fmor.f_top.map
    field, dims = L.field, L.dims

    free, pis = {}, {}
    for qq in Q.elements():
        span = spans[qq]
        pivot_rows = dict(zip(span.pivots, span.basis))
        free_cols = [j for j in range(span.n) if j not in pivot_rows]
        k_of = {j: k for k, j in enumerate(free_cols)}
        # column j of pi on the class block
        cols = [unit_vector(field, len(free_cols), k_of[j]) if j in k_of
                else tuple(field.neg(pivot_rows[j][c]) for c in free_cols)
                for j in range(span.n)]
        pairs = [(p, i) for p in members[qq] for i in range(dims[p])]
        free[qq] = [pairs[j] for j in free_cols]
        for p in members[qq]:
            pis[p] = Matrix.from_columns(field, [col for (r, _), col in zip(pairs, cols) if r == p],
                                         len(free_cols))

    dims_new = [len(free[qq]) for qq in Q.elements()]
    basis_names = [[f"{Q.names[qq]}#{k}" for k in range(dims_new[qq])]
                   for qq in Q.elements()]
    mul_new = {}
    for q1 in Q.elements():
        for q2 in Q.elements():
            mul_new[(q1, q2)] = [[pis[P.mul(p1, p2)].apply(L.mul[(p1, p2)][i1][i2])
                                  for p2, i2 in free[q2]]
                                 for p1, i1 in free[q1]]

    unit_new = pis[0].apply(L.unit)
    rho_new = {qq: _quotient_pairing(L, pis, members[qq], dims_new[qq], dims_new[Q.inv[qq]],
                                     Q.names[qq])
               for qq in Q.elements()}

    phi_new = {}
    for qa in Q.elements():
        reps = members[qa]
        for qq in Q.elements():
            qc = Q.conj(qa, qq)
            if not reps:
                if qc != qq or dims_new[qc] != dims_new[qq]:
                    raise ValueError(
                        f"cannot extend the action to {Q.names[qa]} outside the image")
                phi_new[(qa, qq)] = Matrix.identity(field, dims_new[qq])
                continue
            candidates = []
            for pa in reps:
                cols = [pis[P.conj(pa, p)].apply(_column(L.phi[(pa, p)], i)) for p, i in free[qq]]
                candidates.append(Matrix.from_columns(field, cols, dims_new[qc]))
            if any(cand != candidates[0] for cand in candidates[1:]):
                raise ValueError(
                    f"action on the quotient depends on the representative of {Q.names[qa]}")
            phi_new[(qa, qq)] = candidates[0]

    tilde_new = []
    for d in D.elements():
        choices = [c for c in C.elements() if f1[c] == d]
        images = {pis[L.cm.d(c)].apply(L.tilde[c]) for c in choices}
        if len(images) != 1:
            raise ValueError(
                f"tilde on the quotient depends on the lift of {D.names[d]}")
        tilde_new.append(images.pop())

    algebra = CrossedCAlgebra(name or f"push({L.name})", tgt, field, dims_new,
                              basis_names, mul_new, unit_new, rho_new, phi_new,
                              tilde_new)
    check_crossed_algebra(algebra).require()
    return PushforwardData(fmor, L, algebra, members, spans, free, pis)


def pushforward(fmor: CrossedModuleMorphism, L: CrossedCAlgebra, name=None) -> CrossedCAlgebra:
    return pushforward_data(fmor, L, name).algebra


# --------------------------------------------------------------------------
# adjunction transposes
# --------------------------------------------------------------------------

def transpose_to_pullback(m: CrossedAlgebraMorphism) -> CrossedAlgebraMorphism:
    """Re-view a morphism over f as a morphism into the pullback (same blocks)."""
    pulled = pullback(m.over, m.target)
    return CrossedAlgebraMorphism(identity_morphism(m.source.cm), m.source,
                                  pulled, dict(m.blocks))


def untranspose_from_pullback(m2: CrossedAlgebraMorphism, fmor: CrossedModuleMorphism,
                              Lp: CrossedCAlgebra) -> CrossedAlgebraMorphism:
    """Inverse of transpose_to_pullback: same blocks, target re-graded back."""
    return CrossedAlgebraMorphism(fmor, m2.source, Lp, dict(m2.blocks))


def transpose_from_pushforward(m: CrossedAlgebraMorphism,
                               data: PushforwardData) -> CrossedAlgebraMorphism:
    """Factor a morphism over f through the pushforward of its source.

    The quotient basis of a class is the classes of its free basis vectors
    (`data.free`), so the factored block B_q of class q is the block columns
    at the free pairs: column k is column i of the block of grade p, with
    (p, i) the k-th free pair. The ideal is the kernel of pi, and m kills it
    exactly when it factors as B pi, that is when B_q pi_p = m_p for every
    grade p of class q (pi_p is `data.pis[p]`). Raises ValueError naming the
    first class where it does not (impossible for a valid morphism over f)."""
    Lp, field = m.target, m.source.field
    Q = m.over.target.base
    blocks = {}
    for qq in Q.elements():
        blocks[qq] = Matrix.from_columns(field, [_column(m.blocks[p], i)
                                                 for p, i in data.free[qq]], Lp.dims[qq])
        if any(blocks[qq] @ data.pis[p] != m.blocks[p] for p in data.members[qq]):
            raise ValueError(f"morphism does not kill the ideal in class {Q.names[qq]}")
    return CrossedAlgebraMorphism(identity_morphism(m.over.target), data.algebra, Lp, blocks)


def untranspose_to_pushforward(m2: CrossedAlgebraMorphism,
                               data: PushforwardData) -> CrossedAlgebraMorphism:
    """Inverse of transpose_from_pushforward: precompose with the quotient
    maps `data.pis`, over the morphism of `data` and from its source."""
    f0 = data.fmor.f_base.map
    blocks = {p: m2.blocks[f0[p]] @ pi for p, pi in data.pis.items()}
    return CrossedAlgebraMorphism(data.fmor, data.source, m2.target, blocks)


def morphisms_equal(a: CrossedAlgebraMorphism, b: CrossedAlgebraMorphism) -> bool:
    return all(a.blocks[p] == b.blocks[p] for p in a.source.P.elements())


# --------------------------------------------------------------------------
# bounded exhaustive morphism enumeration (small prime fields)
# --------------------------------------------------------------------------

# the search visits p ** (free entries) candidates: 20 free entries over F2
MAX_CANDIDATES = 2 ** 20


def enumerate_algebra_morphisms(fmor: CrossedModuleMorphism, L: CrossedCAlgebra,
                                Lp: CrossedCAlgebra):
    """All crossed algebra morphisms L -> Lp over fmor, by exhausting every
    grade-block matrix over a finite field. Witness-based checking makes
    search over Q unbounded, so this requires a prime field. fmor is checked
    once: over a failing one there is no morphism, over a passing one each
    candidate runs only the families of its blocks."""
    field = L.field
    if not hasattr(field, "p"):
        raise ValueError("exhaustive morphism search needs a finite prime field")
    f0 = fmor.f_base.map
    shapes = [(p, Lp.dims[f0[p]], L.dims[p]) for p in L.P.elements()]
    total = sum(r * c for _, r, c in shapes)
    if field.p ** total > MAX_CANDIDATES:
        raise ValueError(f"{field.p}**{total} candidates exceed the bound {MAX_CANDIDATES}")
    if not check_morphism(fmor).ok:
        return []
    found = []
    for assignment in itertools.product(range(field.p), repeat=total):
        blocks, k = {}, 0
        for p, r, c in shapes:
            blocks[p] = Matrix(field, [[assignment[k + i * c + j] for j in range(c)]
                                       for i in range(r)], cols=c)
            k += r * c
        m = CrossedAlgebraMorphism(fmor, L, Lp, blocks)
        if _check_blocks(m, CheckReport("crossed algebra morphism")).ok:
            found.append(m)
    return found
