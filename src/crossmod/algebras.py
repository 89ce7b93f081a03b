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
import operator
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
from .linalg import Matrix, RowSpace, interned, unit_vector
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
        # a block equal to an identity is kept as the shared instance
        self.rho = {g: interned(m) for g, m in rho.items()}
        self.phi = {key: interned(m) for key, m in phi.items()}

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

    # -- arithmetic on homogeneous vectors -----------------------------------

    def multiply(self, g: int, x, h: int, y):
        """Product of x in grade g with y in grade h, in grade g*h: the basis
        products e_a e_b, the cells of mul(g, h), summed over the supports of
        x and y (`_combination`)."""
        block = self.mul[(g, h)]
        return tuple(_combination(self.field, self.dims[self.P.mul(g, h)],
                                  [(a * b, block[i][j]) for i, a in _support(x)
                                   for j, b in _support(y)]))

    def mul_matrix(self, g: int, h: int) -> Matrix:
        """Multiplication L_g (x) L_h -> L_{gh} as a matrix on the pair basis:
        the column of the pair (i, j) is the structure vector block[i][j]."""
        cells = [cell for row in self.mul[(g, h)] for cell in row]
        return Matrix.from_columns(self.field, cells, self.dims[self.P.mul(g, h)])

    def left_mul_matrix(self, g: int, a, h: int) -> Matrix:
        """Matrix of x |-> a*x with a in grade g, acting L_h -> L_{gh}: column
        j sums column j of the mul(g, h) cells over a's support
        (`_combination`)."""
        f, block, sup = self.field, self.mul[(g, h)], _support(a)
        dgh = self.dims[self.P.mul(g, h)]
        cols = [_combination(f, dgh, [(x, block[i][j]) for i, x in sup])
                for j in range(self.dims[h])]
        return Matrix.from_columns(f, cols, dgh)

    def pairing(self, g: int, x, y):
        """rho(x, y) for x in grade g, y in grade g^-1: the entries of rho_g
        summed over the supports of x and y (`_combination`)."""
        rho = self.rho[g].data
        return _combination(self.field, 1, [(a * b, (rho[i][j],)) for i, a in _support(x)
                                            for j, b in _support(y)])[0]

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


def _support(vec):
    """The (index, value) pairs of the nonzero entries of vec."""
    return [(k, x) for k, x in enumerate(vec) if x]


def _combination(f, n, terms):
    """The n-vector sum of c * v over the (c, v) terms of vectors of
    canonical scalars, by the field f's `combine`. One term with c = 1 gives
    its stored vector v itself, with no `combine`, as every product of basis
    vectors does in a group basis. For the callers that hold vectors of
    scalars, not the checkers' packed ints: `multiply`, `left_mul_matrix`,
    `pairing` and the pushforward's closure."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return f.combine(n, terms)


def _transposed(rows, n: int):
    """The n columns of a list of rows of length n; n empty columns when
    there are no rows."""
    return list(zip(*rows)) if rows else [()] * n


def _pack(vec, w: int) -> int:
    """The vector of ints vec packed into one int, slot k at bit k*w: the
    sum of vec[k] << k*w, so a slot may be negative (see `_tables`)."""
    return sum(map(operator.lshift, vec, range(0, w * len(vec), w)))


def _slots(v: int, w: int):
    """The slots of the packed vector v, lowest first: slot k is the
    balanced residue in [-2**(w-1), 2**(w-1)) that sits at bit k*w, read off
    until what is left is 0, so a trailing run of zero slots is dropped."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    while v:
        s = ((v + half) & mask) - half
        out.append(s)
        v = (v - s) >> w
    return out


def _total(sup, vecs):
    """The sum of x vecs[k] over the support terms (k, x) of a vector: its
    product with the packed vectors `vecs`, one int multiply-add per term. A
    support of one term with value 1 gives the stored vector itself, as
    every product does in a group basis. With `_product`, the one
    contraction of structure constants in the checkers."""
    if len(sup) == 1 and sup[0][1] == 1:
        return vecs[sup[0][0]]
    return sum([x * vecs[k] for k, x in sup])


def _product(sup1, sup2, block):
    """The product of the vectors with supports sup1 and sup2, from the
    block of packed basis products block[a][b] = e_a e_b, summed as in
    `_total`."""
    if len(sup1) == 1 and len(sup2) == 1 and sup1[0][1] * sup2[0][1] == 1:
        return block[sup1[0][0]][sup2[0][0]]
    return sum([x * y * block[a][b] for a, x in sup1 for b, y in sup2])


class _Tables(NamedTuple):
    """What the checkers read off L, cleared of denominators, each vector
    packed into one int, in lists indexed by grade (see `_tables`)."""
    L: CrossedCAlgebra
    D: int            # the common denominator, 1 over GF(p)
    w: int            # the slot width
    p: int            # the modulus over GF(p), 0 over Q
    conj: list        # [h][g] -> hgh^-1, P's conjugation table
    mul: list         # [g][h] -> [i][j] -> the cleared cell e_i e_j, unpacked
    rho: list         # [g] -> rho_g, cleared
    phi: list         # [h][g] -> phi(h, g), cleared
    prod: list        # [g][h] -> [i][j] -> e_i e_j, the cells of mul(g, h)
    prod_sup: list    # [g][h] -> [i][j] -> support of e_i e_j
    cols: list        # [g][h] -> [j] -> [e_i e_j over i], the columns of mul(g, h)
    phis: list        # [h][g] -> [i] -> phi_h(e_i), the columns of phi(h, g)
    phis_sup: list    # [h][g] -> [i] -> support of phi_h(e_i)
    rho_rows: list    # [g] -> [i] -> row i of rho_g
    rho_sup: list     # [g] -> [i] -> support of row i of rho_g
    unit: int
    unit_sup: list
    tilde: list       # [c] -> tilde(c)
    tilde_sup: list


def _tables(L: CrossedCAlgebra) -> _Tables:
    """The tables of the three checkers, read once per call off L. A stored
    vector is read many times (a basis product once per instance of every
    family that multiplies by it), so each is cleared of denominators and
    packed into one int once, here, and every product in a checker is one
    int multiply-add per support term. Each table is indexed by grade,
    [g][h] for the blocks of mul and [h][g] for those of phi, and built
    block by block, each vector packed and its support read off in one pass.

    Clearing: over Q every entry of mul, unit, rho, phi and tilde is
    multiplied by D, the least common denominator of all of them, one
    `combine(n, [(D, vec)])` per vector, so that every entry is an int; an
    all-int algebra, and any over GF(p), keeps its vectors, with D = 1. On
    the cleared maps an axiom side of degree k in the structure maps is
    D**k times its value on L, so a checker multiplies the side of lower
    degree by the power of D that evens the degrees, which keeps each
    comparison's truth value.

    Packing: the cleared vector (v_0, ..., v_{n-1}) is the int
    sum(v_k << k*w), slot k at bit k*w, with

        w = 4 bits(M) + 3 bits(n) + 2,

    M = max(|cleared entry|, D) and n the largest grade dimension (bits(x)
    is x.bit_length(), so x < 2**bits(x)). Packing is linear, so a sum of
    int multiples of packed vectors is the packed sum, as long as no slot
    overflows. Every slot of every side stays below n**3 M**4 in absolute
    value. The sides of highest degree are theta_composition's
    theta(c', dc g) theta(c, g) and delta_tilde_equals_phi_boundary's
    tilde(c) x tilde(c^-1): a slot of either sums n products x y, where x
    and y each sum n products of an entry of tilde and one of mul, so it is
    at most n (n M**2)(n M**2) = n**3 M**4. Every other side sums at most
    n**2 products of at most three entries, or multiplies at most n products
    of two entries by D, and the side of lower degree is an entry, or a
    slot of theta (at most n M**2), times a power of D that brings its
    degree to at most four. So every slot is below 2**(w-2), and every
    difference of two slots below 2**(w-1). Each slot, and each slot of a
    difference, is then the balanced residue at its place (`_slots`), and
    two sides are equal exactly when their ints are. Over GF(p) the entries
    are residues, D is 1 and the sums are not reduced, so two sides agree
    when their ints are equal, or else when every slot of their difference
    is divisible by p (`_nonzero`).

    The tables: the basis products (the cells of mul) and their columns
    (one for every j in range(dims[h]), empty when dims[g] is 0), the action
    images (the columns of each phi block), the rows of each rho block, the
    unit and each tilde(c), each packed, with the supports of all but the
    columns of the basis products read off the cleared entries; the cleared
    cells and the cleared rho and phi blocks, unpacked, for what is not a
    product of packed vectors (the transposed tables of `_left_rows`, the
    rows of phi in phi_isometry, the trace, and rho's nondegeneracy); and
    P's conjugation table. The families read the rest of the group data off
    the lists that hold it: P.table, P.inv, the boundary and the action."""
    f, dims, G, table = L.field, L.dims, L.P.elements(), L.P.table
    mul = [[L.mul[(g, h)] for h in G] for g in G]
    rho = [L.rho[g] for g in G]
    phi = [[L.phi[(h, g)] for g in G] for h in G]
    unit, tilde = L.unit, L.tilde

    def entries():
        return list(itertools.chain(
            (x for ms in mul for block in ms for row in block for cell in row for x in cell),
            unit, itertools.chain.from_iterable(tilde),
            (x for m in itertools.chain(rho, *phi) for row in m.data for x in row)))

    ints = entries()
    D = math.lcm(*{x.denominator for x in ints}) if f == QQ else 1
    if D != 1:
        def cleared(vec):
            return QQ.combine(len(vec), [(D, vec)])

        def cleared_matrix(m):
            return Matrix._of(f, tuple([cleared(row) for row in m.data]), m.cols)

        mul = [[[[cleared(cell) for cell in row] for row in block] for block in blocks]
               for blocks in mul]
        unit, tilde = cleared(unit), [cleared(v) for v in tilde]
        rho = [cleared_matrix(m) for m in rho]
        phi = [[cleared_matrix(m) for m in ms] for ms in phi]
        ints = entries()
    M = max(D, max(ints, default=0), -min(ints, default=0))
    w = 4 * M.bit_length() + 3 * max(dims).bit_length() + 2

    def packed(vecs):
        return [_pack(v, w) for v in vecs]

    prod, prod_sup, cols = [], [], []
    for blocks in mul:
        cells, sups = [], []
        for block in blocks:
            cells.append(list(map(packed, block)))
            sups.append([list(map(_support, row)) for row in block])
        prod.append(cells)
        prod_sup.append(sups)
        cols.append([_transposed(block, dims[h]) for h, block in enumerate(cells)])
    images = [[_transposed(m.data, m.cols) for m in ms] for ms in phi]
    return _Tables(
        L, D, w, getattr(f, "p", 0), [[table[table[h][g]][L.P.inv[h]] for g in G] for h in G],
        mul, rho, phi, prod, prod_sup, cols, [[packed(vs) for vs in row] for row in images],
        [[list(map(_support, vs)) for vs in row] for row in images],
        [packed(m.data) for m in rho], [list(map(_support, m.data)) for m in rho],
        _pack(unit, w), _support(unit), packed(tilde), list(map(_support, tilde)))


def _left_rows(t: _Tables, g: int, h: int):
    """[i] -> the rows of left multiplication by e_i, L_h -> L_{gh},
    packed: row a holds the a-th entries of the cells e_i e_j over j. The
    one transposed table of the mul(g, h) block, for the products read
    along their second factor (rho_invariant's rho(a, bc), and theta read
    by rows)."""
    n, w = t.L.dims[t.L.P.table[g][h]], t.w
    return [[_pack(col, w) for col in _transposed(row, n)] for row in t.mul[g][h]]


def _nonzero(t: _Tables, v: int) -> bool:
    """Whether v, the difference of two packed sides that are not equal as
    ints, is not zero in the field: always over Q, and over GF(p) when p
    does not divide one of its slots."""
    return not t.p or any(s % t.p for s in _slots(v, t.w))


def _differ(t: _Tables, xs, ys) -> bool:
    """Whether the lists of packed vectors xs and ys, of one length and not
    equal as lists of ints, differ in the field at some position."""
    return any(x != y and _nonzero(t, x - y) for x, y in zip(xs, ys))


def check_crossed_algebra(L: CrossedCAlgebra) -> CheckReport:
    """Every axiom family, exhaustively; the report carries the first
    counterexample instance per family.

    The families read the packed tables of `_tables`, indexed by grade, with
    each lookup that an inner loop does not change taken out of it: over Q
    every structure map is cleared of denominators by D, so every product
    sums ints. Each comparison multiplies its side of lower degree in the
    structure maps by D to the difference of the degrees (the unit axiom
    compares 1 e_i, of degree 2, with e_i times D**2), which keeps every
    result, and so the report, what it is on L.

    A product with a stored vector is `_total` or `_product` over its
    support, one int multiply-add per term, and each side of a vector
    equation is one int: sides are compared as ints, and over GF(p) two
    unequal ones by their slots mod p. The action's composition law
    composes columns of phi, and its isometry rows of rho and phi, the same
    way, and rho_invariant reads rho(a, bc) off the rows of left
    multiplication (`_left_rows`), so it compares one packed vector per
    (a, b) and, on a failure, lists each failing c from its slots. The
    trace family sums products of cleared structure constants directly."""
    report = CheckReport(f"crossed algebra {L.name}")
    # the constructor refused every shape fault
    report.add_pass("well_formed")
    t = _tables(L)
    D, w, prod, prod_sup, cols, unit_sup = t.D, t.w, t.prod, t.prod_sup, t.cols, t.unit_sup
    phis, phis_sup, rho_rows, rho_sup = t.phis, t.phis_sup, t.rho_rows, t.rho_sup
    P, C, f = L.P, L.C, L.field
    G, table, inv, conj, pn = P.elements(), P.table, P.inv, t.conj, P.names
    dims, names = L.dims, L.basis_names
    nonzero = [g for g in G if dims[g] > 0]

    # 1 e_i and e_i 1 have degree 2 (the unit and mul), e_i degree 0
    fails = []
    for g in nonzero:
        left, right = cols[0][g], prod[g][0]
        for i, name in enumerate(names[g]):
            e2 = D * D << w * i
            side = _total(unit_sup, left[i])
            if side != e2 and _nonzero(t, side - e2):
                fails.append((f"1*{name}", "left unit fails"))
            side = _total(unit_sup, right[i])
            if side != e2 and _nonzero(t, side - e2):
                fails.append((f"{name}*1", "right unit fails"))
    report.add("unit", fails)

    # (e_i e_j) e_l sums column l of mul(gh, k) over the support of e_i e_j,
    # and e_i (e_j e_l) sums row i of mul(g, hk) over that of e_j e_l; both
    # sides have degree 2, as in rho_invariant and trace
    fails = []
    for g in nonzero:
        gs, prod_g, sup_g = table[g], prod[g], prod_sup[g]
        for h in nonzero:
            hs, cols_gh, ijs = table[h], cols[gs[h]], sup_g[h]
            for k in nonzero:
                col, rows, jls_h = cols_gh[k], prod_g[hs[k]], prod_sup[h][k]
                for i, ni in enumerate(names[g]):
                    row, ij_i = rows[i], ijs[i]
                    for j, nj in enumerate(names[h]):
                        ij, jls = ij_i[j], jls_h[j]
                        for l, nl in enumerate(names[k]):
                            lhs, rhs = _total(ij, col[l]), _total(jls[l], row)
                            if lhs != rhs and _nonzero(t, lhs - rhs):
                                fails.append((f"({ni},{nj},{nl})", "associativity fails"))
    report.add("associativity", fails)

    fails = []
    for g in G:
        if L.rho[g] != L.rho[inv[g]].transpose():
            fails.append((f"g={pn[g]}", "rho_g != transpose(rho_{g^-1})"))
    report.add("rho_symmetric", fails)

    fails = []
    for g in G:
        if dims[g] != dims[inv[g]]:
            fails.append((f"g={pn[g]}", "paired grades have different dimensions"))
        elif t.rho[g].nullspace():
            fails.append((f"g={pn[g]}", "rho block is singular"))
    report.add("rho_nondegenerate", fails)

    # rho(e_i e_j, e_k) for every k at once sums the rows of rho_gh over the
    # support of e_i e_j; rho(e_i, e_j e_k) for every k at once sums the
    # rows of left multiplication by e_j over the support of row i of rho_g.
    # Each (g, h) reads its own mul(h, (gh)^-1) block
    fails = []
    for g in nonzero:
        gs, sup_g, rsup = table[g], prod_sup[g], rho_sup[g]
        for h in nonzero:
            gh, ghinv = gs[h], inv[gs[h]]
            rho_gh, rows, ijs, kn = rho_rows[gh], _left_rows(t, h, ghinv), sup_g[h], names[ghinv]
            for i, ni in enumerate(names[g]):
                sup, ij_i = rsup[i], ijs[i]
                for j, nj in enumerate(names[h]):
                    lhs, rhs = _total(ij_i[j], rho_gh), _total(sup, rows[j])
                    if lhs != rhs:
                        for k, s in enumerate(_slots(lhs - rhs, w)):
                            if s and (not t.p or s % t.p):
                                fails.append((f"({ni},{nj},{kn[k]})", "rho(ab,c) != rho(a,bc)"))
    report.add("rho_invariant", fails)

    # the identity, of degree 0, is compared with phi_1 (degree 1), and
    # phi_hk (degree 1) with phi_h phi_k (degree 2), column by column:
    # column i of phi_h phi_k sums the columns of phi_h over the support of
    # column i of phi_k
    ident = [[D << w * i for i in range(dims[g])] for g in G]
    phis_D = phis if D == 1 else [[[D * v for v in vs] for vs in row] for row in phis]
    fails = []
    for g in G:
        if phis[0][g] != ident[g]:
            fails.append((f"g={pn[g]}", "phi_1 is not the identity"))
    for h in G:
        hs, outers = table[h], phis[h]
        for k in G:
            ks, sups, wants = conj[k], phis_sup[k], phis_D[hs[k]]
            for g in nonzero:
                outer, want = outers[ks[g]], wants[g]
                got = [_total(sup, outer) for sup in sups[g]]
                if got != want and _differ(t, got, want):
                    fails.append((f"(h={pn[h]},k={pn[k]},g={pn[g]})", "phi_h phi_k != phi_hk"))
    report.add("phi_homomorphism", fails)

    # phi_h(1) has degree 2 against 1, phi_h(xy) degree 2 against 3
    fails = []
    unit = D * t.unit
    for h in G:
        images, sups, hs = phis[h], phis_sup[h], conj[h]
        side = _total(unit_sup, images[0])
        if side != unit and _nonzero(t, side - unit):
            fails.append((f"h={pn[h]}", "phi_h(1) != 1"))
        for g1 in nonzero:
            g1s, prod_hg1, fas, ijs_g1 = table[g1], prod[hs[g1]], sups[g1], prod_sup[g1]
            for g2 in nonzero:
                image, block, fbs, ijs = images[g1s[g2]], prod_hg1[hs[g2]], sups[g2], ijs_g1[g2]
                for i, ni in enumerate(names[g1]):
                    fa, ij_i = fas[i], ijs[i]
                    for j, nj in enumerate(names[g2]):
                        lhs = D * _total(ij_i[j], image)
                        rhs = _product(fa, fbs[j], block)
                        if lhs != rhs and _nonzero(t, lhs - rhs):
                            fails.append((f"(h={pn[h]},{ni},{nj})",
                                          "phi_h(xy) != phi_h(x) phi_h(y)"))
    report.add("phi_multiplicative", fails)

    # row i of phi(h, g)^T rho_hg phi(h, g^-1) sums the rows of
    # rho_hg phi(h, g^-1) over the support of column i of phi(h, g), each
    # of which sums the rows of phi(h, g^-1), packed here, over the support
    # of a row of rho_hg; degree 3 against 1
    rho_D2 = rho_rows if D == 1 else [[D * D * v for v in rows] for rows in rho_rows]
    fails = []
    for h in G:
        blocks, hs, sups = t.phi[h], conj[h], phis_sup[h]
        for g in G:
            inner = [_pack(row, w) for row in blocks[inv[g]].data]
            middle = [_total(sup, inner) for sup in rho_sup[hs[g]]]
            got, want = [_total(sup, middle) for sup in sups[g]], rho_D2[g]
            if got != want and _differ(t, got, want):
                fails.append((f"(h={pn[h]},g={pn[g]})", "phi_h does not preserve rho"))
    report.add("phi_isometry", fails)

    fails = []
    for g in G:
        if phis[g][g] != ident[g]:
            fails.append((f"g={pn[g]}", "phi_g is not the identity on L_g"))
    report.add("phi_fixes_own_grade", fails)

    # phi_h(e_i) e_j sums cols[hgh^-1][h][j] over the support of
    # phi_h(e_i); it has degree 2 against 1
    fails = []
    for g in nonzero:
        for h in nonzero:
            col, fas, cells = cols[conj[h][g]][h], phis_sup[h][g], prod[h][g]
            for i, na in enumerate(names[g]):
                fa = fas[i]
                for j, nb in enumerate(names[h]):
                    lhs, rhs = _total(fa, col[j]), D * cells[j][i]
                    if lhs != rhs and _nonzero(t, lhs - rhs):
                        fails.append((f"(a={na},b={nb})", "phi_h(a)b != ba"))
    report.add("twisted_commutativity", fails)

    # the trace condition compares the two cuttings of the labeled torus: for
    # c = e_m in the commutator grade, tr(x |-> c phi_h(x)) on L_g is the sum
    # over j of <e_m e_j, row j of phi(h, g)> (e_j in L_{hgh^-1}), and
    # tr(x |-> phi_{g^-1}(c x)) on L_h the sum over s of <row s of
    # phi(g^-1, ghg^-1), e_m e_s> (e_s in L_h). It is checked over grade
    # pairs that both carry states (with the empty-cut instances included,
    # the boundary-group algebra of a non-surjective boundary map would fail
    # it, contradicting its construction)
    fails = []
    for g in nonzero:
        gs, ginv = table[g], inv[g]
        for h in nonzero:
            comm, hg = table[table[gs[h]][ginv]][inv[h]], conj[h][g]
            phi1, phi2 = t.phi[h][g].data, t.phi[ginv][conj[g][h]].data
            cs1, cs2 = prod_sup[comm][hg], prod_sup[comm][h]
            for m, nm in enumerate(names[comm]):
                t1 = sum([x * phi1[j][a] for j, sup in enumerate(cs1[m]) for a, x in sup])
                t2 = sum([x * phi2[s][a] for s, sup in enumerate(cs2[m]) for a, x in sup])
                if f.of(t1 - t2):
                    fails.append((f"(g={pn[g]},h={pn[h]},c={nm})", "trace axiom fails"))
    report.add("trace", fails)

    fails = []
    if L.tilde[0] != L.unit:
        fails.append(("c=1", "tilde(1) != 1"))
    report.add("tilde_unit", fails)

    # tilde(c') tilde(c) sums the products e_a e_b over the supports of both;
    # it has degree 3 against 1
    fails = []
    d, tilde, tilde_sup = L.cm.boundary.map, t.tilde, t.tilde_sup
    for c2 in C.elements():
        c2s, prod_d2, sup2 = C.table[c2], prod[d[c2]], tilde_sup[c2]
        for c in C.elements():
            lhs = D * D * tilde[c2s[c]]
            rhs = _product(sup2, tilde_sup[c], prod_d2[d[c]])
            if lhs != rhs and _nonzero(t, lhs - rhs):
                fails.append((f"(c'={C.names[c2]},c={C.names[c]})",
                              "tilde(c'c) != tilde(c') tilde(c)"))
    report.add("tilde_multiplicative", fails)

    report.add("tilde_equivariant", _equivariance_fails(t, "h"))
    return report


def _equivariance_fails(t: _Tables, letter: str):
    """The failing instances of phi_h(tilde c) = tilde(^h c), with h written
    `letter`: h in tilde_equivariant, p in square_equivariance. The left side
    sums the columns of phi(h, d(c)) over the support of tilde(c); degree 2
    against 1."""
    L, D, tilde, tilde_sup = t.L, t.D, t.tilde, t.tilde_sup
    P, C, d = L.P, L.C, L.cm.boundary.map
    fails = []
    for h in P.elements():
        images, hs = t.phis[h], L.cm.act.table[h]
        for c in C.elements():
            image = _total(tilde_sup[c], images[d[c]])
            want = D * tilde[hs[c]]
            if image != want and _nonzero(t, image - want):
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
    one = Matrix.identity(f, 1)
    rho = {g: one for g in P.elements()}
    phi = {(h, g): one for h in P.elements() for g in P.elements()}
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
    """The columns of every theta(c, g) on the tables' algebra, packed, and
    their supports, as two lists indexed [c][g]. Column j is tilde(c) e_j,
    the sum of column j of the mul(d(c), g) cells over the support of
    tilde(c); it has degree 2 (tilde and mul). When that support is one term
    with value 1, at e_k, the columns are the stored products e_k e_j with
    their supports; otherwise each support is read off the column's slots."""
    w, G = t.w, t.L.P.elements()
    cols, sups = [], []
    for c, sup in enumerate(t.tilde_sup):
        dc = t.L.cm.d(c)
        if len(sup) == 1 and sup[0][1] == 1:
            k = sup[0][0]
            cols.append([t.prod[dc][g][k] for g in G])
            sups.append([t.prod_sup[dc][g][k] for g in G])
        else:
            cols.append([[_total(sup, col) for col in t.cols[dc][g]] for g in G])
            sups.append([[_support(_slots(v, w)) for v in vs] for vs in cols[-1]])
    return cols, sups


def check_boxed_identities(L: CrossedCAlgebra) -> CheckReport:
    """The four composition identities relating theta, the product, rho and
    phi, swept over every (c, c', g, h) in the crossed module.

    They read the packed tables of `check_crossed_algebra` (`_tables`),
    indexed by grade, with the side of lower degree in the structure maps
    multiplied up by D in the same way. No matrix is built or multiplied:
    each theta(c, g) is kept as its packed columns and their supports
    (`_theta_columns`), and both sides of an identity are compared column
    by column (row by row for rho, with the rows of theta read off the rows
    of left multiplication, `_left_rows`), each column one int, a `_total`
    of packed vectors over a support."""
    report = CheckReport(f"boxed identities for {L.name}")
    t = _tables(L)
    D, prod, phis, phis_sup, tilde_sup = t.D, t.prod, t.phis, t.phis_sup, t.tilde_sup
    P, C, dims, d, act = L.P, L.C, L.dims, L.cm.boundary.map, L.cm.act.table
    G, table, inv, conj, pn, cn = P.elements(), P.table, P.inv, t.conj, P.names, C.names
    thetas, theta_sup = _theta_columns(t)

    # column j of theta(c', dc*g) theta(c, g) sums the columns of
    # theta(c', dc*g) over the support of column j of theta(c, g); degree 2
    # against 4
    scaled = thetas if D == 1 else [[[D * D * v for v in vs] for vs in row] for row in thetas]
    fails = []
    for c2 in C.elements():
        c2s, outers = C.table[c2], thetas[c2]
        for c in C.elements():
            dcs, wants, sups = table[d[c]], scaled[c2s[c]], theta_sup[c]
            for g in G:
                outer, want = outers[dcs[g]], wants[g]
                got = [_total(sup, outer) for sup in sups[g]]
                if got != want and _differ(t, got, want):
                    fails.append((f"(c'={cn[c2]},c={cn[c]},g={pn[g]})",
                                  "theta(c'c,g) != theta(c',dc*g) theta(c,g)"))
    report.add("theta_composition", fails)

    # column i of x |-> x tilde(c) on L_g sums row i of the mul(g, dc) cells
    # over the support of tilde(c); degree 2 against 2
    fails = []
    for c in C.elements():
        dc, sup = d[c], tilde_sup[c]
        for g in G:
            got = [_total(sup, row) for row in prod[g][dc]]
            want = thetas[act[g][c]][g]
            if got != want and _differ(t, got, want):
                fails.append((f"(c={cn[c]},g={pn[g]})", "x tilde(c) != tilde(^g c) x"))
    report.add("theta_translation", fails)

    # row j of theta(c, g)^T rho_dcg sums the rows of rho_dcg over the
    # support of column j of theta(c, g); row j of rho_g theta', with
    # theta' = theta(^{g^-1}c, (dcg)^-1), sums the rows of theta' over the
    # support of row j of rho_g, and row a of theta' sums the rows a of left
    # multiplication by each e_b over the support of tilde(^{g^-1}c). Paired
    # grades may differ in dimension, so theta' is read with its row count
    # given. Each block's rows of left multiplication are built once, at
    # left_rows[a][b]. Degree 3 against 3
    left_rows = [[None] * P.order for _ in G]
    fails = []
    for c in C.elements():
        dcs, sups = table[d[c]], theta_sup[c]
        for g in G:
            dcg, c1 = dcs[g], act[inv[g]][c]
            a, b = d[c1], inv[dcg]
            if left_rows[a][b] is None:
                left_rows[a][b] = _left_rows(t, a, b)
            rows = [_total(tilde_sup[c1], col)
                    for col in _transposed(left_rows[a][b], dims[inv[g]])]
            got = [_total(sup, t.rho_rows[dcg]) for sup in sups[g]]
            want = [_total(sup, rows) for sup in t.rho_sup[g]]
            if got != want and _differ(t, got, want):
                fails.append((f"(c={cn[c]},g={pn[g]})",
                              "rho(tilde(c) x, y) != rho(x, tilde(^{g^-1}c) y)"))
    report.add("theta_rho", fails)

    # column j of phi_h theta(c, g) sums the columns of phi(h, dcg) over the
    # support of column j of theta(c, g), and column j of
    # theta(^h c, ^h g) phi_h sums the columns of theta(^h c, ^h g) over the
    # support of phi_h(e_j); degree 3 against 3
    fails = []
    for c in C.elements():
        dcs, sups = table[d[c]], theta_sup[c]
        for g in G:
            dcg, sup_g = dcs[g], sups[g]
            for h in G:
                image = phis[h][dcg]
                outer = thetas[act[h][c]][conj[h][g]]
                got = [_total(sup, image) for sup in sup_g]
                want = [_total(sup, outer) for sup in phis_sup[h][g]]
                if got != want and _differ(t, got, want):
                    fails.append((f"(c={cn[c]},g={pn[g]},h={pn[h]})",
                                  "phi_h theta(c,g) != theta(^h c, ^h g) phi_h"))
    report.add("theta_phi", fails)

    return report


def aut_square_check(L: CrossedCAlgebra) -> CheckReport:
    """Pointwise verification that tilde and phi form a morphism into the
    units/automorphisms crossed module of L, without enumerating Aut(L):
    each tilde(c) is a unit, conjugation by tilde(c) equals phi_{d(c)} on
    every grade, and tilde is action-equivariant. The families read the
    packed tables of `check_crossed_algebra` (`_tables`), indexed by grade,
    with the side of lower degree in the structure maps multiplied up by the
    common denominator, and the theta supports of `check_boxed_identities`:
    every product is a `_total` or `_product` of packed vectors over a
    support, and no matrix is built."""
    report = CheckReport(f"units/automorphisms square for {L.name}")
    t = _tables(L)
    D, prod, phis, tilde_sup, d = t.D, t.prod, t.phis, t.tilde_sup, L.cm.boundary.map
    P, C = L.P, L.C

    # tilde(c) tilde(c^-1) has degree 3 against 1
    fails = []
    unit = D * D * t.unit
    for c in C.elements():
        cinv = C.inv[c]
        dc, dcinv = d[c], d[cinv]
        left = _product(tilde_sup[c], tilde_sup[cinv], prod[dc][dcinv])
        right = _product(tilde_sup[cinv], tilde_sup[c], prod[dcinv][dc])
        if left != unit and _nonzero(t, left - unit) or \
                right != unit and _nonzero(t, right - unit):
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
        dcinv, sup, sups = d[cinv], tilde_sup[cinv], theta_sup[c]
        dcs, images = P.table[d[c]], phis[d[c]]
        for g in P.elements():
            right = [_total(sup, row) for row in prod[dcs[g]][dcinv]]
            got = [_total(s, right) for s in sups[g]]
            want = [D ** 3 * v for v in images[g]]
            if got != want and _differ(t, got, want):
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
    sums column i of the mul(p, r) cells, each by `_combination`, on the
    algebra's own scalars. Multiplying by e_i maps the grades
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
                    _combination(field, dims[rp], [(x, L.mul[(r, p)][i][k]) for k, x in sups[p]])
                    for p, rp in lefts))
                if any(out) and spans[ql].add(out):
                    queue.append((ql, out))
                out = tuple(itertools.chain.from_iterable(
                    _combination(field, dims[pr], [(x, L.mul[(p, r)][k][i]) for k, x in sups[p]])
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
