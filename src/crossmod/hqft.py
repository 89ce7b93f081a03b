"""The evaluator: a crossed algebra induces a symmetric monoidal assignment
on formal boundaries and layered cobordism expressions. Strict conventions
throughout: tensor bases are Kronecker-ordered (left factor most
significant), so functoriality and monoidality are exact matrix identities.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

from .algebras import CrossedCAlgebra, check_crossed_algebra, theta
from .crossed_modules import CrossedModule, require_same
from .formal_maps import (
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
    expression,
    piece_io,
    piece_range_fault,
    typecheck,
)
from .linalg import Matrix, SingularMatrixError
from .report import CheckReport


@dataclass(frozen=True)
class FormalHQFT:
    """The evaluator of one crossed algebra.

    `matrices` caches the matrices that the algebra alone defines, each
    built the first time `eval_piece` needs it, so each is built once per
    evaluator:
    - `("cup", g)`: the cup's column, the flattened inverse of the pairing
      block rho_{g^-1}; a singular block is never stored and raises
      ValueError on every call;
    - `("theta", c, g)`: theta(c, g), left multiplication by tilde(c) on L_g;
    - `("mul", g1, g2)`: the product block `L.mul_matrix(g1, g2)`.
    A cylinder is then one product theta @ phi and a pants theta @ mul. The
    cache assumes the algebra is not mutated after `make_hqft`. Whole pieces
    are not cached: the benchmark keeps every op's latency, so a faster
    evaluator reads as a larger peak RSS, and a whole-piece cache took
    eval-small past its 10% memory bound (ROADMAP item 1). The dict cannot
    be passed to the constructor and takes no part in equality, hashing or
    repr."""

    algebra: CrossedCAlgebra
    matrices: dict = dataclasses.field(default_factory=dict, init=False,
                                       compare=False, repr=False)

    @property
    def cm(self):
        return self.algebra.cm

    @property
    def field(self):
        return self.algebra.field


def make_hqft(algebra: CrossedCAlgebra) -> FormalHQFT:
    check_crossed_algebra(algebra).require()
    return FormalHQFT(algebra)


@dataclass(frozen=True)
class EvaluatedMap:
    source: FormalBoundary
    target: FormalBoundary
    matrix: Matrix


def state_space(tau: FormalHQFT, b: FormalBoundary) -> tuple[int, ...]:
    """The dimensions of the ordered tensor factors of b's state space, one
    grade per circuit; the empty boundary is the field, with no factors."""
    L = tau.algebra
    return tuple(L.dims[L.P.product(circ.labels)] for circ in b.circuits)


def _cached(tau: FormalHQFT, key, build, *args) -> Matrix:
    """The matrix under key in `tau.matrices`, stored as build(*args) on
    first use; a build that raises stores nothing."""
    m = tau.matrices.get(key)
    if m is None:
        m = tau.matrices[key] = build(*args)
    return m


def _cup_column(L: CrossedCAlgebra, g: int) -> Matrix:
    ginv = L.P.inv[g]
    try:
        co = L.rho[ginv].inverse()
    except SingularMatrixError as exc:
        raise ValueError(f"pairing at grade {L.P.names[ginv]} is singular") from exc
    return Matrix._of(L.field, tuple([(x,) for row in co.data for x in row]), 1)


def eval_piece(tau: FormalHQFT, piece) -> Matrix:
    """The matrix of one elementary piece, from the tensor of its source
    grades to the tensor of its target grades. A non-piece, or a field that
    is not an element index, raises TypecheckFailed."""
    L = tau.algebra
    cm, f = L.cm, L.field
    P = L.P
    fault = piece_range_fault(piece, cm)
    if fault:
        raise TypecheckFailed(fault)
    match piece:
        case Disc(c):
            return Matrix.from_columns(f, [L.tilde[c]], L.dims[cm.d(c)])
        case Cyl(c, g, h):
            hinv = P.inv[h]
            conj = P.conj(hinv, g)
            return _cached(tau, ("theta", c, conj), theta, L, c, conj) @ L.phi[(hinv, g)]
        case Pants(c, g1, g2):
            g12 = P.mul(g1, g2)
            return (_cached(tau, ("theta", c, g12), theta, L, c, g12)
                    @ _cached(tau, ("mul", g1, g2), L.mul_matrix, g1, g2))
        case Cap(g):
            rho = L.rho[g]
            return Matrix._of(f, (tuple([x for row in rho.data for x in row]),),
                              rho.rows * rho.cols)
        case Cup(g):
            return _cached(tau, ("cup", g), _cup_column, L, g)
        case Id(g):
            return Matrix.identity(f, L.dims[g])
        case Swap(g1, g2):
            # row j*d1 + i (target L_g2 (x) L_g1) has its one at column i*d2 + j
            d1, d2 = L.dims[g1], L.dims[g2]
            z, o = f.zero, f.one
            return Matrix._of(f, tuple([tuple([o if c == i * d2 + j else z
                                               for c in range(d1 * d2)])
                                        for j in range(d2) for i in range(d1)]), d1 * d2)
        case Copants(g1, g2):
            g12 = P.mul(g1, g2)
            first = eval_piece(tau, Cup(g1)).kron(Matrix.identity(f, L.dims[g12]))
            second = Matrix.identity(f, L.dims[g1]).kron(
                eval_piece(tau, Pants(0, P.inv[g1], g12)))
            return second @ first


def require_same_crossed_module(e: CobordismExpression, cm: CrossedModule) -> None:
    """Raise CrossedModuleMismatch (`crossed_modules.require_same`) unless
    the expression is over cm: the same groups, boundary and action,
    whatever its name."""
    require_same(e.cm, cm, "the expression", "the algebra over")


def eval_expression(tau: FormalHQFT, e: CobordismExpression) -> EvaluatedMap:
    """Kronecker product across each layer, matrix product across layers.
    The expression must be over the algebra's crossed module (see
    `require_same_crossed_module`)."""
    require_same_crossed_module(e, tau.cm)
    typecheck(e).require(TypecheckFailed)
    f = tau.field
    total = Matrix.identity(f, math.prod(state_space(tau, e.source)))
    for layer in e.layers:
        layer_mat = Matrix.identity(f, 1)
        for piece in layer:
            layer_mat = layer_mat.kron(eval_piece(tau, piece))
        total = layer_mat @ total
    return EvaluatedMap(e.source, e.target, total)


def extract_algebra(tau: FormalHQFT) -> CrossedCAlgebra:
    """Read the algebra back off the evaluator: multiplication from pants,
    pairing from caps, action from cylinders, units from discs."""
    L = tau.algebra
    cm, f, P, C = L.cm, L.field, L.P, L.C
    dims = L.dims
    mul = {}
    for g in P.elements():
        for h in P.elements():
            m = eval_piece(tau, Pants(0, g, h))
            gh = P.mul(g, h)
            mul[(g, h)] = [[[m.data[k][i * dims[h] + j] for k in range(dims[gh])]
                            for j in range(dims[h])] for i in range(dims[g])]
    unit = tuple(row[0] for row in eval_piece(tau, Disc(0)).data)
    rho = {}
    for g in P.elements():
        m = eval_piece(tau, Cap(g))
        ginv = P.inv[g]
        rho[g] = Matrix(f, [[m.data[0][i * dims[ginv] + j] for j in range(dims[ginv])]
                            for i in range(dims[g])], cols=dims[ginv])
    phi = {}
    for h in P.elements():
        for g in P.elements():
            phi[(h, g)] = eval_piece(tau, Cyl(0, g, P.inv[h]))
    tilde = [tuple(row[0] for row in eval_piece(tau, Disc(c)).data)
             for c in C.elements()]
    return CrossedCAlgebra(f"extracted({L.name})", cm, f, dims, L.basis_names,
                           mul, unit, rho, phi, tilde)


# --------------------------------------------------------------------------
# built-in equivalence-invariance families
# --------------------------------------------------------------------------

def check_equivalence_invariance(tau: FormalHQFT) -> CheckReport:
    """Expression pairs related by the generated moves evaluate equally:
    (a) disc into cylinder vs the acted disc; (b) cylinders into pants vs the
    single relabeled pants; (c) the two whiskering orders; (d) the two
    pairing composites."""
    report = CheckReport(f"equivalence invariance for {tau.algebra.name}")
    L = tau.algebra
    cm, P, C = L.cm, L.P, L.C
    d = cm.d

    fails = []
    for c in C.elements():
        for h in P.elements():
            e1 = expression(cm, [], [[Disc(c)], [Cyl(0, d(c), h)]],
                            [P.conj(P.inv[h], d(c))])
            ch = cm.action(P.inv[h], c)
            e2 = expression(cm, [], [[Disc(ch)]], [d(ch)])
            if eval_expression(tau, e1).matrix != eval_expression(tau, e2).matrix:
                fails.append((f"(c={C.names[c]},h={P.names[h]})",
                              "disc+cylinder != acted disc"))
    report.add("family_a_disc_cylinder", fails)

    fails = []
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
                    if eval_expression(tau, e1).matrix != eval_expression(tau, e2).matrix:
                        fails.append(
                            (f"(c1={C.names[c1]},c2={C.names[c2]},g1={P.names[g1]},g2={P.names[g2]})",
                             "two cylinders into pants != semidirect pants"))
    report.add("family_b_pants_reduction", fails)

    fails = []
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
                m1 = eval_expression(tau, e1).matrix
                m2 = eval_expression(tau, e2).matrix
                m3 = eval_expression(tau, e3).matrix
                if not (m1 == m2 == m3):
                    fails.append((f"(c={C.names[c]},g1={P.names[g1]},g2={P.names[g2]})",
                                  "whiskering orders disagree"))
    report.add("family_c_whiskering", fails)

    fails = []
    for c in C.elements():
        for g in P.elements():
            dcg = P.mul(d(c), g)
            y = P.inv[dcg]
            e1 = expression(cm, [g, y], [[Cyl(c, g, 0), Id(y)], [Cap(dcg)]], [])
            cginv = cm.action(P.inv[g], c)
            e2 = expression(cm, [g, y], [[Id(g), Cyl(cginv, y, 0)], [Cap(g)]], [])
            if eval_expression(tau, e1).matrix != eval_expression(tau, e2).matrix:
                fails.append((f"(c={C.names[c]},g={P.names[g]})",
                              "pairing composites disagree"))
    report.add("family_d_pairing", fails)
    return report


# --------------------------------------------------------------------------
# randomized well-typed expressions
# --------------------------------------------------------------------------

def random_expression(tau: FormalHQFT, rng: random.Random, source=None) -> CobordismExpression:
    """A random well-typed expression from a (possibly random) source, with
    1 to `max_depth` layers between boundaries of at most `max_width` circuits."""
    max_depth, max_width = 4, 3
    L = tau.algebra
    cm, P, C = L.cm, L.P, L.C
    if source is None:
        source = [rng.randrange(P.order) for _ in range(rng.randint(0, max_width))]
    cur = list(source)
    layers = []
    for _ in range(rng.randint(1, max_depth)):
        layer = []
        out = []
        i = 0
        if not cur and rng.random() < 0.8:
            piece = Disc(rng.randrange(C.order)) if rng.random() < 0.5 \
                else Cup(rng.randrange(P.order))
            layer.append(piece)
            out.extend(piece_io(piece, cm)[1])
        while i < len(cur):
            if len(out) < max_width - 1 and rng.random() < 0.15:
                piece = Disc(rng.randrange(C.order))
                layer.append(piece)
                out.extend(piece_io(piece, cm)[1])
            g = cur[i]
            two = i + 1 < len(cur)
            roll = rng.random()
            if two and roll < 0.35:
                g2 = cur[i + 1]
                if P.mul(g, g2) == 0 and rng.random() < 0.5:
                    piece = Cap(g)
                elif rng.random() < 0.5:
                    piece = Swap(g, g2)
                else:
                    piece = Pants(rng.randrange(C.order), g, g2)
                layer.append(piece)
                out.extend(piece_io(piece, cm)[1])
                i += 2
                continue
            if roll < 0.55 and len(out) + 2 <= max_width and len(cur) < max_width:
                g1 = rng.randrange(P.order)
                piece = Copants(g1, P.mul(P.inv[g1], g))
            elif roll < 0.8:
                piece = Cyl(rng.randrange(C.order), g, rng.randrange(P.order))
            else:
                piece = Id(g)
            layer.append(piece)
            out.extend(piece_io(piece, cm)[1])
            i += 1
        layers.append(layer)
        cur = out
    return expression(cm, source, layers, cur)
