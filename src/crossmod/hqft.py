"""The evaluator: a crossed algebra induces a symmetric monoidal assignment
on formal boundaries and layered cobordism expressions. Strict conventions
throughout: tensor bases are Kronecker-ordered (left factor most
significant), so functoriality and monoidality are exact matrix identities.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebras import CrossedCAlgebra, check_crossed_algebra, theta
from .crossed_modules import CrossedModule, require_same
from .formal_maps import (
    PIECE_KEY,
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
from .linalg import Matrix, SingularMatrixError, interned
from .report import CheckReport


@dataclass(frozen=True)
class FormalHQFT:
    """The evaluator of one crossed algebra.

    `pieces` maps the plain key `(kind, *labels)` (`formal_maps.PIECE_KEY`)
    of each piece `eval_piece` has built, of all eight kinds, such as
    `(Cyl, c, g, h)` or `(Id, g)`, to `(N, D)`: D is the least common
    denominator of the entries of the piece's matrix m and N = D m has
    `int` entries; an integral m, and every m over GF(p), is `(m, 1)`. A cup over a singular pairing block is never
    stored. The table assumes the algebra is not mutated after `make_hqft`;
    it cannot be passed to the constructor and takes no part in equality,
    hashing or repr."""

    algebra: CrossedCAlgebra
    pieces: dict = dataclasses.field(default_factory=dict, init=False,
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


def eval_piece(tau: FormalHQFT, piece) -> Matrix:
    """The matrix of one elementary piece, from the tensor of its source
    grades to the tensor of its target grades: built once, then N / D from
    `tau.pieces` under the piece's key, an identity N as the shared one
    (`linalg.interned`). A non-piece, or a field that is not an element
    index, raises TypecheckFailed; the range check runs before the lookup,
    since `(Cyl, True, 0, 1) == (Cyl, 1, 0, 1)`."""
    L = tau.algebra
    cm, f = L.cm, L.field
    P = L.P
    fault = piece_range_fault(piece, cm)
    if fault:
        raise TypecheckFailed(fault)
    key = PIECE_KEY[type(piece)](piece)
    if key in tau.pieces:
        return _divided(*tau.pieces[key])
    match piece:
        case Disc(c):
            m = Matrix.from_columns(f, [L.tilde[c]], L.dims[cm.d(c)])
        case Cyl(c, g, h):
            hinv = P.inv[h]
            m = theta(L, c, P.conj(hinv, g)) @ L.phi[(hinv, g)]
        case Pants(c, g1, g2):
            m = theta(L, c, P.mul(g1, g2)) @ L.mul_matrix(g1, g2)
        case Cap(g):
            rho = L.rho[g]
            m = Matrix._of(f, (tuple(itertools.chain(*rho.data)),), rho.rows * rho.cols)
        case Cup(g):
            ginv = P.inv[g]
            try:
                co = L.rho[ginv].inverse()
            except SingularMatrixError as exc:
                raise ValueError(f"pairing at grade {P.names[ginv]} is singular") from exc
            m = Matrix._of(f, tuple([(x,) for row in co.data for x in row]), 1)
        case Id(g):
            m = Matrix.identity(f, L.dims[g])
        case Swap(g1, g2):
            # row j*d1 + i (target L_g2 (x) L_g1) is row i*d2 + j of the identity
            d1, d2 = L.dims[g1], L.dims[g2]
            rows = Matrix.identity(f, d1 * d2).data
            m = Matrix._of(f, tuple([rows[i * d2 + j] for j in range(d2) for i in range(d1)]),
                           d1 * d2)
        case Copants(g1, g2):
            g12 = P.mul(g1, g2)
            first = eval_piece(tau, Cup(g1)).kron(Matrix.identity(f, L.dims[g12]))
            second = Matrix.identity(f, L.dims[g1]).kron(
                eval_piece(tau, Pants(0, P.inv[g1], g12)))
            m = second @ first
    d = math.lcm(*[x.denominator for row in m.data for x in row])
    n = interned(m if d == 1 else Matrix._of(f, tuple([f.combine(m.cols, [(d, row)])
                                                       for row in m.data]), m.cols))
    tau.pieces[key] = (n, d)
    return _divided(n, d)


def _divided(n: Matrix, d: int) -> Matrix:
    """n / d, one `field.combine` per row with coefficient 1/d; n itself when d = 1."""
    if d == 1:
        return n
    f, inv = n.field, Fraction(1, d)
    return Matrix._of(f, tuple([f.combine(n.cols, [(inv, row)]) for row in n.data]), n.cols)


def require_same_crossed_module(e: CobordismExpression, cm: CrossedModule) -> None:
    """Raise CrossedModuleMismatch (`crossed_modules.require_same`) unless
    the expression is over cm: the same groups, boundary and action,
    whatever its name."""
    require_same(e.cm, cm, "the expression", "the algebra over")


def eval_expression(tau: FormalHQFT, e: CobordismExpression) -> EvaluatedMap:
    """Kronecker product across each layer, matrix product across layers.
    The expression must be over the algebra's crossed module (see
    `require_same_crossed_module`). After the typecheck, which refuses a
    piece like `Cyl(True, 0, 1)` whose key equals a stored one, `_evaluate`
    runs the layers of the pieces' keys."""
    require_same_crossed_module(e, tau.cm)
    typecheck(e).require(TypecheckFailed)
    source = [c.labels[0] for c in e.source.circuits]
    layers = [[PIECE_KEY[type(p)](p) for p in layer] for layer in e.layers]
    return EvaluatedMap(e.source, e.target, _evaluate(tau, source, layers))


def _evaluate(tau: FormalHQFT, source, layers) -> Matrix:
    """The matrix of well-typed layers of piece keys `(kind, *labels)` from
    the boundary labelled `source`, one base-group label per circuit. From
    the identity seed, one `kron` per piece across each layer, on the
    pieces' int matrices N read from `tau.pieces` by key, and one `@` per
    layer; the result is divided once by the product of their D
    (`_divided`). A key not yet stored is built by `eval_piece(tau,
    kind(*labels))`. The one evaluation path, behind `eval_expression` and
    `check_relations`."""
    L = tau.algebra
    f = L.field
    total = Matrix.identity(f, math.prod([L.dims[g] for g in source]))
    den = 1
    for layer in layers:
        layer_mat = Matrix.identity(f, 1)
        for key in layer:
            if (stored := tau.pieces.get(key)) is None:
                eval_piece(tau, key[0](*key[1:]))
                stored = tau.pieces[key]
            n, d = stored
            layer_mat = layer_mat.kron(n)
            den *= d
        total = layer_mat @ total
    return _divided(total, den)


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
# relations: expressions related by a move evaluate equally
# --------------------------------------------------------------------------

def check_relations(tau: FormalHQFT, relations, title: str) -> CheckReport:
    """One family per relation `(family, label names, sides, message)`.
    Labels whose names start with `c` range over the top group, the rest
    over the base group, the last varying fastest; `sides(cm, *labels)`
    gives each side that must evaluate equally as `(source labels, layers)`
    of piece keys `(kind, *labels)`, evaluated by `_evaluate` with no
    expression, no piece object and no typecheck per instance. The rows
    below are well typed by construction, and `tests/test_hqft.py` turns
    every instance of each into pieces and typechecks it on every fixture
    crossed module. Each instance whose matrices differ is a failure named
    `(name=value,...)`."""
    report = CheckReport(title)
    cm = tau.cm
    for family, names, sides, message in relations:
        groups = [cm.top if name.startswith("c") else cm.base for name in names]
        fails = []
        for labels in itertools.product(*(G.elements() for G in groups)):
            first, *rest = [_evaluate(tau, source, layers)
                            for source, layers in sides(cm, *labels)]
            if not all(m == first for m in rest):
                text = ",".join(f"{n}={G.names[x]}" for n, G, x in zip(names, groups, labels))
                fails.append((f"({text})", message))
        report.add(family, fails)
    return report


def _disc_cylinder(cm, c, h):
    P, d = cm.base, cm.d
    ch = cm.action(P.inv[h], c)
    return ([], [[(Disc, c)], [(Cyl, 0, d(c), h)]]), ([], [[(Disc, ch)]])


def _pants_reduction(cm, c1, c2, g1, g2):
    P, d = cm.base, cm.d
    k1, k2 = P.mul(d(c1), g1), P.mul(d(c2), g2)
    cc = cm.top.mul(c1, cm.action(g1, c2))
    return (([g1, g2], [[(Cyl, c1, g1, 0), (Cyl, c2, g2, 0)], [(Pants, 0, k1, k2)]]),
            ([g1, g2], [[(Pants, cc, g1, g2)]]))


def _whiskering(cm, c, g1, g2):
    P, d = cm.base, cm.d
    gc = cm.action(g1, c)
    return (([g1, g2], [[(Id, g1), (Cyl, c, g2, 0)], [(Pants, 0, g1, P.mul(d(c), g2))]]),
            ([g1, g2], [[(Pants, 0, g1, g2)], [(Cyl, gc, P.mul(g1, g2), 0)]]),
            ([g1, g2], [[(Cyl, gc, g1, 0), (Id, g2)], [(Pants, 0, P.mul(d(gc), g1), g2)]]))


def _pairing(cm, c, g):
    P = cm.base
    dcg = P.mul(cm.d(c), g)
    y = P.inv[dcg]
    return (([g, y], [[(Cyl, c, g, 0), (Id, y)], [(Cap, dcg)]]),
            ([g, y], [[(Id, g), (Cyl, cm.action(P.inv[g], c), y, 0)], [(Cap, g)]]))


def _snakes(cm, g):
    ginv = cm.base.inv[g]
    return (([g], [[(Id, g)]]),
            ([g], [[(Id, g), (Cup, ginv)], [(Cap, g), (Id, g)]]),
            ([g], [[(Cup, g), (Id, g)], [(Id, g), (Cap, ginv)]]))


INVARIANCE = (
    ("family_a_disc_cylinder", ("c", "h"), _disc_cylinder, "disc+cylinder != acted disc"),
    ("family_b_pants_reduction", ("c1", "c2", "g1", "g2"), _pants_reduction,
     "two cylinders into pants != semidirect pants"),
    ("family_c_whiskering", ("c", "g1", "g2"), _whiskering, "whiskering orders disagree"),
    ("family_d_pairing", ("c", "g"), _pairing, "pairing composites disagree"),
)
# both zig-zags of a cup and a cap are the identity cylinder
SNAKES = (("snakes", ("g",), _snakes, "a zig-zag is not the identity"),)


def check_equivalence_invariance(tau: FormalHQFT) -> CheckReport:
    """Expressions related by the generated moves evaluate equally: (a) disc
    into cylinder vs the acted disc; (b) cylinders into pants vs the single
    relabeled pants; (c) the three whiskering orders; (d) the two pairing
    composites."""
    return check_relations(tau, INVARIANCE, f"equivalence invariance for {tau.algebra.name}")


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

    def put(piece):
        layer.append(piece)
        out.extend(piece_io(piece, cm)[1])

    for _ in range(rng.randint(1, max_depth)):
        layer = []
        out = []
        i = 0
        if not cur and rng.random() < 0.8:
            put(Disc(rng.randrange(C.order)) if rng.random() < 0.5 else Cup(rng.randrange(P.order)))
        while i < len(cur):
            if len(out) < max_width - 1 and rng.random() < 0.15:
                put(Disc(rng.randrange(C.order)))
            g = cur[i]
            two = i + 1 < len(cur)
            roll = rng.random()
            if two and roll < 0.35:
                g2 = cur[i + 1]
                if P.mul(g, g2) == 0 and rng.random() < 0.5:
                    put(Cap(g))
                elif rng.random() < 0.5:
                    put(Swap(g, g2))
                else:
                    put(Pants(rng.randrange(C.order), g, g2))
                i += 2
                continue
            if roll < 0.55 and len(out) + 2 <= max_width and len(cur) < max_width:
                g1 = rng.randrange(P.order)
                put(Copants(g1, P.mul(P.inv[g1], g)))
            elif roll < 0.8:
                put(Cyl(rng.randrange(C.order), g, rng.randrange(P.order)))
            else:
                put(Id(g))
            i += 1
        layers.append(layer)
        cur = out
    return expression(cm, source, layers, cur)
