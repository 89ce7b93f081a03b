"""The acceptance suites: one table of criteria, each with its number, title,
suite, time budget and a check returning pass/fail plus log lines, shared by
the CLI `verify` command and the test suite."""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures, mutations
from .algebras import (
    CrossedAlgebraMorphism,
    check_algebra_morphism,
    check_boxed_identities,
    check_crossed_algebra,
    enumerate_algebra_morphisms,
    kp_iso_witness,
    morphisms_equal,
    pullback,
    pushforward_data,
    same_structure,
    transpose_from_pushforward,
    transpose_to_pullback,
    untranspose_from_pullback,
    untranspose_to_pushforward,
)
from .crossed_modules import (
    SemidirectElement,
    check_crossed_module,
    identity_morphism,
    sd_mul,
)
from .fields import GF, QQ
from .formal_maps import (
    LabeledCell,
    OrderedComplex,
    annulus_flatten,
    annulus_labeling,
    compose_expressions,
    compose_h,
    labeling_from_vertex_potential,
    validate_simplicial,
    whiskering_orders,
)
from .hqft import (
    SNAKES,
    check_equivalence_invariance,
    check_relations,
    eval_expression,
    extract_algebra,
    make_hqft,
    random_expression,
)
from .linalg import Matrix


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion. Its check returns (ok, log lines); the
    criterion passes when the check is ok and runs in under `budget` seconds."""

    number: int
    title: str
    suite: str
    budget: float
    check: Callable[[], tuple[bool, list[str]]]

    def run(self) -> CriterionResult:
        started = time.perf_counter()
        ok, lines = self.check()
        seconds = time.perf_counter() - started
        return CriterionResult(self, ok, seconds, lines)


@dataclass
class CriterionResult:
    """One run of a criterion: `passed` is its check's verdict, and `ok`
    also asks that the run kept to the budget. A check that passes over its
    budget says so in its summary line."""

    criterion: Criterion
    passed: bool
    seconds: float
    lines: list

    @property
    def ok(self) -> bool:
        return self.passed and self.seconds < self.criterion.budget

    def summary(self) -> str:
        c = self.criterion
        late = f", over its {c.budget:g}s budget" if self.passed and not self.ok else ""
        return (f"{'PASS' if self.ok else 'FAIL'} criterion {c.number}: {c.title} "
                f"({self.seconds:.2f}s{late})")


def _crossed_module_axioms():
    lines, ok = [], True
    for name, cm in fixtures.std_crossed_modules().items():
        started = time.perf_counter()
        rep = check_crossed_module(cm)
        elapsed = time.perf_counter() - started
        ok &= rep.ok and elapsed < 1.0
        lines.append(f"  {name}: {'ok' if rep.ok else rep.summary()} ({elapsed:.3f}s)")
    return ok, lines


def _group_algebra_axioms():
    lines, ok = [], True
    algs = fixtures.std_algebras(QQ)
    cms = fixtures.std_crossed_modules()
    for name, cm in cms.items():
        for label in (f"KC.{name}", f"KP.{name}"):
            rep = check_crossed_algebra(algs[label])
            ok &= rep.ok
            lines.append(f"  {label}: {'ok' if rep.ok else rep.summary()}")
        # grade-dimension formula against the brute-force count
        dims = list(algs[f"KC.{name}"].dims)
        ker = sum(1 for c in cm.top.elements() if cm.d(c) == 0)
        image = set(cm.boundary.map)
        formula = [ker if p in image else 0 for p in cm.base.elements()]
        count = [sum(1 for c in cm.top.elements() if cm.d(c) == p) for p in cm.base.elements()]
        match = dims == formula == count
        ok &= match
        lines.append(f"  KC.{name}: grade dims match |ker d| * [p in dC]" if match else
                     f"  KC.{name}: FAIL: grade dims {dims}, |ker d| * [p in dC] {formula}, "
                     f"brute-force count {count}")
    return ok, lines


def _kp_iso():
    cm = fixtures.std_crossed_modules()["CM-A3S3"]
    try:
        # checks the algebra map, its invertible blocks and the cocycle law
        kp_iso_witness(cm, QQ)
    except AssertionError as exc:
        return False, [f"  {exc}"]
    return True, ["  witness e_p -> (e_q(p))_n is an isomorphism; "
                  f"{cm.base.order ** 2} products match the cocycle law"]


def _interchange():
    lines, ok = [], True
    for name, cm in fixtures.std_crossed_modules().items():
        size = cm.top.order * cm.base.order
        if size > 64:
            lines.append(f"  {name}: skipped (|C||P| = {size} > 64)")
            continue
        cells = [(c, p) for c in cm.top.elements() for p in cm.base.elements()]
        agree = True
        for (c, p), (c2, p2) in itertools.product(cells, repeat=2):
            sd = sd_mul(SemidirectElement(cm, c, p), SemidirectElement(cm, c2, p2))
            cell = compose_h(LabeledCell(cm, c, p), LabeledCell(cm, c2, p2))
            r1, r2 = whiskering_orders(cm, c, p, c2, p2)
            agree &= (sd.c, sd.p) == (cell.c, cell.p) and (r1.c, r1.p) == (r2.c, r2.p)
        ok &= agree
        lines.append(f"  {name}: compose_h = sd_mul on {len(cells) ** 2} pairs; "
                     f"whiskering orders agree ({'ok' if agree else 'FAIL'})")
    return ok, lines


def _boxed_identities():
    lines, ok = [], True
    algs = fixtures.std_algebras(QQ)
    for name in fixtures.fixture_algebra_names():
        rep = check_boxed_identities(algs[name])
        ok &= rep.ok
        lines.append(f"  {name}: {'ok' if rep.ok else rep.summary()}")
    return ok, lines


def _evaluator_coherence():
    lines, ok = [], True
    algs = fixtures.std_algebras(QQ)
    for name in fixtures.fixture_algebra_names():
        tau = make_hqft(algs[name])
        L = tau.algebra
        snakes = check_relations(tau, SNAKES, f"snake identities for {name}").ok
        rng = random.Random(20240 + len(name))
        functorial = True
        for _ in range(100):
            e1 = random_expression(tau, rng)
            e2 = random_expression(tau, rng,
                                   source=[c.labels[0] for c in e1.target.circuits])
            lhs = eval_expression(tau, compose_expressions(e1, e2)).matrix
            rhs = eval_expression(tau, e2).matrix @ eval_expression(tau, e1).matrix
            functorial &= lhs == rhs
        roundtrip = same_structure(extract_algebra(tau), L)
        ok &= snakes and functorial and roundtrip
        lines.append(f"  {name}: snakes {'ok' if snakes else 'FAIL'}, "
                     f"functoriality x100 {'ok' if functorial else 'FAIL'}, "
                     f"round trip {'ok' if roundtrip else 'FAIL'}")
    return ok, lines


def _equivalence_invariance():
    lines, ok = [], True
    algs = fixtures.std_algebras(QQ)
    for name in fixtures.fixture_algebra_names():
        rep = check_equivalence_invariance(make_hqft(algs[name]))
        ok &= rep.ok
        lines.append(f"  {name}: {'ok' if rep.ok else rep.summary()}")
    return ok, lines


def _naive_span_dim(vectors):
    """Independent oracle: dimension of a rational span by textbook
    elimination on a dense list of lists."""
    rows = [list(map(Fraction, v)) for v in vectors]
    dim, col_count = 0, (len(rows[0]) if rows else 0)
    reduced = []
    for row in rows:
        for r in reduced:
            lead = next(i for i, x in enumerate(r) if x != 0)
            if row[lead] != 0:
                factor = row[lead] / r[lead]
                row = [a - factor * b for a, b in zip(row, r)]
        if any(x != 0 for x in row):
            reduced.append(row)
            dim += 1
    return dim


def _naive_ideal_dims(fmor, L):
    """Brute-force the ideal span closure with no shared machinery: embed
    everything in the full underlying space and iterate products, summing
    the stored cells e_i e_j of the structure constants entry by entry."""
    P = L.P
    Q = fmor.target.base
    f0 = fmor.f_base.map
    offsets = L.grade_offsets()
    total = L.total_dim

    def embed(p, vec):
        out = [Fraction(0)] * total
        for i, x in enumerate(vec):
            out[offsets[p] + i] = Fraction(x)
        return out

    basis = [(p, i) for p in P.elements() for i in range(L.dims[p])]
    gens = []
    for n in P.elements():
        if f0[n] != 0 or n == 0:
            continue
        for p, i in basis:
            e = tuple(L.field.one if j == i else L.field.zero
                      for j in range(L.dims[p]))
            img = L.phi[(n, p)].apply(e)
            vec = embed(P.conj(n, p), img)
            base_vec = embed(p, e)
            gens.append([a - b for a, b in zip(vec, base_vec)])
    for b in L.C.elements():
        if fmor.f_top.map[b] != 0 or b == 0:
            continue
        gens.append([a - c for a, c in zip(embed(L.cm.d(b), L.tilde[b]),
                                           embed(0, L.unit))])

    def full_mul(u, v):
        out = [Fraction(0)] * total
        for p in P.elements():
            for i in range(L.dims[p]):
                a = u[offsets[p] + i]
                if a == 0:
                    continue
                for q in P.elements():
                    for j in range(L.dims[q]):
                        bcoef = v[offsets[q] + j]
                        if bcoef == 0:
                            continue
                        pq = P.mul(p, q)
                        for k, s in enumerate(L.mul[(p, q)][i][j]):
                            out[offsets[pq] + k] += a * bcoef * Fraction(s)
        return out

    span = list(gens)
    dim = _naive_span_dim(span)
    while True:
        new = []
        for v in span:
            for p, i in basis:
                e = embed(p, tuple(L.field.one if j == i else L.field.zero
                                   for j in range(L.dims[p])))
                new.append(full_mul(e, v))
                new.append(full_mul(v, e))
        grown = _naive_span_dim(span + new)
        if grown == dim:
            break
        span = span + new
        dim = grown
    # split by target-grade class
    dims = {}
    for q in Q.elements():
        cols = [offsets[p] + i for p in P.elements() if f0[p] == q
                for i in range(L.dims[p])]
        dims[q] = _naive_span_dim([[v[c] for c in cols] for v in span])
    return dims


def _pushforward():
    lines, ok = [], True
    fmor = fixtures.std_morphisms()["q.CM-A3S3"]
    L = fixtures.std_algebras(QQ)["KP.CM-A3S3"]
    try:
        # runs the checker on the pushforward and raises if it fails
        data = pushforward_data(fmor, L)
    except ValueError as exc:
        return False, [f"  pushforward of K[S3] over (1->Z/2): FAIL: {exc}"]
    fL = data.algebra
    lines.append("  pushforward of K[S3] over (1->Z/2): checker ok")
    # the quotient map is the untranspose of the identity of the pushforward
    ident = CrossedAlgebraMorphism(identity_morphism(fmor.target), fL, fL,
                                   {q: Matrix.identity(fL.field, d) for q, d in enumerate(fL.dims)})
    rep = check_algebra_morphism(untranspose_to_pushforward(ident, fmor, L, data))
    ok &= rep.ok
    lines.append(f"  quotient map K[S3] -> pushforward is a crossed algebra morphism over f: "
                 f"{'ok' if rep.ok else rep.summary()}")
    Q = fmor.target.base
    oracle = _naive_ideal_dims(fmor, L)
    match = all(data.spans[q].dim == oracle[q] for q in Q.elements())
    ok &= match
    lines.append(f"  ideal dims {dict((Q.names[q], data.spans[q].dim) for q in Q.elements())} "
                 f"match brute-force oracle: {match}")
    return ok, lines


def _adjunction():
    lines, ok = [], True
    f2 = GF(2)
    algs = fixtures.std_algebras(f2)
    fmor = fixtures.std_morphisms()["collapse.CM-Id2"]
    L, Lp = algs["KC.CM-Id2"], algs["KQ.1Z2"]
    over_f = enumerate_algebra_morphisms(fmor, L, Lp)
    pulled = pullback(fmor, Lp)
    into_pull = enumerate_algebra_morphisms(identity_morphism(L.cm), L, pulled)
    data = pushforward_data(fmor, L)
    from_push = enumerate_algebra_morphisms(identity_morphism(fmor.target),
                                            data.algebra, Lp)
    counts = (len(over_f), len(into_pull), len(from_push))
    ok &= counts[0] == counts[1] == counts[2]
    lines.append(f"  |Hom over f| = {counts[0]}, |Hom into pullback| = {counts[1]}, "
                 f"|Hom from pushforward| = {counts[2]}")
    inverse = True
    for m in over_f:
        tp = transpose_to_pullback(m)
        inverse &= check_algebra_morphism(tp).ok
        back = untranspose_from_pullback(tp, fmor, Lp)
        inverse &= morphisms_equal(back, m)
        tq = transpose_from_pushforward(m, data)
        inverse &= check_algebra_morphism(tq).ok
        back2 = untranspose_to_pushforward(tq, fmor, L, data)
        inverse &= morphisms_equal(back2, m)
    for m2 in into_pull:
        inverse &= morphisms_equal(
            transpose_to_pullback(untranspose_from_pullback(m2, fmor, Lp)), m2)
    for m2 in from_push:
        inverse &= morphisms_equal(
            transpose_from_pushforward(untranspose_to_pushforward(m2, fmor, L, data), data),
            m2)
    ok &= inverse
    lines.append("  transposes are mutually inverse on every enumerated morphism" if inverse else
                 "  FAIL: a transpose is not a morphism, or not inverse to its untranspose")
    return ok, lines


def _annuli_agree(cm, tuples) -> bool:
    """Whether, for every (c, g, h) of `tuples`, the annulus labelings with
    either diagonal and either concentration all validate and flatten to
    one piece."""
    agree = True
    for c, g, h in tuples:
        pieces = set()
        for diagonal in ("up", "down"):
            for conc in ("first", "second"):
                m = annulus_labeling(cm, c, g, h, diagonal, conc)
                agree &= validate_simplicial(m).ok
                pieces.add(annulus_flatten(m))
        agree &= len(pieces) == 1
    return agree


def _simplicial():
    cms = fixtures.std_crossed_modules()
    # identity-labeled (potential-derived) complexes always validate
    tetra = OrderedComplex(4, (0, 1, 2, 3),
                           edges=tuple(itertools.combinations(range(4), 2)),
                           triangles=tuple(itertools.combinations(range(4), 3)),
                           tetrahedra=((0, 1, 2, 3),))
    potential = True
    for cm in cms.values():
        for pot in itertools.islice(itertools.product(cm.base.elements(), repeat=4), 40):
            potential &= validate_simplicial(labeling_from_vertex_potential(cm, tetra, pot)).ok
    cm = cms["CM-Id2"]
    id2 = _annuli_agree(cm, itertools.product(cm.top.elements(), cm.base.elements(),
                                              cm.base.elements()))
    cm = cms["CM-A3S3"]
    rng = random.Random(5)
    a3s3 = _annuli_agree(cm, [(rng.randrange(cm.top.order), rng.randrange(cm.base.order),
                               rng.randrange(cm.base.order)) for _ in range(50)])
    lines = [
        "  potential-derived labelings of the full tetrahedron validate" if potential else
        "  FAIL: a potential-derived labeling of the full tetrahedron does not validate",
        "  CM-Id2: both annulus triangulations flatten to the same piece, all (c,g,h)" if id2
        else "  CM-Id2: FAIL: an annulus labeling does not validate or flatten to one piece",
        "  CM-A3S3: 50 random tuples, both triangulations agree" if a3s3 else
        "  CM-A3S3: FAIL: of 50 random tuples, an annulus labeling does not validate or "
        "flatten to one piece",
    ]
    return potential and id2 and a3s3, lines


def _mutation_sensitivity():
    results = mutations.run_all()
    missed = [d for d in results if not d.detected]
    lines = [f"  {d.mutation}: {'detected at ' + str(d.instance) if d.detected else 'MISSED'}"
             for d in results]
    lines.append(f"  {len(results) - len(missed)}/{len(results)} mutations detected")
    return not missed, lines


CRITERIA = [
    # criterion 1 also bounds each fixture at 1 s inside its check
    Criterion(1, "crossed-module axioms on all fixtures", "axioms", 4.0,
              _crossed_module_axioms),
    Criterion(2, "group algebras pass the full checker; dim formula", "axioms", 5.0,
              _group_algebra_axioms),
    Criterion(3, "K[P] ~ q*(K[G]) with the cocycle multiplication law", "iso", 1.0,
              _kp_iso),
    Criterion(4, "interchange/Peiffer: #0 = semidirect product", "interchange", 1.0,
              _interchange),
    Criterion(5, "all four boxed identity families, exhaustively", "boxed", 10.0,
              _boxed_identities),
    Criterion(6, "evaluator coherence: snakes, functoriality, round trip", "evaluator", 30.0,
              _evaluator_coherence),
    Criterion(7, "equivalence-invariance families (a)-(d)", "invariance", 10.0,
              _equivalence_invariance),
    Criterion(8, "pushforward checker, quotient map morphism, ideal oracle", "pushforward", 5.0,
              _pushforward),
    Criterion(9, "adjunction transposes over F2, bounded enumeration", "adjunction", 60.0,
              _adjunction),
    Criterion(10, "simplicial validation and annulus flattening", "simplicial", 5.0,
              _simplicial),
    Criterion(11, "mutation sensitivity: 100% detection", "mutations", 60.0,
              _mutation_sensitivity),
]

# one suite per distinct `suite`, in criterion order, then "none" and "all"
SUITES = {suite: [c for c in CRITERIA if c.suite == suite]
          for suite in dict.fromkeys(c.suite for c in CRITERIA)}
SUITES["none"] = []
SUITES["all"] = CRITERIA


def run_suite(name: str) -> int:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    all_ok = True
    for criterion in SUITES[name]:
        result = criterion.run()
        print(result.summary())
        for line in result.lines:
            print(line)
        all_ok &= result.ok
    return 0 if all_ok else 1
