"""The four workloads. Each builder does all of its set-up (fixtures, ladder
algebras, gauge bases, expressions, documents) and returns the ops of one
cycle; an op is a call sequence into the program plus an exact oracle.

The counts per cycle are fixed and the seed only changes which labels,
entries and basis changes are drawn, so every seed gives the same mix.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import exact
import exprgen
import gauge
# the program is called through its module attributes, never through names
# bound here, so that the tracer's rebinding of those attributes applies
from crossmod import algebras, cli, crossed_modules, fixtures, hqft, serialize
from crossmod.algebras import CrossedCAlgebra
from crossmod.fields import GF, QQ
from crossmod.formal_maps import Cap, Copants, Cup, Cyl, Disc, Id, Pants
from crossmod.groups import action, cyclic_group, trivial_action, trivial_group
from crossmod.linalg import Matrix


class Mismatch(Exception):
    """An oracle rejected an op's result."""


@dataclass
class Op:
    key: str                        # stable name; orders the output digest
    run: Callable[[], Any]          # the timed calls into the program
    check: Callable[[Any], Any]     # oracle: canonical result, or Mismatch
    defect: str | None = None       # a known seed defect this op runs into


def canonical(m: Matrix):
    return {"shape": [m.rows, m.cols], "data": exact.matrix_text(m.data)}


def require(cond, what):
    if not cond:
        raise Mismatch(what)


# --------------------------------------------------------------------------
# evaluator ops
# --------------------------------------------------------------------------

def functoriality_op(key, tau, e1, e2, twins=None):
    """Evaluate e1, e2 and their composite; the composite must equal
    M2 @ M1 exactly. With `twins` (a shared dict, the pair id and the basis
    change of both boundaries) the composite of the same pair in the other
    basis must be intertwined by the basis change: T_out M' = M T_in."""
    e12 = exprgen.compose(e1, e2)

    def run():
        return (hqft.eval_expression(tau, e1).matrix, hqft.eval_expression(tau, e2).matrix,
                hqft.eval_expression(tau, e12).matrix)

    def check(res):
        m1, m2, m12 = res
        require((m12.rows, m12.cols) == (m2.rows, m1.cols), "composite shape")
        require(exact.same(m12.data, exact.matmul(m2.data, m1.data, m1.cols)),
                "M(e1;e2) != M2 @ M1")
        if twins is not None:
            seen, pair, basis, t_in, t_out = twins
            seen.setdefault(pair, {})[basis] = m12.data
            if len(seen[pair]) == 2:
                m, mg = seen[pair]["group"], seen[pair]["gauge"]
                require(exact.same(exact.matmul(t_out, mg, len(t_in)),
                                   exact.matmul(m, t_in, len(t_in))),
                        "group and gauge composites are not intertwined")
        return canonical(m12)

    return Op(key, run, check)


def invariance_instance_op(key, tau, exprs):
    """Expressions related by a generating move evaluate equally."""
    def run():
        return [hqft.eval_expression(tau, e).matrix for e in exprs]

    def check(res):
        first = res[0]
        for m in res[1:]:
            require(m.shape() == first.shape() and exact.same(m.data, first.data),
                    "equivalent expressions evaluate differently")
        return canonical(first)

    return Op(key, run, check)


def report_op(key, module, checker, subject, expect_ok=True, readers=None):
    """A call of `module.checker`. Valid input must pass; a corrupted algebra
    must fail, and only in families that read the corrupted structure map."""
    def run():
        return getattr(module, checker)(subject)

    def check(rep):
        failed = [r.axiom for r in rep.results if not r.ok]
        if expect_ok:
            require(not failed, f"valid input fails {failed}")
        else:
            require(failed, "corruption not detected")
            require(set(failed) <= readers, f"failure outside {sorted(readers)}: {failed}")
        return rep.to_json()

    return Op(key, run, check)


def invariance_family(cm, rng):
    """One random instance of the equivalence-invariance families (a)-(d),
    as expressions that must evaluate equally."""
    P, C, d, act = cm.base, cm.top, cm.d, cm.action
    c, c2 = rng.randrange(C.order), rng.randrange(C.order)
    g, g2, h = rng.randrange(P.order), rng.randrange(P.order), rng.randrange(P.order)
    family = rng.choice("abcd")
    if family == "a":   # disc into a cylinder, against the acted disc
        exprs = [exprgen.build(cm, [], [[Disc(c)], [Cyl(0, d(c), h)]]),
                 exprgen.build(cm, [], [[Disc(act(P.inv[h], c))]])]
    elif family == "b":  # two cylinders into pants, against one relabeled pants
        k1, k2 = P.mul(d(c), g), P.mul(d(c2), g2)
        cc = C.mul(c, act(g, c2))
        exprs = [exprgen.build(cm, [g, g2], [[Cyl(c, g, 0), Cyl(c2, g2, 0)],
                                             [Pants(0, k1, k2)]]),
                 exprgen.build(cm, [g, g2], [[Pants(cc, g, g2)]])]
    elif family == "c":  # the whiskering orders
        gc = act(g, c)
        exprs = [exprgen.build(cm, [g, g2], [[Id(g), Cyl(c, g2, 0)],
                                             [Pants(0, g, P.mul(d(c), g2))]]),
                 exprgen.build(cm, [g, g2], [[Pants(0, g, g2)], [Cyl(gc, P.mul(g, g2), 0)]]),
                 exprgen.build(cm, [g, g2], [[Cyl(gc, g, 0), Id(g2)],
                                             [Pants(0, P.mul(d(gc), g), g2)]])]
    else:                # the two pairing composites
        dcg = P.mul(d(c), g)
        y = P.inv[dcg]
        exprs = [exprgen.build(cm, [g, y], [[Cyl(c, g, 0), Id(y)], [Cap(dcg)]]),
                 exprgen.build(cm, [g, y], [[Id(g), Cyl(act(P.inv[g], c), y, 0)], [Cap(g)]])]
    if len({e.target for e in exprs}) != 1:
        raise AssertionError(f"family {family} instance is ill-formed")
    return family, exprs


def random_source(rng, pool, lo, hi):
    return [rng.choice(pool) for _ in range(rng.randint(lo, hi))]


# --------------------------------------------------------------------------
# eval-small
# --------------------------------------------------------------------------

EVAL_SMALL_ALGEBRAS = ["KC.CM-Id2", "KC.CM-A3S3", "KC.CM-AutS3", "KP.CM-Id2",
                       "KP.CM-A3S3", "KP.CM-Mod", "KP.CM-AutS3", "QKG.CM-A3S3",
                       "PUSH.CM-A3S3", "PUSH.CM-Id2"]
# algebras whose whole invariance sweep takes milliseconds
EVAL_SMALL_SWEEPS = ["KC.CM-Id2", "KP.CM-Id2", "KP.CM-Mod", "PUSH.CM-A3S3", "PUSH.CM-Id2"]
# (source width, depth of e1, depth of e2) of the functoriality ops on each
# algebra: every seed gets the same shapes, and only the pieces vary
SHAPES = [(w, d1, d2) for w in range(4) for d1 in (1, 2, 3) for d2 in (1, 2, 3)]
INSTANCES_PER_ALGEBRA = 10


def eval_small(seed: int) -> list[Op]:
    rng = random.Random(f"eval-small/{seed}")
    fixture_algebras = fixtures.std_algebras(QQ)
    ops = []
    for name in EVAL_SMALL_ALGEBRAS:
        L = fixture_algebras[name]
        tau = hqft.make_hqft(L)
        cm, pool = L.cm, list(L.P.elements())
        for i, (width, d1, d2) in enumerate(SHAPES):
            e1 = exprgen.random_expression(cm, rng, random_source(rng, pool, width, width),
                                           d1, 4)
            e2 = exprgen.random_expression(cm, rng, exprgen.labels(e1.target), d2, 4)
            ops.append(functoriality_op(f"functoriality/{name}/{i}", tau, e1, e2))
        for i in range(INSTANCES_PER_ALGEBRA):
            family, exprs = invariance_family(cm, rng)
            ops.append(invariance_instance_op(f"invariance-{family}/{name}/{i}", tau, exprs))
        if name in EVAL_SMALL_SWEEPS:
            ops.append(report_op(f"invariance-sweep/{name}", hqft,
                                 "check_equivalence_invariance", tau))
    return ops


# --------------------------------------------------------------------------
# eval-wide
# --------------------------------------------------------------------------

OPEN_PAIRS = 28
CLOSED_PAIRS = 4
# bounds on the work of one op, in multiply-adds estimated from the grade
# dimensions; keeps every op mid-sized, so that no op dominates a run and
# every seed gets nearly the same total work. Closed expressions are
# smaller: closing a boundary merges its circles.
WORK_BAND = {"open": (5000, 9000), "closed": (1000, 5000)}
DRAWS = 10000


def module_over_trivial(n):
    z, one = cyclic_group(n), trivial_group()
    return crossed_modules.from_module(z, one, trivial_action(one, z), name=f"Z{n}/1")


def piece_work(L, piece):
    """Estimated multiply-adds of evaluating one piece, from the matrices
    eval_piece builds and multiplies; a and b are the source and target
    state-space dimensions."""
    d, cm = L.dims, L.cm
    src, tgt = exprgen.piece_io(cm, piece)
    a, b = math.prod(d[g] for g in src), math.prod(d[g] for g in tgt)
    match piece:
        case Cyl():         # left multiplication by tilde(c), then the action
            return 2 * a * b * b
        case Pants():       # left multiplication by tilde(c), then the product
            return 2 * a * b + a * b * b
        case Copants(g1, _):  # a cup, two Kronecker products and their product
            return d[g1] ** 3 + a * b * d[g1] + (a * b) ** 2 + a * b * b
        case Cup():         # inverting the pairing block
            return 2 * b ** 1.5
        case Cap():
            return a
    return a * b


def expression_work(L, e):
    """Estimated multiply-adds of evaluating e: each layer's product with the
    running matrix, building the layer, and evaluating its pieces."""
    dims, cm = L.dims, L.cm
    src = math.prod(dims[g] for g in exprgen.labels(e.source))
    work = 0
    for layer in e.layers:
        n_in = math.prod(dims[g] for p in layer for g in exprgen.piece_io(cm, p)[0])
        n_out = math.prod(dims[g] for p in layer for g in exprgen.piece_io(cm, p)[1])
        work += n_out * n_in * (src + 1) + sum(piece_work(L, p) for p in layer)
    return work


def basis_change(S, label_seq):
    """Kronecker product of the grade basis changes along a boundary."""
    t = [[1]]
    for g in label_seq:
        t = exact.kron(t, S[g])
    return t


def eval_wide(seed: int) -> list[Op]:
    rng = random.Random(f"eval-wide/{seed}")
    bases = [(fixtures.std_algebras(QQ)["KC.CM-Mod"], 3),
             (algebras.group_algebra_C(module_over_trivial(2), QQ, name="KC.Z2/1"), 4),
             (algebras.group_algebra_C(module_over_trivial(3), QQ, name="KC.Z3/1"), 3)]
    ops, seen = [], {}
    for L, width in bases:
        G, S = gauge.gauge_transform(L, rng, name=f"gauge({L.name})")
        rep = algebras.check_crossed_algebra(G)
        if not rep.ok:
            raise AssertionError(f"gauge algebra fails {rep.first_failure().axiom}")
        taus = {"group": hqft.make_hqft(L), "gauge": hqft.make_hqft(G)}
        cm = L.cm
        pool = [g for g in L.P.elements() if L.dims[g] > 0]
        def open_pair():
            e1 = exprgen.random_expression(cm, rng, random_source(rng, pool, 1, width),
                                           rng.randint(1, 3), width, pool)
            return e1, exprgen.random_expression(cm, rng, exprgen.labels(e1.target),
                                                 rng.randint(1, 3), width, pool)

        def closed_pair():
            e1 = exprgen.random_expression(cm, rng, [], rng.randint(2, 4), width, pool)
            closing = exprgen.closing_layers(cm, rng, exprgen.labels(e1.target), pool)
            return None if closing is None else \
                (e1, exprgen.build(cm, exprgen.labels(e1.target), closing))

        pairs = []
        for kind, count, draw in (("open", OPEN_PAIRS, open_pair),
                                  ("closed", CLOSED_PAIRS, closed_pair)):
            lo, hi = WORK_BAND[kind]
            for _ in range(DRAWS):
                if sum(k == kind for k, _, _ in pairs) == count:
                    break
                pair = draw()
                if pair is not None and lo <= sum(
                        expression_work(L, e) for e in (*pair, exprgen.compose(*pair))) <= hi:
                    pairs.append((kind, *pair))
            else:
                raise AssertionError(f"{L.name}: too few {kind} pairs in the work band")
        for i, (kind, e1, e2) in enumerate(pairs):
            pair = f"{L.name}/{kind}/{i}"
            t_in = basis_change(S, exprgen.labels(e1.source))
            t_out = basis_change(S, exprgen.labels(e2.target))
            for basis, tau in taus.items():
                ops.append(functoriality_op(f"functoriality-{kind}/{basis}/{pair}", tau,
                                            e1, e2, (seen, pair, basis, t_in, t_out)))
    return ops


# --------------------------------------------------------------------------
# check-ladder
# --------------------------------------------------------------------------

# the checker families that read each structure map; a single-entry
# corruption of a map may fail only these
READERS = {
    "unit": {"unit", "phi_multiplicative", "tilde_unit"},
    "mul": {"unit", "associativity", "rho_invariant", "phi_multiplicative",
            "twisted_commutativity", "trace", "tilde_multiplicative"},
    "rho": {"rho_symmetric", "rho_nondegenerate", "rho_invariant", "phi_isometry"},
    "phi": {"phi_homomorphism", "phi_multiplicative", "phi_isometry",
            "phi_fixes_own_grade", "twisted_commutativity", "trace", "tilde_equivariant"},
    "tilde": {"tilde_unit", "tilde_multiplicative", "tilde_equivariant"},
}
MODULE_LADDER = (2, 3, 4, 5, 6)
IDENTITY_LADDER = (4, 6, 8)


def inversion_module(n):
    z2, zn = cyclic_group(2), cyclic_group(n)
    inv = action(z2, zn, [list(range(n)), [(-c) % n for c in range(n)]])
    return crossed_modules.from_module(zn, z2, inv, name=f"Z{n}/Z2")


def corrupt(L: CrossedCAlgebra, rng, target: str) -> CrossedCAlgebra:
    """A copy of L with one entry of one structure map moved, in a grade that
    carries states. The new entry is neither the old one nor its negative:
    a sign flip can give another valid algebra (a twist by a character)."""
    P, f = L.P, L.field

    def moved(x):
        return f.add(x, rng.choice([d for d in (1, -1, 2) if d != -2 * x]) * f.one)

    mul, unit, rho, phi, tilde = L.mul, L.unit, L.rho, L.phi, L.tilde
    if target == "mul":
        keys = [k for k in sorted(mul) if L.dims[k[0]] and L.dims[k[1]]
                and L.dims[P.mul(*k)]]
        key = rng.choice(keys)
        i, j, k = (rng.randrange(L.dims[key[0]]), rng.randrange(L.dims[key[1]]),
                   rng.randrange(L.dims[P.mul(*key)]))
        mul = dict(mul)
        mul[key] = copy.deepcopy(mul[key])
        mul[key][i][j][k] = moved(mul[key][i][j][k])
    elif target == "unit":
        i = rng.randrange(len(unit))
        unit = tuple(moved(x) if n == i else x for n, x in enumerate(unit))
    elif target in ("rho", "phi"):
        table = rho if target == "rho" else phi
        key = rng.choice([k for k in sorted(table) if table[k].rows and table[k].cols])
        m = table[key]
        i, j = rng.randrange(m.rows), rng.randrange(m.cols)
        data = [list(row) for row in m.data]
        data[i][j] = moved(data[i][j])
        table = dict(table)
        table[key] = Matrix(f, data, cols=m.cols)
        rho, phi = (table, phi) if target == "rho" else (rho, table)
    else:
        c = rng.choice([c for c in L.C.elements() if len(tilde[c])])
        i = rng.randrange(len(tilde[c]))
        tilde = tuple(tuple(moved(x) if (n, k) == (c, i) else x
                            for k, x in enumerate(vec)) for n, vec in enumerate(tilde))
    return CrossedCAlgebra(f"{L.name}+{target}", L.cm, f, L.dims, L.basis_names,
                           mul, unit, rho, phi, tilde)


def check_ladder(seed: int) -> list[Op]:
    rng = random.Random(f"check-ladder/{seed}")
    ladder = []
    for n in MODULE_LADDER:
        ladder.append(algebras.group_algebra_C(module_over_trivial(n), QQ, name=f"KC.Z{n}/1"))
        ladder.append(algebras.group_algebra_C(inversion_module(n), QQ, name=f"KC.Z{n}/Z2"))
    for n in IDENTITY_LADDER:
        cm = crossed_modules.from_normal_inclusion(cyclic_group(n), range(n),
                                                   name=f"Z{n}=Z{n}")
        ladder.append(algebras.group_algebra_C(cm, QQ, name=f"KC.Z{n}=Z{n}"))
    fixture_algebras = fixtures.std_algebras(QQ)
    for name in fixtures.std_crossed_modules():
        ladder += [fixture_algebras[f"KC.{name}"], fixture_algebras[f"KP.{name}"]]
    ops = []
    for i, L in enumerate(ladder):
        G, _ = gauge.gauge_transform(L, rng, name=f"gauge({L.name})")
        for basis, alg in (("group", L), ("gauge", G)):
            ops.append(report_op(f"check/{basis}/{L.name}", algebras,
                                 "check_crossed_algebra", alg))
            ops.append(report_op(f"boxed/{basis}/{L.name}", algebras,
                                 "check_boxed_identities", alg))
        target = sorted(READERS)[i % len(READERS)]
        basis, alg = (("group", L), ("gauge", G))[i % 2]
        ops.append(report_op(f"check-corrupt-{target}/{basis}/{L.name}", algebras,
                             "check_crossed_algebra", corrupt(alg, rng, target),
                             expect_ok=False, readers=READERS[target]))
    return ops


# --------------------------------------------------------------------------
# cli-roundtrip
# --------------------------------------------------------------------------

DEFECT_INDEX_RANGE = "out-of-range piece index raises IndexError"
DEFECT_NEGATIVE = "negative piece index passes through Python indexing"
DEFECT_TABLE_ENTRY = "non-integer group table entry raises TypeError"
DEFECT_FIELD = "--field Fp:4 raises ValueError"
FP = "Fp:5"
PIECE_PICKS = 4
CORRUPT_DOCS = 6
EVALS_PER_ALGEBRA = 2


def cli_call(argv):
    """crossmod.cli.main in process with stdout captured: (exit code, text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def parse_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise Mismatch(f"{what}: output is not JSON") from None


def cli_op(key, argv, expect, defect=None, out_file=None, dims=None):
    """One CLI call. `expect` is the exit code: 0 with a result (a document
    in `out_file`, or an eval result matching `dims`), 1 with a failing
    report, 2 with a JSON error."""
    def check(res):
        code, text = res
        require(code == expect, f"exit {code}, expected {expect}")
        if out_file is not None:
            require(text == "", "build printed to stdout")
            body = Path(out_file).read_text()
            doc = parse_json(body, "build output")
            require(doc.get("kind") == "algebra", "build output is not an algebra")
            return {"exit": code, "out_sha256": hashlib.sha256(body.encode()).hexdigest()}
        doc = parse_json(text, "stdout")
        if expect == 2:
            require(isinstance(doc, dict) and "error" in doc, "no JSON error")
        elif expect == 1:
            require(doc.get("ok") is False, "failing report expected")
        elif dims is not None:
            src, tgt = dims
            require(doc["source_dims"] == src and doc["target_dims"] == tgt, "eval dims")
            rows, cols = math.prod(tgt), math.prod(src)
            require(len(doc["matrix"]) == rows and all(len(r) == cols for r in doc["matrix"]),
                    "eval matrix shape")
        else:
            require(doc.get("ok") is True, "passing report expected")
        return {"exit": code, "stdout": text}

    return Op(key, lambda: cli_call(argv), check, defect)


class DocStore:
    """Writes input documents under a relative directory, so paths in error
    messages, and therefore the outputs, do not depend on where it runs."""

    def __init__(self, root="docs"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, name, doc) -> str:
        path = self.root / f"{name}.json"
        path.write_text(serialize.dumps(doc))
        return str(path)


def drop_and_mistype(doc, skip=("name", "basis_names")):
    """Every one-field corruption of a document: each required field
    dropped, and each replaced by a value of the wrong type."""
    for key in doc:
        if key in skip:
            continue
        dropped = dict(doc)
        del dropped[key]
        yield f"drop-{key}", dropped
        mistyped = dict(doc)
        mistyped[key] = 7 if isinstance(doc[key], str) else "x"
        yield f"type-{key}", mistyped


def corrupt_scalar_doc(doc, rng):
    """An algebra document with one structure-map entry changed: still
    well-formed, but no longer a crossed algebra."""
    doc = copy.deepcopy(doc)
    entries = []

    def collect(node, path):
        if isinstance(node, list):
            for k, x in enumerate(node):
                collect(x, path + [k])
        elif isinstance(node, dict):
            for k in sorted(node):
                collect(node[k], path + [k])
        else:
            entries.append(path)

    for key in ("mul", "unit", "rho", "phi", "tilde"):
        collect(doc[key], [key])
    path = rng.choice(entries)
    node = doc
    for k in path[:-1]:
        node = node[k]
    # a scalar reads "3/4" over Q and "3 mod 5" over Fp; the new value is
    # neither the old one nor its negative
    old = node[path[-1]].split("mod")[0].strip()
    node[path[-1]] = "2" if old in ("0", "1", "-1") else "0"
    return doc


def cli_roundtrip(seed: int) -> list[Op]:
    rng = random.Random(f"cli-roundtrip/{seed}")
    store = DocStore()
    Path("out").mkdir(exist_ok=True)
    cms = fixtures.std_crossed_modules()
    by_field = {"Q": fixtures.std_algebras(QQ), FP: fixtures.std_algebras(GF(5))}
    names = fixtures.fixture_algebra_names()
    ops = []

    def field_args(field):
        return [] if field == "Q" else ["--field", field]

    # constructions
    for field in by_field:
        for cm_name in cms:
            for kind in ("kC", "kP"):
                out = f"out/{kind}-{cm_name}-{field}.json"
                ops.append(cli_op(f"build-{kind}/{field}/{cm_name}",
                                  field_args(field) + ["build", kind, cm_name, "--out", out],
                                  0, out_file=out))
        for mor, alg in (("q.CM-A3S3", "KP.CM-A3S3"), ("collapse.CM-Id2", "KC.CM-Id2")):
            out = f"out/push-{mor}-{field}.json"
            ops.append(cli_op(f"build-pushforward/{field}/{mor}",
                              field_args(field) + ["build", "pushforward", mor, alg, "--out", out],
                              0, out_file=out))
    for mor_name, mor in fixtures.std_morphisms().items():
        if not mor_name.startswith("q."):
            continue
        target = store.put(f"kp-target-{mor_name}",
                           serialize.to_doc("algebra", algebras.group_algebra_P(mor.target, QQ)))
        out = f"out/pull-{mor_name}.json"
        ops.append(cli_op(f"build-pullback/{mor_name}",
                          ["build", "pullback", mor_name, target, "--out", out],
                          0, out_file=out))

    # checks of valid and of corrupted algebra documents
    docs, paths = {}, {}
    for field, by_name in by_field.items():
        for name in names:
            docs[(field, name)] = serialize.to_doc("algebra", by_name[name])
            paths[(field, name)] = store.put(f"alg-{name}-{field.replace(':', '')}",
                                             docs[(field, name)])
            ops.append(cli_op(f"check-algebra/{field}/{name}",
                              ["check", "algebra", paths[(field, name)]], 0))
    # with a single graded piece a pairing can be rescaled and stay valid,
    # so corrupt only algebras with states in two grades or more
    graded = [n for n in names if sum(d > 0 for d in by_field["Q"][n].dims) > 1]
    for i in range(CORRUPT_DOCS):
        field, name = ("Q", FP)[i % 2], graded[i % len(graded)]
        path = store.put(f"corrupt-{i}", corrupt_scalar_doc(docs[(field, name)], rng))
        ops.append(cli_op(f"check-corrupt/{i}", ["check", "algebra", path], 1))

    # evaluations, the algebra named or given as a file; two per algebra and
    # field, which also puts the 90th percentile inside the cluster of
    # checker-bound ops rather than on the gap below it
    for i, (field, name) in enumerate((f, n) for f in by_field for n in names
                                      for _ in range(EVALS_PER_ALGEBRA)):
        L = by_field[field][name]
        pool = [g for g in L.P.elements() if L.dims[g] > 0] or [0]
        e = exprgen.random_expression(L.cm, rng, random_source(rng, pool, 0, 2),
                                      rng.randint(1, 3), 2 if max(L.dims) > 1 else 3, pool)
        expr = store.put(f"expr-{i}", serialize.to_doc("expression", e))
        alg = name if i % 2 else paths[(field, name)]
        dims = ([L.dims[g] for g in exprgen.labels(e.source)],
                [L.dims[g] for g in exprgen.labels(e.target)])
        ops.append(cli_op(f"eval/{field}/{name}/{i}",
                          field_args(field) + ["eval", alg, expr], 0, dims=dims))

    # malformed documents: each must exit 2 with a JSON error
    algebra_doc = docs[("Q", rng.choice(names))]
    cm_name = rng.choice(sorted(cms))
    while True:     # an expression with enough piece indices to corrupt
        expr_doc = serialize.to_doc("expression", exprgen.random_expression(
            cms["CM-A3S3"], rng, random_source(rng, range(6), 1, 2), 2, 3))
        fields = [(li, pi, k) for li, layer in enumerate(expr_doc["layers"])
                  for pi, piece in enumerate(layer) for k in sorted(piece) if k != "piece"]
        if len(fields) >= PIECE_PICKS:
            break
    for kind, doc in (("algebra", algebra_doc), ("expression", expr_doc),
                      ("crossed-module", serialize.to_doc("crossed_module", cms[cm_name]))):
        for what, bad in drop_and_mistype(doc):
            path = store.put(f"bad-{kind}-{what}", bad)
            ops.append(cli_op(f"malformed/{kind}/{what}", ["check", kind, path], 2))
    group_doc = serialize.to_doc("group", cms[cm_name].top)
    for key in ("names", "table"):
        bad = {k: v for k, v in group_doc.items() if k != key}
        path = store.put(f"bad-group-drop-{key}", bad)
        ops.append(cli_op(f"malformed/group/drop-{key}", ["check", "group", path], 2))

    for n, (li, pi, k) in enumerate(rng.sample(fields, PIECE_PICKS)):
        for value, defect in ((99, DEFECT_INDEX_RANGE), (-1, DEFECT_NEGATIVE), ("x", None)):
            bad = copy.deepcopy(expr_doc)
            bad["layers"][li][pi][k] = value
            path = store.put(f"bad-piece-{n}-{value}", bad)
            ops.append(cli_op(f"malformed/piece-{value}/check/{n}",
                              ["check", "expression", path], 2, defect))
            ops.append(cli_op(f"malformed/piece-{value}/eval/{n}",
                              ["eval", "KC.CM-A3S3", path], 2, defect))

    bad_group = copy.deepcopy(group_doc)
    bad_group["table"][1][1] = "x"
    bad_cm = serialize.to_doc("crossed_module", cms["CM-A3S3"])
    bad_cm["top"]["table"][1][1] = "x"
    bad_alg = copy.deepcopy(docs[("Q", "KC.CM-A3S3")])
    bad_alg["crossed_module"] = bad_cm
    for kind, doc in (("group", bad_group), ("crossed-module", bad_cm), ("algebra", bad_alg)):
        path = store.put(f"bad-table-entry-{kind}", doc)
        ops.append(cli_op(f"malformed/table-entry/{kind}", ["check", kind, path], 2,
                          DEFECT_TABLE_ENTRY))
    ops.append(cli_op("malformed/field/check",
                      ["--field", "Fp:4", "check", "algebra", paths[("Q", "KP.CM-Mod")]],
                      2, DEFECT_FIELD))
    disc = store.put("expr-disc", serialize.to_doc(
        "expression", exprgen.build(cms["CM-Mod"], [], [[Disc(0)]])))
    ops.append(cli_op("malformed/field/eval", ["--field", "Fp:4", "eval", "KP.CM-Mod", disc],
                      2, DEFECT_FIELD))
    return ops


WORKLOADS = {
    "eval-small": eval_small,
    "eval-wide": eval_wide,
    "check-ladder": check_ladder,
    "cli-roundtrip": cli_roundtrip,
}
