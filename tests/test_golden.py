"""Golden corpus: each section is a deterministic generator of items, and
the sha256 of their canonical JSON (`serialize.dumps`, one document per
item, concatenated) is pinned in `tests/golden/<section>.json`, together
with a 16-hex-digit digest of each item. On a mismatch the test names the
section and prints the first item whose digest differs, not only the hash.

A change that moves a section's digest must say which section and why;
never re-pin a digest to hide an unexplained change. After such a change,
`python tests/test_golden.py SECTION` (from the checkout root, with `src`
and `tests` on the path) rewrites the pinned file of SECTION.

Sections:
- `evaluator`: the matrices of seeded `hqft.random_expression`s on every
  fixture algebra over Q and GF(3), and on seeded gauge bases over Q.
- `pieces`: `hqft.eval_piece` of every piece of all eight kinds, each
  algebra on one fresh evaluator: every fixture algebra over Q and GF(3),
  the gauge bases of `evaluator`, and K[C](CM-Mod) with a zero pairing
  block at grade 0, whose refused pieces are items with their error text.
- `relations`: the reports of `hqft.check_relations` over `INVARIANCE` and
  `SNAKES` on every fixture algebra over Q and GF(3).
- `typecheck`: `formal_maps.typecheck` reports of seeded
  `hqft.random_expression`s on every fixture crossed module, and of each
  one-field edit of them (a piece field or boundary label set to -1, the
  group order, `True`, `"x"` or `None`; a piece replaced by `(0,)` or a
  `LabeledCell`; a layer dropped or repeated; a wrong declared target; a
  two-label boundary circuit); then `formal_maps.piece_io` of every piece of
  all eight kinds on every fixture crossed module, and its `TypeError` text
  on three non-pieces.
- `pushforward`: `algebras.pushforward_data` along `quotient_morphism` of
  every subgroup of Z/n (n <= PUSH_MAX_N) on K[P] and K[C] over Q and GF(3),
  along every fixture morphism on K[C] and K[P] of its source over Q, GF(2),
  GF(3) and GF(5), and on two inputs it refuses (a top map that is not onto,
  and a target grade outside the image whose action cannot be extended).
  Each item is the algebra, the dimension of each class's ideal and the
  blocks of `untranspose_to_pushforward` applied to the identity of the
  pushforward, which are the quotient maps; a refused input gives the
  error's type and text instead.
- `checkers`: the reports of `algebras.check_crossed_algebra`,
  `check_boxed_identities` and `aut_square_check` on every fixture algebra
  over Q, GF(2), GF(3) and GF(5), on the gauge bases of `evaluator`, on
  `test_checker_oracle.big_prime_basis` of each of them (common denominators
  above 2**64), and on one seeded single-entry corruption of each gauge
  basis, the corrupted map cycling through mul, unit, rho, phi and tilde.
- `mutants`: the `check_crossed_algebra` report of every one-scalar edit
  of the 12 fixture algebras over GF(3): each scalar of `mul`, `unit`,
  `rho`, `phi` and `tilde` in the algebra's document set to each other
  residue, the document (which names its crossed module) decoded by
  `serialize.from_doc`; 1,008 items, each
  the algebra, the JSON path, the new value and the report. Exactly three
  mutants pass (`test_three_mutants_pass`).
- `linalg`: `Matrix.inverse`, `solve` (a right-hand side in the column space
  and a seeded one), `nullspace` and a `RowSpace.add` sequence (each row,
  then a seeded vector) on seeded matrices over Q (entries with
  denominators 1 to 3), GF(2), GF(3) and GF(5): dense, sparse, rank
  deficient and (when square) invertible, in every shape of
  `LINALG_SHAPES`, among them singular, rectangular, 0xn and nx0 ones. A refusal (an inverse of a singular or
  non-square matrix, a right-hand side or vector of the wrong length) is an
  item's error type and text.
- `refusals`: `test_refusals.REFUSALS`, each refusal or failure path that
  only that module reaches, with its result: the exit code and JSON output
  of `crossmod check` on a file, an exception's type and text, or the value
  of a failing check.
- `automorphisms`: `groups.automorphism_group(G).standard_action.table`
  for twenty groups of order <= 12: Z/1 to Z/12, S3, (Z/2)^2, (Z/2)^3,
  Z/2 x Z/4, Z/2 x Z/6, S3 x Z/2, Z/3 x Z/3 and A4.
"""

import dataclasses
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from crossmod.algebras import (
    CrossedAlgebraMorphism,
    aut_square_check,
    check_boxed_identities,
    check_crossed_algebra,
    group_algebra_C,
    group_algebra_P,
    pushforward_data,
    untranspose_to_pushforward,
)
from crossmod.crossed_modules import (
    crossed_module,
    from_normal_inclusion,
    identity_morphism,
    morphism,
    quotient_morphism,
)
from crossmod.fields import GF, QQ
from crossmod.fixtures import one_to_z2, std_algebras, std_crossed_modules, std_morphisms
from crossmod.formal_maps import (
    FormalBoundary,
    FormalCircuit,
    LabeledCell,
    piece_io,
    typecheck,
)
from crossmod.groups import (
    automorphism_group,
    cyclic_group,
    identity_hom,
    symmetric_group_3,
    trivial_action,
    trivial_group,
    trivial_hom,
)
from crossmod.hqft import (
    INVARIANCE,
    SNAKES,
    FormalHQFT,
    check_relations,
    eval_expression,
    eval_piece,
    make_hqft,
    random_expression,
)
from crossmod.linalg import Matrix, RowSpace
from crossmod.serialize import Workspace, dumps, from_doc, to_doc
from test_checker_oracle import TARGETS, big_prime_basis, corrupt, gauge
from test_groups import _alternating_group_4, _direct_product
from test_hqft import ALL_KINDS, _every_piece, singular_pairing
from test_refusals import REFUSALS

GOLDEN = Path(__file__).resolve().parent / "golden"

# fixture algebras taken into seeded gauge bases over Q, one basis per
# entry: KC.CM-Mod, whose grade 0 has dim 3, gets three, for dense
# non-integral matrices of up to 27 rows
GAUGED = ("KC.CM-Mod", "KC.CM-Mod", "KC.CM-Mod", "KC.CM-A3S3", "KP.CM-A3S3", "QKG.CM-A3S3")


def _evaluations(L, rng, count):
    tau = make_hqft(L)
    for i in range(count):
        e = random_expression(tau, rng)
        doc = to_doc("expression", e)
        yield {"algebra": L.name, "field": L.field.to_json(), "index": i,
               "source": doc["source"], "layers": doc["layers"], "target": doc["target"],
               "matrix": eval_expression(tau, e).matrix.to_json()}


def _gauged():
    for k, name in enumerate(GAUGED):
        yield gauge(std_algebras(QQ)[name], random.Random(f"golden/gauge/{k}/{name}"))


def evaluator_items():
    for field in (QQ, GF(3)):
        for name, L in std_algebras(field).items():
            yield from _evaluations(L, random.Random(f"golden/{field.name}/{name}"), 20)
    for k, (name, G) in enumerate(zip(GAUGED, _gauged())):
        yield from _evaluations(G, random.Random(f"golden/gauge-expr/{k}/{name}"), 40)


def pieces_items():
    algebras = [L for field in (QQ, GF(3)) for L in std_algebras(field).values()]
    for L in [*algebras, *_gauged(), singular_pairing(std_algebras(QQ)["KC.CM-Mod"])]:
        tau = FormalHQFT(L)
        for kind in ALL_KINDS:
            for piece in _every_piece(L.cm, kind):
                item = {"algebra": L.name, "field": L.field.to_json(),
                        "piece": {"kind": kind.__name__, **dataclasses.asdict(piece)}}
                try:
                    item["matrix"] = eval_piece(tau, piece).to_json()
                except ValueError as exc:
                    item["error"] = str(exc)
                yield item


def relations_items():
    for field in (QQ, GF(3)):
        for name, L in std_algebras(field).items():
            yield check_relations(make_hqft(L), INVARIANCE + SNAKES,
                                  f"relations for {name} over {field.name}").to_json()


def _edits(e):
    """(name, expression) for each one-field edit of e named in the module
    docstring."""
    cm, n_base = e.cm, e.cm.base.order
    layers = e.layers
    for k, layer in enumerate(layers):
        for j, piece in enumerate(layer):
            def swapped(new):
                return dataclasses.replace(
                    e, layers=layers[:k] + (layer[:j] + (new,) + layer[j + 1:],) + layers[k + 1:])
            for name in type(piece).__match_args__:
                order = cm.top.order if name == "c" else n_base
                for value in (-1, order, True, "x", None):
                    yield (f"layer {k} piece {j} {name}={value!r}",
                           swapped(dataclasses.replace(piece, **{name: value})))
            for other in ((0,), LabeledCell(cm, 0, 0)):
                yield f"layer {k} piece {j} -> {other!r}", swapped(other)
        yield f"layer {k} dropped", dataclasses.replace(e, layers=layers[:k] + layers[k + 1:])
        yield f"layer {k} repeated", dataclasses.replace(e, layers=layers[:k + 1] + layers[k:])
    for side in ("source", "target"):
        circuits = getattr(e, side).circuits
        for i in range(len(circuits)):
            for value in (-1, n_base, True, "x", None):
                edited = circuits[:i] + (FormalCircuit((value,)),) + circuits[i + 1:]
                yield f"{side} {i}={value!r}", dataclasses.replace(e, **{side: FormalBoundary(edited)})
        two = FormalCircuit((1 % n_base, 0))
        yield (f"{side} with a two-label circuit",
               dataclasses.replace(e, **{side: FormalBoundary(circuits[1:] + (two,))}))
    yield "target with an extra circuit", dataclasses.replace(
        e, target=FormalBoundary(e.target.circuits + (FormalCircuit((0,)),)))
    if e.target.circuits:
        g = e.target.circuits[0].labels[0]
        yield "target 0 moved", dataclasses.replace(e, target=FormalBoundary(
            (FormalCircuit(((g + 1) % n_base,)),) + e.target.circuits[1:]))


def typecheck_items():
    for name in std_crossed_modules():
        rng = random.Random(f"golden/typecheck/{name}")
        tau = FormalHQFT(std_algebras(QQ)["KC." + name])
        for i in range(20):
            e = random_expression(tau, rng)
            for edit, edited in [("none", e), *_edits(e)]:
                yield {"crossed_module": name, "index": i, "edit": edit,
                       "report": typecheck(edited).to_json()}
    for name, cm in std_crossed_modules().items():
        for kind in ALL_KINDS:
            for piece in _every_piece(cm, kind):
                yield {"crossed_module": name,
                       "piece": {"kind": kind.__name__, **dataclasses.asdict(piece)},
                       "io": piece_io(piece, cm)}
        for not_a_piece in ((0,), None, LabeledCell(cm, 0, 0)):
            with pytest.raises(TypeError) as exc:
                piece_io(not_a_piece, cm)
            yield {"crossed_module": name, "piece": repr(not_a_piece), "error": str(exc.value)}


# the largest n whose subgroups of Z/n the `pushforward` section runs, so
# that the section takes about a second
PUSH_MAX_N = 12


def _refused_pushforward_inputs():
    """(name, morphism, source crossed module) of the two refused inputs:
    (1 -> Z/2) -> CM-Id2 with the identity on the base and the trivial top
    map, and (1 -> 1) -> (1 -> S3)."""
    one, s3 = trivial_group(), symmetric_group_3()
    id2, z2 = std_crossed_modules()["CM-Id2"], one_to_z2()
    yield ("(1->Z2)->CM-Id2",
           morphism(z2, id2, trivial_hom(one, id2.top), identity_hom(z2.base)), z2)
    point = crossed_module("1->1", one, one, trivial_hom(one, one), trivial_action(one, one))
    into_s3 = crossed_module("1->S3", one, s3, trivial_hom(one, s3), trivial_action(s3, one))
    yield ("(1->1)->(1->S3)",
           morphism(point, into_s3, trivial_hom(one, one), trivial_hom(one, s3)), point)


def _pushforward_inputs():
    """(name, morphism, source algebra) of every input named in the module
    docstring."""
    builds = {"KP": group_algebra_P, "KC": group_algebra_C}
    for n in range(1, PUSH_MAX_N + 1):
        for k in (k for k in range(1, n + 1) if n % k == 0):
            cm = from_normal_inclusion(cyclic_group(n), range(0, n, k))
            fmor = quotient_morphism(cm)
            for kind, build in builds.items():
                for field in (QQ, GF(3)):
                    yield f"{kind} of {k}Z/{n}", fmor, build(cm, field)
    for name, fmor in std_morphisms().items():
        for kind in builds:
            for field in (QQ, GF(2), GF(3), GF(5)):
                yield name, fmor, std_algebras(field)[f"{kind}.{fmor.source.name}"]
    for name, fmor, cm in _refused_pushforward_inputs():
        yield name, fmor, group_algebra_P(cm, QQ)


def pushforward_items():
    for name, fmor, L in _pushforward_inputs():
        item = {"input": name, "algebra": L.name, "field": L.field.to_json()}
        try:
            data = pushforward_data(fmor, L)
        except ValueError as exc:
            yield {**item, "error": type(exc).__name__, "text": str(exc)}
            continue
        fL = data.algebra
        ident = CrossedAlgebraMorphism(identity_morphism(fL.cm), fL, fL,
                                       {q: Matrix.identity(fL.field, d)
                                        for q, d in enumerate(fL.dims)})
        pis = untranspose_to_pushforward(ident, data).blocks
        yield {**item, "pushforward": to_doc("algebra", fL),
               "ideal_dims": [data.spans[q].dim for q in fL.P.elements()],
               "pis": [pis[p].to_json() for p in L.P.elements()]}


def _checker_inputs():
    """Every algebra named for the `checkers` section in the module docstring."""
    for field in (QQ, GF(2), GF(3), GF(5)):
        yield from std_algebras(field).values()
    gauged = list(_gauged())
    yield from gauged
    yield from map(big_prime_basis, gauged)
    for k, (name, G) in enumerate(zip(GAUGED, gauged)):
        yield corrupt(G, random.Random(f"golden/corrupt/{k}/{name}"), TARGETS[k % len(TARGETS)])


def checkers_items():
    for L in _checker_inputs():
        yield {"algebra": L.name, "field": L.field.to_json(),
               "reports": [check(L).to_json() for check in
                           (check_crossed_algebra, check_boxed_identities, aut_square_check)]}


def _scalar_paths(node, path):
    """The JSON path of every scalar under node, a list nested to any depth
    or an object of such lists, in document order."""
    if isinstance(node, str):
        yield path
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from _scalar_paths(child, (*path, key))


@functools.lru_cache(maxsize=None)
def _mutants():
    """The items of the `mutants` section, built once per process. Each
    document names its crossed module, which the workspace holds, so only
    the algebra is decoded per mutant."""
    field, ws, items = GF(3), Workspace(), []
    for L in std_algebras(field).values():
        ws.add(L.cm.name, "crossed_module", L.cm)
        doc = {**to_doc("algebra", L), "crossed_module": L.cm.name}
        for part in ("mul", "unit", "rho", "phi", "tilde"):
            for path in _scalar_paths(doc[part], (part,)):
                *head, last = path
                node = doc
                for key in head:
                    node = node[key]
                old = node[last]
                for x in range(field.p):
                    value = field.format(field.of(x))
                    if value == old:
                        continue
                    node[last] = value
                    report = check_crossed_algebra(from_doc(doc, ws, "algebra")[2])
                    items.append({"algebra": L.name, "path": list(path), "value": value,
                                  "report": report.to_json()})
                node[last] = old
    return tuple(items)


def mutants_items():
    return iter(_mutants())


# (rows, cols) of the `linalg` section's matrices
LINALG_SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (4, 4),
                 (2, 5), (5, 2), (3, 4), (4, 3))


def _scalar(f, rng):
    if f == QQ:
        return f.div(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    return f.of(rng.randrange(f.p))


def _matrices(f, rng, rows, cols):
    """(kind, matrix): dense, sparse (about two entries in three zero), of
    rank below min(rows, cols) as a product through a narrower middle, and,
    when square, invertible as a unit lower triangular times an upper
    triangular matrix with a nonzero diagonal."""
    yield "dense", Matrix(f, [[_scalar(f, rng) for _ in range(cols)] for _ in range(rows)],
                          cols=cols)
    yield "sparse", Matrix(f, [[_scalar(f, rng) if rng.random() < 0.35 else 0
                                for _ in range(cols)] for _ in range(rows)], cols=cols)
    if min(rows, cols) > 0:
        r = rng.randrange(min(rows, cols))
        left = Matrix(f, [[_scalar(f, rng) for _ in range(r)] for _ in range(rows)], cols=r)
        right = Matrix(f, [[_scalar(f, rng) for _ in range(cols)] for _ in range(r)], cols=cols)
        yield f"rank<={r}", left @ right
    if rows == cols:
        lower = Matrix(f, [[f.one if i == j else _scalar(f, rng) if j < i else 0
                            for j in range(cols)] for i in range(rows)], cols=cols)
        upper = Matrix(f, [[_nonzero(f, rng) if i == j else _scalar(f, rng) if j > i else 0
                            for j in range(cols)] for i in range(rows)], cols=cols)
        yield "invertible", lower @ upper


def _nonzero(f, rng):
    while not (x := _scalar(f, rng)):
        pass
    return x


def _refused(call, *args):
    """call(*args), or the type and text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return {"error": type(exc).__name__, "text": str(exc)}


def _vector(f, vec):
    return None if vec is None else [f.format(x) for x in vec]


def linalg_inputs(f):
    """(kind, matrix, right-hand sides, vectors) of the `linalg` section
    over f: the right-hand sides of `solve` are one in the column space, a
    seeded one and one of the wrong length, and the vectors that `RowSpace.add`
    takes in turn are the rows, a seeded vector and one of the wrong length."""
    rng = random.Random(f"golden/linalg/{f.name}")
    for rows, cols in LINALG_SHAPES:
        for kind, m in _matrices(f, rng, rows, cols):
            x = [_scalar(f, rng) for _ in range(cols)]
            rhs = [m.apply(x), [_scalar(f, rng) for _ in range(rows)], [f.one] * (rows + 1)]
            vecs = [*m.data, [_scalar(f, rng) for _ in range(cols)], [f.one] * (cols + 1)]
            yield kind, m, rhs, vecs


def linalg_items():
    for f in (QQ, GF(2), GF(3), GF(5)):
        for kind, m, rhs, vecs in linalg_inputs(f):
            space, added = RowSpace(f, m.cols), []
            for vec in vecs:
                grew = _refused(space.add, vec)
                added.append({"added": grew, "basis": [_vector(f, row) for row in space.basis],
                              "pivots": space.pivots})
            yield {"field": f.to_json(), "shape": [m.rows, m.cols], "kind": kind,
                   "matrix": m.to_json(),
                   "inverse": _refused(lambda: m.inverse().to_json()),
                   "solve": [_refused(lambda b: _vector(f, m.solve(b)), b) for b in rhs],
                   "nullspace": [_vector(f, vec) for vec in m.nullspace()],
                   "rowspace": added}


def refusals_items():
    for name, call, _ in REFUSALS:
        yield {"input": name, "result": call()}


def _aut_groups():
    """(name, group) of the `automorphisms` section."""
    z, s3, x = cyclic_group, symmetric_group_3(), _direct_product
    yield from ((f"Z/{n}", z(n)) for n in range(1, 13))
    yield from [("S3", s3), ("(Z/2)^2", x(z(2), z(2))), ("(Z/2)^3", x(x(z(2), z(2)), z(2))),
                ("Z/2xZ/4", x(z(2), z(4))), ("Z/2xZ/6", x(z(2), z(6))), ("S3xZ/2", x(s3, z(2))),
                ("Z/3xZ/3", x(z(3), z(3))), ("A4", _alternating_group_4())]


def automorphisms_items():
    for name, g in _aut_groups():
        yield {"group": name, "order": g.order,
               "table": automorphism_group(g).standard_action.table}


SECTIONS = {"evaluator": evaluator_items, "pieces": pieces_items, "relations": relations_items,
            "typecheck": typecheck_items, "pushforward": pushforward_items,
            "checkers": checkers_items, "mutants": mutants_items, "linalg": linalg_items, "refusals": refusals_items,
            "automorphisms": automorphisms_items}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(section):
    """The section's sha256, its items' JSON texts and their short digests."""
    texts = [dumps(item) for item in SECTIONS[section]()]
    return _sha256("".join(texts)), texts, [_sha256(text)[:16] for text in texts]


@pytest.mark.parametrize("section", SECTIONS)
def test_golden_section(section):
    pinned = json.loads((GOLDEN / f"{section}.json").read_text())
    digest, texts, items = _digests(section)
    if digest == pinned["sha256"]:
        return
    for i, (got, want) in enumerate(zip(items, pinned["items"])):
        if got != want:
            pytest.fail(f"golden section {section!r}: item {i} differs from its pinned digest "
                        f"{want}; it is now\n{texts[i]}")
    pytest.fail(f"golden section {section!r}: {len(items)} items where "
                f"{len(pinned['items'])} are pinned")


def test_three_mutants_pass():
    """Of the 1,008 one-scalar edits of the fixture algebras over GF(3),
    exactly three still pass: tilde(1) = 2 e_1 on KC.CM-Id2 and KP.CM-Id2,
    and rho_0 = [2] on PUSH.CM-Id2."""
    items = _mutants()
    assert len(items) == 1008
    passing = [(item["algebra"], item["path"], item["value"]) for item in items
               if item["report"]["ok"]]
    assert passing == [("KC.CM-Id2", ["tilde", "1", 0], "2 mod 3"),
                       ("KP.CM-Id2", ["tilde", "1", 0], "2 mod 3"),
                       ("PUSH.CM-Id2", ["rho", "0", 0, 0], "2 mod 3")]


def pin(section):
    digest, _, items = _digests(section)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{section}.json").write_text(
        dumps({"section": section, "sha256": digest, "items": items}))


if __name__ == "__main__":
    for name in sys.argv[1:]:
        pin(name)
