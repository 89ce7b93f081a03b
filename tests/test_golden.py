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
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from crossmod.fields import GF, QQ
from crossmod.fixtures import std_algebras, std_crossed_modules
from crossmod.formal_maps import (
    FormalBoundary,
    FormalCircuit,
    LabeledCell,
    piece_io,
    typecheck,
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
from crossmod.serialize import dumps, to_doc
from test_checker_oracle import gauge
from test_hqft import ALL_KINDS, _every_piece, singular_pairing

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


SECTIONS = {"evaluator": evaluator_items, "pieces": pieces_items, "relations": relations_items,
            "typecheck": typecheck_items}


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


def pin(section):
    digest, _, items = _digests(section)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{section}.json").write_text(
        dumps({"section": section, "sha256": digest, "items": items}))


if __name__ == "__main__":
    for name in sys.argv[1:]:
        pin(name)
