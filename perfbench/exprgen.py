"""Seeded generators of well-typed cobordism expressions.

Types are computed here from the group tables, not by the program, so the
generated inputs do not change when the evaluator does.
"""

from __future__ import annotations

import random

from crossmod.formal_maps import (
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
)


def piece_io(cm, piece):
    """(source labels, target labels) of one elementary piece."""
    P, d = cm.base, cm.d
    match piece:
        case Disc(c):
            return (), (d(c),)
        case Cyl(c, g, h):
            return (g,), (P.mul(d(c), P.product((P.inv[h], g, h))),)
        case Pants(c, g1, g2):
            return (g1, g2), (P.product((d(c), g1, g2)),)
        case Copants(g1, g2):
            return (P.mul(g1, g2),), (g1, g2)
        case Cup(g):
            return (), (g, P.inv[g])
        case Cap(g):
            return (g, P.inv[g]), ()
        case Id(g):
            return (g,), (g,)
        case Swap(g1, g2):
            return (g1, g2), (g2, g1)
    raise TypeError(f"not a piece: {piece!r}")


def build(cm, source, layers) -> CobordismExpression:
    """The expression with the given source labels and layers; its target is
    the concatenated targets of the last layer."""
    cur = tuple(source)
    for layer in layers:
        wanted = tuple(g for p in layer for g in piece_io(cm, p)[0])
        if wanted != cur:
            raise ValueError(f"ill-typed layer {layer!r}: needs {wanted}, has {cur}")
        cur = tuple(g for p in layer for g in piece_io(cm, p)[1])
    return CobordismExpression(cm, FormalBoundary.of(*[[g] for g in source]),
                               tuple(tuple(layer) for layer in layers),
                               FormalBoundary.of(*[[g] for g in cur]))


def labels(boundary: FormalBoundary) -> tuple[int, ...]:
    return tuple(c.labels[0] for c in boundary.circuits)


def compose(e1: CobordismExpression, e2: CobordismExpression) -> CobordismExpression:
    return CobordismExpression(e1.cm, e1.source, e1.layers + e2.layers, e2.target)


def random_layer(cm, rng: random.Random, cur, max_width: int, pool=None):
    """One random layer whose sources are `cur`, keeping width <= max_width.
    New circles are labeled from `pool` (default: the whole base group),
    which must be a normal subgroup containing the image of the boundary."""
    P, C = cm.base, cm.top
    pool = list(P.elements()) if pool is None else pool
    layer, width, i = [], 0, 0
    room = lambda extra: len(cur) - i + width + extra <= max_width
    if not cur:
        piece = Disc(rng.randrange(C.order)) if rng.random() < 0.5 \
            else Cup(rng.choice(pool))
        if room(len(piece_io(cm, piece)[1])):
            layer.append(piece)
            width += len(piece_io(cm, piece)[1])
    while i < len(cur):
        g = cur[i]
        roll = rng.random()
        if roll < 0.1 and room(2):
            layer.append(Disc(rng.randrange(C.order)))
            width += 1
        if i + 1 < len(cur) and roll < 0.4:
            g2 = cur[i + 1]
            choice = rng.random()
            if P.mul(g, g2) == 0 and choice < 0.3:
                piece = Cap(g)
            elif choice < 0.6:
                piece = Swap(g, g2)
            else:
                piece = Pants(rng.randrange(C.order), g, g2)
            i += 2
        else:
            if roll < 0.6 and room(2):
                g1 = rng.choice(pool)
                piece = Copants(g1, P.mul(P.inv[g1], g))
            elif roll < 0.85:
                piece = Cyl(rng.randrange(C.order), g, rng.randrange(P.order))
            else:
                piece = Id(g)
            i += 1
        layer.append(piece)
        width += len(piece_io(cm, piece)[1])
    return layer


def random_expression(cm, rng: random.Random, source, depth: int,
                      max_width: int, pool=None) -> CobordismExpression:
    cur, layers = tuple(source), []
    for _ in range(depth):
        layer = random_layer(cm, rng, cur, max_width, pool)
        layers.append(layer)
        cur = tuple(g for p in layer for g in piece_io(cm, p)[1])
    return build(cm, source, layers)


def closing_layers(cm, rng: random.Random, cur, pool=None):
    """Layers from `cur` to the empty boundary, or None when the product of
    the labels cannot be brought to the identity: pants merge the circles
    one pair per layer, and a copants followed by a cap closes the last."""
    P, C = cm.base, cm.top
    pool = list(P.elements()) if pool is None else pool
    cur, layers = list(cur), []
    while len(cur) > 1:
        c = rng.randrange(C.order)
        layers.append([Pants(c, cur[0], cur[1])] + [Id(g) for g in cur[2:]])
        cur = [P.product((cm.d(c), cur[0], cur[1]))] + cur[2:]
    if cur and cur[0] != 0:
        return None
    if cur:
        g = rng.choice(pool)
        layers += [[Copants(g, P.inv[g])], [Cap(g)]]
    return layers
