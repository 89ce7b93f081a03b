"""Built-in fixture objects: the standard small groups, the four crossed
modules every suite runs on, and the derived algebras.

Each registry is built once and handed out as a read-only view, so no caller
can add, replace or remove an entry that every later caller would see."""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .algebras import (
    group_algebra_C,
    group_algebra_P,
    pullback,
    pushforward,
)
from .crossed_modules import (
    crossed_module,
    from_conjugation_aut,
    from_module,
    from_normal_inclusion,
    morphism,
    quotient_morphism,
)
from .fields import QQ
from .groups import (
    GroupAction,
    cyclic_group,
    symmetric_group_3,
    trivial_action,
    trivial_group,
    trivial_hom,
)


@lru_cache(maxsize=None)
def std_groups():
    return MappingProxyType({
        "triv": trivial_group(),
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "S3": symmetric_group_3(),
    })


A3 = (0, 4, 5)  # e, (123), (132) in the S3 element order


def inversion_action():
    z2, z3 = std_groups()["Z2"], std_groups()["Z3"]
    return GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))


@lru_cache(maxsize=None)
def std_crossed_modules():
    g = std_groups()
    cms = {
        "CM-Id2": from_normal_inclusion(g["Z2"], (0, 1), name="CM-Id2"),
        "CM-A3S3": from_normal_inclusion(g["S3"], A3, name="CM-A3S3"),
        "CM-Mod": from_module(g["Z3"], g["Z2"], inversion_action(), name="CM-Mod"),
        "CM-AutS3": from_conjugation_aut(g["S3"], name="CM-AutS3"),
    }
    return MappingProxyType(cms)


@lru_cache(maxsize=None)
def one_to_z2():
    """The crossed module (1 -> Z/2) with trivial structure."""
    one, z2 = trivial_group(), std_groups()["Z2"]
    return crossed_module("1->Z2", one, z2, trivial_hom(one, z2),
                          trivial_action(z2, one))


@lru_cache(maxsize=None)
def std_morphisms():
    cms = std_crossed_modules()
    mors = {f"q.{name}": quotient_morphism(cm) for name, cm in cms.items()}
    # the unique crossed-module morphism CM-Id2 -> (1 -> Z/2): both maps trivial
    src, tgt = cms["CM-Id2"], one_to_z2()
    mors["collapse.CM-Id2"] = morphism(src, tgt, trivial_hom(src.top, tgt.top),
                                       trivial_hom(src.base, tgt.base))
    return MappingProxyType(mors)


@lru_cache(maxsize=None)
def std_algebras(field=QQ):
    cms = std_crossed_modules()
    algebras = {}
    for name, cm in cms.items():
        algebras[f"KC.{name}"] = group_algebra_C(cm, field, name=f"KC.{name}")
        algebras[f"KP.{name}"] = group_algebra_P(cm, field, name=f"KP.{name}")
    q_a3s3 = std_morphisms()["q.CM-A3S3"]
    algebras["QKG.CM-A3S3"] = pullback(q_a3s3, group_algebra_P(q_a3s3.target, field),
                                       name="QKG.CM-A3S3")
    algebras["PUSH.CM-A3S3"] = pushforward(q_a3s3, algebras["KP.CM-A3S3"],
                                           name="PUSH.CM-A3S3")
    collapse = std_morphisms()["collapse.CM-Id2"]
    algebras["PUSH.CM-Id2"] = pushforward(collapse, algebras["KC.CM-Id2"],
                                          name="PUSH.CM-Id2")
    algebras["KQ.1Z2"] = group_algebra_P(one_to_z2(), field, name="KQ.1Z2")
    return MappingProxyType(algebras)


def fixture_algebra_names():
    """The algebras every exhaustive suite runs over."""
    return ["KC.CM-Id2", "KC.CM-A3S3", "KC.CM-Mod", "KC.CM-AutS3",
            "KP.CM-Id2", "KP.CM-A3S3", "KP.CM-Mod", "KP.CM-AutS3",
            "QKG.CM-A3S3", "PUSH.CM-A3S3", "PUSH.CM-Id2"]
