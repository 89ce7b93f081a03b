"""Finite crossed modules, crossed algebras over them, and the formal
two-dimensional field theory calculus they classify — with every axiom,
construction and identity exhaustively checkable on small instances."""

from .fields import GF, QQ
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHomomorphism,
    Section,
    TwoCocycle,
    automorphism_group,
    check_homomorphism,
    cocycle_from_section,
    cyclic_group,
    make_group,
    quotient_group,
    section,
    symmetric_group_3,
    trivial_group,
)
from .crossed_modules import (
    CrossedModule,
    CrossedModuleMorphism,
    check_crossed_module,
    from_conjugation_aut,
    from_module,
    from_normal_inclusion,
    kernel_and_image,
    quotient_morphism,
)
from .algebras import (
    CrossedAlgebraMorphism,
    CrossedCAlgebra,
    aut_square_check,
    check_boxed_identities,
    check_crossed_algebra,
    group_algebra_C,
    group_algebra_P,
    kp_iso_witness,
    pullback,
    pushforward,
    theta,
    transpose_from_pushforward,
    transpose_to_pullback,
)
from .formal_maps import (
    CobordismExpression,
    FormalBoundary,
    FormalCircuit,
    LabeledCell,
    SimplicialFormalMap,
    annulus_flatten,
    combine_triangles,
    compose_h,
    compose_v,
    typecheck,
    validate_simplicial,
)
from .hqft import (
    EvaluatedMap,
    FormalHQFT,
    check_equivalence_invariance,
    eval_expression,
    eval_piece,
    extract_algebra,
    make_hqft,
    state_space,
)

__version__ = "0.1.0"
