import dataclasses
import itertools
import random

import pytest

from crossmod import algebras as algebras_module
from crossmod import fixtures
from crossmod.algebras import (
    CrossedAlgebraMorphism,
    CrossedCAlgebra,
    aut_square_check,
    check_algebra_morphism,
    check_boxed_identities,
    check_crossed_algebra,
    enumerate_algebra_morphisms,
    group_algebra_C,
    group_algebra_P,
    is_isomorphism,
    kp_iso_witness,
    morphisms_equal,
    pullback,
    pushforward,
    pushforward_data,
    pushforward_ideal,
    RhoIllDefined,
    same_structure,
    theta,
    transpose_from_pushforward,
    transpose_to_pullback,
    untranspose_from_pullback,
    untranspose_to_pushforward,
)
from crossmod.crossed_modules import (
    check_morphism,
    crossed_module,
    from_normal_inclusion,
    identity_morphism,
    morphism,
    quotient_morphism,
)
from crossmod.fields import GF, QQ
from crossmod.fixtures import fixture_algebra_names, std_algebras, std_morphisms
from crossmod.formal_maps import Disc, Pants
from crossmod.groups import (
    GroupHomomorphism,
    cyclic_group,
    trivial_action,
    trivial_group,
    trivial_hom,
)
from crossmod.hqft import eval_piece, make_hqft
from crossmod.linalg import Matrix, SingularMatrixError, unit_vector
from test_checker_oracle import (
    FIELDS,
    gauge_pushforward_inputs,
    random_algebra,
    torus_traces,
    uneven_module,
)
from test_golden import _refused_pushforward_inputs


def test_group_algebra_C_dims(cms):
    # dim L_p = |ker d| * [p in dC], against the direct count
    for cm in cms.values():
        L = group_algebra_C(cm, QQ)
        ker = sum(1 for c in cm.top.elements() if cm.d(c) == 0)
        image = set(cm.boundary.map)
        for p in cm.base.elements():
            count = sum(1 for c in cm.top.elements() if cm.d(c) == p)
            assert L.dims[p] == count == (ker if p in image else 0)


def test_group_algebra_dims_examples(algebras):
    assert algebras["KC.CM-Id2"].dims == (1, 1)
    assert algebras["KC.CM-A3S3"].total_dim == 3
    assert algebras["KC.CM-Mod"].dims == (3, 0)
    assert algebras["KP.CM-A3S3"].dims == (1,) * 6
    assert algebras["QKG.CM-A3S3"].dims == (1,) * 6


def test_all_fixture_algebras_pass_checker(algebras):
    for name in fixture_algebra_names():
        assert check_crossed_algebra(algebras[name]).ok, name


def test_kp_tilde_values(cms):
    # tilde(c) = e_{d(c)}: in the one-dimensional grade convention just 1
    L = group_algebra_P(cms["CM-Id2"], QQ)
    assert L.tilde[1] == (QQ.one,)
    assert L.total_dim == 2


def test_kc_tilde_is_own_basis_vector(cms):
    cm = cms["CM-A3S3"]
    L = group_algebra_C(cm, QQ)
    for c in cm.top.elements():
        vec = L.tilde[c]
        assert sum(1 for x in vec if x != 0) == 1
        assert L.basis_names[cm.d(c)][vec.index(QQ.one)] == f"e_{cm.top.names[c]}"


def test_mutated_tilde_fails_checker(cms):
    # sigma-tilde must lie in (and generate) its own grade
    L = group_algebra_P(cms["CM-Id2"], QQ)
    L.tilde = (L.tilde[0], (QQ.zero,))
    report = check_crossed_algebra(L)
    assert not report.ok
    assert any(not r.ok and r.axiom.startswith("tilde") for r in report.results)


def test_theta_examples(cms):
    cm = cms["CM-Id2"]
    L = group_algebra_C(cm, QQ)
    for g in cm.base.elements():
        assert theta(L, 0, g) == Matrix.identity(QQ, 1)
    # theta(sigma, 1): e_1 |-> e_sigma, a 1x1 identity block between grades
    assert theta(L, 1, 0) == Matrix(QQ, [[1]])
    # composition law, exhaustively
    P, C = cm.base, cm.top
    for c2 in C.elements():
        for c in C.elements():
            for g in P.elements():
                assert theta(L, C.mul(c2, c), g) == \
                    theta(L, c2, P.mul(cm.d(c), g)) @ theta(L, c, g)


def test_theta_invertible_everywhere(algebras):
    for name in fixture_algebra_names():
        L = algebras[name]
        for c in L.C.elements():
            for g in L.P.elements():
                m = theta(L, c, g)
                assert m @ m.inverse() == Matrix.identity(L.field, m.rows)


def test_theta_singular_on_broken_algebra(cms):
    L = group_algebra_C(cms["CM-Id2"], QQ)
    L.tilde = (L.tilde[0], (QQ.zero,))
    with pytest.raises(SingularMatrixError):
        theta(L, 1, 0).inverse()


def test_torus_traces_examples(algebras):
    L = algebras["KP.CM-A3S3"]
    P = L.P
    g, h = P.names.index("(12)"), P.names.index("(13)")
    assert torus_traces(L, g, h, unit_vector(QQ, 1, 0)) == (QQ.one, QQ.one)  # 1x1 by hand
    # zero vector gives zero traces
    assert torus_traces(L, g, h, (QQ.zero,)) == (QQ.zero, QQ.zero)
    # g = h makes both maps literally coincide
    t1, t2 = torus_traces(L, g, g, unit_vector(QQ, 1, 0))
    assert t1 == t2


def test_torus_traces_agree_on_all_pairs(algebras):
    for name in ("KP.CM-A3S3", "QKG.CM-A3S3"):
        L = algebras[name]
        P = L.P
        for g in P.elements():
            for h in P.elements():
                comm = P.commutator(g, h)
                if 0 in (L.dims[g], L.dims[h], L.dims[comm]):
                    continue
                for i in range(L.dims[comm]):
                    t1, t2 = torus_traces(L, g, h, unit_vector(QQ, L.dims[comm], i))
                    assert t1 == t2


@pytest.mark.parametrize("registry", ["std_groups", "std_crossed_modules",
                                      "std_morphisms", "std_algebras"])
def test_fixture_registries_are_read_only(registry):
    get = getattr(fixtures, registry)
    keys = list(get())
    with pytest.raises(TypeError):
        get()["x"] = 1
    with pytest.raises(TypeError):
        del get()[keys[0]]
    assert list(get()) == keys


@pytest.mark.parametrize("basis_names, error", [
    ([["a"], []], "basis_names(0): 1 names for dim 3"),
    ([["a", "b", "a"], []], "basis_names(0): duplicate names"),
    ([["a", "b", "c"]], "basis_names: one name tuple per base element required"),
], ids=["basis_names0", "basis_names1", "basis_names2"])
def test_bad_basis_names_are_a_well_formed_fault(algebras, basis_names, error):
    L = algebras["KC.CM-Mod"]  # dims (3, 0)
    with pytest.raises(ValueError) as exc:
        CrossedCAlgebra(L.name, L.cm, L.field, L.dims, basis_names, L.mul,
                        L.unit, L.rho, L.phi, L.tilde)
    assert str(exc.value) == error


def test_algebra_stores_canonical_scalars():
    """An algebra given unreduced entries (every mul, unit and tilde entry
    plus 3, over GF(3)) stores them reduced: it is the same algebra, passes
    the checker and evaluates to the same matrices."""
    f = GF(3)
    L = std_algebras(f)["KP.CM-Id2"]
    shifted = CrossedCAlgebra(
        L.name, L.cm, f, L.dims, L.basis_names,
        {key: [[[x + 3 for x in cell] for cell in row] for row in block]
         for key, block in L.mul.items()},
        [x + 3 for x in L.unit], L.rho, L.phi, [[x + 3 for x in v] for v in L.tilde])
    assert check_crossed_algebra(shifted).ok
    assert same_structure(shifted, L)
    tau, tau_shifted = make_hqft(L), make_hqft(shifted)
    for piece in (Pants(0, 0, 0), Disc(0)):
        assert eval_piece(tau_shifted, piece) == eval_piece(tau, piece), piece


@pytest.mark.parametrize("checker", [check_boxed_identities, aut_square_check])
def test_malformed_algebra_fails_well_formed_alone(algebras, checker):
    """A malformed algebra never reaches a checker: the constructor refuses
    KC.CM-Mod with one tilde vector, or with one extra unit entry, and names
    the fault as "<where>: <what>"."""
    L = algebras["KC.CM-Mod"]
    for unit, tilde, error in [(L.unit, L.tilde[:1], "tilde: one vector per top element required"),
                               (L.unit + (L.field.zero,), L.tilde, "unit: wrong length")]:
        with pytest.raises(ValueError) as exc:
            checker(CrossedCAlgebra(L.name, L.cm, L.field, L.dims, L.basis_names, L.mul,
                                    unit, L.rho, L.phi, tilde))
        assert str(exc.value) == error


def test_boxed_identities_all_fixtures(algebras):
    for name in ["KC.CM-A3S3", "KP.CM-A3S3", "QKG.CM-A3S3", "PUSH.CM-A3S3"]:
        assert check_boxed_identities(algebras[name]).ok, name


def test_boxed_identities_detect_phi_mutation(algebras):
    L = algebras["KP.CM-A3S3"]
    phi = dict(L.phi)
    phi[(1, 4)] = Matrix(QQ, [[QQ.of(2)]])
    from crossmod.algebras import CrossedCAlgebra
    mutated = CrossedCAlgebra("mut", L.cm, QQ, L.dims, L.basis_names, L.mul,
                              L.unit, L.rho, phi, L.tilde)
    report = check_boxed_identities(mutated)
    fam4 = next(r for r in report.results if r.axiom == "theta_phi")
    assert not fam4.ok


def test_aut_square_all_fixtures(algebras):
    for name in fixture_algebra_names():
        assert aut_square_check(algebras[name]).ok, name


def test_aut_square_delta_is_conjugation(algebras):
    # delta(tilde c) acts as e_c (-) e_{c^-1} and equals phi_{d(c)} on every
    # basis vector
    L = algebras["KC.CM-A3S3"]
    cm = L.cm
    for c in cm.top.elements():
        cinv = cm.top.inv[c]
        for g in cm.base.elements():
            dcg = cm.base.mul(cm.d(c), g)
            for i in range(L.dims[g]):
                x = unit_vector(L.field, L.dims[g], i)
                conj = L.multiply(dcg, L.multiply(cm.d(c), L.tilde[c], g, x),
                                  cm.d(cinv), L.tilde[cinv])
                assert conj == L.phi[(cm.d(c), g)].apply(x)


@pytest.mark.parametrize("fname", list(FIELDS))
def test_boxed_and_square_checks_call_no_combine_on_group_bases(monkeypatch, fname):
    """In a group basis every tilde(c), basis product and action image is one
    basis vector with value 1, so the boxed identities and the units square
    read every product off the stored tables and call `combine` not once:
    on K[C] of Z/12 over the trivial group, KC.CM-A3S3 and KP.CM-AutS3."""
    field = FIELDS[fname]
    z, one = cyclic_group(12), trivial_group()
    cm = crossed_module("Z12/1", z, one, trivial_hom(z, one), trivial_action(one, z))
    algs = std_algebras(field)
    cases = [group_algebra_C(cm, field), algs["KC.CM-A3S3"], algs["KP.CM-AutS3"]]
    calls = []
    combine = type(field).combine

    def counted(self, n, terms):
        calls.append(n)
        return combine(self, n, terms)

    monkeypatch.setattr(type(field), "combine", counted)
    for L in cases:
        for checker in (check_boxed_identities, aut_square_check):
            assert checker(L).ok, (L.name, checker.__name__)
            assert calls == [], (L.name, checker.__name__, len(calls))


@pytest.mark.parametrize("fname", list(FIELDS))
def test_basis_products_and_theta_call_no_combine_on_group_bases(monkeypatch, fname):
    """In a group basis a product of two basis vectors is one stored cell and
    each tilde(c) is a basis vector with value 1, so multiply(g, e_i, h, e_j)
    and theta(c, g) read stored cells and call `combine` not once: on
    KC.CM-A3S3 and KP.CM-AutS3."""
    field = FIELDS[fname]
    algs = std_algebras(field)
    cases = [algs["KC.CM-A3S3"], algs["KP.CM-AutS3"]]
    calls = []
    combine = type(field).combine

    def counted(self, n, terms):
        calls.append(n)
        return combine(self, n, terms)

    monkeypatch.setattr(type(field), "combine", counted)
    for L in cases:
        P, dims = L.P, L.dims
        units = [[unit_vector(field, n, i) for i in range(n)] for n in dims]
        for g, h in itertools.product(P.elements(), repeat=2):
            for (i, x), (j, y) in itertools.product(enumerate(units[g]), enumerate(units[h])):
                assert L.multiply(g, x, h, y) == tuple(L.mul[(g, h)][i][j])
        for c in L.C.elements():
            dc = L.cm.d(c)
            for g in P.elements():
                cols = [L.mul[(dc, g)][L.tilde[c].index(1)][j] for j in range(dims[g])]
                assert theta(L, c, g) == Matrix.from_columns(field, cols, dims[P.mul(dc, g)])
        assert calls == [], (L.name, len(calls))


def test_tilde_units_property(algebras):
    for name in fixture_algebra_names():
        L = algebras[name]
        for c in L.C.elements():
            cinv = L.C.inv[c]
            assert L.multiply(L.cm.d(c), L.tilde[c], L.cm.d(cinv), L.tilde[cinv]) == L.unit


# --- pullback ---------------------------------------------------------------

def test_pullback_along_identity_is_copy(algebras):
    L = algebras["KP.CM-A3S3"]
    copied = pullback(identity_morphism(L.cm), L)
    assert same_structure(copied, L)
    assert check_crossed_algebra(copied).ok


def test_pullback_of_quotient_group_algebra(cms):
    # q*(K[G]) for CM-A3S3: one copy of the 1-dim grade per base element
    witness = kp_iso_witness(cms["CM-A3S3"], QQ)
    pulled = witness.target
    assert pulled.dims == (1,) * 6
    assert check_crossed_algebra(pulled).ok


def test_pullback_of_ground_field_along_collapse(cms):
    # collapsing everything: each grade picks up a copy of the target's L_1
    cm = cms["CM-A3S3"]
    one = trivial_group()
    from crossmod.crossed_modules import crossed_module, morphism
    point = crossed_module("point", one, one, trivial_hom(one, one),
                           trivial_action(one, one))
    collapse = morphism(cm, point, trivial_hom(cm.top, one), trivial_hom(cm.base, one))
    base_field = group_algebra_P(point, QQ)
    pulled = pullback(collapse, base_field)
    assert pulled.dims == (1,) * 6
    assert check_crossed_algebra(pulled).ok
    # every product multiplies the single generators: group-ring shaped
    for g in cm.base.elements():
        for h in cm.base.elements():
            assert pulled.mul[(g, h)] == base_field.mul[(0, 0)]


def test_kp_iso_witness(cms):
    # CM-Id2: N = Z/2, G trivial: isomorphism of 2-dim algebras
    w = kp_iso_witness(cms["CM-Id2"], QQ)
    assert w.source.total_dim == w.target.total_dim == 2
    assert check_algebra_morphism(w).ok and is_isomorphism(w)
    # CM-A3S3: the 6-dim case incl. all 36 cocycle-law products
    w = kp_iso_witness(cms["CM-A3S3"], QQ)
    assert w.source.total_dim == 6
    assert check_algebra_morphism(w).ok and is_isomorphism(w)


def test_algebra_morphism_over_a_failing_morphism_fails(algebras, cms):
    """Identity blocks on KP.CM-Id2 over f_top = [0, 0], f_base = [0, 1]:
    every algebra family would pass, but the crossed-module square does not
    commute, so the report stops after the morphism's own families."""
    L = algebras["KP.CM-Id2"]
    blocks = {p: Matrix.identity(QQ, L.dims[p]) for p in L.P.elements()}
    good = identity_morphism(L.cm)
    over = dataclasses.replace(good, f_top=trivial_hom(L.C, L.C))
    rep = check_algebra_morphism(CrossedAlgebraMorphism(over, L, L, blocks))
    assert not rep.ok and rep.first_failure().axiom == "square_commutes"
    assert rep.first_failure().instance == "c=1"
    assert "block_shapes" not in [r.axiom for r in rep.results]
    rep = check_algebra_morphism(CrossedAlgebraMorphism(good, L, L, blocks))
    assert rep.ok
    assert [r.axiom for r in rep.results][-8:] == [
        "square_commutes", "action_equivariant", "block_shapes", "unit_preserved",
        "multiplicative", "rho_preserved", "phi_compatible", "tilde_compatible"]
    for cm in cms.values():
        assert check_algebra_morphism(kp_iso_witness(cm, QQ)).ok, cm.name


@pytest.mark.parametrize("block, failures", [
    ([[2]], [("multiplicative", "(e_(12),e_(12))"), ("rho_preserved", "g=(12)"),
             ("phi_compatible", "(h=(13),g=(12))")]),
    ([[1, 0]], [("block_shapes", "p=(12)")]),
], ids=["scaled", "wrong_shape"])
def test_algebra_morphism_block_families(algebras, block, failures):
    """Identity blocks on KP.CM-A3S3 over its identity, except the block of
    (12): scaled by 2 it breaks the products, the pairing and the action
    through (12); a 1x2 block fails its shape alone."""
    L = algebras["KP.CM-A3S3"]
    blocks = {p: Matrix.identity(QQ, 1) for p in L.P.elements()}
    blocks[1] = Matrix(QQ, block, cols=len(block[0]))
    rep = check_algebra_morphism(CrossedAlgebraMorphism(identity_morphism(L.cm), L, L, blocks))
    assert [(r.axiom, r.instance) for r in rep.results if not r.ok] == failures


def test_kp_iso_split_section_trivial_cocycle(cms):
    # the default section for CM-A3S3 is a homomorphism, so f is identically 1
    from crossmod.groups import cocycle_from_section, section
    m = quotient_morphism(cms["CM-A3S3"])
    coc = cocycle_from_section(section(m.f_base))
    assert all(v == 0 for row in coc.values for v in row)


# --- pushforward ------------------------------------------------------------

def test_pushforward_along_identity(algebras):
    L = algebras["KP.CM-A3S3"]
    data = pushforward_data(identity_morphism(L.cm), L)
    assert all(data.spans[q].dim == 0 for q in L.P.elements())
    assert same_structure(data.algebra, L)


def test_pushforward_of_ks3(algebras, cms):
    q = std_morphisms()["q.CM-A3S3"]
    data = pushforward_data(q, algebras["KP.CM-A3S3"])
    assert data.algebra.dims == (1, 1)
    assert check_crossed_algebra(data.algebra).ok
    # conjugacy-class directions collapse: ideal is 2-dimensional per class
    assert data.spans[0].dim == 2 and data.spans[1].dim == 2


def _sign_morphism(groups):
    """(1 -> S3) -> (1 -> Z/2), the sign map on the base groups."""
    one, s3 = trivial_group(), groups["S3"]
    src = crossed_module("1->S3", one, s3, trivial_hom(one, s3), trivial_action(s3, one))
    tgt = fixtures.one_to_z2()
    return morphism(src, tgt, trivial_hom(one, one),
                    GroupHomomorphism(s3, tgt.base, (0, 1, 1, 1, 0, 0)))


def test_pushforward_ideal_closure_oracle(algebras, groups):
    # independent oracle: iterate products of generators with all basis
    # vectors until the span is stable, with plain fraction elimination.
    # Over the sign morphism the generators span only the odd class
    # (differences of transpositions); their products reach the even class.
    from crossmod.verify import _naive_ideal_dims
    sign = _sign_morphism(groups)
    for q, L in ((std_morphisms()["q.CM-A3S3"], algebras["KP.CM-A3S3"]),
                 (sign, group_algebra_P(sign.source, QQ))):
        _, spans = pushforward_ideal(q, L)
        oracle = _naive_ideal_dims(q, L)
        for qq in q.target.base.elements():
            assert spans[qq].dim == oracle[qq]
    assert oracle == {0: 2, 1: 2}
    assert pushforward(sign, L).dims == (1, 1)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("case", ["PUSH.CM-A3S3", "PUSH.CM-Id2", "sign"])
def test_pushforward_pairing_oracle(groups, field, case):
    """rho'(pi a, pi b) == rho_p(a, b) for every grade p and all basis
    vectors a of L_p and b of L_{p^-1}, by plain loops: pi(e_i) is the
    residue of e_i in its class block modulo the reduced rows of the ideal,
    read at the free columns, and rho' is applied entry by entry."""
    if case == "sign":
        fmor = _sign_morphism(groups)
        L = group_algebra_P(fmor.source, field)
    else:
        fmor, name = {"PUSH.CM-A3S3": ("q.CM-A3S3", "KP.CM-A3S3"),
                      "PUSH.CM-Id2": ("collapse.CM-Id2", "KC.CM-Id2")}[case]
        fmor, L = std_morphisms()[fmor], std_algebras(field)[name]
    data = pushforward_data(fmor, L)
    fL, f0 = data.algebra, fmor.f_base.map

    def pi(p, i):
        q = f0[p]
        span, grades = data.spans[q], data.members[q]
        vec = [field.zero] * span.n
        vec[sum(L.dims[r] for r in grades[:grades.index(p)]) + i] = field.one
        for row, pivot in zip(span.basis, span.pivots):
            c = vec[pivot]
            vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, row)]
        return tuple(x for j, x in enumerate(vec) if j not in span.pivots)

    checked = 0
    for p in L.P.elements():
        pinv, q = L.P.inv[p], f0[p]
        assert data.pis[p] == Matrix.from_columns(
            field, [pi(p, i) for i in range(L.dims[p])], fL.dims[q])
        for i in range(L.dims[p]):
            for j in range(L.dims[pinv]):
                a, b = pi(p, i), pi(pinv, j)
                value = field.zero
                for k in range(fL.dims[q]):
                    for l in range(fL.dims[fmor.target.base.inv[q]]):
                        value = field.add(value, field.mul(field.mul(a[k], fL.rho[q].data[k][l]),
                                                           b[l]))
                assert value == L.rho[p].data[i][j], (p, i, j)
                checked += 1
    assert checked == sum(L.dims[p] * L.dims[L.P.inv[p]] for p in L.P.elements()) > 0


@pytest.mark.parametrize("fname", list(FIELDS))
def test_pushforward_free_basis_is_the_quotient_basis(fname):
    """Quotient basis vector k of class q is the class of e_i in L_p, with
    (p, i) the k-th pair of `data.free[q]`: column i of pi_p is unit vector
    k, on the fixture pushforwards' inputs and on two in gauge bases."""
    field = FIELDS[fname]
    mors, algs = std_morphisms(), std_algebras(field)
    cases = {"PUSH.CM-A3S3": (mors["q.CM-A3S3"], algs["KP.CM-A3S3"]),
             "PUSH.CM-Id2": (mors["collapse.CM-Id2"], algs["KC.CM-Id2"]),
             **gauge_pushforward_inputs(fname)}
    dims = {}
    for name, (fmor, L) in cases.items():
        data = pushforward_data(fmor, L)
        dims[name] = data.algebra.dims
        for q in fmor.target.base.elements():
            free = data.free[q]
            assert len(free) == dims[name][q], (name, q)
            for k, (p, i) in enumerate(free):
                assert tuple(row[i] for row in data.pis[p].data) == unit_vector(field, len(free), k)
    assert dims["push-id"] == (2, 0, 2, 0)


def test_pushforward_cm_mod_ideal_dims_and_ill_defined_rho(algebras, cms):
    # all tilde(b) - 1 generate: quotient identity grade is one-dimensional,
    # but no pairing is preserved by the quotient map (rho(e_0,e_0)=1 vs
    # rho(e_1,e_0)=0 with [e_1]=[e_0]), so the construction must refuse
    q = std_morphisms()["q.CM-Mod"]
    L = algebras["KC.CM-Mod"]
    _, spans = pushforward_ideal(q, L)
    assert spans[0].dim == 2  # quotient L-bar_1 has dim 3 - 2 = 1
    assert spans[0].n - spans[0].dim == 1
    with pytest.raises(RhoIllDefined, match=r"no pairing in class \[0\] is preserved"):
        pushforward(q, L)


def test_pushforward_refuses_an_underdetermined_pairing(cms, groups):
    """CM-A3S3 -> CM-Mod, A3 onto Z/3 and the sign on S3, on K[C](CM-A3S3):
    the ideal is all of class e, so the quotient map is zero on it and the
    constraints cannot determine the pairing of the odd class."""
    src, tgt = cms["CM-A3S3"], cms["CM-Mod"]
    fmor = morphism(src, tgt, GroupHomomorphism(src.top, tgt.top, (0, 1, 2)),
                    GroupHomomorphism(src.base, tgt.base, (0, 1, 1, 1, 0, 0)))
    with pytest.raises(RhoIllDefined, match="does not determine the pairing in class"):
        pushforward(fmor, group_algebra_C(src, QQ))


def test_pushforward_quotient_maps_read_the_reduced_rows():
    """K[P] of Z/3 = Z/3 along its quotient: tilde(b) - 1 puts e_1 - e_0 and
    e_2 - e_0 in the ideal of the one class, whose reduced rows are
    e_0 - e_2 and e_1 - e_2. So column 2, the basis vector of grade 2, is
    the one free column, and every e_p is e_2 modulo the ideal."""
    cm = from_normal_inclusion(cyclic_group(3), range(3))
    data = pushforward_data(quotient_morphism(cm), group_algebra_P(cm, QQ))
    span = data.spans[0]
    assert span.dim == 2 and span.pivots == [0, 1]
    assert not any(span.reduce((QQ.of(0), QQ.of(1), QQ.of(-1))))  # dependent
    assert data.free == {0: [(2, 0)]}
    assert all(data.pis[p] == Matrix(QQ, [[1]]) for p in range(3))
    assert data.algebra.dims == (1,)


@pytest.mark.parametrize("name, text", [
    ("(1->Z2)->CM-Id2", "pushforward requires the top map to be surjective"),
    ("(1->1)->(1->S3)", "cannot extend the action to (12) outside the image"),
])
def test_pushforward_refuses_a_top_map_not_onto_or_an_action_it_cannot_extend(name, text):
    """The refused inputs of the golden `pushforward` section, on K[P] of
    their sources: the top map of (1 -> Z/2) -> CM-Id2 is trivial, and in
    (1 -> 1) -> (1 -> S3) every grade but e is outside the image, where (12)
    conjugates (13) to (23), so the identity cannot extend the action."""
    fmor, cm = {n: (f, c) for n, f, c in _refused_pushforward_inputs()}[name]
    with pytest.raises(ValueError) as exc:
        pushforward_data(fmor, group_algebra_P(cm, QQ))
    assert str(exc.value) == text


@pytest.mark.parametrize("fname", ["q.CM-Id2", "collapse.CM-Id2"])
def test_pushforward_refuses_an_action_or_units_that_do_not_descend(algebras, fname):
    """K[P](CM-Id2) with phi_e doubling grade (12), or with tilde(e) = 2 e_e,
    fails the checker, which the pushforward does not run on its source. The
    ideal identifies e_e with e_(12), so in the first e and (12) act on the
    one quotient grade by 2 and by 1. In the second it holds tilde(1) - 1,
    so the units of the two lifts of e have the classes 2 and 1. A source
    that passes the checker reaches neither refusal."""
    L, fmor = algebras["KP.CM-Id2"], std_morphisms()[fname]
    e = fmor.target.base.names[0]
    cases = [({**L.phi, (0, 1): Matrix(QQ, [[2]])}, L.tilde, "phi_homomorphism",
              f"action on the quotient depends on the representative of {e}"),
             (L.phi, [(2,), L.tilde[1]], "tilde_unit",
              "tilde on the quotient depends on the lift of e")]
    for phi, tilde, family, text in cases:
        bad = CrossedCAlgebra(L.name, L.cm, QQ, L.dims, L.basis_names, L.mul, L.unit, L.rho,
                              phi, tilde)
        assert family in [r.axiom for r in check_crossed_algebra(bad).failures()]
        with pytest.raises(ValueError) as exc:
            pushforward_data(fmor, bad)
        assert str(exc.value) == text


# --- adjunction transposes --------------------------------------------------

def test_transposes_on_kp_iso(cms):
    # the witness lands in the pullback of K[G]; untransposing gives the
    # morphism K[S3] -> K[G] over the quotient collapse, and transposing
    # that recovers the witness
    from crossmod.algebras import group_algebra_P
    from crossmod.crossed_modules import quotient_morphism
    cm = cms["CM-A3S3"]
    w = kp_iso_witness(cm, QQ)
    qmor = quotient_morphism(cm)
    KG = group_algebra_P(qmor.target, QQ)
    over_q = untranspose_from_pullback(w, qmor, KG)
    assert check_algebra_morphism(over_q).ok
    assert over_q.target is KG
    back = transpose_to_pullback(over_q)
    assert morphisms_equal(back, w)
    assert same_structure(back.target, w.target)


def test_transpose_identity_morphism(algebras):
    L = algebras["KP.CM-A3S3"]
    blocks = {p: Matrix.identity(L.field, L.dims[p]) for p in L.P.elements()}
    ident = CrossedAlgebraMorphism(identity_morphism(L.cm), L, L, blocks)
    tp = transpose_to_pullback(ident)
    assert morphisms_equal(untranspose_from_pullback(tp, ident.over, L), ident)


def test_pushforward_transposes_round_trip():
    f2 = GF(2)
    from crossmod.fixtures import std_algebras
    algs = std_algebras(f2)
    fmor = std_morphisms()["collapse.CM-Id2"]
    L, Lp = algs["KC.CM-Id2"], algs["KQ.1Z2"]
    over_f = enumerate_algebra_morphisms(fmor, L, Lp)
    assert len(over_f) == 1
    data = pushforward_data(fmor, L)
    for m in over_f:
        m2 = transpose_from_pushforward(m, data)
        assert check_algebra_morphism(m2).ok
        back = untranspose_to_pushforward(m2, data)
        assert morphisms_equal(back, m)


@pytest.mark.parametrize("grade, cls", [("(12)", "[(12)]"), ("(123)", "[e]")])
def test_transpose_refuses_a_morphism_that_does_not_kill_the_ideal(algebras, grade, cls):
    """The untransposed identity of the pushforward of KP.CM-A3S3 along
    q.CM-A3S3 transposes back to the identity blocks. With the block of one
    grade scaled by 2 it no longer factors through the quotient map, and the
    refusal names the class of that grade."""
    fmor, L = std_morphisms()["q.CM-A3S3"], algebras["KP.CM-A3S3"]
    data = pushforward_data(fmor, L)
    fL = data.algebra
    ident = CrossedAlgebraMorphism(identity_morphism(fmor.target), fL, fL,
                                   {q: Matrix.identity(QQ, d) for q, d in enumerate(fL.dims)})
    m = untranspose_to_pushforward(ident, data)
    back = transpose_from_pushforward(m, data)
    assert all(back.blocks[q] == Matrix.identity(QQ, d) for q, d in enumerate(fL.dims))
    p = L.P.names.index(grade)
    blocks = {**m.blocks, p: Matrix(QQ, [[2 * x for x in row] for row in m.blocks[p].data])}
    with pytest.raises(ValueError) as exc:
        transpose_from_pushforward(CrossedAlgebraMorphism(fmor, L, fL, blocks), data)
    assert str(exc.value) == f"morphism does not kill the ideal in class {cls}"


def test_morphism_search_bounds_candidates_before_enumerating(monkeypatch):
    # identity of K[Z/13] over F3: 13 free entries, so 3**13 > 2**20
    # candidates, although 13 entries are fewer than the 20 allowed over F2
    cm = from_normal_inclusion(cyclic_group(13), range(13))
    L = group_algebra_P(cm, GF(3))

    def checked(m, report):
        raise AssertionError("a candidate was enumerated")

    monkeypatch.setattr(algebras_module, "_check_blocks", checked)
    with pytest.raises(ValueError, match="candidates"):
        enumerate_algebra_morphisms(identity_morphism(cm), L, L)


def test_morphism_search_checks_the_crossed_module_morphism_once(monkeypatch):
    """One check_morphism call per search, however many candidates: over
    collapse.CM-Id2 the search finds its one morphism among 2**2 candidates,
    and over a failing morphism (identity base map, trivial top map on
    CM-Id2) it finds none, although identity blocks pass every block family."""
    calls = []

    def counted(fmor):
        calls.append(fmor)
        return check_morphism(fmor)

    algs = std_algebras(GF(2))
    fmor = std_morphisms()["collapse.CM-Id2"]
    monkeypatch.setattr(algebras_module, "check_morphism", counted)
    assert len(enumerate_algebra_morphisms(fmor, algs["KC.CM-Id2"], algs["KQ.1Z2"])) == 1
    assert calls == [fmor]

    L = algs["KP.CM-Id2"]
    bad = dataclasses.replace(identity_morphism(L.cm), f_top=trivial_hom(L.C, L.C))
    calls.clear()
    assert enumerate_algebra_morphisms(bad, L, L) == []
    assert calls == [bad]
    blocks = {p: Matrix.identity(GF(2), L.dims[p]) for p in L.P.elements()}
    m = CrossedAlgebraMorphism(bad, L, L, blocks)
    assert [r.axiom for r in check_algebra_morphism(m).failures()] == ["square_commutes"]


def test_hom_set_counts_match():
    f2 = GF(2)
    from crossmod.fixtures import std_algebras
    algs = std_algebras(f2)
    fmor = std_morphisms()["collapse.CM-Id2"]
    L, Lp = algs["KC.CM-Id2"], algs["KQ.1Z2"]
    n_over = len(enumerate_algebra_morphisms(fmor, L, Lp))
    n_pull = len(enumerate_algebra_morphisms(identity_morphism(L.cm), L,
                                             pullback(fmor, Lp)))
    data = pushforward_data(fmor, L)
    n_push = len(enumerate_algebra_morphisms(identity_morphism(fmor.target),
                                             data.algebra, Lp))
    assert n_over == n_pull == n_push == 1


def test_degenerate_cases_reduce(cms, algebras):
    # trivial top group: the checker is the plain crossed pi-algebra axiom list
    L = algebras["KQ.1Z2"]
    assert L.cm.top.order == 1
    assert check_crossed_algebra(L).ok
    # trivial base group, abelian top: Frobenius algebra with central units
    from crossmod.crossed_modules import from_module
    from crossmod.groups import cyclic_group, trivial_action, trivial_group
    one = trivial_group()
    z3 = cyclic_group(3)
    cm = from_module(z3, one, trivial_action(one, z3), name="G-Frobenius-case")
    L = group_algebra_C(cm, QQ)
    assert check_crossed_algebra(L).ok
    for c in z3.elements():
        for g in L.P.elements():
            for i in range(L.dims[g]):
                x = unit_vector(QQ, L.dims[g], i)
                assert L.multiply(0, L.tilde[c], g, x) == \
                    L.multiply(g, x, 0, L.tilde[c])  # central units


def test_pushforward_of_ks3_looks_like_kz2(algebras):
    # the quotient algebra carries exactly the base group algebra structure
    # of the quotient group: one generator per class, products/pairing/action
    # all with unit coefficients
    L = algebras["PUSH.CM-A3S3"]
    Q = L.P
    assert Q.order == 2 and L.dims == (1, 1)
    one = QQ.one
    for q1 in Q.elements():
        for q2 in Q.elements():
            assert L.mul[(q1, q2)] == [[[one]]]
        assert L.rho[q1] == Matrix(QQ, [[one]])
        for q2 in Q.elements():
            assert L.phi[(q1, q2)] == Matrix(QQ, [[one]])
    assert L.tilde[0] == (one,)


def _naive_product(L, g, x, h, y):
    """sum over i, j, k of x_i y_j mul[g,h][i][j][k] e_k, with no skipping."""
    f, block = L.field, L.mul[(g, h)]
    out = [f.zero] * L.dims[L.P.mul(g, h)]
    for i, j, k in itertools.product(range(len(x)), range(len(y)), range(len(out))):
        out[k] = f.add(out[k], f.mul(f.mul(x[i], y[j]), block[i][j][k]))
    return tuple(out)


def _naive_pairing(L, g, x, y):
    f, acc = L.field, L.field.zero
    for i, j in itertools.product(range(len(x)), range(len(y))):
        acc = f.add(acc, f.mul(f.mul(x[i], y[j]), L.rho[g].data[i][j]))
    return acc


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_product_contraction_against_naive_sum(f):
    """multiply, pairing and the two product matrices against a plain sum
    over the structure constants, on every fixture algebra, on a copy with
    random dense constants and pairing (the contraction does not need an
    algebra, and an asymmetric block shows a swapped index) and on seeded
    random algebras over Z/2 --x2--> Z/4, among whose grade pairs (g, h) are
    some with L_g empty and L_h, L_gh not. Each grade pair multiplies dense
    vectors, zero, every unit vector and a one-term vector of value other
    than 1, so both the one-term path of the contraction and its sum run."""
    rng = random.Random(11)

    def dense(n):
        return tuple(f.of(rng.choice((-3, -2, -1, 1, 2, 3, 4))) for _ in range(n))

    def vectors(n):
        out = [dense(n), dense(n), (f.zero,) * n]
        out += [unit_vector(f, n, i) for i in range(n)]
        if n:
            scale = f.of(rng.choice((-1, 2, 3)))
            out.append(tuple(f.mul(scale, x) for x in unit_vector(f, n, rng.randrange(n))))
        return out

    cases = []
    for L in std_algebras(f).values():
        P = L.P
        constants = {(g, h): [[list(dense(L.dims[P.mul(g, h)])) for _ in range(L.dims[h])]
                             for _ in range(L.dims[g])] for g, h in L.mul}
        rho = {g: Matrix(f, [dense(L.dims[P.inv[g]]) for _ in range(L.dims[g])],
                         cols=L.dims[P.inv[g]]) for g in P.elements()}
        cases += [L, CrossedCAlgebra(L.name, L.cm, f, L.dims, L.basis_names, constants,
                                     L.unit, rho, L.phi, L.tilde)]
    cases += [random_algebra(uneven_module(), f, rng, f"random{n}") for n in range(8)]
    empty_left = 0
    for A in cases:
        P, dims = A.P, A.dims
        for g, h in itertools.product(P.elements(), repeat=2):
            gh = P.mul(g, h)
            empty_left += dims[g] == 0 < min(dims[h], dims[gh])
            for x, y in itertools.product(vectors(dims[g]), vectors(dims[h])):
                prod = A.multiply(g, x, h, y)
                assert type(prod) is tuple and prod == _naive_product(A, g, x, h, y)
                left = A.left_mul_matrix(g, x, h)
                assert left.shape() == (dims[gh], dims[h]) and left.apply(y) == prod
                assert A.mul_matrix(g, h).apply(tuple(f.mul(a, b) for a in x for b in y)) == prod
        for g in P.elements():
            for x, y in itertools.product(vectors(dims[g]), vectors(dims[P.inv[g]])):
                assert A.pairing(g, x, y) == _naive_pairing(A, g, x, y)
    assert empty_left >= 8
