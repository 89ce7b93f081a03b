import itertools

import pytest

from conftest import perm_conj, perm_mul
from crossmod.groups import (
    GroupConstructionError,
    GroupHomomorphism,
    action,
    automorphism_group,
    check_action,
    check_group_table,
    check_homomorphism,
    cocycle_from_section,
    cyclic_group,
    is_normal,
    is_subgroup,
    make_group,
    permutation_group,
    quotient_group,
    restrict_subgroup,
    section,
    symmetric_group_3,
    trivial_group,
)
from crossmod.report import CheckReport


def test_make_group_trivial_and_z2():
    assert trivial_group().order == 1
    z2 = make_group(["e", "s"], [[0, 1], [1, 0]])
    assert z2.inv == (0, 1)


def test_s3_brute_force_associativity():
    s3 = symmetric_group_3()
    assert s3.order == 6
    # oracle: all 216 triples directly on the table
    for a, b, c in itertools.product(range(6), repeat=3):
        assert s3.table[s3.table[a][b]][c] == s3.table[a][s3.table[b][c]]
    # table agrees with the permutation oracle
    for a in range(6):
        for b in range(6):
            assert s3.names[s3.table[a][b]] == perm_mul(s3.names[a], s3.names[b])


def test_make_group_errors():
    with pytest.raises(GroupConstructionError, match="identity_at_zero"):
        make_group(["a", "b"], [[1, 0], [0, 1]])
    with pytest.raises(GroupConstructionError, match="latin_square"):
        make_group(["e", "s", "t"], [[0, 1, 2], [1, 1, 2], [2, 2, 0]])
    # a Latin square with identity but broken associativity: order-5 loop
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(GroupConstructionError, match="associativity|inverses"):
        make_group(list("eabcd"), loop)
    with pytest.raises(GroupConstructionError):
        make_group(["e"], [[0, 0]])


def test_check_report_require():
    report = CheckReport("subject S")
    report.add_pass("first")
    assert report.require() is report
    report.add("second", [("inst A", "detail A"), ("inst B", "detail B")])
    report.add("third", [("inst C", "detail C")])
    with pytest.raises(KeyError) as exc:
        report.require(KeyError)
    assert exc.value.args[0] == "subject S: second fails at inst A: detail A"
    with pytest.raises(ValueError, match="^subject S: second fails at inst A: detail A$"):
        report.require()


def test_check_homomorphism_examples():
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group_3()
    assert check_homomorphism(GroupHomomorphism(z2, z2, (0, 1))).ok
    sign = GroupHomomorphism(s3, z2, (0, 1, 1, 1, 0, 0))
    assert check_homomorphism(sign).ok
    bad = GroupHomomorphism(z2, z3, (0, 1))
    report = check_homomorphism(bad)
    assert not report.ok
    assert "(1,1)" in report.first_failure().instance  # fails at (s, s)


def test_conjugation_examples():
    z2 = cyclic_group(2)
    act = action(z2, z2, [[z2.conj(p, c) for c in z2.elements()] for p in z2.elements()])
    assert act.table == ((0, 1), (0, 1))  # abelian: trivial
    s3 = symmetric_group_3()
    act = action(s3, s3, [[s3.conj(p, c) for c in s3.elements()] for p in s3.elements()])
    assert check_action(act).ok
    names = s3.names
    for p in range(6):
        for c in range(6):
            assert names[act.table[p][c]] == perm_conj(names[p], names[c])
    # the two specific values stated in terms of permutations
    assert names[act.table[names.index("(12)")][names.index("(123)")]] == "(132)"
    assert names[act.table[names.index("(123)")][names.index("(12)")]] == "(23)"


def test_automorphism_groups():
    assert automorphism_group(cyclic_group(2)).group.order == 1
    aut_z3 = automorphism_group(cyclic_group(3))
    assert aut_z3.group.order == 2
    s3 = symmetric_group_3()
    aut = automorphism_group(s3)
    assert aut.group.order == 6  # classical: Aut(S3) ~ S3
    # alpha is injective (S3 has trivial center)
    assert len(set(aut.embedding.map)) == 6
    # embedding data reproduces the conjugation action exactly
    for x in s3.elements():
        perm = aut.standard_action.table[aut.embedding.map[x]]
        for y in s3.elements():
            assert perm[y] == s3.conj(x, y)
    with pytest.raises(GroupConstructionError, match="exceeds bound"):
        automorphism_group(cyclic_group(13))


def test_automorphism_group_is_group_of_bijections():
    aut = automorphism_group(symmetric_group_3())
    s3 = aut.standard_action.space
    for p in aut.standard_action.table:
        for a in s3.elements():
            for b in s3.elements():
                assert p[s3.mul(a, b)] == s3.mul(p[a], p[b])


def _direct_product(a, b):
    pairs = [(x, y) for x in a.elements() for y in b.elements()]
    index = {xy: i for i, xy in enumerate(pairs)}
    return make_group([f"({a.names[x]},{b.names[y]})" for x, y in pairs],
                      [[index[(a.mul(x1, x2), b.mul(y1, y2))] for x2, y2 in pairs]
                       for x1, y1 in pairs])


def _alternating_group_4():
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    return permutation_group(perms, [str(p) for p in perms])


def test_automorphisms_match_an_independent_oracle():
    """For |G| <= 7 the search returns exactly the sorted bijections fixing
    the identity that preserve the whole table; for the larger groups it
    returns sorted, distinct automorphisms of the known count |Aut(G)|."""
    z, s3 = cyclic_group, symmetric_group_3()
    small = [z(n) for n in range(1, 8)] + [s3, _direct_product(z(2), z(2))]
    for g in small:
        n = g.order
        oracle = [(0, *rest) for rest in itertools.permutations(range(1, n))
                  if all((0, *rest)[g.mul(a, b)] == g.mul((0, *rest)[a], (0, *rest)[b])
                         for a in g.elements() for b in g.elements())]
        assert list(automorphism_group(g).standard_action.table) == oracle
    z2_cubed = _direct_product(_direct_product(z(2), z(2)), z(2))
    known = [(z(8), 4), (z(9), 6), (z(10), 4), (z(11), 10), (z(12), 4), (z2_cubed, 168),
             (_direct_product(z(2), z(4)), 8), (_direct_product(z(2), z(6)), 12),
             (_direct_product(s3, z(2)), 12), (_direct_product(z(3), z(3)), 48),
             (_alternating_group_4(), 24)]
    for g, count in known:
        perms = automorphism_group(g).standard_action.table
        assert len(perms) == count and list(perms) == sorted(set(perms))
        for p in perms:
            assert sorted(p) == list(g.elements())
            assert all(p[g.mul(a, b)] == g.mul(p[a], p[b])
                       for a in g.elements() for b in g.elements())


def test_quotients():
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group_3()
    q, proj = quotient_group(z2, (0, 1))
    assert q.order == 1
    q, proj = quotient_group(s3, (0, 4, 5))
    assert q.order == 2
    assert proj.map == (0, 1, 1, 1, 0, 0)  # the sign map, by coset enumeration
    q, proj = quotient_group(z3, (0,))
    assert q.order == 3 and proj.map == (0, 1, 2)
    with pytest.raises(GroupConstructionError, match="is not a subgroup"):
        quotient_group(s3, (0, 1, 2))
    with pytest.raises(GroupConstructionError, match="is not normal"):
        quotient_group(s3, (0, 1))  # <(12)> is not normal


def test_subgroups_and_quotients_are_groups():
    """restrict_subgroup and quotient_group build their groups unchecked;
    on every subgroup of S3 and Z/4 the full table check passes and the
    inverses equal those make_group reads off the table."""
    seen = 0
    for g in (symmetric_group_3(), cyclic_group(4)):
        for k in range(1, g.order + 1):
            for members in itertools.combinations(g.elements(), k):
                if not is_subgroup(g, members):
                    continue
                built = [restrict_subgroup(g, members)[0]]
                if is_normal(g, members):
                    built.append(quotient_group(g, members)[0])
                for h in built:
                    assert check_group_table(h.names, h.table).ok
                    assert h.inv == make_group(h.names, h.table).inv
                    seen += 1
    assert seen == 6 + 3 + 3 + 3   # S3: 6 subgroups, 3 normal; Z/4: 3, all normal


def test_subgroup_predicates():
    s3 = symmetric_group_3()
    assert is_subgroup(s3, (0, 4, 5)) and is_normal(s3, (0, 4, 5))
    assert is_subgroup(s3, (0, 1)) and not is_normal(s3, (0, 1))
    assert not is_subgroup(s3, (0, 4))


def test_section_and_cocycles():
    s3, z2 = symmetric_group_3(), cyclic_group(2)
    sign = GroupHomomorphism(s3, z2, (0, 1, 1, 1, 0, 0))
    check_homomorphism(sign).require()
    sec = section(sign)  # default: minimal preimages: s(0)=e, s(1)=(12)
    assert sec.choice == (0, 1)
    coc = cocycle_from_section(sec)
    # (12)(12) = e = s(1)^-1-free: the cocycle is trivial here (split case)
    assert all(v == 0 for row in coc.values for v in row)

    z4 = cyclic_group(4)
    proj = GroupHomomorphism(z4, z2, (0, 1, 0, 1))
    check_homomorphism(proj).require()
    coc = cocycle_from_section(section(proj))
    # f(-1,-1) = s(1)+s(1) = 2, the nontrivial kernel element
    assert coc.values[1][1] == 2
    # normalization holds everywhere
    for g in range(2):
        assert coc.values[0][g] == 0 and coc.values[g][0] == 0


def test_section_requires_identity_choice():
    s3, z2 = symmetric_group_3(), cyclic_group(2)
    sign = GroupHomomorphism(s3, z2, (0, 1, 1, 1, 0, 0))
    check_homomorphism(sign).require()
    with pytest.raises(GroupConstructionError):
        section(sign, (4, 1))  # s(1) != 1
    with pytest.raises(GroupConstructionError):
        section(sign, (0, 4))  # q(s(-1)) = q((123)) != -1


def test_exhaustive_associativity_up_to_24(groups):
    for g in groups.values():
        assert g.order <= 24
        for a, b, c in itertools.product(g.elements(), repeat=3):
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_conjugation_is_always_an_action(groups):
    for g in groups.values():
        act = action(g, g, [[g.conj(p, c) for c in g.elements()] for p in g.elements()])
        assert check_action(act).ok


def test_cocycles_normalized_for_all_fixture_surjections(cms):
    """Each value lies in ker q, f is normalized, and the twisted identity
    f(g,h) f(gh,k) = s(g) f(h,k) s(g)^-1 f(g,hk) holds, all in P: for the
    default section of every fixture quotient, whose cocycles are all
    trivial, and for all 16 sections of A4 -> A4/V4, where s(g) moves some
    value f(h,k) of the non-central kernel V4."""
    from crossmod.crossed_modules import kernel_and_image
    sections = [section(kernel_and_image(cm)[3]) for cm in cms.values()]
    a4 = _alternating_group_4()
    _, q = quotient_group(a4, [x for x in a4.elements() if a4.mul(x, x) == 0])
    cosets = [[x for x in a4.elements() if q.map[x] == t] for t in q.target.elements()]
    sections += [section(q, (0, *rest)) for rest in itertools.product(*cosets[1:])]
    assert len(sections) == 4 + 16
    moved = 0
    for sec in sections:
        proj = sec.projection
        coc = cocycle_from_section(sec)
        P, G, f = proj.source, coc.base, coc.values
        assert all(proj.map[x] == 0 for row in f for x in row)
        for g in G.elements():
            assert f[0][g] == 0 and f[g][0] == 0
        for g, h, k in itertools.product(G.elements(), repeat=3):
            moved += P.conj(sec(g), f[h][k]) != f[h][k]
            assert P.mul(f[g][h], f[G.mul(g, h)][k]) == \
                P.product((sec(g), f[h][k], P.inv[sec(g)], f[g][G.mul(h, k)]))
    assert moved


def _brute_force_inverses(g):
    """For each a, the one b with ab = ba = e, found by a scan of every b."""
    return tuple(next(b for b in g.elements() if g.mul(a, b) == 0 == g.mul(b, a))
                 for a in g.elements())


def test_inverses_are_the_two_sided_inverses_of_every_built_group(cms):
    """`FiniteGroup` reads each inverse off its own row; it is the two-sided
    inverse, for the fixture groups, the top and base of each fixture
    crossed module, their quotients by the image of d, and every subgroup of
    each of these (`restrict_subgroup`)."""
    from crossmod.crossed_modules import kernel_and_image
    from crossmod.fixtures import std_groups
    groups = list(std_groups().values()) + [_alternating_group_4()]
    for cm in cms.values():
        groups += [cm.top, cm.base, kernel_and_image(cm)[2]]
    subgroups = 0
    for g in list(groups):
        for members in itertools.product((False, True), repeat=g.order):
            chosen = [x for x, keep in zip(g.elements(), members) if keep]
            if is_subgroup(g, chosen):
                groups.append(restrict_subgroup(g, chosen)[0])
                subgroups += 1
    assert subgroups
    for g in groups:
        assert g.inv == _brute_force_inverses(g), g
