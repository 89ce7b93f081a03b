"""Finite groups as multiplication tables, plus homomorphisms, actions,
quotients, sections and 2-cocycles.

Elements are dense indices into a name list; index 0 is always the identity.
The permutation-composition convention throughout is (a*b)(x) = a(b(x)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .report import CheckReport


class GroupConstructionError(ValueError):
    pass


class FiniteGroup:
    """A finite group given by its full multiplication table. The inverse of
    a is read off its own row, as the column of the identity, 0; in a group
    that one-sided inverse is two-sided."""

    __slots__ = ("names", "table", "inv", "order")

    def __init__(self, names, table):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.inv = tuple(row.index(0) for row in self.table)
        # a plain slot, not a property: eval_piece range-checks every piece
        # field against it
        self.order = len(self.names)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, seq) -> int:
        acc = 0
        for x in seq:
            acc = self.table[acc][x]
        return acc

    def conj(self, p: int, x: int) -> int:
        """p * x * p^-1."""
        return self.table[self.table[p][x]][self.inv[p]]

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in self.elements() for b in self.elements())

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.names == other.names and self.table == other.table)

    def __hash__(self):
        return hash((self.names, self.table))

    def __repr__(self):
        return f"FiniteGroup({'{'}{', '.join(self.names)}{'}'})"


def check_group_table(names, table) -> CheckReport:
    """Report-based validation of a multiplication table: shape, identity at
    index 0, Latin square, two-sided inverses, and full associativity."""
    report = CheckReport("group table")
    names = tuple(str(n) for n in names)
    n = len(names)
    table = tuple(tuple(row) for row in table)
    bad = []
    if len(table) != n or any(len(row) != n for row in table):
        bad.append(("table", f"must be {n}x{n}"))
    elif any(not (0 <= x < n) for row in table for x in row):
        bad.append(("table", "entry out of range"))
    if len(set(names)) != n:
        bad.append(("names", "element names must be distinct"))
    report.add("well_formed", bad)
    if bad:
        return report
    fails = [(names[a], "index 0 is not a two-sided identity")
             for a in range(n) if table[0][a] != a or table[a][0] != a]
    report.add("identity_at_zero", fails)
    fails = [(names[a], "row or column repeats an element") for a in range(n)
             if len(set(table[a])) != n or len({table[b][a] for b in range(n)}) != n]
    report.add("latin_square", fails)
    fails = []
    for a in range(n):
        b = next((b for b in range(n) if table[a][b] == 0), None)
        if b is None or table[b][a] != 0:
            fails.append((names[a], "no two-sided inverse"))
    report.add("inverses", fails)
    fails = []
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    fails.append((f"({names[a]},{names[b]},{names[c]})",
                                  "associativity fails"))
    report.add("associativity", fails)
    return report


def make_group(names, table) -> FiniteGroup:
    """Validate a multiplication table and return the group; a table that is
    not a group raises GroupConstructionError naming the failing family."""
    check_group_table(names, table).require(GroupConstructionError)
    return FiniteGroup(map(str, names), table)


def trivial_group() -> FiniteGroup:
    return make_group(["e"], [[0]])


def cyclic_group(n: int) -> FiniteGroup:
    names = ["0"] + [str(k) for k in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(names, table)


def _perm_compose(a, b):
    # (a*b)(x) = a(b(x)); perms are tuples over range(k)
    return tuple(a[b[x]] for x in range(len(a)))


def permutation_group(perms, names) -> FiniteGroup:
    """The group of a composition-closed list of permutations, in list order."""
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_compose(a, b)] for b in perms] for a in perms]
    return make_group(names, table)


def symmetric_group_3() -> FiniteGroup:
    """S3 acting on {1,2,3}; element order: e, (12), (13), (23), (123), (132)."""
    perms = [
        (0, 1, 2),   # e
        (1, 0, 2),   # (12)
        (2, 1, 0),   # (13)
        (0, 2, 1),   # (23)
        (1, 2, 0),   # (123): 1->2, 2->3, 3->1
        (2, 0, 1),   # (132): 1->3, 3->2, 2->1
    ]
    return permutation_group(perms, ["e", "(12)", "(13)", "(23)", "(123)", "(132)"])


@dataclass(frozen=True)
class GroupHomomorphism:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order


def check_homomorphism(h: GroupHomomorphism) -> CheckReport:
    report = CheckReport("homomorphism")
    bad = []
    if len(h.map) != h.source.order or any(not (0 <= y < h.target.order) for y in h.map):
        bad.append(("shape", "map length or index out of range"))
        report.add("well_formed", bad)
        return report
    report.add_pass("well_formed")
    name = h.source.names
    fails = []
    if h.map[0] != 0:
        fails.append(("e", "identity not sent to identity"))
    for i in h.source.elements():
        for j in h.source.elements():
            lhs = h.map[h.source.mul(i, j)]
            rhs = h.target.mul(h.map[i], h.map[j])
            if lhs != rhs:
                fails.append((f"({name[i]},{name[j]})",
                              f"f(ij)={h.target.names[lhs]} but f(i)f(j)={h.target.names[rhs]}"))
    report.add("homomorphism", fails)
    return report


def identity_hom(g: FiniteGroup) -> GroupHomomorphism:
    return GroupHomomorphism(g, g, tuple(g.elements()))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHomomorphism:
    return GroupHomomorphism(source, target, (0,) * source.order)


@dataclass(frozen=True)
class GroupAction:
    """Left action of `actor` on `space` by group automorphisms."""

    actor: FiniteGroup
    space: FiniteGroup
    table: tuple[tuple[int, ...], ...]


def check_action(act: GroupAction) -> CheckReport:
    report = CheckReport("group action")
    actor, space, table = act.actor, act.space, act.table
    if len(table) != actor.order or any(len(r) != space.order for r in table):
        report.add("well_formed", [("shape", "table shape mismatch")])
        return report
    report.add_pass("well_formed")
    fails = [(space.names[c], "identity acts nontrivially")
             for c in space.elements() if table[0][c] != c]
    report.add("identity_acts_trivially", fails)
    fails = []
    for p in actor.elements():
        for q in actor.elements():
            pq = actor.mul(p, q)
            for c in space.elements():
                if table[pq][c] != table[p][table[q][c]]:
                    fails.append((f"({actor.names[p]},{actor.names[q]},{space.names[c]})",
                                  "^(pq)c != ^p(^q c)"))
    report.add("action_compatible", fails)
    fails = []
    for p in actor.elements():
        row = table[p]
        if len(set(row)) != space.order:
            fails.append((actor.names[p], "not a bijection"))
            continue
        for c in space.elements():
            for d in space.elements():
                if row[space.mul(c, d)] != space.mul(row[c], row[d]):
                    fails.append((f"({actor.names[p]},{space.names[c]},{space.names[d]})",
                                  "^p(cd) != ^pc ^pd"))
    report.add("acts_by_automorphisms", fails)
    return report


def action(actor: FiniteGroup, space: FiniteGroup, table) -> GroupAction:
    act = GroupAction(actor, space, tuple(tuple(r) for r in table))
    check_action(act).require(GroupConstructionError)
    return act


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    """Every element acts as the identity; an action by construction, so unchecked."""
    return GroupAction(actor, space, (tuple(space.elements()),) * actor.order)


# --- subgroups, quotients ------------------------------------------------

def is_subgroup(g: FiniteGroup, members) -> bool:
    members = set(members)
    if 0 not in members or not members <= set(g.elements()):
        return False
    return all(g.mul(a, b) in members for a in members for b in members) and \
        all(g.inv[a] in members for a in members)


def is_normal(g: FiniteGroup, members) -> bool:
    members = set(members)
    return all(g.conj(p, a) in members for p in g.elements() for a in members)


def restrict_subgroup(g: FiniteGroup, members) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The subgroup on `members` as a FiniteGroup, plus its inclusion indices.
    The restricted table is a group by construction, so it is not checked
    again."""
    if not is_subgroup(g, members):
        raise GroupConstructionError(f"{sorted(members)} is not a subgroup")
    members = tuple(sorted(members))
    pos = {m: i for i, m in enumerate(members)}
    table = [[pos[g.mul(a, b)] for b in members] for a in members]
    return FiniteGroup([g.names[m] for m in members], table), members


def quotient_group(g: FiniteGroup, members) -> tuple[FiniteGroup, GroupHomomorphism]:
    """Quotient by a normal subgroup, with the projection homomorphism. The
    coset table is a group and the projection a homomorphism by
    construction, so neither is checked again."""
    if not is_subgroup(g, members):
        raise GroupConstructionError(f"{sorted(members)} is not a subgroup")
    if not is_normal(g, members):
        raise GroupConstructionError(f"{sorted(members)} is not normal")
    members = tuple(sorted(members))
    cosets = []
    coset_of = [None] * g.order
    for a in g.elements():
        if coset_of[a] is not None:
            continue
        coset = tuple(sorted(g.mul(a, m) for m in members))
        for x in coset:
            coset_of[x] = len(cosets)
        cosets.append(coset)
    # identity coset contains 0 and is found first, so it gets index 0
    names = [f"[{g.names[c[0]]}]" for c in cosets]
    table = [[coset_of[g.mul(a[0], b[0])] for b in cosets] for a in cosets]
    quot = FiniteGroup(names, table)
    return quot, GroupHomomorphism(g, quot, tuple(coset_of))


# --- automorphisms --------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(G); `standard_action` holds each automorphism as its permutation
    of G."""

    group: FiniteGroup
    embedding: GroupHomomorphism  # G -> Aut(G) by inner automorphisms
    standard_action: GroupAction  # Aut(G) acting on G


def _extend(g: FiniteGroup, gens, images) -> dict[int, int] | None:
    """The map m on the subgroup that `gens` generate with m(1) = 1, each
    generator sent to its image and m(xs) = m(x)m(s) for every reached x and
    generator s, or None when no map satisfies these. Such an m is a
    homomorphism; given the generators as their own images, its keys are the
    subgroup they generate."""
    m = {0: 0}
    reached = [0]
    for x in reached:
        for s, t in zip(gens, images):
            xs, y = g.table[x][s], g.table[m[x]][t]
            if xs not in m:
                m[xs] = y
                reached.append(xs)
            elif m[xs] != y:
                return None
    return m


def _automorphism_perms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of g as a permutation, sorted: the bijective
    extensions of all nonidentity images of a generating set. The set is
    chosen greedily, each generator the first that reaches the largest
    subgroup with the earlier ones, so that it stays small."""
    gens, reached = [], 1
    while reached < g.order:
        sizes = [len(_extend(g, gens + [x], gens + [x])) for x in g.elements()]
        reached = max(sizes)
        gens.append(sizes.index(reached))
    found = []
    for images in itertools.product(range(1, g.order), repeat=len(gens)):
        m = _extend(g, gens, images)
        if m is not None and len(set(m.values())) == g.order:
            found.append(tuple(m[x] for x in g.elements()))
    return sorted(found)


# the largest group whose automorphisms `automorphism_group` searches for
MAX_AUT_ORDER = 12


def automorphism_group(g: FiniteGroup) -> AutomorphismGroup:
    """Aut(g) by a search over the images of a generating set; the
    embedding and the standard action hold by construction, so are
    unchecked."""
    if g.order > MAX_AUT_ORDER:
        raise GroupConstructionError(f"|G| = {g.order} exceeds bound {MAX_AUT_ORDER}")
    perms = _automorphism_perms(g)
    aut = permutation_group(perms, [f"a{i}" for i in range(len(perms))])
    index = {p: i for i, p in enumerate(perms)}
    inner = tuple(index[tuple(g.conj(x, y) for y in g.elements())] for x in g.elements())
    alpha = GroupHomomorphism(g, aut, inner)
    return AutomorphismGroup(aut, alpha, GroupAction(aut, g, tuple(perms)))


# --- sections and 2-cocycles ----------------------------------------------

@dataclass(frozen=True)
class Section:
    """A set-theoretic section of a surjective homomorphism, with s(1)=1."""

    projection: GroupHomomorphism
    choice: tuple[int, ...]

    def __call__(self, t: int) -> int:
        return self.choice[t]


def section(projection: GroupHomomorphism, choice=None) -> Section:
    if not projection.is_surjective():
        raise GroupConstructionError("section requires a surjective projection")
    if choice is None:
        choice = [min(x for x in projection.source.elements() if projection.map[x] == t)
                  for t in projection.target.elements()]
    choice = tuple(choice)
    if choice[0] != 0:
        raise GroupConstructionError("section must send identity to identity")
    for t in projection.target.elements():
        if projection.map[choice[t]] != t:
            raise GroupConstructionError(f"q(s({projection.target.names[t]})) != it")
    return Section(projection, choice)


@dataclass(frozen=True)
class TwoCocycle:
    """The normalized 2-cocycle f(g,h) = s(g)s(h)s(gh)^-1 of a section.
    Its values lie in ker q and are stored as elements of P."""

    base: FiniteGroup            # G, the target of the projection
    values: tuple[tuple[int, ...], ...]


def cocycle_from_section(sec: Section) -> TwoCocycle:
    q = sec.projection
    P, G = q.source, q.target
    f = tuple(tuple(P.product((sec(g), sec(h), P.inv[sec(G.mul(g, h))])) for h in G.elements())
              for g in G.elements())
    # f lies in ker q only when q is a homomorphism, which `section` does
    # not check. Normalization is s(1) = 1, which `section` checks, and the
    # twisted identity holds for any map s into a group.
    if any(q.map[x] != 0 for row in f for x in row):
        raise GroupConstructionError("cocycle value escaped the kernel")
    return TwoCocycle(G, f)
