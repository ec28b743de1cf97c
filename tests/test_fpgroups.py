"""Solution-group presentations and Todd-Coxeter enumeration."""

from __future__ import annotations

import random
import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import lcsq.fpgroups as fp
from lcsq.f2core import (BinMatrix, LinearSystem, abelianized_order,
                         complete_bipartite, incidence_system, solve_f2)
from lcsq.f2core import SimpleGraph
from lcsq.fpgroups import (COMPACT_SLACK, DEFAULT_COSET_CAP, CosetTable, Presentation,
                           coset_rep_words, is_abelian, regular_perm_rep,
                           solution_presentation, star_subgroup, todd_coxeter,
                           word_is_identity)


@pytest.fixture(scope="module")
def k35_sys0():
    return incidence_system(complete_bipartite(3, 5), (0,) * 8)


@pytest.fixture(scope="module")
def table35(k35_sys0):
    return todd_coxeter(solution_presentation(k35_sys0, homogeneous=True))


def star_table(P: Presentation, cap: int = DEFAULT_COSET_CAP):
    """The route of `lcsq group`: the star subgroup S and its coset table."""
    S = star_subgroup(P, cap)
    return S, todd_coxeter(P, [(g,) for g in S.letters], cap // S.order)


def perm_closure(gens: list[tuple[int, ...]]) -> int:
    """Independent order oracle: BFS closure of the generated permutation group."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# presentations


def test_presentation_requires_involutions():
    with pytest.raises(ValueError, match="involution"):
        Presentation(("x", "y"), ((0, 0),))


def test_forced_equal_involutions_give_z2():
    sys = LinearSystem(BinMatrix.from_rows([[1, 1]]), (0,))
    P = solution_presentation(sys, homogeneous=True)
    assert P.generators == ("x1", "x2")
    assert todd_coxeter(P, []).num_cosets == 2


def test_k33_presentation_relator_census(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert P.generators == tuple(f"x{i}" for i in range(1, 10))
    involutions = [r for r in P.relators if len(r) == 2 and r[0] == r[1]]
    commutators = [r for r in P.relators if len(r) == 4 and r[0] == r[2]
                   and r[1] == r[3] and r[0] != r[1]]
    products = [r for r in P.relators if len(r) == 3]
    assert len(involutions) == 9
    # every pair of K3,3 edges sharing a vertex: sum over vertices of C(3,2)
    assert len(commutators) == 18
    assert len(products) == 6
    assert len(P.relators) == 33


def test_nonhomogeneous_adds_gamma(k33_sys_e1):
    P = solution_presentation(k33_sys_e1, homogeneous=False)
    assert P.generators[-1] == "gamma"
    gamma = P.gen_index("gamma")
    assert (gamma, gamma) in P.relators
    # centrality words for every variable
    assert all((i, gamma, i, gamma) in P.relators for i in range(9))
    # the b = 1 constraint's product relator ends with gamma; centrality
    # words (i, gamma, i, gamma) have repeating positions and are excluded
    products = [r for r in P.relators
                if len(r) == 4 and r[-1] == gamma and r[0] != r[2]]
    assert len(products) == 1
    assert products[0][:3] == k33_sys_e1.support(0)


# ---------------------------------------------------------------------------
# enumeration


def test_single_involution():
    P = Presentation(("x",), ((0, 0),))
    T = todd_coxeter(P)
    assert T.is_complete and T.num_cosets == 2


def test_klein_four_group():
    P = Presentation(("x", "y"), ((0, 0), (1, 1), (0, 1, 0, 1)))
    assert todd_coxeter(P, []).num_cosets == 4


def test_k33_order(table33, k33_sys0):
    assert table33.is_complete
    assert table33.num_cosets == 16 == abelianized_order(k33_sys0.M)


def test_k34_order(table34, k34_sys0):
    assert table34.is_complete
    assert table34.num_cosets == 256
    assert table34.num_cosets > 64 == abelianized_order(k34_sys0.M)
    # independent oracle: closure of the regular permutation representation
    assert perm_closure(regular_perm_rep(table34)) == 256


def test_cap_is_a_status(k34_sys0):
    P = solution_presentation(k34_sys0, homogeneous=True)
    T = todd_coxeter(P, [], cap=10)
    assert T.status == "capped"
    assert not T.is_complete


def test_nontrivial_subgroup_index(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    T = todd_coxeter(P, [(0,)])  # subgroup generated by x1
    assert T.is_complete and T.num_cosets == 8


def test_enumeration_survives_aggressive_compaction(k33_sys0, k34_sys0, monkeypatch):
    import lcsq.fpgroups as fp
    monkeypatch.setattr(fp, "COMPACT_SLACK", 0)
    for sys, expected in ((k33_sys0, 16), (k34_sys0, 256)):
        P = solution_presentation(sys, homogeneous=True)
        T = todd_coxeter(P)
        assert T.is_complete and T.num_cosets == expected


def test_coset_counts_insensitive_to_relator_order(k33_sys0, k34_sys0):
    rng = random.Random(3)
    for sys, expected in ((k33_sys0, 16), (k34_sys0, 256)):
        P = solution_presentation(sys, homogeneous=True)
        for _ in range(3):
            rels = list(P.relators)
            rng.shuffle(rels)
            shuffled = Presentation(P.generators, tuple(rels))
            assert todd_coxeter(shuffled).num_cosets == expected


# ---------------------------------------------------------------------------
# permutation representation


def test_perm_rep_z2():
    P = Presentation(("x",), ((0, 0),))
    perms = regular_perm_rep(todd_coxeter(P))
    assert perms == [(1, 0)]


def test_perm_rep_requires_complete(k34_sys0):
    P = solution_presentation(k34_sys0, homogeneous=True)
    with pytest.raises(ValueError, match="complete"):
        regular_perm_rep(todd_coxeter(P, [], cap=10))


def test_perm_rep_k33_commuting_involutions(table33):
    perms = regular_perm_rep(table33)
    assert len(perms) == 9
    n = table33.num_cosets
    for p in perms:
        assert all(p[p[c]] == c for c in range(n))
    for a in perms:
        for b in perms:
            assert all(a[b[c]] == b[a[c]] for c in range(n))


def test_perm_rep_k34_noncommuting_pair(table34):
    perms = regular_perm_rep(table34)
    n = table34.num_cosets
    assert any(any(a[b[c]] != b[a[c]] for c in range(n))
               for i, a in enumerate(perms) for b in perms[i + 1:])


def test_relators_act_trivially(table33, table34, k33_sys0, k34_sys0):
    for table, sys in ((table33, k33_sys0), (table34, k34_sys0)):
        perms = regular_perm_rep(table)
        n = table.num_cosets
        for rel in table.presentation.relators:
            image = list(range(n))
            for g in rel:
                image = [perms[g][c] for c in image]
            assert image == list(range(n))


def test_constraint_products_act_trivially(table33, k33_sys0):
    perms = regular_perm_rep(table33)
    n = table33.num_cosets
    for k in range(k33_sys0.num_constraints):
        image = list(range(n))
        for i in k33_sys0.support(k):
            image = [perms[i][c] for c in image]
        assert image == list(range(n))


# ---------------------------------------------------------------------------
# queries


def test_is_abelian(k33_sys0, k34_sys0):
    assert is_abelian(todd_coxeter(solution_presentation(k33_sys0, True))) is True
    assert is_abelian(todd_coxeter(solution_presentation(k34_sys0, True))) is False


def test_infinite_dihedral_unknown():
    P = Presentation(("x", "y"), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        is_abelian(todd_coxeter(P, cap=100))
    with pytest.raises(ValueError):
        word_is_identity(todd_coxeter(P, cap=100), star_subgroup(P), (0, 0))


def test_order_equals_abelianization_when_abelian(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert todd_coxeter(P, []).num_cosets == abelianized_order(k33_sys0.M)


def test_order_multiple_of_abelianization(k34_sys0):
    P = solution_presentation(k34_sys0, homogeneous=True)
    assert todd_coxeter(P, []).num_cosets % abelianized_order(k34_sys0.M) == 0


def test_word_squares_are_identity(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    S, T = star_table(P)
    assert word_is_identity(T, S, (0, 0)) is True


def test_gamma_nontrivial_for_magic_square(k33_sys_e1):
    P = solution_presentation(k33_sys_e1, homogeneous=False)
    gamma = P.gen_index("gamma")
    S, T = star_table(P)
    assert word_is_identity(T, S, (gamma,)) is False
    assert T.num_cosets * S.order == todd_coxeter(P, []).num_cosets == 32


def test_gamma_for_solvable_system_sign_character():
    # b = M e_1: classically solvable. A solution x* induces the character
    # x_i -> (-1)^{x*_i}, gamma -> -1, proving gamma != identity.
    H = complete_bipartite(3, 3)
    b = (1, 0, 0, 1, 0, 0)  # endpoints of edge 1
    sys = incidence_system(H, b)
    x = solve_f2(sys)
    assert x is not None
    for k in range(6):
        signs = 1
        for i in sys.support(k):
            signs *= (-1) ** x[i]
        assert signs == (-1) ** b[k]  # the character respects every relation
    P = solution_presentation(sys, homogeneous=False)
    gamma = P.gen_index("gamma")
    S, T = star_table(P)
    # b has even weight, so the relator x1 x2 x3 gamma of vertex 0 qualifies
    assert S.letters == (0, 1, 2) and T.num_cosets * S.order == 32
    assert word_is_identity(T, S, (gamma,)) is False
    assert todd_coxeter(P).follow(0, (gamma,)) != 0


def test_word_validation(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    S, T = star_table(P)
    with pytest.raises(ValueError):
        word_is_identity(T, S, (99,))


def test_rep_words_reject_unreachable_row():
    P = Presentation(("x",), ((0, 0),))
    with pytest.raises(RuntimeError, match="unreachable"):
        coset_rep_words(CosetTable(P, ((0,), (1,)), "complete"))


def test_rep_words_reach_their_cosets(table33):
    words = coset_rep_words(table33)
    assert words[0] == ()
    assert len(words) == table33.num_cosets
    for c, w in enumerate(words):
        assert table33.follow(0, w) == c


def test_capped_table_keeps_only_the_live_count(k34_sys0):
    P = solution_presentation(k34_sys0, homogeneous=True)
    T = todd_coxeter(P, [], cap=10)
    assert T.table == ()
    assert T.num_cosets == reference_todd_coxeter(P, [], 10)[2] > 10


def test_unknown_generator_names_word(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert P.word_from_names("x1 x9") == (0, 8)
    with pytest.raises(ValueError, match="unknown generator 'y9' in word 'x1 y9'"):
        P.word_from_names("x1 y9")
    with pytest.raises(ValueError, match="unknown generator 'y9'"):
        P.gen_index("y9")


# ---------------------------------------------------------------------------
# star subgroups: the cosets `lcsq group` enumerates


def test_star_pick_rejects_a_cut_vertex():
    # two triangles sharing vertex 0: the star of 0 contains the cut
    # {x4, x5} around the triangle 0-3-4, which lies in the relator space
    H = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    sys = incidence_system(H, (0,) * 5)
    P = solution_presentation(sys, homogeneous=True)
    assert sys.support(0) == (0, 1, 3, 4)
    S = star_subgroup(P)
    assert S.letters == sys.support(1)[:1] == (0,)  # vertex 1, degree 2
    assert S.order == 2
    T = todd_coxeter(P, [(g,) for g in S.letters])
    assert T.num_cosets * S.order == todd_coxeter(P, []).num_cosets == 4


def test_k35_star_route_takes_512_cosets(k35_sys0):
    S, T = star_table(solution_presentation(k35_sys0, homogeneous=True))
    assert S.letters == (0, 1, 2, 3)  # four of the five edges at vertex 0
    assert S.order == 16 and S.abelianized_order == 256
    assert T.is_complete and T.num_cosets == 512


def test_no_qualifying_relator_uses_the_trivial_subgroup():
    # R is all of F2^3, so every relator's letters meet it in too much
    sys = LinearSystem(BinMatrix.from_rows([[1, 1, 1], [1, 1, 0], [0, 1, 1]]), (0,) * 3)
    P = solution_presentation(sys, homogeneous=True)
    S, T = star_table(P)
    assert S.letters == () and S.order == 1 and S.abelianized_order == 1
    assert T.num_cosets == todd_coxeter(P, []).num_cosets == 1


@pytest.mark.parametrize("cap, order", [(10 ** 6, 8), (8, 8), (7, 4), (5, 4), (2, 2),
                                        (1, 1), (0, 1), (-3, 1)])
def test_star_shrinks_below_the_cap(k34_sys0, cap, order):
    P = solution_presentation(k34_sys0, homogeneous=True)
    assert star_subgroup(P, cap).order == order


CROSS_CHECK_CAP = 1024


@st.composite
def small_incidence_systems(draw):
    """A random connected graph on at most 6 vertices (a random spanning
    tree plus random edges, in random order), a random b and a random word."""
    n = draw(st.integers(2, 6))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    edges = draw(st.permutations(sorted(tree) + extra))
    b = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    homogeneous = draw(st.booleans())
    sys = incidence_system(SimpleGraph.from_edges(n, edges), b)
    P = solution_presentation(sys, homogeneous)
    word = tuple(draw(st.lists(st.integers(0, P.ngens - 1), max_size=8)))
    return sys, P, word


def _k33_gamma_case(b):
    """K3,3's Gamma(M, b) and the word gamma."""
    sys = incidence_system(complete_bipartite(3, 3), b)
    P = solution_presentation(sys, homogeneous=False)
    return sys, P, (P.gen_index("gamma"),)


@settings(max_examples=150, deadline=None)
@given(small_incidence_systems())
@example(_k33_gamma_case((1, 0, 0, 0, 0, 0)))  # non-abelian; gamma's relator fails
@example(_k33_gamma_case((1, 0, 0, 1, 0, 0)))  # gamma's relator qualifies
def test_star_route_matches_trivial_subgroup_enumeration(case):
    sys, P, word = case
    full = todd_coxeter(P, [], CROSS_CHECK_CAP)
    if not full.is_complete:
        return  # a group beyond the cap: no reference to compare with
    S, T = star_table(P)
    assert T.is_complete
    assert T.num_cosets * S.order == full.num_cosets
    assert (full.num_cosets == S.abelianized_order) is is_abelian(full)
    assert word_is_identity(T, S, word) is (full.follow(0, word) == 0)
    if P.ngens == sys.num_vars:  # a homogeneous presentation
        assert S.abelianized_order == abelianized_order(sys.M)


# ---------------------------------------------------------------------------
# K3,5: the next exact instance after K3,4


def test_k35_order(table35, k35_sys0):
    assert table35.is_complete and table35.num_cosets == 8192
    assert abelianized_order(k35_sys0.M) == 2 ** 8
    assert is_abelian(table35) is False


def test_k35_relators_act_trivially(table35):
    # enumerator-independent: the columns are involutions and every relator
    # is the identity permutation on all 8192 cosets
    perms = regular_perm_rep(table35)
    identity = list(range(table35.num_cosets))
    for p in perms:
        assert [p[c] for c in p] == identity
    for rel in table35.presentation.relators:
        image = identity
        for g in rel:
            image = [perms[g][c] for c in image]
        assert image == identity


# ---------------------------------------------------------------------------
# exact replay against the union-find enumerator


class _UnionFindEnumerator:
    """Reference enumerator: HLT with union-find coincidences.

    For every relator scan it defines fresh cosets along the whole word
    and merges the end back onto the start.  Scan-and-fill must reproduce
    its status, its complete tables and its live count at a cap exactly.
    """

    UNDEF = -1

    def __init__(self, ngens: int):
        self.ngens = ngens
        self.parent = array("i")
        self.rows = array("i")
        self.live = 0
        self.add()

    def compact(self, to_visit: int) -> int:
        lookup: dict[int, int] = {}
        for c in range(len(self.parent)):
            if self.parent[c] == c:
                lookup[c] = len(lookup)
        new_rows = array("i")
        ngens = self.ngens
        for c in lookup:
            for g in range(ngens):
                nxt = self.rows[c * ngens + g]
                new_rows.append(self.UNDEF if nxt == self.UNDEF
                                else lookup[self.find(nxt)])
        new_to_visit = sum(1 for c in lookup if c < to_visit)
        self.parent = array("i", range(len(lookup)))
        self.rows = new_rows
        return new_to_visit

    def add(self) -> int:
        c = len(self.parent)
        self.parent.append(c)
        self.rows.extend([self.UNDEF] * self.ngens)
        self.live += 1
        return c

    def find(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def follow(self, c: int, g: int) -> int:
        c = self.find(c)
        slot = c * self.ngens + g
        nxt = self.rows[slot]
        if nxt == self.UNDEF:
            nxt = self.add()
            self.rows[slot] = nxt
            self.rows[nxt * self.ngens + g] = c
            return nxt
        return self.find(nxt)

    def follow_word(self, c: int, word) -> int:
        for g in word:
            c = self.follow(c, g)
        return c

    def unify(self, c1: int, c2: int) -> None:
        rows, ngens, UNDEF = self.rows, self.ngens, self.UNDEF
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a = self.find(a)
            b = self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.live -= 1
            for g in range(ngens):
                na = rows[a * ngens + g]
                nb = rows[b * ngens + g]
                if na == UNDEF:
                    rows[a * ngens + g] = nb
                elif nb != UNDEF:
                    queue.append((na, nb))


def reference_todd_coxeter(P, subgroup_words, cap):
    """(status, rows of a complete table or None, live coset count)."""
    enum = _UnionFindEnumerator(P.ngens)
    for word in subgroup_words:
        enum.unify(enum.follow_word(0, word), 0)
    to_visit = 0
    while to_visit < len(enum.parent):
        if enum.live > cap:
            return "capped", None, enum.live
        if len(enum.parent) > 4 * enum.live + COMPACT_SLACK:
            to_visit = enum.compact(to_visit)
            if to_visit >= len(enum.parent):
                break
        c = enum.find(to_visit)
        if c == to_visit:
            for rel in P.relators:
                enum.unify(enum.follow_word(c, rel), c)
        to_visit += 1
    lookup: dict[int, int] = {}
    for c in range(len(enum.parent)):
        if enum.find(c) == c:
            lookup[c] = len(lookup)
    ngens, UNDEF = enum.ngens, enum.UNDEF
    rows = []
    for c in lookup:
        row = []
        for g in range(ngens):
            nxt = enum.rows[c * ngens + g]
            row.append(UNDEF if nxt == UNDEF else lookup[enum.find(nxt)])
        rows.append(tuple(row))
    return "complete", tuple(rows), enum.live


@st.composite
def involutive_presentations(draw):
    ngens = draw(st.integers(1, 4))
    letters = st.integers(0, ngens - 1)
    extra = draw(st.lists(st.lists(letters, min_size=1, max_size=8).map(tuple),
                          max_size=5))
    relators = draw(st.permutations([(g, g) for g in range(ngens)] + extra))
    subgroup = draw(st.lists(st.lists(letters, max_size=6).map(tuple), max_size=2))
    cap = draw(st.sampled_from([5, 50, 500]))
    P = Presentation(tuple(f"g{i}" for i in range(ngens)), tuple(relators))
    return P, subgroup, cap


@settings(max_examples=300, deadline=None)
@given(involutive_presentations())
def test_enumeration_replays_union_find_reference(case):
    P, subgroup, cap = case
    T = todd_coxeter(P, subgroup, cap)
    status, rows, live = reference_todd_coxeter(P, subgroup, cap)
    assert T.status == status
    assert T.num_cosets == live
    if T.is_complete:
        assert T.table == rows


def _case(relators, subgroup, cap):
    ngens = 1 + max(g for rel in relators for g in rel)
    return Presentation(tuple(f"g{i}" for i in range(ngens)), relators), subgroup, cap


@settings(max_examples=300, deadline=None)
@given(involutive_presentations())
# compacts while a live row still holds an undefined entry
@example(_case(((0, 0), (1, 1), (2, 2), (1, 2, 1, 1, 0, 1, 0, 0), (3, 3), (2,)), [], 50))
def test_enumeration_replays_union_find_reference_compacting_eagerly(case):
    P, subgroup, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "COMPACT_SLACK", 0)
        mp.setattr(sys.modules[__name__], "COMPACT_SLACK", 0)
        T = todd_coxeter(P, subgroup, cap)
        status, rows, live = reference_todd_coxeter(P, subgroup, cap)
    assert T.status == status
    assert T.num_cosets == live
    if T.is_complete:
        assert T.table == rows


@settings(max_examples=300, deadline=None)
@given(involutive_presentations())
# the visited coset dies in a coincidence and later relators scan at its
# representative
@example(_case(((0, 0), (1, 1), (1, 0, 2, 0, 0), (2, 0, 2, 1), (2, 2)), [], 500))
def test_enumeration_replays_union_find_reference_growing_columns(case):
    # a workspace of one row plus the sink slot grows on almost every
    # definition, so the sink invariant is crossed again and again
    P, subgroup, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "_INITIAL_ROWS", 2)
        T = todd_coxeter(P, subgroup, cap)
    status, rows, live = reference_todd_coxeter(P, subgroup, cap)
    assert T.status == status
    assert T.num_cosets == live
    if T.is_complete:
        assert T.table == rows


def test_compaction_that_leaves_no_coset_to_visit():
    # ~1200 cosets collapse to the trivial group; the compaction that
    # follows leaves every live coset already visited
    P = Presentation(("a", "b"), ((0, 0), (1, 1), (0, 1) * 601, (0,)))
    T = todd_coxeter(P)
    assert T.is_complete and T.table == ((0, 0),)
    assert reference_todd_coxeter(P, [], 10 ** 6) == ("complete", ((0, 0),), 1)


def test_flagship_tables_replay_union_find_reference(k33_sys_e1, table34, table35):
    gamma33 = todd_coxeter(solution_presentation(k33_sys_e1, homogeneous=False))
    for T in (gamma33, table34, table35):
        status, rows, _ = reference_todd_coxeter(T.presentation, [], 10 ** 6)
        assert T.is_complete and status == "complete"
        assert T.table == rows
    # capped, coincidence-heavy: K4,4 at a small cap
    P = solution_presentation(incidence_system(complete_bipartite(4, 4), (0,) * 8),
                              homogeneous=True)
    T = todd_coxeter(P, [], 3000)
    assert T.status == "capped"
    assert T.num_cosets == reference_todd_coxeter(P, [], 3000)[2]


# ---------------------------------------------------------------------------
# is_abelian and the permutation check against the full permutations


def commute_as_permutations(T: CosetTable) -> bool:
    """Oracle: every pair of generator permutations commutes on every coset."""
    perms = regular_perm_rep(T)
    n = T.num_cosets
    return all(a[b[c]] == b[a[c]] for a in perms for b in perms for c in range(n))


@settings(max_examples=300, deadline=None)
@given(involutive_presentations())
def test_is_abelian_matches_permutation_commutation(case):
    P, _, cap = case
    T = todd_coxeter(P, [], cap)
    if T.is_complete:
        assert is_abelian(T) is commute_as_permutations(T)
    else:
        with pytest.raises(ValueError, match="complete"):
            is_abelian(T)


def test_is_abelian_matches_permutation_commutation_on_flagships(
        table33, table34, table35, k33_sys_e1):
    gamma33 = todd_coxeter(solution_presentation(k33_sys_e1, homogeneous=False))
    for T, abelian in ((table33, True), (table34, False), (table35, False),
                       (gamma33, False)):
        assert is_abelian(T) is abelian
        assert commute_as_permutations(T) is abelian


@pytest.mark.parametrize("column", [
    (1, 2, 0),   # a permutation, but a 3-cycle
    (1, 1, 2),   # not a permutation
    (1, 0, 3),   # points past the last coset
    (-1, 2, 1),  # an undefined entry
    (1,),        # one coset, pointing past it
])
def test_perm_rep_rejects_a_column_that_is_not_an_involution(column):
    P = Presentation(("x",), ((0, 0),))
    T = CosetTable(P, tuple((c,) for c in column), "complete")
    with pytest.raises(ValueError, match="generator column 0"):
        regular_perm_rep(T)


def test_perm_rep_of_the_trivial_group():
    T = todd_coxeter(Presentation(("x",), ((0, 0), (0,))))
    assert T.table == ((0,),)
    assert regular_perm_rep(T) == [(0,)]
