"""Solution-group presentations and Todd-Coxeter enumeration."""

from __future__ import annotations

import random

import pytest

from lcsq.f2core import (BinMatrix, LinearSystem, abelianized_order,
                         complete_bipartite, incidence_system, solve_f2)
from lcsq.fpgroups import (CosetTable, Presentation, coset_rep_words, group_order,
                           is_abelian, regular_perm_rep, solution_presentation,
                           todd_coxeter, word_is_identity)


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
    assert group_order(P) == 2


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


def test_presentation_text_and_json_round_trip(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert Presentation.from_text(P.to_text()) == P
    assert Presentation.from_json_dict(P.to_json_dict()) == P


# ---------------------------------------------------------------------------
# enumeration


def test_single_involution():
    P = Presentation(("x",), ((0, 0),))
    T = todd_coxeter(P)
    assert T.is_complete and T.num_cosets == 2


def test_klein_four_group():
    P = Presentation(("x", "y"), ((0, 0), (1, 1), (0, 1, 0, 1)))
    assert group_order(P) == 4


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
    assert group_order(P, cap=10) is None


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
        word_is_identity(todd_coxeter(P, cap=100), (0, 0))


def test_order_equals_abelianization_when_abelian(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert group_order(P) == abelianized_order(k33_sys0.M)


def test_order_multiple_of_abelianization(k34_sys0):
    P = solution_presentation(k34_sys0, homogeneous=True)
    assert group_order(P) % abelianized_order(k34_sys0.M) == 0


def test_word_squares_are_identity(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    assert word_is_identity(todd_coxeter(P), (0, 0)) is True


def test_gamma_nontrivial_for_magic_square(k33_sys_e1):
    P = solution_presentation(k33_sys_e1, homogeneous=False)
    gamma = P.gen_index("gamma")
    assert word_is_identity(todd_coxeter(P), (gamma,)) is False
    assert group_order(P) == 32


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
    assert word_is_identity(todd_coxeter(P), (gamma,)) is False


def test_word_validation(k33_sys0):
    P = solution_presentation(k33_sys0, homogeneous=True)
    with pytest.raises(ValueError):
        word_is_identity(todd_coxeter(P), (99,))


def test_rep_words_reject_unreachable_row():
    P = Presentation(("x",), ((0, 0),))
    with pytest.raises(RuntimeError, match="unreachable"):
        coset_rep_words(CosetTable(P, ((0,), (1,)), "complete"))


def test_rep_words_and_csv(table33):
    words = coset_rep_words(table33)
    assert words[0] == ()
    for c, w in enumerate(words):
        assert table33.follow(0, w) == c
    csv = table33.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "coset," + ",".join(table33.presentation.generators)
    assert len(lines) == table33.num_cosets + 1
