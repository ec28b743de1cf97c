"""F2 linear algebra, system parsing, and incidence systems."""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from lcsq.f2core import (BinMatrix, LinearSystem, SimpleGraph, SystemFormatError,
                         complete_bipartite, echelon_basis, incidence_system,
                         parse_graph, parse_system, rank_f2, reduce_f2, render_system,
                         solve_f2)
from lcsq.fpgroups import solution_presentation, star_subgroup
from oracles import abelianized_order, components, system, transpose


def rowspace_size(M: BinMatrix) -> int:
    """Independent rank oracle: enumerate the full row space (2^rank)."""
    space = {0}
    for row in M.bits:
        space |= {v ^ row for v in space}
    return len(space)


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_block_demo():
    sys = parse_system("11100;10011|01")
    assert [sys.support(k) for k in range(2)] == [(0, 1, 2), (0, 3, 4)]
    assert sys.b == (0, 1)


def test_parse_smallest():
    sys = parse_system("1|0")
    assert sys.M.rows == sys.M.cols == 1
    assert sys.b == (0,)


def test_parse_row_length_mismatch():
    with pytest.raises(SystemFormatError) as err:
        parse_system("111;11|00")
    assert "row length mismatch" in str(err.value)
    assert err.value.line == 1
    assert err.value.column == 5


def test_parse_non_binary_digit():
    with pytest.raises(SystemFormatError) as err:
        parse_system("1x1|0")
    assert "non-binary" in str(err.value)
    assert err.value.column == 2


def test_parse_b_length_mismatch():
    with pytest.raises(SystemFormatError) as err:
        parse_system("11;10|1")
    assert "right-hand side" in str(err.value)


def test_parse_missing_bar():
    with pytest.raises(SystemFormatError):
        parse_system("101;110")


def test_parse_multiline_reports_line():
    with pytest.raises(SystemFormatError) as err:
        parse_system("111;\n1z1|00")
    assert err.value.line == 2


def test_render_round_trip():
    text = "11100;10011|01"
    assert render_system(parse_system(text)) == text


def test_parse_graph_format():
    H = parse_graph("3\n1 2\n2 3\n")
    assert H.num_vertices == 3
    assert H.edges == ((0, 1), (1, 2))


def test_parse_graph_errors():
    with pytest.raises(SystemFormatError):
        parse_graph("2\n1 3\n")
    with pytest.raises(SystemFormatError):
        parse_graph("2\n1\n")
    with pytest.raises(SystemFormatError):
        parse_graph("")
    with pytest.raises(SystemFormatError, match="vertex count -3 is negative") as err:
        parse_graph("# no vertices\n-3\n")
    assert (err.value.line, err.value.column) == (2, 1)


# ---------------------------------------------------------------------------
# incidence systems


def test_incidence_single_edge():
    H = SimpleGraph.from_edges(2, [(0, 1)])
    sys = incidence_system(H, (0, 0))
    assert sys.M.bits == (1, 1)


def test_incidence_k33():
    H = complete_bipartite(3, 3)
    sys = incidence_system(H, (0,) * 6)
    assert (sys.M.rows, sys.M.cols) == (6, 9)
    # direct enumeration oracle: M[k][i] = 1 iff vertex k is an endpoint of edge i
    expected = [tuple(i for i in range(9) if k in H.edges[i]) for k in range(6)]
    assert [sys.support(k) for k in range(6)] == expected
    assert all(len(sys.support(k)) == 3 for k in range(6))
    cols = transpose(sys.M)
    assert all(len(cols.support(i)) == 2 for i in range(9))


def test_incidence_k34_row_degrees():
    H = complete_bipartite(3, 4)
    sys = incidence_system(H, (0,) * 7)
    assert (sys.M.rows, sys.M.cols) == (7, 12)
    assert [len(sys.support(k)) for k in range(7)] == [4, 4, 4, 3, 3, 3, 3]


def test_incidence_b_length():
    H = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        incidence_system(H, (0, 0, 0))


def test_incidence_disconnected_warns():
    H = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.warns(UserWarning, match="disconnected"):
        incidence_system(H, (0, 0, 0, 0))


@st.composite
def graphs_with_edges(draw):
    """A random graph on 2 to 8 vertices with at least one edge, often with
    isolated vertices and several components."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph.from_edges(n, draw(st.lists(st.sampled_from(pairs), min_size=1,
                                                   unique=True)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_edges())
@example(complete_bipartite(3, 4))
@example(SimpleGraph.from_edges(4, [(0, 3), (3, 1), (1, 2)]))  # a path
@example(SimpleGraph.from_edges(3, [(0, 1)]))  # an isolated vertex
@example(SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))  # three components
@example(SimpleGraph.from_edges(7, [(1, 2), (4, 6)]))  # five, three of them isolated
def test_incidence_warns_exactly_when_disconnected(H):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        incidence_system(H, (0,) * H.num_vertices)
    expected = (["graph is disconnected; downstream constructions assume a connected graph"]
                if components(H.num_vertices, H.edges) > 1 else [])
    assert [str(w.message) for w in caught] == expected


# ---------------------------------------------------------------------------
# rank / solve / abelianized order


def test_rank_identity():
    assert rank_f2(BinMatrix(3, 3, (0b001, 0b010, 0b100))) == 3


def test_rank_zero():
    assert rank_f2(BinMatrix(2, 5, (0, 0))) == 0


def test_rank_k33_against_rowspace_oracle():
    M = incidence_system(complete_bipartite(3, 3), (0,) * 6).M
    assert rowspace_size(M) == 2 ** 5
    assert rank_f2(M) == 5


def test_solve_homogeneous_k33():
    sys = incidence_system(complete_bipartite(3, 3), (0,) * 6)
    assert solve_f2(sys) == (0,) * 9


def test_solve_k33_e1_unsolvable():
    sys = incidence_system(complete_bipartite(3, 3), (1, 0, 0, 0, 0, 0))
    assert solve_f2(sys) is None
    # inconsistency certificate: augmenting with b raises the rank
    aug = BinMatrix(6, 10, tuple(r | (b << 9) for r, b in zip(sys.M.bits, sys.b)))
    assert rank_f2(aug) == rank_f2(sys.M) + 1


def test_solve_single_equation():
    sys = system([[1, 1]], (1,))
    assert solve_f2(sys) == (1, 0)


def test_solve_rejects_a_non_solution(monkeypatch):
    # the re-substitution check must raise, not assert, so it survives -O
    sys = system([[1, 1]], (1,))
    monkeypatch.setattr(BinMatrix, "mul_vec", lambda self, x: 0)
    with pytest.raises(RuntimeError, match="non-solution"):
        solve_f2(sys)


def test_abelianized_orders():
    # the abelianization of the homogeneous solution group is F2^n / rowspace(M)
    identity5 = BinMatrix(5, 5, tuple(1 << i for i in range(5)))
    for sys, order in ((incidence_system(complete_bipartite(3, 3), (0,) * 6), 16),
                       (incidence_system(complete_bipartite(3, 4), (0,) * 7), 64),
                       (LinearSystem(identity5, (0,) * 5), 1)):
        assert 1 << (sys.M.cols - rank_f2(sys.M)) == order
        P = solution_presentation(sys, homogeneous=True)
        assert abelianized_order(P) == star_subgroup(P).abelianized_order == order


# ---------------------------------------------------------------------------
# properties


def random_graph(rng: random.Random) -> SimpleGraph:
    n = rng.randint(2, 7)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(possible, rng.randint(1, len(possible)))
    return SimpleGraph.from_edges(n, edges)


def random_system(rng: random.Random) -> LinearSystem:
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    b = tuple(rng.randint(0, 1) for _ in range(m))
    return system(rows, b)


def test_incidence_columns_always_sum_to_two():
    rng = random.Random(11)
    for _ in range(30):
        H = random_graph(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys = incidence_system(H, (0,) * H.num_vertices)
        cols = transpose(sys.M)
        for i in range(cols.rows):
            assert len(cols.support(i)) == 2


def test_solve_agrees_with_rank_criterion():
    rng = random.Random(23)
    for _ in range(200):
        sys = random_system(rng)
        x = solve_f2(sys)
        n = sys.M.cols
        aug = BinMatrix(sys.M.rows, n + 1,
                        tuple(r | (b << n) for r, b in zip(sys.M.bits, sys.b)))
        consistent = rank_f2(aug) == rank_f2(sys.M)
        assert (x is not None) == consistent
        if x is not None:
            b_vec = sum(b << i for i, b in enumerate(sys.b))
            assert sys.M.mul_vec(sum(v << i for i, v in enumerate(x))) == b_vec


def test_reduction_is_canonical_on_every_coset_of_the_span():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 6)
        vectors = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        basis = echelon_basis(vectors, n)
        span = {0}
        for row in vectors:
            span |= {v ^ row for v in span}
        assert 1 << len(basis) == len(span)
        pivots = [row & -row for row in basis]
        assert all(row & p == 0 for row in basis for p in pivots if p != row & -row)
        for v in range(1 << n):
            r = reduce_f2(basis, v)
            assert (r == 0) == (v in span)
            assert r ^ v in span and all(r & p == 0 for p in pivots)
            assert {reduce_f2(basis, v ^ w) for w in span} == {r}


def test_rank_equals_transpose_rank():
    rng = random.Random(5)
    for _ in range(100):
        M = random_system(rng).M
        assert rank_f2(M) == rank_f2(transpose(M))


def test_desk_scale_elimination_is_instant():
    # a few hundred columns must stay comfortably interactive
    rng = random.Random(71)
    rows = [[rng.randint(0, 1) for _ in range(400)] for _ in range(200)]
    M = system(rows, [0] * len(rows)).M
    import time
    start = time.perf_counter()
    r = rank_f2(M)
    rt = rank_f2(transpose(M))
    assert time.perf_counter() - start < 1.0
    assert r == rt <= 200
