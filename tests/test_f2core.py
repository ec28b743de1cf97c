"""F2 linear algebra, system parsing, and incidence systems."""

from __future__ import annotations

import random

import pytest

from lcsq.f2core import (BinMatrix, LinearSystem, SimpleGraph, SystemFormatError,
                         complete_bipartite, incidence_system, parse_graph,
                         parse_system, rank_f2, render_system, solve_f2)
from lcsq.fpgroups import abelianized_order, solution_presentation


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
    assert sys.M.to_lists() == [[1, 1, 1, 0, 0], [1, 0, 0, 1, 1]]
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


# ---------------------------------------------------------------------------
# incidence systems


def test_incidence_single_edge():
    H = SimpleGraph.from_edges(2, [(0, 1)])
    sys = incidence_system(H, (0, 0))
    assert sys.M.to_lists() == [[1], [1]]


def test_incidence_k33():
    H = complete_bipartite(3, 3)
    sys = incidence_system(H, (0,) * 6)
    assert (sys.M.rows, sys.M.cols) == (6, 9)
    # direct enumeration oracle: M[k][i] = 1 iff vertex k is an endpoint of edge i
    expected = [[1 if k in H.edges[i] else 0 for i in range(9)] for k in range(6)]
    assert sys.M.to_lists() == expected
    assert all(sum(row) == 3 for row in sys.M.to_lists())
    cols = sys.M.transpose().to_lists()
    assert all(sum(col) == 2 for col in cols)


def test_incidence_k34_row_degrees():
    H = complete_bipartite(3, 4)
    sys = incidence_system(H, (0,) * 7)
    assert (sys.M.rows, sys.M.cols) == (7, 12)
    assert [sum(row) for row in sys.M.to_lists()] == [4, 4, 4, 3, 3, 3, 3]


def test_incidence_b_length():
    H = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        incidence_system(H, (0, 0, 0))


def test_incidence_disconnected_warns():
    H = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.warns(UserWarning, match="disconnected"):
        incidence_system(H, (0, 0, 0, 0))


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
    sys = LinearSystem(BinMatrix.from_rows([[1, 1]]), (1,))
    assert solve_f2(sys) == (1, 0)


def test_solve_rejects_a_non_solution(monkeypatch):
    # the re-substitution check must raise, not assert, so it survives -O
    sys = LinearSystem(BinMatrix.from_rows([[1, 1]]), (1,))
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
        assert abelianized_order(solution_presentation(sys, homogeneous=True)) == order


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
    return LinearSystem(BinMatrix.from_rows(rows), b)


def test_incidence_columns_always_sum_to_two():
    rng = random.Random(11)
    import warnings
    for _ in range(30):
        H = random_graph(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys = incidence_system(H, (0,) * H.num_vertices)
        for col in sys.M.transpose().to_lists():
            assert sum(col) == 2


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


def test_rank_equals_transpose_rank():
    rng = random.Random(5)
    for _ in range(100):
        M = random_system(rng).M
        assert rank_f2(M) == rank_f2(M.transpose())


def test_desk_scale_elimination_is_instant():
    # a few hundred columns must stay comfortably interactive
    rng = random.Random(71)
    rows = [[rng.randint(0, 1) for _ in range(400)] for _ in range(200)]
    M = BinMatrix.from_rows(rows)
    import time
    start = time.perf_counter()
    r = rank_f2(M)
    rt = rank_f2(M.transpose())
    assert time.perf_counter() - start < 1.0
    assert r == rt <= 200
