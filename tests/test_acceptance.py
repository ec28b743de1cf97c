"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance and runtime bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import random
import time

import numpy as np

from lcsq.f2core import (complete_bipartite, incidence_system, parse_system, rank_f2,
                         solve_f2)
from lcsq.graphs import block_labels, build_G, build_Gstar, sign_vectors
from lcsq.decolor import (canonical_assignment, check_matchings, decolor_edges,
                          decolor_vertices)
from lcsq.fpgroups import regular_table, solution_presentation, todd_coxeter
from lcsq.graphiso import automorphism_group, find_isomorphism
from lcsq.reps import group_algebra_rep, pauli_magic_square_rep, verify_representation
from lcsq.qcert import build_magic_unitary, noncommuting_witness, verify_cert
from oracles import extract_generators, residual, system
from test_reps import as_array

C0 = "shared:-1"
E1 = (1, 0, 0, 0, 0, 0)

DEMO_VERTICES = ["0:+++", "0:+--", "0:-+-", "0:--+",
                    "1:++-", "1:+-+", "1:-++", "1:---"]
DEMO_INTER = {(0, 6), (0, 7), (1, 6), (1, 7), (2, 4), (2, 5), (3, 4), (3, 5)}
DEMO_INTRA = {
    "intra:0:+--": {(0, 1), (2, 3)},
    "intra:0:-+-": {(0, 2), (1, 3)},
    "intra:0:--+": {(0, 3), (1, 2)},
    "intra:1:+--": {(4, 5), (6, 7)},
    "intra:1:-+-": {(4, 6), (5, 7)},
    "intra:1:--+": {(4, 7), (5, 6)},
}


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, detail: str):
    print(f"\nacceptance criterion {number:2d}: PASS  ({detail})")


def k33_sys(b=(0,) * 6):
    return incidence_system(complete_bipartite(3, 3), b)


def k34_sys():
    return incidence_system(complete_bipartite(3, 4), (0,) * 7)


def test_criterion_01_demo_graph_reproduction():
    with Timer() as t:
        sys = parse_system("11100;10011|01")
        G = build_Gstar(sys)
        assert G.num_vertices == 8
        assert list(G.labels) == DEMO_VERTICES
        inter = {(u, v) for (u, v, c) in G.edges if c.startswith("shared:")}
        intra: dict[str, set] = {}
        for (u, v, c) in G.edges:
            if c.startswith("intra:"):
                intra.setdefault(c, set()).add((u, v))
        assert inter == DEMO_INTER
        assert intra == DEMO_INTRA
        assert len(intra) == 6 and all(len(cls) == 2 for cls in intra.values())
    assert t.elapsed < 1.0
    report(1, f"8 vertices, 12+8 edges match the frozen adjacency, {t.elapsed:.3f}s")


def test_criterion_02_classical_unsolvability():
    with Timer() as t:
        assert solve_f2(k33_sys(E1)) is None
        assert solve_f2(k33_sys()) == (0,) * 9
    assert t.elapsed < 1.0
    report(2, f"e1 unsolvable, homogeneous solved by 0, {t.elapsed:.3f}s")


def test_criterion_03_k33_solution_group():
    with Timer() as t:
        sys = k33_sys()
        P = solution_presentation(sys, homogeneous=True)
        table = todd_coxeter(P)
        assert table.is_complete
        assert table.num_cosets == 16 == 1 << (sys.M.cols - rank_f2(sys.M))
        assert regular_table(P).abelian is True
    assert t.elapsed < 5.0
    report(3, f"order 16 = abelianized order, abelian, {t.elapsed:.3f}s")


def test_criterion_04_classical_aut_coincidence():
    with Timer() as t:
        group_order = todd_coxeter(
            solution_presentation(k33_sys(), homogeneous=True)).num_cosets
        aut = automorphism_group(build_Gstar(k33_sys()))
        assert aut.order == 16 == group_order
    assert t.elapsed < 10.0
    report(4, f"Aut order 16 equals group order, {t.elapsed:.3f}s")


def test_criterion_05_non_isomorphism():
    G0, G1 = build_Gstar(k33_sys()), build_Gstar(k33_sys(E1))
    with Timer() as t_colored:
        assert find_isomorphism(G0, G1) is None
    assert t_colored.elapsed < 60.0
    pa = canonical_assignment(G0, C0)
    gpp0 = decolor_edges(decolor_vertices(G0, pa), pa)
    gpp1 = decolor_edges(decolor_vertices(G1, pa), pa)
    assert gpp0.num_vertices == gpp1.num_vertices == 426
    with Timer() as t_plain:
        assert find_isomorphism(gpp0, gpp1) is None
    assert t_plain.elapsed < 60.0
    report(5, f"colored {t_colored.elapsed:.2f}s, uncolored 426-vertex "
              f"{t_plain.elapsed:.2f}s, both non-isomorphic")


def test_criterion_06_pauli_representation():
    rep = pauli_magic_square_rep(E1)
    result = verify_representation(rep, k33_sys(E1))
    assert result.passed
    assert result.max_residual == 0.0
    prod = np.eye(4, dtype=complex)
    for i in k33_sys(E1).support(0):
        prod = prod @ as_array(rep.images[i])
    assert np.linalg.norm(prod + np.eye(4)) < 1e-12
    report(6, f"max residual {result.max_residual:.2e}, "
              "distinguished product = -identity")


def test_criterion_07_quantum_isomorphism_certificate():
    with Timer() as t:
        cert = build_magic_unitary(build_Gstar(k33_sys()),
                                   build_Gstar(k33_sys(E1)),
                                   pauli_magic_square_rep(E1))
        result = verify_cert(cert)
        assert result.passed
        assert result.max_residual == 0.0
        names = {n for n, _, _ in result.families}
        intertwine = {n for n in names if n.startswith("intertwine:")}
        palette = set(cert.row_graph.edge_palette())
        assert intertwine == {f"intertwine:{p}" for p in palette}
        assert {"block_equal", "block_commute"} <= names
    assert t.elapsed < 30.0
    report(7, f"iso certificate residual {result.max_residual:.2e} over "
              f"{len(intertwine)} colors, {t.elapsed:.2f}s")


def test_criterion_08_round_trip():
    rep = pauli_magic_square_rep(E1)
    cert = build_magic_unitary(build_Gstar(k33_sys()), build_Gstar(k33_sys(E1)), rep)
    extraction = extract_generators(cert, rep)
    assert len(extraction.generators) == 9
    assert extraction.cross_block_discrepancy == 0.0
    assert extraction.roundtrip_residual == 0.0
    report(8, f"discrepancy {extraction.cross_block_discrepancy:.2e}, "
              f"round trip {extraction.roundtrip_residual:.2e}")


def test_criterion_09_k34_quantum_symmetry():
    with Timer() as t:
        sys = k34_sys()
        P = solution_presentation(sys, homogeneous=True)
        table = regular_table(P)  # default cap; a cap hit fails here
        assert table is not None, "coset enumeration hit the cap"
        assert table.num_cosets > 64
        rep = group_algebra_rep(table)
        cert = build_magic_unitary(build_Gstar(sys), build_Gstar(sys), rep)
        result = verify_cert(cert)
        assert result.passed
        assert result.max_residual == 0.0
        witness = noncommuting_witness(cert)
        assert witness is not None
    assert t.elapsed < 600.0
    report(9, f"order {table.num_cosets} > 64, exact certificate, witness "
              f"{witness[0]}x{witness[1]}, {t.elapsed:.2f}s")


def test_criterion_10_matching_property():
    with Timer() as t:
        rng = random.Random(4)
        for sys in (k33_sys(), k34_sys()):
            G = build_Gstar(sys)
            pa = canonical_assignment(G, C0)
            Gp = decolor_vertices(G, pa)
            ok, offender = check_matchings(Gp, C0)
            assert ok and offender is None
            intra = [i for i, (_, _, c) in enumerate(Gp.edges)
                     if c.startswith("intra:")]
            pick = rng.choice(intra)
            u, v, c = Gp.edges[pick]
            block = c.split(":")[1]
            other = next(cc for (_, _, cc) in Gp.edges
                         if cc.startswith(f"intra:{block}:") and cc != c)
            mutated = Gp.edges[:pick] + ((u, v, other),) + Gp.edges[pick + 1:]
            from lcsq.graphs import ColoredGraph
            broken = ColoredGraph(Gp.labels, Gp.vertex_colors, mutated, Gp.meta)
            ok, offender = check_matchings(broken, C0)
            assert not ok and offender is not None
    assert t.elapsed < 5.0
    report(10, f"matchings hold for K33/K34, seeded mutation caught, "
               f"{t.elapsed:.2f}s")


def test_criterion_11_property_suites():
    # certificate-level properties on every built certificate
    certs = []
    rep = pauli_magic_square_rep(E1)
    cert_pauli = build_magic_unitary(build_Gstar(k33_sys()), build_Gstar(k33_sys(E1)), rep)
    certs.append(("pauli-iso", cert_pauli, rep))
    sys33, sys34 = k33_sys(), k34_sys()
    for name, sys in (("k33-qut", sys33), ("k34-qut", sys34)):
        P = solution_presentation(sys, homogeneous=True)
        rep = group_algebra_rep(regular_table(P))
        G = build_Gstar(sys)
        certs.append((name, build_magic_unitary(G, G, rep), rep))

    for name, cert, rep in certs:
        result = verify_cert(cert)
        for family in ("row_sum", "col_sum", "projection",
                       "block_equal", "block_commute"):
            assert residual(result, family) == 0.0, (name, family)

        # parity vanishing: wrong-parity projections collapse to zero
        s1, s2 = cert.row_graph.system(), cert.col_graph.system()
        for k in range(s1.num_constraints):
            for delta in sign_vectors(s1.support(k), 1 ^ s1.b[k] ^ s2.b[k]):
                v = None
                for i, sign in zip(s1.support(k), delta):
                    p = rep.projection(i, 1 if sign == "+" else -1)
                    v = p if v is None else v * p
                assert v.residual_norm() == 0.0, (name, k)

        # orthogonality relations: u_{ij} u_{kl} = 0 for an edge of one color
        # against a non-edge of that color; exhaustive on block 0, sampled
        # over the whole graph
        rng = random.Random(11)
        G1, G2 = cert.row_graph, cert.col_graph
        ecolors1 = {(u, v): c for (u, v, c) in G1.edges}
        ecolors2 = {(u, v): c for (u, v, c) in G2.edges}
        zero = cert.zero()

        def entry(c, i, j):
            return c.entries.get((i, j), zero)

        block0 = [i for i, (k, _) in enumerate(block_labels(G1)) if k == 0]
        checked = 0
        for i in block0:
            for k in block0:
                if i == k:
                    continue
                c_ik = ecolors1.get((min(i, k), max(i, k)))
                for j in block0:
                    for l in block0:
                        if j == l:
                            continue
                        if ecolors2.get((min(j, l), max(j, l))) != c_ik:
                            prod = entry(cert, i, j) * entry(cert, k, l)
                            assert prod.residual_norm() == 0.0, (name, i, j, k, l)
                            checked += 1
        n1, n2 = G1.num_vertices, G2.num_vertices
        for _ in range(200):
            i, k = rng.randrange(n1), rng.randrange(n1)
            j, l = rng.randrange(n2), rng.randrange(n2)
            if i == k or j == l:
                continue
            if ecolors1.get((min(i, k), max(i, k))) != \
                    ecolors2.get((min(j, l), max(j, l))):
                prod = entry(cert, i, j) * entry(cert, k, l)
                assert prod.residual_norm() == 0.0, (name, i, j, k, l)
                checked += 1
        assert checked > 100

    # decoloring count formulas over 50 randomized small systems
    rng = random.Random(2718)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        for row in rows:
            if not any(row):
                row[rng.randrange(n)] = 1
        sys = system(rows, tuple(rng.randint(0, 1) for _ in range(m)))
        G = build_G(sys)
        if not G.edges:
            continue
        pa = canonical_assignment(G, G.edge_palette()[0])
        Gp = decolor_vertices(G, pa)
        assert Gp.num_vertices == G.num_vertices + sum(
            pa.vertex_length(G.vertex_colors[v]) for v in range(G.num_vertices))
        Gpp = decolor_edges(Gp, pa)
        assert Gpp.num_vertices == Gp.num_vertices + sum(
            1 + pa.edge_length(c) for (_, _, c) in Gp.edges
            if c != pa.c0)

    report(11, "certificate property suites exact, count formulas "
               "hold on 50 random systems")
