"""Shared fixtures: the K3,3 / K3,4 systems, their graphs, groups, and
certificates.  Session-scoped because several are reused by many tests."""

from __future__ import annotations

import pytest

from lcsq.f2core import complete_bipartite, incidence_system, parse_system
from lcsq.graphs import build_Gstar
from lcsq.decolor import canonical_assignment, decolor_vertices, decolor_edges
from lcsq.fpgroups import regular_table, solution_presentation, todd_coxeter
from lcsq.reps import pauli_magic_square_rep, group_algebra_rep
from lcsq.qcert import build_magic_unitary

C0 = "shared:-1"
E1_33 = (1, 0, 0, 0, 0, 0)
E1_34 = (1, 0, 0, 0, 0, 0, 0)


@pytest.fixture(scope="session")
def demo_sys():
    return parse_system("11100;10011|01")


@pytest.fixture(scope="session")
def k33_sys0():
    return incidence_system(complete_bipartite(3, 3), (0,) * 6)


@pytest.fixture(scope="session")
def k33_sys_e1():
    return incidence_system(complete_bipartite(3, 3), E1_33)


@pytest.fixture(scope="session")
def k34_sys0():
    return incidence_system(complete_bipartite(3, 4), (0,) * 7)


@pytest.fixture(scope="session")
def gstar33_0(k33_sys0):
    return build_Gstar(k33_sys0)


@pytest.fixture(scope="session")
def gstar33_e1(k33_sys_e1):
    return build_Gstar(k33_sys_e1)


@pytest.fixture(scope="session")
def gstar34(k34_sys0):
    return build_Gstar(k34_sys0)


@pytest.fixture(scope="session")
def gpp33_pair(gstar33_0, gstar33_e1):
    pa = canonical_assignment(gstar33_0, C0)
    gpp0 = decolor_edges(decolor_vertices(gstar33_0, pa), pa)
    gpp1 = decolor_edges(decolor_vertices(gstar33_e1, pa), pa)
    return gpp0, gpp1


@pytest.fixture(scope="session")
def gpp34(gstar34):
    pa = canonical_assignment(gstar34, C0)
    return decolor_edges(decolor_vertices(gstar34, pa), pa)


@pytest.fixture(scope="session")
def gpp34_e1(gstar34):
    pa = canonical_assignment(gstar34, C0)
    gstar = build_Gstar(incidence_system(complete_bipartite(3, 4), E1_34))
    return decolor_edges(decolor_vertices(gstar, pa), pa)


def _gpp_pair(p, q):
    """The G'' of K_{p,q} with b = 0 and b = e1, both decolored with the
    b = 0 graph's canonical assignment."""
    gstars = [build_Gstar(incidence_system(complete_bipartite(p, q), b))
              for b in ((0,) * (p + q), (1,) + (0,) * (p + q - 1))]
    pa = canonical_assignment(gstars[0], C0)
    return tuple(decolor_edges(decolor_vertices(G, pa), pa) for G in gstars)


@pytest.fixture(scope="session")
def gpp44_pair():
    return _gpp_pair(4, 4)


@pytest.fixture(scope="session")
def gpp35_pair():
    return _gpp_pair(3, 5)


@pytest.fixture(scope="session")
def table33(k33_sys0):
    return todd_coxeter(solution_presentation(k33_sys0, homogeneous=True))


@pytest.fixture(scope="session")
def table34(k34_sys0):
    return todd_coxeter(solution_presentation(k34_sys0, homogeneous=True))


@pytest.fixture(scope="session")
def regular33(k33_sys0):
    """Gamma_0 of K3,3 on star coordinates, as `lcsq cert --rep regular`
    builds it."""
    return regular_table(solution_presentation(k33_sys0, homogeneous=True))


@pytest.fixture(scope="session")
def regular34(k34_sys0):
    return regular_table(solution_presentation(k34_sys0, homogeneous=True))


@pytest.fixture(scope="session")
def pauli_rep():
    return pauli_magic_square_rep(0)


@pytest.fixture(scope="session")
def pauli_cert(gstar33_0, gstar33_e1, pauli_rep):
    return build_magic_unitary(gstar33_0, gstar33_e1, pauli_rep)


@pytest.fixture(scope="session")
def regular_rep33(regular33):
    return group_algebra_rep(regular33)


@pytest.fixture(scope="session")
def regular_rep34(regular34):
    return group_algebra_rep(regular34)


@pytest.fixture(scope="session")
def exact_cert33(gstar33_0, regular_rep33):
    return build_magic_unitary(gstar33_0, gstar33_0, regular_rep33)


@pytest.fixture(scope="session")
def exact_cert34(gstar34, regular_rep34):
    return build_magic_unitary(gstar34, gstar34, regular_rep34)
