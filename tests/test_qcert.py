"""Magic-unitary certificates: construction, verification, round trip,
witnesses, lifting, and the algebraic property suites."""

from __future__ import annotations

import dataclasses
import functools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcsq.f2core import SimpleGraph, incidence_system
from lcsq.graphs import (ColoredGraph, block_labels, build_G, build_Gstar, parse_graph_json,
                         serialize, sign_vectors)
from lcsq.fpgroups import Presentation, regular_table, solution_presentation
from lcsq.graphiso import automorphism_group
from lcsq.reps import (DenseElement, GroupAlgebraElement, Representation,
                       _Dyadic, group_algebra_rep)
from lcsq.qcert import (CertificateError, MagicUnitaryCert, VerificationReport,
                        _decode, build_magic_unitary, lift_cert,
                        noncommuting_witness, verify_cert)
from oracles import extract_generators, plain_verify, residual, system
from test_reps import as_array


def tiny_system():
    return system([[1, 1]], (0,))


def tiny_rep():
    one = DenseElement.identity(1)
    return Representation([one, one])


def tiny_cert():
    G = build_G(tiny_system())
    return build_magic_unitary(G, G, tiny_rep())


def make_classical_cert(G1: ColoredGraph, G2: ColoredGraph,
                        mapping: dict[int, int]) -> MagicUnitaryCert:
    """0/1 scalar certificate of a classical bijection (entries are 1x1)."""
    if sorted(mapping) != list(range(G1.num_vertices)) or \
            sorted(mapping.values()) != list(range(G2.num_vertices)):
        raise CertificateError("mapping is not a bijection between the vertex sets")
    one = DenseElement.identity(1)
    entries = {(v, w): one for v, w in mapping.items()}
    return MagicUnitaryCert(G1, G2, entries, one, provenance="classical")


# ---------------------------------------------------------------------------
# construction


def test_trivial_one_dimensional_cert():
    cert = tiny_cert()
    assert as_array(cert.entry(0, 0)).tolist() == [[1.0]]
    assert as_array(cert.entry(1, 1)).tolist() == [[1.0]]
    assert cert.entry(0, 1).residual_norm() == 0.0
    assert cert.entry(1, 0).residual_norm() == 0.0
    assert verify_cert(cert).passed


def test_pauli_cert_block_structure(pauli_cert):
    assert len(pauli_cert.entries) == 96  # six 4x4 blocks
    rows = block_labels(pauli_cert.row_graph)
    cols = block_labels(pauli_cert.col_graph)
    blocks = {rows[i][0] for (i, j) in pauli_cert.entries}
    assert blocks == set(range(6))
    for (i, j), elem in pauli_cert.entries.items():
        assert rows[i][0] == cols[j][0]
        assert elem.algebra == 4
    # one distinct element per (block, delta): 6 blocks x 4 deltas
    assert len(pauli_cert.distinct_elements()) == 24


def test_pauli_cert_verifies(pauli_cert):
    report = verify_cert(pauli_cert)
    assert report.passed
    assert report.max_residual == 0.0
    names = {n for n, _, _ in report.families}
    assert {"projection", "row_sum", "col_sum", "color",
            "block_equal", "block_commute"} <= names
    assert any(n.startswith("intertwine:intra:") for n in names)
    assert any(n.startswith("intertwine:shared:") for n in names)


def test_exact_certs_verify(exact_cert33, exact_cert34):
    assert verify_cert(exact_cert33).passed
    report = verify_cert(exact_cert34)
    assert report.passed
    assert report.max_residual == 0.0


def test_build_rejects_wrong_representation(gstar33_0, pauli_rep):
    # b + b' = 0 but the Pauli rep represents b + b' = e1
    with pytest.raises(CertificateError, match="fails"):
        build_magic_unitary(gstar33_0, gstar33_0, pauli_rep)


def test_build_rejects_mismatched_graphs(gstar33_0, gstar34, pauli_rep):
    with pytest.raises(CertificateError, match="different matrices"):
        build_magic_unitary(gstar33_0, gstar34, pauli_rep)


# G(M, b) of the demo system with one thing wrong: vertex 5 ("1:+-+") gets
# another label, or the metadata loses its system
LABEL_MUTANTS = {
    "leading-zero": ("01:+-+", True),
    "block-out-of-range": ("2:+-+", True),
    "wrong-length": ("1:+-", True),
    "foreign-character": ("1:+0+", True),
    "decolored-id": ("orig:5", True),
    "no-system": ("1:+-+", False),
}


@pytest.mark.parametrize("name", sorted(LABEL_MUTANTS))
def test_graphs_not_block_labelled(demo_sys, name):
    label, keep_system = LABEL_MUTANTS[name]
    G = build_G(demo_sys)
    assert G.labels[5] == "1:+-+"
    meta = G.meta if keep_system else {"construction": "G"}
    mutant = dataclasses.replace(G, labels=G.labels[:5] + (label,) + G.labels[6:], meta=meta)
    assert block_labels(mutant) is None
    assert block_labels(parse_graph_json(serialize(mutant))) is None
    # the all-ones scalar representation solves the homogeneous system
    one = DenseElement.identity(1)
    rep = Representation([one] * demo_sys.num_vars)
    with pytest.raises(CertificateError, match="not block-labelled"):
        build_magic_unitary(mutant, mutant, rep)
    cert = build_magic_unitary(G, G, rep)
    names = {n for n, _, _ in verify_cert(cert).families}
    assert {"block_equal", "block_commute"} <= names
    report = verify_cert(dataclasses.replace(cert, row_graph=mutant, col_graph=mutant))
    assert report.passed
    assert not [n for n, _, _ in report.families if n.startswith("block_")]


def test_non_square_cert_fails_a_sum():
    # u[0, 0] = u[1, 1] = 1 over two and three vertices: every row sums to
    # the identity, column 2 to zero; a failure, not an exception
    one = DenseElement.identity(1)
    cert = MagicUnitaryCert(plain_graph(2, []), plain_graph(3, []),
                            {(0, 0): one, (1, 1): one}, one)
    report = verify_cert(cert)
    assert not report.passed
    assert residual(report, "row_sum") == 0.0
    assert report.worst == ("col_sum", 1.0, "col 2")


# ---------------------------------------------------------------------------
# negative controls


def corrupt_swap_columns(cert, j1, j2):
    entries = {}
    for (i, j), elem in cert.entries.items():
        if j == j1:
            j = j2
        elif j == j2:
            j = j1
        entries[(i, j)] = elem
    return MagicUnitaryCert(cert.row_graph, cert.col_graph, entries,
                            cert.identity, provenance="corrupted")


def test_swapped_block_columns_fail_with_named_color(pauli_cert):
    bad = corrupt_swap_columns(pauli_cert, 0, 1)  # two vertices of block 0
    report = verify_cert(bad)
    assert not report.passed
    failing = [n for n, r, _ in report.families if r > 1e-10]
    assert any(n.startswith("intertwine:intra:0:") for n in failing)
    assert "block_equal" in failing


def replace_entry(cert, key, elem):
    entries = dict(cert.entries)
    entries[key] = elem
    return MagicUnitaryCert(cert.row_graph, cert.col_graph, entries,
                            cert.identity, provenance="corrupted")


def test_each_family_catches_its_own_corruption(pauli_cert):
    # dropped entry: row and column sums miss a projection
    entries = dict(pauli_cert.entries)
    del entries[(0, 0)]
    dropped = MagicUnitaryCert(pauli_cert.row_graph, pauli_cert.col_graph, entries,
                               pauli_cert.identity)
    report = verify_cert(dropped)
    assert residual(report, "row_sum") > 1e-6
    assert residual(report, "col_sum") > 1e-6

    # non-idempotent entry: the projection family must flag it
    half = DenseElement(0.5 * as_array(pauli_cert.entries[(0, 0)]))
    report = verify_cert(replace_entry(pauli_cert, (0, 0), half))
    assert residual(report, "projection") > 1e-6

    # non-self-adjoint entry
    skew = DenseElement(as_array(pauli_cert.entries[(0, 0)]) * 1j)
    report = verify_cert(replace_entry(pauli_cert, (0, 0), skew))
    assert residual(report, "projection") > 1e-6

    # breaking one entry of a (block, delta) class splits block_equal
    other = pauli_cert.entries[(0, 1)]
    report = verify_cert(replace_entry(pauli_cert, (0, 0), other))
    assert residual(report, "block_equal") > 1e-6
    assert not report.passed


def test_exact_corruption_is_flagged(exact_cert34):
    key = next(iter(sorted(exact_cert34.entries)))
    bad = replace_entry(exact_cert34, key, exact_cert34.entries[key].halve())
    report = verify_cert(bad)
    assert not report.passed
    assert report.max_residual > 0.0


# the ids name each certificate's kind: Pauli's is a quantum isomorphism,
# a regular one a quantum automorphism
@pytest.mark.parametrize("cert_name", ["pauli_cert", "exact_cert33"],
                         ids=["pauli_cert-iso", "exact_cert33-qut"])
def test_mixed_element_shapes_are_a_failing_family(request, cert_name):
    # one entry over another algebra: a 1x1 matrix among 4x4 ones, or an
    # element of another group's algebra among the K3,3 group algebra's
    cert = request.getfixturevalue(cert_name)
    assert "shape" not in {name for name, _, _ in verify_cert(cert).families}
    if cert.identity.backend == "dense":
        aliens = [DenseElement.identity(1), DenseElement.identity(2)]
    else:
        z2 = regular_table(Presentation(("x",), ((0, 0),)))
        aliens = [GroupAlgebraElement.basis_element(z2, 0) for _ in range(2)]
    keys = sorted(cert.entries)
    bad = replace_entry(replace_entry(cert, keys[9], aliens[0]), keys[5], aliens[1])
    report = verify_cert(bad)
    assert not report.passed
    assert [name for name, _, _ in report.families] == ["projection", "shape", "color"]
    assert report.worst == ("shape", 1.0, f"entry {keys[5]}")  # the first in key order
    # each alien is itself a projection, so only its algebra fails
    assert residual(report, "projection") == 0.0
    # the witness search names the same entry before it multiplies anything
    with pytest.raises(CertificateError, match=re.escape(f"shape: entry {keys[5]} ")):
        noncommuting_witness(bad)


@pytest.mark.parametrize("cert_name", ["pauli_cert", "exact_cert34"],
                         ids=["pauli_cert-iso", "exact_cert34-qut"])
@pytest.mark.parametrize("entries", ["zero", "absent"])
def test_zero_identity_is_a_failing_family(request, cert_name, entries):
    # a zero identity makes every sum and product relation hold trivially,
    # with every entry zero or with none stored
    cert = request.getfixturevalue(cert_name)
    zero = cert.zero()
    bad = MagicUnitaryCert(cert.row_graph, cert.col_graph,
                           dict.fromkeys(cert.entries, zero) if entries == "zero" else {},
                           zero)
    report = verify_cert(bad)
    assert not report.passed
    assert [name for name, _, _ in report.families] == ["projection", "shape", "color"]
    assert report.worst == ("shape", 1.0, "identity")
    with pytest.raises(CertificateError, match="shape: identity is not a nonzero projection"):
        noncommuting_witness(bad)


@pytest.mark.parametrize("cert_name", ["pauli_cert", "exact_cert34"],
                         ids=["pauli_cert-iso", "exact_cert34-qut"])
def test_identity_must_be_a_nonzero_projection(request, cert_name):
    # twice the unit is nonzero and self-adjoint but not idempotent, while a
    # nonzero projection other than the unit passes the identity's check
    cert = request.getfixturevalue(cert_name)
    one = cert.identity
    twice = dataclasses.replace(cert, identity=one + one)
    assert verify_cert(twice).worst == ("shape", 1.0, "identity")
    projection = next(elem for _, elem in cert.distinct_elements() if elem != one)
    report = verify_cert(dataclasses.replace(cert, identity=projection))
    assert not report.passed
    assert "shape" not in {name for name, _, _ in report.families}


@pytest.mark.parametrize("fault", ["identity", "algebra"])
def test_shape_fault_keeps_the_color_family(pauli_cert, fault):
    # a shape fault ends the report after its color family, which still
    # names an entry between vertex colors: (0, 4) joins blocks 0 and 1
    bad = replace_entry(pauli_cert, (0, 4), pauli_cert.entries[(4, 4)])
    if fault == "identity":
        bad = dataclasses.replace(bad, identity=bad.identity + bad.identity)
    else:
        bad = replace_entry(bad, sorted(bad.entries)[9], DenseElement.identity(1))
    report = verify_cert(bad)
    assert [name for name, _, _ in report.families] == ["projection", "shape", "color"]
    assert residual(report, "color") > 0
    assert_equals_plain(bad)


def test_extract_without_block_table(pauli_cert, pauli_rep):
    # a certificate assembled from a copy of the entries alone: extraction
    # reads the (block, delta) elements back from the entries
    rebuilt = MagicUnitaryCert(pauli_cert.row_graph, pauli_cert.col_graph,
                               dict(pauli_cert.entries), pauli_cert.identity)
    report = extract_generators(rebuilt, pauli_rep)
    assert report.cross_block_discrepancy == 0.0
    assert report.roundtrip_residual == 0.0


def test_classical_transposition_fails(gstar33_0):
    mapping = {v: v for v in range(24)}
    mapping[0], mapping[4] = 4, 0  # vertices of different blocks
    bad = make_classical_cert(gstar33_0, gstar33_0, mapping)
    report = verify_cert(bad)
    assert not report.passed
    assert residual(report, "color") > 0


# ---------------------------------------------------------------------------
# classical certificates


def test_identity_certificate_passes(gstar33_0):
    cert = make_classical_cert(gstar33_0, gstar33_0,
                               {v: v for v in range(24)})
    assert verify_cert(cert).passed
    assert noncommuting_witness(cert) is None


def test_nontrivial_automorphism_certificate(gstar33_0):
    aut = automorphism_group(gstar33_0)
    g = aut.generators[0]
    cert = make_classical_cert(gstar33_0, gstar33_0, dict(enumerate(g)))
    assert verify_cert(cert).passed


def test_classical_edge_break_fails_only_intertwining(gstar33_0):
    # swapping two vertices of block 0 keeps every vertex color but breaks
    # edges; a 1x1 entry's residual is the largest |(A u - u A)_ij|, an integer
    n = gstar33_0.num_vertices
    mapping = {v: v for v in range(n)}
    mapping[0], mapping[1] = 1, 0
    report = verify_cert(make_classical_cert(gstar33_0, gstar33_0, mapping))
    failing = [name for name, r, _ in report.families if r > 0]
    assert failing and all(name.startswith("intertwine:") for name in failing)

    perm = np.zeros((n, n))
    for v, w in mapping.items():
        perm[v, w] = 1.0
    classes = {}
    for (u, v, c) in gstar33_0.edges:
        classes.setdefault(f"intertwine:{c}", []).append((u, v))
    for name, pairs in classes.items():
        adj = np.zeros((n, n))
        for (u, v) in pairs:
            adj[u, v] = adj[v, u] = 1.0
        expected = float(np.abs(adj @ perm - perm @ adj).max())
        assert residual(report, name) == expected == int(expected)


def test_edge_only_in_column_graph_fails_intertwining(gstar33_0):
    # the identity map from G* minus one edge onto G*: the missing edge shows
    # up only on the u A_G' side of the relation
    u, v, c = gstar33_0.edges[0]
    sparser = dataclasses.replace(gstar33_0, edges=gstar33_0.edges[1:])
    cert = make_classical_cert(sparser, gstar33_0, {w: w for w in range(24)})
    report = verify_cert(cert)
    assert residual(report, f"intertwine:{c}") == 1.0
    assert not report.passed


def test_edge_color_only_in_column_graph_has_its_family(pauli_cert):
    # one column-graph edge recolored to a color the row graph lacks: its
    # family is formed from the column graph's neighbours alone
    (u, v, _), *rest = pauli_cert.col_graph.edges
    recolored = dataclasses.replace(pauli_cert.col_graph,
                                    edges=((u, v, "plain:0"), *rest))
    cert = dataclasses.replace(pauli_cert, col_graph=recolored)
    report = verify_cert(cert)
    assert "intertwine:plain:0" in {name for name, _, _ in report.families}
    assert not report.passed
    assert_equals_plain(cert)


def test_classical_cert_rejects_non_bijection(gstar33_0):
    with pytest.raises(CertificateError, match="bijection"):
        make_classical_cert(gstar33_0, gstar33_0, {v: 0 for v in range(24)})


# ---------------------------------------------------------------------------
# extraction (the round trip)


def test_extract_trivial():
    report = extract_generators(tiny_cert(), tiny_rep())
    assert report.cross_block_discrepancy == 0.0
    assert report.roundtrip_residual == 0.0
    for y in report.generators:
        assert np.allclose(as_array(y), [[1.0]])


def test_extract_pauli_round_trip(pauli_cert, pauli_rep):
    report = extract_generators(pauli_cert, pauli_rep)
    assert report.cross_block_discrepancy == 0.0
    assert report.roundtrip_residual == 0.0
    assert len(report.generators) == 9


def test_extract_exact_round_trip(exact_cert34, regular_rep34):
    report = extract_generators(exact_cert34, regular_rep34)
    assert report.cross_block_discrepancy == 0.0
    assert report.roundtrip_residual == 0.0
    for y, x in zip(report.generators, regular_rep34.images):
        assert y == x


def test_extract_rejects_failing_cert(pauli_cert):
    bad = corrupt_swap_columns(pauli_cert, 0, 1)
    with pytest.raises(CertificateError, match="fails verification"):
        extract_generators(bad)


def test_extracted_products_match_parity(pauli_cert):
    report = extract_generators(pauli_cert)
    sys1 = pauli_cert.row_graph.system()
    sys2 = pauli_cert.col_graph.system()
    one = pauli_cert.identity
    for k in range(sys1.num_constraints):
        prod = one
        for i in sys1.support(k):
            prod = prod * report.generators[i]
        sign = (-1) ** (sys1.b[k] ^ sys2.b[k])
        target = one if sign == 1 else -one
        assert (prod - target).residual_norm() == 0.0


# ---------------------------------------------------------------------------
# quantum symmetry witnesses


def test_witness_found_for_k34(exact_cert34):
    witness = noncommuting_witness(exact_cert34)
    assert witness is not None
    (key_a, key_b, norm) = witness
    a = exact_cert34.entries[key_a]
    b = exact_cert34.entries[key_b]
    assert (a * b - b * a).residual_norm() == norm > 0


def test_no_witness_for_k33(exact_cert33):
    assert noncommuting_witness(exact_cert33) is None


# ---------------------------------------------------------------------------
# lifting


def test_lift_classical_identity(gstar33_0, gpp33_pair):
    gpp0, _ = gpp33_pair
    cert = make_classical_cert(gstar33_0, gstar33_0, {v: v for v in range(24)})
    lifted = lift_cert(cert, verify_cert(cert))
    assert lifted.row_graph == gpp0 and lifted.col_graph is lifted.row_graph
    nonzero = {key for key, e in lifted.entries.items() if e.residual_norm() > 1e-12}
    assert nonzero == {(v, v) for v in range(gpp0.num_vertices)}
    assert verify_cert(lifted).passed


def test_lift_classical_automorphism_is_induced_map(gstar33_0, gpp33_pair):
    gpp0, _ = gpp33_pair
    g = dict(enumerate(automorphism_group(gstar33_0).generators[0]))
    cert = make_classical_cert(gstar33_0, gstar33_0, g)
    lifted = lift_cert(cert, verify_cert(cert))
    assert lifted.row_graph == gpp0

    index = {label: i for i, label in enumerate(gpp0.labels)}

    def induced(label):
        """The id of g's image: "orig:v", "vpath:v:i", "sub:a-b", "epath:a-b:i"."""
        kind, _, rest = label.partition(":")
        head, *position = rest.split(":")
        if kind in ("orig", "vpath"):
            image = str(g[int(head)])
        else:
            a, b = sorted(g[int(end)] for end in head.split("-"))
            image = f"{a}-{b}"
        return ":".join([kind, image, *position])

    expected = {(i, index[induced(label)]) for i, label in enumerate(gpp0.labels)}
    nonzero = {key for key, e in lifted.entries.items() if e.residual_norm() > 1e-12}
    assert nonzero == expected
    assert verify_cert(lifted).passed


def test_lift_pauli(pauli_cert, gpp33_pair):
    gpp0, gpp1 = gpp33_pair
    lifted = lift_cert(pauli_cert, verify_cert(pauli_cert))
    assert (lifted.row_graph, lifted.col_graph) == (gpp0, gpp1)
    report = verify_cert(lifted)
    assert report.passed
    assert report.max_residual == 0.0
    # vertex entries are inherited verbatim
    index0 = {label: i for i, label in enumerate(gpp0.labels)}
    index1 = {label: i for i, label in enumerate(gpp1.labels)}
    for (v, x), elem in list(pauli_cert.entries.items())[:8]:
        assert lifted.entry(index0[f"orig:{v}"], index1[f"orig:{x}"]) is elem


def test_lift_exact_k34_retains_witness(exact_cert34, gpp34):
    lifted = lift_cert(exact_cert34, verify_cert(exact_cert34))
    assert lifted.row_graph == gpp34
    report = verify_cert(lifted)
    assert report.passed
    assert report.max_residual == 0.0
    assert noncommuting_witness(lifted) is not None


def test_lift_of_a_cert_over_G_names_the_missing_color(k33_sys0):
    # the lift decolors under the canonical path assignment with c0 =
    # shared:-1, an edge color of G* that G(M, b) does not have
    G = build_G(k33_sys0)
    P = solution_presentation(k33_sys0, homogeneous=True)
    cert = build_magic_unitary(G, G, group_algebra_rep(regular_table(P)))
    report = verify_cert(cert)
    assert report.passed
    with pytest.raises(ValueError, match="c0 shared:-1 is not an edge color"):
        lift_cert(cert, report)


def test_lift_rejects_failing_source(pauli_cert):
    bad = corrupt_swap_columns(pauli_cert, 0, 1)
    with pytest.raises(CertificateError, match="fails verification"):
        lift_cert(bad, verify_cert(bad))


def test_lift_rejects_any_nonzero_residual_in_the_report(pauli_cert, gpp33_pair):
    # the lift judges the report it is given: a residual far below any float
    # tolerance still fails, and an all-zero report passes
    report = VerificationReport((("projection", 5e-300, "entry (0, 0)"),), "dense")
    assert not report.passed
    with pytest.raises(CertificateError, match="fails verification: projection"):
        lift_cert(pauli_cert, report)
    clean = VerificationReport((("projection", 0.0, ""),), "dense")
    assert lift_cert(pauli_cert, clean).row_graph == gpp33_pair[0]


@pytest.mark.parametrize("key, edges", [((5, 4), "(5, 7)/(4, 6)"),
                                        ((0, 1), "(0, 2)/(1, 3)")])
def test_lift_names_the_first_edges_whose_entries_do_not_commute(pauli_cert, key, edges):
    # one entry becomes (1 + X (x) I)/2, a projection that commutes with too
    # few of the others; the report handed in is clean, so only the gadgets'
    # commutation check can refuse.  The pairs were measured before the
    # lift's product memo.  Neither gadget is the first one built, and with
    # entry (0, 1) the failing product u_ac u_bd was already formed as the
    # u_ad u_bc of an earlier gadget
    P = DenseElement([[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5],
                      [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5]])
    bad = replace_entry(pauli_cert, key, P)
    clean = VerificationReport((("projection", 0.0, ""),), "dense")
    with pytest.raises(CertificateError,
                       match=re.escape(f"entries for edges {edges} do not commute")):
        lift_cert(bad, clean)


# ---------------------------------------------------------------------------
# algebraic property suites


def block_elements(cert):
    """(block, delta string) -> element, recovered from the entries."""
    table = {}
    rows, cols = block_labels(cert.row_graph), block_labels(cert.col_graph)
    for (i, j), elem in cert.entries.items():
        (k, alpha), (_, beta) = rows[i], cols[j]
        delta = "".join("+" if a == b else "-" for a, b in zip(alpha, beta))
        table.setdefault((k, delta), elem)
    return table


@pytest.mark.parametrize("cert_name", ["pauli_cert", "exact_cert33", "exact_cert34"])
def test_block_resolutions_of_identity(cert_name, request):
    cert = request.getfixturevalue(cert_name)
    table = block_elements(cert)
    one = cert.identity
    sys1, sys2 = cert.row_graph.system(), cert.col_graph.system()
    for k in range(sys1.num_constraints):
        parity = sys1.b[k] ^ sys2.b[k]
        total = None
        for delta in sign_vectors(sys1.support(k), parity):
            v = table[(k, delta)]
            total = v if total is None else total + v
        assert (total - one).residual_norm() == 0.0


@pytest.mark.parametrize("cert_name, rep_name", [("pauli_cert", "pauli_rep"),
                                                  ("exact_cert34", "regular_rep34")],
                         ids=["pauli_cert", "exact_cert34"])
def test_wrong_parity_projections_vanish(cert_name, rep_name, request):
    # v_delta built for the wrong parity class collapses to zero
    cert, rep = request.getfixturevalue(cert_name), request.getfixturevalue(rep_name)
    sys1, sys2 = cert.row_graph.system(), cert.col_graph.system()
    for k in range(sys1.num_constraints):
        wrong = 1 ^ sys1.b[k] ^ sys2.b[k]
        for delta in sign_vectors(sys1.support(k), wrong):
            v = None
            for i, sign in zip(sys1.support(k), delta):
                p = rep.projection(i, 1 if sign == "+" else -1)
                v = p if v is None else v * p
            assert v.residual_norm() == 0.0


@pytest.mark.parametrize("cert_name", ["pauli_cert", "exact_cert33", "exact_cert34"])
def test_same_block_orthogonality_and_commutation(cert_name, request):
    cert = request.getfixturevalue(cert_name)
    table = block_elements(cert)
    by_block = {}
    for (k, dname), elem in table.items():
        by_block.setdefault(k, []).append(elem)
    for k, elems in by_block.items():
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                x, y = elems[a], elems[b]
                assert (x * y).residual_norm() == 0.0  # distinct deltas: orthogonal
                assert (x * y - y * x).residual_norm() == 0.0


def test_edge_nonedge_orthogonality(pauli_cert):
    # u_{ij} u_{kl} = 0 whenever (i,k) is an edge of some color and (j,l) is
    # not an edge of that color: exhaustive over one block pair, sampled
    # across the whole graph.
    rng = random.Random(2024)
    G1, G2 = pauli_cert.row_graph, pauli_cert.col_graph

    def color_of(G, u, v):
        for (a, b, c) in G.edges:
            if (a, b) == (min(u, v), max(u, v)):
                return c
        return None

    def u(i, j):
        e = pauli_cert.entry(i, j)
        return as_array(e) if e is not None else np.zeros((4, 4))

    # exhaustive on block 0 (vertices 0..3 in both graphs)
    for i in range(4):
        for k in range(4):
            if i == k:
                continue
            c = color_of(G1, i, k)
            for j in range(4):
                for l in range(4):
                    if j == l:
                        continue
                    if color_of(G2, j, l) != c:
                        prod = u(i, j) @ u(k, l)
                        assert np.linalg.norm(prod) < 1e-10

    # sampled across everything
    n1, n2 = G1.num_vertices, G2.num_vertices
    for _ in range(300):
        i, k = rng.randrange(n1), rng.randrange(n1)
        j, l = rng.randrange(n2), rng.randrange(n2)
        if i == k or j == l:
            continue
        if color_of(G1, i, k) != color_of(G2, j, l):
            assert np.linalg.norm(u(i, j) @ u(k, l)) < 1e-10


def test_cert_json_shape(pauli_cert, exact_cert34):
    data = pauli_cert.to_json_dict()
    assert data["backend"] == "dense"
    assert len(data["entries"]) == 96
    assert len(data["elements"]) == 24
    assert data["entries"][0]["row"].count(":") == 1
    exact = exact_cert34.to_json_dict()
    assert exact["backend"] == "group_algebra"
    assert all(len(item) == 3 for elem in exact["elements"] for item in elem)


# ---------------------------------------------------------------------------
# exact regular-representation certificates over random incidence systems


@st.composite
def connected_graphs(draw, max_vertices=5):
    """A random connected simple graph on 3..max_vertices vertices (three
    vertices are the fewest whose G* has a shared:-1 edge to decolor by)."""
    n = draw(st.integers(3, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(others), unique=True)))
    return SimpleGraph.from_edges(n, sorted(edges))


@settings(max_examples=12, deadline=None)
@given(connected_graphs())
def test_regular_cert_verifies_lifts_and_round_trips_exactly(H):
    sys = incidence_system(H, (0,) * H.num_vertices)
    P = solution_presentation(sys, homogeneous=True)
    table = regular_table(P)
    assert table is not None
    G = build_Gstar(sys)
    rep = group_algebra_rep(table)
    cert = build_magic_unitary(G, G, rep)

    report = verify_cert(cert)
    assert report.passed and report.max_residual == 0.0

    lifted = verify_cert(lift_cert(cert, report))
    assert lifted.passed and lifted.max_residual == 0.0

    extraction = extract_generators(cert, rep)
    assert extraction.cross_block_discrepancy == 0.0
    assert extraction.roundtrip_residual == 0.0


# ---------------------------------------------------------------------------
# the verifier against the plain oracle (`oracles.plain_verify`)


def assert_equals_plain(cert):
    """verify_cert's whole report is the plain oracle's."""
    assert verify_cert(cert).to_json_dict() == plain_verify(cert).to_json_dict()


@functools.lru_cache(maxsize=None)
def regular_rep(H):
    P = solution_presentation(incidence_system(H, (0,) * H.num_vertices), homogeneous=True)
    return group_algebra_rep(regular_table(P))


@functools.lru_cache(maxsize=None)
def regular_cert(H):
    G = build_Gstar(incidence_system(H, (0,) * H.num_vertices))
    return build_magic_unitary(G, G, regular_rep(H))


def replace_object(cert, old, new):
    """The certificate with every entry that stores the object `old`
    storing `new` instead, so a (block, delta) class stays one object."""
    entries = {key: new if elem is old else elem for key, elem in cert.entries.items()}
    return MagicUnitaryCert(cert.row_graph, cert.col_graph, entries,
                            cert.identity, provenance="corrupted")


@st.composite
def corrupted_certs(draw, certs, reps):
    """A K3,3 certificate (Pauli or regular, source or lifted) or a
    regular-rep certificate on a random connected graph, after one to three
    corruptions: two columns swapped; an entry zeroed, negated, removed or
    replaced by another stored element; or a stored object replaced
    wherever it is stored by a projection (1 +- x_j)/2 of the source
    representation, which `block_equal` cannot tell apart.  `reps` maps
    "pauli" and "k33" to the K3,3 certificates' representations."""
    name = draw(st.sampled_from(["pauli", "k33", "pauli-lifted", "k33-lifted", "random"]))
    if name == "random":
        H = draw(connected_graphs())
        cert, rep = regular_cert(H), regular_rep(H)
    else:
        cert, rep = certs[name], reps[name.split("-")[0]]
    n = cert.col_graph.num_vertices
    stored = [elem for _, elem in cert.distinct_elements()]
    kinds = ["swap", "zero", "negate", "remove", "copy", "project"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "swap":
            cert = corrupt_swap_columns(cert, draw(st.integers(0, n - 1)),
                                        draw(st.integers(0, n - 1)))
        elif kind == "project":
            new = rep.projection(draw(st.integers(0, len(rep.images) - 1)),
                                 draw(st.sampled_from([1, -1])))
            cert = replace_object(cert, draw(st.sampled_from(stored)), new)
        elif kind == "remove":
            entries = dict(cert.entries)
            del entries[draw(st.sampled_from(sorted(entries)))]
            cert = dataclasses.replace(cert, entries=entries)
        else:
            key = draw(st.sampled_from(sorted(cert.entries)))
            if kind == "zero":
                elem = cert.zero()
            elif kind == "negate":
                elem = -cert.entries[key]
            else:
                elem = draw(st.sampled_from(stored))
            cert = replace_entry(cert, key, elem)
    return cert


@st.composite
def combine_orders(draw):
    """Two to six dense elements with float entries (whose float sums depend
    on the order), split into plus and minus sides, and a reordering."""
    d = draw(st.sampled_from([1, 2, 4]))
    entries = st.floats(-4, 4, allow_nan=False, allow_infinity=False, width=32)
    terms = draw(st.lists(st.lists(st.lists(entries, min_size=d, max_size=d),
                                   min_size=d, max_size=d), min_size=2, max_size=6))
    signs = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    order = draw(st.permutations(range(len(terms))))
    return [DenseElement(t) for t in terms], signs, order


@settings(max_examples=60, deadline=None)
@given(combine_orders())
def test_any_reordering_of_a_combine_is_equal(case):
    terms, signs, order = case
    plus = [t for t, s in zip(terms, signs) if s]
    minus = [t for t, s in zip(terms, signs) if not s]
    shuffled = [terms[i] for i in order]
    plus2 = [t for t in shuffled if any(t is p for p in plus)]
    minus2 = [t for t in shuffled if not any(t is p for p in plus)]
    first = DenseElement.combine(plus, minus)
    assert DenseElement.combine(plus2, minus2) == first
    assert DenseElement.combine(plus[::-1], minus[::-1]) == first
    chain = plus[0] if plus else -minus[0]
    for t in plus[1:]:
        chain = chain + t
    for t in (minus if plus else minus[1:]):
        chain = chain - t
    assert chain == first


def test_reordered_rows_read_one_residual(gstar33_0):
    # rows 0 and 1 hold the same three objects in opposite orders; with
    # exact sums both read one residual, so the family names the first row
    a, b, c = DenseElement([[0.1]]), DenseElement([[0.2]]), DenseElement([[0.3]])
    entries = {(0, 0): a, (0, 1): b, (0, 2): c, (1, 0): c, (1, 1): b, (1, 2): a}
    one = DenseElement.identity(1)
    entries.update({(v, v): one for v in range(2, 24)})
    cert = MagicUnitaryCert(gstar33_0, gstar33_0, entries, one)
    residual = DenseElement.combine([a, b, c], [one]).residual_norm()
    assert residual > 0
    assert verify_cert(cert).families[1] == ("row_sum", residual, "row 0")
    assert_equals_plain(cert)


# ---------------------------------------------------------------------------
# signed digit signatures


def plain_graph(n, edges):
    """n uncolored vertices and the given edges, all of one edge color."""
    return ColoredGraph(tuple(range(n)), (None,) * n,
                        tuple((u, v, "plain:0") for u, v in edges))


@pytest.mark.parametrize("kind", ["qut", "iso"])
def test_one_object_at_the_digit_bound(kind):
    # over the star K1,3 every leaf-leaf entry is the one object x and the
    # centre's row and column are empty: rows, columns and degrees reach 3,
    # the largest digit the signatures leave room for, and the intertwining
    # entries (centre, leaf) and (leaf, centre) read 3x and -3x; the iso
    # case gives the column graph as an equal but separate object
    star = [(0, 1), (0, 2), (0, 3)]
    G1 = plain_graph(4, star)
    G2 = G1 if kind == "qut" else plain_graph(4, star)
    x = DenseElement([[0.5, 0.25], [0.25, 0.5]])
    one = DenseElement.identity(2)
    cert = MagicUnitaryCert(G1, G2, {(i, j): x for i in (1, 2, 3) for j in (1, 2, 3)},
                            one)
    report = verify_cert(cert)
    three_x = DenseElement.combine([x, x, x], [])
    assert residual(report, "intertwine:plain:0") == three_x.residual_norm() > 0
    assert residual(report, "row_sum") == max((three_x - one).residual_norm(),
                                             one.residual_norm())
    assert_equals_plain(cert)


def test_same_objects_in_another_order_cancel():
    # on the path 1 - 0 - 2, entry (0, 0) of A u - u A is u10 + u20 - u01 - u02,
    # here a2 + a1 - a1 - a2 in entry order; every other entry is a difference
    # of equal values, so the family reads 0
    G = plain_graph(3, [(0, 1), (0, 2)])
    a1, a2, b = DenseElement([[0.25]]), DenseElement([[0.25]]), DenseElement([[0.5]])
    entries = {(1, 0): a2, (2, 0): a1, (0, 1): a1, (0, 2): a2,
               (0, 0): b, (1, 2): b, (2, 1): b}
    cert = MagicUnitaryCert(G, G, entries, DenseElement.identity(1))
    assert residual(verify_cert(cert), "intertwine:plain:0") == 0.0
    assert_equals_plain(cert)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=12), st.lists(st.integers(0, 30), max_size=12),
       st.integers(0, 2))
def test_signature_decodes_to_the_cancelled_multisets(plus, minus, slack):
    most = max([1, *Counter(plus).values(), *Counter(minus).values()])
    bits = most.bit_length() + 1 + slack
    sig = sum(1 << (e * bits) for e in plus) - sum(1 << (e * bits) for e in minus)
    left, right = _decode(sig, bits)
    assert left == sorted((Counter(plus) - Counter(minus)).elements())
    assert right == sorted((Counter(minus) - Counter(plus)).elements())
    assert (sig == 0) == (Counter(plus) == Counter(minus))


@pytest.mark.parametrize("name", ["pauli", "k34", "k34-lifted"])
def test_distinct_elements_in_key_order(certs, name):
    cert = certs[name]
    shuffled = list(cert.entries.items())
    random.Random(1).shuffle(shuffled)
    for entries in (cert.entries, dict(shuffled)):
        seen = {}
        for key in sorted(entries):
            seen.setdefault(id(entries[key]), (key, entries[key]))
        expected = sorted(seen.values(), key=lambda kv: kv[0])
        got = dataclasses.replace(cert, entries=entries).distinct_elements()
        assert [(k, id(e)) for k, e in got] == [(k, id(e)) for k, e in expected]


# ---------------------------------------------------------------------------
# the verifier's and the witness search's shortcuts against the plain
# oracle and brute force


def brute_witness(cert):
    """The first pair of distinct stored elements, in key order, whose
    commutator (two products) is nonzero, with its norm; or None."""
    distinct = cert.distinct_elements()
    for a, (key_a, x) in enumerate(distinct):
        for key_b, y in distinct[a + 1:]:
            r = (x * y - y * x).residual_norm()
            if r:
                return (key_a, key_b, r)
    return None


@pytest.fixture(scope="module")
def exact_cert35():
    sys = incidence_system(SimpleGraph.from_edges(
        8, [(a, b) for a in range(3) for b in range(3, 8)]), (0,) * 8)
    P = solution_presentation(sys, homogeneous=True)
    G = build_Gstar(sys)
    return build_magic_unitary(G, G, group_algebra_rep(regular_table(P)))


def lifted_cert(cert):
    """The certificate lifted to the full decolorings of its two graphs."""
    return lift_cert(cert, verify_cert(cert))


@pytest.fixture(scope="module")
def certs(pauli_cert, exact_cert33, exact_cert34, exact_cert35):
    """name -> certificate, sources and lifts."""
    out = {}
    for name, cert in (("pauli", pauli_cert), ("k33", exact_cert33),
                       ("k34", exact_cert34), ("k35", exact_cert35)):
        out[name] = cert
        out[f"{name}-lifted"] = lifted_cert(cert)
    return out


def not_selfadjoint(cert):
    """An element of the certificate's algebra with x* != x: i times the
    identity for dense certificates, a group element that is not an
    involution for group-algebra ones."""
    if cert.identity.backend == "dense":
        d = cert.identity.algebra
        return DenseElement([[1j if r == c else 0 for c in range(d)] for r in range(d)])
    table = cert.identity.algebra
    g = next(g for g in range(table.num_cosets) if table.inverse(g) != g)
    return GroupAlgebraElement.basis_element(table, g)


def corruptions(cert):
    """name -> a broken copy of the certificate.  The first stored entry is
    the one a (block, delta) class and the witness search read first."""
    first = next(iter(cert.entries))
    out = {"swap": corrupt_swap_columns(cert, 0, 1),
           "zero": replace_entry(cert, first, cert.zero())}
    if cert.identity.backend == "dense" or not cert.identity.algebra.abelian:
        # over an abelian group of involutions every element is self-adjoint
        out["skew"] = replace_entry(cert, first, not_selfadjoint(cert))
    return out


@pytest.mark.parametrize("name", ["pauli", "pauli-lifted", "k33", "k33-lifted", "k34",
                                  "k34-lifted", "k35", "k35-lifted"])
def test_report_equals_naive_evaluation(certs, name):
    cert = certs[name]
    report = verify_cert(cert)
    assert report.passed
    assert report.to_json_dict() == plain_verify(cert).to_json_dict()


@pytest.mark.parametrize("name", ["pauli", "pauli-lifted", "k33", "k33-lifted", "k34",
                                  "k34-lifted", "k35"])
def test_broken_report_equals_naive_evaluation(certs, name):
    cert = certs[name]
    for kind, bad in corruptions(cert).items():
        report = verify_cert(bad)
        assert not report.passed, kind
        assert report.to_json_dict() == plain_verify(bad).to_json_dict(), kind


def test_non_selfadjoint_entry_commutes_with_every_entry(certs):
    # i times the identity commutes with every entry, but x y - (x y)* is
    # 2i y: a commutator read as x y - (x y)* would report a failure
    cert = certs["pauli"]
    bad = corruptions(cert)["skew"]
    x = bad.entries[next(iter(bad.entries))]
    assert any((x * y - (x * y).adjoint()).residual_norm() > 0
               for y in bad.entries.values())
    assert residual(verify_cert(bad), "block_commute") == 0.0
    assert noncommuting_witness(bad) == brute_witness(bad)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reports_equal_naive_evaluation_on_corrupted_certs(certs, pauli_rep, regular_rep33,
                                                           data):
    cert = data.draw(corrupted_certs(certs, {"pauli": pauli_rep, "k33": regular_rep33}))
    assert_equals_plain(cert)


def test_lift_and_its_check_compute_each_value_once(exact_cert34, monkeypatch):
    # K3,4's regular certificate lifts through 108 distinct gadgets, two
    # products each (216), over 40 distinct operand pairs; the lifted check
    # sums each row, column and intertwining sum once up to sign, and
    # measures a difference of equal elements with no subtraction (600
    # combines when each sign and each such difference took its own)
    counts = Counter()
    combine, mul = _Dyadic.combine, GroupAlgebraElement.__mul__

    def counting_combine(plus, minus):
        counts["combine"] += 1
        return combine(plus, minus)

    def counting_mul(x, y):
        counts["mul"] += 1
        return mul(x, y)

    report = verify_cert(exact_cert34)
    # combine is called on instances too, by + and -: it stays a staticmethod
    monkeypatch.setattr(_Dyadic, "combine", staticmethod(counting_combine))
    monkeypatch.setattr(GroupAlgebraElement, "__mul__", counting_mul)
    lifted = lift_cert(exact_cert34, report)
    assert counts["mul"] == 40
    counts.clear()
    assert verify_cert(lifted).passed
    assert counts["combine"] == 172


@pytest.mark.parametrize("name", ["pauli", "pauli-lifted", "k33", "k33-lifted",
                                  "k34", "k34-lifted"])
def test_witness_equals_brute_force(certs, name):
    cert = certs[name]
    assert noncommuting_witness(cert) == brute_witness(cert)
    for kind, bad in corruptions(cert).items():
        assert noncommuting_witness(bad) == brute_witness(bad), kind


@settings(max_examples=12, deadline=None)
@given(connected_graphs())
def test_witness_equals_brute_force_on_random_graphs(H):
    cert = regular_cert(H)
    witness = noncommuting_witness(cert)
    assert witness == brute_witness(cert)
    assert (witness is None) is cert.identity.algebra.abelian


def test_one_dimensional_witness_takes_no_commutators(monkeypatch):
    # 1 x 1 matrices commute, so the search is skipped: the entries 1 and 0
    # are never paired
    cert = tiny_cert()
    assert len(cert.distinct_elements()) == 2

    def no_commutators(x, y):
        raise AssertionError("a commutator was formed")

    monkeypatch.setattr("lcsq.qcert._commutator_norm", no_commutators)
    assert noncommuting_witness(cert) is None


def test_abelian_witness_takes_no_products(certs, monkeypatch):
    from lcsq.reps import GroupAlgebraElement
    products = []
    mul = GroupAlgebraElement.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", counting)
    for name in ("k33", "k33-lifted"):
        assert noncommuting_witness(certs[name]) is None
    assert products == []
    assert noncommuting_witness(certs["k34"]) is not None
    assert products


def test_noncommuting_block_takes_the_pair_loop(certs, regular_rep34):
    # each block's first (block, delta) object is replaced wherever it is
    # stored by (1 + x_j)/2, j the first variable outside the block's star:
    # the projection family passes and block_equal cannot see the swap, so
    # only the commutators of that block find it
    cert, rep = certs["k34"], regular_rep34
    sys = cert.row_graph.system()
    table = block_elements(cert)
    for k in range(sys.num_constraints):
        delta = next(d for (l, d) in table if l == k)
        j = next(j for j in range(sys.num_vars) if j not in sys.support(k))
        bad = replace_object(cert, table[(k, delta)], rep.projection(j, 1))
        report = verify_cert(bad)
        assert residual(report, "projection") == residual(report, "block_equal") == 0.0
        assert residual(report, "block_commute") > 0.0
        assert ("block_commute", residual(report, "block_commute"), f"block {k}") \
            in report.families
        assert report.to_json_dict() == plain_verify(bad).to_json_dict()


@pytest.mark.parametrize("name", ["k33", "k34", "k35", "tiny"])
def test_commuting_blocks_take_no_commutators(certs, monkeypatch, name):
    # every entry of a block is supported in its star's abelian subgroup
    # (or the algebra is commutative), so no block commutator is formed
    cert = tiny_cert() if name == "tiny" else certs[name]
    expected = plain_verify(cert).to_json_dict()

    def no_commutators(x, y):
        raise AssertionError("a commutator was formed")

    monkeypatch.setattr("lcsq.qcert._commutator_norm", no_commutators)
    assert verify_cert(cert).to_json_dict() == expected
    assert expected["passed"]
