"""Decoloring pipeline: canonical assignments, both stages, and the
matching/degree hypotheses."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcsq.decolor import (PathAssignment, canonical_assignment, chains, check_matchings,
                          check_min_degree, decolor_edges, decolor_full,
                          decolor_vertices)
from lcsq.f2core import complete_bipartite, incidence_system
from lcsq.graphs import ColoredGraph, build_G, build_Gstar, serialize
from oracles import system

C0 = "shared:-1"


def four_vertex_demo() -> ColoredGraph:
    """The 4-vertex example: two yellow vertices, one green, one black;
    edge colors black (kept), blue, red."""
    yellow, green, black = "plain:1", "plain:2", "plain:0"
    eblack, eblue, ered = "plain:0", "plain:1", "plain:2"
    return ColoredGraph(
        (0, 1, 2, 3),
        (yellow, green, yellow, black),
        ((0, 1, eblack), (2, 3, eblack),
         (0, 2, eblue), (1, 3, eblue),
         (0, 3, ered), (1, 2, ered)),
    )


# ---------------------------------------------------------------------------
# canonical assignments


def test_single_vertex_color_gets_zero():
    G = ColoredGraph((0, 1), ("plain:5", "plain:5"),
                     ((0, 1, "plain:0"),))
    pa = canonical_assignment(G, "plain:0")
    assert pa.vertex_lengths == {"plain:5": 0}
    assert pa.edge_lengths == {}


def test_canonical_assignment_k33(gstar33_0):
    pa = canonical_assignment(gstar33_0, C0)
    assert list(pa.vertex_lengths.values()) == list(range(6))
    assert list(pa.edge_lengths.values()) == list(range(18))
    assert all(c.startswith("intra:") for c in pa.edge_lengths)


def test_assignment_deterministic_across_b(gstar33_0, gstar33_e1):
    pa0 = canonical_assignment(gstar33_0, C0)
    pa1 = canonical_assignment(gstar33_e1, C0)
    assert pa0.to_json_dict() == pa1.to_json_dict()


def test_assignment_requires_edge_color(gstar33_0):
    with pytest.raises(ValueError, match="edge color"):
        canonical_assignment(gstar33_0, "plain:9")


def test_assignment_rejects_duplicate_lengths():
    with pytest.raises(ValueError, match="distinct"):
        PathAssignment({"plain:0": 1, "plain:1": 1}, {}, "plain:9")


def test_assignment_rejects_c0_length():
    with pytest.raises(ValueError, match="c0"):
        PathAssignment({}, {"plain:0": 0}, "plain:0")


# ---------------------------------------------------------------------------
# stage 1: vertex decoloring


def test_zero_lengths_strip_colors(gstar33_0):
    pa = PathAssignment(
        {c: n for n, c in enumerate(canonical_assignment(gstar33_0, C0).vertex_lengths)},
        {}, C0)
    # reuse canonical order but force all lengths distinct anyway; instead
    # build the all-zero variant on a single-color graph
    G = ColoredGraph((0, 1), ("plain:0", "plain:0"), ((0, 1, "plain:7"),))
    stripped = decolor_vertices(G, PathAssignment({"plain:0": 0}, {}, "plain:7"))
    assert stripped.num_vertices == 2
    assert stripped.vertex_colors == (None, None)
    assert stripped.edges == ((0, 1, "plain:7"),)


def test_demo_vertex_decoloring():
    G = four_vertex_demo()
    pa = canonical_assignment(G, "plain:0")
    # canonical: black vertices get 0, yellow 1, green 2
    assert pa.vertex_lengths == {"plain:0": 0, "plain:1": 1, "plain:2": 2}
    Gp = decolor_vertices(G, pa)
    assert Gp.num_vertices == 8
    added = [e for e in Gp.edges if e not in G.edges]
    assert all(c == "plain:0" for (_, _, c) in added)
    assert all(c is None for c in Gp.vertex_colors)


def test_gp_counts(gstar33_0, gstar34):
    pa33 = canonical_assignment(gstar33_0, C0)
    assert decolor_vertices(gstar33_0, pa33).num_vertices == 84
    pa34 = canonical_assignment(gstar34, C0)
    assert decolor_vertices(gstar34, pa34).num_vertices == 136


def test_gp_preserves_original_subgraph(gstar33_0):
    pa = canonical_assignment(gstar33_0, C0)
    Gp = decolor_vertices(gstar33_0, pa)
    n = gstar33_0.num_vertices
    original_edges = tuple((u, v, c) for (u, v, c) in Gp.edges if u < n and v < n)
    assert original_edges == gstar33_0.edges
    assert Gp.labels[:n] == tuple(f"orig:{v}" for v in range(n))
    assert all(label.startswith("vpath:") for label in Gp.labels[n:])


def test_gp_invariants_separate_former_vertex_colors(gstar33_0):
    # after decoloring, path lengths alone distinguish the old color classes
    from test_graphs import vertex_invariants
    pa = canonical_assignment(gstar33_0, C0)
    Gp = decolor_vertices(gstar33_0, pa)
    fp = vertex_invariants(Gp, l_max=2)
    for v in range(gstar33_0.num_vertices):
        for w in range(gstar33_0.num_vertices):
            cv = gstar33_0.vertex_colors[v]
            cw = gstar33_0.vertex_colors[w]
            if cv != cw:
                assert fp[v] != fp[w]


def test_gp_path_distances(gstar33_0):
    # the path attached to v realizes d(v, v_i) = i
    pa = canonical_assignment(gstar33_0, C0)
    Gp = decolor_vertices(gstar33_0, pa)
    index = {label: i for i, label in enumerate(Gp.labels)}
    adj = [set() for _ in range(Gp.num_vertices)]
    for (u, v, _) in Gp.edges:
        adj[u].add(v)
        adj[v].add(u)
    v = next(v for v in range(gstar33_0.num_vertices)
             if pa.vertex_length(gstar33_0.vertex_colors[v]) >= 2)
    n = pa.vertex_length(gstar33_0.vertex_colors[v])
    prev = index[f"orig:{v}"]
    for i in range(1, n + 1):
        cur = index[f"vpath:{v}:{i}"]
        assert cur in adj[prev]
        prev = cur
    assert len(adj[prev]) == 1  # path end is a leaf


# ---------------------------------------------------------------------------
# stage 2: edge decoloring


def test_all_c0_edges_unchanged():
    G = ColoredGraph((0, 1, 2), (None,) * 3,
                     ((0, 1, "plain:0"), (1, 2, "plain:0")))
    pa = PathAssignment({}, {}, "plain:0")
    Gpp = decolor_edges(G, pa)
    assert Gpp.num_vertices == 3
    assert Gpp.edges == ((0, 1, None), (1, 2, None))


def test_demo_edge_decoloring():
    G = four_vertex_demo()
    pa = canonical_assignment(G, "plain:0")
    Gp = decolor_vertices(G, pa)
    Gpp = decolor_edges(Gp, pa)
    # 8 vertices + 4 subdivisions + 2 path vertices on the m=1 color
    assert Gpp.num_vertices == 14
    assert pa.edge_lengths == {"plain:1": 0, "plain:2": 1}
    assert all(c is None for (_, _, c) in Gpp.edges)


def test_gpp_counts(gpp33_pair, gpp34):
    gpp0, gpp1 = gpp33_pair
    assert gpp0.num_vertices == 426
    assert gpp1.num_vertices == 426
    assert gpp34.num_vertices == 1720


def test_gpp_subdivision_degrees(gstar33_0, gpp33_pair):
    gpp, _ = gpp33_pair
    deg = gpp.degrees()
    pa = canonical_assignment(gstar33_0, C0)
    # a subdivision's edge is the pair of its endpoints in G'
    colors = {(u, v): c for u, v, c in decolor_vertices(gstar33_0, pa).edges}
    by_degree = {2: 0, 3: 0}
    for v, label in enumerate(gpp.labels):
        kind, _, rest = label.partition(":")
        if kind == "sub":
            # the m = 0 color's subdivisions keep their two edges; every
            # other one gains the first edge of its path
            a, b = map(int, rest.split("-"))
            expected = 2 if pa.edge_length(colors[(a, b)]) == 0 else 3
            assert deg[v] == expected
            by_degree[expected] += 1
        elif kind == "epath":
            assert deg[v] in (1, 2)
    assert by_degree[2] and by_degree[3]


def test_subdivision_ids_name_the_colored_edges_of_gstar(gstar33_0, gpp33_pair):
    # G' keeps vertex v of G* at index v, so "sub:a-b" names the edge (a, b)
    # of G*, and only edges whose color is not c0 are subdivided
    colored = {(u, v) for u, v, c in gstar33_0.edges if c != C0}
    subs = [label.partition(":")[2] for label in gpp33_pair[0].labels
            if label.startswith("sub:")]
    named = {tuple(map(int, rest.split("-"))) for rest in subs}
    assert len(named) == len(subs)
    assert named == colored


def test_missing_edge_length_is_error():
    G = ColoredGraph((0, 1), (None, None), ((0, 1, "plain:3"),))
    pa = PathAssignment({}, {}, "plain:0")
    with pytest.raises(KeyError):
        decolor_edges(G, pa)


def test_unassigned_colors_raise_key_error_naming_them():
    pa = PathAssignment({"plain:1": 0}, {"plain:2": 0}, "plain:0")
    assert pa.vertex_length("plain:1") == 0
    assert pa.edge_length("plain:2") == 0
    with pytest.raises(KeyError, match="no path length assigned to vertex color plain:2"):
        pa.vertex_length("plain:2")
    with pytest.raises(KeyError, match="no path length assigned to edge color plain:1"):
        pa.edge_length("plain:1")
    with pytest.raises(KeyError, match="edge color plain:0"):
        pa.edge_length("plain:0")  # c0 has no length either


# sha256 of `serialize(decolor_full(G, pa))` under the canonical assignment
# for c0 = shared:-1, measured before the lookups were keyed by rendered color
DECOLOR_FULL_SHA256 = {
    "gstar33_e1": "079f4988929a1482f94a4e99992e71b8ce4b5f3e85e2348484261c48684ab997",
    "gstar34": "97c437d48efa4d6d950b003b683cd17bc8ff2fc65eb6f7608d5f97c0697f3e49",
}


@pytest.mark.parametrize("graph", sorted(DECOLOR_FULL_SHA256))
def test_decolor_full_bytes_are_pinned(request, graph):
    G = request.getfixturevalue(graph)
    Gpp = decolor_full(G, canonical_assignment(G, C0))
    digest = hashlib.sha256(serialize(Gpp).encode()).hexdigest()
    assert digest == DECOLOR_FULL_SHA256[graph]


def test_count_formulas_random_systems():
    rng = random.Random(1234)
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
        c0 = G.edge_palette()[0]
        pa = canonical_assignment(G, c0)
        Gp = decolor_vertices(G, pa)
        expected_gp = G.num_vertices + sum(
            pa.vertex_length(G.vertex_colors[v]) for v in range(G.num_vertices))
        assert Gp.num_vertices == expected_gp
        Gpp = decolor_edges(Gp, pa)
        expected_gpp = Gp.num_vertices + sum(
            1 + pa.edge_length(c) for (_, _, c) in Gp.edges
            if c != c0)
        assert Gpp.num_vertices == expected_gpp


# ---------------------------------------------------------------------------
# both stages against their per-vertex loops


def oracle_decolor_vertices(G: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """`decolor_vertices` as written with one id, one append and one edge
    per path vertex."""
    labels = [f"orig:{v}" for v in range(G.num_vertices)]
    edges = list(G.edges)
    for v in range(G.num_vertices):
        color = G.vertex_colors[v]
        if color is None:
            continue
        n = pa.vertex_length(color)
        prev = v
        for i in range(1, n + 1):
            labels.append(f"vpath:{v}:{i}")
            cur = len(labels) - 1
            edges.append((prev, cur, pa.c0))
            prev = cur
    meta = {"construction": G.meta.get("construction", "graph") + "'",
            "base": dict(G.meta), "assignment": pa.to_json_dict()}
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


def oracle_decolor_edges(Gp: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """`decolor_edges` as written with one id, one append and one edge per
    path vertex."""
    labels = list(Gp.labels)
    edges = []
    new_vertices = []
    for (u, v, c) in Gp.edges:
        if c is None or c == pa.c0:
            edges.append((u, v, None))
            continue
        new_vertices.append((pa.edge_length(c), u, v))
    for (m, u, v) in new_vertices:
        labels.append(f"sub:{u}-{v}")
        sub = len(labels) - 1
        edges.append((u, sub, None))
        edges.append((v, sub, None))
        prev = sub
        for i in range(1, m + 1):
            labels.append(f"epath:{u}-{v}:{i}")
            cur = len(labels) - 1
            edges.append((prev, cur, None))
            prev = cur
    meta = {"construction": Gp.meta.get("construction", "graph") + "'",
            "base": dict(Gp.meta), "assignment": pa.to_json_dict()}
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


PLAIN = [f"plain:{k}" for k in range(4)]


@st.composite
def decoloring_cases(draw):
    """A graph of at most 6 vertices, some of them and some of its edges
    colored from four colors, and a path assignment on it: the canonical
    one, or lengths drawn distinct from 0..5 (so zero-length paths occur)
    with c0 any color."""
    n = draw(st.integers(0, 6))
    vcolors = tuple(draw(st.lists(st.one_of(st.none(), st.sampled_from(PLAIN)),
                                  min_size=n, max_size=n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, draw(st.one_of(st.none(), st.sampled_from(PLAIN))))
                  for u, v in chosen)
    meta = draw(st.sampled_from([{}, {"construction": "Gstar", "system": "1|0"}]))
    G = ColoredGraph(tuple(range(n)), vcolors, edges, meta)
    c0 = draw(st.sampled_from(PLAIN))
    if c0 in G.edge_palette() and draw(st.booleans()):
        return G, canonical_assignment(G, c0)
    vpalette, epalette = G.vertex_palette(), sorted(set(G.edge_palette()) - {c0})
    vlen = draw(st.permutations(range(6)))
    elen = draw(st.permutations(range(6)))
    return G, PathAssignment(dict(zip(vpalette, vlen)), dict(zip(epalette, elen)), c0)


@settings(max_examples=200, deadline=None)
@given(decoloring_cases())
def test_stages_match_their_per_vertex_loops(case):
    G, pa = case
    Gp = decolor_vertices(G, pa)
    assert Gp == oracle_decolor_vertices(G, pa)  # labels, edges in order, meta
    Gpp = decolor_edges(Gp, pa)
    assert Gpp == oracle_decolor_edges(Gp, pa)
    assert decolor_full(G, pa) == Gpp


# ---------------------------------------------------------------------------
# chains against the ids


def oracle_chains(G: ColoredGraph, pa: PathAssignment) -> tuple[list, dict]:
    """`chains` by lookup: each vertex and each edge whose color is not c0
    found by its ids in the labels of `decolor_full(G, pa)`."""
    index = {label: i for i, label in enumerate(decolor_full(G, pa).labels)}
    vertices = []
    for v, color in enumerate(G.vertex_colors):
        n = pa.vertex_length(color) if color is not None else 0
        vertices.append([index[f"orig:{v}"],
                         *(index[f"vpath:{v}:{i}"] for i in range(1, n + 1))])
    edges: dict[str, dict] = {}
    for (a, b, c) in G.edges:
        if c is not None and c != pa.c0:
            m = pa.edge_length(c)
            edges.setdefault(c, {})[(a, b)] = [
                index[f"sub:{a}-{b}"], *(index[f"epath:{a}-{b}:{i}"] for i in range(1, m + 1))]
    return vertices, edges


def assert_chains_match_the_ids(G: ColoredGraph, pa: PathAssignment) -> None:
    vertices, edges = chains(G, pa)
    expected_vertices, expected_edges = oracle_chains(G, pa)
    assert vertices == expected_vertices
    # the same colors, and each color's edges in the same order
    assert [(c, list(e.items())) for c, e in edges.items()] == \
        [(c, list(e.items())) for c, e in expected_edges.items()]


@pytest.mark.parametrize("b", ["0", "e1"])
@pytest.mark.parametrize("p, q", [(3, 3), (3, 4), (3, 5)])
def test_chains_match_the_ids_on_gstar(p, q, b):
    # both b under the b = 0 graph's canonical assignment, as `cert --lift`
    # decolors a qiso pair
    rhs = {"0": (0,) * (p + q), "e1": (1,) + (0,) * (p + q - 1)}
    G0 = build_Gstar(incidence_system(complete_bipartite(p, q), rhs["0"]))
    G = build_Gstar(incidence_system(complete_bipartite(p, q), rhs[b]))
    assert_chains_match_the_ids(G, canonical_assignment(G0, C0))


@settings(max_examples=200, deadline=None)
@given(decoloring_cases())
def test_chains_match_the_ids_on_random_graphs(case):
    assert_chains_match_the_ids(*case)


# ---------------------------------------------------------------------------
# hypothesis checks


def complete_graph(n):
    return ColoredGraph(tuple(range(n)), (None,) * n,
                        tuple((u, v, None) for u in range(n) for v in range(u + 1, n)))


def test_min_degree():
    ok, offenders = check_min_degree(complete_graph(4), 3)
    assert ok and offenders == []
    P3 = ColoredGraph((0, 1, 2), (None,) * 3, ((0, 1, None), (1, 2, None)))
    ok, offenders = check_min_degree(P3, 3)
    assert not ok and offenders == [0, 1, 2]


def test_min_degree_gstar(gstar33_0):
    ok, offenders = check_min_degree(gstar33_0, 3)
    assert ok and not offenders


def test_matchings_hold_for_incidence_pipelines(gstar33_0, gstar34):
    for G in (gstar33_0, gstar34):
        pa = canonical_assignment(G, C0)
        Gp = decolor_vertices(G, pa)
        ok, offender = check_matchings(Gp, C0)
        assert ok and offender is None


def test_matchings_fail_on_monochrome_triangle():
    tri = ColoredGraph((0, 1, 2), (None,) * 3,
                       ((0, 1, "plain:1"), (0, 2, "plain:1"),
                        (1, 2, "plain:1")))
    ok, offender = check_matchings(tri, "plain:0")
    assert not ok
    assert offender == "plain:1"


def test_matchings_fail_after_seeded_recoloring(gstar33_0):
    rng = random.Random(7)
    pa = canonical_assignment(gstar33_0, C0)
    Gp = decolor_vertices(gstar33_0, pa)
    intra = [i for i, (_, _, c) in enumerate(Gp.edges)
             if c.startswith("intra:")]
    pick = rng.choice(intra)
    u, v, c = Gp.edges[pick]
    block = c.split(":")[1]
    other = next(cc for (_, _, cc) in Gp.edges
                 if cc.startswith(f"intra:{block}:") and cc != c)
    mutated_edges = list(Gp.edges)
    mutated_edges[pick] = (u, v, other)
    mutated = ColoredGraph(Gp.labels, Gp.vertex_colors, tuple(mutated_edges), Gp.meta)
    ok, offender = check_matchings(mutated, C0)
    assert not ok
    assert offender == other
