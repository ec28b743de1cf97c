"""The block constructions, adjacency utilities, and serialization."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcsq.decolor import canonical_assignment, decolor_vertices
from lcsq.f2core import BinMatrix, LinearSystem, SimpleGraph, incidence_system, parse_system
from lcsq.graphs import (ColoredGraph, ImageColumn, _color_key, block_labels, build_G,
                         build_Gstar, dump_json, from_json_dict, parse_graph_json,
                         parse_label, serialize, sign_vectors, to_dot)
from oracles import system, to_json_dict
from test_fpgroups import small_graphs

# The 2x5 demo system: block 0 holds the solutions of x1 x2 x3 = 1 and block 1
# the solutions of x1 x4 x5 = -1, in canonical order; the 8 surviving inter
# edges are the pairs whose shared variable x1 gets opposite signs.
DEMO_VERTICES = ["0:+++", "0:+--", "0:-+-", "0:--+",
                    "1:++-", "1:+-+", "1:-++", "1:---"]
DEMO_INTER = {(0, 6), (0, 7), (1, 6), (1, 7), (2, 4), (2, 5), (3, 4), (3, 5)}
DEMO_INTRA_CLASSES = {
    "intra:0:+--": {(0, 1), (2, 3)},
    "intra:0:-+-": {(0, 2), (1, 3)},
    "intra:0:--+": {(0, 3), (1, 2)},
    "intra:1:+--": {(4, 5), (6, 7)},
    "intra:1:-+-": {(4, 6), (5, 7)},
    "intra:1:--+": {(4, 7), (5, 6)},
}


def test_sign_vectors_order_and_parity():
    vs = sign_vectors((0, 1, 2), 0)
    assert vs == ["+++", "+--", "-+-", "--+"]
    assert all(v.count("-") % 2 == 0 for v in vs)  # sign product +1
    odd = sign_vectors((0, 1, 2), 1)
    assert odd == ["++-", "+-+", "-++", "---"]


def test_block_sizes_two_block_demo(demo_sys):
    G = build_G(demo_sys)
    assert G.num_vertices == 8
    counts = Counter(G.vertex_colors)
    assert counts == {"v:0": 4, "v:1": 4}
    assert list(G.labels) == DEMO_VERTICES


def test_build_G_single_block():
    sys = system([[1, 1]], (0,))
    G = build_G(sys)
    assert list(G.labels) == ["0:++", "0:--"]
    assert len(G.edges) == 1


def test_build_G_demo_edge_counts(demo_sys):
    G = build_G(demo_sys)
    kinds = Counter(c.split(":")[0] for (_, _, c) in G.edges)
    assert kinds == {"intra": 12, "inter": 16}


def test_demo_reduction_exact(demo_sys):
    G = build_Gstar(demo_sys)
    assert G.num_vertices == 8
    inter = {(u, v) for (u, v, c) in G.edges if c.startswith("shared:")}
    assert inter == DEMO_INTER
    assert all(c == "shared:-1" for (_, _, c) in G.edges if c.startswith("shared:"))
    intra: dict[str, set] = {}
    for (u, v, c) in G.edges:
        if c.startswith("intra:"):
            intra.setdefault(c, set()).add((u, v))
    assert intra == DEMO_INTRA_CLASSES


def test_build_G_k33_counts(k33_sys0):
    G = build_G(k33_sys0)
    assert G.num_vertices == 24
    kinds = Counter(c.split(":")[0] for (_, _, c) in G.edges)
    assert kinds == {"intra": 36, "inter": 144}


def test_build_Gstar_k33_counts(gstar33_0, gstar33_e1):
    for G in (gstar33_0, gstar33_e1):
        assert G.num_vertices == 24
        kinds = Counter(c.split(":")[0] for (_, _, c) in G.edges)
        assert kinds == {"intra": 36, "shared": 72}


def test_gstar_vertices_match_g(k33_sys0):
    G = build_G(k33_sys0)
    Gs = build_Gstar(k33_sys0)
    assert G.labels == Gs.labels
    assert G.vertex_colors == Gs.vertex_colors


def test_empty_constraint_rejected():
    sys = system([[1, 1], [0, 0]], (0, 0))
    with pytest.raises(ValueError, match="no variable"):
        build_G(sys)


def test_gstar_rejects_shared_pairs():
    sys = system([[1, 1], [1, 1]], (0, 0))
    with pytest.raises(ValueError, match="at most one"):
        build_Gstar(sys)


def test_intra_colors_distinct_against_fixed_vertex(gstar33_0):
    # alpha * beta = alpha * beta' forces beta = beta'
    by_vertex: dict[int, list[str]] = {}
    for (u, v, c) in gstar33_0.edges:
        if c.startswith("intra:"):
            by_vertex.setdefault(u, []).append(c)
            by_vertex.setdefault(v, []).append(c)
    for v, colors in by_vertex.items():
        assert len(colors) == len(set(colors))


# ---------------------------------------------------------------------------
# adjacency matrices (a numpy oracle over the edge list)


def adjacency_matrix(G: ColoredGraph, color: str) -> np.ndarray:
    """0/1 adjacency matrix of the edges carrying one color."""
    if color not in G.edge_palette():
        raise ValueError(f"color {color} is not in the graph's palette")
    A = np.zeros((G.num_vertices, G.num_vertices), dtype=np.int64)
    for (u, v, c) in G.edges:
        if c == color:
            A[u, v] = A[v, u] = 1
    return A


def test_adjacency_single_edge():
    G = ColoredGraph((0, 1), (None, None), ((0, 1, "shared:-1"),))
    A = adjacency_matrix(G, "shared:-1")
    assert A.tolist() == [[0, 1], [1, 0]]


def test_adjacency_row_sums_k33(gstar33_0):
    A = adjacency_matrix(gstar33_0, "shared:-1")
    # brute-force count: 3 adjacent blocks, 2 opposite-sign partners in each
    degrees = [0] * 24
    for (u, v, c) in gstar33_0.edges:
        if c.startswith("shared:"):
            degrees[u] += 1
            degrees[v] += 1
    assert degrees == [6] * 24
    assert A.sum(axis=0).tolist() == degrees


def test_adjacency_unknown_color(gstar33_0):
    with pytest.raises(ValueError, match="palette"):
        adjacency_matrix(gstar33_0, "plain:99")


def test_color_classes_partition_offdiagonal(gstar33_0, demo_sys):
    for G in (gstar33_0, build_G(demo_sys)):
        n = G.num_vertices
        total = np.zeros((n, n), dtype=np.int64)
        for c in G.edge_palette():
            total += adjacency_matrix(G, c)
        nonedge = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - total
        assert total.max() == 1
        assert nonedge.min() == 0
        assert (total + nonedge + np.eye(n, dtype=np.int64)).min() == 1


# ---------------------------------------------------------------------------
# vertex invariants (a numpy oracle: vertices with different fingerprints
# lie in different orbits)


def vertex_invariants(G: ColoredGraph, l_max: int = 3) -> list[tuple]:
    """Per-vertex fingerprint over the decolored adjacency matrix.

    Combines the degree, the diagonal of A^l for l = 1..l_max (closed walk
    counts), and the multiset of neighbor degrees at each BFS distance.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    n = G.num_vertices
    A = np.zeros((n, n), dtype=np.float64)
    for (u, v, _) in G.edges:
        A[u, v] = A[v, u] = 1.0
    diags = []
    P = A.copy()
    for _ in range(l_max):
        diags.append(tuple(int(x) for x in np.round(np.diag(P))))
        P = P @ A
    deg = G.degrees()

    adj = [[] for _ in range(n)]
    for (u, v, _) in G.edges:
        adj[u].append(v)
        adj[v].append(u)

    out = []
    for v in range(n):
        dist = [-1] * n
        dist[v] = 0
        frontier = [v]
        rings: list[tuple[int, ...]] = []
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            if nxt:
                rings.append(tuple(sorted(deg[y] for y in nxt)))
            frontier = nxt
        walks = tuple(d[v] for d in diags)
        out.append((deg[v], walks, tuple(rings)))
    return out


def path_graph(n):
    return ColoredGraph(tuple(range(n)), (None,) * n,
                        tuple((i, i + 1, None) for i in range(n - 1)))


def cycle_graph(n):
    edges = tuple((min(i, (i + 1) % n), max(i, (i + 1) % n), None) for i in range(n))
    return ColoredGraph(tuple(range(n)), (None,) * n, tuple(sorted(edges)))


def test_invariants_path_endpoints_differ():
    fp = vertex_invariants(path_graph(3), l_max=2)
    assert fp[0] == fp[2]
    assert fp[0] != fp[1]


def test_invariants_cycle_transitive():
    fp = vertex_invariants(cycle_graph(5), l_max=3)
    assert len(set(fp)) == 1


def test_invariants_distinguish_path_ends_in_gpp(gpp33_pair):
    gpp, _ = gpp33_pair
    fp = vertex_invariants(gpp, l_max=2)
    deg = gpp.degrees()
    leaf = next(v for v in range(gpp.num_vertices) if deg[v] == 1)
    hub = next(v for v in range(gpp.num_vertices) if deg[v] >= 3)
    assert fp[leaf] != fp[hub]


def test_invariants_bad_lmax(gstar33_0):
    with pytest.raises(ValueError):
        vertex_invariants(gstar33_0, l_max=0)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_empty_graph():
    G = ColoredGraph((), (), ())
    data = serialize(G)
    assert parse_graph_json(data) == G


def test_demo_json_counts(demo_sys):
    G = build_Gstar(demo_sys)
    text = serialize(G)
    back = parse_graph_json(text)
    assert back.num_vertices == 8
    assert back.num_edges == 20
    assert back == G


def test_round_trip_block_graphs(gstar33_0, gstar33_e1, k34_sys0):
    for G in (gstar33_0, gstar33_e1, build_G(parse_system("11100;10011|01"))):
        assert parse_graph_json(serialize(G)) == G


def test_round_trip_k33_pipeline(k33_sys0, gstar33_0, gpp33_pair):
    # G, G*, G' and G'' of K3,3: same colors, labels and edges after a file
    pa = canonical_assignment(gstar33_0, "shared:-1")
    for G in (build_G(k33_sys0), gstar33_0, decolor_vertices(gstar33_0, pa),
              gpp33_pair[0]):
        back = parse_graph_json(serialize(G))
        assert back.vertex_colors == G.vertex_colors
        assert back.labels == G.labels
        assert back.edges == G.edges


# ---------------------------------------------------------------------------
# colors: canonical strings in one canonical order


def test_palette_orders_blocks_as_ints():
    # eleven blocks: as plain strings "v:10" would sort between v:1 and v:2
    cycle = SimpleGraph.from_edges(11, [(i, (i + 1) % 11) for i in range(11)])
    G = build_Gstar(incidence_system(cycle, (0,) * 11))
    assert G.vertex_palette() == [f"v:{k}" for k in range(11)]
    pa = canonical_assignment(G, "shared:-1")
    assert pa.vertex_lengths["v:10"] == 10
    assert pa.vertex_lengths["v:2"] == 2


def test_palette_puts_intra_before_inter(k33_sys0):
    # as plain strings "inter:..." would sort before "intra:..."
    palette = build_G(k33_sys0).edge_palette()
    kinds = [c.split(":")[0] for c in palette]
    assert kinds == ["intra"] * kinds.count("intra") + ["inter"] * kinds.count("inter")
    assert kinds.count("intra") == kinds.count("inter") == 18


def test_palette_puts_plus_before_minus(demo_sys):
    palette = build_G(demo_sys).edge_palette()
    assert palette[:3] == ["intra:0:+--", "intra:0:-+-", "intra:0:--+"]
    assert palette[-2:] == ["inter:0-1:+", "inter:0-1:-"]


@pytest.mark.parametrize("color", [
    "shared:x", "shared:1", "v:01", "v:-1", "v:", "plain:1.0", "blue", "v:1 ",
    "intra:0:+++", "intra:0:+-", "intra:0", "inter:1-0:-", "inter:0-0:-",
    "inter:0-1:", "inter:0-1:+1",
])
def test_non_canonical_colors_are_rejected(color):
    for doc in ({"vertices": [{"id": 0, "color": color}], "edges": []},
                {"vertices": [{"id": 0}, {"id": 1}],
                 "edges": [{"u": 0, "v": 1, "color": color}]}):
        with pytest.raises(ValueError, match="not a canonical color"):
            parse_graph_json(json.dumps(doc))


def test_gpp_labels_round_trip_through_json(gpp33_pair):
    # the decoloring's ids are the strings its file holds: a G'' read back
    # holds the labels it was built with and writes the same bytes
    for gpp in gpp33_pair:
        text = serialize(gpp)
        back = parse_graph_json(text)
        assert back.labels == gpp.labels
        assert all(isinstance(label, str) for label in back.labels)
        assert {label.split(":")[0] for label in back.labels} == {
            "orig", "vpath", "sub", "epath"}
        assert serialize(back) == text


@st.composite
def block_graphs(draw):
    """G(M, b) of a random system of at most 4 constraints, none empty, on
    at most 5 variables; or G*(M_H, b) of a random `small_graphs` graph H."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        rows = draw(st.lists(st.integers(1, 2 ** n - 1), min_size=1, max_size=4))
        b = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        return build_G(LinearSystem(BinMatrix(len(rows), n, tuple(rows)), tuple(b)))
    H = draw(small_graphs())
    n = H.num_vertices
    b = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return build_Gstar(incidence_system(H, tuple(b)))


@settings(max_examples=80, deadline=None)
@given(block_graphs())
def test_block_labels_read_back_from_json(G):
    back = parse_graph_json(serialize(G))
    assert back.labels == G.labels
    labels = block_labels(G)
    assert block_labels(back) == labels
    # block by block, each block's alphas in `sign_vectors` order
    sys = G.system()
    assert labels == [(k, alpha) for k in range(sys.num_constraints)
                      for alpha in sign_vectors(sys.support(k), sys.b[k])]
    assert list(G.labels) == [f"{k}:{alpha}" for k, alpha in labels]


def test_labels_are_written_back_as_read():
    # only a canonical int becomes an int, so every label is written back
    # as the file held it
    texts = ["0", "-5", "12", "007", "-0", "+5", "\u00b2", "0:+--", "sub:0-5"]
    doc = {"vertices": [{"id": i, "label": t} for i, t in enumerate(texts)], "edges": []}
    G = parse_graph_json(json.dumps(doc))
    assert G.labels == (0, -5, 12, "007", "-0", "+5", "\u00b2", "0:+--", "sub:0-5")
    assert [v["label"] for v in json.loads(serialize(G))["vertices"]] == texts


def test_round_trip_random_plain_graphs():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 8)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple((u, v, f"plain:{rng.randint(0, 2)}" if rng.random() < 0.7 else None)
                      for (u, v) in rng.sample(possible, rng.randint(0, len(possible))))
        vcolors = tuple(f"v:{rng.randint(0, 2)}" if rng.random() < 0.5 else None
                        for _ in range(n))
        G = ColoredGraph(tuple(range(n)), vcolors, edges)
        assert parse_graph_json(serialize(G)) == G


def stdlib_dump(obj) -> str:
    """The oracle `dump_json` must match byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=1)


# strings that look like JSON layout, such as a record boundary or a
# newline with its indent, or that the encoder escapes
TRICKY_TEXT = ["}", "{", "},\n  {", "},\n {\n", "[]", '"', '\\"', "\\",
               "\n", "\t", "é", "☃ snow", "\u2028", ""]
text = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=6))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), text,
    st.sampled_from([1e-10, float("inf"), float("-inf"), float("nan"), -0.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True))
# `json` sorts int keys numerically before writing them as strings
key_sets = [text, st.integers(-20, 20)]
records = st.one_of(*(st.dictionaries(keys, scalars, min_size=1, max_size=4)
                      for keys in key_sets))


def json_trees(depth: int):
    if depth == 0:
        return scalars
    child = json_trees(depth - 1)
    nested_records = st.builds(lambda record, key, value: {**record, key: value},
                               st.dictionaries(text, scalars, max_size=3), text, child)
    return st.one_of(
        scalars,
        st.lists(child, max_size=4),
        st.lists(child, max_size=4).map(tuple),
        *(st.dictionaries(keys, child, max_size=4) for keys in key_sets),
        st.lists(records, min_size=1, max_size=5),
        st.lists(st.one_of(records, nested_records, st.just({}), st.just([])),
                 max_size=5),
    )


@settings(max_examples=300, deadline=None)
@given(json_trees(4))
def test_dump_json_matches_stdlib_indent(tree):
    assert dump_json(tree) == stdlib_dump(tree)


@pytest.mark.parametrize("tree", [
    [], {}, [[]], {"a": {}}, [{}, {"a": 1}], [{"a": 1}, {}],
    [{"a": 1}, {"b": [2]}], ({"a": "},\n   {"}, {"b": "}"}),
    {2: "x", 10: [1], -1: {"k": None}}, [1, [2, 3], 4, {"z": 5, "a": [6]}],
    "},\n {", float("nan"), [float("inf"), {"x": float("-inf")}],
])
def test_dump_json_edge_cases(tree):
    assert dump_json(tree) == stdlib_dump(tree)


def test_dump_json_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump_json({(1, 2): [3]})
    with pytest.raises(TypeError):
        dump_json([{"a": object()}])


def map_dict(images):
    """The dict an image column stands for in a report."""
    return {str(v): w for v, w in enumerate(images)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 200), max_size=120), max_size=4), st.integers(0, 6))
def test_image_columns_are_written_as_their_maps(columns, shape):
    # the map alone, in a report, and listed as generators, beside scalars;
    # beside flat records in one list, two containers deep inside a record
    # list, and an empty map as a dict value
    def report(wrap):
        maps = [wrap(c) for c in columns]
        first = maps[0] if maps else wrap([])
        return [first,
                {"config": {"json_out": "a.json"}, "mapping": maps[0] if maps else None,
                 "isomorphic": True},
                {"generators": maps, "order": 2},
                [maps, {"a": maps}],
                [{"a": 1}, {"m": first}],
                [{"a": 1, "b": [2]}, {"c": [{"d": first, "e": "}"}], "z": None}, {}],
                {"m": wrap([]), "n": [wrap([])], "order": 1}][shape]
    assert dump_json(report(ImageColumn)) == stdlib_dump(report(map_dict))


def test_serialize_is_stdlib_bytes(gstar33_0, gpp33_pair):
    """G*(K3,3) and the two 426-vertex decolorings serialize exactly as the
    stdlib encoder writes them."""
    for G in (gstar33_0, *gpp33_pair):
        assert serialize(G) == stdlib_dump(to_json_dict(G))


# text that `serialize`'s %-templates or a `str.format` could take for
# their own syntax, and characters the encoder escapes
FORMAT_TEXT = TRICKY_TEXT + ["%", "%s", "%%", "%d", "%(id)s", "{}", "{0}", "{{",
                             "\u00fc%", "\u2603", "\x00", "\x1f", "\x7f", "\r\n"]
graph_text = st.one_of(st.sampled_from(FORMAT_TEXT), st.text(max_size=6))


def color_lists(draw, k: int) -> list:
    """k colors, all set, none set or some set; canonical or arbitrary text."""
    color = st.one_of(st.sampled_from(["v:0", "v:1", "shared:-1", "plain:2"]), graph_text)
    kind = draw(st.sampled_from(["all", "none", "some"]))
    if kind == "none":
        return [None] * k
    return draw(st.lists(color if kind == "all" else st.one_of(st.none(), color),
                         min_size=k, max_size=k))


@st.composite
def colored_graphs(draw):
    """A `ColoredGraph` of at most 7 vertices with int or text labels, its
    vertices and edges all, none or some colored, its edges in any order,
    and an empty, flat or nested `meta`."""
    n = draw(st.integers(0, 7))
    labels = draw(st.lists(st.one_of(st.integers(), graph_text), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, c) for (u, v), c in zip(chosen, color_lists(draw, len(chosen))))
    meta = draw(st.one_of(st.just({}), st.dictionaries(graph_text, json_trees(2), max_size=3)))
    return ColoredGraph(tuple(labels), tuple(color_lists(draw, n)), edges, meta)


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_serialize_matches_stdlib_on_random_graphs(G):
    assert serialize(G) == stdlib_dump(to_json_dict(G))


# ---------------------------------------------------------------------------
# reading graph files: the record-by-record reader as the oracle


ORACLE_ABSENT = object()
ORACLE_FIELD_TYPES = {"vertices": (("id", int), ("label", str), ("color", str)),
                      "edges": (("u", int), ("v", int), ("color", str))}
ORACLE_REQUIRED = {"id", "u", "v"}


def oracle_from_json_dict(data):
    """The reader that walked the records one by one, before fields were
    read as columns: the same checks in the same order."""
    if not isinstance(data, dict):
        raise ValueError("a graph document must be a JSON object")
    meta = data.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("system", ""), str):
        raise ValueError('"meta" must be an object whose "system" is a string')
    if "system" in meta:
        parse_system(meta["system"])  # raises on a malformed system
    for where, fields in ORACLE_FIELD_TYPES.items():
        if where not in data:
            raise ValueError(f"missing field {where!r}")
        records = data[where]
        if not (isinstance(records, list) and all(map(isinstance, records, repeat(dict)))):
            raise ValueError(f'"{where}" must be a list of objects')
        for key, kind in fields:
            found = set(map(type, map(dict.get, records, repeat(key), repeat(ORACLE_ABSENT))))
            if object in found and key in ORACLE_REQUIRED:  # object: the key is absent
                raise ValueError(f"missing field {key!r}")
            if found - {kind, object}:
                raise ValueError(f'every "{key}" in "{where}" must be '
                                 + ("an integer" if kind is int else "a string"))
    verts, edges = data["vertices"], data["edges"]
    for color in set(map(dict.get, chain(verts, edges), repeat("color"))) - {None}:
        _color_key(color)

    verts = sorted(verts, key=lambda d: d["id"])
    if [d["id"] for d in verts] != list(range(len(verts))):
        raise ValueError("vertex ids must be 0..n-1")
    labels = tuple(parse_label(d.get("label", str(d["id"]))) for d in verts)
    vcolors = tuple(d.get("color") for d in verts)
    edges = tuple((min(d["u"], d["v"]), max(d["u"], d["v"]), d.get("color"))
                  for d in edges)
    return ColoredGraph(labels, vcolors, edges, meta)


def outcome(read, doc):
    """The graph a reader returns, or the type and text of what it raises."""
    try:
        return read(doc)
    except Exception as exc:  # noqa: BLE001 -- both readers must fail alike
        return type(exc), str(exc)


# values that break one field: wrong types, absent ids, repeated or
# out-of-range ids and endpoints, loops and non-canonical colors
BAD_VALUES = [None, "0", "x", 1.5, 0.0, True, [], {}, -1, 0, 1, 7, "v:01", "shared:x"]


@st.composite
def graph_documents(draw):
    """The document of a random graph, shuffled (ids permuted, records
    reordered, endpoints swapped, labels and colors dropped), and often
    broken in one or two places."""
    G = draw(colored_graphs())
    rng = draw(st.randoms(use_true_random=False))
    doc = json.loads(json.dumps(to_json_dict(G)))
    for d in chain(doc["vertices"], doc["edges"]):  # mostly canonical colors
        if "color" in d and rng.random() < 0.9:
            d["color"] = rng.choice(["v:0", "v:1", "shared:-1", "plain:2"])
    n = G.num_vertices
    if draw(st.booleans()):  # shuffled
        perm = list(range(n))
        rng.shuffle(perm)
        for d in doc["vertices"]:
            d["id"] = perm[d["id"]]
        for d in doc["edges"]:
            d["u"], d["v"] = perm[d["u"]], perm[d["v"]]
            if rng.random() < 0.5:
                d["u"], d["v"] = d["v"], d["u"]
        for d in doc["vertices"]:
            if rng.random() < 0.3:
                d.pop("label")
        rng.shuffle(doc["vertices"])
        rng.shuffle(doc["edges"])
    for _ in range(draw(st.integers(0, 2))):  # broken
        where = rng.choice(["vertices", "edges"])
        found = doc.get(where)
        records = [d for d in found if isinstance(d, dict)] if isinstance(found, list) else []
        kind = draw(st.sampled_from(["value", "drop", "repeat", "top", "meta"]))
        if kind == "value" and records:
            key = rng.choice(["id", "label", "color"] if where == "vertices"
                             else ["u", "v", "color"])
            rng.choice(records)[key] = rng.choice(BAD_VALUES)
        elif kind == "drop" and records:
            rng.choice(records).pop(rng.choice(["id", "label", "color", "u", "v"]), None)
        elif kind == "repeat" and records:
            found.append(dict(rng.choice(records)))
        elif kind == "top":
            doc[where] = rng.choice([None, {}, [0], [{}, 1], "x"])
            if rng.random() < 0.3:
                del doc[where]
        elif kind == "meta":
            doc["meta"] = rng.choice([[], {"system": 5}, {"system": "1;2|0"}, {"x": 1}])
    if draw(st.integers(0, 30)) == 17:  # not an object at all
        doc = rng.choice([[], None, "x", 0])
    return doc


@settings(max_examples=400, deadline=None)
@given(graph_documents())
def test_column_reader_matches_the_record_reader(doc):
    assert outcome(from_json_dict, doc) == outcome(oracle_from_json_dict, doc)


def test_reader_keeps_the_message_precedence():
    # a missing id outranks a label of the wrong type in the same list, and
    # every vertex check outranks a missing edge list
    doc = {"vertices": [{"label": 3}, {"id": 0}]}
    assert outcome(from_json_dict, doc) == (ValueError, "missing field 'id'")
    doc = {"vertices": [{"id": 0, "label": 3}]}
    assert outcome(from_json_dict, doc) == \
        (ValueError, 'every "label" in "vertices" must be a string')
    doc = {"vertices": [{"id": 1}, {"id": 0}, {"id": 0}], "edges": []}
    assert outcome(from_json_dict, doc) == (ValueError, "vertex ids must be 0..n-1")


def test_reader_sorts_vertices_by_id():
    doc = {"vertices": [{"id": 2, "color": "v:2"}, {"id": 0, "label": "a"}, {"id": 1}],
           "edges": [{"u": 2, "v": 0}]}
    G = from_json_dict(doc)
    assert G.labels == ("a", 1, 2)
    assert G.vertex_colors == (None, None, "v:2")
    assert G.edges == ((0, 2, None),)


# ---------------------------------------------------------------------------
# edge checks: a graph names its first bad edge


@pytest.mark.parametrize("edges, message", [
    (((0, 0, None),), "loop at vertex 0"),
    (((0, 1, None), (1, 1, None)), "loop at vertex 1"),
    (((0, 5, None),), "bad edge endpoints (0, 5)"),
    (((-1, 1, None),), "bad edge endpoints (-1, 1)"),
    (((1, 0, None),), "bad edge endpoints (1, 0)"),
    (((0, 1, None), (0, 1, "plain:0")), "duplicate edge (0, 1)"),
    (((0, 1, None), (1, 2, None), (0, 1, None), (2, 2, None)), "duplicate edge (0, 1)"),
    (((0, 1, None), (2, 2, None), (0, 1, None)), "loop at vertex 2"),
    (((0, 1, None), (1, 7, None), (1, 1, None)), "bad edge endpoints (1, 7)"),
    (((1, 2, None), (0, 2, None), (2, 1, None)), "bad edge endpoints (2, 1)"),
])
def test_bad_edges_are_named(edges, message):
    with pytest.raises(ValueError) as info:
        ColoredGraph((0, 1, 2), (None,) * 3, edges)
    assert str(info.value) == message


def test_good_edges_pass_in_any_order():
    edges = ((1, 2, None), (0, 2, "plain:0"), (0, 1, None))
    assert ColoredGraph((0, 1, 2), (None,) * 3, edges).edges == edges
    assert ColoredGraph((), (), ()).num_edges == 0


def test_dot_output(gstar33_0):
    dot = to_dot(gstar33_0)
    assert dot.startswith("graph G {")
    assert 'label="shared:-1"' in dot
    assert dot.count(" -- ") == gstar33_0.num_edges


def test_block_cardinality_random_systems():
    rng = random.Random(99)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        for row in rows:
            if not any(row):
                row[rng.randrange(n)] = 1
        sys = system(rows, tuple(rng.randint(0, 1) for _ in range(m)))
        G = build_G(sys)
        counts = Counter(k for k, _ in block_labels(G))
        for k in range(m):
            assert counts[k] == 2 ** (len(sys.support(k)) - 1)
