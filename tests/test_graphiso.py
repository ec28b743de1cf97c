"""Color refinement, isomorphism search, and automorphism groups, checked
against brute-force oracles on small graphs."""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from lcsq import graphiso
from lcsq.f2core import parse_system, solve_f2
from lcsq.fpgroups import solution_presentation
from lcsq.graphs import ColoredGraph, ImageColumn, block_labels, build_G, build_Gstar
from lcsq.decolor import canonical_assignment, decolor_vertices
from lcsq.graphiso import automorphism_group, find_isomorphism, verify_mapping
from oracles import abelianized_order, system

C0 = "shared:-1"


def plain(n, edges):
    return ColoredGraph(tuple(range(n)), (None,) * n,
                        tuple((min(u, v), max(u, v), None) for u, v in edges))


def cycle(n):
    return plain(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return plain(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# -- brute-force oracles ------------------------------------------------------


def _colors(G):
    vcol = [c or "" for c in G.vertex_colors]
    emap = {(u, v): c or "" for (u, v, c) in G.edges}

    def ecol(u, v):
        return emap.get((min(u, v), max(u, v)))

    return vcol, ecol


def brute_force_isomorphisms(G1, G2, first_only=False):
    """Pruned DFS over all color/edge-preserving bijections."""
    if G1.num_vertices != G2.num_vertices:
        return []
    n = G1.num_vertices
    vcol1, ecol1 = _colors(G1)
    vcol2, ecol2 = _colors(G2)
    found = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if found and first_only:
            return
        if v == n:
            found.append(dict(enumerate(image)))
            return
        for w in range(n):
            if used[w] or vcol1[v] != vcol2[w]:
                continue
            if any(ecol1(u, v) != ecol2(image[u], w) for u in range(v)):
                continue
            used[w] = True
            image[v] = w
            extend(v + 1)
            used[w] = False

    extend(0)
    return found


def closure_order(generators, n):
    """Size of the permutation group generated by the given bijections."""
    ident = tuple(range(n))
    gens = [tuple(g) for g in generators]
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


def random_colored_graph(rng, n):
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple((u, v,
                   f"plain:{rng.randint(0, 1)}" if rng.random() < 0.5 else None)
                  for (u, v) in rng.sample(possible, rng.randint(0, len(possible))))
    vcolors = tuple(f"v:{rng.randint(0, 1)}" if rng.random() < 0.4 else None
                    for _ in range(n))
    return ColoredGraph(tuple(range(n)), vcolors, edges)


def permuted_copy(G, rng):
    n = G.num_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    edges = tuple(sorted(((min(perm[u], perm[v]), max(perm[u], perm[v]), c)
                          for (u, v, c) in G.edges),
                         key=lambda e: (e[0], e[1])))
    vcolors = [None] * n
    for v in range(n):
        vcolors[perm[v]] = G.vertex_colors[v]
    return ColoredGraph(tuple(range(n)), tuple(vcolors), edges), perm


def refine(G):
    """The stable 1-WL partition of G, nothing peeled: the class of each
    vertex in the root partition of its own refinement workspace."""
    [side] = plain_sides([G])
    return tuple(side.root()[0].cell_of)


def wl_classes(G):
    """Round-based 1-WL to stability: the reference for refine()."""
    vcol, _ = _colors(G)
    adj = [[] for _ in range(G.num_vertices)]
    for (u, v, c) in G.edges:
        key = c or ""
        adj[u].append((v, key))
        adj[v].append((u, key))
    colors = list(vcol)
    while True:
        sigs = [(colors[v], tuple(sorted((key, colors[u]) for u, key in adj[v])))
                for v in range(G.num_vertices)]
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        refined = [ids[sig] for sig in sigs]
        if len(ids) == len(set(colors)):
            return refined
        colors = refined


def blocks(classes):
    """The partition a class list induces, independent of class ids."""
    out = {}
    for v, c in enumerate(classes):
        out.setdefault(c, []).append(v)
    return sorted(out.values())


@st.composite
def colored_graphs(draw, max_vertices=7, min_vertices=1):
    n = draw(st.integers(min_vertices, max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(possible), unique=True))) if possible else []
    edge_colors = draw(st.lists(st.sampled_from([None, "plain:0", "plain:1"]),
                                min_size=len(chosen), max_size=len(chosen)))
    vcolors = draw(st.lists(st.sampled_from([None, "v:0", "v:1"]),
                            min_size=n, max_size=n))
    edges = tuple((u, v, c) for (u, v), c in zip(chosen, edge_colors))
    return ColoredGraph(tuple(range(n)), tuple(vcolors), edges)


# ---------------------------------------------------------------------------
# refinement


def test_refine_cycle_single_class():
    assert len(set(refine(cycle(5)))) == 1


def test_refine_path_two_classes():
    assert len(set(refine(plain(3, [(0, 1), (1, 2)])))) == 2


def test_refine_separates_former_blocks(gstar33_0):
    pa = canonical_assignment(gstar33_0, C0)
    Gp = decolor_vertices(gstar33_0, pa)
    coloring = refine(Gp)
    # G' keeps vertex v of G* at index v, labelled "orig:v"
    originals = range(gstar33_0.num_vertices)
    assert [Gp.labels[v] for v in originals] == [f"orig:{v}" for v in originals]
    block_of_class = {}
    blocks = [k for k, _ in block_labels(gstar33_0)]
    for v in originals:
        block = blocks[v]
        cls = coloring[v]
        assert block_of_class.setdefault(cls, block) == block
    assert len({coloring[v] for v in originals}) == 6


def test_refine_classes_are_orbit_unions():
    rng = random.Random(31)
    for _ in range(15):
        G = random_colored_graph(rng, rng.randint(2, 6))
        autos = brute_force_isomorphisms(G, G)
        coloring = refine(G)
        for auto in autos:
            for v, w in auto.items():
                assert coloring[v] == coloring[w]


@settings(max_examples=150, deadline=None)
@given(colored_graphs(max_vertices=12))
def test_refine_matches_round_based_wl(G):
    assert blocks(refine(G)) == blocks(wl_classes(G))


# ---------------------------------------------------------------------------
# isomorphism


def test_identity_on_self(gstar33_0):
    result = find_isomorphism(gstar33_0, gstar33_0)
    assert result is not None
    assert result == tuple(range(gstar33_0.num_vertices))


def test_colored_k33_pair_non_isomorphic(gstar33_0, gstar33_e1):
    assert find_isomorphism(gstar33_0, gstar33_e1) is None


def test_gpp_pair_non_isomorphic(gpp33_pair):
    gpp0, gpp1 = gpp33_pair
    assert find_isomorphism(gpp0, gpp1) is None


def test_finds_isomorphism_of_permuted_copy(gstar33_0):
    rng = random.Random(8)
    shuffled, perm = permuted_copy(gstar33_0, rng)
    result = find_isomorphism(gstar33_0, shuffled)
    assert result is not None
    ok, violation = verify_mapping(gstar33_0, shuffled, result)
    assert ok, violation


def test_agreement_with_exhaustive_search_small_corpus():
    rng = random.Random(555)
    for trial in range(40):
        n = rng.randint(2, 8)
        G1 = random_colored_graph(rng, n)
        if trial % 2 == 0:
            G2, _ = permuted_copy(G1, rng)
        else:
            G2 = random_colored_graph(rng, n)
        expected = bool(brute_force_isomorphisms(G1, G2, first_only=True))
        got = find_isomorphism(G1, G2)
        assert (got is not None) == expected
        if got is not None:
            ok, violation = verify_mapping(G1, G2, got)
            assert ok, violation


def test_gpp34_pair_non_isomorphic(gpp34, gpp34_e1):
    assert gpp34.num_vertices == gpp34_e1.num_vertices == 1720
    assert find_isomorphism(gpp34, gpp34_e1) is None


@settings(max_examples=100, deadline=None)
@given(colored_graphs(), st.randoms(use_true_random=False))
def test_finds_verified_isomorphism_of_any_permuted_copy(G, rng):
    shuffled, _ = permuted_copy(G, rng)
    result = find_isomorphism(G, shuffled)
    assert result is not None
    assert verify_mapping(G, shuffled, result) == (True, None)


def test_invalid_search_result_raises(monkeypatch):
    G = plain(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(graphiso, "_find", lambda left, right: [1, 0, 2])
    with pytest.raises(RuntimeError, match="invalid mapping"):
        find_isomorphism(G, G)


# ---------------------------------------------------------------------------
# verify_mapping


def test_verify_identity(gstar33_0):
    ident = tuple(range(24))
    assert verify_mapping(gstar33_0, gstar33_0, ident) == (True, None)


def test_verify_names_vertex_color_condition(gstar33_0):
    images = list(range(24))
    images[0], images[4] = 4, 0  # different blocks
    ok, violation = verify_mapping(gstar33_0, gstar33_0, tuple(images))
    assert not ok
    assert violation[0] == 1


def test_verify_names_edge_condition():
    G = plain(4, [(0, 1), (1, 2), (2, 3)])
    ok, violation = verify_mapping(G, G, (1, 0, 2, 3))
    assert not ok
    assert violation[0] == 3


def test_verify_rejects_non_bijection(gstar33_0):
    with pytest.raises(ValueError, match="bijection"):
        verify_mapping(gstar33_0, gstar33_0, (0,) * 24)


def inverse(f):
    return ImageColumn(sorted(range(len(f)), key=f.__getitem__))


def test_verify_symmetric_under_inverse():
    rng = random.Random(77)
    for _ in range(20):
        G1 = random_colored_graph(rng, 6)
        G2, perm = permuted_copy(G1, rng)
        f = tuple(perm)
        forward = verify_mapping(G1, G2, f)
        backward = verify_mapping(G2, G1, inverse(f))
        assert forward[0] == backward[0] == True  # noqa: E712


def test_verify_counts_the_edges_a_forward_pass_cannot_see():
    # every edge of the path maps onto an edge of the triangle, whose third
    # edge pulls back to a non-edge
    path, triangle = plain(3, [(0, 1), (1, 2)]), cycle(3)
    assert verify_mapping(path, triangle, (0, 1, 2)) == \
        (False, (3, "2 edges map into 3"))
    assert verify_both_ways(path, triangle, (0, 1, 2)) == (False, 3)


def verify_both_ways(G1, G2, f):
    """(verdict, violated condition or None) by checking edges in both
    directions: each edge of G1 maps onto an edge of G2 of its color, and
    each edge of G2 pulls back to one of G1 of its color.  The oracle for
    `verify_mapping`'s forward pass and edge count."""
    if any(G1.vertex_colors[v] != G2.vertex_colors[w] for v, w in enumerate(f)):
        return False, 1
    e1, e2 = ({(u, v): c for (u, v, c) in G.edges} for G in (G1, G2))
    for edges, other, image in ((e1, e2, f), (e2, e1, inverse(f))):
        for (u, v), c in edges.items():
            iu, iv = image[u], image[v]
            if other.get((min(iu, iv), max(iu, iv)), "absent") != c:
                return False, 3
    return True, None


EDGE_COLORS = [None, "plain:0", "plain:1"]


@st.composite
def mapped_pairs(draw):
    """(G1, G2, f): a random colored graph, a random bijection f of its
    vertices, and for G2 the image of G1 under f, that image with one edge
    added, recolored or removed, or another graph on as many vertices."""
    G1 = draw(colored_graphs())
    n = G1.num_vertices
    f = draw(st.permutations(range(n)))
    vcolors = [None] * n
    for v, w in enumerate(f):
        vcolors[w] = G1.vertex_colors[v]
    edges = {(min(f[u], f[v]), max(f[u], f[v])): c for (u, v, c) in G1.edges}
    kind = draw(st.sampled_from(["image", "extra", "recolor", "missing", "other"]))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if kind == "extra" and absent:
        edges[draw(st.sampled_from(absent))] = draw(st.sampled_from(EDGE_COLORS))
    elif kind == "recolor" and edges:
        e = draw(st.sampled_from(sorted(edges)))
        edges[e] = draw(st.sampled_from([c for c in EDGE_COLORS if c != edges[e]]))
    elif kind == "missing" and edges:
        del edges[draw(st.sampled_from(sorted(edges)))]
    G2 = draw(colored_graphs(n, n)) if kind == "other" else graph(vcolors, edges)
    return G1, G2, ImageColumn(f)


@settings(max_examples=300, deadline=None)
@given(mapped_pairs())
def test_one_way_check_agrees_with_the_two_way_oracle(pair):
    G1, G2, f = pair
    ok, violation = verify_mapping(G1, G2, f)
    assert (ok, None if ok else violation[0]) == verify_both_ways(G1, G2, f)


# ---------------------------------------------------------------------------
# automorphism groups


def test_k4_automorphisms():
    aut = automorphism_group(complete(4))
    assert aut.order == 24
    assert closure_order(aut.generators, 4) == 24


def test_cycle_automorphisms():
    aut = automorphism_group(cycle(5))
    assert aut.order == 10


def test_colored_gstar_k33_order_16(gstar33_0):
    aut = automorphism_group(gstar33_0)
    assert aut.order == 16
    # independent oracle: exhaustive pruned enumeration
    assert len(brute_force_isomorphisms(gstar33_0, gstar33_0)) == 16
    # generators verify and generate a group of exactly that size
    for g in aut.generators:
        ok, violation = verify_mapping(gstar33_0, gstar33_0, g)
        assert ok, violation
    assert closure_order(aut.generators, 24) == 16


def test_gpp_k33_order_16(gpp33_pair):
    gpp0, _ = gpp33_pair
    aut = automorphism_group(gpp0)
    assert aut.order == 16
    assert closure_order(aut.generators, gpp0.num_vertices) == 16


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cycle_incidence_pipeline_coincidence(n):
    # a second instance family: the solution group of a cycle's incidence
    # system collapses to a single involution, and both the colored graph
    # and its full decoloring have automorphism group of exactly that order
    from lcsq.f2core import SimpleGraph, incidence_system
    from lcsq.graphs import build_Gstar
    from lcsq.decolor import canonical_assignment, decolor_vertices, decolor_edges
    from lcsq.fpgroups import solution_presentation, todd_coxeter

    H = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    s = incidence_system(H, (0,) * n)
    table = todd_coxeter(solution_presentation(s, homogeneous=True))
    assert table.num_cosets == 2
    Gs = build_Gstar(s)
    assert automorphism_group(Gs).order == 2
    pa = canonical_assignment(Gs, C0)
    gpp = decolor_edges(decolor_vertices(Gs, pa), pa)
    assert automorphism_group(gpp).order == 2


def test_automorphism_order_matches_brute_force_small():
    rng = random.Random(13)
    for _ in range(15):
        G = random_colored_graph(rng, rng.randint(2, 6))
        expected = len(brute_force_isomorphisms(G, G))
        aut = automorphism_group(G)
        assert aut.order == expected
        assert closure_order(aut.generators, G.num_vertices) == expected


def test_gpp_k34_order_64(gpp34):
    aut = automorphism_group(gpp34)
    assert aut.order == 64
    for g in aut.generators:
        ok, violation = verify_mapping(gpp34, gpp34, g)
        assert ok, violation
    assert closure_order(aut.generators, gpp34.num_vertices) == 64


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_automorphism_order_matches_brute_force(G):
    assert automorphism_group(G).order == len(brute_force_isomorphisms(G, G))


# ---------------------------------------------------------------------------
# the union refiner: the search as it ran before each graph was refined on
# its own, with both graphs side by side in one partition


class UnionInstance:
    """Shared refinement workspace for one graph, or two side by side.

    `tokens[v]` is the color of vertex v, any sortable value, and `edges`
    are (u, v, color id) with id 0 for no color.  The vertices of the
    second graph follow those of the first, from `split` on.  Each
    adjacency entry is (neighbour, weight) with weight base**color_id, base
    above every degree, so a sum of weights encodes a per-color count.
    """

    def __init__(self, split, tokens, edges):
        self.split = split  # first vertex of the second graph
        total = len(tokens)
        degree = [0] * total
        for (u, v, _) in edges:
            degree[u] += 1
            degree[v] += 1
        base = max(degree, default=0) + 1
        self.adj = [[] for _ in range(total)]
        for (u, v, cid) in edges:
            weight = base ** cid
            self.adj[u].append((v, weight))
            self.adj[v].append((u, weight))

        token_ids = {t: i for i, t in enumerate(sorted(set(tokens)))}
        self.init_colors = [token_ids[t] for t in tokens]

    def _unbalanced(self, cell):
        # cells are sorted, so the first-graph vertices come first
        return 2 * bisect_left(cell, self.split) != len(cell)

    def initial(self):
        """The stable refinement of the vertex colors; None when some cell
        has unequal sides."""
        cells = [[] for _ in range(len(set(self.init_colors)))]
        for v, c in enumerate(self.init_colors):
            cells[c].append(v)
        part = graphiso._Partition(list(self.init_colors), cells)
        if any(self._unbalanced(cell) for cell in cells):
            return None
        return part if self._refine(part, list(range(len(cells)))) else None

    def individualize(self, part, v, w):
        """The child of a stable, balanced `part` that pairs v (first graph)
        with w (second graph, same cell); None when it is unbalanced."""
        cell_of = list(part.cell_of)
        cells = list(part.cells)
        c = cell_of[v]
        cells[c] = [x for x in cells[c] if x != v and x != w]
        new = len(cells)
        cells.append([v, w])
        cell_of[v] = cell_of[w] = new
        child = graphiso._Partition(cell_of, cells)
        return child if self._refine(child, [new]) else None

    def _refine(self, part, queue):
        """Split cells of `part` in place until it is equitable, starting
        from the splitter cells in `queue`.  Returns False when a fragment
        has unequal sides (no bijection can exist below this node), True
        otherwise."""
        adj, cell_of, cells = self.adj, part.cell_of, part.cells
        while queue:
            counts = {}
            for u in cells[queue.pop()]:
                for x, weight in adj[u]:
                    counts[x] = counts.get(x, 0) + weight
            touched = {}
            for x, k in counts.items():
                touched.setdefault(cell_of[x], []).append(k)
            for c, keys in touched.items():
                members = cells[c]
                if len(keys) == len(members) and min(keys) == max(keys):
                    continue
                groups = {}
                for x in members:
                    groups.setdefault(counts.get(x, 0), []).append(x)
                fragments = list(groups.values())
                if any(self._unbalanced(f) for f in fragments):
                    return False
                largest = max(fragments, key=len)
                cells[c] = largest
                for fragment in fragments:
                    if fragment is largest:
                        continue
                    new = len(cells)
                    cells.append(fragment)
                    for x in fragment:
                        cell_of[x] = new
                    queue.append(new)
        return True


def union_plain(graphs):
    """The workspace of whole graphs, nothing peeled."""
    ids = graphiso._edge_ids(graphs)
    tokens, edges = [], []
    for G in graphs:
        offset = len(tokens)
        edges.extend((offset + u, offset + v, ids[c]) for (u, v, c) in G.edges)
        tokens.extend(c or "" for c in G.vertex_colors)
    return UnionInstance(graphs[0].num_vertices, tokens, edges)


def union_side_by_side(core1, core2):
    k = len(core1.vertices)
    return UnionInstance(k, core1.tokens + core2.tokens,
                         core1.edges + [(u + k, v + k, e) for (u, v, e) in core2.edges])


def union_target(part):
    """The smallest cell with more than one vertex from each graph, ties to
    the cell holding the smallest vertex; None when every cell is a pair."""
    return min((cell for cell in part.cells if len(cell) > 2),
               key=lambda cell: (len(cell), cell[0]), default=None)


def union_search(inst, part):
    if part is None:
        return None
    n1 = inst.split
    cell = union_target(part)
    if cell is None:
        return ImageColumn(c[1] - n1 for c in sorted(part.cells))
    v = cell[0]
    # try the mirror vertex first: makes "G vs itself" return the identity
    for w in sorted(cell[len(cell) // 2:], key=lambda w: (w - n1 != v, w)):
        found = union_search(inst, inst.individualize(part, v, w))
        if found is not None:
            return found
    return None


def union_chain(inst):
    """Generators and order of the automorphism group of a graph laid side
    by side with itself in `inst`, by the stabilizer chain."""
    n1 = inst.split
    part = inst.initial()
    generators = []
    order = 1
    while True:
        if part is None:
            raise RuntimeError("refinement of a graph against itself is unbalanced")
        cell = union_target(part)
        if cell is None:
            return generators, order
        left = cell[:len(cell) // 2]
        v = left[0]
        orbit = 1
        for w in left[1:]:
            g = union_search(inst, inst.individualize(part, v, n1 + w))
            if g is not None:
                orbit += 1
                generators.append(g)
        order *= orbit
        part = inst.individualize(part, v, n1 + v)


def union_refine(G):
    """The classes of G's first copy beside itself."""
    return tuple(union_plain([G, G]).initial().cell_of[:G.num_vertices])


def plain_sides(graphs):
    """The per-graph workspaces of whole graphs, nothing peeled."""
    ids = graphiso._edge_ids(graphs)
    return graphiso._sides([([c or "" for c in G.vertex_colors],
                             [(u, v, ids[c]) for (u, v, c) in G.edges]) for G in graphs])


def column(images):
    return None if images is None else ImageColumn(images)


@settings(max_examples=200, deadline=None)
@given(colored_graphs(), colored_graphs(), st.randoms(use_true_random=False))
def test_per_graph_refinement_agrees_with_the_union(G, other, rng):
    assert refine(G) == union_refine(G)
    shuffled, _ = permuted_copy(G, rng)
    for H in (G, shuffled, other):
        inst = union_plain([G, H])
        assert column(graphiso._find(*plain_sides([G, H]))) == \
            union_search(inst, inst.initial())
    # the same graph in two workspaces replays what one workspace reuses
    [side], [twin] = plain_sides([G]), plain_sides([G])
    assert graphiso._find(side, twin) == graphiso._find(side, side)
    generators, order = graphiso._chain(side)
    assert ([column(g) for g in generators], order) == union_chain(union_plain([G, G]))


def test_a_whole_cell_counted_differently_prunes():
    # three color classes of three vertices: a 6-cycle between A and B and
    # K3,3 between B and C, against the reverse.  Refinement splits nothing;
    # only the count each splitter gives a whole cell tells them apart
    A, B, C = (0, 1, 2), (3, 4, 5), (6, 7, 8)

    def six_cycle(X, Y):
        return [(X[i], Y[j]) for i in range(3) for j in (i, (i + 1) % 3)]

    def complete_bipartite(X, Y):
        return [(x, y) for x in X for y in Y]

    vcolors = ["v:0"] * 3 + ["v:1"] * 3 + ["v:2"] * 3
    G1 = graph(vcolors, dict.fromkeys(six_cycle(A, B) + complete_bipartite(B, C)))
    G2 = graph(vcolors, dict.fromkeys(complete_bipartite(A, B) + six_cycle(B, C)))
    assert refine(G1) == refine(G2) == (0,) * 3 + (1,) * 3 + (2,) * 3
    assert oracle_isomorphism(G1, G2) is None
    assert graphiso._find(*plain_sides([G1, G2])) is None
    assert find_isomorphism(G1, G2) is None


# ---------------------------------------------------------------------------
# the 2-core reduction, against the search on the whole graphs


def oracle_isomorphism(G1, G2):
    """The search on both graphs as given, nothing peeled."""
    inst = union_plain([G1, G2])
    return union_search(inst, inst.initial())


def oracle_automorphisms(G):
    """The stabilizer chain on the graph as given: (generators, order)."""
    return union_chain(union_plain([G, G]))


def core_of(G):
    return graphiso._core(G, graphiso._edge_ids([G]), {})


def core_search(G1, G2):
    """The union search on the two labelled cores that `find_isomorphism`
    searches, with no extension: the cores alone must tell the graphs apart."""
    ids, codes = graphiso._edge_ids([G1, G2]), {}
    inst = union_side_by_side(graphiso._core(G1, ids, codes),
                              graphiso._core(G2, ids, codes))
    return union_search(inst, inst.initial())


def graph(vcolors, edges):
    """A graph from its vertex colors and a {(u, v): color} edge dict."""
    return ColoredGraph(tuple(range(len(vcolors))), tuple(vcolors),
                        tuple((min(e), max(e), c) for e, c in sorted(edges.items())))


@st.composite
def pendant_graphs(draw):
    """A small graph, often with a triangle so that it has a core, trees
    grown on it one leaf at a time, and sometimes a tree component."""
    G = draw(colored_graphs(max_vertices=5))
    vcolors = list(G.vertex_colors)
    edges = {(u, v): c for (u, v, c) in G.edges}
    if G.num_vertices >= 3 and draw(st.booleans()):
        for e in ((0, 1), (0, 2), (1, 2)):
            edges.setdefault(e, None)
    for _ in range(draw(st.integers(0, 6))):
        parent = draw(st.integers(0, len(vcolors) - 1))
        edges[(parent, len(vcolors))] = draw(st.sampled_from([None, "plain:0"]))
        vcolors.append(draw(st.sampled_from([None, "v:0"])))
    size = draw(st.integers(0, 2))  # a tree component: a vertex or an edge
    vcolors.extend([None] * size)
    if size == 2:
        edges[(len(vcolors) - 2, len(vcolors) - 1)] = None
    return graph(vcolors, edges)


# a triangle with three equal leaves on vertex 0 and two equal paths on 1
SIBLINGS = graph([None] * 10, {(0, 1): None, (0, 2): None, (1, 2): None,
                               (0, 3): None, (0, 4): None, (0, 5): None,
                               (1, 6): None, (6, 7): None, (1, 8): None, (8, 9): None})
# a 4-cycle with a colored leaf, a colored pendant edge, and both on a path
COLORED = graph([None, None, None, None, "v:0", None, None, "v:0"],
                {(0, 1): None, (1, 2): None, (2, 3): None, (0, 3): None,
                 (0, 4): None, (1, 5): "plain:0", (2, 6): "plain:0", (6, 7): None})
# a triangle with a pendant vertex, beside a path: a tree component
WITH_TREE = graph([None] * 7, {(0, 1): None, (0, 2): None, (1, 2): None,
                               (2, 3): None, (4, 5): None, (5, 6): None})


@settings(max_examples=150, deadline=None)
@example(SIBLINGS, COLORED, random.Random(1))
@example(COLORED, SIBLINGS, random.Random(2))
@example(WITH_TREE, SIBLINGS, random.Random(3))
@given(pendant_graphs(), pendant_graphs(), st.randoms(use_true_random=False))
def test_core_reduction_agrees_with_whole_graph_search(G, other, rng):
    shuffled, _ = permuted_copy(G, rng)
    for H in (shuffled, other):
        found = find_isomorphism(G, H)
        assert (found is None) == (oracle_isomorphism(G, H) is None)
        if found is not None:
            assert verify_mapping(G, H, found) == (True, None)
    assert find_isomorphism(G, G) == tuple(range(G.num_vertices))

    aut = automorphism_group(G)
    assert aut.order == oracle_automorphisms(G)[1]
    if G.num_vertices <= 7:
        assert aut.order == len(brute_force_isomorphisms(G, G))
    for g in aut.generators:
        assert verify_mapping(G, G, g) == (True, None)
    assert closure_order(aut.generators, G.num_vertices) == aut.order


def oracle_pair_trees(core1, core2, roots):
    """Each root pair with everything hanging below it, paired down the
    trees in sorted (edge color, code, vertex) order, one walk per call:
    {vertex: image}."""
    image = {}
    stack = list(roots)
    while stack:
        x, y = stack.pop()
        image[x] = y
        stack.extend((a[2], b[2]) for a, b in zip(core1.children[x], core2.children[y]))
    return image


def oracle_extend(core1, core2, f):
    image = oracle_pair_trees(core1, core2, [(core1.vertices[v], core2.vertices[w])
                                             for v, w in enumerate(f)])
    return ImageColumn(map(image.__getitem__, range(len(image))))


def oracle_find_isomorphism(G1, G2):
    """`find_isomorphism` with the core map paired down the trees."""
    ids, codes = graphiso._edge_ids([G1, G2]), {}
    core1, core2 = graphiso._core(G1, ids, codes), graphiso._core(G2, ids, codes)
    inst = union_side_by_side(core1, core2)
    found = union_search(inst, inst.initial())
    return None if found is None else oracle_extend(core1, core2, found)


def oracle_automorphism_generators(G):
    """The core generators paired down the trees, then one swap of each two
    neighbouring children with equal codes."""
    core = core_of(G)
    found, _ = union_chain(union_side_by_side(core, core))
    generators = [oracle_extend(core, core, g) for g in found]
    for kids in core.children:
        for a, b in zip(kids, kids[1:]):
            if a[:2] == b[:2]:
                swap = oracle_pair_trees(core, core, [(a[2], b[2]), (b[2], a[2])])
                generators.append(ImageColumn(swap.get(x, x) for x in range(G.num_vertices)))
    return tuple(generators)


def with_edge_beside(G):
    """G with a disjoint edge added: a tree component, so G is kept whole."""
    n = G.num_vertices
    return ColoredGraph(tuple(range(n + 2)), G.vertex_colors + (None, None),
                        G.edges + ((n, n + 1, None),))


@settings(max_examples=150, deadline=None)
@example(SIBLINGS, COLORED, random.Random(1))
@example(COLORED, SIBLINGS, random.Random(2))
@example(WITH_TREE, SIBLINGS, random.Random(3))
@given(pendant_graphs(), pendant_graphs(), st.randoms(use_true_random=False))
def test_layout_extension_agrees_with_pairing_down_the_trees(G, other, rng):
    for F in (G, with_edge_beside(G)):
        shuffled, _ = permuted_copy(F, rng)
        for H in (shuffled, other, F):
            assert find_isomorphism(F, H) == oracle_find_isomorphism(F, H)
        assert automorphism_group(F).generators == oracle_automorphism_generators(F)


def test_layout_spans_of_siblings():
    # core vertex 0 hangs three leaves, 1 two paths, 2 nothing
    order, rank, spans = core_of(SIBLINGS).layout
    assert order == [0, 3, 4, 5, 1, 6, 7, 8, 9, 2]
    assert spans == [[0, 3, 4, 5], [1, 6, 7, 8, 9], [2]]
    assert [order[r] for r in rank] == list(range(10))


def test_sibling_groups_multiply_the_order():
    # the triangle's three vertices carry different trees, so its labelled
    # automorphism group is trivial and |Aut| = 1 * 3! * 2!
    core = core_of(SIBLINGS)
    assert core.vertices == [0, 1, 2]
    assert oracle_automorphisms(SIBLINGS)[1] == 12
    aut = automorphism_group(SIBLINGS)
    assert aut.order == 12 == len(brute_force_isomorphisms(SIBLINGS, SIBLINGS))
    assert len(aut.generators) == 3  # swaps 3<->4, 4<->5 and path 6-7 <-> 8-9
    assert closure_order(aut.generators, 10) == 12


def test_tree_component_keeps_the_graph_whole():
    core = core_of(WITH_TREE)
    assert core.vertices == list(range(7))
    assert not any(core.children)
    assert core_of(plain(3, [(0, 1), (1, 2)])).vertices == [0, 1, 2]


@pytest.mark.parametrize("pair, order, core_size",
                         [("gpp44_pair", 512, 288), ("gpp35_pair", 256, 458)])
def test_large_gpp_pairs_through_the_core(request, pair, order, core_size):
    gpp0, gpp1 = request.getfixturevalue(pair)
    assert len(core_of(gpp0).vertices) == len(core_of(gpp1).vertices) == core_size
    assert find_isomorphism(gpp0, gpp1) is None
    aut = automorphism_group(gpp0)
    assert aut.order == order
    for g in aut.generators:
        assert verify_mapping(gpp0, gpp0, g) == (True, None)


def _mutant(G, edges, vcolors=None):
    vcolors = list(G.vertex_colors) if vcolors is None else vcolors
    return graph(vcolors, edges)


def _longer_path(G, leaf):
    edges = {(u, v): c for (u, v, c) in G.edges}
    edges[(leaf, G.num_vertices)] = None
    return _mutant(G, edges, list(G.vertex_colors) + [None])


def _recolored_pendant_edge(G, leaf):
    edges = {(u, v): c for (u, v, c) in G.edges}
    (e,) = [e for e in edges if leaf in e]
    edges[e] = "plain:0"
    return _mutant(G, edges)


def _moved_tree(G, core):
    # the tree below a core vertex with one child goes to a bare core vertex
    r = next(v for v in core.vertices if len(core.children[v]) == 1)
    s = next(v for v in core.vertices if not core.children[v])
    t = core.children[r][0][2]
    edges = {(u, v): c for (u, v, c) in G.edges}
    del edges[(min(r, t), max(r, t))]
    edges[(min(s, t), max(s, t))] = None
    return _mutant(G, edges)


@pytest.mark.parametrize("mutate", ["longer", "recolored", "moved"])
def test_pendant_mutants_are_not_isomorphic(gpp33_pair, mutate):
    gpp0, _ = gpp33_pair
    core = core_of(gpp0)
    leaf = gpp0.degrees().index(1)
    M = {"longer": lambda: _longer_path(gpp0, leaf),
         "recolored": lambda: _recolored_pendant_edge(gpp0, leaf),
         "moved": lambda: _moved_tree(gpp0, core)}[mutate]()
    mutant_core = core_of(M)
    assert mutant_core.vertices == core.vertices
    assert sorted(mutant_core.edges) == sorted(core.edges)
    assert find_isomorphism(gpp0, M) is None
    assert oracle_isomorphism(gpp0, M) is None
    assert core_search(gpp0, M) is None


# ---------------------------------------------------------------------------
# a search-free oracle: on the graphs of a linear system, classical
# isomorphism and automorphism orders are F2 linear algebra


@st.composite
def linear_systems(draw, constraints, variables):
    """A system M x = b with the given ranges of constraint and variable
    counts, every constraint touching at least one variable."""
    m, n = draw(st.integers(*constraints)), draw(st.integers(*variables))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return system(rows, tuple(b))


def constructions(sys):
    """build_G, and build_Gstar when no two constraints share two variables."""
    try:
        build_Gstar(sys)
    except ValueError as exc:
        assert "the reduced construction needs at most one" in str(exc)
        return [build_G]
    return [build_G, build_Gstar]


@settings(max_examples=60, deadline=None)
@given(linear_systems((2, 4), (3, 6)), st.data())
def test_isomorphism_exactly_when_the_rhs_difference_is_solvable(sys, data):
    # G(M, b1) and G(M, b2) are isomorphic exactly when M x = b1 + b2 is
    # solvable (Atserias et al. 2019); a solution flips the signs at x
    m = sys.num_constraints
    b2 = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    solvable = solve_f2(sys.with_b(tuple(x ^ y for x, y in zip(sys.b, b2)))) is not None
    for build in constructions(sys):
        G1, G2 = build(sys), build(sys.with_b(b2))
        found = find_isomorphism(G1, G2)
        assert (found is not None) == solvable, build.__name__
        if found is not None:
            assert verify_mapping(G1, G2, found) == (True, None)


def free_variables(sys):
    """The number of variables that no constraint touches."""
    used = set().union(*map(sys.support, range(sys.num_constraints)))
    return sys.num_vars - len(used)


@settings(max_examples=40, deadline=None)
@given(linear_systems((2, 5), (3, 7)))
def test_automorphism_order_of_G_M_0_is_the_abelianized_order(sys):
    # each variable in no constraint is a free Z2 factor of Gamma_0 that
    # the graph, whose vertices are local solutions, cannot see
    homogeneous = sys.with_b((0,) * sys.num_constraints)
    expected = abelianized_order(solution_presentation(homogeneous, homogeneous=True))
    assert automorphism_group(build_G(homogeneous)).order == \
        expected >> free_variables(homogeneous)


def test_a_variable_in_no_constraint_does_not_act_on_G():
    # x1 and x2 occur in no constraint: Gamma_0's abelianization has order 4,
    # while G(M, 0) is two vertices of different colors joined by an edge
    sys = parse_system("001;001|00")
    assert abelianized_order(solution_presentation(sys, homogeneous=True)) == 4
    assert free_variables(sys) == 2
    assert automorphism_group(build_G(sys)).order == 1
