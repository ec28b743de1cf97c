"""Classical isomorphism and automorphism of colored graphs.

Both questions are answered on the 2-core: what is left of a graph after
repeatedly deleting vertices of degree 1.  Each deleted vertex hangs, by
the edge to its parent, below one core vertex, and the hanging vertices
form rooted trees.  Each tree gets an AHU code (Aho, Hopcroft and Ullman's
rooted-tree isomorphism, with colors): the code of a vertex is its vertex
color with the sorted (edge color, code) pairs of its children, interned
to an int, so two rooted trees have equal codes exactly when they are
isomorphic.  A core vertex is labelled by its color with its sorted
hanging (edge color, code) pairs.  The reduction is exact: every
isomorphism maps core onto core and each hanging tree onto one with the
same code, so two graphs are isomorphic exactly when their labelled cores
are, and a core isomorphism extends by pairing children with equal codes
in sorted order.  |Aut(G)| is |Aut(labelled core)| times k! for every
group of k equal-code children of any vertex, core vertices included.  A
graph with a tree component (an isolated vertex, a path, a forest) has
no core below that component; it is searched as given.  Decolored graphs
encode every color as a pendant path, so their cores are small: the K4,4
G'' has 288 core vertices out of 6672.

Color refinement drives an individualization-refinement backtracking
search.  Refinement is incremental cell splitting (McKay and Piperno,
"Practical graph isomorphism II", 2014; Junttila and Kaski, bliss, 2007):
a queue of splitter cells, where each touched cell is split by its
vertices' per-edge-color neighbour counts into the splitter, until the
partition is equitable.  The coarsest equitable refinement is unique, so
the stable partition is the one 1-WL color refinement reaches.

Isomorphism is decided on the disjoint union of the two cores: a search
node holds a stable partition in which every cell has as many vertices
of one graph as of the other, and each child individualizes one pair
(v, w), one vertex from each graph, then refines from that new cell
alone.  A fragment with unequal sides prunes the branch at once.
Refinement alone cannot separate the quantum-isomorphic pairs produced
elsewhere in this package -- they are fractionally isomorphic by
construction -- so the search exhausts the candidate branches.

The automorphism group of the core is computed as a stabilizer chain:
the orbit of a base vertex is found by explicit searches, the stabilizer
recursively, and the order is the product of the orbit sizes.  The only
canonical form computed is the AHU code of each hanging tree; the core
itself is compared by direct search.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .graphs import ColoredGraph


@dataclass(frozen=True)
class StableColoring:
    """Vertex classes of the stable (equitable) partition: `classes[v]` is
    the index of v's cell."""

    classes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(set(self.classes))


@dataclass(frozen=True)
class Bijection:
    """A vertex bijection held as sorted (source, image) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def inverse(self) -> Bijection:
        return Bijection(tuple(sorted((w, v) for v, w in self.pairs)))

    def to_json_dict(self) -> dict:
        return {str(v): w for v, w in self.pairs}


@dataclass
class _Partition:
    """`cells[i]` lists the vertices of cell i in increasing order and
    `cell_of[v]` is the cell holding v.  A split replaces a cell's list
    instead of editing it, so a child may share the parent's lists."""

    cell_of: list[int]
    cells: list[list[int]]


class _Instance:
    """Shared refinement workspace for one graph, or two side by side.

    `tokens[v]` is the color of vertex v, any sortable value, and `edges`
    are (u, v, color id) with id 0 for no color.  The vertices of the
    second graph follow those of the first, from `split` on.  Each
    adjacency entry is (neighbour, weight) with weight base**color_id, base
    above every degree, so a sum of weights encodes a per-color count.
    """

    def __init__(self, split: int, tokens: list, edges: list[tuple[int, int, int]]):
        self.split = split  # first vertex of the second graph
        total = len(tokens)
        degree = [0] * total
        for (u, v, _) in edges:
            degree[u] += 1
            degree[v] += 1
        base = max(degree, default=0) + 1
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(total)]
        for (u, v, cid) in edges:
            weight = base ** cid
            self.adj[u].append((v, weight))
            self.adj[v].append((u, weight))

        token_ids = {t: i for i, t in enumerate(sorted(set(tokens)))}
        self.init_colors = [token_ids[t] for t in tokens]

    def _unbalanced(self, cell: list[int]) -> bool:
        # cells are sorted, so the first-graph vertices come first
        return 2 * bisect_left(cell, self.split) != len(cell)

    def initial(self) -> _Partition | None:
        """The stable refinement of the vertex colors; None when some cell
        has unequal sides."""
        cells: list[list[int]] = [[] for _ in range(len(set(self.init_colors)))]
        for v, c in enumerate(self.init_colors):
            cells[c].append(v)
        part = _Partition(list(self.init_colors), cells)
        if any(self._unbalanced(cell) for cell in cells):
            return None
        return part if self._refine(part, list(range(len(cells)))) else None

    def individualize(self, part: _Partition, v: int, w: int) -> _Partition | None:
        """The child of a stable, balanced `part` that pairs v (first graph)
        with w (second graph, same cell); None when it is unbalanced."""
        cell_of = list(part.cell_of)
        cells = list(part.cells)
        c = cell_of[v]
        cells[c] = [x for x in cells[c] if x != v and x != w]
        new = len(cells)
        cells.append([v, w])
        cell_of[v] = cell_of[w] = new
        child = _Partition(cell_of, cells)
        return child if self._refine(child, [new]) else None

    def _refine(self, part: _Partition, queue: list[int]) -> bool:
        """Split cells of `part` in place until it is equitable, starting
        from the splitter cells in `queue`.  Returns False when a fragment
        has unequal sides (no bijection can exist below this node), True
        otherwise."""
        adj, cell_of, cells = self.adj, part.cell_of, part.cells
        while queue:
            counts: dict[int, int] = {}
            for u in cells[queue.pop()]:
                for x, weight in adj[u]:
                    counts[x] = counts.get(x, 0) + weight
            touched: dict[int, list[int]] = {}
            for x, k in counts.items():
                touched.setdefault(cell_of[x], []).append(k)
            for c, keys in touched.items():
                members = cells[c]
                if len(keys) == len(members) and min(keys) == max(keys):
                    continue
                groups: dict[int, list[int]] = {}
                for x in members:
                    groups.setdefault(counts.get(x, 0), []).append(x)
                fragments = list(groups.values())
                if any(self._unbalanced(f) for f in fragments):
                    return False
                # the largest fragment keeps the cell's id, and its place in
                # the queue if it had one; every other fragment is queued.
                # Counts into an unqueued largest fragment are the counts
                # into the old cell minus those into the others.
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


def _edge_ids(graphs: list[ColoredGraph]) -> dict:
    """Edge color -> id: 0 for no color, then the colors in sorted order."""
    names = sorted({c for G in graphs for (_, _, c) in G.edges} - {None})
    return {None: 0, **{name: i + 1 for i, name in enumerate(names)}}


def _plain(graphs: list[ColoredGraph]) -> _Instance:
    """The workspace of whole graphs, nothing peeled: `refine`'s."""
    ids = _edge_ids(graphs)
    tokens: list = []
    edges = []
    for G in graphs:
        offset = len(tokens)
        edges.extend((offset + u, offset + v, ids[c]) for (u, v, c) in G.edges)
        tokens.extend(c or "" for c in G.vertex_colors)
    return _Instance(graphs[0].num_vertices, tokens, edges)


def refine(G: ColoredGraph) -> StableColoring:
    """Stable 1-WL partition of one graph, read from the first copy of G
    beside itself: every cell there has equal sides, and a vertex has
    neighbours only in its own copy, so the copy's classes are G's."""
    return StableColoring(tuple(_plain([G, G]).initial().cell_of[:G.num_vertices]))


@dataclass
class _Core:
    """The 2-core of a graph with the rooted trees hanging from it.

    `vertices` lists the core's vertices of the graph in increasing order;
    core vertex i is `vertices[i]`, `tokens[i]` its label and `edges` the
    core's edges in that numbering.  `children[x]` holds (edge color id,
    code, child) for each child of vertex x of the graph, sorted.
    """

    vertices: list[int]
    tokens: list[int]
    edges: list[tuple[int, int, int]]
    children: list[list[tuple[int, int, int]]]


def _core(G: ColoredGraph, ids: dict, codes: dict) -> _Core:
    """Peel G down to its 2-core, giving each peeled vertex an AHU code
    interned in `codes` (shared by graphs that are compared).  A graph
    with a tree component is kept whole."""
    n = G.num_vertices
    colors = [c or "" for c in G.vertex_colors]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, c) in G.edges:
        adj[u].append((v, ids[c]))
        adj[v].append((u, ids[c]))
    degree = [len(a) for a in adj]
    peeled = [False] * n
    up = []  # (vertex, parent, edge color id) in the order peeled
    order = [v for v in range(n) if degree[v] == 1]
    for x in order:  # grows while it is read
        if degree[x] == 0:  # x is the last vertex of a tree component
            break
        peeled[x] = True
        parent, cid = next((y, cid) for y, cid in adj[x] if not peeled[y])
        up.append((x, parent, cid))
        degree[parent] -= 1
        if degree[parent] == 1:
            order.append(parent)
    if 0 in degree:  # a tree has no core to hang from: search G as given
        up, peeled = [], [False] * n

    children: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]

    def code(v):
        children[v].sort()
        return codes.setdefault((colors[v], tuple(k[:2] for k in children[v])),
                                len(codes))

    for x, parent, cid in up:  # every child is peeled before its parent
        children[parent].append((cid, code(x), x))
    vertices = [v for v in range(n) if not peeled[v]]
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[v], ids[c]) for (u, v, c) in G.edges
             if not (peeled[u] or peeled[v])]
    return _Core(vertices, [code(v) for v in vertices], edges, children)


def _side_by_side(core1: _Core, core2: _Core) -> _Instance:
    k = len(core1.vertices)
    return _Instance(k, core1.tokens + core2.tokens,
                     core1.edges + [(u + k, v + k, e) for (u, v, e) in core2.edges])


def _extend(core1: _Core, core2: _Core, f: Bijection) -> Bijection:
    """The bijection of the full graphs that a core bijection f extends to,
    pairing the children of each vertex and its image in sorted order."""
    return _pair_trees(core1, core2, [(core1.vertices[v], core2.vertices[w])
                                      for v, w in f.pairs])


def _pair_trees(core1: _Core, core2: _Core,
                roots: list[tuple[int, int]]) -> Bijection:
    """Each root pair with everything hanging below it, paired down the
    trees in sorted (edge color, code, vertex) order."""
    image = {}
    stack = list(roots)
    while stack:
        x, y = stack.pop()
        image[x] = y
        stack.extend((a[2], b[2]) for a, b in zip(core1.children[x], core2.children[y]))
    return Bijection(tuple(sorted(image.items())))


def verify_mapping(G1: ColoredGraph, G2: ColoredGraph,
                   f: Bijection) -> tuple[bool, tuple[int, str] | None]:
    """Check the deterministic win conditions: vertex colors (1) and
    edge/non-edge with equal colors both ways (3).  A non-bijective map is
    an error (it cannot satisfy condition 2)."""
    mapping = f.mapping()
    n1, n2 = G1.num_vertices, G2.num_vertices
    if sorted(mapping) != list(range(n1)) or sorted(mapping.values()) != list(range(n2)):
        raise ValueError("not a bijection between the vertex sets (condition 2)")

    for v, w in mapping.items():
        c1, c2 = G1.vertex_colors[v], G2.vertex_colors[w]
        if c1 != c2:
            return False, (1, f"vertex color: {v} has {c1}, image {w} has {c2}")

    e1, e2 = ({(u, v): c for (u, v, c) in G.edges} for G in (G1, G2))
    for (u, v), c in e1.items():
        iu, iv = mapping[u], mapping[v]
        image = e2.get((min(iu, iv), max(iu, iv)), "absent")
        if image != c:
            return False, (3, f"edge ({u},{v}) color {c} maps to {image}")
    inverse = f.inverse().mapping()
    for (u, v), c in e2.items():
        iu, iv = inverse[u], inverse[v]
        preimage = e1.get((min(iu, iv), max(iu, iv)), "absent")
        if preimage != c:
            return False, (3, f"edge ({u},{v}) color {c} pulls back to {preimage}")
    return True, None


def _quick_mismatch(G1: ColoredGraph, G2: ColoredGraph) -> bool:
    return (G1.num_vertices != G2.num_vertices or G1.num_edges != G2.num_edges
            or Counter(G1.vertex_colors) != Counter(G2.vertex_colors)
            or Counter(c for (_, _, c) in G1.edges) != Counter(c for (_, _, c) in G2.edges))


def _target(part: _Partition) -> list[int] | None:
    """The smallest cell with more than one vertex from each graph, ties to
    the cell holding the smallest vertex; None when every cell is a pair."""
    best = None
    for cell in part.cells:
        if len(cell) > 2 and (best is None or (len(cell), cell[0]) < (len(best), best[0])):
            best = cell
    return best


def _search(inst: _Instance, part: _Partition | None) -> Bijection | None:
    if part is None:
        return None
    n1 = inst.split
    cell = _target(part)
    if cell is None:
        return Bijection(tuple(sorted((c[0], c[1] - n1) for c in part.cells)))
    v = cell[0]
    # try the mirror vertex first: makes "G vs itself" return the identity
    candidates = sorted(cell[len(cell) // 2:], key=lambda w: (w - n1 != v, w))
    for w in candidates:
        found = _search(inst, inst.individualize(part, v, w))
        if found is not None:
            return found
    return None


def find_isomorphism(G1: ColoredGraph, G2: ColoredGraph) -> Bijection | None:
    """A color- and edge-preserving bijection, or None when none exists.

    The search runs on the two 2-cores, labelled by their hanging trees'
    codes from one shared table, and a core bijection is extended to the
    trees by pairing equal-code children in sorted order.  The result is
    re-checked with verify_mapping on the full graphs before being
    returned.
    """
    if _quick_mismatch(G1, G2):
        return None
    ids, codes = _edge_ids([G1, G2]), {}
    core1, core2 = _core(G1, ids, codes), _core(G2, ids, codes)
    inst = _side_by_side(core1, core2)
    found = _search(inst, inst.initial())
    if found is None:
        return None
    found = _extend(core1, core2, found)
    ok, violation = verify_mapping(G1, G2, found)
    if not ok:
        raise RuntimeError(f"search produced an invalid mapping: {violation}")
    return found


@dataclass(frozen=True)
class AutomorphismGroup:
    generators: tuple[Bijection, ...]
    order: int


def _chain(inst: _Instance) -> tuple[list[Bijection], int]:
    """Generators and order of the automorphism group of a graph laid side
    by side with itself in `inst`.

    Stabilizer chain: fix base vertices one at a time; the orbit of each
    base vertex is determined by one search per candidate image, and the
    order is the product of the orbit sizes.
    """
    n1 = inst.split
    part = inst.initial()
    generators: list[Bijection] = []
    order = 1
    while True:
        if part is None:
            raise RuntimeError("refinement of a graph against itself is unbalanced")
        cell = _target(part)
        if cell is None:
            return generators, order
        left = cell[:len(cell) // 2]
        v = left[0]
        orbit = 1
        for w in left[1:]:
            g = _search(inst, inst.individualize(part, v, n1 + w))
            if g is not None:
                orbit += 1
                generators.append(g)
        order *= orbit
        part = inst.individualize(part, v, n1 + v)


def automorphism_group(G: ColoredGraph) -> AutomorphismGroup:
    """Color-preserving automorphisms: generators and the exact order.

    The stabilizer chain runs on the labelled 2-core, and each core
    generator is extended to the hanging trees.  Then each group of k
    children with equal codes, below any vertex, adds k-1 generators that
    swap neighbouring subtrees, and a factor k! to the order.
    """
    core = _core(G, _edge_ids([G]), {})
    found, order = _chain(_side_by_side(core, core))
    generators = [_extend(core, core, g) for g in found]
    n = G.num_vertices
    for kids in core.children:
        run = 1  # the place of b in its group of equal codes
        for a, b in zip(kids, kids[1:]):
            run = run + 1 if a[:2] == b[:2] else 1
            if run > 1:
                order *= run
                swap = _pair_trees(core, core, [(a[2], b[2]), (b[2], a[2])]).mapping()
                generators.append(Bijection(tuple((x, swap.get(x, x)) for x in range(n))))
    return AutomorphismGroup(tuple(generators), order)
