"""Classical isomorphism and automorphism of colored graphs.

Both questions are answered on the 2-core: what is left of a graph after
repeatedly deleting vertices of degree 1.  The deleted vertices form
rooted trees, each hanging by the edge to its parent below a core vertex.
A vertex's AHU code (Aho, Hopcroft and Ullman's rooted-tree isomorphism,
with colors) is its color with the sorted (edge color, code) pairs of its
children, interned to an int, so two rooted trees have equal codes
exactly when they are isomorphic; core vertices are labelled alike.  The
reduction is exact: every isomorphism maps core onto core and each
hanging tree onto one with the same code, so two graphs are isomorphic
exactly when their labelled cores are.  A core isomorphism extends to a
graph laid out as each core vertex followed by its tree in preorder,
children in sorted order, by mapping each core vertex's span onto its
image's, position by position.  |Aut(G)| is |Aut(labelled core)| times
k! for every group of k equal-code children of any vertex, core vertices
included.  A graph with a tree component (an isolated vertex, a path, a
forest) has no core below that component; it is searched as given.
Decolored graphs encode every color as a pendant path, so their cores
are small: the K4,4 G'' has 288 core vertices out of 6672.

Color refinement drives an individualization-refinement backtracking
search.  Refinement is incremental cell splitting (McKay and Piperno,
"Practical graph isomorphism II", 2014; Junttila and Kaski, bliss, 2007):
a queue of splitter cells, where each touched cell is split by its
vertices' per-edge-color neighbour counts into the splitter, until the
partition is equitable.  The coarsest equitable refinement is unique, so
the stable partition is the one 1-WL color refinement reaches.

Each graph is refined on its own, as McKay and Piperno do.  A search
node holds a left partition (of the first graph) and a right one (of the
second) with equal cell sizes under the same cell ids.  Refining the
left records what each splitter did to every cell it touched; the right
refines from the same queue and must reproduce that record exactly, or
no bijection respects both partitions and the branch is pruned.  Every
child of a node individualizes the same left vertex, the first of the
left's target cell (the smallest non-singleton, then the one holding the
smallest vertex), against each right vertex of the same cell in turn,
the mirror vertex first.  So the left partition depends on the depth
alone: it is refined once per depth for a whole search, and only the
right side replays.  Refinement alone cannot separate the
quantum-isomorphic pairs produced elsewhere in this package -- they are
fractionally isomorphic by construction -- so the search exhausts the
candidate branches.

The automorphism group of the core is computed as a stabilizer chain:
the orbit of a base vertex is found by explicit searches, the stabilizer
recursively, and the order is the product of the orbit sizes.  Both
sides are the one graph there, and the chain's base follows the left's
path, so each level's stabilizer node is the left's own partition.  The
only canonical form computed is the AHU code of each hanging tree; the
core itself is compared by direct search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .graphs import ColoredGraph, ImageColumn


@dataclass
class _Partition:
    """`cells[i]` lists the vertices of cell i in increasing order and
    `cell_of[v]` is the cell holding v.  A split replaces a cell's list
    instead of editing it, so a child may share the parent's lists."""

    cell_of: list[int]
    cells: list[list[int]]

    def individualize(self, c: int, v: int) -> _Partition:
        """A copy with v, a vertex of cell c, split off into a new last cell;
        refining it from that cell gives the child node."""
        cell_of, cells = list(self.cell_of), list(self.cells)
        rest = list(cells[c])
        rest.remove(v)
        cells[c] = rest
        cell_of[v] = len(cells)
        cells.append([v])
        return _Partition(cell_of, cells)


class _Side:
    """The refinement workspace of one graph.

    `colors[v]` is the id of vertex v's label and `sizes[i]` counts the
    vertices of label id i.  Each adjacency entry is (neighbour, weight)
    with weight base**color_id, so a sum of weights encodes a per-color
    count.  Graphs that are compared share one label table and one base,
    above every degree of both, so equal sums mean equal counts.
    """

    def __init__(self, n: int, colors: list[int], edges: list[tuple[int, int, int]],
                 weights: list[int], num_colors: int):
        self.colors = colors
        self.sizes = [0] * num_colors
        for c in colors:
            self.sizes[c] += 1
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v, cid) in edges:
            weight = weights[cid]
            self.adj[u].append((v, weight))
            self.adj[v].append((u, weight))

    def root(self, record: list | None = None) -> tuple[_Partition, list] | None:
        """The stable refinement of the vertex labels and its record; given
        the record of the other graph's, whose labels have the same `sizes`,
        None when this graph departs from it."""
        cells: list[list[int]] = [[] for _ in self.sizes]
        for v, c in enumerate(self.colors):
            cells[c].append(v)
        part = _Partition(list(self.colors), cells)
        record = self.split(part, list(range(len(cells))), record)
        return None if record is None else (part, record)

    def split(self, part: _Partition, queue: list[int],
               record: list | None = None) -> list | None:
        """Split cells of `part` in place until it is equitable, starting
        from the splitter cells in `queue`, and return the record of what
        each popped splitter did.  Given the record of the other graph's
        refinement from the same queue, follow it instead and return it, or
        None as soon as a split departs from it.

        A splitter's entry maps each touched cell, in the order cells were
        reached, to k when every member was counted k and the cell stayed
        whole, or else to its fragments' counts in the order they were met
        among the sorted members, their sizes, and the index of the fragment
        that keeps the cell's id: the first largest one.  Any other fragment
        becomes a new cell and joins the queue.
        """
        adj, cell_of, cells = self.adj, part.cell_of, part.cells
        replay = record is not None
        if not replay:
            record = []
        steps = iter(record)
        while queue:
            counts: dict[int, int] = {}
            for u in cells[queue.pop()]:
                for x, weight in adj[u]:
                    counts[x] = counts.get(x, 0) + weight
            touched: dict[int, list[int]] = {}
            for x, k in counts.items():
                touched.setdefault(cell_of[x], []).append(k)
            if replay:
                entry = next(steps)
                if touched.keys() != entry.keys():
                    return None
            else:
                entry = dict.fromkeys(touched)
                record.append(entry)
            for c, outcome in entry.items():
                keys, members = touched[c], cells[c]
                if len(keys) == len(members) and (len(keys) == 1 or min(keys) == max(keys)):
                    if not replay:
                        entry[c] = keys[0]
                    elif outcome != keys[0]:
                        return None
                    continue
                if replay and isinstance(outcome, int):
                    return None
                groups: dict[int, list[int]] = {}
                for x in members:
                    groups.setdefault(counts.get(x, 0), []).append(x)
                if replay:
                    order, sizes, keep = outcome
                    if len(groups) != len(order):
                        return None
                    fragments = list(map(groups.get, order))
                    if None in fragments or list(map(len, fragments)) != sizes:
                        return None
                else:
                    fragments = list(groups.values())
                    sizes = list(map(len, fragments))
                    keep = sizes.index(max(sizes))
                    entry[c] = (tuple(groups), sizes, keep)
                # the kept fragment takes over the cell's place in the queue
                # if it had one: counts into an unqueued kept fragment are the
                # counts into the old cell minus those into the others
                cells[c] = fragments[keep]
                for i, fragment in enumerate(fragments):
                    if i != keep:
                        new = len(cells)
                        cells.append(fragment)
                        for x in fragment:
                            cell_of[x] = new
                        queue.append(new)
        return record


def _sides(graphs: list[tuple[list, list[tuple[int, int, int]]]]) -> list[_Side]:
    """One workspace per graph, each given as (vertex labels, edges (u, v,
    color id)), with one label table and one weight base for all.  A graph
    equal to the first gets the first's workspace, so that searches know
    both sides alike."""
    ids = {t: i for i, t in enumerate(sorted(set().union(*(t for t, _ in graphs))))}
    degree, top = 0, 0  # the largest degree and edge color id of any graph
    for _, edges in graphs:
        ends = Counter(map(itemgetter(0), edges))
        ends.update(map(itemgetter(1), edges))
        degree = max(degree, max(ends.values(), default=0))
        top = max(top, max(map(itemgetter(2), edges), default=0))
    weights = [(degree + 1) ** i for i in range(top + 1)]
    sides: list[_Side] = []
    for tokens, edges in graphs:
        if sides and (tokens, edges) == graphs[0]:
            sides.append(sides[0])
        else:
            sides.append(_Side(len(tokens), list(map(ids.__getitem__, tokens)), edges,
                               weights, len(ids)))
    return sides


def _target(part: _Partition) -> int | None:
    """The smallest cell with more than one vertex, ties to the cell holding
    the smallest vertex; None when every cell is a single vertex."""
    return min((c for c, cell in enumerate(part.cells) if len(cell) > 1),
               key=lambda c: (len(part.cells[c]), part.cells[c][0]), default=None)


class _Path:
    """The left graph's partition at each depth of every search.

    Each node individualizes the first vertex of the left's target cell,
    whatever the right side does, so the left partition at a depth is one
    for all nodes there.  `parts[d]` is that stable partition, `targets[d]`
    its target cell (None at a leaf), and `records[d]` the record of the
    refinement that reached it."""

    def __init__(self, side: _Side):
        self.side = side
        part, record = side.root()
        self.parts, self.records, self.targets = [part], [record], [_target(part)]

    def child(self, depth: int) -> list:
        """The record of the refinement into depth + 1, refining once."""
        if depth + 1 == len(self.parts):
            part, c = self.parts[depth], self.targets[depth]
            part = part.individualize(c, part.cells[c][0])
            self.records.append(self.side.split(part, [len(part.cells) - 1]))
            self.parts.append(part)
            self.targets.append(_target(part))
        return self.records[depth + 1]


def _search(path: _Path, right: _Side, depth: int, part: _Partition) -> list[int] | None:
    """The first leaf below the right partition `part` at `depth`: the image
    column of a map from the left graph onto the right, or None."""
    left, c = path.parts[depth], path.targets[depth]
    if c is None:  # every cell is a single vertex on both sides
        first = list(map(itemgetter(0), part.cells))
        return list(map(first.__getitem__, left.cell_of))
    v = left.cells[c][0]
    record = path.child(depth)
    cell = part.cells[c]
    # try the mirror vertex first: makes "G vs itself" return the identity
    for w in [v] + [x for x in cell if x != v] if v in cell else cell:
        if part is left and w == v:  # the left's own node: its child is known
            child = path.parts[depth + 1]
        else:
            child = part.individualize(c, w)
            if right.split(child, [len(child.cells) - 1], record) is None:
                continue
        found = _search(path, right, depth + 1, child)
        if found is not None:
            return found
    return None


def _find(left: _Side, right: _Side) -> list[int] | None:
    """The image column of a map from the left graph onto the right that
    respects labels and edge colors, or None."""
    path = _Path(left)
    if right is left:
        return _search(path, right, 0, path.parts[0])
    if right.sizes != left.sizes:  # some label is on more vertices of one graph
        return None
    found = right.root(path.records[0])
    return None if found is None else _search(path, right, 0, found[0])


def _edge_ids(graphs: list[ColoredGraph]) -> dict:
    """Edge color -> id: 0 for no color, then the colors in sorted order."""
    names = sorted({c for G in graphs for (_, _, c) in G.edges} - {None})
    return {None: 0, **{name: i + 1 for i, name in enumerate(names)}}


@dataclass
class _Core:
    """The 2-core of a graph with the rooted trees hanging from it.

    `vertices` lists the core's vertices of the graph in increasing order;
    core vertex i is `vertices[i]`, `tokens[i]` its label and `edges` the
    core's edges in that numbering.  `children[x]` holds (edge color id,
    code, child) for each child of x, sorted.  The `layout` has core vertex
    i, then its hanging tree in preorder, at spans[i].
    """

    vertices: list[int]
    tokens: list[int]
    edges: list[tuple[int, int, int]]
    children: list[list[tuple[int, int, int]]]

    @cached_property
    def layout(self) -> tuple[list[int], list[int], list[list[int]]]:
        """(order, rank, spans), built on first use: x is order[rank[x]], and
        order is the concatenation of the spans."""
        children, order, stack = self.children, [], self.vertices[::-1]
        while stack:
            x = stack.pop()
            order.append(x)
            kids = children[x]
            while kids:  # down the first child, the later ones stacked
                if len(kids) > 1:
                    stack += [k[2] for k in kids[:0:-1]]
                x = kids[0][2]
                order.append(x)
                kids = children[x]
        rank = [0] * len(order)
        for i, x in enumerate(order):
            rank[x] = i
        starts = [rank[v] for v in self.vertices] + [len(order)]
        return order, rank, [order[i:j] for i, j in zip(starts, starts[1:])]

    def bijection(self, image: list[int]) -> ImageColumn:
        """The map of the i-th vertex of the layout to image[i]."""
        return ImageColumn(map(image.__getitem__, self.layout[1]))


def _core(G: ColoredGraph, ids: dict, codes: dict) -> _Core:
    """Peel G down to its 2-core, giving each peeled vertex an AHU code
    interned in `codes` (shared by graphs that are compared).  A graph
    with a tree component is kept whole."""
    n = G.num_vertices
    colors = [c or "" for c in G.vertex_colors]
    edges = G.edges
    pair = itemgetter(0, 1)  # a child's (edge color id, code)
    degree, incident = [0] * n, [0] * n  # incident[v]: v's unpeeled edges' index sum
    for i, (u, v, _) in enumerate(edges):
        degree[u] += 1
        degree[v] += 1
        incident[u] += i
        incident[v] += i
    children: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    order = [v for v in range(n) if degree[v] == 1]
    for x in order:  # grows while it is read
        if degree[x] == 0:  # x is the last vertex of a tree component
            break
        u, v, c = edges[incident[x]]  # x's one edge left: to its parent
        parent = u if v == x else v
        incident[parent] -= incident[x]
        kids = children[x]
        kids.sort()  # every child is peeled, and coded, before its parent
        key = (colors[x], tuple(map(pair, kids)))
        children[parent].append((ids[c], codes.setdefault(key, len(codes)), x))
        degree[parent] -= 1
        if degree[parent] == 1:
            order.append(parent)
    if 0 in degree:  # a tree has no core to hang from: search G as given
        children, degree = [[] for _ in range(n)], [2] * n  # nothing peeled
    vertices = [v for v in range(n) if degree[v] > 1]  # the unpeeled ones
    index = {v: i for i, v in enumerate(vertices)}
    for v in vertices:
        children[v].sort()
    tokens = [codes.setdefault((colors[v], tuple(map(pair, children[v]))), len(codes))
              for v in vertices]
    return _Core(vertices, tokens, [(index[u], index[v], ids[c]) for (u, v, c) in edges
                                    if degree[u] > 1 and degree[v] > 1], children)


def _extend(core1: _Core, core2: _Core, images: list[int]) -> ImageColumn:
    """The bijection of the full graphs that a core map, given as its image
    column, extends to: the span of each core vertex onto its image's."""
    spans = core2.layout[2]
    return core1.bijection(list(chain.from_iterable(map(spans.__getitem__, images))))


def verify_mapping(G1: ColoredGraph, G2: ColoredGraph,
                   images: tuple[int, ...]) -> tuple[bool, tuple[int, str] | None]:
    """Check the deterministic win conditions, for the vertex map whose
    image column is `images` (vertex v maps to images[v]): vertex colors (1)
    and edge/non-edge with equal colors (3).  A non-bijective map is an
    error (it cannot satisfy condition 2).

    Edges are checked forward only.  A vertex bijection maps distinct edges
    of G1 to distinct vertex pairs, so once each lands on an edge of G2 of
    its color, the edges of G1 map onto those of G2 exactly when the two
    graphs have equally many."""
    if len(images) != G1.num_vertices or sorted(images) != list(range(G2.num_vertices)):
        raise ValueError("not a bijection between the vertex sets (condition 2)")

    colors1, colors2 = G1.vertex_colors, G2.vertex_colors
    if list(map(colors2.__getitem__, images)) != list(colors1):
        v = next(v for v, w in enumerate(images) if colors1[v] != colors2[w])
        return False, (1, f"vertex color: {v} has {colors1[v]}, "
                          f"image {images[v]} has {colors2[images[v]]}")

    e2 = {(u, v): c for (u, v, c) in G2.edges}
    for (u, v, c) in G1.edges:
        iu, iv = images[u], images[v]
        found = e2.get((min(iu, iv), max(iu, iv)), "absent")
        if found != c:
            return False, (3, f"edge ({u},{v}) color {c} maps to {found}")
    if G1.num_edges != G2.num_edges:
        return False, (3, f"{G1.num_edges} edges map into {G2.num_edges}")
    return True, None


def find_isomorphism(G1: ColoredGraph, G2: ColoredGraph) -> ImageColumn | None:
    """A color- and edge-preserving bijection as its image column
    (`graphs.ImageColumn`, written by `graphs.dump_json` as the map's JSON
    object {"0": images[0], ...}), or None when none exists:
    searched on the two 2-cores, labelled by their hanging trees' codes
    from one shared table, extended span by span, and re-checked with
    verify_mapping on the full graphs."""
    ids, codes = _edge_ids([G1, G2]), {}
    core1, core2 = _core(G1, ids, codes), _core(G2, ids, codes)
    found = _find(*_sides([(core1.tokens, core1.edges), (core2.tokens, core2.edges)]))
    if found is None:
        return None
    found = _extend(core1, core2, found)
    ok, violation = verify_mapping(G1, G2, found)
    if not ok:
        raise RuntimeError(f"search produced an invalid mapping: {violation}")
    return found


@dataclass(frozen=True)
class AutomorphismGroup:
    generators: tuple[ImageColumn, ...]
    order: int


def _chain(side: _Side) -> tuple[list[list[int]], int]:
    """Generators, as image columns, and the order of the automorphism
    group of one graph, by the stabilizer chain along the left's path."""
    path = _Path(side)
    generators: list[list[int]] = []
    order, depth = 1, 0
    while path.targets[depth] is not None:
        part, c = path.parts[depth], path.targets[depth]
        record = path.child(depth)
        orbit = 1
        for w in part.cells[c][1:]:  # the base vertex is the cell's first
            child = part.individualize(c, w)
            if side.split(child, [len(child.cells) - 1], record) is None:
                continue
            g = _search(path, side, depth + 1, child)
            if g is not None:
                orbit += 1
                generators.append(g)
        order *= orbit
        depth += 1  # the stabilizer of the base vertex: the left's child
    return generators, order


def automorphism_group(G: ColoredGraph) -> AutomorphismGroup:
    """Color-preserving automorphisms: generators and the exact order.

    The stabilizer chain runs on the labelled 2-core, and each core
    generator is extended to the hanging trees.  Then each group of k
    children with equal codes, below any vertex, adds k-1 generators that
    swap neighbouring subtrees, and a factor k! to the order.
    """
    core = _core(G, _edge_ids([G]), {})
    found, order = _chain(*_sides([(core.tokens, core.edges)]))
    generators = [_extend(core, core, g) for g in found]
    for kids in core.children:
        run = 1  # the place of b in its group of equal codes
        for a, b in zip(kids, kids[1:]):
            run = run + 1 if a[:2] == b[:2] else 1
            if run > 1:
                order *= run
                lay, rank, _ = core.layout
                i, j = rank[a[2]], rank[b[2]]  # b's span follows a's, as long
                image = lay[:i] + lay[j:2 * j - i] + lay[i:j] + lay[2 * j - i:]
                generators.append(core.bijection(image))
    return AutomorphismGroup(tuple(generators), order)
