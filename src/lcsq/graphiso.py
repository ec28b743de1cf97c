"""Classical isomorphism and automorphism of colored graphs.

Color refinement drives an individualization-refinement backtracking
search.  Refinement is incremental cell splitting (McKay and Piperno,
"Practical graph isomorphism II", 2014; Junttila and Kaski, bliss, 2007):
a queue of splitter cells, where each touched cell is split by its
vertices' per-edge-color neighbour counts into the splitter, until the
partition is equitable.  The coarsest equitable refinement is unique, so
the stable partition is the one 1-WL color refinement reaches.

Isomorphism is decided on the disjoint union of the two graphs: a search
node holds a stable partition in which every cell has as many vertices
of one graph as of the other, and each child individualizes one pair
(v, w), one vertex from each graph, then refines from that new cell
alone.  A fragment with unequal sides prunes the branch at once.
Refinement alone cannot separate the quantum-isomorphic pairs produced
elsewhere in this package -- they are fractionally isomorphic by
construction -- so the search exhausts the candidate branches.

The automorphism group is computed as a stabilizer chain: the orbit of a
base vertex is found by explicit searches, the stabilizer recursively,
and the order is the product of the orbit sizes.  No canonical form is
computed; isomorphism is decided by direct search.
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
    """Shared refinement workspace for one or two graphs.

    The vertices of the second graph follow those of the first.  Each
    adjacency entry is (neighbour, weight) with weight base**color_id, base
    above every degree, so a sum of weights encodes a per-color count.
    """

    def __init__(self, graphs: list[ColoredGraph]):
        self.split = graphs[0].num_vertices  # first vertex of the second graph
        total = sum(G.num_vertices for G in graphs)

        color_names = sorted({c for G in graphs for (_, _, c) in G.edges} - {None})
        color_ids = {name: i + 1 for i, name in enumerate(color_names)}
        edges = []
        offset = 0
        for G in graphs:
            edges.extend((offset + u, offset + v,
                          color_ids[c] if c is not None else 0)
                         for (u, v, c) in G.edges)
            offset += G.num_vertices
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

        tokens = [c or "" for G in graphs for c in G.vertex_colors]
        token_ids = {t: i for i, t in enumerate(sorted(set(tokens)))}
        self.init_colors = [token_ids[t] for t in tokens]

    def _unbalanced(self, cell: list[int]) -> bool:
        # cells are sorted, so the first-graph vertices come first
        return 2 * bisect_left(cell, self.split) != len(cell)

    def initial(self, balanced: bool = False) -> _Partition | None:
        """The stable refinement of the vertex colors; None when `balanced`
        and some cell has unequal sides."""
        cells: list[list[int]] = [[] for _ in range(len(set(self.init_colors)))]
        for v, c in enumerate(self.init_colors):
            cells[c].append(v)
        part = _Partition(list(self.init_colors), cells)
        if balanced and any(self._unbalanced(cell) for cell in cells):
            return None
        return part if self._refine(part, list(range(len(cells))), balanced) else None

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
        return child if self._refine(child, [new], True) else None

    def _refine(self, part: _Partition, queue: list[int], balanced: bool) -> bool:
        """Split cells of `part` in place until it is equitable, starting
        from the splitter cells in `queue`.  Returns False when `balanced`
        and a fragment has unequal sides (no bijection can exist below this
        node), True otherwise."""
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
                if balanced and any(self._unbalanced(f) for f in fragments):
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


def refine(G: ColoredGraph) -> StableColoring:
    """Stable 1-WL partition of one graph."""
    return StableColoring(tuple(_Instance([G]).initial().cell_of))


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

    The result is re-checked with verify_mapping before being returned.
    """
    if _quick_mismatch(G1, G2):
        return None
    inst = _Instance([G1, G2])
    found = _search(inst, inst.initial(balanced=True))
    if found is None:
        return None
    ok, violation = verify_mapping(G1, G2, found)
    if not ok:
        raise RuntimeError(f"search produced an invalid mapping: {violation}")
    return found


@dataclass(frozen=True)
class AutomorphismGroup:
    generators: tuple[Bijection, ...]
    order: int


def automorphism_group(G: ColoredGraph) -> AutomorphismGroup:
    """Color-preserving automorphisms: generators and the exact order.

    Stabilizer chain: fix base vertices one at a time; the orbit of each
    base vertex is determined by one search per candidate image, and the
    order is the product of the orbit sizes.
    """
    inst = _Instance([G, G])
    n1 = G.num_vertices
    part = inst.initial(balanced=True)
    generators: list[Bijection] = []
    order = 1
    while True:
        if part is None:
            raise RuntimeError("refinement of a graph against itself is unbalanced")
        cell = _target(part)
        if cell is None:
            break
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
    return AutomorphismGroup(tuple(generators), order)
