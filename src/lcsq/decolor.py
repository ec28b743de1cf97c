"""Two-stage decoloring: strip vertex colors by attaching color-indexed
paths, then strip edge colors by subdividing colored edges and attaching
paths to the subdivision vertices.

Path lengths are chosen canonically (0, 1, 2, ... along the palette order
of `lcsq.graphs`), so two graphs sharing a palette receive identical
assignments -- certificates can then be transported between the decolored
graphs entry by entry.  A path assignment maps each color string straight
to its length.

This module alone decides the layout of a decoloring: which vertices and
edges get a path, of what length, and at which indices (`_vertex_chains`,
`_edge_chains`).  Both stages lay out from those rules, and so does
`chains`, which gives each vertex and colored edge of G its indices in
G'' without building G''.  Every vertex of a decoloring carries a stable
id, the string its graph file holds (`orig:v`, `vpath:v:i`, `sub:a-b`,
`epath:a-b:i`), written only by the two stages.  Each attached path is
laid out with one C-level extend of its ids (the path's id prefix added
to each of the position strings "1", "2", ..., made once per stage) and
one of its edges (a zip of the path's vertices with themselves shifted by
one).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .graphs import ColoredGraph


# ---------------------------------------------------------------------------
# Path assignments


@dataclass(frozen=True)
class PathAssignment:
    """Distinct path lengths n_c per vertex color and m_c per edge color != c0."""

    vertex_lengths: dict[str, int]
    edge_lengths: dict[str, int]
    c0: str

    def __post_init__(self):
        for lengths in (self.vertex_lengths, self.edge_lengths):
            values = list(lengths.values())
            if len(set(values)) != len(values):
                raise ValueError("path lengths must be pairwise distinct")
            if any(n < 0 for n in values):
                raise ValueError("path lengths must be nonnegative")
        if self.c0 in self.edge_lengths:
            raise ValueError("c0 must not receive an edge path length")

    def vertex_length(self, color: str) -> int:
        if color not in self.vertex_lengths:
            raise KeyError(f"no path length assigned to vertex color {color}")
        return self.vertex_lengths[color]

    def edge_length(self, color: str) -> int:
        if color not in self.edge_lengths:
            raise KeyError(f"no path length assigned to edge color {color}")
        return self.edge_lengths[color]

    def to_json_dict(self) -> dict:
        return {"c0": self.c0, "vertex_lengths": dict(self.vertex_lengths),
                "edge_lengths": dict(self.edge_lengths)}


def canonical_assignment(G: ColoredGraph, c0: str) -> PathAssignment:
    """Smallest distinct lengths in canonical color order: vertex colors get
    n_c = 0, 1, 2, ...; edge colors other than c0 get m_c = 0, 1, 2, ...

    Deterministic across graphs sharing a palette, which is what lets a
    certificate built on one pair of graphs lift to their decolorings.
    """
    edge_palette = G.edge_palette()
    if c0 not in edge_palette:
        raise ValueError(f"c0 {c0} is not an edge color of the graph")
    edge_palette.remove(c0)
    return PathAssignment({c: n for n, c in enumerate(G.vertex_palette())},
                          {c: n for n, c in enumerate(edge_palette)}, c0)


# ---------------------------------------------------------------------------
# The two stages


def _vertex_chains(G: ColoredGraph, pa: PathAssignment) -> dict[int, list[int]]:
    """Vertex v of G -> v followed by the indices of its path, for every v
    that gets one: a colored vertex, with a path of its color's length n_c.
    The paths follow G's vertices, one after another in vertex order."""
    chains, end = {}, G.num_vertices
    for v, color in enumerate(G.vertex_colors):
        if color is not None:
            n = pa.vertex_length(color)
            # a vertex's two path edges share its one int object
            chains[v] = [v, *range(end, end + n)]
            end += n
    return chains


def _subdivided(color: str | None, pa: PathAssignment) -> bool:
    """Whether the second stage subdivides an edge of this color: one that
    is neither None nor c0."""
    return color is not None and color != pa.c0


def _edge_chains(edges, start: int, pa: PathAssignment) -> list[tuple]:
    """(u, v, c, chain) for every edge (u, v, c) that is subdivided, in edge
    order, with a path of its color's length m_c.  `chain` is the
    subdivision's index and then its path's, the chains laid out one after
    another from `start`; a KeyError when a color has no assigned length."""
    out = []
    for (u, v, c) in edges:
        if _subdivided(c, pa):
            m = pa.edge_length(c)
            out.append((u, v, c, list(range(start, start + m + 1))))
            start += m + 1
    return out


def _positions(lengths: dict[str, int]) -> list[str]:
    """The position strings "1", "2", ... up to the longest path length:
    a path of length n ends its vertex ids with the first n."""
    return [str(i) for i in range(1, max(lengths.values(), default=0) + 1)]


def _decolored(G: ColoredGraph, pa: PathAssignment, labels, edges) -> ColoredGraph:
    """The uncolored graph a stage makes of G, with its one provenance rule:
    G's construction primed, G's meta as its base, and the assignment."""
    meta = {
        "construction": G.meta.get("construction", "graph") + "'",
        "base": dict(G.meta),
        "assignment": pa.to_json_dict(),
    }
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


def decolor_vertices(G: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G -> G': attach a path of length n_{c(v)} to every vertex, color all
    path edges c0, drop the vertex colors, keep the edge colors.  Vertex v
    of G stays vertex v, and the path vertices follow."""
    labels = [f"orig:{v}" for v in range(G.num_vertices)]
    edges = list(G.edges)
    positions = _positions(pa.vertex_lengths)
    for v, path in _vertex_chains(G, pa).items():
        labels.extend(map(f"vpath:{v}:".__add__, positions[:len(path) - 1]))
        edges.extend(zip(path, path[1:], repeat(pa.c0)))
    return _decolored(G, pa, labels, edges)


def decolor_edges(Gp: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G' -> G'': subdivide every edge with color != c0, attach a path of
    length m_{c(e)} to the subdivision vertex, and drop all edge colors.

    A subdivision and its path are named by the edge's endpoints (u, v) in
    G'.  `decolor_vertices` keeps vertex v of G at index v, so for an edge
    of G those are its endpoints in G too."""
    labels = list(Gp.labels)
    edges = [(u, v, None) for (u, v, c) in Gp.edges if not _subdivided(c, pa)]
    positions = _positions(pa.edge_lengths)
    for (u, v, _, path) in _edge_chains(Gp.edges, len(labels), pa):
        labels.append(f"sub:{u}-{v}")
        labels.extend(map(f"epath:{u}-{v}:".__add__, positions[:len(path) - 1]))
        edges.append((u, path[0], None))
        edges.append((v, path[0], None))
        edges.extend(zip(path, path[1:], repeat(None)))
    return _decolored(Gp, pa, labels, edges)


def decolor_full(G: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G -> G'': both stages under one path assignment."""
    return decolor_edges(decolor_vertices(G, pa), pa)


def chains(G: ColoredGraph, pa: PathAssignment) -> tuple[list, dict]:
    """The indices in `decolor_full(G, pa)` of each vertex of G and of each
    edge of G whose color is not c0, without building it.

    Returns (vertices, edges): vertices[v] is [v, path...], and
    edges[c][(a, b)] is [subdivision, path...] for the edge (a, b) of color
    c, in edge order.  G' holds G's edges, then the c0-colored path edges,
    so its subdivided edges are G's, in G's order and with G's endpoints,
    laid out after G's vertices and their paths."""
    vertex_chains = _vertex_chains(G, pa)
    vertices = [vertex_chains.get(v, [v]) for v in range(G.num_vertices)]
    start = G.num_vertices + sum(len(path) - 1 for path in vertex_chains.values())
    edges: dict[str, dict] = {}
    for (a, b, c, path) in _edge_chains(G.edges, start, pa):
        edges.setdefault(c, {})[(a, b)] = path
    return vertices, edges


# ---------------------------------------------------------------------------
# Hypothesis checks


def check_min_degree(G: ColoredGraph, d: int) -> tuple[bool, list[int]]:
    """Whether every vertex has degree >= d; returns the offenders."""
    offenders = [v for v, deg in enumerate(G.degrees()) if deg < d]
    return (not offenders, offenders)


def check_matchings(Gp: ColoredGraph, c0: str) -> tuple[bool, str | None]:
    """Whether every edge color class except c0 is a matching.

    Returns the first offending color otherwise.  This is the hypothesis
    under which the edge-decoloring stage preserves the quantum symmetry
    structure of the incidence-system graphs.
    """
    seen: dict[str, set[int]] = {}
    for (u, v, c) in Gp.edges:
        if c is None or c == c0:
            continue
        ends = seen.setdefault(c, set())
        if u in ends or v in ends:
            return (False, c)
        ends.add(u)
        ends.add(v)
    return (True, None)
