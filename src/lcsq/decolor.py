"""Two-stage decoloring: strip vertex colors by attaching color-indexed
paths, then strip edge colors by subdividing colored edges and attaching
paths to the subdivision vertices.

Path lengths are chosen canonically (0, 1, 2, ... along the palette order
of `lcsq.graphs`), so two graphs sharing a palette receive identical
assignments -- certificates can then be transported between the decolored
graphs entry by entry.  A path assignment maps each color string straight
to its length.  Every vertex of a decoloring carries a stable id, the
string its graph file holds, so downstream constructions can address it by
provenance instead of by renumbered index.  `VertexId` writes every id; the
stages lay out each attached path with one C-level extend of its ids (a
map of the path's format string over its positions) and one of its edges
(a zip of the path's vertices with themselves shifted by one).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .graphs import ColoredGraph


class VertexId:
    """The ids of the decoloring's vertices, as strings: an original vertex
    v, the subdivision vertex of an edge (a, b), a < b, and the i-th vertex
    of the path attached to either.  Path positions start at 1, and a path's
    ids are `format(i)` of its format string (`vpath`, `epath`), so one
    path's ids are laid out by one C-level map.  This module is the one that
    writes the format.  They are static methods of a class, which
    `bench/tracer.py` does not wrap, so a call made once per vertex or path
    opens no trace span."""

    @staticmethod
    def orig(v: int) -> str:
        return f"orig:{v}"

    @staticmethod
    def vpath(v: int) -> str:
        """The format string of the ids of the path attached to v."""
        return f"vpath:{v}:{{}}"

    @staticmethod
    def sub(a: int, b: int) -> str:
        return f"sub:{a}-{b}"

    @staticmethod
    def epath(a: int, b: int) -> str:
        """The format string of the ids of the path attached to sub(a, b)."""
        return f"epath:{a}-{b}:{{}}"


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


def decolor_vertices(G: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G -> G': attach a path of length n_{c(v)} to every vertex, color all
    path edges c0, drop the vertex colors, keep the edge colors.  Vertex v
    of G stays vertex v, and the path vertices follow."""
    labels = [VertexId.orig(v) for v in range(G.num_vertices)]
    edges = list(G.edges)
    for v, color in enumerate(G.vertex_colors):
        if color is None:
            continue
        n = pa.vertex_length(color)
        # v and its path; a vertex's two path edges share its one int object
        path = [v, *range(len(labels), len(labels) + n)]
        labels.extend(map(VertexId.vpath(v).format, range(1, n + 1)))
        edges.extend(zip(path, path[1:], repeat(pa.c0)))
    meta = {
        "construction": G.meta.get("construction", "graph") + "'",
        "base": dict(G.meta),
        "assignment": pa.to_json_dict(),
    }
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


def decolor_edges(Gp: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G' -> G'': subdivide every edge with color != c0, attach a path of
    length m_{c(e)} to the subdivision vertex, and drop all edge colors.

    A subdivision and its path are named by the edge's endpoints (u, v) in
    G'.  `decolor_vertices` keeps vertex v of G at index v, so for an edge
    of G those are its endpoints in G too."""
    labels = list(Gp.labels)
    edges = []
    new_vertices = []
    for (u, v, c) in Gp.edges:
        if c is None or c == pa.c0:
            edges.append((u, v, None))
            continue
        m = pa.edge_length(c)  # KeyError when a color has no assigned length
        new_vertices.append((m, u, v))

    for (m, u, v) in new_vertices:
        path = list(range(len(labels), len(labels) + m + 1))  # sub and its path
        labels.append(VertexId.sub(u, v))
        labels.extend(map(VertexId.epath(u, v).format, range(1, m + 1)))
        edges.append((u, path[0], None))
        edges.append((v, path[0], None))
        edges.extend(zip(path, path[1:], repeat(None)))

    meta = {
        "construction": Gp.meta.get("construction", "graph") + "'",
        "base": dict(Gp.meta),
        "assignment": pa.to_json_dict(),
    }
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


def decolor_full(G: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G -> G'': both stages under one path assignment."""
    return decolor_edges(decolor_vertices(G, pa), pa)


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
