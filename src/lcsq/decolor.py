"""Two-stage decoloring: strip vertex colors by attaching color-indexed
paths, then strip edge colors by subdividing colored edges and attaching
paths to the subdivision vertices.

Path lengths are chosen canonically (0, 1, 2, ... along the palette order
of `lcsq.graphs`), so two graphs sharing a palette receive identical
assignments -- certificates can then be transported between the decolored
graphs entry by entry.  A path assignment maps each color string straight
to its length.  New vertices carry structured, stable identities
(vpath/sub/epath, defined and parsed in `lcsq.graphs`) so downstream
constructions can address them by provenance instead of by renumbered
index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, EdgePath, Original, Subdivision, VertexPath


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

    @classmethod
    def from_json_dict(cls, data: dict) -> PathAssignment:
        return cls(dict(data["vertex_lengths"]), dict(data["edge_lengths"]), data["c0"])


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
    path edges c0, drop the vertex colors, keep the edge colors."""
    labels = [Original(v) for v in range(G.num_vertices)]
    edges = list(G.edges)
    for v in range(G.num_vertices):
        color = G.vertex_colors[v]
        if color is None:
            continue
        n = pa.vertex_length(color)
        prev = v
        for i in range(1, n + 1):
            labels.append(VertexPath(v, i))
            cur = len(labels) - 1
            edges.append((min(prev, cur), max(prev, cur), pa.c0))
            prev = cur
    meta = {
        "construction": G.meta.get("construction", "graph") + "'",
        "base": dict(G.meta),
        "assignment": pa.to_json_dict(),
    }
    return ColoredGraph(tuple(labels), (None,) * len(labels), tuple(edges), meta)


def decolor_edges(Gp: ColoredGraph, pa: PathAssignment) -> ColoredGraph:
    """G' -> G'': subdivide every edge with color != c0, attach a path of
    length m_{c(e)} to the subdivision vertex, and drop all edge colors."""
    labels = list(Gp.labels)
    edges = []
    new_vertices = []
    for (u, v, c) in Gp.edges:
        if c is None or c == pa.c0:
            edges.append((u, v, None))
            continue
        m = pa.edge_length(c)  # KeyError when a color has no assigned length
        lu, lv = Gp.labels[u], Gp.labels[v]
        if isinstance(lu, Original) and isinstance(lv, Original):
            key = (min(lu.vertex, lv.vertex), max(lu.vertex, lv.vertex))
        else:
            key = (u, v)
        new_vertices.append((key, m, u, v))

    for (key, m, u, v) in new_vertices:
        labels.append(Subdivision(key))
        sub = len(labels) - 1
        edges.append((min(u, sub), max(u, sub), None))
        edges.append((min(v, sub), max(v, sub), None))
        prev = sub
        for i in range(1, m + 1):
            labels.append(EdgePath(key, i))
            cur = len(labels) - 1
            edges.append((min(prev, cur), max(prev, cur), None))
            prev = cur

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
