"""Two-stage decoloring: strip vertex colors by attaching color-indexed
paths, then strip edge colors by subdividing colored edges and attaching
paths to the subdivision vertices.

Path lengths are chosen canonically (0, 1, 2, ... along the canonical
color order), so two graphs sharing a palette receive identical
assignments -- certificates can then be transported between the decolored
graphs entry by entry.  New vertices carry structured, stable identities
(vpath/sub/epath, defined and parsed in `lcsq.graphs`) so downstream
constructions can address them by provenance instead of by renumbered
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import (ColoredGraph, ColorTag, EdgePath, Original, Subdivision,
                     VertexPath, parse_color)


# ---------------------------------------------------------------------------
# Path assignments


@dataclass(frozen=True)
class PathAssignment:
    """Distinct path lengths n_c per vertex color and m_c per edge color != c0."""

    vertex_lengths: tuple  # ((ColorTag, int), ...)
    edge_lengths: tuple
    c0: ColorTag

    def __post_init__(self):
        for lengths in (self.vertex_lengths, self.edge_lengths):
            values = [n for (_, n) in lengths]
            if len(set(values)) != len(values):
                raise ValueError("path lengths must be pairwise distinct")
            if any(n < 0 for n in values):
                raise ValueError("path lengths must be nonnegative")
        if self.c0.render() in self._edge_index:
            raise ValueError("c0 must not receive an edge path length")

    # Lookups keyed by rendered color, built once per assignment.  Reversed
    # so that the first pair of a rendered color wins, as a scan would.
    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {c.render(): n for c, n in reversed(self.vertex_lengths)}

    @cached_property
    def _edge_index(self) -> dict[str, int]:
        return {c.render(): n for c, n in reversed(self.edge_lengths)}

    def vertex_length(self, color: ColorTag) -> int:
        name = color.render()
        if name not in self._vertex_index:
            raise KeyError(f"no path length assigned to vertex color {name}")
        return self._vertex_index[name]

    def edge_length(self, color: ColorTag) -> int:
        name = color.render()
        if name not in self._edge_index:
            raise KeyError(f"no path length assigned to edge color {name}")
        return self._edge_index[name]

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0.render(),
            "vertex_lengths": {c.render(): n for c, n in self.vertex_lengths},
            "edge_lengths": {c.render(): n for c, n in self.edge_lengths},
        }

    @classmethod
    def from_json_dict(cls, data: dict, system=None) -> PathAssignment:
        return cls(
            tuple(sorted(((parse_color(c, system), n)
                          for c, n in data["vertex_lengths"].items()),
                         key=lambda cn: cn[1])),
            tuple(sorted(((parse_color(c, system), n)
                          for c, n in data["edge_lengths"].items()),
                         key=lambda cn: cn[1])),
            parse_color(data["c0"], system),
        )


def canonical_assignment(G: ColoredGraph, c0: ColorTag) -> PathAssignment:
    """Smallest distinct lengths in canonical color order: vertex colors get
    n_c = 0, 1, 2, ...; edge colors other than c0 get m_c = 0, 1, 2, ...

    Deterministic across graphs sharing a palette, which is what lets a
    certificate built on one pair of graphs lift to their decolorings.
    """
    edge_palette = G.edge_palette()
    if c0.render() not in {c.render() for c in edge_palette}:
        raise ValueError(f"c0 {c0.render()} is not an edge color of the graph")
    vcolors = G.vertex_palette()
    ecolors = [c for c in edge_palette if c.render() != c0.render()]
    return PathAssignment(
        tuple((c, n) for n, c in enumerate(vcolors)),
        tuple((c, n) for n, c in enumerate(ecolors)),
        c0,
    )


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
    c0_name = pa.c0.render()
    for (u, v, c) in Gp.edges:
        if c is None or c.render() == c0_name:
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


def check_matchings(Gp: ColoredGraph, c0: ColorTag) -> tuple[bool, ColorTag | None]:
    """Whether every edge color class except c0 is a matching.

    Returns the first offending color otherwise.  This is the hypothesis
    under which the edge-decoloring stage preserves the quantum symmetry
    structure of the incidence-system graphs.
    """
    seen: dict[str, set[int]] = {}
    colors: dict[str, ColorTag] = {}
    for (u, v, c) in Gp.edges:
        if c is None or c.render() == c0.render():
            continue
        key = c.render()
        ends = seen.setdefault(key, set())
        colors[key] = c
        if u in ends or v in ends:
            return (False, c)
        ends.add(u)
        ends.add(v)
    return (True, None)
