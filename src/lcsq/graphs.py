"""Colored-graph data model and the block constructions over linear systems.

A constraint k of a system (M, b) has a block of vertices (k, alpha), one
per local solution alpha in +-1^{S_k}_{b_k}.  build_G connects everything
that shares variables and colors edges by the pointwise product
alpha * beta (restricted to the shared variables across blocks);
build_Gstar is the incidence-system variant where each cross-block pair
shares exactly one variable, the surviving inter edges all carry the
single color -1, and the +1 edges become non-edges.

Vertex order is canonical: blocks ascending, and within a block the sign
vectors in lexicographic order over the sorted domain with +1 < -1.  All
matrix-facing modules rely on those indices.

A color is the canonical string that graph files hold, such as "v:3",
"intra:0:+--+", "inter:1-4:-", "shared:-1" or "plain:2".  This module is
the one that knows the format: it writes colors, checks those a file
holds, and orders a palette by kind, then block, then sign.  Everywhere
else a color is compared as a plain string.

A vertex label is an int or a string.  On the block constructions the
vertex (k, alpha) is the string "k:alpha" that graph files hold, such as
"0:+--": alpha is one "+" or "-" per variable of S_k, in increasing
variable order.  This module writes those labels, and `block_labels` is the
one reader of that format.  The decoloring's ids, such as "orig:3" or
"epath:0-5:2", are strings that `lcsq.decolor` alone writes.  A file keeps
every label as it is, so a graph read back holds the labels it was built
with.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain, groupby, product, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .f2core import LinearSystem, parse_system, render_system


# ---------------------------------------------------------------------------
# Sign vectors


def sign_vectors(domain: tuple[int, ...], parity: int) -> list[str]:
    """All of +-1^S with the given sign-product parity (the count of -1 mod
    2), in canonical order, each as its string: one "+" or "-" per variable
    of the sorted domain S."""
    return ["".join(signs) for signs in product("+-", repeat=len(domain))
            if signs.count("-") % 2 == parity]


# ---------------------------------------------------------------------------
# Colors
#
# A color is its canonical string: "v:k" on the vertices of block k,
# "intra:k:s" on an edge inside block k whose ends differ by the sign
# vector s over S_k ("+" for +1), "inter:l-k:s" on an edge between blocks
# l < k (s over their shared variables), "shared:-1" or "shared:+1" in the
# incidence construction, and "plain:n" on any other graph.  Colors are
# compared as strings; only palette order needs `_color_key`.

_NUM = "(0|[1-9][0-9]*)"
_COLOR_FORMS = {kind: (order, re.compile(form)) for order, (kind, form) in enumerate((
    ("v", _NUM),
    ("intra", _NUM + r":(\+*(?:-\+*-\+*)+)"),  # an even, nonzero count of -1
    ("inter", _NUM + "-" + _NUM + ":([+-]+)"),
    ("shared", "([+-])1"),
    ("plain", _NUM),
))}


def _color_key(text: str) -> tuple:
    """The canonical order of colors: by kind (v, intra, inter, shared,
    plain), then block numbers as ints, then signs, +1 before -1 as "+"
    precedes "-" in ASCII.  Raises ValueError on anything that is not a
    canonical color."""
    kind, _, rest = text.partition(":")
    order, form = _COLOR_FORMS.get(kind, (None, None))
    match = form and form.fullmatch(rest)
    if not match or (kind == "inter" and int(match[1]) >= int(match[2])):
        raise ValueError(f"not a canonical color: {text!r}")
    return (order, *(int(g) if g.isdigit() else g for g in match.groups()))


# ---------------------------------------------------------------------------
# Vertex labels


_INT = re.compile("0|-?[1-9][0-9]*")


def parse_label(text: str) -> int | str:
    """A label from its rendered string: an int where `str` of that int is
    the text, and otherwise the string itself (such as "007", the block
    label "0:+--" or the decoloring's "sub:0-5")."""
    return int(text) if _INT.fullmatch(text) else text


_BLOCK_LABEL = re.compile(_NUM + ":([+-]+)")


def block_labels(G: ColoredGraph) -> list[tuple[int, str]] | None:
    """(k, alpha) for every vertex of G, when G's metadata holds a system
    of m constraints and every label is a canonical block label "k:alpha" of
    it: k < m, written without a leading zero, and alpha one "+" or "-" per
    variable of S_k.  None for any other graph."""
    system = G.system()
    if system is None:
        return None
    sizes = [len(system.support(k)) for k in range(system.num_constraints)]
    out = []
    for label in G.labels:
        match = _BLOCK_LABEL.fullmatch(str(label))  # an int never matches
        if match is None:
            return None
        k, alpha = int(match[1]), match[2]
        if k >= len(sizes) or len(alpha) != sizes[k]:
            return None
        out.append((k, alpha))
    return out


# ---------------------------------------------------------------------------
# Colored graphs


@dataclass(frozen=True)
class ColoredGraph:
    """Simple graph with optional vertex colors, edge colors, and provenance.

    Vertices are 0..n-1; `labels[i]` is the identity of vertex i, an int
    or a string: the block label "k:alpha" on the block constructions, the
    decoloring's id (such as "vpath:3:1") on a decoloring.  Edges are
    (u, v, color) with u < v.  A color is a canonical color string, or None
    for none.
    """

    labels: tuple
    vertex_colors: tuple
    edges: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.labels)
        if len(self.vertex_colors) != n:
            raise ValueError("vertex color list does not match vertex count")
        seen = set()
        for (u, v, _) in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge endpoints ({u}, {v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for (u, v, _) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def vertex_palette(self) -> list[str]:
        return sorted(set(self.vertex_colors) - {None}, key=_color_key)

    def edge_palette(self) -> list[str]:
        return sorted({c for (_, _, c) in self.edges} - {None}, key=_color_key)

    def system(self) -> LinearSystem | None:
        raw = self.meta.get("system")
        return parse_system(raw) if raw else None

# ---------------------------------------------------------------------------
# Constructions


def _block_graph(sys: LinearSystem):
    """What both constructions share: the blocks, each block's first vertex,
    the vertex labels and colors, and the edges inside the blocks."""
    blocks, offsets, labels, colors, edges = [], [], [], [], []
    for k in range(sys.num_constraints):
        support = sys.support(k)
        if not support:
            raise ValueError(f"constraint {k} touches no variable")
        block = sign_vectors(support, sys.b[k])
        base = len(labels)
        blocks.append(block)
        offsets.append(base)
        labels.extend(f"{k}:{alpha}" for alpha in block)
        colors.extend([f"v:{k}"] * len(block))
        for a, alpha in enumerate(block):
            for b_ in range(a + 1, len(block)):
                delta = "".join("+" if x == y else "-" for x, y in zip(alpha, block[b_]))
                edges.append((base + a, base + b_, f"intra:{k}:{delta}"))
    return blocks, offsets, labels, colors, edges


def _shared_positions(sys: LinearSystem, l: int, k: int) -> list[tuple[int, int]]:
    """The positions in S_l and in S_k of each variable they share, in
    increasing variable order."""
    support_l, support_k = sys.support(l), sys.support(k)
    return [(support_l.index(i), support_k.index(i))
            for i in sorted(set(support_l) & set(support_k))]


def build_G(sys: LinearSystem) -> ColoredGraph:
    """The colored graph G(M, b): blocks of local solutions, all edges between
    variable-sharing blocks, colored by the (restricted) pointwise product."""
    blocks, offsets, labels, colors, edges = _block_graph(sys)
    for l in range(sys.num_constraints):
        for k in range(l + 1, sys.num_constraints):
            shared = _shared_positions(sys, l, k)
            if not shared:
                continue
            for a, alpha in enumerate(blocks[l]):
                for b_, beta in enumerate(blocks[k]):
                    delta = "".join("+" if alpha[p] == beta[q] else "-"
                                    for p, q in shared)
                    edges.append((offsets[l] + a, offsets[k] + b_,
                                  f"inter:{l}-{k}:{delta}"))

    meta = {"construction": "G", "system": render_system(sys)}
    return ColoredGraph(tuple(labels), tuple(colors), tuple(edges), meta)


def build_Gstar(sys: LinearSystem) -> ColoredGraph:
    """The reduced graph G_*(M, b): cross-block pairs must share at most one
    variable; inter edges are colored by the single shared sign and the +1
    class is replaced by non-edges."""
    blocks, offsets, labels, colors, edges = _block_graph(sys)
    for l in range(sys.num_constraints):
        for k in range(l + 1, sys.num_constraints):
            shared = _shared_positions(sys, l, k)
            if not shared:
                continue
            if len(shared) > 1:
                raise ValueError(
                    f"constraints {l} and {k} share {len(shared)} variables; "
                    "the reduced construction needs at most one")
            [(p, q)] = shared
            for a, alpha in enumerate(blocks[l]):
                for b_, beta in enumerate(blocks[k]):
                    if alpha[p] != beta[q]:
                        edges.append((offsets[l] + a, offsets[k] + b_, "shared:-1"))

    meta = {"construction": "Gstar", "system": render_system(sys)}
    return ColoredGraph(tuple(labels), tuple(colors), tuple(edges), meta)


# ---------------------------------------------------------------------------
# Serialization


_CONTAINERS = (dict, list, tuple)


def _flat_records(items) -> bool:
    """Whether every item is a non-empty dict with no container value."""
    if not (all(map(isinstance, items, repeat(dict))) and all(items)):
        return False
    types = set(map(type, chain.from_iterable(map(dict.values, items))))
    return not any(issubclass(t, _CONTAINERS) for t in types)


def _encode(obj, depth: int) -> str:
    """`obj` in `dump_json`'s layout, opened at nesting depth `depth`."""
    if isinstance(obj, dict):
        is_dict, items = True, sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        is_dict, items = False, obj
    else:
        return json.dumps(obj)
    open_, close = "{}" if is_dict else "[]"
    if not items:
        return open_ + close
    inner = "\n" + " " * (depth + 1)
    outer = "\n" + " " * depth
    if not is_dict and _flat_records(items):
        # one C-encoder call writes every record with its keys at depth + 2
        # and the records joined by the same separator; only the record
        # boundaries need re-indenting, and "},\n" cannot occur inside an
        # encoded string, which never holds a raw newline.  No more than two
        # copies of the text are alive at once, here and below.
        keys = inner + " "
        body = json.dumps(items, sort_keys=True, separators=("," + keys, ": "))[2:-2]
        body = body.replace("}," + keys + "{", inner + "}," + inner + "{" + keys)
        return "".join(("[", inner, "{", keys, body, inner, "}", outer, "]"))
    sep = "," + inner
    parts = []
    for scalar, group in groupby(items, lambda item: not isinstance(
            item[1] if is_dict else item, _CONTAINERS)):
        if scalar:
            run = dict(group) if is_dict else list(group)
            parts.append(json.dumps(run, sort_keys=True, separators=(sep, ": "))[1:-1])
        elif is_dict:
            # json.dumps({key: 0}) converts (or rejects) the key as json does
            parts.extend(json.dumps({key: 0})[1:-4] + ": " + _encode(value, depth + 1)
                         for key, value in group)
        else:
            parts.extend(_encode(value, depth + 1) for value in group)
    parts[0] = open_ + inner + parts[0]
    parts[-1] += outer + close
    return sep.join(parts)


def dump_json(obj) -> str:
    """The one JSON writer: sorted keys, one space of indent per level.

    The text equals `json.dumps(obj, sort_keys=True)` with an indent of one,
    byte for byte.  That call would run CPython's pure-Python encoder; here
    the recursion covers structure only, and every run of scalars and every
    list of flat records is written by one call to the C encoder.  A graph
    file's vertex and edge records are the exception: `serialize` writes
    them from the graph's columns, and only their `meta` comes through here.
    """
    return _encode(obj, 0)


def to_json_dict(G: ColoredGraph) -> dict:
    """The graph file format's definition: a graph file is the text
    `dump_json` writes of this dict, which `serialize` writes without
    building it."""
    vertices = []
    for i, (lab, c) in enumerate(zip(G.labels, G.vertex_colors)):
        record = {"id": i, "label": str(lab)}
        if c is not None:
            record["color"] = c
        vertices.append(record)
    edges = []
    for (u, v, c) in G.edges:
        record = {"u": u, "v": v}
        if c is not None:
            record["color"] = c
        edges.append(record)
    return {"vertices": vertices, "edges": edges, "meta": G.meta}


_ABSENT = object()
_FIELD_TYPES = {"vertices": (("id", int), ("label", str), ("color", str)),
                "edges": (("u", int), ("v", int), ("color", str))}
_REQUIRED = {"id", "u", "v"}


def from_json_dict(data: dict) -> ColoredGraph:
    """The graph of a JSON document in `to_json_dict`'s format.  Raises
    ValueError naming the field where the document departs from it: ids and
    endpoints must be present and ints, labels strings, and colors canonical
    colors, in lists "vertices" and "edges"."""
    if not isinstance(data, dict):
        raise ValueError("a graph document must be a JSON object")
    meta = data.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("system", ""), str):
        raise ValueError('"meta" must be an object whose "system" is a string')
    if "system" in meta:
        parse_system(meta["system"])  # raises on a malformed system
    for where, fields in _FIELD_TYPES.items():
        if where not in data:
            raise ValueError(f"missing field {where!r}")
        records = data[where]
        if not (isinstance(records, list) and all(map(isinstance, records, repeat(dict)))):
            raise ValueError(f'"{where}" must be a list of objects')
        for key, kind in fields:
            found = set(map(type, map(dict.get, records, repeat(key), repeat(_ABSENT))))
            if object in found and key in _REQUIRED:  # object: the key is absent
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


def to_dot(G: ColoredGraph) -> str:
    lines = ["graph G {"]
    for i, (lab, c) in enumerate(zip(G.labels, G.vertex_colors)):
        attrs = [f'label="{lab}"']
        if c is not None:
            attrs.append(f'tooltip="{c}"')
        lines.append(f"  {i} [{', '.join(attrs)}];")
    for (u, v, c) in G.edges:
        attr = f' [label="{c}"]' if c is not None else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines)


# One record of a graph file's "vertices" or "edges" list in `dump_json`'s
# layout: the record at depth 2 and its keys at depth 3, in sorted order.
# The %s takes the color line, and the rest is filled from the graph's
# columns: an id and an encoded label per vertex, and per edge its tuple
# (u, v, color), whose color the closing %.0s consumes and writes as nothing.
_VERTEX_RECORD = '  {%s\n   "id": %%d,\n   "label": %%s\n  }'
_EDGE_RECORD = '  {%s\n   "u": %%d,\n   "v": %%d%%.0s\n  }'


def _records(record: str, colors, values) -> str:
    """The list of records at depth 1 whose i-th is `record` with the color
    line of colors[i] (no line for None), filled from the flat `values`.

    One template per distinct color holds that color's encoded text, so the
    whole list is one join of templates and one C-level format."""
    if not colors:
        return "[]"
    templates = {c: record % ("" if c is None else '\n   "color": %s,'
                              % encode_basestring_ascii(c).replace("%", "%%"))
                 for c in set(colors)}
    rows = ",\n".join(map(templates.__getitem__, colors))
    return ("[\n" + rows + "\n ]") % tuple(values)


def _graph_json(G: ColoredGraph) -> str:
    """`dump_json(to_json_dict(G))`, byte for byte, written from G's tuples:
    labels and colors escaped as `json.dumps` escapes them, ids and
    endpoints as ints, and only `meta` through `dump_json`'s encoder."""
    labels = map(encode_basestring_ascii, map(str, G.labels))
    vertices = _records(_VERTEX_RECORD, G.vertex_colors,
                        chain.from_iterable(zip(range(G.num_vertices), labels)))
    edges = _records(_EDGE_RECORD, list(map(itemgetter(2), G.edges)),
                     chain.from_iterable(G.edges))
    return "".join(('{\n "edges": ', edges, ',\n "meta": ', _encode(G.meta, 1),
                    ',\n "vertices": ', vertices, "\n}"))


def serialize(G: ColoredGraph, fmt: str = "json") -> str:
    """Render the graph as a JSON document or as DOT source.  The JSON is
    the text of `dump_json(to_json_dict(G))`, written from G's columns
    without building a dict per record."""
    if fmt == "json":
        return _graph_json(G)
    if fmt == "dot":
        return to_dot(G)
    raise ValueError(f"unknown format {fmt!r}")


def parse_graph_json(text: str) -> ColoredGraph:
    return from_json_dict(json.loads(text))
