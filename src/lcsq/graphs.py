"""Colored-graph data model and the block constructions over linear systems.

A constraint k of a system (M, b) has a block of vertices (k, alpha), one
per local solution alpha in +-1^{S_k}_{b_k}.  Both constructions follow
one block-pair rule: two vertices whose blocks share variables are joined
by an edge colored by their sign product alpha * beta (`sign_product`,
restricted to the shared variables across blocks).  build_G keeps every
such edge; build_Gstar, whose blocks share at most one variable, keeps
across blocks only the -1 class, colored "shared:-1".

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
from functools import lru_cache
from itertools import chain, product, repeat
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


def sign_product(alpha: str, beta: str) -> str:
    """The sign vector alpha * beta of two sign strings over one domain:
    "+" where they agree, "-" where they differ."""
    return "".join("+" if a == b else "-" for a, b in zip(alpha, beta))


# ---------------------------------------------------------------------------
# Colors
#
# A color is its canonical string: "v:k" on the vertices of block k,
# "intra:k:s" on an edge inside block k whose ends differ by the sign
# vector s over S_k ("+" for +1), "inter:l-k:s" on an edge between blocks
# l < k (s over their shared variables), "shared:-1" or "shared:+1" in the
# incidence construction, and "plain:n" on any other graph.  Colors are
# compared as strings; only palette order needs `_color_key`.

# the color of every edge of G*: the one edge color that `cli` decolors by
# default and that `qcert.lift_cert` keeps
GSTAR_COLOR = "shared:-1"

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


def _construction(sys: LinearSystem, construction: str, inter) -> ColoredGraph:
    """The one block-pair rule of `build_G` and `build_Gstar`: the blocks
    with their intra edges, and an edge colored inter(l, k, s) between any
    two vertices of blocks l < k whose restricted sign product is s, or no
    edge where that is None."""
    supports = [sys.support(k) for k in range(sys.num_constraints)]
    blocks, offsets, labels, colors, edges = [], [], [], [], []
    for k, support in enumerate(supports):
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
                delta = sign_product(alpha, block[b_])
                edges.append((base + a, base + b_, f"intra:{k}:{delta}"))
    for l in range(sys.num_constraints):
        for k in range(l + 1, sys.num_constraints):
            # the positions in S_l and in S_k of each variable they share
            shared = [(supports[l].index(i), supports[k].index(i))
                      for i in sorted(set(supports[l]) & set(supports[k]))]
            if not shared:
                continue
            # the sign vectors restricted to the shared variables, and the
            # color of each pair of them, found once per distinct pair
            alphas = ["".join(alpha[p] for p, _ in shared) for alpha in blocks[l]]
            betas = ["".join(beta[q] for _, q in shared) for beta in blocks[k]]
            pair_colors = {(x, y): inter(l, k, sign_product(x, y))
                         for x in set(alphas) for y in set(betas)}
            for a, alpha in enumerate(alphas):
                for b_, beta in enumerate(betas):
                    color = pair_colors[alpha, beta]
                    if color is not None:
                        edges.append((offsets[l] + a, offsets[k] + b_, color))
    meta = {"construction": construction, "system": render_system(sys)}
    return ColoredGraph(tuple(labels), tuple(colors), tuple(edges), meta)


def build_G(sys: LinearSystem) -> ColoredGraph:
    """The colored graph G(M, b): blocks of local solutions, all edges between
    variable-sharing blocks, colored by the (restricted) sign product."""
    return _construction(sys, "G", lambda l, k, s: f"inter:{l}-{k}:{s}")


def _gstar_color(l: int, k: int, s: str) -> str | None:
    """G*'s color for an edge of G between blocks l < k with restricted sign
    product s: "shared:-1" for "-", no edge for "+", and otherwise an error."""
    if len(s) > 1:
        raise ValueError(f"constraints {l} and {k} share {len(s)} variables; "
                         "the reduced construction needs at most one")
    return GSTAR_COLOR if s == "-" else None


def build_Gstar(sys: LinearSystem) -> ColoredGraph:
    """The reduced graph G_*(M, b): G(M, b) where cross-block pairs share at
    most one variable, with the -1 class of each pair's edges colored
    "shared:-1" and the +1 class replaced by non-edges."""
    return _construction(sys, "Gstar", _gstar_color)


# ---------------------------------------------------------------------------
# Serialization


class ImageColumn(tuple):
    """A map of the vertices 0..n-1 held as its images: entry v is the image
    of vertex v.  `dump_json` writes it as the JSON object of that map,
    {"0": column[0], "1": column[1], ...}, without building the dict."""

    __slots__ = ()


@lru_cache(maxsize=4)
def _column_layout(n: int, depth: int) -> tuple[str, tuple[int, ...]]:
    """The %-template of an `ImageColumn` of n > 0 entries opened at nesting
    depth `depth`, and the vertices in the order it takes their images:
    the sorted order of their keys, "0", "1", "10", "100", ..."""
    order = tuple(sorted(range(n), key=str))
    inner = "\n" + " " * (depth + 1)
    body = ("," + inner).join(map('"%d": %%d'.__mod__, order))
    return "".join(("{", inner, body, "\n", " " * depth, "}")), order


def _holds_column(obj) -> bool:
    """Whether obj is an `ImageColumn` or a dict or list that holds one."""
    if isinstance(obj, ImageColumn):
        return True
    if isinstance(obj, dict):
        return any(map(_holds_column, obj.values()))
    return isinstance(obj, (list, tuple)) and any(map(_holds_column, obj))


def _encode(obj, depth: int) -> str:
    """`obj` in `dump_json`'s layout, opened at nesting depth `depth`."""
    if isinstance(obj, ImageColumn):
        if not obj:
            return "{}"
        template, order = _column_layout(len(obj), depth)
        return template % tuple(map(obj.__getitem__, order))
    if not _holds_column(obj):
        # an encoded string never holds a raw newline: only the layout shifts
        text = json.dumps(obj, sort_keys=True, indent=1)
        return text.replace("\n", "\n" + " " * depth)
    inner = "\n" + " " * (depth + 1)
    if isinstance(obj, dict):
        open_, close = "{}"
        # json.dumps({key: 0}) converts (or rejects) the key as json does
        parts = [json.dumps({key: 0})[1:-4] + ": " + _encode(value, depth + 1)
                 for key, value in sorted(obj.items())]
    else:
        open_, close = "[]"
        parts = [_encode(value, depth + 1) for value in obj]
    return "".join((open_, inner, ("," + inner).join(parts), "\n", " " * depth, close))


def dump_json(obj) -> str:
    """The one JSON writer: sorted keys, one space of indent per level.

    The text is `json.dumps(obj, sort_keys=True, indent=1)`, byte for byte,
    and the stdlib writes all of it but the vertex maps.  An `ImageColumn`
    is written as the object of its map, from one template per length and
    depth, and only the dicts and lists on the way down to one are walked
    here.  A graph file's vertex and edge records are the other exception:
    `serialize` writes them from the graph's columns, and only their `meta`
    comes through here.
    """
    return _encode(obj, 0)


_ABSENT = object()
_FIELD_TYPES = {"vertices": (("id", int), ("label", str), ("color", str)),
                "edges": (("u", int), ("v", int), ("color", str))}
_REQUIRED = {"id", "u", "v"}
_NO_COLOR = {_ABSENT: None}


def from_json_dict(data: dict) -> ColoredGraph:
    """The graph of a JSON document in the graph file format (see
    `serialize`).  Raises ValueError naming the field where the document
    departs from it: ids and endpoints must be present and ints, labels
    strings, and colors canonical colors, in lists "vertices" and "edges".

    Each field of each record list is read once, as a column."""
    if not isinstance(data, dict):
        raise ValueError("a graph document must be a JSON object")
    meta = data.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("system", ""), str):
        raise ValueError('"meta" must be an object whose "system" is a string')
    if "system" in meta:
        parse_system(meta["system"])  # raises on a malformed system
    columns = {}
    for where, fields in _FIELD_TYPES.items():
        if where not in data:
            raise ValueError(f"missing field {where!r}")
        records = data[where]
        if not (isinstance(records, list) and all(map(isinstance, records, repeat(dict)))):
            raise ValueError(f'"{where}" must be a list of objects')
        for key, kind in fields:
            column = list(map(dict.get, records, repeat(key), repeat(_ABSENT)))
            found = set(map(type, column))
            if object in found and key in _REQUIRED:  # object: the key is absent
                raise ValueError(f"missing field {key!r}")
            if found - {kind, object}:
                raise ValueError(f'every "{key}" in "{where}" must be '
                                 + ("an integer" if kind is int else "a string"))
            columns[where, key] = column
    ids, labels, vcolors = (columns["vertices", key] for key in ("id", "label", "color"))
    us, vs, ecolors = (columns["edges", key] for key in ("u", "v", "color"))
    # an absent color is None, and every present one a string by now
    vcolors, ecolors = (list(map(_NO_COLOR.get, c, c)) for c in (vcolors, ecolors))
    for color in set(chain(vcolors, ecolors)) - {None}:
        _color_key(color)

    n = len(ids)
    if ids != list(range(n)):
        order = sorted(range(n), key=ids.__getitem__)
        if list(map(ids.__getitem__, order)) != list(range(n)):
            raise ValueError("vertex ids must be 0..n-1")
        labels, vcolors = ([c[i] for i in order] for c in (labels, vcolors))
    if _ABSENT in labels:  # a vertex without a label is labelled by its id
        labels = tuple(i if label is _ABSENT else parse_label(label)
                       for i, label in enumerate(labels))
    else:
        labels = tuple(map(parse_label, labels))
    edges = tuple(zip(map(min, us, vs), map(max, us, vs), ecolors))
    return ColoredGraph(labels, tuple(vcolors), edges, meta)


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


def serialize(G: ColoredGraph) -> str:
    """The graph file of G: the text `dump_json` writes of the document
    {"vertices": [...], "edges": [...], "meta": G.meta}, whose vertex
    records are {"id": i, "label": str(G.labels[i])} and edge records
    {"u": u, "v": v}, each with a "color" key exactly when it has a color.

    It is written from G's tuples without building a dict per record:
    labels and colors escaped as `json.dumps` escapes them, ids and
    endpoints as ints, and only `meta` through `dump_json`'s encoder."""
    labels = map(encode_basestring_ascii, map(str, G.labels))
    vertices = _records(_VERTEX_RECORD, G.vertex_colors,
                        chain.from_iterable(zip(range(G.num_vertices), labels)))
    edges = _records(_EDGE_RECORD, list(map(itemgetter(2), G.edges)),
                     chain.from_iterable(G.edges))
    return "".join(('{\n "edges": ', edges, ',\n "meta": ', _encode(G.meta, 1),
                    ',\n "vertices": ', vertices, "\n}"))


def parse_graph_json(text: str) -> ColoredGraph:
    try:
        doc = json.loads(text)
    except RecursionError:  # a RuntimeError, which callers read as a library fault
        raise ValueError("graph file nests too deeply to parse") from None
    return from_json_dict(doc)
