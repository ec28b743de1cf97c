"""Verdict checks that do not use the code under test.

Expected orders come from the paper and from the abelianization formula
|Gamma_0(M_H)^ab| = 2^(E - V + 1) for a connected graph H; mappings are
checked as color- and edge-preserving bijections straight from the JSON
files, without going through `lcsq.graphs` or `lcsq.graphiso`.
"""

from __future__ import annotations

import json
import re


class Mismatch(Exception):
    """An output that disagrees with its oracle answer."""


def abelian_order(p: int, q: int) -> int:
    """Order of the abelianized homogeneous solution group of K_{p,q}."""
    edges, vertices = p * q, p + q
    return 2 ** (edges - vertices + 1)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def load_json(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


class GraphFile:
    """A graph JSON document reduced to what isomorphism must preserve."""

    def __init__(self, data: dict):
        ids = sorted(v["id"] for v in data["vertices"])
        if ids != list(range(len(ids))):
            raise Mismatch("graph vertex ids are not 0..n-1")
        self.n = len(ids)
        self.vcolor = {v["id"]: v.get("color") for v in data["vertices"]}
        self.edges = {}
        for e in data["edges"]:
            self.edges[frozenset((e["u"], e["v"]))] = e.get("color")
        if len(self.edges) != len(data["edges"]):
            raise Mismatch("graph has repeated edges")


def check_isomorphism(g1: GraphFile, g2: GraphFile, mapping: dict) -> None:
    """`mapping` (JSON: source id as a string -> image id) is a bijection
    that keeps vertex colors, edges and edge colors, in both directions."""
    f = {int(k): v for k, v in mapping.items()}
    expect(sorted(f) == list(range(g1.n)), "mapping does not cover every vertex")
    expect(sorted(f.values()) == list(range(g2.n)), "mapping is not onto")
    for v, w in f.items():
        expect(g1.vcolor[v] == g2.vcolor[w],
               f"vertex {v} -> {w} changes color {g1.vcolor[v]} -> {g2.vcolor[w]}")
    expect(len(g1.edges) == len(g2.edges), "edge counts differ")
    for edge, color in g1.edges.items():
        u, v = tuple(edge)
        image = frozenset((f[u], f[v]))
        expect(image in g2.edges and g2.edges[image] == color,
               f"edge ({u},{v}) is not mapped to an edge of the same color")


def stdout_has(stdout: str, *patterns: str) -> None:
    for pattern in patterns:
        expect(re.search(pattern, stdout) is not None,
               f"stdout {stdout.strip()!r} does not match {pattern!r}")
