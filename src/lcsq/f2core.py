"""Exact linear algebra over F2 and binary linear constraint systems.

Matrices are stored row-wise as Python ints used as bitsets, so row
operations are single XORs regardless of width.  A linear system is a
matrix M together with a right-hand side b, encoding the parity
constraints  prod_{i in S_k} x_i = (-1)^{b_k}  with
S_k = {i : M[k][i] = 1}.

Also provides the incidence system of a simple graph H: one variable per
edge, one constraint per vertex, (M_H)[k][i] = 1 iff vertex k is an
endpoint of edge i.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass


class SystemFormatError(ValueError):
    """Malformed system or graph file; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class BinMatrix:
    """An m x n matrix over F2, rows bit-packed into ints (bit i = column i)."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.bits) != self.rows:
            raise ValueError("row count does not match packed rows")
        mask = (1 << self.cols) - 1
        for r in self.bits:
            if r & ~mask:
                raise ValueError("row has bits outside the declared width")

    def support(self, k: int) -> tuple[int, ...]:
        """Indices of the 1-entries of row k (the constraint set S_k)."""
        return tuple(j for j in range(self.cols) if (self.bits[k] >> j) & 1)

    def mul_vec(self, x: int) -> int:
        """M @ x over F2; x and the result are bit-packed vectors."""
        out = 0
        for i, r in enumerate(self.bits):
            out |= (bin(r & x).count("1") & 1) << i
        return out


@dataclass(frozen=True)
class LinearSystem:
    """The pair (M, b): constraints prod_{i in S_k} x_i = (-1)^{b_k}."""

    M: BinMatrix
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != self.M.rows:
            raise ValueError("right-hand side length does not match row count")
        for v in self.b:
            if v not in (0, 1):
                raise ValueError("right-hand side entries must be bits")

    @property
    def num_constraints(self) -> int:
        return self.M.rows

    @property
    def num_vars(self) -> int:
        return self.M.cols

    def support(self, k: int) -> tuple[int, ...]:
        return self.M.support(k)

    def sharing_pairs(self) -> list[tuple[int, int]]:
        """The pairs i < j of variables that share a constraint, sorted."""
        pairs = set()
        for k in range(self.num_constraints):
            support = self.support(k)
            for a, i in enumerate(support):
                pairs.update((i, j) for j in support[a + 1:])
        return sorted(pairs)

    def b_bitstring(self) -> str:
        return "".join(str(v) for v in self.b)

    def with_b(self, b: tuple[int, ...]) -> LinearSystem:
        return LinearSystem(self.M, b)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: n vertices 0..n-1 and an ordered edge list."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> SimpleGraph:
        return cls(num_vertices, tuple((min(u, v), max(u, v)) for u, v in edges))

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(self.num_vertices)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices


def complete_bipartite(p: int, q: int) -> SimpleGraph:
    """K_{p,q} with parts {0..p-1} and {p..p+q-1}, edges in lexicographic order."""
    edges = [(a, p + b) for a in range(p) for b in range(q)]
    return SimpleGraph.from_edges(p + q, edges)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def parse_system(text: str) -> LinearSystem:
    """Parse the system file format: rows over {0,1} joined by ';', then '|', then b.

    Example: "11100;10011|01" is a 2x5 matrix with b = (0, 1).  Raises
    SystemFormatError with line/column on any malformed input.
    """
    bar = text.find("|")
    if bar < 0:
        raise SystemFormatError("missing '|' separator before right-hand side",
                                *_line_col(text, max(len(text) - 1, 0)))
    rows_part, b_part = text[:bar], text[bar + 1:]

    def scan_bits(chunk: str, offset: int) -> tuple[int, int]:
        word = 0
        nbits = 0
        for idx, ch in enumerate(chunk):
            if ch in "01":
                word |= (ch == "1") << nbits
                nbits += 1
            elif ch.isspace():
                continue
            else:
                raise SystemFormatError(f"non-binary digit {ch!r}",
                                        *_line_col(text, offset + idx))
        return word, nbits

    packed = []
    width = None
    offset = 0
    for chunk in rows_part.split(";"):
        word, nbits = scan_bits(chunk, offset)
        if nbits == 0:
            raise SystemFormatError("empty matrix row", *_line_col(text, offset))
        if width is None:
            width = nbits
        elif nbits != width:
            raise SystemFormatError(
                f"row length mismatch: expected {width} entries, got {nbits}",
                *_line_col(text, offset))
        packed.append(word)
        offset += len(chunk) + 1
    M = BinMatrix(len(packed), width, tuple(packed))

    b_word, b_len = scan_bits(b_part, bar + 1)
    if b_len != M.rows:
        raise SystemFormatError(
            f"right-hand side has {b_len} entries for {M.rows} rows",
            *_line_col(text, bar + 1))
    return LinearSystem(M, tuple((b_word >> i) & 1 for i in range(b_len)))


def render_system(sys: LinearSystem) -> str:
    rows = ["".join(str((r >> j) & 1) for j in range(sys.M.cols)) for r in sys.M.bits]
    return ";".join(rows) + "|" + sys.b_bitstring()


def parse_graph(text: str) -> SimpleGraph:
    """Parse the graph file format: vertex count, then "u v" pairs, 1-indexed."""
    lines = text.splitlines()
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            entries.append((lineno, stripped))
    if not entries:
        raise SystemFormatError("empty graph file", 1, 1)
    lineno, head = entries[0]
    try:
        n = int(head)
    except ValueError:
        raise SystemFormatError(f"expected vertex count, got {head!r}", lineno, 1)
    if n < 0:
        raise SystemFormatError(f"vertex count {n} is negative", lineno, 1)
    edges = []
    for lineno, body in entries[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise SystemFormatError("expected 'u v' edge pair", lineno, 1)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise SystemFormatError("edge endpoints must be integers", lineno, 1)
        if not (1 <= u <= n and 1 <= v <= n):
            raise SystemFormatError(f"endpoint out of range 1..{n}", lineno, 1)
        edges.append((u - 1, v - 1))
    try:
        return SimpleGraph.from_edges(n, edges)
    except ValueError as exc:
        raise SystemFormatError(str(exc), entries[0][0], 1)


def incidence_system(H: SimpleGraph, b: tuple[int, ...] | list[int]) -> LinearSystem:
    """Incidence system of H: variables = edges in listed order, constraints = vertices.

    Column i has exactly two 1s, at the endpoints of edge i.  Connectivity
    of H is assumed by the constructions downstream; a disconnected H is
    reported as a warning, not an error.
    """
    b = tuple(b)
    if len(b) != H.num_vertices:
        raise ValueError(f"b has length {len(b)}, expected {H.num_vertices}")
    if not H.edges:
        raise ValueError("graph has no edges, so the system has no variables")
    if not H.is_connected():
        warnings.warn("graph is disconnected; downstream constructions assume "
                      "a connected graph", stacklevel=2)
    bits = [0] * H.num_vertices
    for i, (u, v) in enumerate(H.edges):
        bits[u] |= 1 << i
        bits[v] |= 1 << i
    M = BinMatrix(H.num_vertices, len(H.edges), tuple(bits))
    return LinearSystem(M, b)


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """In-place Gaussian elimination; returns (reduced rows, pivot columns)."""
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and ((rows[r] >> col) & 1):
                rows[r] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows, pivots


def echelon_basis(vectors: Iterable[int], ncols: int) -> tuple[int, ...]:
    """The reduced row echelon basis of the span of bit-packed vectors of
    width ncols: the lowest set bit of each row is its pivot, and no other
    row has that bit set."""
    rows, pivots = _eliminate(list(vectors), ncols)
    return tuple(rows[:len(pivots)])


def reduce_f2(basis: tuple[int, ...], v: int) -> int:
    """v modulo the span of an `echelon_basis`: the one vector of the coset
    v + span with no pivot bit set.  So vectors of one coset reduce to the
    same vector, and v reduces to 0 exactly when it lies in the span."""
    for row in basis:
        if v & row & -row:
            v ^= row
    return v


def rank_f2(M: BinMatrix) -> int:
    """Rank of M over F2 by Gaussian elimination on bit-packed rows."""
    _, pivots = _eliminate(list(M.bits), M.cols)
    return len(pivots)


def solve_f2(sys: LinearSystem) -> tuple[int, ...] | None:
    """Some solution of Mx = b, or None if the system is inconsistent.

    Free variables are set to 0, so the result is deterministic.  The
    returned vector is re-substituted into M before returning.
    """
    n = sys.M.cols
    aug = [r | (b << n) for r, b in zip(sys.M.bits, sys.b)]
    rows, pivots = _eliminate(aug, n)
    for r in rows[len(pivots):]:
        if r:  # zero coefficients but nonzero rhs
            return None
    x = 0
    for r, col in zip(rows, pivots):
        if (r >> n) & 1:
            x |= 1 << col
    b_vec = sum(b << i for i, b in enumerate(sys.b))
    if sys.M.mul_vec(x) != b_vec:
        raise RuntimeError("solver produced a non-solution")
    return tuple((x >> j) & 1 for j in range(n))
