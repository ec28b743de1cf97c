"""Oracles and helpers the tests share, built on the package's public API.

Nothing in `lcsq` reads these: each is what a test checks the package
against (a graph's components, the block constructions by their
definitions, a coset table's permutations, the group algebra over the
trivial-subgroup enumeration, the generators a certificate encodes, a
graph file's document), or a short way to write a test input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from lcsq.f2core import BinMatrix, LinearSystem, echelon_basis, parse_system
from lcsq.fpgroups import CosetTable, Presentation
from lcsq.graphs import ColoredGraph, block_labels, sign_vectors
from lcsq.qcert import CertificateError, MagicUnitaryCert, verify_cert
from lcsq.reps import GroupAlgebraElement, Representation, VerificationReport

# ---------------------------------------------------------------------------
# F2 matrices


def system(rows: list[list[int]], b) -> LinearSystem:
    """The system with the given matrix rows (lists of bits) and right-hand
    side, read from its system file text."""
    return parse_system(";".join("".join(map(str, row)) for row in rows)
                        + "|" + "".join(map(str, b)))


def transpose(M: BinMatrix) -> BinMatrix:
    """M's transpose, built bit by bit: the oracle for column operations."""
    cols = []
    for j in range(M.cols):
        word = 0
        for i in range(M.rows):
            word |= ((M.bits[i] >> j) & 1) << i
        cols.append(word)
    return BinMatrix(M.cols, M.rows, tuple(cols))


def components(num_vertices: int, edges) -> int:
    """The number of connected components of the graph on 0..n-1 with the
    given edges, by union-find: the oracle for connectivity."""
    parent = list(range(num_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    return sum(root(v) == v for v in range(num_vertices))


# ---------------------------------------------------------------------------
# the block constructions


def constructions_by_definition(sys: LinearSystem, star: bool):
    """G(M, b), or G*(M, b) with `star`, from the definitions, as (labels,
    vertex colors, set of colored edges).

    A vertex is a local solution (k, alpha): alpha in {+1, -1}^{S_k} with
    product (-1)^{b_k}, blocks ascending and each block's alphas as
    `itertools.product` lists them.  Two distinct vertices whose blocks
    share variables are joined, colored by the product alpha * beta
    restricted to the shared variables: "intra:k:s" in one block k,
    "inter:l-k:s" across blocks l < k.  G* keeps the intra edges and, of
    the inter edges, those of product -1, colored "shared:-1"; it is only
    defined when no two blocks share two or more variables."""
    def text(signs):
        return "".join("+" if s == 1 else "-" for s in signs)

    vertices = []  # (k, {variable: sign})
    for k in range(sys.num_constraints):
        support = sys.support(k)
        for signs in product((1, -1), repeat=len(support)):
            if prod(signs) == (-1) ** sys.b[k]:
                vertices.append((k, dict(zip(support, signs))))
    labels = [f"{k}:{text(alpha.values())}" for k, alpha in vertices]
    colors = [f"v:{k}" for k, _ in vertices]
    edges = set()
    for v, (k, beta) in enumerate(vertices):
        for u, (l, alpha) in enumerate(vertices[:v]):
            shared = sorted(alpha.keys() & beta.keys())
            if not shared:
                continue
            s = text(alpha[i] * beta[i] for i in shared)
            if l == k:
                edges.add((u, v, f"intra:{k}:{s}"))
            elif not star:
                edges.add((u, v, f"inter:{l}-{k}:{s}"))
            elif len(shared) > 1:
                raise ValueError(f"blocks {l} and {k} share {len(shared)} variables")
            elif s == "-":
                edges.add((u, v, "shared:-1"))
    return labels, colors, edges


# ---------------------------------------------------------------------------
# coset tables


def regular_perm_rep(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator, its column: coset c maps to c·g.

    Only defined for complete tables.  Every permutation is an involution
    and every relator evaluates to the identity permutation.  Each column
    is checked to be an involution, p[p[c]] == c for every coset c, which
    also proves it a permutation, in linear time.
    """
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    perms = list(T.columns)
    identity = tuple(range(T.num_cosets))
    for g, perm in enumerate(perms):
        try:
            square = tuple(map(perm.__getitem__, perm))  # p∘p
        except IndexError:
            square = None
        if square != identity:
            raise ValueError(f"generator column {g} is not an involution")
    return perms


def abelianized_order(P: Presentation) -> int:
    """The order of the abelianization, F2^ngens / R with R the span of the
    relator parities: every generator is an involution.  A finite group is
    abelian exactly when its order is this."""
    parities = []
    for rel in P.relators:
        mask = 0
        for g in rel:
            mask ^= 1 << g
        parities.append(mask)
    return 1 << (P.ngens - len(echelon_basis(parities, P.ngens)))


def rep_words(T: CosetTable) -> dict[int, tuple[int, ...]]:
    """coset -> a shortest word leading to it from coset 0 in a complete
    table, by breadth-first search."""
    words = {0: ()}
    frontier = [0]
    while frontier:
        reached = []
        for c in frontier:
            for g, col in enumerate(T.columns):
                if col[c] not in words:
                    words[col[c]] = words[c] + (g,)
                    reached.append(col[c])
        frontier = reached
    return words


class EnumeratedGroup:
    """The group of a complete table over the trivial subgroup, coset c the
    element c, as the context of its group algebra in the place of a
    `fpgroups.RegularTable`: the reference that products, adjoints and
    certificates over the star coordinates are renumbered against.  Right
    multiplication by h follows h's `rep_words` word from every coset, an
    inverse is that word read backward from coset 0, and certificates
    number the elements as the enumeration numbers its cosets."""

    letters = ()  # no star subgroup: element c is the pair (0, c)

    def __init__(self, T: CosetTable):
        if not T.is_complete:
            raise ValueError("coset table is not complete")
        self.table, self.words = T, rep_words(T)
        self.numbering = range(T.num_cosets)
        self.abelian = T.num_cosets == abelianized_order(T.presentation)
        self._right: dict[int, list[int]] = {}

    def right(self, h: int) -> list[int]:
        if h not in self._right:
            self._right[h] = [self.table.follow(c, self.words[h])
                              for c in range(self.table.num_cosets)]
        return self._right[h]

    def inverse(self, h: int) -> int:
        return self.table.follow(0, self.words[h][::-1])

    def commuting(self, support) -> bool:
        return all(self.right(h)[g] == self.right(g)[h] for g in support for h in support)


def enumerated_rep(T: CosetTable) -> Representation:
    """`reps.group_algebra_rep` over the trivial-subgroup enumeration: x_i
    is the coset of its own generator."""
    G = EnumeratedGroup(T)
    P = T.presentation
    nvars = P.ngens - (1 if "gamma" in P.generators else 0)
    return Representation([GroupAlgebraElement.basis_element(G, T.follow(0, (i,)))
                           for i in range(nvars)], name="regular")


# ---------------------------------------------------------------------------
# certificates


def plain_verify(cert: MagicUnitaryCert) -> VerificationReport:
    """`verify_cert`'s report computed entry by entry with element
    arithmetic alone: each entry's projection residuals, each row and column
    summed term by term, each entry of A_G u - u A_G' for each edge color,
    each same-block entry subtracted from its class's first and each block
    commutator formed with two products.  No signature, memo or equality
    shortcut: each residual is the norm of a difference formed in full."""
    G1, G2, one = cert.row_graph, cert.col_graph, cert.identity
    entries = cert.entries
    families = []

    def worst_of(name, residuals):
        """(name, largest residual, the first description attaining it)
        from (description, residual) pairs."""
        worst, desc = 0.0, ""
        for d, r in residuals:
            if r > worst:
                worst, desc = r, d
        return (name, worst, desc)

    def chain(plus, minus):
        """sum(plus) - sum(minus), one term at a time; at least one term."""
        out = None
        for elem in plus:
            out = elem if out is None else out + elem
        for elem in minus:
            out = -elem if out is None else out - elem
        return out

    families.append(worst_of("projection", (
        (f"entry {key}", max((e - e.adjoint()).residual_norm(), (e * e - e).residual_norm()))
        for key, e in sorted(entries.items()))))
    colors1, colors2 = G1.vertex_colors, G2.vertex_colors
    color = worst_of("color", (
        (f"entry ({i},{j}) colors {colors1[i]}/{colors2[j]}", e.residual_norm())
        for (i, j), e in entries.items() if colors1[i] != colors2[j]))

    if (one - one.unit()).residual_norm() and (
            not one.residual_norm() or (one - one.adjoint()).residual_norm()
            or (one * one - one).residual_norm()):
        shape = "identity"  # not a nonzero projection
    else:  # the first entry over another algebra
        shape = next((f"entry {key}" for key in sorted(entries)
                      if not one.same_algebra(entries[key])), None)
    if shape is not None:
        families += [("shape", 1.0, shape), color]
        return VerificationReport(tuple(families), one.backend)

    for axis, name, count in ((0, "row", G1.num_vertices), (1, "col", G2.num_vertices)):
        lines = [[] for _ in range(count)]
        for key, e in entries.items():
            lines[key[axis]].append(e)
        families.append(worst_of(f"{name}_sum", (
            (f"{name} {idx}", chain(terms, [one]).residual_norm())
            for idx, terms in enumerate(lines))))
    families.append(color)

    colors = sorted({c or "" for G in (G1, G2) for (_, _, c) in G.edges})
    for cname in colors:
        adj1, adj2 = ({u: [] for u in range(G.num_vertices)} for G in (G1, G2))
        for G, adj in ((G1, adj1), (G2, adj2)):
            for (u, v, c) in G.edges:
                if (c or "") == cname:
                    adj[u].append(v)
                    adj[v].append(u)
        left, right = {}, {}  # (i, j) -> the terms of (A_G u)[i, j], (u A_G')[i, j]
        for (k, j), e in entries.items():
            for i in adj1[k]:
                left.setdefault((i, j), []).append(e)
        for (i, k), e in entries.items():
            for j in adj2[k]:
                right.setdefault((i, j), []).append(e)
        worst = max((chain(left.get(key, ()), right.get(key, ())).residual_norm()
                     for key in left.keys() | right.keys()), default=0.0)
        families.append((f"intertwine:{cname or 'plain'}", worst, cname or "plain"))

    labels1, labels2 = block_labels(G1), block_labels(G2)
    if labels1 is not None and labels2 is not None:
        classes = {}  # (block, delta) -> its entries, in entry order
        for (i, j), e in entries.items():
            (k, alpha), (l, beta) = labels1[i], labels2[j]
            if k == l:
                delta = "".join("+" if a == b else "-" for a, b in zip(alpha, beta))
                classes.setdefault((k, delta), []).append(e)
        families.append(worst_of("block_equal", (
            (f"block {k} delta {delta}", (e - elems[0]).residual_norm())
            for (k, delta), elems in classes.items() for e in elems)))
        firsts = {}
        for (k, _), elems in classes.items():
            firsts.setdefault(k, []).append(elems[0])
        families.append(worst_of("block_commute", (
            (f"block {k}", (x * y - y * x).residual_norm())
            for k, elems in firsts.items()
            for a, x in enumerate(elems) for y in elems[a + 1:])))

    return VerificationReport(tuple(families), one.backend)


def residual(report: VerificationReport, family: str) -> float:
    """The residual of a report's family, 0.0 when it has none."""
    return max((r for n, r, _ in report.families if n == family), default=0.0)


@dataclass(frozen=True)
class ExtractionReport:
    """Extracted generator images and how well they glue across blocks."""

    generators: tuple
    cross_block_discrepancy: float
    roundtrip_residual: float | None  # vs. the representation, when given


def extract_generators(cert: MagicUnitaryCert,
                       rep: Representation | None = None) -> ExtractionReport:
    """Recover y_i = sum_delta delta_i v^{(k)}_delta for every variable:
    the duality round trip of a certificate built from a representation.

    v^{(k)}_delta is read from the entries: the first entry of block k
    with alpha * beta = delta (the certificate passes, so every such entry
    is equal), and both graphs must be block-labelled.  The sum must not
    depend on which block k containing i is used; the maximal cross-block
    deviation is reported, together with the residual against `rep` when
    it is given.
    """
    report = verify_cert(cert)
    if not report.passed:
        raise CertificateError(
            f"certificate fails verification: {report.worst[0]} "
            f"(residual {report.worst[1]:.3g})")

    labels1, labels2 = block_labels(cert.row_graph), block_labels(cert.col_graph)
    if labels1 is None or labels2 is None:
        raise CertificateError("graph vertices are not block-labelled")
    sys1, sys2 = cert.row_graph.system(), cert.col_graph.system()
    if sys1.M != sys2.M:
        raise CertificateError("graphs were built from different matrices")
    parity = [x ^ y for x, y in zip(sys1.b, sys2.b)]
    table: dict = {}  # (block, delta string) -> element
    for (i, j), elem in cert.entries.items():
        (k, alpha), (l, beta) = labels1[i], labels2[j]
        if k == l:  # the passing certificate's cross-block entries are zero
            delta = "".join("+" if a == b else "-" for a, b in zip(alpha, beta))
            table.setdefault((k, delta), elem)

    per_var_blocks: dict[int, dict[int, object]] = {}
    for k in range(sys1.num_constraints):
        support = sys1.support(k)
        for pos, i in enumerate(support):
            y = None
            for delta in sign_vectors(support, parity[k]):
                v = table[(k, delta)]
                term = v if delta[pos] == "+" else -v
                y = term if y is None else y + term
            per_var_blocks.setdefault(i, {})[k] = y

    generators = []
    discrepancy = 0.0
    for i in range(sys1.num_vars):
        blocks = per_var_blocks.get(i)
        if not blocks:
            raise CertificateError(f"variable {i} occurs in no constraint")
        ys = [blocks[k] for k in sorted(blocks)]
        generators.append(ys[0])
        for a in range(len(ys)):
            for b in range(a + 1, len(ys)):
                discrepancy = max(discrepancy, (ys[a] - ys[b]).residual_norm())

    roundtrip = None
    if rep is not None:
        roundtrip = max((y - x).residual_norm() for y, x in zip(generators, rep.images))

    return ExtractionReport(tuple(generators), discrepancy, roundtrip)


# ---------------------------------------------------------------------------
# graph files


def to_json_dict(G: ColoredGraph) -> dict:
    """The graph file document of G, built record by record: the oracle
    for `serialize`, which writes `dump_json`'s text of it without
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
