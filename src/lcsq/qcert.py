"""Magic-unitary certificates: construction from representations,
verification against the one relation set of their pair of graphs
(quantum automorphism when the two are one graph), quantum-symmetry
witnesses, and lifting through the decoloring pipeline.

A certificate is a block-sparse matrix of algebra elements indexed by
vertex pairs (row graph x column graph).  For certificates built from a
representation, the entry at ((k, alpha), (k, beta)) is the projection
v_delta = prod_{i in S_k} p_i^{delta_i} with delta = alpha * beta and
p_i^{+-} = (1 +- x_i)/2; entries across different blocks vanish.  The
same construction covers the automorphism case (both graphs equal) and
the isomorphism case (right-hand sides b and b' differ).  A vertex
(k, alpha) is read from its label "k:alpha" by `graphs.block_labels`, and
delta = `graphs.sign_product(alpha, beta)` is a sign string as alpha is.

The certificate's algebra is its identity's: every entry must satisfy
`same_algebra` with it, and the JSON and reports name the identity's
`backend`.  Verification has one path for both element types: every
relation is checked entry by entry through the elements' own `combine`
(a sum minus a sum), product and residual norm, so the sparse
intertwining loop never forms a dense matrix.  Each row, column and
intertwining sum sum(plus) - sum(minus) first gets a signature: a signed
digit vector over the certificate's distinct stored objects, held in one
int (the weight of object e is 1 << (e * bits), as graphiso weighs edge
colors by base**color_id).  Digits count an object's terms on the plus
side minus those on the minus side, and `bits` leaves room for the
largest multiplicity one side can reach, so the int is 0 exactly when
both sides hold the same objects (the residual is then 0.0 with no
algebra), and equal ints mean equal sums: the sums are exact, so
neither the order of the terms nor cancelling a term on both sides
changes them.  Each distinct nonzero signature is decoded and summed
once, up to sign: -sig is the negated sum, and both norms ignore sign, so
a sum and its negation share one memo entry under abs(sig).  Entries that
coincide by the block structure share one object, so most sums repeat.
Intertwining with one edge color forms only the rows that color reaches:
a row with a neighbour in the row graph, or with an entry in a column
that has a neighbour in the column graph; every other row is zero.
A family's residual is the largest norm of any single entry: a per-entry
Frobenius norm for dense elements, and for group-algebra elements the l1
norm of the coefficients.  Both element types are exact, so a norm is
zero exactly on zero, and a family passes only when its residual is
literally 0.0.  A difference of two formed elements (e - e* and e^2 - e
for a projection, a commutator, a `block_equal` pair) is measured by
the elements' `distance`, which decides a zero by equality and subtracts
only two elements that differ.

The lift forms each product of two stored objects once per call: its
gadgets repeat a few operand pairs many times.  An algebra that is
commutative (a group algebra of an abelian group, or 1 x 1 matrices)
holds no quantum-symmetry witness, and the search is skipped.  A block
whose entries commute as their supports show (`supports_commute`) takes
no commutator at all: over the group algebra, every two group elements
in the union of the block's supports commute.  A built certificate's
block k lies in the abelian subgroup <x_i : i in S_k>, so every block of
every group-algebra certificate built here takes this path; a dense
block does only over 1 x 1 matrices.  Any other block forms each pair's
commutator, so its residual and description are those of the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .f2core import LinearSystem
from .graphs import GSTAR_COLOR, ColoredGraph, block_labels, sign_product
from .decolor import canonical_assignment, chains, decolor_full
from .reps import Representation, VerificationReport, verify_representation

class CertificateError(Exception):
    """A certificate precondition failed (mismatched inputs, failed source)."""


@dataclass
class MagicUnitaryCert:
    """Block-sparse magic unitary over a pair of colored graphs.

    `entries` maps (row vertex, column vertex) to an element of the
    algebra of `identity`; absent pairs are zero.  Entries that coincide
    by the block structure share one element object: a certificate built
    from a representation holds one object per (block, delta).  The JSON form
    numbers the distinct objects in `distinct_elements` order and names the
    identity's `backend`.  `entries` is read-only after construction: the
    distinct objects are found once per certificate, and a changed
    certificate is a new one (`dataclasses.replace`).
    """

    row_graph: ColoredGraph
    col_graph: ColoredGraph
    entries: dict
    identity: object
    provenance: str = ""

    def entry(self, i: int, j: int):
        return self.entries.get((i, j))

    def zero(self):
        return self.identity - self.identity

    def distinct_elements(self) -> tuple[tuple[tuple[int, int], object], ...]:
        """One representative (key, element) per distinct stored object,
        the smallest key of each, in key order."""
        return self._distinct

    @cached_property
    def _distinct(self) -> tuple[tuple[tuple[int, int], object], ...]:
        seen: dict[int, tuple[tuple[int, int], object]] = {}
        for key, elem in self.entries.items():  # the smallest key per object
            first = seen.get(id(elem))
            if first is None or key < first[0]:
                seen[id(elem)] = (key, elem)
        return tuple(sorted(seen.values(), key=lambda kv: kv[0]))

    def to_json_dict(self) -> dict:
        distinct = self.distinct_elements()
        index = {id(elem): e for e, (_, elem) in enumerate(distinct)}
        rows, cols = self.row_graph.labels, self.col_graph.labels
        return {"backend": self.identity.backend, "provenance": self.provenance,
                "elements": [elem.to_json() for _, elem in distinct],
                "entries": [{"row": str(rows[i]), "col": str(cols[j]),
                             "element": index[id(self.entries[(i, j)])]}
                            for (i, j) in sorted(self.entries)]}


# ---------------------------------------------------------------------------
# Construction from a representation


def _block_vertices(G: ColoredGraph) -> dict[int, list[tuple[int, str]]]:
    """Block k -> (i, alpha) for each vertex i = (k, alpha) of G, by
    `graphs.block_labels`; a CertificateError when G is not block-labelled."""
    labels = block_labels(G)
    if labels is None:
        raise CertificateError("graph vertices are not block-labelled")
    blocks: dict[int, list[tuple[int, str]]] = {}
    for i, (k, alpha) in enumerate(labels):
        blocks.setdefault(k, []).append((i, alpha))
    return blocks


def build_magic_unitary(Gb: ColoredGraph, Gb2: ColoredGraph,
                        R: Representation) -> MagicUnitaryCert:
    """Certificate u with u[(k,alpha),(k,beta)] = prod_i p_i^{(alpha*beta)_i}.

    Both graphs must be block-labelled (`graphs.block_labels`) over one
    matrix, and R must represent the relation set of (M, b + b'); this is
    verified before anything is built.  Works uniformly for b = b'
    (automorphism case) and b != b' (isomorphism case).
    """
    blocks1, blocks2 = _block_vertices(Gb), _block_vertices(Gb2)
    s1, s2 = Gb.system(), Gb2.system()  # both hold one, being block-labelled
    if s1.M != s2.M:
        raise CertificateError("graphs were built from different matrices")
    xor_b = tuple(x ^ y for x, y in zip(s1.b, s2.b))
    sys_xor = LinearSystem(s1.M, xor_b)
    if len(R.images) != s1.M.cols:
        raise CertificateError(f"{len(R.images)} images for {s1.M.cols} variables")
    report = verify_representation(R, sys_xor)
    if not report.passed:
        raise CertificateError(
            f"representation fails for b+b': {report.worst[0]} "
            f"(residual {report.max_residual:.3g})")

    one = R.identity()
    entries: dict = {}
    for k in sorted(blocks1):
        projections = [(R.projection(i, 1), R.projection(i, -1)) for i in s1.support(k)]
        v: dict[str, object] = {}  # v_delta, keyed by `sign_product`'s delta
        for i, alpha in blocks1[k]:
            for j, beta in blocks2.get(k, []):
                delta = sign_product(alpha, beta)
                elem = v.get(delta)
                if elem is None:
                    elem = one
                    for (plus, minus), sign in zip(projections, delta):
                        elem = elem * (plus if sign == "+" else minus)
                    v[delta] = elem
                entries[(i, j)] = elem

    return MagicUnitaryCert(Gb, Gb2, entries, one, provenance=f"built:{R.name}")


# ---------------------------------------------------------------------------
# Verification


def _neighbours(G: ColoredGraph) -> dict[str, dict[int, list[int]]]:
    """Edge color ("" for none) -> vertex -> its neighbours in that color."""
    out: dict[str, dict[int, list[int]]] = {}
    for (u, v, c) in G.edges:
        adj = out.setdefault(c or "", {})
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return out


def _decode(sig: int, bits: int) -> tuple[list[int], list[int]]:
    """The indices of a signature's positive and negative digits, each
    repeated as often as its digit's absolute value."""
    plus: list[int] = []
    minus: list[int] = []
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    while sig:
        e = ((sig & -sig).bit_length() - 1) // bits  # lowest nonzero digit
        d = (sig >> (e * bits)) & mask
        if d >= half:
            d -= 1 << bits
        sig -= d << (e * bits)
        if d > 0:
            plus += [e] * d
        else:
            minus += [e] * -d
    return plus, minus


def _residual(memo: dict, elems: list, bits: int, sig: int) -> float:
    """Residual norm of the sum with signature `sig`, summed once per
    signature up to sign.

    `sig` is sum(weight of plus terms) - sum(weight of minus terms), where
    object `elems[e]` weighs 1 << (e * bits) and no object occurs more than
    2**(bits - 1) - 1 times on one side, so each digit is one object's
    signed multiplicity.  `memo` is keyed by abs(sig): -sig is the
    negated sum, and a residual norm ignores sign.  It maps 0 to 0.0:
    equal multisets cancel.  A nonzero signature is decoded into its
    uncancelled terms; the sums are exact, so those give the same element
    as the terms that built it.
    """
    sig = abs(sig)
    r = memo.get(sig)
    if r is None:
        plus, minus = _decode(sig, bits)
        plus = [elems[e] for e in plus]
        minus = [elems[e] for e in minus]
        first = plus[0] if plus else minus[0]
        r = memo[sig] = first.combine(plus, minus).residual_norm()
    return r


def _commutator_norm(x, y) -> float:
    """Residual norm of xy - yx."""
    return (x * y).distance(y * x)


def _intertwine(rows: dict, col_rows: dict, adj1: dict, adj2: dict,
                memo: dict, elems: list, bits: int) -> float:
    """Largest residual norm over the entries of A1 u - u A2.

    A1 and A2 are the adjacency matrices of one edge color, as neighbour
    lists, `rows` maps a row of u to its stored (column, weight) pairs and
    `col_rows` a column of u to the rows that store an entry in it.  Row i
    of the difference is formed alone, as a dict from column j to the
    signature of sum_{k ~1 i} u[k, j] - sum_{k ~2 j} u[i, k]; each distinct
    signature is summed once, through `_residual`.  Only the rows the color
    reaches are formed: those with a neighbour under A1, and those with an
    entry in a column that has a neighbour under A2; every other row is 0.
    """
    touched = set(adj1)
    for k in adj2:
        touched.update(col_rows.get(k, ()))
    sigs: set[int] = set()
    for i in touched:
        acc: dict[int, int] = {}
        for k in adj1.get(i, ()):
            for j, w in rows.get(k, ()):
                acc[j] = acc.get(j, 0) + w
        for k, w in rows.get(i, ()):
            for j in adj2.get(k, ()):
                acc[j] = acc.get(j, 0) - w
        sigs.update(acc.values())
    return max((_residual(memo, elems, bits, sig) for sig in sigs), default=0.0)


def _shape_fault(cert: MagicUnitaryCert, distinct: tuple) -> tuple[str, str] | None:
    """(what, why) when the identity is not a nonzero projection, e = e* =
    e^2 != 0 (the unit is one, with no product), else when an element of
    `distinct` (`cert.distinct_elements()`) is over another algebra than
    the identity, naming the first; or None."""
    one = cert.identity
    if one != one.unit() and (not one.residual_norm() or one != one.adjoint()
                              or one * one != one):
        return "identity", "is not a nonzero projection"
    key = next((key for key, elem in distinct if not one.same_algebra(elem)), None)
    return None if key is None else (f"entry {key}", "is over another algebra")


def verify_cert(cert: MagicUnitaryCert) -> VerificationReport:
    """Check the one relation set of a magic unitary u over (G, G'), with
    A_G·u = u·A_G' for every edge color; G' = G is the quantum automorphism
    case.  Graphs of different sizes need no separate check: their row or
    column sums cannot all be the nonzero identity.

    Families: entry projections; row and column sums = identity; color
    vanishing; intertwining with every edge-color adjacency matrix; and,
    when both graphs are block-labelled (`graphs.block_labels`), the
    structural block form, `block_equal` and `block_commute` (entries depend
    only on alpha * beta and same-block entries commute).
    Failures are report entries, never exceptions.  An identity that is not
    a nonzero projection (a zero one passes every other family), or an
    element over another algebra than `cert.identity` (another dense
    dimension, another group's table), fails a `shape` family,
    residual 1.0, naming it; only projection, shape and color are then
    reported, as the others add or multiply entries together.

    Every family is checked entry by entry with the element operations of
    the certificate's backend, and its residual is the largest residual
    norm of any one offending element.  For the dense backend that is the
    Frobenius norm of one d x d entry (for intertwining, of one (i, j)
    entry of A_G u - u A_G'), not of the whole difference.  Each distinct
    row, column or intertwining sum is evaluated once, a sum and its
    negation once between them, and one whose two sides hold the same
    objects not at all (see `_residual`); the family reports the first row
    or column attaining its residual, looked up under the same sign-folded
    signature.  The projection, `block_equal` and commutator residuals
    come from `distance`, so a difference of two equal elements is 0.0
    with no subtraction.  One pass over the entries checks color vanishing
    and indexes them by row and the rows by column; intertwining is formed
    one row at a time from the first, only at the rows an edge color
    reaches, found from the second (see `_intertwine`).  Each graph's
    neighbours per edge color are one `_neighbours` map (one in all when
    G' is G), and intertwining runs over both maps' colors.  A block whose
    representatives' supports commute (the elements' `supports_commute`:
    every group-algebra block of a built certificate, and a dense block
    only over 1 x 1 matrices) adds 0.0 to `block_commute` and takes no
    product; any other block pairs its representatives.
    """
    families: list[tuple[str, float, str]] = []
    G1, G2, one = cert.row_graph, cert.col_graph, cert.identity

    # entry projections, e = e* = e^2, and the shape (see `_shape_fault`)
    distinct = cert.distinct_elements()
    fault = _shape_fault(cert, distinct)
    worst, desc = 0.0, ""
    for key, elem in distinct:
        r = max(elem.distance(elem.adjoint()), (elem * elem).distance(elem))
        if r > worst:
            worst, desc = r, f"entry {key}"
    families.append(("projection", worst, desc))

    # entries by row as (column, object number), rows by column, and color
    # vanishing: an entry between vertices of different colors must be zero
    elems = [elem for _, elem in distinct] + [one]
    index = {id(elem): e for e, elem in enumerate(elems)}
    rows: dict[int, list] = {}
    col_rows: dict[int, list[int]] = {}
    colors1, colors2 = G1.vertex_colors, G2.vertex_colors
    worst, desc = 0.0, ""
    for (i, j), elem in cert.entries.items():
        rows.setdefault(i, []).append((j, index[id(elem)]))
        col_rows.setdefault(j, []).append(i)
        if colors1[i] != colors2[j]:
            r = elem.residual_norm()
            if r > worst:
                worst, desc = r, f"entry ({i},{j}) colors {colors1[i]}/{colors2[j]}"
    color = ("color", worst, desc)
    if fault is not None:
        families += [("shape", 1.0, fault[0]), color]
        return VerificationReport(tuple(families), one.backend)

    # no object occurs more often on one side of a sum than the longest row
    # or column, or the largest degree in one edge color (see `_residual`)
    nbrs1 = _neighbours(G1)
    nbrs2 = nbrs1 if G2 is G1 else _neighbours(G2)
    degrees = (len(nbrs) for graph in (nbrs1, nbrs2) for adj in graph.values()
               for nbrs in adj.values())
    bound = max(max(map(len, rows.values()), default=1),
                max(map(len, col_rows.values()), default=1), max(degrees, default=1))
    bits = bound.bit_length() + 1
    weights = [1 << (e * bits) for e in range(len(elems))]
    for row in rows.values():
        row[:] = [(j, weights[e]) for j, e in row]

    # row and column sums
    memo: dict = {0: 0.0}
    minus = weights[index[id(one)]]
    for axis, name, count in ((0, "row", G1.num_vertices), (1, "col", G2.num_vertices)):
        sums: dict[int, int] = {}
        for i, row in rows.items():
            for j, w in row:
                idx = j if axis else i
                sums[idx] = sums.get(idx, 0) + w
        sigs = {sums.get(idx, 0) - minus for idx in range(count)}
        worst = max((_residual(memo, elems, bits, sig) for sig in sigs), default=0.0)
        desc = ""
        if worst:  # the first row or column attaining it
            idx = next(idx for idx in range(count)
                       if memo[abs(sums.get(idx, 0) - minus)] == worst)
            desc = f"{name} {idx}"
        families.append((f"{name}_sum", worst, desc))
    del sums  # one int per column: free them before the intertwining

    families.append(color)

    # intertwining per edge color of either graph
    for cname in sorted(nbrs1.keys() | nbrs2.keys()):
        r = _intertwine(rows, col_rows, nbrs1.get(cname, {}), nbrs2.get(cname, {}),
                        memo, elems, bits)
        families.append((f"intertwine:{cname or 'plain'}", r, cname or "plain"))

    # structural invariants of the block decomposition
    labels1, labels2 = block_labels(G1), block_labels(G2)
    if labels1 is not None and labels2 is not None:
        groups: dict[tuple[int, str], list] = {}
        for (i, j), elem in cert.entries.items():
            (k, alpha), (l, beta) = labels1[i], labels2[j]
            if k != l:
                continue  # cross-block entries are caught by the color family
            groups.setdefault((k, sign_product(alpha, beta)), []).append(elem)
        worst, desc = 0.0, ""
        for (k, dname), group in groups.items():
            first = group[0]
            for other in group[1:]:
                if other is first:
                    continue
                r = other.distance(first)
                if r > worst:
                    worst, desc = r, f"block {k} delta {dname}"
        families.append(("block_equal", worst, desc))

        worst, desc = 0.0, ""
        per_block: dict[int, list] = {}
        for (k, _), group in groups.items():
            per_block.setdefault(k, []).append(group[0])
        for k, firsts in per_block.items():
            if firsts[0].supports_commute(firsts):
                continue  # every commutator of the block is zero
            for a in range(len(firsts)):
                for b in range(a + 1, len(firsts)):
                    r = _commutator_norm(firsts[a], firsts[b])
                    if r > worst:
                        worst, desc = r, f"block {k}"
        families.append(("block_commute", worst, desc))

    return VerificationReport(tuple(families), one.backend)


# ---------------------------------------------------------------------------
# Quantum symmetry witness


def noncommuting_witness(cert: MagicUnitaryCert):
    """Some pair of nonzero entries whose commutator is nonzero, or None.

    Enumerates all pairs of distinct stored elements (each nonzero entry
    value appears once), so "None" means every pair of certificate
    entries commutes -- no quantum symmetry is witnessed.  The first pair
    in key order with a nonzero commutator is returned, with its norm.

    A shape fault (see `_shape_fault`) raises CertificateError naming the
    identity or the first entry over another algebra, as `verify_cert`'s
    `shape` family does.  Over a commutative algebra (see the identity's
    `commutative`) the answer is None without a search.
    """
    distinct = cert.distinct_elements()
    fault = _shape_fault(cert, distinct)
    if fault is not None:
        raise CertificateError(f"shape: {fault[0]} {fault[1]}")
    if cert.identity.commutative:
        return None
    for a, (key_a, elem_a) in enumerate(distinct):
        for key_b, elem_b in distinct[a + 1:]:
            r = _commutator_norm(elem_a, elem_b)
            if r:
                return (key_a, key_b, r)
    return None


# ---------------------------------------------------------------------------
# Lifting through the decoloring pipeline


def lift_cert(cert: MagicUnitaryCert, report: VerificationReport) -> MagicUnitaryCert:
    """Transport a verified certificate over (G, G') to their decolorings,
    returning the lifted certificate.

    `report` is `verify_cert`'s report on `cert`.  This raises
    `CertificateError` exactly when the report fails, without re-verifying
    the source.  Both graphs are decolored under one path assignment: the
    canonical one of the row graph with c0 = shared:-1, an edge color of G*,
    so a row graph without that color, such as G(M, b), is a `ValueError`.
    Both decolorings are built here, with `decolor_full` (one, when the two
    graphs are one object), so they cannot disagree with each other or with
    the certificate.  Each vertex and each edge whose color is not c0 is
    found in them by `decolor.chains`, the decoloring's own layout.

    A vertex of G and its path inherit the source entry at equal path
    positions; subdivision vertices of same-colored edges e = (a, b) and
    f = (c, d) receive u_{ac} u_{bd} + u_{ad} u_{bc} (a projection because
    the same-block factors commute, which is checked here).  Gadgets
    with the same four input objects are one element, built and checked
    once, and each product of two stored objects is formed once per call,
    keyed by the objects' identities, whichever gadget and factor first
    needs it; the commutation check still runs at every new gadget, so it
    names the first edge pair whose entries do not commute.
    """
    if not report.passed:
        raise CertificateError(
            f"source certificate fails verification: {report.worst[0]} "
            f"(residual {report.worst[1]:.3g})")
    G1, G2 = cert.row_graph, cert.col_graph
    pa = canonical_assignment(G1, GSTAR_COLOR)
    Gpp1 = decolor_full(G1, pa)
    Gpp2 = Gpp1 if G2 is G1 else decolor_full(G2, pa)

    vertices1, edges1 = chains(G1, pa)
    vertices2, edges2 = (vertices1, edges1) if G2 is G1 else chains(G2, pa)

    out: dict = {}

    # vertex gadgets: w_{v_k, x_k} = u_{v, x}; paths of different lengths
    # belong to different colors, where the passing source's entries are zero
    for (v, x), elem in cert.entries.items():
        for key in zip(vertices1[v], vertices2[x]):
            out[key] = elem

    # edge gadgets: w_{e_k, f_k} = u_{ac} u_{bd} + u_{ad} u_{bc}
    zero = cert.zero()
    gadgets: dict[tuple[int, int, int, int], object] = {}
    # keyed by the operands' ids: each is a stored entry or `zero`, alive
    # for the whole call
    products: dict[tuple[int, int], object] = {}

    def product(x, y):
        key = (id(x), id(y))
        xy = products.get(key)
        if xy is None:
            xy = products[key] = x * y
        return xy

    for color, elist in sorted(edges1.items()):
        for (a, b), chain1 in elist.items():
            for (c, d), chain2 in edges2.get(color, {}).items():
                u_ac = cert.entry(a, c) or zero
                u_bd = cert.entry(b, d) or zero
                u_ad = cert.entry(a, d) or zero
                u_bc = cert.entry(b, c) or zero
                sig = (id(u_ac), id(u_bd), id(u_ad), id(u_bc))
                elem = gadgets.get(sig)
                if elem is None:
                    prod = product(u_ac, u_bd)
                    if prod != product(u_bd, u_ac):
                        raise CertificateError(
                            f"entries for edges {(a, b)}/{(c, d)} do not commute")
                    elem = gadgets[sig] = prod + product(u_ad, u_bc)
                for key in zip(chain1, chain2):
                    out[key] = elem

    return MagicUnitaryCert(Gpp1, Gpp2, out, cert.identity,
                            provenance=f"lifted:{cert.provenance}")
