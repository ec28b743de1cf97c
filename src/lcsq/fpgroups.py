"""Finitely presented solution groups and Todd-Coxeter coset enumeration.

A solution group has one involutive generator per variable of a linear
system, commutation between variables sharing a constraint, and one
product relator per constraint (with an extra central involution gamma
in the non-homogeneous case).  Because every generator is an involution,
words and relators are plain sequences of generator indices with no
inverse markers, and the coset table has one column per generator.

The enumerator is the classic union-find formulation: walk every relator
from every live coset, identifying the endpoint with the start, and
merge coincidences through a queue.  Identifications only ever quotient
the table, so a completed table is exact: its row count is the subgroup
index and the generator columns give the regular permutation action.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass

from .f2core import LinearSystem

DEFAULT_COSET_CAP = 10 ** 6

# dead-row slack allowed before the enumeration workspace is compacted
COMPACT_SLACK = 1024

Word = tuple[int, ...]


def default_cap() -> int:
    """Coset cap, overridable via the LCSQ_COSET_CAP environment variable."""
    raw = os.environ.get("LCSQ_COSET_CAP")
    if not raw:
        return DEFAULT_COSET_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"LCSQ_COSET_CAP must be a positive integer, got {raw!r}") from None
    return cap


@dataclass(frozen=True)
class Presentation:
    """Generators and relators; all generators are involutions.

    Relators are words (tuples of generator indices).  The involution
    relator (g, g) must be present for every generator: the enumerator
    scans words forward only, which is sound exactly because every
    generator is self-inverse.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        ngens = len(self.generators)
        if ngens == 0:
            raise ValueError("presentation needs at least one generator")
        involutions = set()
        for rel in self.relators:
            if not rel:
                raise ValueError("empty relator")
            for g in rel:
                if not 0 <= g < ngens:
                    raise ValueError(f"relator references unknown generator {g}")
            if len(rel) == 2 and rel[0] == rel[1]:
                involutions.add(rel[0])
        missing = [self.generators[g] for g in range(ngens) if g not in involutions]
        if missing:
            raise ValueError(f"missing involution relators for {missing}")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        return self.generators.index(name)

    def word_from_names(self, names: list[str] | str) -> Word:
        if isinstance(names, str):
            names = names.split()
        return tuple(self.gen_index(n) for n in names)

    def to_text(self) -> str:
        gens = ", ".join(self.generators)
        rels = "; ".join(" ".join(self.generators[g] for g in rel)
                         for rel in self.relators)
        return f"gens: {gens}; rels: {rels}"

    @classmethod
    def from_text(cls, text: str) -> Presentation:
        head, _, tail = text.partition("; rels:")
        if not head.strip().startswith("gens:") or not tail:
            raise ValueError("expected 'gens: ...; rels: ...'")
        gens = tuple(n.strip() for n in head.split(":", 1)[1].split(",") if n.strip())
        index = {n: i for i, n in enumerate(gens)}
        rels = []
        for chunk in tail.split(";"):
            names = chunk.split()
            if names:
                rels.append(tuple(index[n] for n in names))
        return cls(gens, tuple(rels))

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators),
                "relators": [list(rel) for rel in self.relators]}

    @classmethod
    def from_json_dict(cls, data: dict) -> Presentation:
        return cls(tuple(data["generators"]),
                   tuple(tuple(rel) for rel in data["relators"]))


def solution_presentation(sys: LinearSystem, homogeneous: bool) -> Presentation:
    """Presentation of Gamma_0(M) (homogeneous) or Gamma(M, b).

    Relators: x_i^2 for every variable; (x_i x_j)^2 whenever i and j share a
    constraint; per constraint k the product of x_i over S_k, followed by
    gamma when b_k = 1 in the non-homogeneous case (so the relator says
    prod x_i = gamma^{b_k}, using gamma = gamma^{-1}).  Non-homogeneous
    presentations add gamma^2 and centrality relators (x_i gamma)^2.
    """
    n = sys.num_vars
    names = [f"x{i + 1}" for i in range(n)]
    gamma = None
    if not homogeneous:
        gamma = n
        names.append("gamma")

    relators: list[Word] = [(i, i) for i in range(n)]
    if gamma is not None:
        relators.append((gamma, gamma))

    sharing = set()
    for k in range(sys.num_constraints):
        support = sys.support(k)
        for a in range(len(support)):
            for b_ in range(a + 1, len(support)):
                sharing.add((support[a], support[b_]))
    for i, j in sorted(sharing):
        relators.append((i, j, i, j))
    if gamma is not None:
        for i in range(n):
            relators.append((i, gamma, i, gamma))

    for k in range(sys.num_constraints):
        word = sys.support(k)
        if gamma is not None and sys.b[k] == 1:
            word = word + (gamma,)
        relators.append(word)

    return Presentation(tuple(names), tuple(relators))


@dataclass(frozen=True)
class CosetTable:
    """Completed (or capped) coset table: rows = cosets, columns = generators.

    Row 0 is the coset of the subgroup.  A complete table is closed under
    all generators and all relators of its presentation.
    """

    presentation: Presentation
    table: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "capped"

    @property
    def num_cosets(self) -> int:
        return len(self.table)

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def follow(self, coset: int, word: Word) -> int:
        for g in word:
            coset = self.table[coset][g]
        return coset

    def to_csv(self) -> str:
        header = "coset," + ",".join(self.presentation.generators)
        lines = [header]
        for c, row in enumerate(self.table):
            lines.append(f"{c}," + ",".join(str(x) for x in row))
        return "\n".join(lines)


class _Enumerator:
    """Union-find coset enumeration workspace (flat int32 arrays)."""

    UNDEF = -1

    def __init__(self, ngens: int):
        self.ngens = ngens
        self.parent = array("i")
        self.rows = array("i")
        self.live = 0
        self.add()

    def compact(self, to_visit: int) -> int:
        """Drop dead rows, renumbering live cosets in index order.

        Renumbering preserves order, so the returned value is the new
        position of the to_visit pointer and every coset before it has
        already been scanned against all relators.
        """
        lookup: dict[int, int] = {}
        for c in range(len(self.parent)):
            if self.parent[c] == c:
                lookup[c] = len(lookup)
        new_rows = array("i")
        ngens = self.ngens
        for c in lookup:
            for g in range(ngens):
                nxt = self.rows[c * ngens + g]
                new_rows.append(self.UNDEF if nxt == self.UNDEF
                                else lookup[self.find(nxt)])
        new_to_visit = sum(1 for c in lookup if c < to_visit)
        self.parent = array("i", range(len(lookup)))
        self.rows = new_rows
        return new_to_visit

    def add(self) -> int:
        c = len(self.parent)
        self.parent.append(c)
        self.rows.extend([self.UNDEF] * self.ngens)
        self.live += 1
        return c

    def find(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def follow(self, c: int, g: int) -> int:
        """Neighbor of c under g, defining a fresh coset if absent."""
        c = self.find(c)
        slot = c * self.ngens + g
        nxt = self.rows[slot]
        if nxt == self.UNDEF:
            nxt = self.add()
            self.rows[slot] = nxt
            self.rows[nxt * self.ngens + g] = c  # generators are involutions
            return nxt
        return self.find(nxt)

    def follow_word(self, c: int, word: Word) -> int:
        for g in word:
            c = self.follow(c, g)
        return c

    def unify(self, c1: int, c2: int) -> None:
        rows, ngens, UNDEF = self.rows, self.ngens, self.UNDEF
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a = self.find(a)
            b = self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.live -= 1
            for g in range(ngens):
                na = rows[a * ngens + g]
                nb = rows[b * ngens + g]
                if na == UNDEF:
                    rows[a * ngens + g] = nb
                elif nb != UNDEF:
                    queue.append((na, nb))


def todd_coxeter(P: Presentation, subgroup_words: list[Word] | None = None,
                 cap: int | None = None) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_words.

    Walks every relator from every live coset, merging collisions as they
    appear.  If more than `cap` live cosets are ever needed, returns a
    partial table with status "capped" (a status, not an error).
    """
    if cap is None:
        cap = default_cap()
    if cap < 1:
        raise ValueError("cap must be at least 1")

    enum = _Enumerator(P.ngens)
    for word in subgroup_words or []:
        enum.unify(enum.follow_word(0, word), 0)

    capped = False
    to_visit = 0
    while to_visit < len(enum.parent):
        if enum.live > cap:
            capped = True
            break
        if len(enum.parent) > 4 * enum.live + COMPACT_SLACK:
            to_visit = enum.compact(to_visit)
        c = enum.find(to_visit)
        if c == to_visit:
            for rel in P.relators:
                enum.unify(enum.follow_word(c, rel), c)
        to_visit += 1

    # Renumber live cosets in discovery order.
    lookup: dict[int, int] = {}
    for c in range(len(enum.parent)):
        if enum.find(c) == c:
            lookup[c] = len(lookup)
    ngens = enum.ngens
    rows = []
    for c, idx in lookup.items():
        row = []
        for g in range(ngens):
            nxt = enum.rows[c * ngens + g]
            row.append(-1 if nxt == _Enumerator.UNDEF else lookup[enum.find(nxt)])
        rows.append(tuple(row))
    if not capped and any(x < 0 for row in rows for x in row):
        raise RuntimeError("enumeration closed with undefined table entries")
    return CosetTable(P, tuple(rows), "capped" if capped else "complete")


def group_order(P: Presentation, cap: int | None = None) -> int | None:
    """Group order via enumeration over the trivial subgroup; None if capped."""
    table = todd_coxeter(P, [], cap)
    return table.num_cosets if table.is_complete else None


def regular_perm_rep(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator: coset c maps to T[c][g].

    Only defined for complete tables.  Every permutation is an involution
    and every relator evaluates to the identity permutation.
    """
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    perms = []
    n = T.num_cosets
    for g in range(T.presentation.ngens):
        perm = tuple(T.table[c][g] for c in range(n))
        if sorted(perm) != list(range(n)):
            raise ValueError(f"generator column {g} is not a permutation")
        perms.append(perm)
    return perms


def is_abelian(T: CosetTable) -> bool:
    """Whether the group of a complete table over the trivial subgroup is
    abelian.  Raises ValueError for a capped table."""
    perms = regular_perm_rep(T)
    n = T.num_cosets
    for a in range(len(perms)):
        pa = perms[a]
        for b in range(a + 1, len(perms)):
            pb = perms[b]
            if any(pa[pb[c]] != pb[pa[c]] for c in range(n)):
                return False
    return True


def word_is_identity(T: CosetTable, word: Word) -> bool:
    """Whether a word is trivial in the group of a complete table over the
    trivial subgroup.  Raises ValueError for a capped table."""
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    for g in word:
        if not 0 <= g < T.presentation.ngens:
            raise ValueError(f"word references unknown generator {g}")
    return T.follow(0, word) == 0


def coset_rep_words(T: CosetTable) -> list[Word]:
    """Shortest representative word for each coset, by breadth-first search."""
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    n = T.num_cosets
    words: list[Word | None] = [None] * n
    words[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for g in range(T.presentation.ngens):
                d = T.table[c][g]
                if words[d] is None:
                    words[d] = words[c] + (g,)
                    nxt.append(d)
        frontier = nxt
    if any(w is None for w in words):
        raise RuntimeError("table row unreachable from coset 0")
    return words  # type: ignore[return-value]
