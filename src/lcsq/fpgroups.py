"""Finitely presented solution groups and Todd-Coxeter coset enumeration.

A solution group has one involutive generator per variable of a linear
system, commutation between variables sharing a constraint, and one
product relator per constraint (with an extra central involution gamma
in the non-homogeneous case).  Because every generator is an involution,
words and relators are plain sequences of generator indices with no
inverse markers, and the coset table has one column per generator.

The enumerator is HLT scan-and-fill (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, ch. 5).  Each relator is scanned forward and
backward from a coset as far as the table is defined; a one-letter gap
is filled as a deduction, meeting ends are identified by COINC-style
coincidence processing, and otherwise one coset is defined and the scan
resumes.  The table stays clean and symmetric: c·g = d exactly when
d·g = c, and no live row points at a dead coset.  Identifications only
ever quotient the table, so a completed table is exact: its row count is
the subgroup index and the generator columns give the regular
permutation action.  Cosets are numbered in definition order and the
smaller index survives every coincidence, so the result is numbered in
that index order.

The workspace is column-major, with a never-assigned sink slot closing
every column; relators whose trace closes are skipped and runs of
involution relators are fill steps.  Only scans that would change nothing
are left out, so the numbering is that of the plain scans (see
`todd_coxeter`).

The quantum automorphism group of the colored graph G* is the dual of the
homogeneous solution group Gamma_0 (the paper's main theorem), so finite
quantum symmetry means a finite, non-abelian Gamma_0: an order and an
abelian verdict.  These need no table over the trivial subgroup.  Since
every generator is an involution, the abelianization is F2^ngens / R, with
R the span of the relator parities.  A relator r of distinct, pairwise
commuting letters whose coordinate subspace meets R only in {0, parity(r)}
generates a subgroup S of order exactly 2^(len r - 1): r bounds it from
above, and its image in the abelianization from below.  For an incidence
system this is the star of a vertex that is not a cut vertex.
`star_subgroup` picks the longest such r, the group order is the index of
S times |S|, the group is abelian exactly when its order equals that of
the abelianization, and a word is 1 exactly when it fixes the coset of S
and its letter parities lie in R (`word_is_identity`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

from .f2core import LinearSystem

DEFAULT_COSET_CAP = 10 ** 6

# dead-row slack allowed before the enumeration workspace is compacted
COMPACT_SLACK = 1024

# an undefined coset-table entry
UNDEF = -1

# initial rows of the enumeration workspace, the sink slot included (>= 2)
_INITIAL_ROWS = 1024

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """Generators and relators; all generators are involutions.

    Relators are words (tuples of generator indices).  The involution
    relator (g, g) must be present for every generator: the enumerator
    has no inverse letters and scans a word backward through the same
    columns, which is sound exactly because every generator is
    self-inverse.
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
        try:
            return self.generators.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}") from None

    def word_from_names(self, names: list[str] | str) -> Word:
        if isinstance(names, str):
            names = names.split()
        try:
            return tuple(self.gen_index(n) for n in names)
        except ValueError as exc:
            raise ValueError(f"{exc} in word {' '.join(names)!r}") from None


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

    for i, j in sys.sharing_pairs():
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
    all generators and all relators of its presentation.  A capped table
    keeps no rows, only the number of live cosets when the cap was hit.
    """

    presentation: Presentation
    table: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "capped"
    live_at_cap: int = 0

    @property
    def num_cosets(self) -> int:
        return len(self.table) if self.is_complete else self.live_at_cap

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def follow(self, coset: int, word: Word) -> int:
        for g in word:
            coset = self.table[coset][g]
        return coset


def _rep(parent: list[int], c: int) -> int:
    """Live representative of coset c, compressing the path."""
    root = c
    while parent[root] != root:
        root = parent[root]
    while parent[c] != root:
        parent[c], c = root, parent[c]
    return root


def _coincidence(cols: list[list[int]], parent: list[int], a: int, b: int) -> int:
    """Identify the distinct live cosets a and b, and every coincidence
    that follows.

    Holt's COINC for involutive generators: the smaller index of each
    merged pair survives, a killed coset's row is moved entry by entry
    onto its representative, and each moved entry first unhooks its
    mirror (d·x = dead), so on return no live row points at a dead
    coset.  Returns the number of cosets killed.
    """
    if b < a:
        a, b = b, a
    parent[b] = a
    queue = [b]
    for dead in queue:  # grows while it is walked
        for col in cols:
            d = col[dead]
            if d < 0:
                continue
            col[d] = UNDEF
            mu = parent[dead]
            if parent[mu] != mu:
                mu = _rep(parent, dead)
            nu = d if parent[d] == d else _rep(parent, d)
            e = col[mu]
            if e >= 0:
                p, q = nu, e if parent[e] == e else _rep(parent, e)
            else:
                e = col[nu]
                if e < 0:
                    col[mu] = nu
                    col[nu] = mu
                    continue
                p, q = mu, e if parent[e] == e else _rep(parent, e)
            if p != q:
                if q < p:
                    p, q = q, p
                parent[q] = p
                queue.append(q)
    return len(queue)


def _grow(cols: list[list[int]]) -> int:
    """Append about 1/8 of their length in UNDEF slots to every column;
    returns the new sink index (the last slot, never assigned)."""
    extra = [UNDEF] * (len(cols[0]) // 8 + 1)
    for col in cols:
        col.extend(extra)
    return len(cols[0]) - 1


def _live_columns(cols: list[list[int]], parent: list[int]
                  ) -> tuple[list[list[int]], list[int]]:
    """The live cosets' columns in index order, renumbered to their new
    positions, and the old indices of the live cosets."""
    kept = [c for c, p in enumerate(parent) if p == c]
    lookup = [UNDEF] * (len(parent) + 1)  # the trailing slot: lookup[UNDEF] == UNDEF
    for new, c in enumerate(kept):
        lookup[c] = new
    renumber = lookup.__getitem__
    return [list(map(renumber, map(col.__getitem__, kept))) for col in cols], kept


# a scan step: a fill run's columns, then one word's columns and length
_Step = tuple[tuple[list[int], ...], tuple[list[int], ...], int]


def _steps(cols: list[list[int]], words: Iterable[Word]) -> tuple[_Step, ...]:
    """Resolve words to scan steps (fill, word, len(word)): `fill` holds
    the columns of the run of involution words (g, g) just before `word`,
    and `word` is a word's tuple of columns (empty after a trailing run)."""
    steps = []
    run: list[list[int]] = []
    for w in words:
        if len(w) == 2 and w[0] == w[1]:
            run.append(cols[w[0]])
        else:
            steps.append((tuple(run), tuple(cols[g] for g in w), len(w)))
            run = []
    if run:
        steps.append((tuple(run), (), 0))
    return tuple(steps)


def _scan(cols: list[list[int]], parent: list[int], c: int,
          steps: tuple[_Step, ...]) -> int:
    """Scan every step at c, or at c's representative once c dies;
    returns the change in the live count."""
    sink = len(cols[0]) - 1
    change = 0
    for fill, word, n in steps:
        if fill:
            # scanning (g, g) on a symmetric table only defines an undefined c·g
            for col in fill:
                if col[c] < 0:
                    d = len(parent)
                    if d == sink:
                        sink = _grow(cols)
                    parent.append(d)
                    change += 1
                    col[c] = d
                    col[d] = c
        # an undefined entry leads to the sink, which leads to itself
        f = c
        for col in word:
            f = col[f]
        if f == c:
            continue  # the word closes at c: its scan would change nothing
        if f >= 0:  # defined throughout: the scan would meet at f and c
            change -= _coincidence(cols, parent, f, c)
        else:
            f = b = c
            i, j = 0, n
            while True:
                while i < j:
                    e = word[i][f]
                    if e < 0:
                        break
                    f = e
                    i += 1
                while j > i:
                    e = word[j - 1][b]
                    if e < 0:
                        break
                    b = e
                    j -= 1
                if j == i:
                    if f != b:
                        change -= _coincidence(cols, parent, f, b)
                    break
                col = word[i]
                if j == i + 1:
                    col[f] = b
                    col[b] = f
                    break
                d = len(parent)
                if d == sink:
                    sink = _grow(cols)
                parent.append(d)
                change += 1
                col[f] = d
                col[d] = f
        if parent[c] != c:
            c = _rep(parent, c)
    return change


def todd_coxeter(P: Presentation, subgroup_words: list[Word] | None = None,
                 cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_words.

    HLT scan-and-fill: the subgroup words are scanned at coset 0, then
    every relator is scanned at every live coset in index order.  A scan
    runs forward and backward as far as the table is defined; a one-letter
    gap is filled as a deduction, meeting ends are identified by
    `_coincidence`, and otherwise one coset is defined at the forward end
    and the scan resumes.  Every generator is an involution, so the table
    is kept symmetric (c·g = d exactly when d·g = c) and no live row ever
    points at a dead coset.  Cosets are numbered in definition order,
    survivors keep their relative order, and the result is renumbered in
    that index order.

    The workspace is column-major, cols[g][c] = c·g, and each word is
    resolved once (again after each compaction) to its tuple of columns,
    so a letter is one subscript.  The last slot of every column is a sink
    that is never assigned: columns grow by about 1/8 before a definition
    would reach it, so col[UNDEF] == UNDEF and a trace through an undefined
    entry stays at UNDEF.  A word whose trace from c returns to c would
    scan to no effect and is skipped.  A run of involution relators (g, g)
    is one fill step, since scanning (g, g) on a symmetric table only
    defines c·g when it is undefined.  Neither shortcut drops or reorders a
    definition, deduction or coincidence, so the numbering is unchanged.

    If more than `cap` live cosets are ever needed (DEFAULT_COSET_CAP
    unless given), returns a table with status "capped" (a status, not an
    error) that keeps only the live count at the cap.  A cap below 1 is a
    ValueError.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")

    cols = [[UNDEF] * _INITIAL_ROWS for _ in range(P.ngens)]
    parent = [0]  # parent[c] == c iff c is live; else a union-find link
    live = 1 + _scan(cols, parent, 0, _steps(cols, subgroup_words or ()))
    steps = _steps(cols, P.relators)

    to_visit = 0
    while to_visit < len(parent):
        if live > cap:
            return CosetTable(P, (), "capped", live)
        if len(parent) > 4 * live + COMPACT_SLACK:
            # Drop dead rows; renumbering keeps index order, so every coset
            # before the new to_visit has already been scanned.
            cols, kept = _live_columns(cols, parent)
            _grow(cols)  # restores the sink slot
            steps = _steps(cols, P.relators)
            to_visit = bisect_left(kept, to_visit)
            parent = list(range(len(kept)))
            if to_visit >= len(parent):
                break
        if parent[to_visit] == to_visit:
            live += _scan(cols, parent, to_visit, steps)
        to_visit += 1

    cols = _live_columns(cols, parent)[0]
    if any(UNDEF in col for col in cols):
        raise RuntimeError("enumeration closed with undefined table entries")
    return CosetTable(P, tuple(zip(*cols)), "complete")


def regular_perm_rep(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator: coset c maps to T[c][g].

    Only defined for complete tables.  Every permutation is an involution
    and every relator evaluates to the identity permutation.  Each column
    is checked to be an involution, p[p[c]] == c for every coset c, which
    also proves it a permutation, in linear time.
    """
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    perms = list(zip(*T.table))
    identity = tuple(range(T.num_cosets))
    for g, perm in enumerate(perms):
        try:
            # p∘p in one C-level call (which returns a bare item for one coset)
            square = itemgetter(*perm)(perm) if len(perm) > 1 else perm
        except IndexError:
            square = None
        if square != identity:
            raise ValueError(f"generator column {g} is not an involution")
    return perms


def _parity(word: Word) -> int:
    """The letter parities of a word, as a bit mask over the generators."""
    mask = 0
    for g in word:
        mask ^= 1 << g
    return mask


def _reduce(basis: Iterable[int], v: int) -> int:
    """v modulo the span of an echelon basis (distinct leading bits, in
    decreasing order): 0 exactly when v lies in the span."""
    for row in basis:
        v = min(v, v ^ row)
    return v


def _insert(basis: list[int], v: int) -> bool:
    """Add v to the echelon basis unless it lies in its span; whether added."""
    v = _reduce(basis, v)
    if v:
        basis.append(v)
        basis.sort(reverse=True)
    return v != 0


def _relator_space(P: Presentation) -> list[int]:
    """R, the span of the relator parities in F2^ngens, as an echelon basis."""
    basis: list[int] = []
    for rel in P.relators:
        _insert(basis, _parity(rel))
    return basis


def abelianized_order(P: Presentation) -> int:
    """The order of the abelianization, F2^ngens / R: every generator is an
    involution.  A finite group is abelian exactly when its order is this."""
    return 1 << (P.ngens - len(_relator_space(P)))


@dataclass(frozen=True)
class StarSubgroup:
    """S = <letters>, commuting involutions independent in the
    abelianization, so |S| = 2^len(letters); with R, the span of the
    relator parities, as an echelon basis (see `star_subgroup`)."""

    letters: Word
    relator_space: tuple[int, ...]
    abelianized_order: int

    @property
    def order(self) -> int:
        return 1 << len(self.letters)


def star_subgroup(P: Presentation, cap: int = DEFAULT_COSET_CAP) -> StarSubgroup:
    """The largest star subgroup that F2 linear algebra certifies, with at
    most `cap` elements.

    A candidate is a relator r of distinct, pairwise-commuting letters
    (each pair has its commutator relator), so <r> is elementary abelian
    and, by r itself, of order at most 2^(len r - 1).  Let R be the span of
    the relator parities in F2^ngens; the abelianization is F2^ngens / R,
    since every generator is an involution.  If the coordinate subspace of
    r's letters meets R only in {0, parity(r)}, their images there span
    len r - 1 dimensions, so <r> has order exactly 2^(len r - 1) and maps
    injectively into the abelianization, as does the subgroup of any
    len r - 1 of its letters.  The longest such r is picked (the first in
    relator order among equals), and S is generated by its first
    min(len r - 1, floor(log2 cap)) letters; S is trivial if nothing
    qualifies or cap < 2.
    """
    basis = _relator_space(P)
    commuting = {(w[0], w[1]) for w in P.relators
                 if len(w) == 4 and w[0] == w[2] != w[1] == w[3]}

    def qualifies(rel: Word) -> bool:
        if len(set(rel)) < len(rel) or not all(
                (a, b) in commuting or (b, a) in commuting
                for i, a in enumerate(rel) for b in rel[i + 1:]):
            return False
        images = list(basis)
        return sum(_insert(images, 1 << g) for g in rel) == len(rel) - 1

    star = next((rel for rel in sorted(P.relators, key=len, reverse=True)
                 if qualifies(rel)), ())
    size = min(len(star) - 1, cap.bit_length() - 1) if star and cap > 0 else 0
    return StarSubgroup(star[:size], tuple(basis), 1 << (P.ngens - len(basis)))


def word_is_identity(T: CosetTable, S: StarSubgroup, word: Word) -> bool:
    """Whether a word is trivial in the group of a complete table over the
    cosets of S.  Raises ValueError for a capped table.

    The word is 1 exactly when it fixes coset 0, so lies in S, and its
    letter parities lie in R: S maps injectively into the abelianization
    F2^ngens / R.
    """
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    for g in word:
        if not 0 <= g < T.presentation.ngens:
            raise ValueError(f"word references unknown generator {g}")
    return T.follow(0, word) == 0 and _reduce(S.relator_space, _parity(word)) == 0


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
