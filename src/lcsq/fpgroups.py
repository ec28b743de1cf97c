"""Finitely presented solution groups and Todd-Coxeter coset enumeration.

A solution group has one involutive generator per variable of a linear
system, commutation between variables sharing a constraint, and one
product relator per constraint (with an extra central involution gamma
in the non-homogeneous case).  Because every generator is an involution,
words and relators are plain sequences of generator indices with no
inverse markers, and a coset table is one column per generator.

The enumerator is HLT scan-and-fill (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, ch. 5).  Each relator is scanned forward and
backward from a coset as far as the table is defined; a one-letter gap
is filled as a deduction, meeting ends are identified by COINC-style
coincidence processing, and otherwise one coset is defined and the scan
resumes.  The table stays clean and symmetric: c·g = d exactly when
d·g = c, and no live row points at a dead coset.  Identifications only
ever quotient the table, so a completed table is exact: its length is
the subgroup index and its columns give the regular permutation action.
Cosets are numbered in definition order and the smaller index survives
every coincidence, so the result is numbered in that index order.

The workspace has the table's layout, with a never-assigned sink slot
closing every column; relators whose trace closes are skipped and runs of
involution relators are fill steps.  Only scans that would change nothing
are left out, so `todd_coxeter`'s numbering is that of the plain scans.
`star_cosets` enumerates over a reduced relator list instead: it leaves
out the commutators that a constraint relator implies, scans the
constraint relators first, and checks the omitted commutators on the
complete table.

The quantum automorphism group of the colored graph G* is the dual of the
homogeneous solution group Gamma_0 (the paper's main theorem), so finite
quantum symmetry means a finite, non-abelian Gamma_0: an order and an
abelian verdict, and for a regular certificate Gamma_0's multiplication
table.  All three come from one enumeration, over the cosets of a star
subgroup S; nothing enumerates over the trivial subgroup.  Since every
generator is an involution, the abelianization is F2^ngens / R, with R
the span of the relator parities.  A relator r of distinct, pairwise
commuting letters whose coordinate subspace meets R only in {0, parity(r)}
generates a subgroup S of order exactly 2^(len r - 1): r bounds it from
above, and its image in the abelianization from below.  For an incidence
system this is the star of a vertex that is not a cut vertex.
`star_cosets` enumerates the cosets of the longest such r: the group
order is the index of S times |S|, the group is abelian exactly when its
order equals that of the abelianization, and a word is 1 exactly when it
fixes the coset of S and its letter parities lie in R (`word_is_identity`).
`regular_table` lifts that table to the group on star coordinates, pairs
(s, t) of an element of S and a coset, on which a word acts through the k
pairs (0, t); certificates number the elements breadth-first from the
identity, a numbering computed only when one is written.  The table is
also the context of the group algebra (`reps.GroupAlgebraElement`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter, lshift, or_, xor

from .f2core import LinearSystem, echelon_basis, reduce_f2

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

    def word_from_names(self, text: str) -> Word:
        """The word of a string of generator names separated by spaces."""
        names = text.split()
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
    presentations add gamma^2 and centrality relators (x_i gamma)^2.  An
    empty product relator is a ValueError naming its constraint.
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
        if not word:
            raise ValueError(f"constraint {k} touches no variable")
        relators.append(word)

    return Presentation(tuple(names), tuple(relators))


@dataclass(frozen=True)
class CosetTable:
    """Completed (or capped) coset table: columns[g][c] = c·g.

    Coset 0 is the coset of the subgroup.  A complete table is closed under
    all generators and all relators of its presentation.  A capped table
    keeps no columns, only the number of live cosets when the cap was hit.
    """

    presentation: Presentation
    columns: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "capped"
    live_at_cap: int = 0

    @property
    def num_cosets(self) -> int:
        return len(self.columns[0]) if self.is_complete else self.live_at_cap

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def follow(self, coset: int, word: Word) -> int:
        for g in word:
            coset = self.columns[g][coset]
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

    The workspace has the table's layout, cols[g][c] = c·g, and each word is
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
    return CosetTable(P, tuple(map(tuple, cols)), "complete")


def _parity(word: Word) -> int:
    """The letter parities of a word, as a bit mask over the generators."""
    mask = 0
    for g in word:
        mask ^= 1 << g
    return mask


def _is_commutator(w: Word) -> bool:
    return len(w) == 4 and w[0] == w[2] != w[1] == w[3]


def _commuting_pairs(P: Presentation) -> set[frozenset[int]]:
    """The letter pairs {a, b} with a commutator relator (a b a b)."""
    return {frozenset(w[:2]) for w in P.relators if _is_commutator(w)}


def _commuting_letters(rel: Word, commuting: set[frozenset[int]]) -> bool:
    """Whether rel's letters are distinct and commute pairwise by relator."""
    return len(set(rel)) == len(rel) and all(
        frozenset((a, b)) in commuting for i, a in enumerate(rel) for b in rel[i + 1:])


def _scan_relators(P: Presentation) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """(scanned, omitted): P's relators less the commutators that
    `star_cosets` leaves out, the constraint relators (neither involution
    nor commutator) first, then the involutions, then the kept commutators,
    each class in P's order; and those left out."""
    commuting = _commuting_pairs(P)
    implied = {frozenset((x, max(rel))) for rel in P.relators
               if _commuting_letters(rel, commuting) for x in rel if x != max(rel)}
    scanned: list[Word] = []
    omitted: list[Word] = []
    for w in P.relators:
        (omitted if _is_commutator(w) and frozenset(w[:2]) in implied else scanned).append(w)
    scanned.sort(key=lambda w: (_is_commutator(w), len(w) == 2 and w[0] == w[1]))
    return tuple(scanned), tuple(omitted)


@dataclass(frozen=True)
class StarSubgroup:
    """S = <letters>, commuting involutions independent in the
    abelianization, so |S| = 2^len(letters); with R, the span of the
    relator parities, as its `f2core.echelon_basis` (see `star_subgroup`)."""

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
    basis = echelon_basis(map(_parity, P.relators), P.ngens)
    commuting = _commuting_pairs(P)

    def qualifies(rel: Word) -> bool:
        if not _commuting_letters(rel, commuting):
            return False
        letters = echelon_basis((*basis, *(1 << g for g in rel)), P.ngens)
        return len(letters) - len(basis) == len(rel) - 1

    star = next((rel for rel in sorted(P.relators, key=len, reverse=True)
                 if qualifies(rel)), ())
    size = min(len(star) - 1, cap.bit_length() - 1) if star and cap > 0 else 0
    return StarSubgroup(star[:size], basis, 1 << (P.ngens - len(basis)))


def star_cosets(P: Presentation,
                cap: int = DEFAULT_COSET_CAP) -> tuple[StarSubgroup, CosetTable]:
    """S = star_subgroup(P, cap) and the table of its cosets, enumerated
    over P's relators less those that the others imply (`_scan_relators`).

    A commutator (x z x z) is left out when z is the largest letter of a
    relator r of distinct, pairwise commuting letters and x is another
    letter of r.  By induction on z it is implied: r makes z the product of
    r's other letters, all smaller than z, and x commutes with each of them
    by a kept commutator or by one implied below z.  The constraint
    relators are scanned first, then the involutions, then the kept
    commutators: on canonical K3,4 and K3,5 this defines 62 and 1391 cosets
    to reach indices 32 and 512, where scanning the involutions first
    defined 94 and 2059.  A complete table is returned
    only once every omitted relator fixes every coset, else RuntimeError:
    the table then carries an action of P's group, so its index is exact
    whatever the proof.  The cap counts group elements, live cosets of the
    reduced enumeration times |S|."""
    S = star_subgroup(P, cap)
    scanned, omitted = _scan_relators(P)
    T = todd_coxeter(Presentation(P.generators, scanned), [(g,) for g in S.letters],
                     cap // S.order)
    if T.is_complete:
        start = list(range(T.num_cosets))
        for rel in omitted:
            cosets = start
            for g in rel:
                cosets = list(map(T.columns[g].__getitem__, cosets))
            if cosets != start:
                raise RuntimeError(f"relator {rel} moves a coset of the star subgroup")
    return S, CosetTable(P, T.columns, T.status, T.live_at_cap)


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
    return T.follow(0, word) == 0 and reduce_f2(S.relator_space, _parity(word)) == 0


def spanning_tree(columns) -> tuple[list[int], list[int], list[int]]:
    """(order, parent, gen) of the breadth-first tree from coset 0 of a complete
    table's columns, c = parent[c]·gen[c]: `order` visits the cosets as a
    standardized table numbers them (Holt, Eick & O'Brien, ch. 5), so tree
    paths are shortest words.  An unreachable coset is a RuntimeError."""
    parent = [UNDEF] * len(columns[0])
    gen = parent[:]
    parent[0] = 0
    order = [0]
    letters = list(enumerate(columns))  # made once, not once per coset
    for c in order:  # grows while it is walked
        for g, col in letters:
            d = col[c]
            if parent[d] < 0:
                parent[d], gen[d] = c, g
                order.append(d)
    if len(order) != len(parent):
        raise RuntimeError("table row unreachable from coset 0")
    return order, parent, gen


def _sigma(T: CosetTable, S: StarSubgroup, tree: tuple) -> list[list[int]]:
    """sigma[g][t]: the element w_t·g·w_{t·g}^-1 of S, as a bit mask over
    S's letters, for each coset t of S and generator g, with w_t the path
    to t in `tree`, T's `spanning_tree`.  It is read off from its image in
    the abelianization, into which S injects; an image outside S's is a
    RuntimeError."""
    # reduction mod R is linear, so each letter's image is reduced once
    bits = [reduce_f2(S.relator_space, 1 << g) for g in range(T.presentation.ngens)]
    images = [0]  # images[s]: the reduced image of the element s of S
    for g in S.letters:
        images += [v ^ bits[g] for v in images]
    element_of = {v: s for s, v in enumerate(images)}
    order, parent, gen = tree
    parity = [0] * T.num_cosets  # parity[t]: the reduced image of w_t
    for t in order[1:]:
        parity[t] = parity[parent[t]] ^ bits[gen[t]]
    sigma = []
    for g, col in enumerate(T.columns):
        sigma.append([element_of.get(p ^ bits[g] ^ parity[d], UNDEF)
                      for p, d in zip(parity, col)])
        if UNDEF in sigma[-1]:
            raise RuntimeError(f"a coset transversal times {T.presentation.generators[g]} "
                               "leaves the star subgroup")
    return sigma


class _RightAction(dict):
    """(0, t)·h for the cosets t read so far: entry t is computed on its
    first read by walking h's word from (0, t), then kept.  It holds the
    columns, sigma and the word, not the table, so the table's cache of
    these mappings makes no reference cycle."""

    __slots__ = ("columns", "sigma", "shift", "word")

    def __init__(self, columns, sigma, shift: int, word: Word):
        super().__init__()
        self.columns, self.sigma, self.shift, self.word = columns, sigma, shift, word

    def __missing__(self, t: int) -> int:
        s, d = 0, t
        for g in self.word:
            s ^= self.sigma[g][d]
            d = self.columns[g][d]
        self[t] = e = d << self.shift | s
        return e


@dataclass(frozen=True, eq=False)
class RegularTable:
    """A finite group on star coordinates (see `regular_table`): element
    e = t << m | s, with m = len(letters), is s·w_t, s in S = <letters> as
    a bit mask over its letters and w_t the path to coset t of S in the
    breadth-first tree (`parent`, `gen`) of their table `cosets`.  A
    generator acts by (s, t)·g = (s xor sigma[g][t], t·g).  `abelian` tells
    whether the group is commutative.

    The table is its group algebra's context, held by every
    `reps.GroupAlgebraElement`: e·h = right(h)[e >> m] xor (e & (|S| - 1)),
    right(h)[t] read off h's word for each coset t on first read, and h's
    inverse is that word read backward, both cached per h.  Equality is
    identity."""

    cosets: CosetTable
    letters: Word
    sigma: tuple[list[int], ...]
    parent: list[int]
    gen: list[int]
    abelian: bool
    _right: dict[int, _RightAction] = field(default_factory=dict, init=False, repr=False)
    _inverse: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    @property
    def num_cosets(self) -> int:
        """One coset of the trivial subgroup per element, k·|S| of them."""
        return self.cosets.num_cosets << len(self.letters)

    def word(self, e: int) -> Word:
        """A word for element e = (s, t): the letters of s, then w_t."""
        path, t = [], e >> len(self.letters)
        while t:
            path.append(self.gen[t])
            t = self.parent[t]
        return (*(g for i, g in enumerate(self.letters) if e >> i & 1), *reversed(path))

    def element(self, word: Word) -> int:
        s = t = 0
        for g in word:
            s ^= self.sigma[g][t]
            t = self.cosets.columns[g][t]
        return t << len(self.letters) | s

    def _walk(self, word: Word) -> tuple[tuple[int, ...], Iterable[int]]:
        """The cosets t·word and the lazy sigma sums of (0, t)·word for each
        coset t, then for coset 0 again (so that itemgetter gives a tuple
        even when k = 1), one pass over the k cosets per letter."""
        cosets, s = (*range(self.cosets.num_cosets), 0), repeat(0)
        for g in word:
            gather = itemgetter(*cosets)
            s = map(xor, s, gather(self.sigma[g]))  # xor-ed as they are read
            cosets = gather(self.cosets.columns[g])
        return cosets, s

    def act(self, word: Word) -> list[int]:
        """(0, t)·word for every coset t; (s, t)·word is act(word)[t] xor s."""
        cosets, s = self._walk(word)
        return list(map(or_, map(lshift, cosets[:-1], repeat(len(self.letters))), s))

    def right(self, h: int) -> _RightAction:
        """The mapping t -> (0, t)·h, as act(word(h)) holds it, with each
        entry computed when it is first read: a product reads only the
        cosets its left factor occupies."""
        right = self._right.get(h)
        if right is None:
            right = self._right[h] = _RightAction(self.cosets.columns, self.sigma,
                                                  len(self.letters), self.word(h))
        return right

    def inverse(self, h: int) -> int:
        if h not in self._inverse:
            self._inverse[h] = self.element(self.word(h)[::-1])
        return self._inverse[h]

    def commuting(self, support) -> bool:
        """Whether every two of the elements in `support` commute:
        g·h = right(h)[t_g] xor s_g against h·g = right(g)[t_h] xor s_h."""
        if self.abelian:
            return True
        m = len(self.letters)
        mask = (1 << m) - 1
        elems = [(g >> m, g & mask, self.right(g)) for g in support]
        for a, (t_g, s_g, right_g) in enumerate(elems):
            for t_h, s_h, right_h in elems[a + 1:]:
                if right_h[t_g] ^ s_g != right_g[t_h] ^ s_h:
                    return False
        return True

    @cached_property
    def numbering(self) -> list[int]:
        """Each element's number in a standardized table (Holt, Eick &
        O'Brien, ch. 5), by the `spanning_tree` of the elements' columns;
        computed when a certificate is first written."""
        size, columns = 1 << len(self.letters), []
        for g in range(len(self.sigma)):
            first, column = self.act((g,)), [0] * self.num_cosets
            for s in range(size):  # the elements (s, t), every t at once
                column[s::size] = map(xor, first, repeat(s))
            columns.append(column)
        order = spanning_tree(columns)[0]
        return sorted(range(len(order)), key=order.__getitem__)  # order's inverse


def regular_table(P: Presentation,
                  cap: int = DEFAULT_COSET_CAP) -> RegularTable | None:
    """The group of P on star coordinates, from `star_cosets(P, cap)`, the
    enumeration of `lcsq group`, or None when it is capped (`star_cosets`
    holds the cap rule).  Each relator must fix (0, t) for every coset t,
    else RuntimeError; since xor by s commutes with the action, every
    relator then fixes every element, so the table carries an action of the
    group on k·|S| points, as many as the group has elements.  Each star
    letter g_i must then take (0, 0) to (1 << i, 0), else RuntimeError: the
    star letters then reach every (s, 0) from (0, 0), and the tree path to
    each coset t takes (s, 0) to (s xor s_t, t) for one s_t.  So the action
    is transitive, and a transitive action on as many points as the group
    has elements is the regular action.  The group is abelian exactly
    when its order is that of its abelianization, `S.abelianized_order`."""
    S, T = star_cosets(P, cap)
    if not T.is_complete:
        return None
    tree = spanning_tree(T.columns)
    R = RegularTable(T, S.letters, tuple(_sigma(T, S, tree)), *tree[1:],
                     T.num_cosets * S.order == S.abelianized_order)
    starts = R._walk(())[0]
    for rel in P.relators:  # rel fixes (0, t) when it fixes t and its sigma sum is 0
        cosets, s = R._walk(rel)
        if cosets != starts or any(s):
            raise RuntimeError(f"relator {rel} moves an element of the lifted table")
    for i, g in enumerate(S.letters):
        if T.columns[g][0] != 0 or R.sigma[g][0] != 1 << i:
            raise RuntimeError(f"star letter {P.generators[g]} does not take the "
                               "identity to its element of S in the lifted table")
    return R
