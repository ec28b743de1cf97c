"""Star-algebra backends and concrete representations of solution-group
relation sets.

Two interchangeable element types drive everything downstream, and both
are exact:

* DenseElement -- square matrices over the dyadic Gaussian rationals
  Z[i][1/2], stored as integer real and imaginary numerators over one
  shared power-of-two denominator.  The Pauli magic square has entries
  0, +-1, +-i, and every constant arising here is a half, so this ring
  holds all of its arithmetic;
* GroupAlgebraElement -- elements of the group algebra of a finite group
  on star coordinates, multiplied through one vector over the star cosets
  per right factor, with dyadic-rational coefficients stored the same way.

Both keep a dict of nonzero integer numerators and an exponent exp (the
value is numerators / 2^exp), normalized so that either exp = 0 or some
numerator is odd, so equal elements are equal objects field by field.
Both support sum, product, halving, adjoint, their algebra's `unit`,
`combine` (the sum of one sequence of elements minus the sum of another,
in one call), and a residual norm that is 0.0 exactly on the zero
element; a relation holds only when its residual is literally zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .f2core import LinearSystem, complete_bipartite, incidence_system
from .fpgroups import CosetTable, RegularTable, abelianized_order, spanning_tree


# ---------------------------------------------------------------------------
# Dyadic numerators, shared by both backends


def _normalized(coeffs: dict[int, int], exp: int) -> tuple[dict[int, int], int]:
    """`coeffs` without its zero numerators, and `exp`, both reduced until
    either exp = 0 or some numerator is odd."""
    coeffs = {k: c for k, c in coeffs.items() if c}
    if not coeffs:
        return coeffs, 0
    if exp > 0:
        # every numerator is divisible by 2^t, t = trailing zeros of their OR
        bits = 0
        for c in coeffs.values():
            bits |= c
        shift = min((bits & -bits).bit_length() - 1, exp)
        if shift:
            coeffs = {k: c >> shift for k, c in coeffs.items()}
            exp -= shift
    return coeffs, exp


def _accumulate(plus, minus) -> tuple[dict[int, int], int]:
    """Numerators and exponent of sum(plus) - sum(minus), unnormalized: the
    terms' numerators are aligned to their largest exponent and summed key
    by key.  Exact, so the order of the terms does not matter."""
    exp = 0
    for t in plus:
        exp = max(exp, t.exp)
    for t in minus:
        exp = max(exp, t.exp)
    acc: dict[int, int] = {}
    for t in plus:
        shift = exp - t.exp
        if shift:
            for k, c in t.coeffs.items():
                acc[k] = acc.get(k, 0) + (c << shift)
        elif acc:
            for k, c in t.coeffs.items():
                acc[k] = acc.get(k, 0) + c
        else:
            acc = dict(t.coeffs)
    for t in minus:
        shift = exp - t.exp
        for k, c in t.coeffs.items():
            acc[k] = acc.get(k, 0) - (c << shift)
    return acc, exp


# ---------------------------------------------------------------------------
# Dense backend


class DenseElement:
    """A d x d matrix over Z[i][1/2].

    `coeffs` maps 2 * (i * d + j) + part to a nonzero integer numerator of
    the real (part 0) or imaginary (part 1) component of entry (i, j); the
    entry is (re + i * im) / 2^exp.  The constructor reads a square matrix
    of finite numbers, each converted exactly from its complex float value.
    """

    __slots__ = ("dim", "coeffs", "exp")

    def __init__(self, mat):
        try:
            rows = [[complex(z) for z in row] for row in mat]
        except TypeError:
            raise ValueError("dense elements must be square matrices") from None
        d = len(rows)
        if not d or any(len(row) != d for row in rows):
            raise ValueError("dense elements must be square matrices")
        ratios = {}
        for i, row in enumerate(rows):
            for j, z in enumerate(row):
                for part, x in enumerate((z.real, z.imag)):
                    if not math.isfinite(x):
                        raise ValueError(f"dense entry ({i}, {j}) is not finite")
                    if x:
                        ratios[2 * (i * d + j) + part] = x.as_integer_ratio()
        exp = max((den.bit_length() - 1 for _, den in ratios.values()), default=0)
        coeffs = {k: num << (exp - den.bit_length() + 1)
                  for k, (num, den) in ratios.items()}
        self.dim = d
        self.coeffs, self.exp = _normalized(coeffs, exp)

    @classmethod
    def _exact(cls, dim: int, coeffs: dict[int, int], exp: int) -> DenseElement:
        self = object.__new__(cls)
        self.dim = dim
        self.coeffs, self.exp = _normalized(coeffs, exp)
        return self

    @classmethod
    def identity(cls, d: int) -> DenseElement:
        return cls._exact(d, {2 * (i * d + i): 1 for i in range(d)}, 0)

    @staticmethod
    def combine(plus, minus) -> DenseElement:
        """sum(plus) - sum(minus) over sequences of elements, in one
        accumulator; at least one term."""
        terms = [*plus, *minus]
        if not terms:
            raise ValueError("combine needs at least one term")
        d = terms[0].dim
        for t in terms:
            if t.dim != d:
                raise ValueError("dense elements of different dimensions")
        return DenseElement._exact(d, *_accumulate(plus, minus))

    def __add__(self, other: DenseElement) -> DenseElement:
        return DenseElement.combine((self, other), ())

    def __sub__(self, other: DenseElement) -> DenseElement:
        return DenseElement.combine((self,), (other,))

    def __neg__(self) -> DenseElement:
        return DenseElement._exact(self.dim, {k: -c for k, c in self.coeffs.items()},
                                   self.exp)

    def __mul__(self, other: DenseElement) -> DenseElement:
        d = self.dim
        if other.dim != d:
            raise ValueError("dense elements of different dimensions")
        width = 2 * d  # keys of one row: i * width + 2 * j + part
        # row k of the right factor: (2j + part, b, -b if part else b); the
        # third is what b contributes after an imaginary left entry (i * i = -1)
        rows: dict[int, list[tuple[int, int, int]]] = {}
        for key, b in other.coeffs.items():
            k, col = divmod(key, width)
            rows.setdefault(k, []).append((col, b, -b if col & 1 else b))
        out: dict[int, int] = {}
        for key, a in self.coeffs.items():
            i, col = divmod(key, width)
            row = rows.get(col >> 1)
            if row is None:
                continue
            base = i * width
            if col & 1:  # i * re -> im, i * (i * im) -> -re
                for c, _, b in row:
                    o = base + (c ^ 1)
                    out[o] = out.get(o, 0) + a * b
            else:
                for c, b, _ in row:
                    o = base + c
                    out[o] = out.get(o, 0) + a * b
        return DenseElement._exact(d, out, self.exp + other.exp)

    def unit(self) -> DenseElement:
        return DenseElement.identity(self.dim)

    def halve(self) -> DenseElement:
        return DenseElement._exact(self.dim, self.coeffs, self.exp + 1)

    def adjoint(self) -> DenseElement:
        width = 2 * self.dim
        out = {}
        for key, c in self.coeffs.items():
            i, col = divmod(key, width)
            out[(col >> 1) * width + 2 * i + (col & 1)] = -c if col & 1 else c
        return DenseElement._exact(self.dim, out, self.exp)

    def residual_norm(self) -> float:
        # the Frobenius norm, from the exact sum of squares: 0.0 exactly on
        # the zero element, positive otherwise
        return math.sqrt(sum(c * c for c in self.coeffs.values())) / (1 << self.exp)

    def rows(self) -> list[list[list[float]]]:
        """The matrix as rows of [re, im] float pairs (its JSON form)."""
        d, c, scale = self.dim, self.coeffs, 1 << self.exp
        return [[[c.get(2 * (i * d + j), 0) / scale, c.get(2 * (i * d + j) + 1, 0) / scale]
                 for j in range(d)] for i in range(d)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseElement) and self.dim == other.dim
                and self.exp == other.exp and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.exp, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"DenseElement(dim={self.dim})"


# ---------------------------------------------------------------------------
# Exact group-algebra backend


class GroupAlgebraContext:
    """The group algebra of a `fpgroups.RegularTable`, or of any complete
    regular table (coset 0 the identity) as the case S = 1.  Right
    multiplication by h is e·h = right(h)[e >> shift] xor (e & (|S| - 1)),
    one k-vector per h from h's word; h's inverse is that word read
    backward.  Certificates number the elements as a standardized table
    does, or a plain table's as it numbers its cosets.  `abelian` tells
    whether the group, and so its group algebra, is commutative."""

    def __init__(self, table: CosetTable | RegularTable):
        if not table.is_complete:
            raise ValueError("group algebra needs a complete coset table")
        self._number = None  # computed when a support is first serialized
        if isinstance(table, CosetTable):
            zeros = [0] * table.num_cosets
            table = RegularTable(table, (), (zeros,) * len(table.columns),
                                 *spanning_tree(table.columns)[1:])
            self._number = range(table.num_cosets)
        self.table, self.size, self.shift = table, table.num_cosets, len(table.letters)
        self.abelian = self.size == abelianized_order(table.cosets.presentation)
        self._right, self._inverse = {}, {}  # k-vectors and inverses by element

    def right(self, h: int) -> list[int]:
        if h not in self._right:
            self._right[h] = self.table.act(self.table.word(h))
        return self._right[h]

    def inverse(self, h: int) -> int:
        if h not in self._inverse:
            self._inverse[h] = self.table.element(self.table.word(h)[::-1])
        return self._inverse[h]

    def numbering(self):
        if self._number is None:
            self._number = self.table.numbering()
        return self._number

    def basis_element(self, g: int) -> GroupAlgebraElement:
        return GroupAlgebraElement(self, {g: 1}, 0)


class GroupAlgebraElement:
    """sum_g (coeffs[g] / 2^exp) * g, exact and normalized.

    Sums and differences of any number of terms go through `combine`, one
    accumulator that aligns the exponents and normalizes once; `+` and `-`
    are its two-term cases.
    """

    __slots__ = ("ctx", "coeffs", "exp")

    def __init__(self, ctx: GroupAlgebraContext, coeffs: dict[int, int], exp: int):
        self.ctx = ctx
        self.coeffs, self.exp = _normalized(coeffs, exp)

    @staticmethod
    def combine(plus, minus) -> GroupAlgebraElement:
        """sum(plus) - sum(minus) over sequences of elements, in one
        accumulator; at least one term."""
        terms = [*plus, *minus]
        if not terms:
            raise ValueError("combine needs at least one term")
        ctx = terms[0].ctx
        for t in terms:
            if t.ctx is not ctx:
                raise ValueError("elements live over different group algebras")
        return GroupAlgebraElement(ctx, *_accumulate(plus, minus))

    def __add__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        return GroupAlgebraElement.combine((self, other), ())

    def __sub__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        return GroupAlgebraElement.combine((self,), (other,))

    def __neg__(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.ctx, {g: -c for g, c in self.coeffs.items()},
                                   self.exp)

    def __mul__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if self.ctx is not other.ctx:
            raise ValueError("elements live over different group algebras")
        ctx, m = self.ctx, self.ctx.shift
        left = [(g >> m, g & ((1 << m) - 1), a) for g, a in self.coeffs.items()]
        out: dict[int, int] = {}
        for h, b in other.coeffs.items():
            right = ctx.right(h)
            for t, s, a in left:
                gh = right[t] ^ s
                out[gh] = out.get(gh, 0) + a * b
        return GroupAlgebraElement(ctx, out, self.exp + other.exp)

    def unit(self) -> GroupAlgebraElement:
        return self.ctx.basis_element(0)

    def halve(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.ctx, self.coeffs, self.exp + 1)

    def adjoint(self) -> GroupAlgebraElement:
        inverse = self.ctx.inverse
        return GroupAlgebraElement(self.ctx,
                                   {inverse(g): c for g, c in self.coeffs.items()},
                                   self.exp)

    def residual_norm(self) -> float:
        # 0.0 exactly on the zero element; positive otherwise
        return sum(abs(c) for c in self.coeffs.values()) / float(1 << self.exp)

    def support(self) -> list[tuple[int, int, int]]:
        """JSON-facing support list [[element, numerator, log2 denominator]],
        elements by their numbers in certificates."""
        number = self.ctx.numbering()
        return sorted([number[g], c, self.exp] for g, c in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement) and self.ctx is other.ctx
                and self.exp == other.exp and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.exp, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"GroupAlgebraElement({len(self.coeffs)} terms, exp={self.exp})"


# ---------------------------------------------------------------------------
# Representations


@dataclass
class Representation:
    """Images of the variables x_i in one of the backends.

    For the isomorphism relation set of (M, b) the central element is
    fixed to -1, so no gamma image participates in verification (the
    right-hand side signs are read off the system being checked).
    """

    images: list
    backend: str  # "dense" | "group_algebra"
    name: str = ""

    def identity(self):
        return self.images[0].unit()

    def projection(self, i: int, sign: int):
        """p_i^+ or p_i^-: (1 +- x_i) / 2."""
        one = self.identity()
        x = self.images[i]
        return (one + x).halve() if sign == 1 else (one - x).halve()


@dataclass(frozen=True)
class RepVerification:
    """Residual of every defining relation, plus the overall verdict."""

    entries: tuple  # ((name, residual), ...)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.entries), default=0.0)

    @property
    def worst(self) -> str:
        if not self.entries:
            return ""
        return max(self.entries, key=lambda e: e[1])[0]

    @property
    def passed(self) -> bool:
        return all(r == 0.0 for _, r in self.entries)


def verify_representation(R: Representation, sys: LinearSystem,
                          mode: str) -> RepVerification:
    """Check the defining relations of the solution-group relation set.

    mode "qut" checks the homogeneous relations (every constraint product
    equals +1); mode "iso" checks products against (-1)^{b_k}.  A relation
    holds only when its residual is literally zero.
    """
    if mode not in ("qut", "iso"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(R.images) != sys.num_vars:
        raise ValueError(f"{len(R.images)} images for {sys.num_vars} variables")
    if R.backend == "dense":
        dims = {img.dim for img in R.images}
        if len(dims) != 1:
            raise ValueError(f"mixed dense dimensions {sorted(dims)}")

    one = R.identity()
    entries = []
    for i, x in enumerate(R.images):
        entries.append((f"selfadjoint:x{i + 1}", (x - x.adjoint()).residual_norm()))
        entries.append((f"involution:x{i + 1}", (x * x - one).residual_norm()))

    for i, j in sys.sharing_pairs():
        xi, xj = R.images[i], R.images[j]
        entries.append((f"commute:x{i + 1},x{j + 1}",
                        (xi * xj - xj * xi).residual_norm()))

    for k in range(sys.num_constraints):
        prod = one
        for i in sys.support(k):
            prod = prod * R.images[i]
        target = one
        if mode == "iso" and sys.b[k] == 1:
            target = -one
        entries.append((f"product:k{k + 1}", (prod - target).residual_norm()))

    return RepVerification(tuple(entries))


# ---------------------------------------------------------------------------
# The Pauli (magic square) representation


def _kron(A: list, B: list) -> list:
    """Kronecker product of two square matrices given as lists of rows."""
    return [[a * b for a in row_a for b in row_b] for row_a in A for row_b in B]


def _pauli_square() -> list[list[DenseElement]]:
    # entries 0, +-1, +-i: their products are exact in any number type
    I = [[1, 0], [0, 1]]
    X = [[0, 1], [1, 0]]
    Z = [[1, 0], [0, -1]]
    Y = [[0, -1j], [1j, 0]]
    # Rows multiply to +I; columns to +I, +I, -I.
    return [[DenseElement(_kron(A, B)) for A, B in row] for row in (
        [(X, I), (I, X), (X, X)],
        [(I, Z), (Z, I), (Z, Z)],
        [(X, Z), (Z, X), (Y, Y)],
    )]


def pauli_magic_square_rep(distinguished: int = 0) -> Representation:
    """Two-qubit Pauli observables on the nine edge variables of K_{3,3}.

    Exactly the distinguished constraint's product equals -identity and
    the remaining five equal +identity, so this represents the relation
    set of the incidence system of K_{3,3} with b = e_distinguished.  The
    assignment is accepted only after verify_representation passes.
    """
    if not 0 <= distinguished < 6:
        raise ValueError("distinguished constraint must be one of 0..5")
    cells = _pauli_square()
    H = complete_bipartite(3, 3)
    sys = incidence_system(H, tuple(1 if k == distinguished else 0 for k in range(6)))

    def swap_to_last(d: int) -> list[int]:
        perm = [0, 1, 2]
        perm[d], perm[2] = perm[2], perm[d]
        return perm

    images: list[DenseElement | None] = [None] * 9
    if distinguished < 3:
        sigma = swap_to_last(distinguished)
        # left vertex a reads column sigma[a]; right vertex 3+b reads row b
        for a in range(3):
            for b_ in range(3):
                images[3 * a + b_] = cells[b_][sigma[a]]
    else:
        tau = swap_to_last(distinguished - 3)
        # left vertex a reads row a; right vertex 3+b reads column tau[b]
        for a in range(3):
            for b_ in range(3):
                images[3 * a + b_] = cells[a][tau[b_]]

    rep = Representation(images, "dense", name="pauli-magic-square")
    report = verify_representation(rep, sys, "iso")
    if not report.passed:  # construction bug, not a data condition
        raise RuntimeError(f"magic square failed verification: {report.worst}")
    return rep


def group_algebra_rep(P, T: CosetTable | RegularTable) -> Representation:
    """Exact regular model: x_i maps to its own group element in the group
    algebra of `regular_table`'s group, or of a complete regular table."""
    ctx = GroupAlgebraContext(T)
    nvars = P.ngens - (1 if "gamma" in P.generators else 0)
    images = [ctx.basis_element(ctx.table.element((i,))) for i in range(nvars)]
    return Representation(images, "group_algebra", name="regular")
