"""Star-algebra elements and concrete representations of solution-group
relation sets.

Two exact element types drive everything downstream, and each element
knows its algebra:

* DenseElement -- d x d matrices over the dyadic Gaussian rationals
  Z[i][1/2] (the algebra is d), stored as integer real and imaginary
  numerators over one shared power-of-two denominator.  The Pauli magic
  square has entries 0, +-1, +-i, and every constant arising here is a
  half, so this ring holds all of its arithmetic;
* GroupAlgebraElement -- elements of the group algebra of a finite group
  on star coordinates (the algebra is the group's `fpgroups.RegularTable`),
  multiplied through the right action of each right factor h, read for a
  star coset the first time a left factor occupies it, with
  dyadic-rational coefficients stored the same way.

Both keep a dict of nonzero integer numerators and an exponent exp (the
value is numerators / 2^exp), normalized so that either exp = 0 or some
numerator is odd, so equal elements are equal objects field by field.
One base class holds what reads only the numerators: `combine` (the sum
of one sequence of elements minus the sum of another, in one call),
sums, negation, halving, equality, `distance` (the residual norm of a
difference, 0.0 without subtracting when the two are equal, as normalized
elements are exactly when their difference is zero), and `same_algebra`,
the one check that two elements meet.  Each type adds its product,
adjoint, `unit`, `commutative`, `supports_commute` (whether some elements
commute, as their supports alone show: in the group algebra, when every
two group elements in the union of the supports commute), `to_json()`,
its `backend` name, and a residual norm that is 0.0 exactly on the zero
element; a relation holds only when its residual is literally zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .f2core import LinearSystem, complete_bipartite, incidence_system, solve_f2
from .fpgroups import RegularTable


# ---------------------------------------------------------------------------
# Dyadic numerators, shared by both element types


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


class _Dyadic:
    """numerators / 2^exp in `algebra`, normalized.  A subclass sets
    `backend`, the name reports carry, and `_mismatch`, the error for
    operands over different algebras."""

    __slots__ = ("algebra", "coeffs", "exp")

    def __init__(self, algebra, coeffs: dict[int, int], exp: int):
        self.algebra = algebra
        self.coeffs, self.exp = _normalized(coeffs, exp)

    @classmethod
    def _exact(cls, algebra, coeffs: dict[int, int], exp: int):
        self = object.__new__(cls)
        _Dyadic.__init__(self, algebra, coeffs, exp)
        return self

    def same_algebra(self, other) -> bool:
        """Whether `other` is an element of the same algebra."""
        return type(other) is type(self) and other.algebra == self.algebra

    @staticmethod
    def combine(plus, minus):
        """sum(plus) - sum(minus) over sequences of elements, in one
        accumulator; at least one term."""
        terms = [*plus, *minus]
        if not terms:
            raise ValueError("combine needs at least one term")
        first = terms[0]
        for t in terms:
            if not first.same_algebra(t):
                raise ValueError(first._mismatch)
        return first._exact(first.algebra, *_accumulate(plus, minus))

    def __add__(self, other):
        return self.combine((self, other), ())

    def __sub__(self, other):
        return self.combine((self,), (other,))

    def __neg__(self):
        return self._exact(self.algebra, {k: -c for k, c in self.coeffs.items()},
                           self.exp)

    def halve(self):
        return self._exact(self.algebra, self.coeffs, self.exp + 1)

    def __eq__(self, other) -> bool:
        return (self.same_algebra(other) and self.exp == other.exp
                and self.coeffs == other.coeffs)

    def distance(self, other) -> float:
        """The residual norm of self - other: 0.0 with no subtraction when
        the two are equal field by field, which normalized elements are
        exactly when their difference is zero."""
        if self == other:
            return 0.0
        return (self - other).residual_norm()


# ---------------------------------------------------------------------------
# Dense elements


class DenseElement(_Dyadic):
    """A d x d matrix over Z[i][1/2]; its algebra is d.

    `coeffs` maps 2 * (i * d + j) + part to a nonzero integer numerator of
    the real (part 0) or imaginary (part 1) component of entry (i, j); the
    entry is (re + i * im) / 2^exp.  The constructor reads a square matrix
    of finite numbers, each converted exactly from its complex float value.
    """

    __slots__ = ()
    backend = "dense"
    _mismatch = "dense elements of different dimensions"

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
        super().__init__(d, {k: num << (exp - den.bit_length() + 1)
                             for k, (num, den) in ratios.items()}, exp)

    @classmethod
    def identity(cls, d: int) -> DenseElement:
        return cls._exact(d, {2 * (i * d + i): 1 for i in range(d)}, 0)

    # bench/tracer.py counts each element type's own +, - and *, so each
    # class holds them in its own __dict__
    __add__, __sub__ = _Dyadic.__add__, _Dyadic.__sub__

    def __mul__(self, other: DenseElement) -> DenseElement:
        if not self.same_algebra(other):
            raise ValueError(self._mismatch)
        width = 2 * self.algebra  # keys of one row: i * width + 2 * j + part
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
        return self._exact(self.algebra, out, self.exp + other.exp)

    @property
    def commutative(self) -> bool:
        return self.algebra == 1

    def supports_commute(self, elements) -> bool:
        """Whether every two of `elements` commute, as far as their supports
        show: only in a commutative algebra.  False proves nothing."""
        return self.commutative

    def unit(self) -> DenseElement:
        return DenseElement.identity(self.algebra)

    def adjoint(self) -> DenseElement:
        width = 2 * self.algebra
        out = {}
        for key, c in self.coeffs.items():
            i, col = divmod(key, width)
            out[(col >> 1) * width + 2 * i + (col & 1)] = -c if col & 1 else c
        return self._exact(self.algebra, out, self.exp)

    def residual_norm(self) -> float:
        # the Frobenius norm, from the exact sum of squares: 0.0 exactly on
        # the zero element, positive otherwise
        return math.sqrt(sum(c * c for c in self.coeffs.values())) / (1 << self.exp)

    def to_json(self) -> list[list[list[float]]]:
        """The matrix as rows of [re, im] float pairs."""
        d, c, scale = self.algebra, self.coeffs, 1 << self.exp
        return [[[c.get(2 * (i * d + j), 0) / scale, c.get(2 * (i * d + j) + 1, 0) / scale]
                 for j in range(d)] for i in range(d)]

    def __repr__(self):
        return f"DenseElement(dim={self.algebra})"


# ---------------------------------------------------------------------------
# Group-algebra elements


class GroupAlgebraElement(_Dyadic):
    """sum_g (coeffs[g] / 2^exp) * g in the group algebra of `algebra`, a
    `fpgroups.RegularTable`, which multiplies, inverts and numbers the group
    elements g; built as GroupAlgebraElement(table, coeffs, exp)."""

    __slots__ = ()
    backend = "group_algebra"
    _mismatch = "elements live over different group algebras"

    # bench/tracer.py counts each element type's own +, - and *, so each
    # class holds them in its own __dict__
    __add__, __sub__ = _Dyadic.__add__, _Dyadic.__sub__

    @classmethod
    def basis_element(cls, algebra: RegularTable, g: int) -> GroupAlgebraElement:
        """The group element g as an element of its group algebra."""
        return cls._exact(algebra, {g: 1}, 0)

    def __mul__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if not self.same_algebra(other):
            raise ValueError(self._mismatch)
        table, m = self.algebra, len(self.algebra.letters)
        left = [(g >> m, g & ((1 << m) - 1), a) for g, a in self.coeffs.items()]
        out: dict[int, int] = {}
        for h, b in other.coeffs.items():
            right = table.right(h)
            for t, s, a in left:
                gh = right[t] ^ s
                out[gh] = out.get(gh, 0) + a * b
        return self._exact(table, out, self.exp + other.exp)

    @property
    def commutative(self) -> bool:
        return self.algebra.abelian

    def supports_commute(self, elements) -> bool:
        """Whether every two of `elements` commute because every two group
        elements in the union of their supports do.  False proves nothing."""
        support: set[int] = set()
        for elem in elements:
            support.update(elem.coeffs)
        return self.algebra.commuting(support)

    def unit(self) -> GroupAlgebraElement:
        return self.basis_element(self.algebra, 0)

    def adjoint(self) -> GroupAlgebraElement:
        inverse = self.algebra.inverse
        return self._exact(self.algebra, {inverse(g): c for g, c in self.coeffs.items()},
                           self.exp)

    def residual_norm(self) -> float:
        # 0.0 exactly on the zero element; positive otherwise
        return sum(abs(c) for c in self.coeffs.values()) / float(1 << self.exp)

    def to_json(self) -> list[list[int]]:
        """The support as [element, numerator, log2 denominator] triples,
        elements by their numbers in certificates."""
        number = self.algebra.numbering
        return sorted([number[g], c, self.exp] for g, c in self.coeffs.items())

    def __repr__(self):
        return f"GroupAlgebraElement({len(self.coeffs)} terms, exp={self.exp})"


# ---------------------------------------------------------------------------
# Representations


@dataclass
class Representation:
    """Images of the variables x_i, all elements of one algebra.

    For the isomorphism relation set of (M, b) the central element is
    fixed to -1, so no gamma image participates in verification (the
    right-hand side signs are read off the system being checked).
    """

    images: list
    name: str = ""

    def identity(self):
        return self.images[0].unit()

    def projection(self, i: int, sign: int):
        """p_i^+ or p_i^-: (1 +- x_i) / 2."""
        one = self.identity()
        x = self.images[i]
        return (one + x).halve() if sign == 1 else (one - x).halve()


def flip_signs(R: Representation, x: tuple[int, ...] | list[int]) -> Representation:
    """R with the image of x_i negated where x_i = 1, every other image the
    same object.  Negating x_i flips the sign of every constraint product
    that holds x_i, so where R represents the relation set of (M, b), the
    result represents that of (M, b + M x): the one way a representation
    moves between right-hand sides."""
    return Representation([-image if flip else image
                           for image, flip in zip(R.images, x, strict=True)], R.name)


@dataclass(frozen=True)
class VerificationReport:
    """Residual per relation family, the worst offender, and the verdict:
    `verify_representation`'s report on a representation, one family per
    relation, and `qcert.verify_cert`'s on a certificate."""

    families: tuple  # ((name, residual, worst description), ...)
    backend: str

    @property
    def max_residual(self) -> float:
        return max((r for _, r, _ in self.families), default=0.0)

    @property
    def worst(self) -> tuple:
        if not self.families:
            return ("", 0.0, "")
        return max(self.families, key=lambda f: f[1])

    @property
    def passed(self) -> bool:
        return all(r == 0.0 for _, r, _ in self.families)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "backend": self.backend,
                "max_residual": self.max_residual,
                "families": [{"name": n, "residual": r, "worst": w}
                             for n, r, w in self.families]}


def verify_representation(R: Representation, sys: LinearSystem) -> VerificationReport:
    """Check the defining relations of the solution-group relation set of
    `sys`: each x_i self-adjoint and an involution, images sharing a
    constraint commuting, and each constraint product equal to (-1)^{b_k}.
    One family per relation, with no worst description; a relation holds
    only when its residual is literally zero.  An image over another
    algebra than x1's is a ValueError naming it, raised before any product.
    """
    if len(R.images) != sys.num_vars:
        raise ValueError(f"{len(R.images)} images for {sys.num_vars} variables")
    one = R.identity()
    for i, x in enumerate(R.images):
        if not one.same_algebra(x):
            raise ValueError(f"image x{i + 1} is over another algebra than x1")

    families = []
    for i, x in enumerate(R.images):
        families.append((f"selfadjoint:x{i + 1}", x.distance(x.adjoint()), ""))
        families.append((f"involution:x{i + 1}", (x * x).distance(one), ""))

    for i, j in sys.sharing_pairs():
        xi, xj = R.images[i], R.images[j]
        families.append((f"commute:x{i + 1},x{j + 1}",
                         (xi * xj).distance(xj * xi), ""))

    for k in range(sys.num_constraints):
        prod = one
        for i in sys.support(k):
            prod = prod * R.images[i]
        target = -one if sys.b[k] else one
        families.append((f"product:k{k + 1}", prod.distance(target), ""))

    return VerificationReport(tuple(families), one.backend)


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


def pauli_magic_square_rep(b: tuple[int, ...]) -> Representation:
    """Two-qubit Pauli observables on the nine edge variables of K_{3,3},
    representing the relation set of its incidence system with right-hand
    side b, for any b of odd weight.

    The square is read once, for b = e1: left vertex a reads column 2 - a
    and right vertex 3 + c reads row c, so the first constraint's product
    is -identity and the other five are +identity.  Any other b is reached
    by `flip_signs` with a solution x of M x = b + e1.  Every edge meets two
    constraints, so M x has even weight, and an even-weight b is a
    ValueError.  The result is accepted only after verify_representation
    passes.
    """
    sys = incidence_system(complete_bipartite(3, 3), b)
    x = solve_f2(sys.with_b((1 - sys.b[0],) + sys.b[1:]))
    if x is None:
        raise ValueError("the magic square represents K3,3's incidence system "
                         f"only for an odd-weight b, not {sys.b_bitstring()}")
    cells = _pauli_square()
    square = Representation([cells[c][2 - a] for a in range(3) for c in range(3)],
                            name="pauli-magic-square")
    rep = flip_signs(square, x)
    report = verify_representation(rep, sys)
    if not report.passed:  # construction bug, not a data condition
        raise RuntimeError(f"magic square failed verification: {report.worst[0]}")
    return rep


def group_algebra_rep(T: RegularTable) -> Representation:
    """Exact regular model: x_i maps to its own group element in the group
    algebra of `regular_table`'s group, over the presentation the table was
    enumerated from.  Any other table is a TypeError."""
    if not isinstance(T, RegularTable):
        raise TypeError(f"group algebra needs a fpgroups.RegularTable, not {type(T).__name__}")
    P = T.cosets.presentation
    nvars = P.ngens - (1 if "gamma" in P.generators else 0)
    images = [GroupAlgebraElement.basis_element(T, T.element((i,))) for i in range(nvars)]
    return Representation(images, name="regular")
