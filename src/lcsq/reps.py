"""Star-algebra backends and concrete representations of solution-group
relation sets.

Two interchangeable element types drive everything downstream:

* DenseElement -- square complex matrices (numpy), compared in Frobenius
  norm against a tolerance;
* GroupAlgebraElement -- exact elements of the group algebra of a finite
  group given by a completed coset table, with dyadic-rational
  coefficients stored as integer numerators over a shared power-of-two
  denominator.  All constants arising here are halves of sums of group
  elements, so the arithmetic never leaves this ring and equality is
  literal.

Both support sum, product, halving, adjoint, `combine` (the sum of one
sequence of elements minus the sum of another, in one call), and a
residual norm that is zero exactly on the zero element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2core import LinearSystem, complete_bipartite, incidence_system
from .fpgroups import CosetTable, coset_rep_words

DENSE_EQ_TOL = 1e-10


# ---------------------------------------------------------------------------
# Dense backend


class DenseElement:
    """A d x d complex matrix with algebra operations."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("dense elements must be square matrices")
        self.mat = arr

    @classmethod
    def identity(cls, d: int) -> DenseElement:
        return cls(np.eye(d))

    @classmethod
    def zero(cls, d: int) -> DenseElement:
        return cls(np.zeros((d, d)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @staticmethod
    def combine(plus, minus) -> DenseElement:
        """sum(plus) - sum(minus) over sequences of elements; each side is
        summed left to right, as a chain of `+` would, so float results
        are the chain's bit for bit."""
        def total(side):
            acc = side[0].mat
            for t in side[1:]:
                acc = acc + t.mat
            return acc

        if not minus:
            return DenseElement(total(plus))
        if not plus:
            return DenseElement(-total(minus))
        return DenseElement(total(plus) - total(minus))

    def __add__(self, other: DenseElement) -> DenseElement:
        return DenseElement(self.mat + other.mat)

    def __sub__(self, other: DenseElement) -> DenseElement:
        return DenseElement(self.mat - other.mat)

    def __neg__(self) -> DenseElement:
        return DenseElement(-self.mat)

    def __mul__(self, other: DenseElement) -> DenseElement:
        return DenseElement(self.mat @ other.mat)

    def halve(self) -> DenseElement:
        return DenseElement(self.mat * 0.5)

    def adjoint(self) -> DenseElement:
        return DenseElement(self.mat.conj().T)

    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def is_zero(self, tol: float = DENSE_EQ_TOL) -> bool:
        return self.residual_norm() <= tol

    def __repr__(self):
        return f"DenseElement(dim={self.dim})"


# ---------------------------------------------------------------------------
# Exact group-algebra backend


class GroupAlgebraContext:
    """Multiplication and inversion for a finite group given by a completed
    coset table over the trivial subgroup (cosets are the group elements)."""

    def __init__(self, table: CosetTable):
        if not table.is_complete:
            raise ValueError("group algebra needs a complete coset table")
        self.table = table
        self.size = table.num_cosets
        self.words = coset_rep_words(table)
        # generators are involutions, so reversing a word inverts the element
        self.inverse = [table.follow(0, tuple(reversed(w))) for w in self.words]
        self._columns: dict[int, list[int]] = {}

    def column(self, h: int) -> list[int]:
        """Right multiplication by element h as a map on all elements."""
        col = self._columns.get(h)
        if col is None:
            rows = self.table.table
            col = list(range(self.size))
            for g in self.words[h]:
                col = [rows[c][g] for c in col]
            self._columns[h] = col
        return col

    def identity_element(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self, {0: 1}, 0)

    def basis_element(self, g: int) -> GroupAlgebraElement:
        return GroupAlgebraElement(self, {g: 1}, 0)

    def generator_element(self, gen: int) -> GroupAlgebraElement:
        return self.basis_element(self.table.table[0][gen])


class GroupAlgebraElement:
    """sum_g (coeffs[g] / 2^exp) * g, exact, normalized so that either
    exp = 0 or some numerator is odd.

    Sums and differences of any number of terms go through `combine`, one
    accumulator that aligns the exponents and normalizes once; `+` and `-`
    are its two-term cases.
    """

    __slots__ = ("ctx", "coeffs", "exp")

    def __init__(self, ctx: GroupAlgebraContext, coeffs: dict[int, int], exp: int):
        coeffs = {g: c for g, c in coeffs.items() if c}
        if not coeffs:
            exp = 0
        elif exp > 0:
            # every numerator is divisible by 2^t, t = trailing zeros of their OR
            bits = 0
            for c in coeffs.values():
                bits |= c
            shift = min((bits & -bits).bit_length() - 1, exp)
            if shift:
                coeffs = {g: c >> shift for g, c in coeffs.items()}
                exp -= shift
        self.ctx = ctx
        self.coeffs = coeffs
        self.exp = exp

    @staticmethod
    def combine(plus, minus) -> GroupAlgebraElement:
        """sum(plus) - sum(minus) over sequences of elements, in one
        accumulator; at least one term."""
        terms = [*plus, *minus]
        if not terms:
            raise ValueError("combine needs at least one term")
        ctx = terms[0].ctx
        exp = 0
        for t in terms:
            if t.ctx is not ctx:
                raise ValueError("elements live over different group algebras")
            exp = max(exp, t.exp)
        acc: dict[int, int] = {}
        for t in plus:
            shift = exp - t.exp
            for g, c in t.coeffs.items():
                acc[g] = acc.get(g, 0) + (c << shift)
        for t in minus:
            shift = exp - t.exp
            for g, c in t.coeffs.items():
                acc[g] = acc.get(g, 0) - (c << shift)
        return GroupAlgebraElement(ctx, acc, exp)

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
        out: dict[int, int] = {}
        for h, b in other.coeffs.items():
            col = self.ctx.column(h)
            for g, a in self.coeffs.items():
                gh = col[g]
                out[gh] = out.get(gh, 0) + a * b
        return GroupAlgebraElement(self.ctx, out, self.exp + other.exp)

    def halve(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.ctx, dict(self.coeffs), self.exp + 1)

    def adjoint(self) -> GroupAlgebraElement:
        inv = self.ctx.inverse
        return GroupAlgebraElement(self.ctx,
                                   {inv[g]: c for g, c in self.coeffs.items()},
                                   self.exp)

    def residual_norm(self) -> float:
        # 0.0 exactly on the zero element; positive otherwise
        return sum(abs(c) for c in self.coeffs.values()) / float(1 << self.exp)

    def is_zero(self, tol: float = 0.0) -> bool:
        return not self.coeffs

    def support(self) -> list[tuple[int, int, int]]:
        """JSON-facing support list [[element, numerator, log2 denominator]]."""
        return [[g, self.coeffs[g], self.exp] for g in sorted(self.coeffs)]

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
    system: LinearSystem | None = None
    name: str = ""

    def identity(self):
        first = self.images[0]
        if self.backend == "dense":
            return DenseElement.identity(first.dim)
        return first.ctx.identity_element()

    def projection(self, i: int, sign: int):
        """p_i^+ or p_i^-: (1 +- x_i) / 2."""
        one = self.identity()
        x = self.images[i]
        return (one + x).halve() if sign == 1 else (one - x).halve()


@dataclass(frozen=True)
class RepVerification:
    """Residual of every defining relation, plus the overall verdict."""

    entries: tuple  # ((name, residual), ...)
    tol: float
    backend: str

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
        limit = 0.0 if self.backend == "group_algebra" else self.tol
        return all(r <= limit for _, r in self.entries)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "tol": self.tol, "backend": self.backend,
                "max_residual": self.max_residual, "worst": self.worst,
                "relations": [{"name": n, "residual": r} for n, r in self.entries]}


def verify_representation(R: Representation, sys: LinearSystem, mode: str,
                          tol: float = DENSE_EQ_TOL) -> RepVerification:
    """Check the defining relations of the solution-group relation set.

    mode "qut" checks the homogeneous relations (every constraint product
    equals +1); mode "iso" checks products against (-1)^{b_k}.  Exact
    backends must produce literal zeros; dense residuals are Frobenius
    norms compared against tol.
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

    sharing = set()
    for k in range(sys.num_constraints):
        support = sys.support(k)
        for a in range(len(support)):
            for b_ in range(a + 1, len(support)):
                sharing.add((support[a], support[b_]))
    for i, j in sorted(sharing):
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

    return RepVerification(tuple(entries), tol, R.backend)


# ---------------------------------------------------------------------------
# The Pauli (magic square) representation


def _pauli_square() -> list[list[np.ndarray]]:
    I = np.eye(2, dtype=np.complex128)
    X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    # Rows multiply to +I; columns to +I, +I, -I.
    return [
        [np.kron(X, I), np.kron(I, X), np.kron(X, X)],
        [np.kron(I, Z), np.kron(Z, I), np.kron(Z, Z)],
        [np.kron(X, Z), np.kron(Z, X), np.kron(Y, Y)],
    ]


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
                images[3 * a + b_] = DenseElement(cells[b_][sigma[a]])
    else:
        tau = swap_to_last(distinguished - 3)
        # left vertex a reads row a; right vertex 3+b reads column tau[b]
        for a in range(3):
            for b_ in range(3):
                images[3 * a + b_] = DenseElement(cells[a][tau[b_]])

    rep = Representation(images, "dense", sys, name="pauli-magic-square")
    report = verify_representation(rep, sys, "iso", tol=1e-12)
    if not report.passed:  # construction bug, not a data condition
        raise RuntimeError(f"magic square failed verification: {report.worst}")
    return rep


def group_algebra_rep(P, T: CosetTable) -> Representation:
    """Exact regular model: x_i maps to its own group element in the group
    algebra over the completed coset table."""
    if not T.is_complete:
        raise ValueError("coset table is not complete")
    ctx = GroupAlgebraContext(T)
    nvars = P.ngens - (1 if "gamma" in P.generators else 0)
    images = [ctx.generator_element(i) for i in range(nvars)]
    return Representation(images, "group_algebra", None, name="regular")


# ---------------------------------------------------------------------------
# Serialization


def representation_to_json_dict(R: Representation) -> dict:
    gens = {}
    for i, img in enumerate(R.images):
        name = f"x{i + 1}"
        if R.backend == "dense":
            gens[name] = [[[float(z.real), float(z.imag)] for z in row]
                          for row in img.mat]
        else:
            gens[name] = img.support()
    return {"backend": R.backend, "name": R.name, "generators": gens}
