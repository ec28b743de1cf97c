"""Algebra backends and the Pauli / regular representations."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcsq.f2core import complete_bipartite, incidence_system
from lcsq.fpgroups import Presentation, regular_table, solution_presentation, todd_coxeter
from lcsq.reps import (DenseElement, GroupAlgebraElement, Representation,
                       group_algebra_rep, pauli_magic_square_rep, verify_representation)
from oracles import EnumeratedGroup, regular_perm_rep, system


def as_array(e: DenseElement) -> np.ndarray:
    """A dense element as a numpy complex128 matrix, the tests' oracle."""
    return np.array([[complex(re, im) for re, im in row] for row in e.to_json()])


# ---------------------------------------------------------------------------
# Pauli representation


def test_pauli_images_are_involutions(pauli_rep):
    assert len(pauli_rep.images) == 9
    for x in pauli_rep.images:
        assert x.algebra == 4
        assert np.allclose(as_array(x) @ as_array(x), np.eye(4))
        assert np.allclose(as_array(x), as_array(x).conj().T)


def test_pauli_distinguished_product_is_minus_identity(pauli_rep, k33_sys_e1):
    sys = k33_sys_e1
    prod = np.eye(4, dtype=complex)
    for i in sys.support(0):
        prod = prod @ as_array(pauli_rep.images[i])
    assert np.allclose(prod, -np.eye(4))
    for k in range(1, 6):
        prod = np.eye(4, dtype=complex)
        for i in sys.support(k):
            prod = prod @ as_array(pauli_rep.images[i])
        assert np.allclose(prod, np.eye(4))


def test_pauli_block_commutators_vanish(pauli_rep, k33_sys_e1):
    sys = k33_sys_e1
    for k in range(6):
        support = sys.support(k)
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                X = as_array(pauli_rep.images[support[a]])
                Y = as_array(pauli_rep.images[support[b]])
                assert np.linalg.norm(X @ Y - Y @ X) < 1e-12


def test_pauli_verification_tight(pauli_rep, k33_sys_e1):
    report = verify_representation(pauli_rep, k33_sys_e1)
    assert report.passed
    assert report.max_residual == 0.0


@pytest.mark.parametrize("distinguished", range(6))
def test_pauli_all_distinguished_positions(distinguished):
    rep = pauli_magic_square_rep(distinguished)
    sys = incidence_system(complete_bipartite(3, 3),
                           tuple(int(k == distinguished) for k in range(6)))
    report = verify_representation(rep, sys)
    assert report.passed
    prod = np.eye(4, dtype=complex)
    for i in sys.support(distinguished):
        prod = prod @ as_array(rep.images[i])
    assert np.allclose(prod, -np.eye(4))


def test_pauli_rejects_bad_flag():
    with pytest.raises(ValueError):
        pauli_magic_square_rep(6)


def test_swapped_images_fail_with_named_product(pauli_rep, k33_sys_e1):
    # swap two images from different rows/columns: some constraint product breaks
    images = list(pauli_rep.images)
    images[0], images[4] = images[4], images[0]
    broken = Representation(images)
    report = verify_representation(broken, k33_sys_e1)
    assert not report.passed
    assert any(name.startswith("product:") and r > 1.0
               for name, r, _ in report.families)


# ---------------------------------------------------------------------------
# group-algebra backend


def test_group_algebra_z2():
    P = Presentation(("x",), ((0, 0),))
    R = group_algebra_rep(regular_table(P))
    x = R.images[0]
    assert x * x == R.identity()
    assert x.adjoint() == x


def test_group_algebra_k33_all_commute(regular33):
    R = group_algebra_rep(regular33)
    for i in range(9):
        for j in range(i + 1, 9):
            a, b = R.images[i], R.images[j]
            assert a * b == b * a


def test_group_algebra_k34_noncommuting_disjoint_pair(regular34, k34_sys0):
    R = group_algebra_rep(regular34)
    sharing = set()
    for k in range(k34_sys0.num_constraints):
        s = k34_sys0.support(k)
        sharing.update((s[a], s[b]) for a in range(len(s)) for b in range(len(s)))
    found = None
    for i in range(12):
        for j in range(i + 1, 12):
            if (i, j) in sharing:
                continue
            a, b = R.images[i], R.images[j]
            if a * b != b * a:
                found = (i, j)
                break
        if found:
            break
    assert found is not None


def test_group_algebra_verifies_exactly(regular34, k34_sys0):
    R = group_algebra_rep(regular34)
    report = verify_representation(R, k34_sys0)
    assert report.passed
    assert report.max_residual == 0.0


def test_group_algebra_requires_complete_table(k34_sys0, table34):
    # a capped enumeration has no regular table, and a coset table, capped
    # or complete, is not the context of a group algebra
    P = solution_presentation(k34_sys0, homogeneous=True)
    partial = todd_coxeter(P, [], cap=10)
    assert regular_table(P, cap=10) is None
    for table in (partial, table34):
        with pytest.raises(TypeError, match="needs a fpgroups.RegularTable, not CosetTable"):
            group_algebra_rep(table)


def test_dyadic_normalization(regular33):
    e = GroupAlgebraElement(regular33, {0: 4, 1: 8}, 3)
    assert e.coeffs == {0: 1, 1: 2} and e.exp == 1
    zero = e - e
    assert not zero.coeffs and zero.exp == 0 and zero.residual_norm() == 0.0
    assert e.to_json() == [[0, 1, 1], [1, 2, 1]]


def reference_normalize(coeffs, exp):
    """The halving loop that normalized group-algebra elements: halve every
    numerator while all are even and exp > 0."""
    coeffs = {g: c for g, c in coeffs.items() if c}
    if not coeffs:
        return {}, 0
    while exp > 0 and all(c % 2 == 0 for c in coeffs.values()):
        coeffs = {g: c // 2 for g, c in coeffs.items()}
        exp -= 1
    return coeffs, exp


# numerators with many factors of two, negative ones and zeros included
numerators = st.builds(lambda m, k: m << k, st.integers(-40, 40), st.integers(0, 12))
raw_elements = st.tuples(st.dictionaries(st.integers(0, 15), numerators, max_size=6),
                         st.integers(0, 10))


@settings(max_examples=150, deadline=None)
@given(raw_elements)
def test_normalization_matches_halving_loop(regular33, raw):
    coeffs, exp = raw
    e = GroupAlgebraElement(regular33, coeffs, exp)
    assert (e.coeffs, e.exp) == reference_normalize(coeffs, exp)


@settings(max_examples=100, deadline=None)
@given(st.lists(raw_elements, max_size=5), st.lists(raw_elements, max_size=5))
def test_combine_is_the_exact_sum_and_difference(regular33, plus, minus):
    if not plus and not minus:
        with pytest.raises(ValueError, match="at least one term"):
            GroupAlgebraElement.combine([], [])
        return
    value = {}
    for sign, side in ((1, plus), (-1, minus)):
        for coeffs, exp in side:
            for g, c in coeffs.items():
                value[g] = value.get(g, 0) + sign * Fraction(c, 2 ** exp)
    e = GroupAlgebraElement.combine([GroupAlgebraElement(regular33, c, x) for c, x in plus],
                                    [GroupAlgebraElement(regular33, c, x) for c, x in minus])
    assert {g: Fraction(c, 2 ** e.exp) for g, c in e.coeffs.items()} == \
        {g: v for g, v in value.items() if v}
    assert e.exp == 0 or any(c % 2 for c in e.coeffs.values())


def test_combine_rejects_mixed_algebras(regular33, regular34):
    a = GroupAlgebraElement.basis_element(regular33, 0)
    b = GroupAlgebraElement.basis_element(regular34, 0)
    with pytest.raises(ValueError, match="different group algebras"):
        GroupAlgebraElement.combine([a], [b])


def test_group_algebra_inverse_map(regular34):
    def basis(g):
        return GroupAlgebraElement.basis_element(regular34, g)

    one = basis(0)
    for g in range(regular34.num_cosets):
        assert basis(g) * basis(regular34.inverse(g)) == one
        assert regular34.inverse(regular34.inverse(g)) == g


def test_no_reference_cycle_keeps_a_context_alive(k34_sys0):
    # the table that is the elements' algebra, with its caches (products,
    # inverses, the numbering), goes with the last element over it, without
    # waiting for a cyclic collection
    P = solution_presentation(k34_sys0, homogeneous=True)
    gc.disable()
    try:
        R = group_algebra_rep(regular_table(P))
        table = weakref.ref(R.images[0].algebra)
        x, y = R.images[0], R.images[5]
        z = (x * y - y * x).adjoint()
        assert z.to_json()
        assert table()._right and table()._inverse and "numbering" in vars(table())
        del R, x, y, z
        assert table() is None
    finally:
        gc.enable()


def test_adjoint_is_involutive_antiautomorphism(regular34):
    rng = random.Random(17)

    def rand_elem():
        coeffs = {rng.randrange(regular34.num_cosets): rng.randint(-5, 5) for _ in range(6)}
        return GroupAlgebraElement(regular34, coeffs, rng.randint(0, 4))

    for _ in range(25):
        a, b = rand_elem(), rand_elem()
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a
        assert (a + b).adjoint() == a.adjoint() + b.adjoint()


# ---------------------------------------------------------------------------
# projections and backend agreement


def dense_regular_rep(table, sys) -> Representation:
    perms = regular_perm_rep(table)
    n = table.num_cosets
    images = []
    for g in range(sys.num_vars):
        mat = np.zeros((n, n))
        for c in range(n):
            mat[perms[g][c], c] = 1.0
        images.append(DenseElement(mat))
    return Representation(images)


def test_projections_both_backends(regular33, table33, k33_sys0, pauli_rep):
    for R in (group_algebra_rep(regular33), pauli_rep,
              dense_regular_rep(table33, k33_sys0)):
        one = R.identity()
        for i in range(3):
            plus, minus = R.projection(i, 1), R.projection(i, -1)
            for p in (plus, minus):
                assert (p * p - p).residual_norm() == 0.0
                assert (p - p.adjoint()).residual_norm() == 0.0
            assert (plus + minus - one).residual_norm() == 0.0
            assert (plus * minus).residual_norm() == 0.0


def test_backends_agree_on_verdicts(regular33, table33, k33_sys0):
    exact = group_algebra_rep(regular33)
    dense = dense_regular_rep(table33, k33_sys0)
    assert verify_representation(exact, k33_sys0).passed
    assert verify_representation(dense, k33_sys0).passed

    def corrupt(R):
        images = list(R.images)
        images[0], images[3] = images[3], images[0]
        return Representation(images)

    bad_exact = verify_representation(corrupt(exact), k33_sys0)
    bad_dense = verify_representation(corrupt(dense), k33_sys0)
    assert not bad_exact.passed and not bad_dense.passed
    exact_failures = {n for n, r, _ in bad_exact.families if r > 0.0}
    dense_failures = {n for n, r, _ in bad_dense.families if r > 1e-10}
    assert exact_failures == dense_failures


# ---------------------------------------------------------------------------
# verification plumbing


def test_generator_count_mismatch(pauli_rep):
    small = system([[1, 1]], (0,))
    with pytest.raises(ValueError, match="images"):
        verify_representation(pauli_rep, small)


@pytest.mark.parametrize("backend", ["dense", "group_algebra"])
def test_mixed_dimensions_rejected(monkeypatch, regular33, regular34, backend):
    # an image over another algebra is named before any product is formed
    sys = system([[1, 1]], (0,))
    if backend == "dense":
        images = [DenseElement(np.eye(2)), DenseElement(np.eye(3))]
    else:
        images = [GroupAlgebraElement.basis_element(T, 0) for T in (regular33, regular34)]

    def no_products(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(type(images[0]), "__mul__", no_products)
    with pytest.raises(ValueError, match="image x2 is over another algebra than x1"):
        verify_representation(Representation(images), sys)


@pytest.mark.parametrize("cls", [DenseElement, GroupAlgebraElement])
def test_each_element_type_holds_its_own_operators(cls):
    # bench/tracer.py counts each type's arithmetic by wrapping the
    # operators in the class's own __dict__, not those of a base class
    assert {"__add__", "__sub__", "__mul__"} <= cls.__dict__.keys()


def test_an_element_knows_its_algebra(pauli_rep, regular33, regular34):
    x = pauli_rep.images[0]
    assert (x.backend, x.algebra, x.commutative) == ("dense", 4, False)
    assert DenseElement.identity(1).commutative
    assert not x.same_algebra(DenseElement.identity(2))
    assert x.same_algebra(x.unit())
    basis = GroupAlgebraElement.basis_element
    g = basis(regular33, 1)
    assert (g.backend, g.algebra, g.commutative) == ("group_algebra", regular33, True)
    assert not basis(regular34, 1).commutative
    assert g.same_algebra(basis(regular33, 0))
    assert not g.same_algebra(basis(regular34, 1))
    assert not g.same_algebra(DenseElement.identity(1))


def test_commuting_supports_match_products(table34, regular34):
    # group elements commute exactly when their basis elements do, and a
    # support commutes when every two of its elements do; on star
    # coordinates and on the trivial-subgroup enumeration alike
    for table in (EnumeratedGroup(table34), regular34):
        rng = random.Random(0)
        sample = rng.sample(range(table34.num_cosets), 24)
        for g in sample:
            for h in sample:
                x, y = (GroupAlgebraElement.basis_element(table, e) for e in (g, h))
                assert table.commuting({g, h}) == (x * y == y * x)
        noncommuting = next((g, h) for g in sample for h in sample
                            if not table.commuting({g, h}))
        assert not table.commuting(set(sample))
        x, y = (GroupAlgebraElement.basis_element(table, g) for g in noncommuting)
        assert not x.supports_commute([x + x.unit(), y])
        assert x.supports_commute([x, x.adjoint(), x.unit()])


def test_a_commutative_algebra_proves_every_support_commutes(pauli_rep, regular33):
    one = DenseElement.identity(1)
    assert one.supports_commute([one, one - one])
    x = pauli_rep.images[0]
    assert not x.supports_commute([x, x.unit()])  # true, but not proven
    elems = [GroupAlgebraElement.basis_element(regular33, g)
             for g in range(regular33.num_cosets)]
    assert elems[0].supports_commute(elems)


# ---------------------------------------------------------------------------
# exact dense arithmetic against numpy complex128 (exact on these inputs:
# every numerator and product is far below 2^53)


@st.composite
def dyadic_matrices(draw, d=None):
    """A d x d matrix with entries (re + i * im) / 2^exp, |re|, |im| <= 16,
    exp <= 4, as a DenseElement and as its complex128 array."""
    d = d or draw(st.sampled_from([1, 2, 4]))
    exp = draw(st.integers(0, 4))
    nums = st.integers(-16, 16) | st.just(0)
    parts = draw(st.lists(st.tuples(nums, nums), min_size=d * d, max_size=d * d))
    arr = np.array([complex(re, im) for re, im in parts]).reshape(d, d) / 2 ** exp
    return DenseElement(arr), arr


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dense_arithmetic_matches_numpy(data):
    a, A = data.draw(dyadic_matrices())
    b, B = data.draw(dyadic_matrices(a.algebra))
    others = data.draw(st.lists(dyadic_matrices(a.algebra), max_size=4))
    assert np.array_equal(as_array(a), A)
    assert np.array_equal(as_array(a * b), A @ B)
    assert np.array_equal(as_array(a.adjoint()), A.conj().T)
    assert np.array_equal(as_array(a.halve()), A / 2)
    assert np.array_equal(as_array(-a), -A)
    plus = [a, *(e for e, _ in others[::2])]
    minus = [b, *(e for e, _ in others[1::2])]
    expected = A + sum(M for _, M in others[::2]) - B - sum(M for _, M in others[1::2])
    assert np.array_equal(as_array(DenseElement.combine(plus, minus)), expected)
    assert np.array_equal(as_array(a + b), A + B)
    assert np.array_equal(as_array(a - b), A - B)
    assert a.residual_norm() == np.linalg.norm(A)
    assert (a.residual_norm() == 0.0) == (not A.any()) == (not a.coeffs)
    assert a.exp == 0 or any(c % 2 for c in a.coeffs.values())


@pytest.mark.parametrize("bad", [
    [[1, 2, 3], [4, 5, 6]],            # 2 x 3
    [[1, 2], [3]],                     # ragged
    [1, 2],                            # one-dimensional
    [],                                # empty
    [[float("inf")]],
    [[0, 1], [complex(0, float("-inf")), 0]],
    [[float("nan"), 0], [0, 0]],
    np.zeros((2, 3)),
])
def test_dense_constructor_rejects(bad):
    with pytest.raises(ValueError):
        DenseElement(bad)


def test_dense_constructor_is_exact():
    e = DenseElement([[0.1]])
    assert e.coeffs == {0: 3602879701896397} and e.exp == 55
    assert DenseElement([[0.5, -0.25j], [0, 2]]) == \
        DenseElement([[2, -1j], [0, 8]]).halve().halve()
