from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmafp.linalg import (
    Matrix,
    Subspace,
    det,
    inverse,
    kernel_basis,
    rank,
    rref,
    subspaces_intersect_trivially,
    vector,
)

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


def mat(rows):
    return Matrix.from_rows(rows)


def test_rref_rank_one_collapse():
    reduced, pivots = rref(mat([[2, 4], [1, 2]]))
    assert reduced == mat([[1, 2]])
    assert pivots == (0,)


def test_rref_identity():
    reduced, pivots = rref(Matrix.identity(3))
    assert reduced == Matrix.identity(3)
    assert pivots == (0, 1, 2)


def test_rref_row_swap():
    reduced, pivots = rref(mat([[0, 1], [1, 0]]))
    assert reduced == Matrix.identity(2)
    assert pivots == (0, 1)


def test_kernel_one_equation():
    assert kernel_basis(mat([[1, 1]])) == Subspace.span([[1, -1]])


def test_kernel_identity_is_zero_subspace():
    assert kernel_basis(Matrix.identity(2)) == Subspace.zero(2)


def test_kernel_coordinate_plane():
    assert kernel_basis(mat([[1, 0, 0]])) == Subspace.span([[0, 1, 0], [0, 0, 1]])


def test_intersect_trivially_axes():
    assert subspaces_intersect_trivially(Subspace.span([[1, 0]]), Subspace.span([[0, 1]]))


def test_intersect_trivially_same_line():
    line = Subspace.span([[1, 1]])
    assert not subspaces_intersect_trivially(line, line)


def test_intersect_trivially_plane_and_line():
    # rank of the 3x3 stack is 3 by direct elimination
    plane = Subspace.span([[1, 0, 0], [0, 1, 0]])
    line = Subspace.span([[1, 1, 1]])
    stacked = plane.basis.stack(line.basis)
    assert rank(stacked) == 3
    assert subspaces_intersect_trivially(plane, line)


def test_intersect_dim_mismatch():
    with pytest.raises(ValueError):
        subspaces_intersect_trivially(Subspace.span([[1, 0]]), Subspace.span([[1, 0, 0]]))


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(st.lists(small_fracs, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return Matrix.from_rows(rows)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@given(matrices(max_dim=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_subspace_canonical_under_row_mixing(m, rnd):
    """Independently generated bases of the same row space give the same RREF."""
    original = Subspace.span(list(m.entries), ambient_dim=m.cols)
    mixed = [list(r) for r in m.entries]
    for _ in range(4):
        i = rnd.randrange(len(mixed))
        j = rnd.randrange(len(mixed))
        c = Fraction(rnd.randrange(1, 4))
        if i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        else:
            mixed[i] = [c * a for a in mixed[i]]
    assert Subspace.span(mixed, ambient_dim=m.cols) == original


@given(matrices(max_dim=3), matrices(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_intersect_trivially_symmetric(a, b):
    if a.cols != b.cols:
        return
    u = Subspace.span(list(a.entries), ambient_dim=a.cols)
    v = Subspace.span(list(b.entries), ambient_dim=b.cols)
    assert subspaces_intersect_trivially(u, v) == subspaces_intersect_trivially(v, u)


def test_subspace_contains():
    s = Subspace.span([[1, 0, 2], [0, 1, 3]])
    assert s.contains(vector([2, 1, 7]))
    assert not s.contains(vector([0, 0, 1]))
    assert Subspace.zero(3).contains(vector([0, 0, 0]))


def test_det_and_inverse():
    m = mat([[1, 2], [3, 4]])
    assert det(m) == -2
    assert m.mul(inverse(m)) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


def permutation_det(m):
    """Leibniz expansion: sum over permutations of sign * product of entries."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m.entries[i][j]
        total += term
    return total


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    # small integers make singular draws common enough to exercise both branches
    entry = st.one_of(st.integers(-2, 2).map(Fraction), small_fracs)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix.from_rows(rows)


@given(square_matrices())
@settings(max_examples=120, deadline=None)
def test_det_matches_permutation_expansion_and_inverse(m):
    d = permutation_det(m)
    assert det(m) == d
    if d != 0:
        assert inverse(m).mul(m) == Matrix.identity(m.rows)
    else:
        with pytest.raises(ValueError):
            inverse(m)
