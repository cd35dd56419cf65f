import pickle
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank_oracle
from sigmafp import linalg
from sigmafp.decisions import run_measure_experiment
from sigmafp.formats import load_fixture
from sigmafp.linalg import (
    Matrix,
    Subspace,
    avoids_block,
    det,
    inverse,
    kernel_basis,
    rank,
    rref,
    pivot,
    subspaces_intersect_trivially,
    vec_dot,
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
    stacked = Matrix(3, 3, plane.basis.entries + line.basis.entries)
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
    zero = (0,) * m.rows
    assert all(m.mul_vec(v) == zero for v in kernel_basis(m).basis.entries)


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
    for wrong_length in (vector([1, 0]), vector([0, 0, 0, 0])):
        with pytest.raises(ValueError):
            s.contains(wrong_length)


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


# Entries of both kinds the package meets: small integers, where dependent
# draws are common, and the sampling grid a / 2**16 with |a| <= 2**20.
grid_entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.integers(-(1 << 20), 1 << 20).map(lambda a: Fraction(a, 1 << 16)),
)


@st.composite
def subspace_pairs(draw):
    """Generator rows of two subspaces of Q^n, n in 2..6: independent draws,
    equal spans, nested spans, or more rows in total than n."""
    n = draw(st.integers(2, 6))
    row = st.lists(grid_entries, min_size=n, max_size=n)
    u_rows = draw(st.lists(row, min_size=1, max_size=n))
    kind = draw(st.sampled_from(["random", "equal", "nested", "overfull"]))
    if kind == "random":
        v_rows = draw(st.lists(row, min_size=1, max_size=n))
    elif kind == "overfull":
        v_rows = draw(st.lists(row, min_size=n + 1 - len(u_rows), max_size=n))
    else:
        picked = u_rows if kind == "equal" else u_rows[: draw(st.integers(1, len(u_rows)))]
        # integer combinations of the picked rows span a subspace of theirs
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(picked), max_size=len(picked)))
        combo = [sum(c * r[j] for c, r in zip(coeffs, picked)) for j in range(n)]
        v_rows = picked[1:] + [combo] + picked[:1]
    return u_rows, v_rows


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_intersect_trivially_matches_fraction_rank_oracle(pair):
    u_rows, v_rows = pair
    u, v = Subspace.span(u_rows), Subspace.span(v_rows)
    expected = rank_oracle(u_rows + v_rows) == rank_oracle(u_rows) + rank_oracle(v_rows)
    assert subspaces_intersect_trivially(u, v) == expected
    assert subspaces_intersect_trivially(v, u) == expected
    u_rank = rank_oracle(u_rows)
    for row in v_rows:
        assert u.contains(vector(row)) == (rank_oracle(u_rows + [row]) == u_rank)
    # rebuilt from the RREF basis, or unpickled: integer rows derived from the basis
    for w in (Subspace(u.ambient_dim, u.basis, u.pivot_columns), pickle.loads(pickle.dumps(u))):
        assert subspaces_intersect_trivially(w, v) == expected
        assert subspaces_intersect_trivially(v, w) == expected
        for row in v_rows:
            assert w.contains(vector(row)) == (rank_oracle(u_rows + [row]) == u_rank)


P = (1 << 61) - 1


def test_full_rank_over_q_but_not_mod_p_falls_back(exact_ranks, exact_rrefs):
    # (p, 1) is kept as the integer row (p, 1), which is (0, 1) mod p
    assert subspaces_intersect_trivially(Subspace.span([[P, 1]]), Subspace.span([[0, 1]]))
    assert len(exact_ranks) == 1 and exact_rrefs == []
    # both rows of the plane are (0, 0, 1) mod p, so the span is reduced
    # exactly, on integers and with no RREF; det of the stack is 1 - 2/p
    plane = Subspace.span([[P, 0, 1], [0, P, 1]])
    assert plane.dim == 2 and exact_rrefs == []
    assert subspaces_intersect_trivially(plane, Subspace.span([[1, 1, 1]]))
    assert len(exact_ranks) == 2
    assert Subspace.span([[P, 0, 1], [0, P, 1], [1, 1, 1]]).dim == 3
    assert exact_rrefs == [] and len(exact_ranks) == 2


def test_truly_dependent_rows_fall_back_and_stay_dependent(exact_ranks, exact_rrefs):
    line = Subspace.span([[P, 1]])
    assert not subspaces_intersect_trivially(line, Subspace.span([[2 * P, 2]]))
    assert len(exact_ranks) == 1 and exact_rrefs == []
    assert Subspace.span([[1, 2], [2, 4]]).dim == 1
    assert exact_rrefs == [] and len(exact_ranks) == 1


def test_dimension_count_and_mod_p_exits_skip_the_fallback(exact_ranks):
    plane = Subspace.span([[1, 0, 0], [0, 1, 0]])
    assert not subspaces_intersect_trivially(plane, Subspace.span([[1, 1, 1], [0, 0, 1]]))
    assert subspaces_intersect_trivially(plane, Subspace.span([[1, 1, 1]]))
    assert exact_ranks == []


def test_measure_on_f2_never_reaches_the_fallback(exact_ranks):
    report = run_measure_experiment(load_fixture("f2"), k=4, samples=50, seed=42)
    assert report.samples == 50 and report.vsp_failures == 0
    assert exact_ranks == []


def test_cached_residues_are_invisible():
    rows = [[3, Fraction(1, 7), 0], [1, 1, Fraction(-2, 5)]]
    used = Subspace.span(rows)
    assert subspaces_intersect_trivially(used, Subspace.span([[0, 0, 1]]))
    # kept on its rows scaled to integers; no RREF is built before a read
    assert used._integers == ((21, 1, 0), (5, 5, -2))
    assert "_residues" in vars(used) and "_rref" not in vars(used)
    assert [c for c, _ in used._echelon] == [0, 1]
    assert not hasattr(used, "_rows")
    fresh = Subspace.span(rows)
    assert "_rref" not in vars(fresh)
    # integer rows of the same span build their basis only when read too
    lazy = Subspace.of_integer_rows(3, [[105, 5, 0], [35, 35, -14]])
    assert subspaces_intersect_trivially(lazy, Subspace.span([[0, 0, 1]])) and lazy.dim == 2
    assert "_residues" in vars(lazy) and "_rref" not in vars(lazy)
    assert lazy.basis == fresh.basis and lazy.pivot_columns == fresh.pivot_columns
    assert "_rref" in vars(lazy) and "_rref" in vars(fresh)
    clone = pickle.loads(pickle.dumps(used))
    # built from its basis, the clone holds that basis's integer rows at once
    assert vars(clone)["_integers"] == ((50, 0, 1), (0, 50, -21))
    for s in (used, clone, lazy):
        assert s == fresh
        assert hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert pickle.dumps(s) == pickle.dumps(Subspace.span(rows))
        assert pickle.loads(pickle.dumps(s)) == fresh
    assert subspaces_intersect_trivially(clone, Subspace.span([[0, 0, 1]]))
    assert clone._integers == ((50, 0, 1), (0, 50, -21))
    # each keeps the echelon of its own rows, which nothing observable shows
    assert len({repr(s._echelon) for s in (used, clone, lazy)}) == 3
    # the plane x1 + x2 = P x3: on (P, 0, 1), (0, P, 1) the rows stay
    # dependent mod P after the exact reduction and keep no echelon; on
    # (1, -1, 0), (P, 0, 1) they are independent mod P
    no_echelon = Subspace.span([[P, 0, 1], [0, P, 1]])
    echelon = Subspace.span([[1, -1, 0], [P, 0, 1]])
    assert no_echelon._echelon is None and echelon._echelon is not None
    assert no_echelon == echelon and hash(no_echelon) == hash(echelon)
    assert repr(no_echelon) == repr(echelon)
    assert pickle.dumps(no_echelon) == pickle.dumps(echelon)
    assert pickle.loads(pickle.dumps(no_echelon)) == echelon
    # workers inherit piece spans whose residues the serial run kept
    p = load_fixture("f2")
    serial = run_measure_experiment(p, k=4, samples=40, seed=3)
    pooled = run_measure_experiment(p, k=4, samples=40, seed=3, jobs=2)
    assert {**vars(serial), "elapsed_ms": 0} == {**vars(pooled), "elapsed_ms": 0}


@st.composite
def rows_with_p_shifts(draw):
    """Integer rows in Z^n, n in 2..5, split into the rows of s and of t.
    Besides random rows, some repeat an earlier row, some are integer
    combinations of earlier rows and some add multiples of P to an earlier
    row or to 0, so that many row sets are dependent only mod P."""
    n = draw(st.integers(2, 5))
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["random", "repeat", "combination", "mod P"]))
        if kind == "random" or not rows:
            row = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        else:
            base = draw(st.sampled_from(rows + [[0] * n]))
            shifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            row = [a + m * P for a, m in zip(base, shifts)]
        rows.append(row)
    cut = draw(st.integers(1, len(rows) - 1))
    return n, rows[:cut], rows[cut:]


@given(rows_with_p_shifts())
@settings(max_examples=200, deadline=None)
def test_kept_echelon_answers_match_rank_oracle(case):
    n, s_rows, t_rows = case
    s, t = Subspace.of_integer_rows(n, s_rows), Subspace.of_integer_rows(n, t_rows)
    expected = rank_oracle(s_rows + t_rows) == rank_oracle(s_rows) + rank_oracle(t_rows)
    assert subspaces_intersect_trivially(s, t) == expected
    assert subspaces_intersect_trivially(t, s) == expected
    # every block [a, b), pivots of s's echelon inside it or not
    s_rank = rank_oracle(s_rows)
    for a in range(n):
        for b in range(a + 1, n + 1):
            block = [[1 if c == j else 0 for c in range(n)] for j in range(a, b)]
            avoids = rank_oracle(s_rows + block) == s_rank + b - a
            assert avoids_block(s, a, b) == avoids


def test_block_without_an_echelon_pivot_takes_no_arithmetic(monkeypatch, exact_ranks):
    reductions = []
    real_echelon = linalg._echelon_mod_p

    def counting_echelon(rows, kept=()):
        reductions.append(rows)
        return real_echelon(rows, kept)

    monkeypatch.setattr(linalg, "_echelon_mod_p", counting_echelon)
    # (1, 0, 1), (0, P, 1) reduce mod P to pivots 0 and 2: block [1, 2)
    # holds neither and is settled by the echelon alone; [0, 1) holds one
    # and its restricted rows are reduced.
    s = Subspace.of_integer_rows(3, [[1, 0, 1], [0, P, 1]])
    assert [c for c, _ in s._echelon] == [0, 2]
    reductions.clear()
    assert avoids_block(s, 1, 2) and reductions == [] and exact_ranks == []
    assert avoids_block(s, 0, 1) and len(reductions) == 1 and len(exact_ranks) == 1
    # with no echelon, a block goes straight to the exact rank
    plane = Subspace.span([[P, 0, 1], [0, P, 1]])
    assert plane._echelon is None
    reductions.clear()
    assert avoids_block(plane, 2, 3) and not avoids_block(plane, 0, 2)
    assert reductions == [] and len(exact_ranks) == 3


# Sparse integer entries like the simplex's: mostly 0 and +/-1.
sparse_entries = st.one_of(st.sampled_from([0] * 4 + [1, -1]), st.integers(-6, 6))


def dense_pivot(work, r, c):
    """Reference pivot on `Fraction` rows: every entry of every row, as new lists."""
    inv = 1 / work[r][c]
    row = [inv * a for a in work[r]]
    return [row if i == r else [a - other[c] * b for a, b in zip(other, row)]
            for i, other in enumerate(work)]


def _pivot_entries(rows):
    return [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a]


def _check_pivot(rows, d, r, c):
    """The integer pivot of d * rows over d, read as `Fraction`s over the
    denominator it returns, must equal the dense pivot of rows."""
    work = [[d * a for a in row] for row in rows]
    assert d.denominator == 1 and all(a.denominator == 1 for row in work for a in row)
    work = [[int(a) for a in row] for row in work]
    new_d = pivot(work, r, c, int(d))
    assert new_d == work[r][c] != 0
    assert all(type(a) is int for row in work for a in row)
    assert [[Fraction(a, new_d) for a in row] for row in work] == dense_pivot(rows, r, c)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pivot_matches_dense_reference(data):
    # Integer rows taken from d = 1 through up to three dense pivots, so d is
    # a minor of the drawn rows, then one more pivot on an entry of any sign.
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 6))
    integers = data.draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))
    rows = [[Fraction(a) for a in row] for row in integers]
    d = Fraction(1)
    for _ in range(data.draw(st.integers(0, 3))):
        if _pivot_entries(rows):
            r, c = data.draw(st.sampled_from(_pivot_entries(rows)))
            d *= rows[r][c]
            rows = dense_pivot(rows, r, c)
    if _pivot_entries(rows):
        _check_pivot(rows, d, *data.draw(st.sampled_from(_pivot_entries(rows))))


def test_pivot_on_a_negative_entry_over_a_denominator_not_one():
    rows = [[Fraction(a) for a in row] for row in ([2, 1, 4], [1, -1, 5], [3, 0, 1])]
    # after the pivot on the 2 at (0, 0), d = 2 and the entry at (1, 1) is -3/2
    rows = dense_pivot(rows, 0, 0)
    assert rows[1][1] == Fraction(-3, 2)
    _check_pivot(rows, Fraction(2), 1, 1)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_det_inverse_leave_their_input_unchanged(m):
    before = Matrix.from_rows([list(row) for row in m.entries])
    rref(m)
    if m.rows == m.cols:
        det(m)
        try:
            inverse(m)
        except ValueError:
            pass
    assert m == before
    assert all(type(row) is tuple for row in m.entries)


def test_vec_dot_skips_zero_products():
    assert vec_dot(vector([0, 3, 0]), vector([5, 0, 0])) == 0
    assert type(vec_dot(vector([0, 3]), vector([5, 0]))) is Fraction
    assert type(vec_dot((), ())) is Fraction
    assert vec_dot(vector([0, 3, Fraction(1, 2)]), vector([7, 2, -4])) == 4


def test_vector_keeps_fraction_entries():
    half = Fraction(1, 2)
    v = vector([half, 2, "3/4"])
    assert v == (half, Fraction(2), Fraction(3, 4))
    assert v[0] is half
    assert all(type(a) is Fraction for a in v)


def test_integer_rows_dependent_mod_p_are_reduced_exactly(exact_ranks):
    # (1, 0) and (0, P) are (1, 0) and 0 mod P, independent over Q
    s = Subspace.of_integer_rows(2, [[1, 0], [0, P]])
    assert s.dim == 2 and s == Subspace.full(2)
    line = Subspace.of_integer_rows(2, [[1, 2], [2, 4]])
    assert line.dim == 1 and line == Subspace.span([[1, 2]])
    assert not subspaces_intersect_trivially(line, Subspace.of_integer_rows(2, [[-3, -6]]))
    # both constructions reduce with `_eliminate`, not rank; only the stacked rows
    # (1, 2), (-3, -6), dependent mod P as over Q, reach the exact rank
    assert [m.entries for m in exact_ranks] == [((1, 2), (-3, -6))]
    with pytest.raises(ValueError):
        Subspace.of_integer_rows(3, [[1, 0]])
