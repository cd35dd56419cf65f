"""Exact rational linear algebra: vectors, matrices, RREF, kernels, subspaces.

Every coordinate is a `fractions.Fraction`, or an `int` in a cone's rays, so
ranks, kernels, and equality tests are exact.  A subspace is kept on linearly
independent integer rows (rows scaled by the lcm of their denominators), and
there is one way to build one, `Subspace.of_integer_rows`.  Its dimension,
membership and every rank question are answered on those rows, whatever
basis they form.  Its reduced row-echelon basis is canonical (two subspaces
are equal iff those bases are entry-wise equal), and only a read of `basis`
or `pivot_columns` builds it in `Fraction`s.

One row operation, `pivot`, is the whole of Gauss-Jordan elimination in the
package: it is the inner step of `_eliminate`, behind `rref`, `det`,
`inverse` and `kernel_basis`, and of the simplex tableau in `lp`.  It is
fraction-free (Edmonds 1967, Bareiss 1968): its rows hold integers over one
shared denominator d, and a pivot on the entry p of row r turns every other
row i into (p*T_i - T_ic*T_r) // d, which Sylvester's identity makes exact,
and makes p the new denominator.  `_eliminate` runs it from d = 1 on the
rows scaled to integers by `integer_rows`.  `Fraction`s are built only at
the edges: the entries T/d of the RREF and of the inverse (the right half
of the reduced `[M | I]`), and the determinant, +/-d over the product of
the row scales.  `kernel_basis` reads integer vectors off the reduced
rows, and a `Subspace` spanned by dependent rows keeps the nonzero reduced
rows themselves.  `vec_dot` skips every pair that holds a zero.

Full row rank, on all columns or on a subset, and with it "do two subspaces
meet only in 0?", is decided modulo the prime P = 2**61 - 1 first, on the
integer rows reduced mod P: if those residue rows are independent over F_P,
some maximal minor of the integer rows is nonzero mod P, hence a nonzero
integer, so the rows are independent over Q.  Only a rank deficient mod P
falls back to the exact `rank` of the integer rows.  A verdict therefore
never depends on P, only the time taken to reach it.  A `Subspace` keeps
its residue rows, and the echelon mod P that its construction's
independence test builds from them, from the moment it is built.  Every
rank question reuses that echelon: two subspaces meet only in 0 if the
lower-dimensional one's residue rows extend the other's echelon, and a
subspace with no echelon pivot inside a coordinate block avoids the block
with no arithmetic at all.  A subspace whose rows stay dependent mod P
keeps no echelon and takes the exact path.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# The modulus of the full-rank test: the Mersenne prime 2**61 - 1.
P = (1 << 61) - 1


def vector(entries: Iterable) -> Vector:
    """The entries as a tuple of `Fraction`s; entries that already are one are kept."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vec_dot(u: Vector, v: Vector) -> Fraction:
    """Exact dot product; pairs with a zero entry are skipped, so all-zero products give ZERO."""
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def linf_norm(v: Vector) -> Fraction:
    return max((abs(a) for a in v), default=ZERO)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    @staticmethod
    def from_rows(rows: Sequence[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        return Matrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def mul_vec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(r, v) for r in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.column(j) for j in range(other.cols)]
        data = tuple(tuple(vec_dot(r, c) for c in cols) for r in self.entries)
        return Matrix(self.rows, other.cols, data)


def pivot(work: list[Sequence[int]], r: int, c: int, d: int) -> int:
    """Fraction-free Gauss-Jordan step on integer rows work/d; returns the new d.

    Row r is kept, now over p = work[r][c]; every other row i is replaced by
    (p*work[i] - work[i][c]*work[r]) // d, exact by Sylvester's identity if
    d is an integer multiple of the determinant of the basis work/d is
    reduced on (1 for unpivoted integer rows); with 0 in column c a row is
    only rescaled, and kept if p == d.  No row is changed in place.
    """
    row = work[r]
    p = row[c]
    for i, other in enumerate(work):
        if i != r:
            f = other[c]
            if f:
                work[i] = [(p * a - f * b) // d for a, b in zip(other, row)]
            elif p != d:
                work[i] = [p * a // d for a in other]
    return p


def _eliminate(work: list[Sequence[int]], ncols: int) -> tuple[list[int], int, int]:
    """Gauss-Jordan on the first ncols columns of integer rows, in place, from d = 1.

    Each column's pivot is its first nonzero entry at or below the current
    row.  Returns the pivot columns, the final d (the reduced rows are
    work/d) and the parity of the row swaps.  Reduced rows come first.
    """
    nrows = len(work)
    pivots: list[int] = []
    d = 1
    parity = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            parity ^= 1
        d = pivot(work, r, c, d)
        pivots.append(c)
        r += 1
    return pivots, d, parity


def _over(a: int, d: int) -> Fraction:
    return Fraction(a, d) if a else ZERO


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form with zero rows removed, plus pivot columns.

    Idempotent: rref(rref(m)) == rref(m).
    """
    work = list(integer_rows(m.entries))
    pivots, d, _ = _eliminate(work, m.cols)
    r = len(pivots)
    reduced = tuple(tuple(_over(a, d) for a in row) for row in work[:r])
    return Matrix(r, m.cols, reduced), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(_eliminate(list(integer_rows(m.entries)), m.cols)[0])


def integer_rows(rows: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """Each row scaled by the lcm of its denominators: integer rows with the
    same row space (rows of `int`s come back as they are)."""
    out = []
    for row in rows:
        d = lcm(*(a.denominator for a in row))
        out.append(tuple(a.numerator * (d // a.denominator) for a in row))
    return tuple(out)


def _echelon_mod_p(
    rows: Sequence[Sequence[int]], kept: Sequence[tuple[int, Sequence[int]]] = ()
) -> list[tuple[int, Sequence[int]]] | None:
    """`kept` extended by the residue rows, as (pivot column, residue row)
    pairs, or None if the rows are dependent over F_P on `kept`.

    `kept` is an echelon as returned here: each row is 0 before its pivot
    column and at the pivot columns of the rows before it.  Division-free
    elimination: each row is reduced against the kept rows in order by
    row <- piv*row - f*kept (mod P), which zeroes the kept row's pivot
    column; a row that reduces to 0 is dependent.  `kept` is not changed.
    """
    echelon = list(kept)
    for row in rows:
        for c, other in echelon:
            f = row[c]
            if f:
                piv = other[c]
                row = [(piv * a - f * b) % P for a, b in zip(row, other)]
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None:
            return None
        echelon.append((c, row))
    return echelon


def _exactly_independent(
    rows: Sequence[Sequence[int]], columns: Sequence[int] | None = None
) -> bool:
    """True iff integer rows, restricted to `columns` (all by default), are
    linearly independent over Q: the exact `rank`, for when P decides nothing."""
    m = Matrix(len(rows), len(rows[0]), tuple(rows))
    if columns is not None:
        m = submatrix_columns(m, columns)
    return rank(m) == m.rows


def det(m: Matrix) -> Fraction:
    """Determinant: +/- the last elimination denominator of the integer rows,
    over the product of their scales (0 if rank-deficient)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, d, parity = _eliminate(list(integer_rows(m.entries)), m.cols)
    if len(pivots) < m.rows:
        return ZERO
    scale = prod(lcm(*(a.denominator for a in row)) for row in m.entries)
    return Fraction(-d if parity else d, scale)


def cofactor(m: Matrix, i: int, j: int) -> Fraction:
    """(-1)^(i+j) times the determinant of m without row i and column j."""
    minor = tuple(
        tuple(v for c, v in enumerate(row) if c != j)
        for r, row in enumerate(m.entries)
        if r != i
    )
    sign = ONE if (i + j) % 2 == 0 else -ONE
    return sign * det(Matrix(m.rows - 1, m.cols - 1, minor))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse: reduce [m | I] over m's columns; raises ValueError on a singular input."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    augmented = [r + e for r, e in zip(m.entries, Matrix.identity(n).entries)]
    work = list(integer_rows(augmented))
    pivots, d, _ = _eliminate(work, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return Matrix(n, n, tuple(tuple(_over(a, d) for a in row[n:]) for row in work))


def submatrix_columns(m: Matrix, columns: Sequence[int]) -> Matrix:
    data = tuple(tuple(r[c] for c in columns) for r in m.entries)
    return Matrix(m.rows, len(columns), data)


class Subspace:
    """A rational subspace, kept on linearly independent integer rows, their
    residues mod P and the echelon mod P of those residues (None if they
    are dependent mod P), which `of_integer_rows` builds for every instance.

    `dim`, `contains` and every rank question are answered on those rows
    and that echelon.
    `basis` and `pivot_columns` are the canonical reduced row-echelon form;
    only reading one of them builds it, in `Fraction`s.  Equality, hash,
    repr and pickles go through that form, so two subspaces are equal iff
    their RREF bases are entry-wise equal, whatever rows built them.

    The zero subspace keeps an explicit ambient dimension and no rows,
    avoiding 0xN matrix ambiguity.
    """

    ambient_dim: int
    dim: int

    def __init__(self, ambient_dim: int, basis: Matrix, pivot_columns: tuple[int, ...]):
        """The subspace whose RREF basis and pivot columns these are (not checked)."""
        vars(self).update(vars(Subspace.of_integer_rows(ambient_dim, integer_rows(basis.entries))))
        vars(self)["_rref"] = (basis, pivot_columns)

    @staticmethod
    def span(vectors: Sequence[Iterable], ambient_dim: int | None = None) -> "Subspace":
        rows = tuple(vector(v) for v in vectors)
        if rows:
            n = len(rows[0])
            if ambient_dim is not None and ambient_dim != n:
                raise ValueError("ambient dimension mismatch")
            if any(len(r) != n for r in rows):
                raise ValueError("ragged rows")
            ambient_dim = n
        elif ambient_dim is None:
            raise ValueError("ambient dimension required for an empty span")
        return Subspace.of_integer_rows(ambient_dim, integer_rows(rows))

    @staticmethod
    def of_integer_rows(ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """The span of integer rows.

        Rows independent mod P are independent over Q and are kept as they
        are.  Rows dependent mod P are reduced by `_eliminate`, and the
        subspace keeps the nonzero reduced rows: integer rows, independent
        over Q, with the same span.  No `Fraction` is built either way.  The
        echelon mod P that decided independence is kept as `_echelon`, None
        if the kept rows are still dependent mod P.
        """
        integers = tuple(tuple(row) for row in rows)
        if any(len(row) != ambient_dim for row in integers):
            raise ValueError("ambient dimension mismatch")
        residues = tuple(tuple(a % P for a in row) for row in integers)
        echelon = _echelon_mod_p(residues)
        if echelon is None:
            work = list(integers)
            r = len(_eliminate(work, ambient_dim)[0])
            integers = tuple(tuple(row) for row in work[:r])
            residues = tuple(tuple(a % P for a in row) for row in integers)
            echelon = _echelon_mod_p(residues)
        s = object.__new__(Subspace)
        vars(s).update(
            ambient_dim=ambient_dim,
            dim=len(integers),
            _integers=integers,
            _residues=residues,
            _echelon=echelon,
        )
        return s

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @cached_property
    def _rref(self) -> tuple[Matrix, tuple[int, ...]]:
        return rref(Matrix(self.dim, self.ambient_dim, self._integers))

    @property
    def basis(self) -> Matrix:
        return self._rref[0]

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return self._rref[1]

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not Subspace:
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self._rref == other._rref
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis, self.pivot_columns))

    def __repr__(self) -> str:
        return (
            f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r}, "
            f"pivot_columns={self.pivot_columns!r})"
        )

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self.basis, self.pivot_columns)

    def contains(self, v: Vector) -> bool:
        """True iff v lies in the subspace: 0 does, and a nonzero v does iff
        its line meets the subspace outside 0."""
        line = Subspace.span([v], ambient_dim=self.ambient_dim)
        return line.dim == 0 or not subspaces_intersect_trivially(self, line)


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0}; dim = cols - rank.  Each free column c of
    the reduced rows work/d gives d at c and -work[r][c] at the r-th pivot."""
    work = list(integer_rows(m.entries))
    pivots, d, _ = _eliminate(work, m.cols)
    vectors = []
    for c in [j for j in range(m.cols) if j not in pivots]:
        v = [0] * m.cols
        v[c] = d
        for r, p in enumerate(pivots):
            v[p] = -work[r][c]
        vectors.append(v)
    return Subspace.of_integer_rows(m.cols, vectors)


def constraint_rows(s: Subspace) -> Matrix:
    """A matrix K with null(K) = s: the linear equations cutting out s.

    K is the canonical RREF of the kernel of s's integer rows; the zero
    subspace gives the identity.
    """
    return kernel_basis(Matrix(s.dim, s.ambient_dim, s._integers)).basis


def subspaces_intersect_trivially(u: Subspace, v: Subspace) -> bool:
    """True iff u and v meet only in 0, i.e. their sum is direct.

    Three exits: dim u + dim v > N means they meet, by the dimension count;
    the residue rows of the lower-dimensional subspace (u on a tie)
    reducing to an independent extension of the other's echelon mod P
    means they do not; otherwise the exact `rank` of the stacked rows
    decides.  Independence mod P implies independence over Q, so the answer
    never depends on P.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.dim == 0 or v.dim == 0:
        return True
    if u.dim + v.dim > u.ambient_dim:
        return False
    low, high = (u, v) if u.dim <= v.dim else (v, u)
    if high._echelon is not None and _echelon_mod_p(low._residues, high._echelon) is not None:
        return True
    return _exactly_independent(u._integers + v._integers)


def avoids_block(s: Subspace, start: int, stop: int) -> bool:
    """True iff s meets the coordinate block spanned by e_start, ...,
    e_(stop-1) only in 0, i.e. s's integer rows, restricted to the columns
    outside [start, stop), are independent.  Any basis of s answers alike,
    so no canonical basis is needed.

    With no pivot of s's echelon mod P inside the block, the echelon's
    pivot columns, all kept, hold a triangular minor with a nonzero
    diagonal: s avoids the block with no arithmetic.  Otherwise the residue
    rows are restricted and reduced, and only a rank deficient mod P falls
    back to the exact `rank`.
    """
    echelon = s._echelon
    if echelon is not None and not any(start <= c < stop for c, _ in echelon):
        return True
    outside = [*range(start), *range(stop, s.ambient_dim)]
    if echelon is not None:
        restricted = [[row[c] for c in outside] for row in s._residues]
        if _echelon_mod_p(restricted) is not None:
            return True
    return _exactly_independent(s._integers, outside)
