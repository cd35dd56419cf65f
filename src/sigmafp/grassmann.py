"""Points of the Grassmannian of subgroup annihilators.

A subgroup of rank k in a product of total dual dimension N corresponds to
the (N-k)-dimensional subspace of functionals vanishing on it.  A point is
a `Subspace` together with k; it compares, hashes and prints through its
canonical RREF basis.  Every subspace is kept on integer rows (a sampled
point on its grid draw's numerators): its independence and every rank
question asked of it are decided on their residues mod P, and its RREF
basis is built only when read.  Charts follow the [I | A] row-echelon
parametrisation of the complements of a fixed subspace.  A point is a
virtual subdirect product iff S meets each factor block [a, b) only in 0,
iff any basis of S restricted to the columns outside [a, b) has full row
rank; no block subspace is built.  A block holding no pivot of the echelon
mod P that the draw's full-rank test built is settled by that echelon
alone, so a generic draw, whose pivots are its first N-k columns,
restricts its rows only for the blocks holding those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    Matrix,
    Subspace,
    avoids_block,
    vec_add,
    vec_scale,
)
from .product import ProductSpace
from .randstream import CounterStream

# Sampling grid: entries a / 2**16 with a uniform in [-2**20, 2**20].
# Fine enough that hitting any fixed proper subvariety has vanishing
# empirical probability, while keeping entry sizes bounded.
_DENOM = 1 << 16
_NUM_BOUND = 1 << 20
_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class SubspacePoint:
    """An (N-k)-dimensional subspace of the N-dimensional dual, plus k."""

    subspace: Subspace
    k: int


def subspace_point(subspace: Subspace, k: int) -> SubspacePoint:
    n = subspace.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if subspace.dim != n - k:
        raise ValueError(
            f"subspace has dimension {subspace.dim}, expected {n - k} for k={k}"
        )
    return SubspacePoint(subspace, k)


@dataclass(frozen=True)
class Chart:
    """[I | A] chart over an ordered basis whose last k vectors span the
    complemented subspace."""

    complement_basis: Matrix  # N x N, rows are basis vectors
    a_matrix: Matrix  # (N - k) x k


def chart(complement_basis: Matrix, a_matrix: Matrix) -> Chart:
    n = complement_basis.rows
    if complement_basis.cols != n:
        raise ValueError("chart basis must be square")
    if Subspace.span(complement_basis.entries, ambient_dim=n).dim != n:
        raise ValueError("singular chart basis")
    if a_matrix.rows + a_matrix.cols != n:
        raise ValueError("A must be (N - k) x k")
    return Chart(complement_basis, a_matrix)


def chart_to_point(c: Chart) -> SubspacePoint:
    """Row space of [I | A] rewritten in standard coordinates.

    Row i is basis[i] + sum_j A[i][j] * basis[N-k+j]; points compare by
    their canonical RREF, so distinct A matrices give distinct points.
    """
    n = c.complement_basis.rows
    k = c.a_matrix.cols
    l = n - k
    rows = []
    for i in range(l):
        row = c.complement_basis.row(i)
        for j in range(k):
            row = vec_add(row, vec_scale(c.a_matrix.entries[i][j], c.complement_basis.row(l + j)))
        rows.append(row)
    return subspace_point(Subspace.span(rows, ambient_dim=n), k)


def _avoids_blocks(s: Subspace, p: ProductSpace) -> bool:
    return all(avoids_block(s, a, b) for a, b in p.blocks)


def rows_avoid_blocks(rows: Matrix, p: ProductSpace) -> bool:
    """True iff the rows are independent and span a subspace meeting every
    block only in 0."""
    s = Subspace.span(rows.entries, ambient_dim=rows.cols)
    return s.dim == rows.rows and _avoids_blocks(s, p)


def is_virtual_subdirect(pt: SubspacePoint, p: ProductSpace) -> bool:
    """True iff the point's subspace meets every factor block only in 0."""
    if pt.subspace.ambient_dim != p.total_dim:
        raise ValueError("ambient dimension mismatch")
    if pt.k < p.max_rank:
        raise ValueError(f"k={pt.k} below the maximal factor rank {p.max_rank}")
    return _avoids_blocks(pt.subspace, p)


def _draw(n_rows: int, n_cols: int, seed: int, index: int, attempt: int) -> list[list[int]]:
    """The grid draw's integer numerators a, uniform in [-2**20, 2**20] and
    keyed on (seed, index, attempt); the entries are a / 2**16."""
    stream = CounterStream(seed, index, attempt)
    return [
        [stream.uniform_int(-_NUM_BOUND, _NUM_BOUND) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def sample_rows(n_rows: int, n_cols: int, seed: int, index: int, attempt: int = 0):
    """The grid draw behind sample_point as `Fraction` rows: entries a / 2**16
    with a uniform in [-2**20, 2**20], keyed on (seed, index, attempt)."""
    draw = _draw(n_rows, n_cols, seed, index, attempt)
    return [[Fraction(a, _DENOM) for a in row] for row in draw]


def sample_point(p: ProductSpace, k: int, seed: int, index: int) -> SubspacePoint:
    """Deterministic random point: a function of (seed, index) only.

    Draws an (N-k) x N matrix on the sampling grid and redraws (bumping the
    attempt substream) until it has full row rank; in practice the first draw
    succeeds, and 64 rank-deficient draws in a row abort as a sampler defect.
    The point is kept on the integer numerators of its draw, whose row space
    is that of the grid entries a / 2**16: full rank is decided mod P, and
    only a draw dependent mod P is reduced exactly.
    """
    n = p.total_dim
    if not p.max_rank <= k <= n:
        raise ValueError(f"k must satisfy {p.max_rank} <= k <= {n}, got {k}")
    l = n - k
    for attempt in range(_MAX_ATTEMPTS):
        space = Subspace.of_integer_rows(n, _draw(l, n, seed, index, attempt))
        if space.dim == l:
            return SubspacePoint(space, k)
    raise RuntimeError("internal error: degenerate sampler")
