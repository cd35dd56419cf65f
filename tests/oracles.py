"""Independent brute-force oracles used to cross-check the library.

Nothing here touches the simplex or the cone LP encodings: linear systems
are solved by a local Gaussian elimination, cone questions are decided by
conic Caratheodory subset enumeration, and LP optima by exhaustive vertex
enumeration.  Everything is exact over Fraction, in both directions
(membership and non-membership).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from sigmafp import lp

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_square(rows, rhs):
    """Solve a square system exactly; None if singular."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [inv * a for a in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return tuple(work[i][n] for i in range(n))


def _solve_full_column_rank(columns, target):
    """Solve (columns as matrix) lam = target when columns are independent.

    Picks an invertible row subset, solves it, then verifies every row;
    returns None if the system is inconsistent.
    """
    n = len(target)
    k = len(columns)
    for row_subset in combinations(range(n), k):
        rows = [[col[r] for col in columns] for r in row_subset]
        lam = solve_square(rows, [target[r] for r in row_subset])
        if lam is None:
            continue
        for r in range(n):
            if sum((columns[j][r] * lam[j] for j in range(k)), ZERO) != target[r]:
                return None
        return lam
    return None


def rank_oracle(rows) -> int:
    """Rank of a list of rows by local forward elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _invertible(rows) -> bool:
    return solve_square(rows, [ZERO] * len(rows)) is not None


def _independent_subsets(vectors, ambient):
    """All linearly independent subsets (as index tuples), smallest first."""
    out = []
    for size in range(1, min(len(vectors), ambient) + 1):
        for subset in combinations(range(len(vectors)), size):
            cols = [vectors[i] for i in subset]
            # Independent iff some size x size row submatrix is invertible.
            if any(
                _invertible([[col[r] for col in cols] for r in row_subset])
                for row_subset in combinations(range(ambient), size)
            ):
                out.append(subset)
    return out


def cone_contains_oracle(c, x) -> bool:
    """Conic Caratheodory: x is in the cone iff it is a nonnegative
    combination of some linearly independent subset of generators."""
    x = tuple(Fraction(e) for e in x)
    if all(e == 0 for e in x):
        return True
    gens = list(c.generators)
    for subset in _independent_subsets(gens, c.ambient_dim):
        cols = [gens[i] for i in subset]
        lam = _solve_full_column_rank(cols, x)
        if lam is not None and all(v >= 0 for v in lam):
            return True
    return False


def _basic_feasible_exists(eq_rows, rhs, n_vars) -> bool:
    """Does {x >= 0 : (eq_rows) x = rhs} contain a point?

    The region is pointed (x >= 0), so it is nonempty iff some basic
    solution is feasible: enumerate column subsets, solve, check signs.
    """
    m = len(eq_rows)
    for size in range(0, min(m, n_vars) + 1):
        for cols in combinations(range(n_vars), size):
            for rows in combinations(range(m), size):
                square = [[eq_rows[r][c] for c in cols] for r in rows]
                sol = solve_square(square, [rhs[r] for r in rows])
                if sol is None or any(v < 0 for v in sol):
                    continue
                x = [ZERO] * n_vars
                for c, v in zip(cols, sol):
                    x[c] = v
                if all(
                    sum((eq_rows[r][c] * x[c] for c in range(n_vars)), ZERO) == rhs[r]
                    for r in range(m)
                ):
                    return True
    return False


def cones_meet_oracle(a, b) -> bool:
    """Nonzero point of a cap b, decided by subset enumeration.

    For independent S_a, S_b the slice {S_a lam = S_b mu, lam, mu >= 0,
    sum lam = 1} cannot hide the zero vector, so its nonemptiness is exactly
    a nonzero intersection supported on those subsets; Caratheodory says
    every nonzero intersection point arises this way.
    """
    n = a.ambient_dim
    gens_a, gens_b = list(a.generators), list(b.generators)
    if not gens_a or not gens_b:
        return False
    for sa in _independent_subsets(gens_a, n):
        for sb in _independent_subsets(gens_b, n):
            cols_a = [gens_a[i] for i in sa]
            cols_b = [gens_b[i] for i in sb]
            k = len(cols_a) + len(cols_b)
            eq_rows = [
                [col[r] for col in cols_a] + [-col[r] for col in cols_b]
                for r in range(n)
            ]
            eq_rows.append([ONE] * len(cols_a) + [ZERO] * len(cols_b))
            rhs = [ZERO] * n + [ONE]
            if _basic_feasible_exists(eq_rows, rhs, k):
                return True
    return False


def _kernel(columns):
    """A basis of {x : sum_j x_j columns[j] = 0}, by local Gauss-Jordan
    elimination over Fraction; each basis vector is 1 at its free column."""
    m = len(columns)
    work = [[Fraction(col[r]) for col in columns] for r in range(len(columns[0]))]
    pivots = []
    for c in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * a for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        v = [ZERO] * m
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -work[r][free]
        basis.append(v)
    return basis


def cone_contains_line_oracle(c) -> bool:
    """A cone contains a line iff a positive combination of some generators
    is 0.  The support of a minimal such combination is a circuit: 2 to
    dim + 1 generators whose kernel is one-dimensional and spanned by a
    vector of one strict sign (positive, as its free entry is 1)."""
    gens = list(c.generators)
    for size in range(2, min(len(gens), c.ambient_dim + 1) + 1):
        for subset in combinations(gens, size):
            kernel = _kernel(subset)
            if len(kernel) == 1 and all(x > 0 for x in kernel[0]):
                return True
    return False


def piece_meets_subspace_oracle(piece, w_rows) -> bool:
    """Nonzero piece point inside span(w_rows), decided without kernels.

    Encodes S lam = W^T mu with mu free (split into mu+ - mu-), lam on the
    simplex over an independent generator subset S, and enumerates basic
    solutions of the resulting all-nonnegative system.
    """
    n = piece.ambient_dim
    gens = list(piece.generators)
    w_cols = [tuple(row) for row in w_rows]
    for subset in _independent_subsets(gens, n):
        cols = [gens[i] for i in subset]
        k = len(cols)
        n_vars = k + 2 * len(w_cols)
        eq_rows = []
        for r in range(n):
            row = [col[r] for col in cols]
            for w in w_cols:
                row += [-w[r], w[r]]
            eq_rows.append(row)
        eq_rows.append([ONE] * k + [ZERO] * (2 * len(w_cols)))
        rhs = [ZERO] * n + [ONE]
        if _basic_feasible_exists(eq_rows, rhs, n_vars):
            return True
    return False


def union_meets_subspace_oracle(u, w_rows) -> bool:
    return any(piece_meets_subspace_oracle(p, w_rows) for p in u.pieces)


def union_is_tame_oracle(u) -> bool:
    from sigmafp.cones import cone_neg

    pieces = list(u.pieces)
    for i, a in enumerate(pieces):
        for b in pieces[i:]:
            if cones_meet_oracle(a, cone_neg(b)):
                return False
    return True


def enumerate_vertices(problem: lp.LinearProgram):
    """All vertices of the feasible region (requires every variable >= 0)."""
    n = problem.num_vars
    assert problem.nonneg_vars == frozenset(range(n))
    rows = [(c.coeffs, c.rhs) for c in problem.constraints]
    for j in range(n):
        rows.append((tuple(ONE if i == j else ZERO for i in range(n)), ZERO))
    vertices = []
    for subset in combinations(range(len(rows)), n):
        x = solve_square([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if x is not None and lp.verify_point(problem, x) and x not in vertices:
            vertices.append(x)
    return vertices


def check_lp_outcome(problem: lp.LinearProgram, outcome: lp.LpOutcome) -> None:
    """Assert the solver outcome against exhaustive vertex enumeration."""
    vertices = enumerate_vertices(problem)
    if outcome.status == "infeasible":
        assert not vertices, "solver says infeasible but a vertex is feasible"
        assert outcome.farkas is not None
        assert lp.verify_farkas(problem, outcome.farkas)
        return
    assert vertices, "solver says feasible but no vertex exists"
    if outcome.status == "unbounded":
        assert lp.verify_ray(problem, outcome.ray)
        assert lp.verify_point(problem, outcome.point)
        return
    assert outcome.status == "optimal"
    assert lp.verify_point(problem, outcome.point)
    values = [lp.vec_dot(problem.objective, v) for v in vertices]
    best = max(values) if problem.sense == "max" else min(values)
    assert outcome.value == best, f"optimum {outcome.value} != vertex best {best}"
