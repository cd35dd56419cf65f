"""Answer checks that do not trust the code under test.

Linear algebra here is a local Fraction elimination.  Whether Γ meets S°
is decided by enumerating basic solutions over each pointed piece, and a
seeded subset of those answers is decided again by the brute-force oracles
in ``tests/oracles.py``.  Only the problem JSON and the program's printed
or returned answers are inputs, so a defect in the package cannot make its
own answers look right.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import combinations
from fractions import Fraction
from math import gcd, lcm

# Duck-typed stand-ins for the package's cone types, as the oracles read them.
Cone = namedtuple("Cone", "ambient_dim generators")
ConeUnion = namedtuple("ConeUnion", "ambient_dim pieces")


def _reduce(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form (zero rows dropped) and pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [a * inv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work[: len(pivots)], pivots


def rank(rows) -> int:
    rows = list(rows)
    return len(_reduce(rows, len(rows[0]))[1]) if rows else 0


def null_space(rows, n: int) -> list[list[Fraction]]:
    """A basis of {x : rows·x = 0}."""
    reduced, pivots = _reduce(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def nonneg_solution_exists(columns, b) -> bool:
    """Is there λ >= 0 with Σ λ_j columns_j = b?  Enumerates basic
    solutions: a feasible system has one on linearly independent columns."""
    m = len(b)
    for size in range(1, min(len(columns), m) + 1):
        for subset in combinations(columns, size):
            aug = [[col[i] for col in subset] + [b[i]] for i in range(m)]
            reduced, pivots = _reduce(aug, size + 1)
            if pivots == list(range(size)) and all(row[size] >= 0 for row in reduced):
                return True
    return False


def piece_meets_subspace(generators, basis_rows):
    """Does a pointed cone meet S° in a nonzero point?  None if not pointed.

    For a pointed cone the slice Σλ = 1 holds every nonzero direction and
    never 0, so the question is whether some λ >= 0 on that slice has Gλ in
    S°, i.e. annihilated by every vector of S°'s orthogonal complement.
    """
    n = len(generators[0])
    ones = [Fraction(1)]
    if nonneg_solution_exists([tuple(g) + tuple(ones) for g in generators],
                              [Fraction(0)] * n + ones):
        return None  # 0 is a convex combination of generators: a line
    annihilators = null_space(basis_rows, n)
    columns = [tuple(sum((a * x for a, x in zip(v, g)), Fraction(0)) for v in annihilators)
               + tuple(ones) for g in generators]
    return nonneg_solution_exists(columns, [Fraction(0)] * len(annihilators) + ones)


def in_row_space(v, rows) -> bool:
    return rank(list(rows) + [v]) == rank(rows)


def canonical(v) -> tuple:
    """Positive rescaling to coprime integers (rays keep their direction)."""
    w = [Fraction(x) for x in v]
    d = lcm(*(a.denominator for a in w))
    ints = [int(a * d) for a in w]
    g = gcd(*ints)
    return tuple(Fraction(a // g) for a in ints)


def problem_blocks(problem: dict) -> list[tuple[int, int]]:
    blocks, start = [], 0
    for f in problem["factors"]:
        blocks.append((start, start + f["rank"]))
        start += f["rank"]
    return blocks


def gamma_pieces(problem: dict) -> list[tuple]:
    """Generator tuples of Γ's pieces, in the order the package lists them.

    Each factor piece is embedded in its block; Γ pieces are the pairwise
    unions of generator sets (a cone sum), first occurrence kept.
    """
    blocks = problem_blocks(problem)
    n = blocks[-1][1]
    sigma = []
    for f, (start, stop) in zip(problem["factors"], blocks):
        for piece in f["sigma_c"]:
            gens = set()
            for g in piece["generators"]:
                v = [Fraction(0)] * n
                v[start:stop] = [Fraction(x) for x in g]
                gens.add(canonical(v))
            sigma.append(gens)
    pieces = []
    for i, a in enumerate(sigma):
        for b in sigma[i:]:
            s = tuple(sorted(a | b))
            if s not in pieces:
                pieces.append(s)
    return pieces


def gamma_dim(pieces) -> int:
    return max((rank(p) for p in pieces), default=0)


def is_vsp(basis_rows, blocks) -> bool:
    """S° meets every factor block only in 0."""
    n = blocks[-1][1]
    l = rank(basis_rows)
    for start, stop in blocks:
        units = [[int(c == j) for c in range(n)] for j in range(start, stop)]
        if rank(list(basis_rows) + units) != l + (stop - start):
            return False
    return True


def witness_ok(ray, coefficients, generators, basis_rows) -> bool:
    """A non-FP witness by substitution: ray = G·coefficients with
    coefficients >= 0, the ray nonzero and inside S°."""
    if any(c < 0 for c in coefficients) or not any(ray):
        return False
    combo = [sum((c * g[i] for c, g in zip(coefficients, generators)), Fraction(0))
             for i in range(len(ray))]
    return combo == list(ray) and in_row_space(ray, basis_rows)


def meets_oracle(oracles, pieces, basis_rows) -> bool:
    """Does some Γ piece meet S° in a nonzero point?  (exhaustive oracle)"""
    n = len(basis_rows[0])
    union = ConeUnion(n, tuple(Cone(n, p) for p in pieces))
    return oracles.union_meets_subspace_oracle(union, [list(r) for r in basis_rows])


def meets(oracles, pieces, basis_rows) -> bool:
    """The same question, by `piece_meets_subspace` where a piece is pointed
    (about a hundred times faster) and by the oracle where it is not."""
    n = len(basis_rows[0])
    for gens in pieces:
        hit = piece_meets_subspace(gens, basis_rows)
        if hit is None:
            hit = oracles.piece_meets_subspace_oracle(Cone(n, gens), [list(r) for r in basis_rows])
        if hit:
            return True
    return False


def in_cone_oracle(oracles, generators, ray) -> bool:
    return oracles.cone_contains_oracle(Cone(len(ray), tuple(generators)), ray)


_VEC = re.compile(r"\(([^()]*)\)")


def parse_vectors(text: str) -> list[tuple]:
    """All '(a, b/c, ...)' groups of a CLI line, as Fraction tuples."""
    return [
        tuple(Fraction(x.strip()) for x in m.group(1).split(","))
        for m in _VEC.finditer(text)
        if m.group(1).strip() and all(re.fullmatch(r"\s*-?\d+(/\d+)?\s*", x)
                                       for x in m.group(1).split(","))
    ]


def rows_after(text: str, label: str) -> list[tuple]:
    """Vectors listed after `label` on the first line that contains it."""
    for line in text.splitlines():
        if label in line:
            return parse_vectors(line.split(label, 1)[1])
    return []
