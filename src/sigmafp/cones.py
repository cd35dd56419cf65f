"""Rational convex polyhedral cones in V-representation, and finite unions.

A cone is the set of nonnegative rational combinations of its generator
rays (so it always contains 0).  There is deliberately no facet
(H-representation) machinery: every decision here reduces to exact LP
feasibility over the generators.  One slice LP {lam >= 0, sum lam = 1,
A lam = 0} settles lines and antipodal pairs with A = G (a + b contains a
line iff some nonzero x in a has -x in b, or a or b contains a line), and
with A = K G, where K x = 0 cuts out a subspace, whether a pointed piece
meets it nontrivially; independent generators need no LP for lines.  A
union compiles its generator matrices, spans, pointedness and maximal pieces
once, on the instance.  A subspace that meets a piece meets every piece whose
generators include that piece's, so `union_meets_subspace` decides on the
maximal pieces alone and scans the full piece order only to name the
witness; `union_avoids_subspace` gives the verdict alone and never names one.

A non-pointed piece has 0 on its slice, so there, and to name the witness
once a slice LP is feasible, the question is normalised per coordinate: a
nonzero common point exists iff one has s*x_i >= 1 for some coordinate i and
sign s.  `_normalised_lps` writes these 2N problems {x >= 0, E x = 0,
s (G x)_i >= 1} and `_first_witness` solves them in order; cone-meets-cone
and cone-meets-subspace differ only in E and G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from . import lp
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    constraint_rows,
    integer_rows,
    is_zero_vector,
    rank,
    subspaces_intersect_trivially,
    vec_neg,
    vector,
    zero_vector,
)

ZERO = Fraction(0)
ONE = Fraction(1)
Ray = tuple[int, ...]  # a canonical ray: coprime ints


def canonical_ray(v) -> Ray:
    """The unique positive rescaling of v, as a tuple of coprime `int`s.

    Only positive scalings are applied, so a ray and its negative stay
    distinct.  Zero vectors are rejected (rays are nonzero by definition).
    """
    w = vector(v)
    if is_zero_vector(w):
        raise ValueError("zero vector is not a ray")
    ints = integer_rows((w,))[0]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


@dataclass(frozen=True)
class ConvexCone:
    """Cone of all nonnegative combinations of the stored generator rays.

    Generators are canonical (coprime `int` tuples), deduplicated, and
    sorted, so equal cones given by rescaled or reordered generators
    compare equal.  An empty generator tuple denotes the zero cone {0}.
    """

    ambient_dim: int
    generators: tuple[Ray, ...]


def cone(generators: Iterable, ambient_dim: int | None = None) -> ConvexCone:
    rays = [canonical_ray(g) for g in generators]
    if rays:
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise ValueError("generators of mixed dimension")
        if ambient_dim is not None and ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        ambient_dim = n
    elif ambient_dim is None:
        raise ValueError("ambient dimension required for the zero cone")
    return ConvexCone(ambient_dim, tuple(sorted(set(rays))))


@dataclass(frozen=True)
class ConeUnion:
    """Finite union of convex cones; no pieces means the set {0}.

    The compiled pieces, the tameness verdict and the dimension are computed
    once per instance and kept in its dict, not in fields: equality, hash,
    repr and pickles ignore them.
    """

    ambient_dim: int
    pieces: tuple[ConvexCone, ...]

    def __getstate__(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "pieces": self.pieces}

    @cached_property
    def _compiled(self) -> "_CompiledUnion":
        return _CompiledUnion(self)

    @cached_property
    def _tame(self) -> bool:
        pairs = ((a, b) for i, a in enumerate(self.pieces) for b in self.pieces[i:])
        return not any(cone_contains_line(cone_sum(a, b)) for a, b in pairs)

    @cached_property
    def _dim(self) -> int:
        return max((cone_dim(p) for p in self.pieces), default=0)


def cone_union(pieces: Sequence[ConvexCone], ambient_dim: int | None = None) -> ConeUnion:
    kept = tuple(p for p in pieces if p.generators)
    if kept:
        if ambient_dim is None:
            ambient_dim = kept[0].ambient_dim
        if any(p.ambient_dim != ambient_dim for p in kept):
            raise ValueError("pieces of mixed ambient dimension")
    elif ambient_dim is None:
        raise ValueError("ambient dimension required for an empty union")
    return ConeUnion(ambient_dim, kept)


@dataclass(frozen=True)
class IntersectionWitness:
    """A nonzero ray proving an intersection is nontrivial.

    ray == generators(piece) . coefficients exactly, with coefficients >= 0;
    the ray is stored in canonical form.
    """

    ray: Ray
    piece_index: int
    coefficients: Vector


def _generator_matrix(c: ConvexCone) -> Matrix:
    # Columns are generators: (G lam)_i = sum_j lam_j g_j[i].  The entries are
    # the rays' ints; products with `Fraction`s and `lp.constraint` convert them.
    rows = tuple(zip(*c.generators)) if c.generators else ((),) * c.ambient_dim
    return Matrix(c.ambient_dim, len(c.generators), rows)


# Each compiled union keeps its pieces' spans, so this cache serves
# cone_dim, cones_meet_nontrivially and equal cones parsed again by later
# calls in the same process.  64 entries: cli-mix's largest Γ has 15 pieces,
# and traced allocations over its calls held 1.95 MB at 64 against 3.64 MB
# at 1024.
@lru_cache(maxsize=64)
def _cone_span(c: ConvexCone) -> Subspace:
    # Canonical rays are integer rows, kept as they are when independent mod P.
    return Subspace.of_integer_rows(c.ambient_dim, c.generators)


def cone_contains(c: ConvexCone, x) -> bool:
    """Membership test: does some lam >= 0 solve (generators) lam = x?"""
    v = vector(x)
    if len(v) != c.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if is_zero_vector(v):
        return True
    if not c.generators:
        return False
    g = _generator_matrix(c)
    problem = lp.feasibility(
        num_vars=len(c.generators),
        constraints=[lp.constraint(g.row(i), lp.EQ, v[i]) for i in range(c.ambient_dim)],
        nonneg_vars=range(len(c.generators)),
    )
    return lp.solve(problem).status == "feasible"


def cone_dim(c: ConvexCone) -> int:
    return _cone_span(c).dim


def _slice_lp(a: Matrix) -> lp.LinearProgram:
    """{lam >= 0, sum lam = 1, A lam = 0} over A's columns."""
    k = a.cols
    constraints = [lp.constraint([ONE] * k, lp.EQ, ONE)]
    constraints += [lp.constraint(row, lp.EQ, ZERO) for row in a.entries]
    return lp.feasibility(num_vars=k, constraints=constraints, nonneg_vars=range(k))


def _zero_is_convex_combination(g: Matrix, g_rank: int) -> bool:
    """Whether 0 is a convex combination of G's columns, given their rank; no LP if independent."""
    return g_rank < g.cols and lp.solve(_slice_lp(g)).status == "feasible"


def cone_contains_line(c: ConvexCone) -> bool:
    """True iff the cone is non-pointed: 0 is a convex combination of
    generators (independent ones settle it with no LP)."""
    g = _generator_matrix(c)
    return _zero_is_convex_combination(g, rank(g))


def cone_sum(a: ConvexCone, b: ConvexCone) -> ConvexCone:
    """Minkowski sum; since both cones contain 0 this is the union of
    generator sets.  Both sets are canonical already (every cone is built by
    `cone`), so they are merged without rescaling."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return ConvexCone(a.ambient_dim, tuple(sorted(set(a.generators).union(b.generators))))


def cone_neg(c: ConvexCone) -> ConvexCone:
    return cone([tuple(-a for a in g) for g in c.generators], ambient_dim=c.ambient_dim)


def _scaled_witness(
    raw_ray: Vector, coefficients: Sequence[Fraction], piece_index: int
) -> IntersectionWitness:
    ray = canonical_ray(raw_ray)
    nz = next(i for i, a in enumerate(raw_ray) if a != 0)
    factor = ray[nz] / raw_ray[nz]
    return IntersectionWitness(
        ray=ray,
        piece_index=piece_index,
        coefficients=tuple(factor * a for a in coefficients),
    )


def _normalised_lps(e: Matrix, g: Matrix) -> Iterator[lp.LinearProgram]:
    """The 2N feasibility LPs {x >= 0, E x = 0, s (G x)_i >= 1}.

    x has E's columns; G covers a leading block of them (the rest count as
    zero columns).  Ordered by coordinate i, + before -.
    """
    k = e.cols
    eq_rows = [lp.constraint(row, lp.EQ, ZERO) for row in e.entries]
    pad = zero_vector(k - g.cols)
    for i in range(g.rows):
        for s in (ONE, -ONE):
            norm = lp.constraint(tuple(s * x for x in g.row(i)) + pad, lp.GE, ONE)
            yield lp.feasibility(num_vars=k, constraints=eq_rows + [norm], nonneg_vars=range(k))


def _first_witness(
    problems: Iterable[lp.LinearProgram], g: Matrix, piece_index: int
) -> Optional[IntersectionWitness]:
    """Witness G x from the first feasible problem, with coefficients x on G's columns."""
    for problem in problems:
        outcome = lp.solve(problem)
        if outcome.status == "feasible":
            lam = outcome.point[: g.cols]
            return _scaled_witness(g.mul_vec(lam), lam, piece_index)
    return None


def cones_meet_nontrivially(a: ConvexCone, b: ConvexCone) -> Optional[IntersectionWitness]:
    """A nonzero common point of a and b, or None.

    Scans the normalised LPs with E = [G_a | -G_b] and G = G_a, i.e.
    {lam, mu >= 0, G_a lam = G_b mu, s (G_a lam)_i >= 1}.  The witness is
    expressed in a's generators (piece_index 0).
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not a.generators or not b.generators:
        return None
    # The cones live inside their linear spans; disjoint spans settle it.
    if subspaces_intersect_trivially(_cone_span(a), _cone_span(b)):
        return None
    ga, gb = _generator_matrix(a), _generator_matrix(b)
    n = a.ambient_dim
    e = Matrix(n, ga.cols + gb.cols, tuple(ga.row(i) + vec_neg(gb.row(i)) for i in range(n)))
    return _first_witness(_normalised_lps(e, ga), ga, 0)


def piece_subspace_lps(piece: ConvexCone, w: Subspace) -> list[lp.LinearProgram]:
    """The 2N normalised LPs deciding piece-meets-subspace: E = K G, where
    K x = 0 cuts out w.

    Exposed so the infeasibility <=> valid-Farkas equivalence can be checked
    directly.  `union_meets_subspace` scans these same problems, but only to
    name the witness of a pointed piece whose slice LP is feasible, and for
    non-pointed pieces.
    """
    g = _generator_matrix(piece)
    return list(_normalised_lps(constraint_rows(w).mul(g), g))


class _CompiledUnion:
    """A union's nonzero pieces as (index, generator matrix, span), the
    maximal ones among them, and pointedness flags filled in the first time
    a piece is asked about, by `cone_contains_line`'s test on the span's rank.

    A piece is maximal unless its generator set is a strict subset of
    another piece's; every piece lies inside some maximal piece.
    """

    def __init__(self, u: ConeUnion):
        self.pieces = [
            (i, _generator_matrix(p), _cone_span(p)) for i, p in enumerate(u.pieces) if p.generators
        ]
        gens = [frozenset(p.generators) for p in u.pieces]
        self.maximal = [c for c in self.pieces if not any(gens[c[0]] < other for other in gens)]
        self._pointed: dict[int, bool] = {}

    def pointed(self, i: int, g: Matrix, span: Subspace) -> bool:
        if i not in self._pointed:
            self._pointed[i] = not _zero_is_convex_combination(g, span.dim)
        return self._pointed[i]


class _Scan:
    """One subspace against one union's compiled pieces, both of one
    ambient dimension; each piece's outcome is decided at most once.

    An outcome is None when the piece meets w only in 0, the witness when a
    non-pointed piece meets w, and K G when a pointed piece's slice LP is
    feasible: that piece meets w, and its witness is named only if needed.
    """

    def __init__(self, u: ConeUnion, w: Subspace):
        if u.ambient_dim != w.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        self.compiled = u._compiled
        self.w = w
        self.k: Optional[Matrix] = None
        self.outcomes: dict[int, object] = {}

    def outcome(self, piece: tuple[int, Matrix, Subspace]):
        i, g, span = piece
        if i not in self.outcomes:
            self.outcomes[i] = self._decide(i, g, span)
        return self.outcomes[i]

    def _decide(self, i: int, g: Matrix, span: Subspace):
        if subspaces_intersect_trivially(span, self.w):
            return None
        if self.k is None:
            self.k = constraint_rows(self.w)
        kg = self.k.mul(g)
        if self.compiled.pointed(i, g, span):
            return None if lp.solve(_slice_lp(kg)).status == "infeasible" else kg
        return _first_witness(_normalised_lps(kg, g), g, i)

    def maximal_piece_meets(self) -> bool:
        """Whether w meets the union beyond 0: some maximal piece meets it."""
        return any(self.outcome(piece) is not None for piece in self.compiled.maximal)

    def witness(self, piece: tuple[int, Matrix, Subspace]) -> Optional[IntersectionWitness]:
        found = self.outcome(piece)
        if not isinstance(found, Matrix):
            return found
        i, g, _ = piece
        witness = _first_witness(_normalised_lps(found, g), g, i)
        if witness is None:
            raise RuntimeError("internal error: a feasible slice LP gave no witness")
        return witness


def union_meets_subspace(u: ConeUnion, w: Subspace) -> Optional[IntersectionWitness]:
    """First nonzero point of (union pieces) intersected with the subspace w.

    The maximal pieces decide: a pointed piece past the span prefilter costs
    one slice LP, infeasible on an FP point.  Only when a maximal piece meets
    w does a second scan run over every piece in order, reusing the
    outcomes already decided, to name the witness of the first piece that
    meets w.  Its normalised scan (coordinate, then + before -) fixes the
    witness deterministically.
    """
    scan = _Scan(u, w)
    if not scan.maximal_piece_meets():
        return None
    for piece in scan.compiled.pieces:
        witness = scan.witness(piece)
        if witness is not None:
            return witness
    raise RuntimeError(
        "internal error: a maximal piece meets the subspace but no piece names a witness"
    )


def union_avoids_subspace(u: ConeUnion, w: Subspace) -> bool:
    """True iff the union meets the subspace w only in 0.

    The verdict of `union_meets_subspace` without its witness: it stops at
    the maximal pieces, so a union that meets w costs no second scan.
    """
    return not _Scan(u, w).maximal_piece_meets()


def union_is_tame(u: ConeUnion) -> bool:
    """No antipodal pair: x and -x nonzero in the union never both occur.

    One line test per unordered pair of pieces (a, b), a == b included: a
    line in a + b is an antipodal pair across a and b or inside one of them.
    Decided once per union instance; independent generators need no LP.
    """
    return u._tame


def union_dim(u: ConeUnion) -> int:
    return u._dim
