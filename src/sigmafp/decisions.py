"""Executable decision procedures on Grassmannian points.

The core decision: a virtual subdirect product point is finitely presented
iff Gamma (the pairwise sum of the cone-complement union with itself) meets
its subspace only in 0.  Around that sit constructive companions: a rational
openness certificate for FP points, a rank <= 2 construction of an FP point
for two-factor products, an explicit non-FP point, an open box of non-FP
points when the generic-openness condition fails, and a seeded sampling
experiment over the Grassmannian.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .cones import (
    ConeUnion,
    ConvexCone,
    IntersectionWitness,
    Ray,
    canonical_ray,
    cone,
    cone_contains_line,
    cone_dim,
    cone_neg,
    cone_sum,
    cone_union,
    union_avoids_subspace,
    union_dim,
    union_is_tame,
    union_meets_subspace,
)
from .errors import (
    ConstructionFailed,
    NonPointedPiece,
    NoSuitableFactors,
    NotFinitelyPresented,
    NotVirtualSubdirect,
    TheoremAApplies,
    UnsupportedRank,
)
from .formats import MeasureReport
from .grassmann import (
    Chart,
    SubspacePoint,
    chart,
    chart_to_point,
    is_virtual_subdirect,
    rows_avoid_blocks,
    sample_point,
    subspace_point,
)
from . import lp
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    inverse,
    linf_norm,
    rref,
    submatrix_columns,
    vec_add,
    vec_neg,
    vec_scale,
    vector,
)
from .product import (
    ProductSpace,
    assemble_sigma,
    build_gamma,
    embed_factor,
    theorem_a_applicable,
)
from .randstream import CounterStream

ZERO = Fraction(0)
ONE = Fraction(1)

_BOX_STREAM = 0x424F58  # substream label for box sampling
_SAMPLE_DENOM = 1 << 16
_NOT_FP = "certificates exist only for FP points"


@dataclass(frozen=True)
class FpDecision:
    """Finitely presented, or not with a re-verifiable witness ray."""

    finitely_presented: bool
    witness: Optional[IntersectionWitness]


def _require_vsp(pt: SubspacePoint, p: ProductSpace) -> None:
    if not is_virtual_subdirect(pt, p):
        raise NotVirtualSubdirect(
            "the subspace meets a factor block nontrivially; the finite "
            "presentability criterion does not apply"
        )


def is_finitely_presented(pt: SubspacePoint, gamma: ConeUnion, p: ProductSpace) -> FpDecision:
    """Decide finite presentability of the point: is Gamma cap S = {0}?

    The point must be a virtual subdirect product (the decision criterion's
    hypothesis); otherwise NotVirtualSubdirect is raised.
    """
    _require_vsp(pt, p)
    witness = union_meets_subspace(gamma, pt.subspace)
    return FpDecision(finitely_presented=witness is None, witness=witness)


@dataclass(frozen=True)
class OpennessCertificate:
    """A rational radius delta of FP-preserving chart perturbations.

    Any point whose RREF basis has the same pivot columns and differs
    entry-wise by at most delta stays a virtual subdirect product and stays
    finitely presented.
    """

    delta: Fraction
    chart_pivots: tuple[int, ...]
    per_piece_distance: tuple[tuple[int, Fraction], ...]
    vsp_margin: Optional[Fraction]


def _slice_distance(piece: ConvexCone, w: Subspace) -> Fraction:
    """Exact L-infinity distance from conv(generators) to the subspace w.

    LP over (lam, s, t): lam on the generator simplex, w-point B^T s, and
    |G lam - B^T s|_inf <= t minimised.
    """
    g = len(piece.generators)
    l = w.dim
    n = piece.ambient_dim
    t_col = g + l
    constraints = [lp.constraint([ONE] * g + [ZERO] * (l + 1), lp.EQ, ONE)]
    for c in range(n):
        row = vector(gen[c] for gen in piece.generators)  # once for both rows below
        row += tuple(-w.basis.entries[r][c] for r in range(l))
        constraints.append(lp.constraint(row + (-ONE,), lp.LE, ZERO))
        constraints.append(lp.constraint(row + (ONE,), lp.GE, ZERO))
    objective = tuple(ZERO for _ in range(t_col)) + (ONE,)
    problem = lp.LinearProgram(
        num_vars=t_col + 1,
        constraints=tuple(constraints),
        objective=objective,
        sense="min",
        nonneg_vars=frozenset(range(g)),
    )
    outcome = lp.solve(problem)
    if outcome.status != "optimal":
        raise RuntimeError(f"internal error: slice distance LP ended {outcome.status}")
    return outcome.value


def _vsp_margin_for_block(w: Subspace, block: tuple[int, int]) -> Optional[Fraction]:
    """Perturbation bound keeping w meeting the block [a, b) only in 0.

    Picks the l x l minor D of w's RREF basis W on the pivots of
    rref(W[:, outside the block]) and bounds the first-order drift of det D
    by the cofactors of the perturbable entries (the non-pivot columns of
    W); by Cramer's rule the cofactor at (r, j) is D inv(D)[j][r], so
    |D| / (2 sum |cofactor|) needs only inv(D).  None when no perturbable
    entry touches the minor.  It equals the stacked bound: [W; E_block]
    has the block's columns plus these as greedy pivots, and its minor's
    inverse on W's rows is inv(D) padded with zeros.
    """
    a, b = block
    outside = [*range(a), *range(b, w.ambient_dim)]
    _, pivots = rref(submatrix_columns(w.basis, outside))
    cols = [outside[j] for j in pivots]
    try:
        inv = inverse(submatrix_columns(w.basis, cols))
    except ValueError:
        raise RuntimeError("internal error: the pivot minor off the block vanishes") from None
    # inv is l x l, so each of its columns stands for a row of W.
    perturbable = (row for row, c in zip(inv.entries, cols) if c not in w.pivot_columns)
    total = sum((abs(x) for row in perturbable for x in row), ZERO)
    if total == 0:
        return None
    return 1 / (2 * total)


def openness_certificate(
    pt: SubspacePoint, gamma: ConeUnion, p: ProductSpace
) -> OpennessCertificate:
    """Certify an FP verdict as stable under small chart perturbations.

    Per piece, the compact slice conv(generators) sits at an exact distance
    d from the subspace, and d is 0 exactly when the piece meets the subspace
    nontrivially or contains a line (which admits no slice argument).  Since
    RREF coefficients are read off pivot coordinates, an intersection after a
    delta-perturbation would force a positive d below l * R0 * delta, so
    d / (2 l R0) is a sound bound.  The virtual-subdirect margin bounds, per
    block, the drift of a nonvanishing minor of the basis off that block.
    Errors take precedence in the order NotVirtualSubdirect,
    NotFinitelyPresented, NonPointedPiece; at d = 0 the FP verdict picks
    between the last two.
    """
    _require_vsp(pt, p)
    l = pt.subspace.dim
    per_piece: list[tuple[int, Fraction]] = []
    bounds: list[Fraction] = []
    for idx, piece in enumerate(gamma.pieces):
        dist = _slice_distance(piece, pt.subspace)
        if dist == 0:
            if not union_avoids_subspace(gamma, pt.subspace):
                raise NotFinitelyPresented(_NOT_FP)
            raise NonPointedPiece(
                "a piece of Gamma contains a line; no perturbation certificate "
                "is available (the decision itself remains exact)"
            )
        if l > 0:
            per_piece.append((idx, dist))
            r0 = max(linf_norm(gen) for gen in piece.generators)
            bounds.append(dist / (2 * l * r0))
    margins = [_vsp_margin_for_block(pt.subspace, block) for block in p.blocks]
    vsp_margin = min((b for b in margins if b is not None), default=None)
    delta = min(bounds + ([vsp_margin] if vsp_margin is not None else []), default=ONE)
    return OpennessCertificate(
        delta=delta,
        chart_pivots=pt.subspace.pivot_columns,
        per_piece_distance=tuple(per_piece),
        vsp_margin=vsp_margin,
    )


# --- construction of an FP point for two factors of equal rank ------------


def _half(v: Ray) -> int:
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _cross(u: Ray, v: Ray) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _rot90(v: Ray) -> Ray:
    return (-v[1], v[0])


def _angular_sort(dirs: set[Ray]) -> list[Ray]:
    # Counterclockwise from the positive x-axis; exact, no floats.
    import functools

    def cmp(u: Ray, v: Ray) -> int:
        hu, hv = _half(u), _half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = _cross(u, v)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(dirs, key=functools.cmp_to_key(cmp))


def _avoiding_directions(sigma: ConeUnion) -> Iterator[Ray]:
    """Verified directions v with span{v} meeting the union only in 0.

    The bad directions form finitely many closed angular sectors bounded by
    generator rays and their negatives, so every open gap between adjacent
    boundary directions is entirely good or entirely bad; each gap yields two
    non-parallel interior candidates, each verified exactly: its span meets
    the union only in 0.  Tameness guarantees at least one good gap exists.
    """
    dirs: set[Ray] = set()
    for piece in sigma.pieces:
        for g in piece.generators:
            dirs.add(g)
            dirs.add(canonical_ray(vec_neg(g)))
    if not dirs:
        yield (1, 0)
        yield (0, 1)
        return
    ordered = _angular_sort(dirs)
    n = len(ordered)
    for idx in range(n):
        d1, d2 = ordered[idx], ordered[(idx + 1) % n]
        c = _cross(d1, d2)
        if c > 0:
            candidates = (
                canonical_ray(vec_add(d1, d2)),
                canonical_ray(vec_add(d1, vec_scale(Fraction(2), d2))),
            )
        elif c == 0:
            # Adjacent antipodal directions: the gap is exactly a half-turn.
            candidates = (
                canonical_ray(_rot90(d1)),
                canonical_ray(vec_add(d1, _rot90(d1))),
            )
        else:
            continue
        for v in candidates:
            if union_avoids_subspace(sigma, Subspace.span([v])):
                yield v


def _sq_cos_bound(sigma: ConeUnion, p_inv: Matrix, axis: int) -> Fraction:
    """Max squared cosine between the union and the given orthonormal axis.

    Valid in dimension 2 because over an angular sector avoiding the axis and
    its negative, the squared cosine is maximised at a boundary ray, hence at
    a generator.  A zero maximum falls back to 1/2 (any upper bound < 1 works).
    """
    best = ZERO
    for piece in sigma.pieces:
        for g in piece.generators:
            gh = p_inv.mul_vec(g)
            val = gh[axis] ** 2 / (gh[0] ** 2 + gh[1] ** 2)
            if val > best:
                best = val
    return best if best > 0 else Fraction(1, 2)


@dataclass(frozen=True)
class RhoConstruction:
    """An invertible map rho with sigma_1 meeting rho(sigma_2) only in 0.

    The graph point {rho(w) + w : w in the second block} is then finitely
    presented.  For rank 2 the map scales the avoided directions: rho v1 =
    lam v1 and rho v2 = (1/lam) v2, where lam is the smallest power of two
    with lam^4 (1-eps1)(1-eps2) > eps1 eps2; that inequality makes the exact
    post-check provably pass.  verified is set only after the post-check.
    """

    rho: Matrix
    verified: bool
    point: SubspacePoint
    method: str
    v1: Optional[Ray] = None
    v2: Optional[Ray] = None
    eps1: Optional[Fraction] = None
    eps2: Optional[Fraction] = None
    lam: Optional[Fraction] = None


def _apply_to_union(m: Matrix, u: ConeUnion) -> ConeUnion:
    return cone_union(
        [
            cone([m.mul_vec(g) for g in piece.generators], ambient_dim=u.ambient_dim)
            for piece in u.pieces
        ],
        ambient_dim=u.ambient_dim,
    )


def _unions_meet_only_at_zero(u1: ConeUnion, u2: ConeUnion) -> bool:
    # Exact for pointed pieces only (a line in a or b also puts one in a - b):
    # construct_rho has checked both unions tame, and rho is invertible.
    return not any(
        cone_contains_line(cone_sum(a, cone_neg(b))) for a in u1.pieces for b in u2.pieces
    )


def _rho_point(p: ProductSpace, rho: Matrix) -> SubspacePoint:
    m = p.factors[0].rank
    rows = []
    for j in range(m):
        e_j = tuple(ONE if c == j else ZERO for c in range(m))
        rows.append(
            vec_add(embed_factor(p, 0, rho.column(j)), embed_factor(p, 1, e_j))
        )
    return subspace_point(Subspace.span(rows, ambient_dim=p.total_dim), k=m)


def construct_rho(p: ProductSpace) -> RhoConstruction:
    """Build rho with sigma_1 cap rho(sigma_2) = {0}, verified exactly.

    Rank 1 is a sign scan (-1, then +1); rank 2 runs the gap scan above;
    higher ranks are handled only for identical cone data, the same pieces
    in any order (rho = -identity, where the post-check is exactly
    tameness), and refused otherwise.
    """
    if len(p.factors) != 2:
        raise ValueError("exactly two factors are required")
    f1, f2 = p.factors
    if f1.rank != f2.rank:
        raise UnsupportedRank("factors of unequal rank are not handled")
    m = f1.rank
    for f in (f1, f2):
        if not union_is_tame(f.sigma_c):
            raise ValueError(f"factor {f.name!r}: cone data is not tame")
    s1, s2 = f1.sigma_c, f2.sigma_c

    def finish(rho: Matrix, method: str, **extras) -> RhoConstruction:
        if not _unions_meet_only_at_zero(s1, _apply_to_union(rho, s2)):
            raise ConstructionFailed(
                "post-check failed: sigma_1 meets rho(sigma_2) nontrivially"
            )
        return RhoConstruction(
            rho=rho, verified=True, point=_rho_point(p, rho), method=method, **extras
        )

    if m == 1:  # the scan's check on each sign is its post-check
        try:
            return finish(Matrix.from_rows([[-ONE]]), "sign-scan")
        except ConstructionFailed:
            return finish(Matrix.from_rows([[ONE]]), "sign-scan")
    if m == 2:
        try:
            v1 = next(_avoiding_directions(s1))
            v2 = next(v for v in _avoiding_directions(s2) if _cross(v1, v) != 0)
        except StopIteration:  # tame data always has a good gap
            raise ConstructionFailed("no line-avoiding direction found") from None
        basis = Matrix.from_rows([[v1[0], v2[0]], [v1[1], v2[1]]])
        basis_inv = inverse(basis)
        eps1 = _sq_cos_bound(s1, basis_inv, 0)
        eps2 = _sq_cos_bound(s2, basis_inv, 1)
        rhs = (eps1 * eps2) / ((1 - eps1) * (1 - eps2))
        t = 0
        while Fraction(16) ** t <= rhs:
            t += 1
        while Fraction(16) ** (t - 1) > rhs:
            t -= 1
        lam = Fraction(2) ** t
        scale = Matrix.from_rows([[lam, ZERO], [ZERO, 1 / lam]])
        rho = basis.mul(scale).mul(basis_inv)
        return finish(rho, "gap-scan", v1=v1, v2=v2, eps1=eps1, eps2=eps2, lam=lam)
    if set(s1.pieces) == set(s2.pieces):
        neg_identity = Matrix.from_rows(
            [[-ONE if i == j else ZERO for j in range(m)] for i in range(m)]
        )
        return finish(neg_identity, "negated-identity")
    raise UnsupportedRank(
        f"rank {m} with distinct cone data: existence of an FP point is open"
    )


# --- explicit non-FP point -------------------------------------------------


def _greedy_rows(
    candidates: Iterable[Vector], count: int, accept: Callable[[list[Vector]], bool]
) -> list[Vector]:
    """Up to `count` candidates in order, each kept iff `accept` takes it
    together with the rows kept before it."""
    rows: list[Vector] = []
    for v in candidates:
        if len(rows) == count:
            break
        if accept(rows + [v]):
            rows.append(v)
    return rows


def _extension_candidates(n: int, cap: int) -> Iterator[Vector]:
    # Standard basis vectors first, then moment-curve vectors (1, t, t^2, ...);
    # any proper subspace contains at most n - 1 moment points, so the greedy
    # scan below always completes within the cap.
    for c in range(n):
        yield tuple(ONE if i == c else ZERO for i in range(n))
    for t in range(1, cap + 1):
        yield tuple(Fraction(t) ** i for i in range(n))


def construct_nonfp_witness(p: ProductSpace, k: int) -> SubspacePoint:
    """A verified virtual subdirect product point that is not FP.

    Sums one ray from each of the two lowest-index factors with nonzero cone
    data (the sum lies in Gamma and in no factor block) and greedily extends
    it to an (N-k)-dimensional subspace avoiding every block, re-checking
    each step exactly.
    """
    nonzero = [i for i, f in enumerate(p.factors) if f.sigma_c.pieces]
    if len(nonzero) < 2:
        raise NoSuitableFactors(
            "need at least two factors with nonzero cone data (non-polycyclic)"
        )
    if not p.max_rank <= k < p.total_dim:
        raise ValueError(
            f"k must satisfy {p.max_rank} <= k < {p.total_dim}, got {k}"
        )
    i, j = nonzero[0], nonzero[1]
    chi = embed_factor(p, i, p.factors[i].sigma_c.pieces[0].generators[0])
    psi = embed_factor(p, j, p.factors[j].sigma_c.pieces[0].generators[0])
    seed = vec_add(chi, psi)
    n = p.total_dim

    candidates = chain([seed], _extension_candidates(n, n * n * (len(p.factors) + 2)))
    rows = _greedy_rows(candidates, n - k, lambda r: rows_avoid_blocks(Matrix.from_rows(r), p))
    if rows[:1] != [seed]:  # the seed ray spans two blocks
        raise RuntimeError("internal error: the seed ray meets a factor block")
    if len(rows) != n - k:
        raise RuntimeError("internal error: basis extension did not complete")
    pt = SubspacePoint(Subspace.span(rows, ambient_dim=n), k)
    _require_vsp(pt, p)
    if union_avoids_subspace(build_gamma(assemble_sigma(p)), pt.subspace):
        raise RuntimeError("internal error: constructed point decided FP")
    return pt


# --- open box of non-FP points --------------------------------------------


@dataclass(frozen=True)
class NonFpBox:
    """A chart box in which every virtual subdirect product point is non-FP."""

    chart: Chart
    description: str
    sample_points: tuple[SubspacePoint, ...]


def _independent(rows: list[Vector]) -> bool:
    return Subspace.span(rows).dim == len(rows)


def box_point(box: NonFpBox, a_entries: Matrix) -> SubspacePoint:
    """The box's point at chart matrix A (the chart's shape, entries in (0, 1])."""
    if (a_entries.rows, a_entries.cols) != (box.chart.a_matrix.rows, box.chart.a_matrix.cols):
        raise ValueError("chart matrix shape differs from the box's")
    if any(not 0 < e <= 1 for row in a_entries.entries for e in row):
        raise ValueError("box entries must lie in (0, 1]")
    return chart_to_point(chart(box.chart.complement_basis, a_entries))


def construct_nonfp_box(p: ProductSpace, gamma: ConeUnion, k: int) -> NonFpBox:
    """An open chart box of non-FP points, available iff dim(Gamma) > k.

    Takes d > k independent generators B of a high-dimensional piece, splits
    off k of them to be complemented, and parametrises with strictly positive
    chart entries: the first chart row is then a positive combination of B,
    hence a nonzero Gamma point inside the subspace.  Ten deterministic
    samples are drawn from the box, resampled if not virtual subdirect, and
    each verified non-FP.
    """
    if theorem_a_applicable(p, gamma, k):
        raise TheoremAApplies(
            "dim(Gamma) <= k: non-FP points form no open set (they lie in a "
            "proper subvariety)"
        )
    n = p.total_dim
    piece = next(pc for pc in gamma.pieces if cone_dim(pc) > k)
    d = cone_dim(piece)
    b = _greedy_rows(piece.generators, d, _independent)
    if len(b) != d:
        raise RuntimeError("internal error: fewer independent generators than the cone dimension")
    units = [tuple(ONE if i == c else ZERO for i in range(n)) for c in range(n)]
    completion = _greedy_rows(b + units, n, _independent)[d:]
    b1, b2 = b[:k], b[k:]
    basis_rows = b2 + completion + b1
    if len(basis_rows) != n:
        raise RuntimeError("internal error: basis completion did not reach full rank")
    basis = Matrix.from_rows(basis_rows)
    l = n - k
    ones = Matrix.from_rows([[ONE] * k for _ in range(l)], cols=k)
    box_chart = chart(basis, ones)
    samples: list[SubspacePoint] = []
    for sample_index in range(10):
        for attempt in range(64):
            stream = CounterStream(0, _BOX_STREAM, sample_index, attempt)
            entries = [
                [
                    Fraction(stream.uniform_int(1, _SAMPLE_DENOM), _SAMPLE_DENOM)
                    for _ in range(k)
                ]
                for _ in range(l)
            ]
            candidate = chart_to_point(chart(basis, Matrix.from_rows(entries, cols=k)))
            if is_virtual_subdirect(candidate, p):
                break
        else:
            raise RuntimeError("internal error: box sampling kept hitting blocks")
        if union_avoids_subspace(gamma, candidate.subspace):
            raise RuntimeError("internal error: box sample decided FP")
        samples.append(candidate)
    return NonFpBox(
        chart=box_chart,
        description="all entries of A strictly positive within (0, 1] per entry",
        sample_points=tuple(samples),
    )


# --- seeded measure experiment ---------------------------------------------


def _measure_chunk(args) -> tuple[int, int]:
    p, gamma, k, seed, start, stop = args
    vsp_failures = 0
    nonfp = 0
    for index in range(start, stop):
        pt = sample_point(p, k, seed, index)
        if not is_virtual_subdirect(pt, p):
            vsp_failures += 1
        elif not union_avoids_subspace(gamma, pt.subspace):
            nonfp += 1
    return vsp_failures, nonfp


def _sample_ranges(samples: int, jobs: int, cpus: int) -> list[tuple[int, int]]:
    """Sample index ranges, one per worker process: no more than `jobs`,
    than `cpus`, or than one per two samples; a single range runs serially."""
    workers = max(1, min(jobs, cpus, samples // 2))
    step = max(1, -(-samples // workers))
    return [(lo, min(lo + step, samples)) for lo in range(0, samples, step)]


def run_measure_experiment(
    p: ProductSpace, k: int, samples: int, seed: int, jobs: int = 1
) -> MeasureReport:
    """Sample `samples` points and count vsp failures and non-FP verdicts.

    Deterministic given (seed, samples): each sample is a pure function of
    (seed, index), so the report is identical for any job count.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    started = time.perf_counter()
    gamma = build_gamma(assemble_sigma(p))
    applicable = theorem_a_applicable(p, gamma, k)  # validates the k range
    ranges = _sample_ranges(samples, jobs, os.cpu_count() or 1)
    chunks = [(p, gamma, k, seed, lo, hi) for lo, hi in ranges]
    if len(chunks) < 2:
        counts = [_measure_chunk(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            counts = list(pool.map(_measure_chunk, chunks))
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return MeasureReport(
        k=k,
        samples=samples,
        seed=seed,
        vsp_failures=sum(c[0] for c in counts),
        nonfp_count=sum(c[1] for c in counts),
        theorem_a_applicable=applicable,
        gamma_dim=union_dim(gamma),
        elapsed_ms=elapsed_ms,
    )
