from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cone_contains_line_oracle, cones_meet_oracle, union_meets_subspace_oracle
from sigmafp import cones, lp
from sigmafp.cones import (
    canonical_ray,
    cone,
    cone_contains,
    cone_contains_line,
    cone_dim,
    cone_neg,
    cone_sum,
    cone_union,
    cones_meet_nontrivially,
    piece_subspace_lps,
    union_avoids_subspace,
    union_dim,
    union_is_tame,
    union_meets_subspace,
)
from sigmafp.formats import load_fixture
from sigmafp.grassmann import sample_point
from sigmafp.linalg import (
    Matrix,
    Subspace,
    constraint_rows,
    kernel_basis,
    rref,
    subspaces_intersect_trivially,
)
from sigmafp.product import build_gamma

F = Fraction


def test_canonical_ray():
    assert canonical_ray([F(2, 3), F(-4, 3)]) == (F(1), F(-2))
    assert canonical_ray([-2, 0, -4]) == (F(-1), F(0), F(-2))
    for v in ([F(2, 3), F(-4, 3)], [-2, 0, -4], (F(5), F(0)), [F(-1, 7)]):
        assert all(type(a) is int for a in canonical_ray(v))
    with pytest.raises(ValueError):
        canonical_ray([0, 0])


def test_cone_generators_canonicalised():
    c = cone([(2, 0), (1, 0), (0, 3)])
    assert c.generators == ((F(0), F(1)), (F(1), F(0)))


def test_cone_contains_quadrant():
    c = cone([(1, 0), (0, 1)])
    assert cone_contains(c, (2, 3))
    assert not cone_contains(c, (-1, 0))


def test_cone_contains_derived():
    # (2, 3) = 1*(1, 1) + 1*(1, 2)
    assert cone_contains(cone([(1, 1), (1, 2)]), (2, 3))
    assert not cone_contains(cone([(1, 1), (1, 2)]), (3, 1))


def test_cone_contains_zero_and_generators():
    c = cone([(1, 2), (-3, 5)])
    assert cone_contains(c, (0, 0))
    for g in c.generators:
        assert cone_contains(c, g)
    zero = cone([], ambient_dim=2)
    assert cone_contains(zero, (0, 0))
    assert not cone_contains(zero, (1, 0))


def test_cone_dim():
    assert cone_dim(cone([(1, 0)])) == 1
    assert cone_dim(cone([(1, 0), (0, 1)])) == 2
    assert cone_dim(cone([(1, 1), (2, 2)])) == 1
    assert cone_dim(cone([], ambient_dim=2)) == 0


def test_raw_cone_with_fractional_generators_spans_them():
    # A ConvexCone built directly keeps its generators as given; its span,
    # which the prefilter reads, must be that of those rays.
    half = cones.ConvexCone(2, ((Fraction(1, 2), Fraction(1, 3)),))
    assert cones._cone_span(half) == Subspace.span([(3, 2)])
    line = cones.ConvexCone(2, ((Fraction(3), Fraction(2)), (Fraction(-3, 7), Fraction(-2, 7))))
    assert cone_dim(line) == 1
    w = cone([(3, 2)])
    assert cones_meet_nontrivially(half, w) is not None
    assert union_meets_subspace(cone_union([half]), Subspace.span([(3, 2)])) is not None


def test_cone_contains_line():
    assert cone_contains_line(cone([(1, 0), (-1, 0)]))
    assert not cone_contains_line(cone([(1, 0), (0, 1)]))
    # 0 = (1,1) + (-1,0) + (0,-1), normalised to coefficients summing to 1
    assert cone_contains_line(cone([(1, 1), (-1, 0), (0, -1)]))


def test_cone_sum():
    assert cone_sum(cone([(1, 0)]), cone([(0, 1)])) == cone([(1, 0), (0, 1)])
    c = cone([(1, 2), (3, -1)])
    assert cone_sum(c, c) == c
    assert cone_sum(cone([(1, 0)]), cone([], ambient_dim=2)) == cone([(1, 0)])


def test_cone_neg():
    assert cone_neg(cone([(1, 0)])) == cone([(-1, 0)])
    assert cone_neg(cone([], ambient_dim=3)) == cone([], ambient_dim=3)
    c = cone([(1, 2), (-3, 4)])
    assert cone_neg(cone_neg(c)) == c


def test_cones_meet_trivial_cases():
    w = cones_meet_nontrivially(cone([(1, 0), (0, 1)]), cone([(1, 1)]))
    assert w is not None and w.ray == (F(1), F(1))
    assert cones_meet_nontrivially(cone([(1, 0)]), cone([(0, 1)])) is None


def test_cones_meet_derived():
    # (1, 1) = (1/3)(1, 2) + (1/3)(2, 1)
    w = cones_meet_nontrivially(cone([(1, 2), (2, 1)]), cone([(1, 1)]))
    assert w is not None
    assert w.ray == (F(1), F(1))
    gens = cone([(1, 2), (2, 1)]).generators
    combo = [sum(w.coefficients[j] * gens[j][i] for j in range(len(gens))) for i in range(2)]
    assert tuple(combo) == w.ray


def test_union_meets_subspace_quadrant():
    gamma = cone_union([cone([(1, 0), (0, 1)])])
    assert union_meets_subspace(gamma, Subspace.span([[1, -1]])) is None
    w = union_meets_subspace(gamma, Subspace.span([[1, 1]]))
    assert w is not None and w.ray == (F(1), F(1))


def test_union_meets_subspace_derived():
    u = cone_union([cone([(1, 0, 0)]), cone([(0, 1, 1)])])
    w = union_meets_subspace(u, Subspace.span([[0, 1, 1], [1, 0, 5]]))
    assert w is not None
    assert w.piece_index == 1
    assert w.ray == (F(0), F(1), F(1))
    # kernel equations really vanish on the witness
    k = constraint_rows(Subspace.span([[0, 1, 1], [1, 0, 5]]))
    assert all(sum(row[i] * w.ray[i] for i in range(3)) == 0 for row in k.entries)


def test_union_meets_zero_and_full_subspace():
    u = cone_union([cone([(1, 0), (0, 1)])])
    assert union_meets_subspace(u, Subspace.zero(2)) is None
    w = union_meets_subspace(u, Subspace.full(2))
    assert w is not None


def test_union_is_tame():
    assert union_is_tame(cone_union([cone([(1, 0)]), cone([(0, 1)])]))
    assert not union_is_tame(cone_union([cone([(1, 0)]), cone([(-1, 0)])]))
    # the quadrant holds (1, 1), the other piece its negative
    assert not union_is_tame(cone_union([cone([(1, 0), (0, 1)]), cone([(-1, -1)])]))
    # sector of angle pi/4 contains no antipodal pair
    assert union_is_tame(cone_union([cone([(1, 0), (1, 1)])]))
    assert union_is_tame(cone_union([], ambient_dim=2))


def test_union_is_tame_solves_one_lp_per_dependent_piece_pair(solved_lps):
    u = cone_union(
        [cone([(1, 0, 0), (0, 1, 0)]), cone([(0, 0, 1)]), cone([(1, 1, 1)]), cone([(2, 1, 0)])]
    )
    assert union_is_tame(u)
    # of the 10 unordered pairs, only {(1,0,0),(0,1,0)} + {(2,1,0)} has
    # dependent generators; every other pair is settled by its rank
    assert len(solved_lps) == 1


def test_union_dim():
    assert union_dim(cone_union([cone([(1, 0)]), cone([(0, 1)])])) == 1
    assert union_dim(cone_union([cone([(1, 0), (0, 1)])])) == 2
    assert union_dim(cone_union([], ambient_dim=2)) == 0


def test_k_costs_one_rref_and_independent_generators_no_lp(exact_rrefs, solved_lps):
    s = sample_point(load_fixture("f4"), 2, seed=3, index=0).subspace
    k = constraint_rows(s)
    # the kernel's canonical RREF is the only one built; S° needs none
    assert len(exact_rrefs) == 1
    assert k.rows == s.ambient_dim - s.dim and rref(k)[0] == k
    assert kernel_basis(k) == s
    assert constraint_rows(Subspace.zero(3)) == Matrix.identity(3)
    assert not cone_contains_line(cone([(1, 0, 0), (1, 1, 0), (0, -1, 2)]))
    assert not cone_contains_line(cone([], ambient_dim=2))
    assert solved_lps == []
    assert cone_contains_line(cone([(1, 0), (-1, 1), (0, -1)]))
    assert len(solved_lps) == 1


def test_piece_with_line_makes_union_non_tame():
    u = cone_union([cone([(1, 1), (-1, -1)]), cone([(1, 0)])])
    assert cone_contains_line(u.pieces[0])
    assert not union_is_tame(u)


def test_tame_invariant_under_negation():
    for u in (
        cone_union([cone([(1, 0), (1, 1)]), cone([(-1, 2)])]),
        cone_union([cone([(1, 0)]), cone([(-1, 0)])]),
    ):
        negated = cone_union([cone_neg(p) for p in u.pieces], ambient_dim=u.ambient_dim)
        assert union_is_tame(u) == union_is_tame(negated)


def test_meets_none_iff_all_lps_infeasible_with_farkas():
    u = cone_union([cone([(1, 0), (0, 1)]), cone([(2, 1)])])
    w = Subspace.span([[1, -1]])
    assert union_meets_subspace(u, w) is None
    for piece in u.pieces:
        for problem in piece_subspace_lps(piece, w):
            out = lp.solve(problem)
            assert out.status == "infeasible"
            assert lp.verify_farkas(problem, out.farkas)


def test_slice_lp_infeasible_with_farkas_on_fp_point():
    u = cone_union([cone([(1, 0), (0, 1)]), cone([(2, 1)])])
    w = Subspace.span([[1, -1]])
    assert union_meets_subspace(u, w) is None
    for piece in u.pieces:
        problem = cones._slice_lp(constraint_rows(w).mul(cones._generator_matrix(piece)))
        out = lp.solve(problem)
        assert out.status == "infeasible"
        assert lp.verify_farkas(problem, out.farkas)


def fp_union():
    """Three pointed pieces pass the prefilter for span{(1, -1, 0)}, one of
    them with dependent generators; the z-axis piece is skipped."""
    return cone_union(
        [
            cone([(1, 0, 0), (0, 1, 0)]),
            cone([(1, 0, 0), (1, 1, 0), (0, 1, 0)]),
            cone([(0, 0, 1)]),
            cone([(1, 0, 1), (0, 1, 1)]),
        ]
    )


def test_fp_point_solves_one_slice_lp_per_pointed_piece(solved_lps):
    u = fp_union()
    w = Subspace.span([[1, -1, 0]])
    assert union_meets_subspace(u, w) is None
    # piece 0 lies inside piece 1 and is not scanned: two slice LPs plus one
    # line LP for piece 1's dependent generators
    assert len(solved_lps) == 3
    solved_lps.clear()
    # the same union reuses its compiled pointedness flags
    assert union_meets_subspace(u, w) is None
    assert len(solved_lps) == 2
    solved_lps.clear()
    # an equal but distinct union compiles its own
    assert union_meets_subspace(fp_union(), w) is None
    assert len(solved_lps) == 3


def test_dim_mismatch_errors():
    with pytest.raises(ValueError):
        cone_contains(cone([(1, 0)]), (1, 0, 0))
    with pytest.raises(ValueError):
        cone_sum(cone([(1, 0)]), cone([(1, 0, 0)]))
    with pytest.raises(ValueError):
        cones_meet_nontrivially(cone([(1, 0)]), cone([(1, 0, 0)]))
    for decide in (union_meets_subspace, union_avoids_subspace):
        with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
            decide(cone_union([cone([(1, 0)])]), Subspace.span([[1, 0, 0]]))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rays(draw, dim):
    v = draw(
        st.lists(small_fracs, min_size=dim, max_size=dim).filter(
            lambda w: any(e != 0 for e in w)
        )
    )
    return tuple(v)


@st.composite
def cones_strategy(draw, dim):
    k = draw(st.integers(1, 3))
    return cone([draw(rays(dim)) for _ in range(k)], ambient_dim=dim)


@given(st.integers(2, 3).flatmap(lambda d: cones_strategy(d)))
@settings(max_examples=40, deadline=None)
def test_ray_scaling_does_not_change_cone(c):
    rescaled = cone(
        [tuple(F(3, 2) * e for e in g) for g in c.generators], ambient_dim=c.ambient_dim
    )
    assert rescaled == c


@given(st.integers(2, 3).flatmap(lambda d: st.tuples(cones_strategy(d), cones_strategy(d))))
@settings(max_examples=30, deadline=None)
def test_cone_sum_contains_pairwise_sums(pair):
    a, b = pair
    s = cone_sum(a, b)
    for x in a.generators[:2]:
        for y in b.generators[:2]:
            assert cone_contains(s, tuple(p + q for p, q in zip(x, y)))
    assert cone_contains_line(s) == cone_contains_line_oracle(s)


@given(st.integers(1, 3).flatmap(lambda d: cones_strategy(d)))
@settings(max_examples=40, deadline=None)
def test_line_oracle_agrees_with_antipodal_meet_oracle(c):
    # A cone of at most 3 generators keeps the subset enumeration cheap.
    assert cone_contains_line_oracle(c) == cones_meet_oracle(c, cone_neg(c))


@st.composite
def overlapping_cone_pairs(draw):
    # Zero cones, shared rays and rescaled copies of a's rays all occur.
    dim = draw(st.integers(1, 3))
    a = cone(draw(st.lists(rays(dim), max_size=3)), ambient_dim=dim)
    shared = [tuple(F(s) * e for e in g) for g, s in zip(a.generators, draw(
        st.lists(st.integers(1, 5), max_size=len(a.generators))))]
    b = cone(shared + draw(st.lists(rays(dim), max_size=2)), ambient_dim=dim)
    return a, b


@given(overlapping_cone_pairs())
@settings(max_examples=60, deadline=None)
def test_cone_sum_equals_cone_of_both_generator_sets(pair):
    a, b = pair
    assert cone_sum(a, b) == cone(a.generators + b.generators, ambient_dim=a.ambient_dim)
    assert cone_sum(a, b) == cone_sum(b, a)


@st.composite
def line_pieces(draw, dim):
    r = draw(rays(dim))
    extra = draw(st.lists(rays(dim), max_size=2))
    return cone([r, tuple(-e for e in r)] + extra, ambient_dim=dim)


@st.composite
def unions_and_subspaces(draw):
    dim = draw(st.integers(2, 3))
    pieces = draw(st.lists(st.one_of(cones_strategy(dim), line_pieces(dim)), min_size=1, max_size=3))
    w_rows = draw(st.lists(rays(dim), min_size=1, max_size=dim - 1))
    return cone_union(pieces, ambient_dim=dim), w_rows


def normalised_scan(u, w):
    """The 2N normalised LPs of every piece past the prefilter, in order."""
    for index, piece in enumerate(u.pieces):
        if subspaces_intersect_trivially(cones._cone_span(piece), w):
            continue
        g = cones._generator_matrix(piece)
        hit = cones._first_witness(piece_subspace_lps(piece, w), g, index)
        if hit is not None:
            return hit
    return None


# dependent generators: the slice LP's vertex has other coefficients
@example((cone_union([cone([(-1, 1), (0, 1), (1, 0)]), cone([(-3, 2), (-1, 2), (1, 2)])]), [(-1, -2)]))
# a wedge around a line that the subspace misses: not pointed, no slice LP
@example((cone_union([cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])]), [(0, 1, -1)]))
@given(unions_and_subspaces())
@settings(max_examples=60, deadline=None)
def test_union_meets_subspace_matches_oracle_and_normalised_scan(case):
    u, w_rows = case
    w = Subspace.span(w_rows, ambient_dim=u.ambient_dim)
    hit = union_meets_subspace(u, w)
    assert (hit is not None) == union_meets_subspace_oracle(u, w_rows)
    assert hit == normalised_scan(u, w)


@st.composite
def gammas_and_subspaces(draw):
    """build_gamma unions (nested pieces, lines, duplicated sigma pieces) and
    a subspace."""
    dim = draw(st.integers(2, 4))
    pieces = draw(st.lists(st.one_of(cones_strategy(dim), line_pieces(dim)), min_size=1, max_size=3))
    if draw(st.booleans()):
        pieces.append(pieces[0])
    w_rows = draw(st.lists(rays(dim), min_size=1, max_size=dim - 1))
    return build_gamma(cone_union(pieces, ambient_dim=dim)), w_rows


@given(gammas_and_subspaces())
@settings(max_examples=60, deadline=None)
def test_maximal_pieces_decide_and_the_full_order_names_the_witness(case):
    gamma, w_rows = case
    w = Subspace.span(w_rows, ambient_dim=gamma.ambient_dim)
    assert union_meets_subspace(gamma, w) == normalised_scan(gamma, w)


def test_a_nested_piece_earlier_in_the_order_names_the_witness():
    # Γ = [a, a + b, b]: only a + b is maximal, and a meets w first
    gamma = build_gamma(cone_union([cone([(1, 0, 0)]), cone([(0, 1, 0)])]))
    assert [i for i, _, _ in gamma._compiled.maximal] == [1]
    w = Subspace.span([[1, 0, 0], [0, 0, 1]])
    hit = union_meets_subspace(gamma, w)
    assert hit == normalised_scan(gamma, w)
    assert (hit.piece_index, hit.ray, hit.coefficients) == (0, (1, 0, 0), (1,))
