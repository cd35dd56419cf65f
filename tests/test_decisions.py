import contextlib
import dataclasses
import pickle
import re
from collections import Counter
from fractions import Fraction

import pytest

from sigmafp import cones, decisions, linalg
from sigmafp.cones import (
    ConeUnion,
    cone,
    cone_contains,
    cone_union,
    cones_meet_nontrivially,
    union_dim,
    union_is_tame,
)
from sigmafp.decisions import (
    FpDecision,
    box_point,
    construct_nonfp_box,
    construct_nonfp_witness,
    construct_rho,
    is_finitely_presented,
    openness_certificate,
    run_measure_experiment,
)
from sigmafp.errors import (
    NonPointedPiece,
    NoSuitableFactors,
    NotFinitelyPresented,
    NotVirtualSubdirect,
    TheoremAApplies,
    UnsupportedRank,
)
from sigmafp.formats import load_fixture
from sigmafp.grassmann import is_virtual_subdirect, sample_point, subspace_point
from sigmafp.linalg import Matrix, Subspace
from sigmafp.product import (
    ProductSpace,
    assemble_sigma,
    block_subspace,
    build_gamma,
    factor_spec,
    product_space,
)

F = Fraction


def ray_factor(name, rank, *rays):
    pieces = [cone([r], ambient_dim=rank) for r in rays]
    return factor_spec(name, rank, cone_union(pieces, ambient_dim=rank))


def union_factor(name, rank, *piece_generators):
    pieces = [cone(g, ambient_dim=rank) for g in piece_generators]
    return factor_spec(name, rank, cone_union(pieces, ambient_dim=rank))


def f1_setup():
    p = load_fixture("f1")
    gamma = build_gamma(assemble_sigma(p))
    return p, gamma


def line_point(*coords):
    return subspace_point(Subspace.span([list(coords)]), k=len(coords) - 1)


# --- is_finitely_presented --------------------------------------------------


def test_f1_fp_point():
    p, gamma = f1_setup()
    decision = is_finitely_presented(line_point(1, -1), gamma, p)
    assert decision.finitely_presented and decision.witness is None


def test_f1_nonfp_point_with_witness():
    p, gamma = f1_setup()
    decision = is_finitely_presented(line_point(1, 1), gamma, p)
    assert not decision.finitely_presented
    w = decision.witness
    assert w.ray == (F(1), F(1))
    # witness invariants: ray in the named piece, in the subspace, nonzero
    piece = gamma.pieces[w.piece_index]
    assert cone_contains(piece, w.ray)
    combo = [
        sum(w.coefficients[j] * piece.generators[j][i] for j in range(len(piece.generators)))
        for i in range(2)
    ]
    assert tuple(combo) == w.ray
    assert all(c >= 0 for c in w.coefficients)
    assert Subspace.span([[1, 1]]).contains(w.ray)


def test_f1_block_point_raises():
    p, gamma = f1_setup()
    with pytest.raises(NotVirtualSubdirect):
        is_finitely_presented(line_point(1, 0), gamma, p)


def _verdict(space, rows, k):
    gamma = build_gamma(assemble_sigma(space))
    pt = subspace_point(Subspace.span(rows, ambient_dim=space.total_dim), k)
    return is_finitely_presented(pt, gamma, space).finitely_presented


def test_fp_invariant_under_factor_permutation():
    base = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 2, (1, 2))])
    swapped = product_space([ray_factor("b", 2, (1, 2)), ray_factor("a", 1, (1,))])
    for x, y1, y2 in ((1, 1, 2), (1, -1, 3), (2, 1, 1)):
        # coordinates permuted along with the factors: (x; y1, y2) -> (y1, y2; x)
        assert _verdict(base, [[x, y1, y2]], 2) == _verdict(swapped, [[y1, y2, x]], 2)


def test_fp_invariant_under_generator_scaling():
    base = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 2, (1, 2))])
    scaled = product_space([ray_factor("a", 1, (3,)), ray_factor("b", 2, (F(1, 2), 1))])
    for rows in ([[1, 1, 2]], [[1, -1, 3]], [[2, -5, 1]]):
        assert _verdict(base, rows, 2) == _verdict(scaled, rows, 2)


def test_fp_monotone_under_piece_subset():
    p, gamma = f1_setup()
    pt = line_point(1, -1)
    assert is_finitely_presented(pt, gamma, p).finitely_presented
    for drop in range(len(gamma.pieces)):
        smaller = cone_union(
            [piece for i, piece in enumerate(gamma.pieces) if i != drop],
            ambient_dim=gamma.ambient_dim,
        )
        assert is_finitely_presented(pt, smaller, p).finitely_presented


# --- openness certificates --------------------------------------------------


def test_certificate_f1_exact_values():
    p, gamma = f1_setup()
    cert = openness_certificate(line_point(1, -1), gamma, p)
    assert cert.delta == F(1, 4)
    assert cert.chart_pivots == (0,)
    assert dict(cert.per_piece_distance) == {0: F(1, 2), 1: F(1, 2), 2: F(1, 2)}
    assert cert.vsp_margin == F(1, 2)


def test_certificate_empty_gamma_uses_vsp_margin():
    p = product_space(
        [
            factor_spec("z", 1, cone_union([], ambient_dim=1)),
            factor_spec("w", 1, cone_union([], ambient_dim=1)),
        ]
    )
    gamma = build_gamma(assemble_sigma(p))
    cert = openness_certificate(line_point(1, -1), gamma, p)
    assert cert.per_piece_distance == ()
    assert cert.delta == cert.vsp_margin == F(1, 2)


def test_certificate_refused_on_non_pointed_piece():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    gamma = cone_union([cone([(1, 1), (-1, -1)])])
    pt = line_point(1, -2)
    assert is_finitely_presented(pt, gamma, p).finitely_presented
    with pytest.raises(NonPointedPiece):
        openness_certificate(pt, gamma, p)


def test_certificate_non_fp_beats_non_pointed_piece():
    # the slice distances cannot decide FP when a piece contains a line, so
    # the NotFinitelyPresented verdict must still win over the refusal
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    gamma = cone_union([cone([(1, 1), (-1, -1)]), cone([(1, 0), (0, 1)])])
    pt = line_point(1, 2)
    assert not is_finitely_presented(pt, gamma, p).finitely_presented
    with pytest.raises(NotFinitelyPresented):
        openness_certificate(pt, gamma, p)


def test_certificate_solves_one_lp_per_piece_on_fp_point(solved_lps):
    p, gamma = f1_setup()
    cert = openness_certificate(line_point(1, -1), gamma, p)
    assert len(gamma.pieces) == 3
    assert len(solved_lps) == len(gamma.pieces) == len(cert.per_piece_distance)


@pytest.mark.parametrize(
    "fixture, rows, k, delta, pivots",
    [
        ("f1", [[1, -1]], 1, F(1, 4), 9),
        ("f4", [[1, 0, 0, -1], [0, 1, -1, 0]], 2, F(1, 32), 25),
        ("f2", [[1, 0, 0, 0, 0, -3], [0, 1, 0, 0, -2, 0]], 4, F(1, 16), 25),
    ],
)
def test_certificate_distance_lps_start_on_their_slacks(simplex_pivots, fixture, rows, k, delta, pivots):
    # Every inequality row of a slice-distance LP has right-hand side 0, so
    # each starts on its slack and phase 1 only drives out the simplex row's
    # artificial.  With an artificial in every row the same certificates
    # took 22, 92 and 125 pivots.
    p = load_fixture(fixture)
    gamma = build_gamma(assemble_sigma(p))
    cert = openness_certificate(subspace_point(Subspace.span(rows), k), gamma, p)
    assert cert.delta == delta
    assert simplex_pivots[0] == pivots


def test_vsp_margin_equals_cofactor_bound_without_determinants(monkeypatch):
    from sigmafp.grassmann import sample_point

    p = load_fixture("f4")
    checked = 0
    for index in range(12):
        pt = sample_point(p, 2, seed=5, index=index)
        if not is_virtual_subdirect(pt, p):
            continue
        for i in range(len(p.factors)):
            w, block = pt.subspace, block_subspace(p, i)
            stacked = Matrix(w.dim + block.dim, w.ambient_dim, w.basis.entries + block.basis.entries)
            _, cols = linalg.rref(stacked)
            square = linalg.submatrix_columns(stacked, cols)
            total = sum(
                abs(linalg.cofactor(square, r, j))
                for r in range(w.dim)
                for j, c in enumerate(cols)
                if c not in w.pivot_columns
            )
            expected = abs(linalg.det(square)) / (2 * total) if total else None
            with monkeypatch.context() as m:
                for name in ("det", "cofactor"):
                    m.setattr(linalg, name, None)
                    m.setattr(decisions, name, None, raising=False)
                assert decisions._vsp_margin_for_block(w, p.blocks[i]) == expected
            checked += 1
    assert checked >= 10


def test_certificate_requires_fp():
    p, gamma = f1_setup()
    with pytest.raises(NotFinitelyPresented):
        openness_certificate(line_point(1, 1), gamma, p)


def test_certificate_refuses_nonfp_point_by_verdict_alone(monkeypatch):
    # The zero slice distance is settled by the verdict: no witness is named
    # and the vsp test at the top is the only one.
    p, gamma = f1_setup()
    calls = Counter()
    for module, name in ((cones, "_first_witness"), (decisions, "is_virtual_subdirect")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    with pytest.raises(NotFinitelyPresented):
        openness_certificate(line_point(1, 1), gamma, p)
    assert calls == {"is_virtual_subdirect": 1}


def test_certificate_perturbations_sound_f1():
    p, gamma = f1_setup()
    pt = line_point(1, -1)
    cert = openness_certificate(pt, gamma, p)
    d = cert.delta
    # extreme corners of the perturbation box on the single free entry
    for shift in (d, -d, d / 2, -d / 2):
        perturbed = subspace_point(Subspace.span([[1, -1 + shift]]), 1)
        assert is_virtual_subdirect(perturbed, p)
        assert is_finitely_presented(perturbed, gamma, p).finitely_presented


def test_certificate_corner_perturbations_sound_f2():
    # two-row bases are the delicate case for the stacked-minor margin:
    # push every perturbable entry to +/-delta simultaneously
    from itertools import product as iproduct

    from sigmafp.grassmann import sample_point

    p = load_fixture("f2")
    gamma = build_gamma(assemble_sigma(p))
    pt = None
    for index in range(100):
        candidate = sample_point(p, 4, seed=99, index=index)
        if is_virtual_subdirect(candidate, p) and is_finitely_presented(
            candidate, gamma, p
        ).finitely_presented:
            pt = candidate
            break
    assert pt is not None
    cert = openness_certificate(pt, gamma, p)
    pivots = pt.subspace.pivot_columns
    pivot_set = set(pivots)
    slots = [
        (r, c)
        for r in range(pt.subspace.dim)
        for c in range(p.total_dim)
        if c not in pivot_set and c >= pivots[r]
    ]
    for pattern in iproduct((cert.delta, -cert.delta), repeat=len(slots)):
        rows = [list(row) for row in pt.subspace.basis.entries]
        for (r, c), shift in zip(slots, pattern):
            rows[r][c] += shift
        q = subspace_point(Subspace(p.total_dim, Matrix.from_rows(rows), pivots), pt.k)
        assert is_virtual_subdirect(q, p)
        assert is_finitely_presented(q, gamma, p).finitely_presented


# --- rho construction -------------------------------------------------------


def test_rho_rank_one_opposite_orientation():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    r = construct_rho(p)
    assert r.rho == Matrix.from_rows([[-1]])
    assert r.verified and r.method == "sign-scan"
    gamma = build_gamma(assemble_sigma(p))
    assert is_finitely_presented(r.point, gamma, p).finitely_presented


def test_rho_rank_one_negative_data():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (-1,))])
    r = construct_rho(p)
    assert r.rho == Matrix.from_rows([[1]])
    assert r.verified


def test_rho_rank_two_single_rays():
    p = product_space([ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (0, 1))])
    r = construct_rho(p)
    assert r.method == "gap-scan"
    assert r.verified
    assert r.eps1 == r.eps2 == F(1, 2)  # true maxima are 0; fallback applies
    assert r.lam == 2  # smallest power of 2 with lam**4 > 1
    assert r.lam ** 4 * (1 - r.eps1) * (1 - r.eps2) > r.eps1 * r.eps2
    # rho acts on the avoided directions by lam and 1/lam
    assert r.rho.mul_vec(r.v1) == tuple(r.lam * e for e in r.v1)
    assert r.rho.mul_vec(r.v2) == tuple(e / r.lam for e in r.v2)


def test_rho_rank_two_equal_sectors_uses_gap_scan():
    p = product_space(
        [
            union_factor("a", 2, [(1, 0), (1, 1)]),
            union_factor("b", 2, [(1, 0), (1, 1)]),
        ]
    )
    r = construct_rho(p)
    assert r.method == "gap-scan"
    assert r.verified
    gamma = build_gamma(assemble_sigma(p))
    assert is_finitely_presented(r.point, gamma, p).finitely_presented


def test_rho_rank_two_wide_cones():
    p = product_space(
        [
            union_factor("a", 2, [(6, 1), (-6, 1)]),
            union_factor("b", 2, [(1, 6), (1, -6)]),
        ]
    )
    r = construct_rho(p)
    assert r.verified
    # the exact post-check really holds
    s1 = p.factors[0].sigma_c
    rho_s2 = [
        cone([r.rho.mul_vec(g) for g in piece.generators], ambient_dim=2)
        for piece in p.factors[1].sigma_c.pieces
    ]
    for a in s1.pieces:
        for b in rho_s2:
            assert cones_meet_nontrivially(a, b) is None


def test_rho_equal_data_rank_three_negated_identity():
    sigma = cone_union([cone([(1, 0, 0), (0, 1, 1)], ambient_dim=3)], ambient_dim=3)
    p = product_space([factor_spec("a", 3, sigma), factor_spec("b", 3, sigma)])
    r = construct_rho(p)
    assert r.method == "negated-identity"
    assert r.rho == Matrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert r.verified
    gamma = build_gamma(assemble_sigma(p))
    assert is_finitely_presented(r.point, gamma, p).finitely_presented
    # the same pieces listed in another order are identical cone data
    a = cone_union([cone([(1, 0, 0)]), cone([(0, 1, 0)])], ambient_dim=3)
    b = cone_union([cone([(0, 1, 0)]), cone([(1, 0, 0)])], ambient_dim=3)
    for q in (
        product_space([factor_spec("a", 3, a), factor_spec("b", 3, b)]),
        product_space([factor_spec("a", 3, a), factor_spec("b", 3, a)]),
    ):
        r = construct_rho(q)
        assert r.method == "negated-identity" and r.verified
        assert r.rho == Matrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])


def test_rho_refusals():
    p = product_space([ray_factor("a", 3, (1, 0, 0)), ray_factor("b", 3, (0, 1, 0))])
    with pytest.raises(UnsupportedRank):
        construct_rho(p)
    q = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 2, (1, 0))])
    with pytest.raises(UnsupportedRank):
        construct_rho(q)
    with pytest.raises(ValueError):
        construct_rho(product_space([ray_factor("a", 1, (1,))]))
    bad = product_space(
        [
            union_factor("a", 1, [(1,)], [(-1,)]),
            ray_factor("b", 1, (1,)),
        ]
    )
    with pytest.raises(ValueError):
        construct_rho(bad)


# --- non-FP witness ----------------------------------------------------------


def test_nonfp_witness_f1():
    p, gamma = f1_setup()
    pt = construct_nonfp_witness(p, 1)
    assert pt.subspace == Subspace.span([[1, 1]])
    assert is_virtual_subdirect(pt, p)
    assert not is_finitely_presented(pt, gamma, p).finitely_presented


def test_nonfp_witness_three_factors():
    p = product_space(
        [ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,)), ray_factor("c", 1, (1,))]
    )
    pt = construct_nonfp_witness(p, 1)
    assert pt.subspace.dim == 2
    assert pt.subspace.contains((F(1), F(1), F(0)))
    assert is_virtual_subdirect(pt, p)
    gamma = build_gamma(assemble_sigma(p))
    assert not is_finitely_presented(pt, gamma, p).finitely_presented


def test_nonfp_witness_requires_two_nonpolycyclic():
    p = product_space(
        [
            factor_spec("z", 1, cone_union([], ambient_dim=1)),
            factor_spec("w", 1, cone_union([], ambient_dim=1)),
        ]
    )
    with pytest.raises(NoSuitableFactors):
        construct_nonfp_witness(p, 1)
    q = load_fixture("f1")
    with pytest.raises(ValueError):
        construct_nonfp_witness(q, 2)  # k = N is out of range


# --- non-FP box --------------------------------------------------------------


def test_nonfp_box_f1():
    p, gamma = f1_setup()
    box = construct_nonfp_box(p, gamma, 1)
    assert len(box.sample_points) == 10
    for pt in box.sample_points:
        assert is_virtual_subdirect(pt, p)
        assert not is_finitely_presented(pt, gamma, p).finitely_presented
    # the all-ones corner of the box is the diagonal line
    corner = box_point(box, Matrix.from_rows([[1]]))
    assert corner.subspace == Subspace.span([[1, 1]])


def test_nonfp_box_refused_when_dim_small():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    gamma = build_gamma(assemble_sigma(p))
    with pytest.raises(TheoremAApplies):
        construct_nonfp_box(p, gamma, 2)
    f2 = load_fixture("f2")
    gamma2 = build_gamma(assemble_sigma(f2))
    with pytest.raises(TheoremAApplies):
        construct_nonfp_box(f2, gamma2, 4)


def test_nonfp_box_rejects_k_outside_the_rank_range():
    p, gamma = f1_setup()
    for k in (0, 3):
        with pytest.raises(ValueError) as caught:
            construct_nonfp_box(p, gamma, k)
        assert str(caught.value) == f"k must satisfy 1 <= k <= 2, got {k}"


def test_box_point_validates_range():
    p, gamma = f1_setup()
    box = construct_nonfp_box(p, gamma, 1)
    with pytest.raises(ValueError):
        box_point(box, Matrix.from_rows([[0]]))
    with pytest.raises(ValueError):
        box_point(box, Matrix.from_rows([[2]]))
    # f4 at k = 2 has a 2x2 chart; a 3x1 matrix would give a point with k = 1
    p4 = load_fixture("f4")
    box4 = construct_nonfp_box(p4, build_gamma(assemble_sigma(p4)), 2)
    assert (box4.chart.a_matrix.rows, box4.chart.a_matrix.cols) == (2, 2)
    with pytest.raises(ValueError):
        box_point(box4, Matrix.from_rows([[1], [1], [1]]))
    assert box_point(box4, Matrix.from_rows([[1, 1], [1, 1]])).k == 2


# --- measure experiment ------------------------------------------------------


def test_greedy_rows_keeps_accepted_candidates_in_order():
    rows = [(F(1), F(0)), (F(2), F(0)), (F(0), F(1)), (F(1), F(1))]
    assert decisions._greedy_rows(rows, 2, decisions._independent) == [rows[0], rows[2]]
    assert decisions._greedy_rows(rows, 1, decisions._independent) == [rows[0]]
    assert decisions._greedy_rows(rows[:2], 2, decisions._independent) == [rows[0]]


def test_sample_ranges_clamp_workers():
    def check(samples, jobs, cpus, workers):
        ranges = decisions._sample_ranges(samples, jobs, cpus)
        assert len(ranges) == workers
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(samples))

    check(1000, 10**6, 2, 2)  # one worker per CPU, whatever is asked
    check(1000, 3, 8, 3)
    check(7, 4, 8, 3)  # at most one worker per two samples
    check(3, 2, 2, 1)  # serial
    check(1000, 1, 8, 1)
    check(1000, 0, 8, 1)
    check(0, 4, 4, 0)


def test_measure_rejects_seeds_outside_64_bits():
    p, _ = f1_setup()
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            run_measure_experiment(p, k=1, samples=3, seed=seed)
    assert run_measure_experiment(p, k=1, samples=3, seed=(1 << 64) - 1).samples == 3


def test_measure_rejects_nonpositive_jobs():
    p, _ = f1_setup()
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be positive"):
            run_measure_experiment(p, k=1, samples=4, seed=1, jobs=jobs)


def test_measure_zero_samples():
    p, _ = f1_setup()
    report = run_measure_experiment(p, k=1, samples=0, seed=5)
    assert (report.vsp_failures, report.nonfp_count) == (0, 0)
    assert report.gamma_dim == 2
    assert not report.theorem_a_applicable


def test_measure_deterministic_and_job_independent():
    p, _ = f1_setup()
    a = run_measure_experiment(p, k=1, samples=60, seed=9)
    b = run_measure_experiment(p, k=1, samples=60, seed=9)
    c = run_measure_experiment(p, k=1, samples=60, seed=9, jobs=3)
    for x, y in ((a, b), (a, c)):
        assert (x.vsp_failures, x.nonfp_count, x.k, x.samples, x.seed) == (
            y.vsp_failures,
            y.nonfp_count,
            y.k,
            y.samples,
            y.seed,
        )


def test_measure_both_verdicts_occur_on_f1():
    p, _ = f1_setup()
    report = run_measure_experiment(p, k=1, samples=200, seed=42)
    assert 0 < report.nonfp_count < 200


def test_measure_counts_nonfp_verdicts_without_naming_witnesses(monkeypatch):
    p, _ = f1_setup()
    witnesses = []
    real_witness = cones._first_witness

    def counting_witness(*args):
        witnesses.append(args)
        return real_witness(*args)

    monkeypatch.setattr(cones, "_first_witness", counting_witness)
    report = run_measure_experiment(p, k=1, samples=200, seed=42)
    assert report.nonfp_count > 0
    assert witnesses == []


def test_compiled_state_stays_out_of_equality_hash_repr_and_pickles():
    p = load_fixture("f1")
    gamma = build_gamma(assemble_sigma(p))
    assert not is_finitely_presented(line_point(1, 1), gamma, p).finitely_presented
    assert union_is_tame(gamma)
    assert union_dim(gamma) == 2
    assert {"_compiled", "_tame", "_dim"} <= vars(gamma).keys()
    assert vars(p).keys() == {f.name for f in dataclasses.fields(p)}
    fresh_p = load_fixture("f1")
    fresh_gamma = build_gamma(assemble_sigma(fresh_p))
    for used, fresh in ((gamma, fresh_gamma), (p, fresh_p)):
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(used)) == fresh
    # workers receive Γ without its compiled state and compile it afresh
    serial = run_measure_experiment(p, k=1, samples=40, seed=3)
    pooled = run_measure_experiment(p, k=1, samples=40, seed=3, jobs=2)
    assert serial.nonfp_count > 0
    assert {**vars(serial), "elapsed_ms": 0} == {**vars(pooled), "elapsed_ms": 0}


def test_measure_hashes_unions_and_products_a_fixed_number_of_times(monkeypatch):
    calls = Counter()
    for cls in (ConeUnion, ProductSpace):

        def counting(self, real=cls.__hash__, name=cls.__name__):
            calls[name] += 1
            return real(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    counts = []
    for samples in (10, 40):
        calls.clear()
        run_measure_experiment(load_fixture("f1"), k=1, samples=samples, seed=5)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def _leaves(value, path="result"):
    """(path, leaf) for every leaf of a result: dataclass fields, containers,
    and a subspace's rows and canonical basis."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, Subspace):
        yield from _leaves((value._integers, value.basis, value.pivot_columns), path)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for i, x in enumerate(value):
            yield from _leaves(x, f"{path}[{i}]")
    else:
        yield path, value


@pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
def test_results_hold_no_float_and_every_ray_is_ints(name):
    p = load_fixture(name)
    gamma = build_gamma(assemble_sigma(p))
    results = [p, gamma]
    for k in range(p.max_rank, p.total_dim):
        points = [sample_point(p, k, 7, i) for i in range(4)] + [construct_nonfp_witness(p, k)]
        for pt in (pt for pt in points if is_virtual_subdirect(pt, p)):
            decision = is_finitely_presented(pt, gamma, p)
            results.append(decision)
            if decision.finitely_presented:
                with contextlib.suppress(NonPointedPiece):
                    results.append(openness_certificate(pt, gamma, p))
        with contextlib.suppress(TheoremAApplies):
            results.append(construct_nonfp_box(p, gamma, k))
        results.append(run_measure_experiment(p, k, samples=20, seed=7))
    with contextlib.suppress(ValueError, UnsupportedRank):
        results.append(construct_rho(p))
    assert any(isinstance(r, FpDecision) and r.witness for r in results)
    for path, leaf in _leaves(results):
        assert type(leaf) is not float, path
        if re.search(r"\.(generators|ray|v1|v2)\[", path):
            assert type(leaf) is int, path
