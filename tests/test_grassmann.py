import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank_oracle
from sigmafp import cones, grassmann, linalg
from sigmafp.cones import cone, cone_union
from sigmafp.decisions import run_measure_experiment
from sigmafp.formats import load_fixture, serialize_report
from sigmafp.grassmann import (
    SubspacePoint,
    chart,
    chart_to_point,
    is_virtual_subdirect,
    rows_avoid_blocks,
    sample_point,
    sample_rows,
    subspace_point,
)
from sigmafp.linalg import Matrix, Subspace
from sigmafp.product import factor_spec, product_space
from sigmafp.randstream import CounterStream

F = Fraction


def ray_factor(name, rank, *rays):
    pieces = [cone([r], ambient_dim=rank) for r in rays]
    return factor_spec(name, rank, cone_union(pieces, ambient_dim=rank))


def two_line_factors():
    return product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])


def test_chart_standard_basis_a_zero():
    c = chart(Matrix.identity(2), Matrix.from_rows([[0]]))
    assert chart_to_point(c).subspace == Subspace.span([[1, 0]])


def test_chart_swapped_basis():
    # basis ((0,1),(1,0)): the row is e2-slot + a * e1-slot = (a, 1)
    a = F(3, 7)
    c = chart(Matrix.from_rows([[0, 1], [1, 0]]), Matrix.from_rows([[a]]))
    assert chart_to_point(c).subspace == Subspace.span([[a, 1]])


def test_chart_three_dims():
    c = chart(Matrix.identity(3), Matrix.from_rows([[2], [3]]))
    pt = chart_to_point(c)
    assert pt.k == 1
    assert pt.subspace == Subspace.span([[1, 0, 2], [0, 1, 3]])


def test_chart_a_zero_spans_leading_basis_vectors():
    basis = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
    c = chart(basis, Matrix.from_rows([[0], [0]]))
    assert chart_to_point(c).subspace == Subspace.span([[1, 1, 0], [0, 1, 1]])


def test_chart_injective_in_a():
    basis = Matrix.from_rows([[1, 2], [1, 3]])
    points = set()
    for num in range(-3, 4):
        a = Matrix.from_rows([[F(num, 2)]])
        points.add(chart_to_point(chart(basis, a)).subspace)
    assert len(points) == 7


def test_chart_rejects_singular_basis():
    with pytest.raises(ValueError):
        chart(Matrix.from_rows([[1, 1], [2, 2]]), Matrix.from_rows([[0]]))


def test_subspace_point_dimension_checked():
    with pytest.raises(ValueError):
        subspace_point(Subspace.span([[1, 0]]), k=2)


def test_is_virtual_subdirect():
    p = two_line_factors()
    assert is_virtual_subdirect(subspace_point(Subspace.span([[1, -1]]), 1), p)
    assert not is_virtual_subdirect(subspace_point(Subspace.span([[1, 0]]), 1), p)
    q = product_space([ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (0, 1))])
    pt = subspace_point(Subspace.span([[1, 0, 1, 0], [0, 1, 0, 1]]), 2)
    assert is_virtual_subdirect(pt, q)


def test_is_virtual_subdirect_invariant_under_factor_swap():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 2, (0, 1))])
    swapped = product_space([ray_factor("b", 2, (0, 1)), ray_factor("a", 1, (1,))])
    pt = subspace_point(Subspace.span([[1, 1, 0]]), 2)
    # permute coordinates along with the factors: (x; y1, y2) -> (y1, y2; x)
    pt_swapped = subspace_point(Subspace.span([[1, 0, 1]]), 2)
    assert is_virtual_subdirect(pt, p) == is_virtual_subdirect(pt_swapped, swapped)
    bad = subspace_point(Subspace.span([[0, 1, 0]]), 2)
    bad_swapped = subspace_point(Subspace.span([[1, 0, 0]]), 2)
    assert is_virtual_subdirect(bad, p) == is_virtual_subdirect(bad_swapped, swapped)


def test_is_virtual_subdirect_requires_k_at_least_max_rank():
    p = product_space([ray_factor("a", 2, (1, 0)), ray_factor("b", 1, (1,))])
    pt = subspace_point(Subspace.span([[1, 0, 1], [0, 1, 1]]), 1)
    with pytest.raises(ValueError):
        is_virtual_subdirect(pt, p)


P = (1 << 61) - 1

# Small entries make dependent rows common; P and 1/P make rows that are
# dependent mod P yet independent over Q.
entries = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([P, F(1, P)]),
)


@st.composite
def vsp_cases(draw):
    """A product of 1-4 factors of rank 1-3 and raw rows: random, holding a
    vector of one block, or none at all (S° = 0)."""
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    p = product_space([factor_spec(f"f{i}", r, cone_union([], ambient_dim=r)) for i, r in enumerate(ranks)])
    n = p.total_dim
    kind = draw(st.sampled_from(["random", "block", "zero"]))
    most = 0 if kind == "zero" else n - p.max_rank
    count = draw(st.integers(min(1, most), most))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(count)]
    if kind == "block" and rows:
        a, b = p.blocks[draw(st.integers(0, len(ranks) - 1))]
        rows[0] = [x if a <= c < b else 0 for c, x in enumerate(rows[0])]
        rows[0][a] = 1
    return p, rows


def block_rows(p, i):
    a, b = p.blocks[i]
    return [[1 if c == j else 0 for c in range(p.total_dim)] for j in range(a, b)]


def avoids_blocks_oracle(p, rows):
    """Rows independent and meeting each block only in 0: rank [R; E_i] = |R| + r_i."""
    return all(
        rank_oracle(rows + block_rows(p, i)) == len(rows) + f.rank for i, f in enumerate(p.factors)
    )


@given(vsp_cases())
@settings(max_examples=150, deadline=None)
def test_vsp_test_matches_stacked_rank_oracle(case):
    p, rows = case
    n = p.total_dim
    assert rows_avoid_blocks(Matrix(len(rows), n, tuple(map(linalg.vector, rows))), p) == (
        avoids_blocks_oracle(p, rows)
    )
    # The span is kept on the rows as they are unless they are dependent
    # mod P, so the vsp test runs on them, with the exact fallback wherever
    # P divides a minor.
    space = Subspace.span(rows, ambient_dim=n)
    expected = avoids_blocks_oracle(p, [list(r) for r in space.basis.entries])
    kept = Subspace.of_integer_rows(n, linalg.integer_rows(tuple(map(linalg.vector, rows))))
    assert kept == space
    # rebuilt from the RREF basis, or unpickled: integer rows derived from the basis
    rebuilt = Subspace(n, space.basis, space.pivot_columns)
    for s in (space, kept, rebuilt, pickle.loads(pickle.dumps(space))):
        assert is_virtual_subdirect(subspace_point(s, n - s.dim), p) == expected


def test_vsp_point_deficient_mod_p_falls_back_once(monkeypatch):
    # S° = span{(p, 1)} is kept on the integer row (p, 1) = (0, 1) mod p:
    # off the first block it reads 1, off the second 0 mod p, where only the
    # exact rank of the 1 x 1 submatrix (p) decides.
    seen = []
    real_rank = linalg.rank

    def counting_rank(m):
        seen.append(m)
        return real_rank(m)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    pt = subspace_point(Subspace.span([[P, 1]]), 1)
    assert is_virtual_subdirect(pt, load_fixture("f1"))
    assert [m.entries for m in seen] == [((P,),)]


def test_sample_point_deterministic():
    p = two_line_factors()
    assert sample_point(p, 1, seed=1, index=0) == sample_point(p, 1, seed=1, index=0)
    assert sample_point(p, 1, seed=1, index=0) != sample_point(p, 1, seed=1, index=1)
    assert sample_point(p, 1, seed=2, index=0) != sample_point(p, 1, seed=1, index=0)


def test_sample_point_has_exact_dimension():
    q = product_space([ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (0, 1))])
    for index in range(5):
        for k in (2, 3, 4):
            pt = sample_point(q, k, seed=9, index=index)
            assert pt.subspace.dim == 4 - k
            assert pt.k == k


def test_sample_point_never_hits_axes():
    # hitting a fixed line with denominator 2**16 grid entries has
    # probability well under 2**-30 per draw
    p = two_line_factors()
    axes = {Subspace.span([[1, 0]]), Subspace.span([[0, 1]])}
    for index in range(1000):
        assert sample_point(p, 1, seed=3, index=index).subspace not in axes


def test_sample_point_k_range_checked():
    p = two_line_factors()
    with pytest.raises(ValueError):
        sample_point(p, 0, seed=1, index=0)
    with pytest.raises(ValueError):
        sample_point(p, 3, seed=1, index=0)


def test_sample_coordinate_means_near_zero():
    # float cross-check only; the decision paths never see floats.  Entries
    # are scaled to [-1, 1] so the 0.05 bound sits far out in the tail.
    n = 10_000
    totals = [0.0, 0.0]
    for index in range(n):
        (row,) = sample_rows(1, 2, seed=11, index=index)
        totals[0] += float(row[0]) / 16.0
        totals[1] += float(row[1]) / 16.0
    assert all(abs(t / n) < 0.05 for t in totals)


@st.composite
def sampling_cases(draw):
    """A product of 1-4 factors of rank 1-3, a k in its range, a seed and an index."""
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    p = product_space([factor_spec(f"f{i}", r, cone_union([], ambient_dim=r)) for i, r in enumerate(ranks)])
    k = draw(st.integers(p.max_rank, p.total_dim))
    return p, k, draw(st.integers(0, (1 << 64) - 1)), draw(st.integers(0, 10**6))


@given(sampling_cases())
@settings(max_examples=120, deadline=None)
def test_sampled_point_is_the_span_of_its_draw(case):
    p, k, seed, index = case
    n = p.total_dim
    pt = sample_point(p, k, seed, index)
    assert "_rref" not in vars(pt.subspace)  # kept on its draw until read
    span = Subspace.span(sample_rows(n - k, n, seed, index), ambient_dim=n)
    assert pt == SubspacePoint(span, k)
    assert hash(pt.subspace) == hash(span)
    assert repr(pt.subspace) == repr(span)
    assert pickle.dumps(pt.subspace) == pickle.dumps(span)
    assert pt.subspace.basis == span.basis
    assert pt.subspace.pivot_columns == span.pivot_columns
    assert pt.subspace.dim == span.dim == n - k


def three_line_factors():
    return product_space([ray_factor(name, 1, (1,)) for name in "abc"])


def patched_draws(monkeypatch, draws):
    """Make attempt i of the grid draw return draws[i], and later attempts
    the real draw; returns the list of attempts made."""
    attempts = []
    real_draw = grassmann._draw

    def draw(n_rows, n_cols, seed, index, attempt):
        attempts.append(attempt)
        if attempt < len(draws):
            return draws[attempt]
        return real_draw(n_rows, n_cols, seed, index, attempt)

    monkeypatch.setattr(grassmann, "_draw", draw)
    return attempts


def test_draw_dependent_only_mod_p_takes_the_exact_path(monkeypatch, exact_rrefs):
    # (1, 0, 0) and (0, P, 0) are (1, 0, 0) and 0 mod P but independent over
    # Q: the point is reduced exactly on integers, with no RREF, keeps its
    # dimension and is not redrawn.
    p = three_line_factors()
    attempts = patched_draws(monkeypatch, [[[1, 0, 0], [0, P, 0]]])
    pt = sample_point(p, 1, seed=5, index=0)
    assert attempts == [0]
    assert exact_rrefs == []
    assert pt.subspace.dim == 2
    assert pt.subspace == Subspace.span([[1, 0, 0], [0, 1, 0]])
    assert not is_virtual_subdirect(pt, p)  # it holds e_1, the first block


def test_restriction_dependent_only_mod_p_takes_the_exact_rank(monkeypatch, exact_ranks):
    # Independent mod P, so kept on the draw; off the first block the rows
    # read (0, 1), (P, 1), off the third (1, 0), (0, P): both are dependent
    # mod P, independent over Q.
    p = three_line_factors()
    patched_draws(monkeypatch, [[[1, 0, 1], [0, P, 1]]])
    pt = sample_point(p, 1, seed=5, index=0)
    assert "_rref" not in vars(pt.subspace)
    assert is_virtual_subdirect(pt, p)
    assert avoids_blocks_oracle(p, [[1, 0, 1], [0, P, 1]])
    assert [m.entries for m in exact_ranks] == [
        ((0, 1), (P, 1)),
        ((1, 0), (0, P)),
    ]
    assert "_rref" not in vars(pt.subspace)  # the fallback needs no basis


def test_rank_deficient_draw_is_redrawn_on_the_next_attempt(monkeypatch):
    p = three_line_factors()
    attempts = patched_draws(monkeypatch, [[[1, 2, 3], [2, 4, 6]], [[0, 0, 0], [1, 1, 1]]])
    pt = sample_point(p, 1, seed=8, index=4)
    assert attempts == [0, 1, 2]
    assert pt == SubspacePoint(Subspace.span(sample_rows(2, 3, seed=8, index=4, attempt=2)), 1)


def test_measure_on_f2_builds_no_rref(exact_rrefs):
    cones._cone_span.cache_clear()  # Γ's piece spans are built afresh too
    report = run_measure_experiment(load_fixture("f2"), k=4, samples=50, seed=42)
    assert report.samples == 50 and report.vsp_failures == 0
    assert exact_rrefs == []


# --- golden values: a draw depends on its seed and substream labels alone ---


def test_counter_stream_golden_draws():
    # The first 20 grid numerators of two fixed keys.
    zero = CounterStream(0)
    assert [zero.uniform_int(-(1 << 20), 1 << 20) for _ in range(20)] == [
        689648, 117171, -906529, 523930, 797096, 772913, 778963, 697340, -494602, -828561,
        -1030699, -420275, 120124, -358021, 80258, 643822, 590604, -886135, -451837, 830071,
    ]
    keyed = CounterStream(42, 7, 3)
    assert [keyed.uniform_int(-(1 << 20), 1 << 20) for _ in range(20)] == [
        -721196, 11203, -432260, 156351, 564399, 445996, 379076, 450890, -227748, 88559,
        759660, -396166, 981882, -291289, 116054, 478467, -939252, 373566, -989448, -282317,
    ]


def test_counter_stream_golden_draws_with_rejections():
    # A span of 2**63 + 2**62 + 1 rejects every word at or above it, about a
    # quarter of them; the full 64-bit range rejects none and so reads the
    # raw words.
    lo, hi = -(1 << 62), 1 << 63
    span = hi - lo + 1
    wide = CounterStream(5, 1)
    draws = [wide.uniform_int(lo, hi) for _ in range(12)]
    assert draws == [
        5956944706053208736, 4610321308979033071, -1885292317761105411, 6009407693009854711,
        3315679458947004541, -2542950608850465439, 829531736215637383, 64041773199331976,
        1474243607924130399, 5719366467441833001, -2536668946723212924, 4628399451638889446,
    ]
    raw = CounterStream(5, 1)
    words = [raw.uniform_int(0, (1 << 64) - 1) for _ in range(24)]
    assert [lo + w for w in words if w < span][:12] == draws
    consumed = words.index(draws[-1] - lo) + 1
    assert consumed > 12  # some words were rejected


def test_sample_point_golden_basis():
    pt = sample_point(load_fixture("f2"), 4, seed=42, index=3)
    assert pt.subspace.pivot_columns == (0, 1)
    assert pt.subspace.basis == Matrix.from_rows([
        [1, 0, F(-218460140444, 104218781159), F(145530890627, 312656343477),
         F(-138515864550, 104218781159), F(-820873752563, 312656343477)],
        [0, 1, F(298835896584, 104218781159), F(-110245379425, 104218781159),
         F(42134452397, 104218781159), F(239531444950, 104218781159)],
    ])


def test_measure_report_golden_bytes():
    report = run_measure_experiment(load_fixture("f1"), k=1, samples=40, seed=7)
    text = serialize_report(dataclasses.replace(report, elapsed_ms=0))
    assert text == (
        '{\n'
        '  "elapsed_ms": 0,\n'
        '  "gamma_dim": 2,\n'
        '  "k": 1,\n'
        '  "nonfp_count": 25,\n'
        '  "samples": 40,\n'
        '  "seed": 7,\n'
        '  "theorem_a_applicable": false,\n'
        '  "vsp_failures": 0\n'
        '}\n'
    )
