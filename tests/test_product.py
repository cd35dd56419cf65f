import random
from fractions import Fraction

import pytest

from sigmafp.cones import (
    cone,
    cone_contains,
    cone_contains_line,
    cone_sum,
    cone_union,
    union_dim,
)
from sigmafp.product import (
    assemble_sigma,
    build_gamma,
    embed_factor,
    factor_spec,
    product_space,
    theorem_a_applicable,
    validate_factor,
)

F = Fraction


def ray_factor(name, rank, *rays):
    pieces = [cone([r], ambient_dim=rank) for r in rays]
    return factor_spec(name, rank, cone_union(pieces, ambient_dim=rank))


def polycyclic_factor(name, rank):
    return factor_spec(name, rank, cone_union([], ambient_dim=rank))


def test_embed_factor():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    assert embed_factor(p, 0, (5,)) == (F(5), F(0))
    assert embed_factor(p, 1, (5,)) == (F(0), F(5))
    q = product_space([ray_factor(n, 2, (1, 0)) for n in "abc"])
    assert embed_factor(q, 1, (1, 2)) == (F(0), F(0), F(1), F(2), F(0), F(0))
    with pytest.raises(ValueError):
        embed_factor(p, 2, (1,))
    with pytest.raises(ValueError):
        embed_factor(p, 0, (1, 2))


def test_assemble_sigma_two_rank_one_factors():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    sigma = assemble_sigma(p)
    assert sigma.pieces == (cone([(1, 0)]), cone([(0, 1)]))


def test_assemble_sigma_polycyclic_first():
    p = product_space([polycyclic_factor("z", 1), ray_factor("b", 1, (1,))])
    sigma = assemble_sigma(p)
    assert sigma.pieces == (cone([(0, 1)]),)


def test_assemble_sigma_three_rank_two_factors():
    p = product_space(
        [ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (0, 1)), ray_factor("c", 2, (1, 1))]
    )
    sigma = assemble_sigma(p)
    assert len(sigma.pieces) == 3
    assert sigma.ambient_dim == 6
    for i, piece in enumerate(sigma.pieces):
        start, stop = p.blocks[i]
        for g in piece.generators:
            assert all(g[c] == 0 for c in range(6) if not start <= c < stop)
            assert any(g[c] != 0 for c in range(start, stop))


def test_build_gamma_covers_pairwise_sums():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    gamma = build_gamma(assemble_sigma(p))
    assert cone([(1, 0), (0, 1)]) in gamma.pieces
    assert cone([(1, 0)]) in gamma.pieces
    assert cone([(0, 1)]) in gamma.pieces


def test_build_gamma_keeps_the_list_scan_order_at_scale():
    # 3 factors of rank 3, 8 pieces each of 1-3 generators with entries in
    # [0, 4]; an all-zero generator gets a 1 in its first entry.
    rng = random.Random(1)

    def generator():
        g = [rng.randint(0, 4) for _ in range(3)]
        return g if any(g) else [1] + g[1:]

    factors = []
    for name in "abc":
        pieces = [cone([generator() for _ in range(rng.randint(1, 3))], ambient_dim=3)
                  for _ in range(8)]
        factors.append(factor_spec(name, 3, cone_union(pieces, ambient_dim=3)))
    sigma = assemble_sigma(product_space(factors))
    listed = []
    for i, a in enumerate(sigma.pieces):
        for b in sigma.pieces[i:]:
            s = cone_sum(a, b)
            if s not in listed:
                listed.append(s)
    gamma = build_gamma(sigma)
    assert (len(sigma.pieces), len(gamma.pieces)) == (24, 299)
    assert gamma.pieces == tuple(listed)


def test_build_gamma_single_piece_idempotent():
    sigma = cone_union([cone([(1, 0), (1, 1)])])
    gamma = build_gamma(sigma)
    assert gamma.pieces == sigma.pieces


def test_build_gamma_empty():
    sigma = cone_union([], ambient_dim=3)
    assert build_gamma(sigma).pieces == ()


def test_build_gamma_membership_recheck():
    p = product_space([ray_factor("a", 2, (1, 2)), ray_factor("b", 2, (3, 1))])
    sigma = assemble_sigma(p)
    gamma = build_gamma(sigma)
    for a in sigma.pieces:
        for b in sigma.pieces:
            for x in a.generators:
                for y in b.generators:
                    s = tuple(u + v for u, v in zip(x, y))
                    assert any(cone_contains(piece, s) for piece in gamma.pieces)


def test_validate_factor_not_tame():
    f = factor_spec(
        "bad", 1, cone_union([cone([(1,)]), cone([(-1,)])], ambient_dim=1)
    )
    diags = validate_factor(f)
    assert any(d.severity == "ERROR" for d in diags)


def test_validate_factor_full_plane_is_error():
    # three rays spanning more than a half-plane: the cone data is the whole
    # plane, which contains antipodal pairs
    f = factor_spec(
        "plane", 2, cone_union([cone([(1, 0), (-1, 1), (-1, -1)])], ambient_dim=2)
    )
    diags = validate_factor(f)
    assert any(d.severity == "ERROR" for d in diags)


def test_validate_factor_clean():
    assert validate_factor(ray_factor("ok", 1, (1,))) == []
    # dim 2 cone data in rank 2 stays within rank/2 + 1 = 2: no warning
    f = factor_spec("wide", 2, cone_union([cone([(1, 0), (0, 1)])], ambient_dim=2))
    assert all(d.severity != "WARNING" for d in validate_factor(f))


def test_validate_factor_dimension_warning():
    # rank 1 data cannot have dimension above 1/2 + 1; a full-dim tame cone
    # in rank 3 with dim 3 > 3/2 + 1 = 5/2 draws the warning
    f = factor_spec(
        "big",
        3,
        cone_union([cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])], ambient_dim=3),
    )
    diags = validate_factor(f)
    assert any(d.severity == "WARNING" for d in diags)
    assert all(d.severity != "ERROR" for d in diags)


def test_theorem_a_applicable():
    p = product_space([ray_factor("a", 1, (1,)), ray_factor("b", 1, (1,))])
    gamma = build_gamma(assemble_sigma(p))
    assert union_dim(gamma) == 2
    assert not theorem_a_applicable(p, gamma, 1)
    assert theorem_a_applicable(p, gamma, 2)

    q = product_space(
        [ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (0, 1)), ray_factor("c", 2, (1, 1))]
    )
    gamma_q = build_gamma(assemble_sigma(q))
    assert union_dim(gamma_q) == 2
    assert theorem_a_applicable(q, gamma_q, 4)

    empty = product_space([polycyclic_factor("z", 2), polycyclic_factor("w", 2)])
    gamma_e = build_gamma(assemble_sigma(empty))
    assert theorem_a_applicable(empty, gamma_e, 2)

    with pytest.raises(ValueError):
        theorem_a_applicable(p, gamma, 0)
    with pytest.raises(ValueError):
        theorem_a_applicable(p, gamma, 3)


def test_theorem_a_monotone_in_k():
    q = product_space([ray_factor("a", 2, (1, 0)), ray_factor("b", 2, (2, 1))])
    gamma = build_gamma(assemble_sigma(q))
    verdicts = [theorem_a_applicable(q, gamma, k) for k in range(2, 5)]
    assert verdicts == sorted(verdicts)


def test_tame_factor_gives_no_single_factor_line_in_gamma():
    # pieces of Gamma arising from one tame factor alone never contain a line
    f = factor_spec(
        "a",
        2,
        cone_union([cone([(1, 0), (1, 1)]), cone([(-1, 3)])], ambient_dim=2),
    )
    p = product_space([f])
    gamma = build_gamma(assemble_sigma(p))
    assert all(not cone_contains_line(piece) for piece in gamma.pieces)


def test_factor_spec_validation():
    with pytest.raises(ValueError):
        factor_spec("bad", 2, cone_union([cone([(1,)])], ambient_dim=1))
    with pytest.raises(ValueError):
        factor_spec("bad", 0, cone_union([], ambient_dim=1))
    f = polycyclic_factor("z", 3)
    assert not f.sigma_c.pieces
    assert ray_factor("a", 1, (1,)).sigma_c.pieces


def test_span_caches_are_bounded():
    from sigmafp import cones, product

    for t in range(cones._cone_span.cache_info().maxsize + 5):
        cones._cone_span(cone([(1, t)]))
    info = cones._cone_span.cache_info()
    assert info.currsize == info.maxsize
    for t in range(product.block_subspace.cache_info().maxsize + 5):
        product.block_subspace(product_space([polycyclic_factor(f"f{t}", 1)]), 0)
    info = product.block_subspace.cache_info()
    assert info.currsize == info.maxsize
