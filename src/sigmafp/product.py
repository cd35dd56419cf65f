"""Assembly of the product dual space from per-factor cone data.

Each factor contributes a block of coordinates; the factor's cone-complement
union lives in its own block, and the full-space union is the union of the
block embeddings.  Gamma is the pairwise Minkowski sum of that union with
itself; because 0 lies in every piece, Gamma automatically contains the
union itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cones import (
    ConeUnion,
    ConvexCone,
    cone,
    cone_sum,
    cone_union,
    union_dim,
    union_is_tame,
)
from .linalg import Subspace, Vector, vector, zero_vector


@dataclass(frozen=True)
class FactorSpec:
    """One direct factor: its dual-space rank and its cone-complement data.

    The cone data is input, not computed: producing it from a group or module
    presentation is outside this artifact.  An empty union (the zero set) is
    the polycyclic case.
    """

    name: str
    rank: int
    sigma_c: ConeUnion


def factor_spec(name: str, rank: int, sigma_c: ConeUnion) -> FactorSpec:
    if rank < 1:
        raise ValueError(f"factor {name!r}: rank must be positive")
    if sigma_c.ambient_dim != rank:
        raise ValueError(f"factor {name!r}: cone data has ambient dim "
                         f"{sigma_c.ambient_dim}, expected {rank}")
    return FactorSpec(name, rank, sigma_c)


@dataclass(frozen=True)
class ProductSpace:
    """The dual of a direct product, with one coordinate block per factor."""

    factors: tuple[FactorSpec, ...]
    total_dim: int
    blocks: tuple[tuple[int, int], ...]  # half-open [start, stop) per factor
    max_rank: int


def product_space(factors: Sequence[FactorSpec]) -> ProductSpace:
    if not factors:
        raise ValueError("at least one factor is required")
    blocks = []
    start = 0
    for f in factors:
        blocks.append((start, start + f.rank))
        start += f.rank
    return ProductSpace(
        factors=tuple(factors),
        total_dim=start,
        blocks=tuple(blocks),
        max_rank=max(f.rank for f in factors),
    )


def embed_factor(p: ProductSpace, i: int, x: Iterable) -> Vector:
    """Place a factor-i vector in its block, zero elsewhere."""
    v = vector(x)
    if not 0 <= i < len(p.factors):
        raise ValueError("factor index out of range")
    start, stop = p.blocks[i]
    if len(v) != stop - start:
        raise ValueError("vector length does not match the factor rank")
    return zero_vector(start) + v + zero_vector(p.total_dim - stop)


@lru_cache(maxsize=256)
def block_subspace(p: ProductSpace, i: int) -> Subspace:
    """Factor i's coordinate block as a subspace: public API, the tests' vsp
    reference and a traced function of the benchmark.  No decision calls it."""
    start, stop = p.blocks[i]
    rows = [[int(c == j) for j in range(p.total_dim)] for c in range(start, stop)]
    return Subspace.of_integer_rows(p.total_dim, rows)


def assemble_sigma(p: ProductSpace) -> ConeUnion:
    """Union over factors of the block-embedded pieces of each factor's data."""
    pieces: list[ConvexCone] = []
    for i, f in enumerate(p.factors):
        for piece in f.sigma_c.pieces:
            pieces.append(
                cone(
                    [embed_factor(p, i, g) for g in piece.generators],
                    ambient_dim=p.total_dim,
                )
            )
    return cone_union(pieces, ambient_dim=p.total_dim)


def build_gamma(sigma: ConeUnion) -> ConeUnion:
    """All pairwise sums of pieces of sigma (including a piece with itself),
    each once, in the order first met.

    Subsumed pieces are kept, so piece indices and the `gamma` listing name
    every pairwise sum, but deciding Gamma cap S = {0} skips them: a piece
    whose generators are a strict subset of another's meets S only if that
    other piece does (see `union_meets_subspace`).
    """
    sums = (cone_sum(a, b) for i, a in enumerate(sigma.pieces) for b in sigma.pieces[i:])
    return cone_union(list(dict.fromkeys(sums)), ambient_dim=sigma.ambient_dim)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "ERROR" | "WARNING"
    message: str


def validate_factor(f: FactorSpec) -> list[Diagnostic]:
    """Consistency checks against the standing hypotheses on factors.

    Non-tame data is an error (such a factor is not finitely presented);
    cone dimension above rank/2 + 1 cannot arise from tame module data and
    is flagged as a warning.
    """
    diagnostics = []
    if not union_is_tame(f.sigma_c):
        diagnostics.append(
            Diagnostic(
                "ERROR",
                f"factor {f.name!r}: cone data contains antipodal rays "
                "(not tame), so the factor is not finitely presented",
            )
        )
    bound = Fraction(f.rank, 2) + 1
    d = union_dim(f.sigma_c)
    if d > bound:
        diagnostics.append(
            Diagnostic(
                "WARNING",
                f"factor {f.name!r}: cone dimension {d} exceeds rank/2 + 1 = "
                f"{bound}; no tame module produces such data",
            )
        )
    return diagnostics


def theorem_a_applicable(p: ProductSpace, gamma: ConeUnion, k: int) -> bool:
    """Whether the generic-openness condition dim(Gamma) <= k holds."""
    if not p.max_rank <= k <= p.total_dim:
        raise ValueError(
            f"k must satisfy {p.max_rank} <= k <= {p.total_dim}, got {k}"
        )
    return union_dim(gamma) <= k
