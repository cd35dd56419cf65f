"""Problem, subspace, and report files.

Everything on the wire is JSON-compatible text with rationals as strings
"p/q" (or "p"), so files are bit-exact and carry no floating point.
Serialisation sorts keys and writes rationals in lowest terms, making output
byte-deterministic; elapsed_ms is the one field excluded from determinism
comparisons.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources
from typing import Any

from .cones import ConvexCone, cone, cone_union
from .errors import ProblemFormatError
from .linalg import Subspace
from .product import FactorSpec, ProductSpace, factor_spec, product_space

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits only, matched in full


def parse_rational(text: Any, where: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ProblemFormatError(
            f"{where}: expected a rational string like '3' or '-2/5', got {text!r}"
        )
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise ProblemFormatError(
            f"{where}: rational string of {len(text)} characters is too long"
        ) from None
    if den == 0:
        raise ProblemFormatError(f"{where}: zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    return str(x)  # lowest terms; "p/q" or "p"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemFormatError(message)


def _is_positive_int(value: Any) -> bool:
    # bool is a subclass of int, but JSON true is not a count
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e


def parse_problem(text: str) -> ProductSpace:
    """Parse a problem file into a ProductSpace (structure checks only;
    run product.validate_factor for the semantic diagnostics)."""
    data = _loads(text)
    _expect(isinstance(data, dict), "top level must be an object")
    factors = data.get("factors")
    _expect(isinstance(factors, list) and factors, "'factors' must be a non-empty list")
    specs: list[FactorSpec] = []
    for fi, raw in enumerate(factors):
        where = f"factors[{fi}]"
        _expect(isinstance(raw, dict), f"{where}: must be an object")
        name = raw.get("name", f"factor{fi}")
        _expect(isinstance(name, str), f"{where}.name: must be a string")
        rank = raw.get("rank")
        _expect(_is_positive_int(rank), f"{where}.rank: must be a positive integer")
        raw_sigma = raw.get("sigma_c")
        _expect(isinstance(raw_sigma, list), f"{where}.sigma_c: must be a list of pieces")
        pieces: list[ConvexCone] = []
        for pi, raw_piece in enumerate(raw_sigma):
            pwhere = f"{where}.sigma_c[{pi}]"
            _expect(isinstance(raw_piece, dict), f"{pwhere}: must be an object")
            gens = raw_piece.get("generators")
            _expect(isinstance(gens, list), f"{pwhere}.generators: must be a list")
            rays = []
            for gi, raw_gen in enumerate(gens):
                gwhere = f"{pwhere}.generators[{gi}]"
                _expect(
                    isinstance(raw_gen, list) and len(raw_gen) == rank,
                    f"{gwhere}: must be a list of {rank} rationals",
                )
                ray = [parse_rational(e, f"{gwhere}[{ei}]") for ei, e in enumerate(raw_gen)]
                _expect(any(e != 0 for e in ray), f"{gwhere}: generators must be nonzero")
                rays.append(ray)
            pieces.append(cone(rays, ambient_dim=rank))
        specs.append(factor_spec(name, rank, cone_union(pieces, ambient_dim=rank)))
    return product_space(specs)


def serialize_problem(p: ProductSpace) -> str:
    data = {
        "factors": [
            {
                "name": f.name,
                "rank": f.rank,
                "sigma_c": [
                    {"generators": [[format_rational(e) for e in g] for g in piece.generators]}
                    for piece in f.sigma_c.pieces
                ],
            }
            for f in p.factors
        ]
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def parse_subspace(text: str, ambient_dim: int | None = None) -> Subspace:
    """Parse a subspace file: {"basis": [[rational-string, ...], ...]}.

    Any spanning set of rows is accepted.  An empty basis needs an explicit
    "ambient_dim" entry (or argument).
    """
    data = _loads(text)
    _expect(isinstance(data, dict), "top level must be an object")
    basis = data.get("basis")
    _expect(isinstance(basis, list), "'basis' must be a list of rows")
    rows: list[list[Fraction]] = []
    for ri, raw_row in enumerate(basis):
        where = f"basis[{ri}]"
        _expect(isinstance(raw_row, list) and raw_row, f"{where}: must be a non-empty list")
        rows.append([parse_rational(e, f"{where}[{ei}]") for ei, e in enumerate(raw_row)])
    file_dim = data.get("ambient_dim")
    if file_dim is not None:
        _expect(_is_positive_int(file_dim), "'ambient_dim' must be a positive integer")
        if ambient_dim is not None:
            _expect(file_dim == ambient_dim, f"ambient_dim {file_dim} does not match the problem dimension {ambient_dim}")
        ambient_dim = file_dim
    if rows:
        _expect(
            all(len(r) == len(rows[0]) for r in rows),
            "basis rows of unequal length",
        )
        if ambient_dim is not None:
            _expect(
                len(rows[0]) == ambient_dim,
                f"basis rows have length {len(rows[0])}, expected {ambient_dim}",
            )
    elif ambient_dim is None:
        raise ProblemFormatError("an empty basis requires 'ambient_dim'")
    return Subspace.span(rows, ambient_dim=ambient_dim)


def serialize_subspace(s: Subspace) -> str:
    data = {
        "ambient_dim": s.ambient_dim,
        "basis": [[format_rational(e) for e in row] for row in s.basis.entries],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class MeasureReport:
    """Counts from a seeded sampling run; vsp_failures + FP + nonfp = samples."""

    k: int
    samples: int
    seed: int
    vsp_failures: int
    nonfp_count: int
    theorem_a_applicable: bool
    gamma_dim: int
    elapsed_ms: int


def serialize_report(report: MeasureReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def fixture_text(name: str) -> str:
    """Contents of a shipped fixture problem file ('f1' .. 'f4')."""
    path = resources.files(__package__) / "fixtures" / f"{name}.json"
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ProblemFormatError(f"unknown fixture {name!r}") from None


def load_fixture(name: str) -> ProductSpace:
    return parse_problem(fixture_text(name))
