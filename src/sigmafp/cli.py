"""Command-line surface: one command per decision or construction.

Verdict lines name the statement they instantiate, so runs can be audited
against the underlying criteria.  Exit codes: 0 success, 1 usage,
2 parse/validation, 3 violated precondition, 4 honest refusal, 5 internal
error (a failed soundness check).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .cones import cone_dim, union_is_tame
from .decisions import (
    _NOT_FP,
    construct_nonfp_box,
    construct_nonfp_witness,
    construct_rho,
    is_finitely_presented,
    openness_certificate,
    run_measure_experiment,
)
from .errors import (
    ConstructionFailed,
    NonPointedPiece,
    NoSuitableFactors,
    NotFinitelyPresented,
    NotVirtualSubdirect,
    ProblemFormatError,
    TheoremAApplies,
    UnsupportedRank,
)
from .formats import (
    format_rational,
    parse_problem,
    parse_subspace,
    serialize_report,
)
from .grassmann import is_virtual_subdirect, subspace_point
from .product import assemble_sigma, build_gamma, validate_factor

FP_CRITERION = "Lemma: Γ ∩ S° = {0}"
VSP_CRITERION = "Lemma: S° ∩ G_i* = {0} for each i"
TAME_CRITERION = "Theorem: finitely presented ⟺ Σ^c tame"
OPEN_CRITERION = "Theorem: the FP locus is open"
RHO_CRITERION = "Theorem: some rank-m point is FP (n = 2)"
NONFP_CRITERION = "Theorem: non-FP vsp points exist (m ≤ k < rank G)"
BOX_CRITERION = "Theorem: dim Γ > k ⟺ the non-FP locus has interior"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 for usage problems, not argparse's 2
        raise _UsageError(message)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(format_rational(e) for e in v) + ")"


def _fmt_rows(rows) -> str:
    return "; ".join(_fmt_vec(r) for r in rows)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ProblemFormatError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 ({e.reason} at byte {e.start})"
        raise ProblemFormatError(f"cannot read {path}: {reason}") from e


def _load_problem(path: str):
    p = parse_problem(_read(path))
    errors = []
    for f in p.factors:
        for d in validate_factor(f):
            if d.severity == "ERROR":
                errors.append(d.message)
            else:
                print(f"WARNING: {d.message}", file=sys.stderr)
    if errors:
        raise ProblemFormatError("; ".join(errors))
    return p


def _load_point(p, subspace_file: str):
    s = parse_subspace(_read(subspace_file), ambient_dim=p.total_dim)
    if s.dim > p.total_dim - p.max_rank:
        raise ProblemFormatError(
            f"subspace of dimension {s.dim} leaves k={p.total_dim - s.dim} below the maximal "
            f"factor rank {p.max_rank}; its dimension can be at most {p.total_dim - p.max_rank}"
        )
    return subspace_point(s, k=p.total_dim - s.dim)


def _cmd_validate(args) -> int:
    p = parse_problem(_read(args.problem))
    print(
        f"validate: {len(p.factors)} factors, total dual dimension "
        f"{p.total_dim}, max rank {p.max_rank}"
    )
    has_error = False
    for f in p.factors:
        diags = validate_factor(f)
        if not diags:
            print(f"factor {f.name!r} (rank {f.rank}): OK")
        for d in diags:
            has_error = has_error or d.severity == "ERROR"
            print(f"factor {f.name!r} (rank {f.rank}): {d.severity}: {d.message}")
    print(f"validate [{TAME_CRITERION}] → {'FAILED' if has_error else 'OK'}")
    return 2 if has_error else 0


def _cmd_gamma(args) -> int:
    p = _load_problem(args.problem)
    gamma = build_gamma(assemble_sigma(p))
    dims = [cone_dim(piece) for piece in gamma.pieces]
    print(
        f"gamma [Γ = Σ^c + Σ^c] → dim {max(dims, default=0)}, "
        f"{len(gamma.pieces)} pieces"
    )
    for i, piece in enumerate(gamma.pieces):
        print(f"piece {i} (dim {dims[i]}): rays {_fmt_rows(piece.generators)}")
    return 0


def _cmd_tame(args) -> int:
    p = parse_problem(_read(args.problem))
    all_tame = True
    for f in p.factors:
        tame = union_is_tame(f.sigma_c)
        all_tame = all_tame and tame
        print(
            f"tame [{TAME_CRITERION}] factor {f.name!r} → "
            f"{'tame' if tame else 'NOT tame (contains antipodal rays)'}"
        )
    print(f"tame → {'all factors tame' if all_tame else 'NOT all factors tame'}")
    return 0


def _cmd_check_vsp(args) -> int:
    p = _load_problem(args.problem)
    pt = _load_point(p, args.subspace)
    verdict = is_virtual_subdirect(pt, p)
    print(
        f"check-vsp [{VSP_CRITERION}] → "
        f"{'virtual subdirect product' if verdict else 'NOT a virtual subdirect product'}"
    )
    return 0


def _cmd_check_fp(args) -> int:
    p = _load_problem(args.problem)
    pt = _load_point(p, args.subspace)
    gamma = build_gamma(assemble_sigma(p))
    decision = is_finitely_presented(pt, gamma, p)
    if decision.finitely_presented:
        print(f"check-fp [{FP_CRITERION}] → finitely presented")
    else:
        w = decision.witness
        print(
            f"check-fp [{FP_CRITERION}] → NOT finitely presented; "
            f"witness ray = {_fmt_vec(w.ray)} (piece {w.piece_index})"
        )
    if args.certify:
        if not decision.finitely_presented:
            raise NotFinitelyPresented(_NOT_FP)
        cert = openness_certificate(pt, gamma, p)
        print(f"certificate [{OPEN_CRITERION}] → δ = {format_rational(cert.delta)}")
        print(f"pivot columns: {', '.join(map(str, cert.chart_pivots)) or '-'}")
        for idx, dist in cert.per_piece_distance:
            print(f"piece {idx}: L∞ distance {format_rational(dist)}")
        margin = "unbounded" if cert.vsp_margin is None else format_rational(cert.vsp_margin)
        print(f"vsp margin: {margin}")
    return 0


def _cmd_construct_rho(args) -> int:
    p = _load_problem(args.problem)
    result = construct_rho(p)
    print(f"construct-rho [{RHO_CRITERION}] → verified: {str(result.verified).lower()}")
    print(f"method: {result.method}")
    print(f"rho rows: {_fmt_rows(result.rho.entries)}")
    if result.method == "gap-scan":
        print(
            f"v1 = {_fmt_vec(result.v1)}; v2 = {_fmt_vec(result.v2)}; "
            f"eps1 = {format_rational(result.eps1)}; eps2 = {format_rational(result.eps2)}; "
            f"lambda = {format_rational(result.lam)}"
        )
    print(f"point S° basis rows: {_fmt_rows(result.point.subspace.basis.entries)}")
    gamma = build_gamma(assemble_sigma(p))
    decision = is_finitely_presented(result.point, gamma, p)
    print(
        f"check-fp of the point [{FP_CRITERION}] → "
        f"{'finitely presented' if decision.finitely_presented else 'NOT finitely presented'}"
    )
    return 0


def _cmd_nonfp_witness(args) -> int:
    p = _load_problem(args.problem)
    pt = construct_nonfp_witness(p, args.k)
    print(
        f"nonfp-witness [{NONFP_CRITERION}] → S° basis rows: "
        f"{_fmt_rows(pt.subspace.basis.entries)}"
    )
    print("verified: virtual subdirect product, NOT finitely presented")
    return 0


def _cmd_nonfp_box(args) -> int:
    p = _load_problem(args.problem)
    gamma = build_gamma(assemble_sigma(p))
    box = construct_nonfp_box(p, gamma, args.k)
    print(f"nonfp-box [{BOX_CRITERION}] → box: {box.description}")
    print(f"chart basis rows: {_fmt_rows(box.chart.complement_basis.entries)}")
    for i, pt in enumerate(box.sample_points):
        print(
            f"sample {i}: S° basis rows: {_fmt_rows(pt.subspace.basis.entries)} "
            f"→ vsp, NOT finitely presented"
        )
    return 0


def _cmd_measure(args) -> int:
    p = _load_problem(args.problem)
    report = run_measure_experiment(
        p, k=args.k, samples=args.samples, seed=args.seed, jobs=args.jobs
    )
    sys.stdout.write(serialize_report(report))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _Parser(prog="sigmafp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, subspace=False, k=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("problem", help="problem file (JSON)")
        if subspace:
            sp.add_argument(
                "--subspace", required=True, metavar="FILE",
                help="subspace file giving rows that span S°",
            )
        if k:
            sp.add_argument("--k", type=int, required=True, help="rank of the subgroup points")
        sp.set_defaults(func=func)
        return sp

    add("validate", _cmd_validate, "check factor cone data against the standing hypotheses")
    add("gamma", _cmd_gamma, "print the pairwise-sum cone union Γ")
    add("tame", _cmd_tame, "report tameness of each factor's cone data")
    add("check-vsp", _cmd_check_vsp, "is the point a virtual subdirect product?", subspace=True)
    fp = add("check-fp", _cmd_check_fp, "decide finite presentability of the point", subspace=True)
    fp.add_argument("--certify", action="store_true", help="also emit an openness certificate")
    add("construct-rho", _cmd_construct_rho, "construct a verified FP point for two equal-rank factors")
    add("nonfp-witness", _cmd_nonfp_witness, "construct a verified non-FP vsp point", k=True)
    add("nonfp-box", _cmd_nonfp_box, "construct an open box of non-FP points", k=True)
    measure = add("measure", _cmd_measure, "seeded sampling experiment over the Grassmannian", k=True)
    measure.add_argument("--samples", type=int, required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--jobs", type=int, default=1, help="parallel sample evaluation")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ProblemFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NotVirtualSubdirect, NotFinitelyPresented, NoSuitableFactors) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 3
    except (NonPointedPiece, TheoremAApplies, UnsupportedRank, ConstructionFailed) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 5


def run() -> None:
    raise SystemExit(main())
