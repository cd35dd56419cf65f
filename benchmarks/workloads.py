"""The benchmark's workloads: seeded inputs, the closed loop's operations,
and the answer checks run after the timed region.

sample-lp and sample-vsp call ``run_measure_experiment`` on shipped
fixtures, serially and with two workers.  cli-mix calls ``sigmafp.cli.main``
in-process on fixtures and on generated tame problems.  The package's only
inputs are the generated problems, points and seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import statistics
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks

FIXTURES = ("f1", "f2", "f3", "f4")


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on the parts (stable across runs)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def fixture_json(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "sigmafp" / "fixtures" / f"{name}.json").read_text())


@dataclasses.dataclass
class Op:
    """One closed-loop call: what ran, how long it took, what it returned."""

    kind: str
    seconds: float = 0.0
    scale: float = 1.0  # reference-speed seconds per measured second
    result: object = None
    error: str | None = None
    failed: bool = False


def timed_call(op: Op, fn, *args, **kwargs) -> Op:
    t0 = time.perf_counter()
    try:
        op.result = fn(*args, **kwargs)
    except Exception:  # an exception is a failed operation, not a crash
        op.error = traceback.format_exc()
        op.failed = True
    op.seconds = time.perf_counter() - t0
    return op


def median_or_none(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile; defined only with at least ten values beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


# --- sampling workloads ----------------------------------------------------

# (fixture, k, samples per call): the first row gives primary_p50_ms, the
# second secondary_p50_ms.  Each call takes about 0.2 s, so a run holds
# dozens of calls per row and stops close to its deadline.
SAMPLE_ROWS = {
    # f1 k=1 and f4 k=2 reach the LP: about half of f1's samples and a tenth
    # of f4's are non-FP, so feasible and infeasible LPs both occur.
    "sample-lp": (("f1", 1, 150), ("f4", 2, 40)),
    # f2 k=4 and f4 k=3 are all FP and the span prefilter rejects every
    # piece: RREF and the vsp test carry the time, no LP is built.
    "sample-vsp": (("f2", 4, 150), ("f4", 3, 300)),
}
WARMUP_SAMPLES = 4
# Rounds that also repeat every call with jobs=2.  Two-worker timings
# spread too widely on a shared 2-CPU machine to be gated, so they are
# printed, checked against their serial twins, and traced for pool cost.
PARALLEL_ROUNDS = 2
# Re-decided FP verdicts per row that also go to the exhaustive oracle,
# sized to its cost (up to about 1.3 s per point on f2 k=4).
ORACLE_FP_CHECKS = {("f1", 1): 12, ("f4", 2): 2, ("f2", 4): 2, ("f4", 3): 6}


class SamplingWorkload:
    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.root = root
        self.rows = SAMPLE_ROWS[name]

    def setup(self, sf) -> None:
        """Parse, validate, build Γ and make one small call per row."""
        self.sf = sf
        self.problems = {}
        for fixture, k, _ in self.rows:
            p = sf.parse_problem(sf.formats.fixture_text(fixture))
            for f in p.factors:
                errors = [d for d in sf.validate_factor(f) if d.severity == "ERROR"]
                if errors:
                    raise RuntimeError(f"{fixture}: {errors[0].message}")
            sf.build_gamma(sf.assemble_sigma(p))
            sf.run_measure_experiment(p, k, WARMUP_SAMPLES, derive_seed(self.seed, "warm"))
            self.problems[fixture] = p

    def trace_units(self) -> list[int]:
        return list(range(3 * len(self.rows)))

    def run_unit(self, u: int) -> list[Op]:
        """Unit u is round u // rows on row u % rows: one serial measure call
        on the round's seed, and in the first PARALLEL_ROUNDS rounds the same
        call again with jobs=2."""
        r, row = divmod(u, len(self.rows))
        fixture, k, samples = self.rows[row]
        seed = derive_seed(self.name, self.seed, r)
        ops = []
        for jobs in (1, 2) if r < PARALLEL_ROUNDS else (1,):
            op = Op(kind=f"measure.{fixture}.k{k}.jobs{jobs}")
            op.round, op.row, op.jobs, op.samples, op.seed = r, (fixture, k), jobs, samples, seed
            ops.append(timed_call(op, self.sf.run_measure_experiment,
                                  self.problems[fixture], k, samples, seed, jobs=jobs))
        return ops

    def end_to_end(self, ops: list[Op], t) -> dict:
        """Median ms per sample for each row, serial and with two workers;
        `t` gives an op's seconds."""
        out = {}
        for jobs, suffix in ((1, ""), (2, "_jobs2")):
            for fixture, k, samples in self.rows:
                per_call = [1000 * t(op) / samples for op in ops
                            if op.row == (fixture, k) and op.jobs == jobs]
                out[f"{fixture}_k{k}{suffix}_ms_per_sample"] = median_or_none(per_call)
                out[f"{fixture}_k{k}{suffix}_calls"] = len(per_call)
        (f1, k1, _), (f2, k2, _) = self.rows
        out["primary_p50_ms"] = out[f"{f1}_k{k1}_ms_per_sample"]
        out["secondary_p50_ms"] = out[f"{f2}_k{k2}_ms_per_sample"]
        return out

    def check(self, ops: list[Op], oracles) -> dict:
        """Mark failed ops; return the input properties seen while checking.

        Every two-worker report must equal its serial twin apart from
        elapsed_ms.  The first round's samples are re-decided one by one:
        counts must match the report, every non-FP witness must check by
        substitution, every FP verdict must pass `checks.meets`, and a
        seeded subset of FP verdicts also goes to the exhaustive oracle.
        """
        sf = self.sf
        by_key = {(op.round, op.row, op.jobs): op for op in ops}
        for op in ops:
            if op.failed or op.jobs != 2:
                continue
            twin = by_key[(op.round, op.row, 1)]
            if twin.failed or _stripped(sf, op.result) != _stripped(sf, twin.result):
                op.failed = True
        props = {}
        rng = random.Random(derive_seed(self.name, self.seed, "check"))
        for fixture, k, samples in self.rows:
            p = self.problems[fixture]
            problem = fixture_json(self.root, fixture)
            blocks = checks.problem_blocks(problem)
            pieces = checks.gamma_pieces(problem)
            gamma = sf.build_gamma(sf.assemble_sigma(p))
            serial = by_key.get((0, (fixture, k), 1))
            row_ops = [op for op in ops if op.row == (fixture, k) and op.jobs == 1]
            decided = sum(op.samples for op in row_ops if not op.failed)
            nonfp = sum(op.result.nonfp_count for op in row_ops if not op.failed)
            props[f"{fixture}_k{k}"] = row_props = {
                "N": p.total_dim, "k": k, "gamma_pieces": len(gamma.pieces),
                "gamma_dim": checks.gamma_dim(pieces),
                "nonfp_share": nonfp / decided if decided else None,
                "samples": decided,
            }
            if serial is None or serial.failed:
                continue
            ok, fp_indices, skipped, tested = True, [], 0, 0
            vsp_failures = nonfp_count = 0
            for index in range(samples):
                pt = sf.sample_point(p, k, serial.seed, index)
                basis = pt.subspace.basis.entries
                if not checks.is_vsp(basis, blocks):
                    vsp_failures += 1
                    continue
                for gens in pieces:
                    tested += 1
                    skipped += checks.rank(list(basis) + list(gens)) == len(basis) + checks.rank(gens)
                decision = sf.is_finitely_presented(pt, gamma, p)
                if decision.finitely_presented:
                    fp_indices.append(index)
                    ok = ok and not checks.meets(oracles, pieces, basis)
                    continue
                nonfp_count += 1
                w = decision.witness
                gens = gamma.pieces[w.piece_index].generators
                ok = ok and tuple(gens) in pieces and checks.witness_ok(
                    w.ray, w.coefficients, gens, basis)
            for index in rng.sample(fp_indices, min(len(fp_indices), ORACLE_FP_CHECKS[(fixture, k)])):
                pt = sf.sample_point(p, k, serial.seed, index)
                ok = ok and not checks.meets_oracle(oracles, pieces, pt.subspace.basis.entries)
            r = serial.result
            ok = ok and (r.vsp_failures, r.nonfp_count, r.samples, r.k) == (
                vsp_failures, nonfp_count, samples, k)
            if not ok:
                serial.failed = True
            row_props["prefilter_skip_share"] = skipped / tested if tested else None
            row_props["fp_verdicts"] = len(fp_indices)
            row_props["fp_verdicts_also_oracle_checked"] = min(
                len(fp_indices), ORACLE_FP_CHECKS[(fixture, k)])
        return props


def _stripped(sf, report) -> str:
    return sf.formats.serialize_report(dataclasses.replace(report, elapsed_ms=0))


# --- cli-mix ---------------------------------------------------------------

# Generated problems cycle through these factor counts (all rank 2), so
# every run sees the same mix of N = 4, 6 and 8 whatever the seed.  N = 4
# comes most often because only N <= 4 points are certified, and the
# certify median needs many certificates per run to be steady.
GENERATED_FACTORS = (2, 3, 2, 4, 2)
GENERATED_PROBLEMS = 80
CERTIFY_MAX_N = 4  # a certificate costs 0.1-0.6 s at N <= 4 and up to 3 s at N = 8
ORACLE_MAX_N = 4  # the exhaustive oracle takes about 1 s per N = 4 point
ORACLE_FP_BUDGET = 6


def generated_problem(rng: random.Random, n_factors: int) -> dict:
    """Rank-2 factors whose generators all have a positive first coordinate,
    so no two rays of a factor are antipodal: tame by construction."""

    def ray():
        return [str(rng.randint(1, 4)), str(rng.randint(-4, 4))]

    factors = []
    for j in range(n_factors):
        pieces = [{"generators": [ray(), ray()]}]
        if j == 0:
            pieces.append({"generators": [ray()]})
        factors.append({"name": f"g{j}", "rank": 2, "sigma_c": pieces})
    return {"factors": factors}


def random_basis(rng: random.Random, l: int, n: int, blocks, vsp: bool) -> list[list[int]]:
    """l independent small-integer rows; non-vsp points contain a unit
    vector of the first block."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(l)]
        if not vsp:
            rows[0] = [int(c == blocks[0][0]) for c in range(n)]
        if checks.rank(rows) == l and (checks.is_vsp(rows, blocks) == vsp):
            return rows


class CliProblem:
    def __init__(self, label, problem, path):
        self.label = label
        self.problem = problem
        self.path = path
        self.blocks = checks.problem_blocks(problem)
        self.n = self.blocks[-1][1]
        self.max_rank = max(f["rank"] for f in problem["factors"])
        self.pieces = checks.gamma_pieces(problem)
        self.dim = checks.gamma_dim(self.pieces)
        self.points = []  # (path, rows, k)
        self.calls = []  # argv lists, in loop order


class CliMixWorkload:
    """Closed loop over per-problem command batches; each problem is used
    once per pass, fixtures first, then generated problems in order."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.root = root
        self.dir = root / ".bench_out" / f"cli-mix-{seed}"
        self.generate()

    def _write(self, name: str, data: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(data))
        return str(path)

    def generate(self) -> None:
        """Write every problem and point file (deterministic in the seed)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(derive_seed(self.name, self.seed))
        specs = [(name, fixture_json(self.root, name)) for name in FIXTURES]
        for i in range(GENERATED_PROBLEMS):
            nf = GENERATED_FACTORS[i % len(GENERATED_FACTORS)]
            specs.append((f"g{i}", generated_problem(rng, nf)))
        self.problems = []
        for label, data in specs:
            cp = CliProblem(label, data, self._write(f"{label}.json", data))
            n = cp.n
            ks = sorted({cp.max_rank, max(cp.max_rank, n // 2), n - 1})
            for j, k in enumerate(2 * ks + [ks[0]]):
                vsp = j < 2 * len(ks)
                rows = random_basis(rng, n - k, n, cp.blocks, vsp)
                path = self._write(f"{label}_s{j}.json",
                                   {"basis": [[str(x) for x in r] for r in rows]})
                cp.points.append((path, rows, k))
            k0 = cp.max_rank if n > cp.max_rank else None
            calls = [["validate", cp.path], ["tame", cp.path], ["gamma", cp.path]]
            nonzero = sum(bool(f["sigma_c"]) for f in data["factors"])
            ranks = {f["rank"] for f in data["factors"]}
            if len(data["factors"]) == 2 and len(ranks) == 1:
                calls.append(["construct-rho", cp.path])
            if k0 is not None and nonzero >= 2:
                calls.append(["nonfp-witness", cp.path, "--k", str(k0)])
                calls.append(["nonfp-box", cp.path, "--k", str(k0)])
            for path, rows, k in cp.points:
                calls.append(["check-vsp", cp.path, "--subspace", path])
                calls.append(["check-fp", cp.path, "--subspace", path])
                if n <= CERTIFY_MAX_N:
                    calls.append(["check-fp", cp.path, "--subspace", path, "--certify"])
            cp.calls = calls
            self.problems.append(cp)
        self.point_rows = {path: (cp, rows, k) for cp in self.problems
                           for path, rows, k in cp.points}

    def setup(self, sf) -> None:
        """Validate every problem through the CLI (exit 0 required), build Γ,
        and warm up with one check-fp call."""
        self.sf = sf
        for cp in self.problems:
            code, out = self.call(["validate", cp.path])
            if code != 0:
                raise RuntimeError(f"generated problem {cp.label} fails validate:\n{out}")
            sf.build_gamma(sf.assemble_sigma(sf.parse_problem(json.dumps(cp.problem))))
        first = self.problems[0]
        self.call(["check-fp", first.path, "--subspace", first.points[0][0]])

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sf.cli.main(argv)
        return code, out.getvalue()

    def trace_units(self) -> list[int]:
        # Fixtures plus six generated problems: every size, some twice.
        return list(range(len(FIXTURES) + 6))

    def run_unit(self, i: int) -> list[Op]:
        cp = self.problems[i % len(self.problems)]
        ops = []
        for argv in cp.calls:
            kind = argv[0] + (" --certify" if "--certify" in argv else "")
            op = timed_call(Op(kind=kind), self.call, argv)
            op.argv, op.problem = argv, cp
            ops.append(op)
        return ops

    def end_to_end(self, ops: list[Op], t) -> dict:
        ms = [1000 * t(op) for op in ops]
        fp = [1000 * t(op) for op in ops if op.kind == "check-fp"]
        cert = [1000 * t(op) for op in ops
                if op.kind == "check-fp --certify" and not op.failed and op.result[0] == 0]
        return {
            "calls": len(ops),
            "cli_p50_ms": median_or_none(ms),
            "cli_p90_ms": p90(ms),
            "check_fp_p50_ms": median_or_none(fp),
            "check_fp_calls": len(fp),
            "certify_p50_ms": median_or_none(cert),
            "certificates": len(cert),
            "primary_p50_ms": median_or_none(ms),
            "secondary_p50_ms": median_or_none(cert),
        }

    def check(self, ops: list[Op], oracles) -> dict:
        """Check every exit code and verdict line against independent
        answers.  Every FP verdict must pass `checks.meets`; a seeded subset
        of them also goes to the exhaustive oracle."""
        self.fp_claims = []  # (op, rows) of every FP verdict
        self.verdicts = {}  # point file -> True when check-fp said non-FP
        self.prefilter = [0, 0]  # Γ pieces tested, pieces whose span misses S°
        for op in ops:
            if op.failed:
                continue
            try:
                op.failed = not self._check_call(op, oracles)
            except (ValueError, IndexError, ZeroDivisionError):  # malformed output
                op.failed = True
        for op, rows in self.fp_claims:
            if checks.meets(oracles, op.problem.pieces, rows):
                op.failed = True
        rng = random.Random(derive_seed(self.name, self.seed, "check"))
        cheap = [c for c in self.fp_claims if c[0].problem.n <= ORACLE_MAX_N]
        rng.shuffle(cheap)
        cheap.sort(key=lambda c: c[0].problem.n)  # N <= 3 points cost milliseconds
        cheap = cheap[:ORACLE_FP_BUDGET]
        for op, rows in cheap:
            if checks.meets_oracle(oracles, op.problem.pieces, rows):
                op.failed = True
        used = {op.problem.label: op.problem for op in ops}.values()
        nonfp = list(self.verdicts.values())
        tested, skipped = self.prefilter
        return {
            "problems": len(used),
            "N": sorted({cp.n for cp in used}),
            "gamma_pieces": sorted({len(cp.pieces) for cp in used}),
            "gamma_dim": sorted({cp.dim for cp in used}),
            "k": sorted({k for cp in used for _, _, k in cp.points}),
            "nonfp_share": sum(nonfp) / len(nonfp) if nonfp else None,
            "prefilter_skip_share": skipped / tested if tested else None,
            "fp_verdicts": len(self.fp_claims),
            "fp_verdicts_also_oracle_checked": len(cheap),
        }

    def _check_call(self, op: Op, oracles) -> bool:
        code, out = op.result
        cp, argv = op.problem, op.argv
        lines = out.splitlines() or [""]
        cmd = argv[0]
        if cmd == "validate":
            return code == 0 and lines[-1].endswith("→ OK")
        if cmd == "tame":
            return code == 0 and lines[-1].endswith("→ all factors tame")
        if cmd == "gamma":
            return code == 0 and lines[0].endswith(f"→ dim {cp.dim}, {len(cp.pieces)} pieces")
        if cmd == "construct-rho":
            rows = checks.rows_after(out, "point S° basis rows: ")
            self.fp_claims.append((op, rows))
            return (code == 0 and "verified: true" in out
                    and lines[-1].endswith("→ finitely presented")
                    and checks.is_vsp(rows, cp.blocks))
        if cmd == "nonfp-witness":
            rows = checks.rows_after(out, "S° basis rows: ")
            return (code == 0 and checks.is_vsp(rows, cp.blocks)
                    and checks.meets(oracles, cp.pieces, rows))
        if cmd == "nonfp-box":
            if cp.dim <= int(argv[3]):
                return code == 4
            samples = [checks.rows_after(line, "S° basis rows: ")
                       for line in lines if line.startswith("sample ")]
            return (code == 0 and len(samples) == 10
                    and all(checks.is_vsp(s, cp.blocks) for s in samples))
        _, rows, _ = self.point_rows[argv[3]]
        vsp = checks.is_vsp(rows, cp.blocks)
        if cmd == "check-vsp":
            want = "→ virtual subdirect product" if vsp else "→ NOT a virtual subdirect product"
            return code == 0 and lines[-1].endswith(want)
        if not vsp:  # check-fp needs a virtual subdirect product
            return code == 3
        if "--certify" in argv:
            # Certifying a non-FP point must be refused with exit 3; the
            # verdict itself is checked on the plain check-fp of the point.
            if "NOT finitely presented" in lines[0]:
                return code == 3
            delta = next((x.split("δ = ")[1] for x in lines if "δ = " in x), "0")
            return code == 0 and Fraction(delta) > 0
        for gens in cp.pieces:
            self.prefilter[0] += 1
            self.prefilter[1] += checks.rank(rows + list(gens)) == len(rows) + checks.rank(gens)
        if lines[0].endswith("→ finitely presented"):
            self.verdicts[argv[3]] = False
            self.fp_claims.append((op, rows))
            return code == 0
        self.verdicts[argv[3]] = True
        ray = checks.rows_after(lines[0], "witness ray = ")
        piece = int(lines[0].rsplit("(piece ", 1)[1].rstrip(")"))
        return (code == 0 and len(ray) == 1 and any(ray[0])
                and piece < len(cp.pieces)
                and checks.in_row_space(ray[0], rows)
                and checks.in_cone_oracle(oracles, cp.pieces[piece], ray[0]))


WORKLOADS = {
    "sample-lp": SamplingWorkload,
    "sample-vsp": SamplingWorkload,
    "cli-mix": CliMixWorkload,
}
