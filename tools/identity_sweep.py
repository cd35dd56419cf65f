"""Byte-identity sweep: run the same CLI calls on two checkouts and compare.

Run from anywhere:

    python3 tools/identity_sweep.py OLD_CHECKOUT NEW_CHECKOUT
    python3 tools/identity_sweep.py --fixtures-only . .

The calls are every call of the benchmark's cli-mix workload for seeds 1
and 2 (``benchmarks/workloads.py`` of this checkout generates their problem
and point files in a temporary directory), then ``measure --seed 42`` on
the five ROADMAP rows at 300 samples, on this checkout's fixture files,
then one library call per seeded random LP: ``lp.solve`` on 1000 small LPs
with "<=", ">=" and "=" rows, free variables and an objective under max or
min, or none, whose outcomes are optimal, unbounded, infeasible or
feasible.  CLI calls seldom reach phase 2 or an unbounded ray; these do.
Then one library call per seeded random cone union: 500 unions in R^2 to
R^4, each of 1 to 3 pieces with 1 to 4 nonzero integer generators with
entries in [-2, 2], recording ``union_is_tame`` and ``cone_contains_line``
of each piece.  Every cli-mix problem is tame; many of these are not.
Then one library call per seeded row set: 500 sets of rows in Q^2 to Q^5,
1 to 4 rows spanning a subspace s and 1 to 3 more spanning t.  Some rows
repeat an earlier row, some are integer combinations of earlier rows, and
some add multiples of the prime P = 2^61 - 1 to an earlier row (or to 0),
so that they are dependent only mod P.  Each records ``s.dim``, ``s``
(its canonical basis), ``s.contains`` of every row, of 0 and of one more
random row, ``subspaces_intersect_trivially`` of (s, t) and of (t, s), and
``avoids_block(s, a, b)`` for every block [a, b) of ``range(n)``: rank
questions on rows dependent mod P, which CLI calls seldom reach, take the
exact path, and the blocks holding no pivot of s's echelon mod P take none.
Then one library call per seeded sampled point: 200 products of
``seeded_union(seed)`` with a rank-1 factor whose cone data is one ray, each
at ``sample_point(p, p.max_rank, seed, 0)``, recording ``repr`` of its
``openness_certificate`` or the class and message of the error that refuses
it.  The CLI certifies FP points only, and a tame FP point never has a Γ
piece at slice distance 0; these points, often of untame data, reach the
certificate's verdict at distance 0, which refuses them as not FP or as
holding a non-pointed piece.
Each checkout's ``src/`` is imported by its own subprocess, which runs
``sigmafp.cli.main`` in-process on every CLI call and records the exit
code, stdout and stderr; ``elapsed_ms`` in ``measure`` reports is zeroed.
A library call records ``repr`` of the outcome as its stdout.  Prints
``identical (N calls)`` and exits 0, or prints the first differing call
with both outputs and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_MIX_SEEDS = (1, 2)
MEASURE_ROWS = (("f1", 1), ("f2", 4), ("f3", 1), ("f4", 2), ("f4", 3))
MEASURE_SEED = 42
MEASURE_SAMPLES = 300
LP_SOLVE = "lp.solve"
LP_COUNT = 1000
UNION_TAME = "union_is_tame"
UNION_COUNT = 500
SUBSPACE = "subspace"
SUBSPACE_COUNT = 500
CERTIFICATE = "openness_certificate"
CERTIFICATE_COUNT = 200
P = (1 << 61) - 1
_ELAPSED = re.compile(r'"elapsed_ms": [0-9]+')


def call_lists(directory: Path, fixtures_only: bool) -> list[list[str]]:
    """Every argv of the sweep, in order; writes the files they name."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    # The workload reads the fixtures under its root's src/ and writes its
    # files under the root's .bench_out/.
    (directory / "src").symlink_to(ROOT / "src")
    calls = []
    for seed in CLI_MIX_SEEDS:
        w = workloads.CliMixWorkload("cli-mix", seed, directory)
        for cp in w.problems:
            if not fixtures_only or cp.label in workloads.FIXTURES:
                calls += cp.calls
    return calls + measure_calls()


def measure_calls() -> list[list[str]]:
    """The argv of each measure row, on the fixture files shipped under src/."""
    fixtures = ROOT / "src" / "sigmafp" / "fixtures"
    return [
        ["measure", str(fixtures / f"{fixture}.json"), "--k", str(k),
         "--samples", str(MEASURE_SAMPLES), "--seed", str(MEASURE_SEED)]
        for fixture, k in MEASURE_ROWS
    ]


def library_calls() -> list[list[str]]:
    """One library call per seeded LP, union, row set and sampled point: its
    name and seed."""
    return ([[LP_SOLVE, str(seed)] for seed in range(LP_COUNT)]
            + [[UNION_TAME, str(seed)] for seed in range(UNION_COUNT)]
            + [[SUBSPACE, str(seed)] for seed in range(SUBSPACE_COUNT)]
            + [[CERTIFICATE, str(seed)] for seed in range(CERTIFICATE_COUNT)])


def seeded_lp(seed: int):
    """A small random LP with rational data, built from `seed` alone."""
    from sigmafp import lp

    rnd = random.Random(seed)
    n = rnd.randint(1, 4)

    def entry():
        if rnd.random() < 0.25:
            return Fraction(0)
        return Fraction(rnd.randint(-5, 5), rnd.choice([1, 1, 2, 3, 4]))

    constraints = [lp.constraint([entry() for _ in range(n)], rnd.choice([lp.LE, lp.GE, lp.EQ]),
                                 entry()) for _ in range(rnd.randint(1, 5))]
    return lp.LinearProgram(
        num_vars=n,
        constraints=tuple(constraints),
        objective=tuple(entry() for _ in range(n)) if rnd.random() < 0.8 else None,
        sense=rnd.choice(["max", "min"]),
        nonneg_vars=frozenset(j for j in range(n) if rnd.random() < 0.7),
    )


def seeded_union(seed: int):
    """A cone union with small integer generators, built from `seed` alone."""
    from sigmafp.cones import cone, cone_union

    rnd = random.Random(seed)
    n = rnd.randint(2, 4)

    def ray():
        while True:
            v = [rnd.randint(-2, 2) for _ in range(n)]
            if any(v):
                return v

    pieces = [cone([ray() for _ in range(rnd.randint(1, 4))], ambient_dim=n)
              for _ in range(rnd.randint(1, 3))]
    return cone_union(pieces, ambient_dim=n)


def tameness(seed: int) -> tuple:
    """The union's tameness verdict, then whether each piece contains a line."""
    from sigmafp.cones import cone_contains_line, union_is_tame

    u = seeded_union(seed)
    return union_is_tame(u), tuple(cone_contains_line(p) for p in u.pieces)


def seeded_rows(seed: int) -> tuple[int, list, list]:
    """The ambient dimension n, the rows spanning s and the rows spanning t,
    built from `seed` alone."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 5)
    rows: list[list] = []

    def row():
        kind = rnd.choice(["random", "repeat", "combination", "mod P"]) if rows else "random"
        if kind == "random":
            return [Fraction(rnd.randint(-3, 3), rnd.choice([1, 1, 2, 3])) for _ in range(n)]
        if kind == "repeat":
            return list(rnd.choice(rows))
        if kind == "combination":
            coeffs = [rnd.randint(-2, 2) for _ in rows]
            return [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        base = rnd.choice(rows + [[0] * n])
        return [a + P * rnd.randint(-1, 1) for a in base]

    s_count = rnd.randint(1, 4)
    for _ in range(s_count + rnd.randint(1, 3)):
        rows.append(row())
    return n, rows[:s_count], rows[s_count:]


def subspace_questions(seed: int) -> tuple:
    """s's dimension and canonical form, membership of each probe, whether
    s meets t only in 0 (asked both ways), and whether s meets each
    coordinate block only in 0."""
    from sigmafp.linalg import Subspace, avoids_block, subspaces_intersect_trivially, vector

    n, s_rows, t_rows = seeded_rows(seed)
    s, t = Subspace.span(s_rows, ambient_dim=n), Subspace.span(t_rows, ambient_dim=n)
    rnd = random.Random(-seed - 1)
    probes = [*s_rows, *t_rows, [0] * n, [rnd.randint(-3, 3) for _ in range(n)]]
    blocks = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    return (s.dim, s, tuple(s.contains(vector(v)) for v in probes),
            subspaces_intersect_trivially(s, t), subspaces_intersect_trivially(t, s),
            tuple(avoids_block(s, a, b) for a, b in blocks))


def certificate(seed: int) -> object:
    """The openness certificate of one sampled point of the product of
    `seeded_union(seed)` with a rank-1 single-ray factor, or the class and
    message of the error that refuses it."""
    from sigmafp.cones import cone, cone_union
    from sigmafp.decisions import openness_certificate
    from sigmafp.errors import SigmaFpError
    from sigmafp.grassmann import sample_point
    from sigmafp.product import assemble_sigma, build_gamma, factor_spec, product_space

    u = seeded_union(seed)
    p = product_space([factor_spec("a", u.ambient_dim, u),
                       factor_spec("b", 1, cone_union([cone([(1,)])]))])
    pt = sample_point(p, p.max_rank, seed, 0)
    try:
        return openness_certificate(pt, build_gamma(assemble_sigma(p)), p)
    except SigmaFpError as e:
        return type(e).__name__, str(e)


def worker(calls_file: str) -> None:
    """Run every call on the sigmafp that PYTHONPATH names; one JSON line each."""
    import sigmafp.cli
    from sigmafp import lp

    library = {LP_SOLVE: lambda seed: lp.solve(seeded_lp(seed)), UNION_TAME: tameness,
               SUBSPACE: subspace_questions, CERTIFICATE: certificate}
    for argv in json.loads(Path(calls_file).read_text()):
        if argv[0] in library:
            print(json.dumps([argv, 0, repr(library[argv[0]](int(argv[1]))), ""]))
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sigmafp.cli.main(argv)
        stdout = out.getvalue()
        if argv[0] == "measure":
            stdout = _ELAPSED.sub('"elapsed_ms": 0', stdout)
        print(json.dumps([argv, code, stdout, err.getvalue()]))


def run_tree(src: Path, calls_file: Path, out_file: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    with out_file.open("w") as out:
        return subprocess.Popen(
            [sys.executable, __file__, "--worker", str(calls_file)],
            env=env, stdout=out, stderr=subprocess.PIPE, text=True,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("new", type=Path, help="checkout to compare with it")
    parser.add_argument("--fixtures-only", action="store_true",
                        help="keep only the cli-mix calls on the shipped fixtures f1-f4")
    args = parser.parse_args(argv)
    srcs = [tree.resolve() / "src" for tree in (args.old, args.new)]
    for tree, src in zip((args.old, args.new), srcs):
        if not (src / "sigmafp" / "cli.py").is_file():
            parser.error(f"no src/sigmafp/cli.py under {tree}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        calls = call_lists(tmp, args.fixtures_only) + library_calls()
        calls_file = tmp / "calls.json"
        calls_file.write_text(json.dumps(calls))
        procs = [run_tree(src, calls_file, tmp / f"{name}.jsonl")
                 for name, src in zip(("old", "new"), srcs)]
        for name, proc in zip(("old", "new"), procs):
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"{name} checkout's worker failed:\n{err}", file=sys.stderr)
                return 2
        old, new = ((tmp / f"{name}.jsonl").read_text().splitlines() for name in ("old", "new"))
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            argv, *old_result = json.loads(a)
            _, *new_result = json.loads(b)
            print(f"call {i} differs: {' '.join(argv)}")
            for name, (code, out, err) in (("old", old_result), ("new", new_result)):
                print(f"--- {name}: exit {code}\n{out}{err}")
            return 1
    if not len(old) == len(new) == len(calls):
        print(f"outputs cover {len(old)} and {len(new)} of {len(calls)} calls")
        return 1
    print(f"identical ({len(calls)} calls)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
