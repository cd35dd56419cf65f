"""Fraction census: count the `Fraction` objects two checkouts build on the same calls.

Run from anywhere:

    python3 tools/fraction_census.py OLD_CHECKOUT NEW_CHECKOUT
    python3 tools/fraction_census.py --fixtures-only . .
    python3 tools/fraction_census.py --measure-only . .

The calls are the CLI calls of ``tools/identity_sweep.py`` (the cli-mix
calls of seeds 1 and 2, then ``measure --seed 42`` on the five ROADMAP
rows), without its seeded library calls (``lp.solve``, tameness and the
subspace questions on seeded row sets).  Each checkout's ``src/`` is
imported by its own subprocess, which counts every call of
``Fraction.__new__`` (all `Fraction` arithmetic builds its result through
it) while it runs ``sigmafp.cli.main`` in-process on each call.
The counts are summed per group: ``check-fp --certify`` calls, the other
CLI calls, and each measure row.  Unlike timings they do not depend on the
machine or its load, so a change that only removes arithmetic shows as an
exact ratio.  ``--fixtures-only`` keeps only the CLI calls on the shipped
fixtures; ``--measure-only`` runs only the measure rows and generates no
cli-mix file.  Prints one line per group and exits 0, or exits 2 if a
worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from identity_sweep import call_lists, measure_calls  # noqa: E402

CERTIFY = "check-fp --certify"
OTHER = "other CLI calls"


def group(argv: list[str]) -> str:
    if argv[0] == "measure":
        return f"measure {Path(argv[1]).stem} k={argv[argv.index('--k') + 1]}"
    return CERTIFY if "--certify" in argv else OTHER


def worker(calls_file: str) -> None:
    """Run every call on the sigmafp that PYTHONPATH names; print one count per call."""
    from fractions import Fraction

    import sigmafp.cli

    built = 0
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real_new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    for argv in json.loads(Path(calls_file).read_text()):
        before = built
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sigmafp.cli.main(argv)
        print(built - before)


def count_tree(src: Path, calls_file: Path) -> subprocess.Popen:
    # A fixed hash seed keeps every set and dict order, and with it the work
    # done, the same from run to run.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, __file__, "--worker", str(calls_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout counted first")
    parser.add_argument("new", type=Path, help="checkout compared with it")
    calls_kept = parser.add_mutually_exclusive_group()
    calls_kept.add_argument("--fixtures-only", action="store_true",
                            help="keep only the cli-mix calls on the shipped fixtures f1-f4")
    calls_kept.add_argument("--measure-only", action="store_true",
                            help="keep only the five measure rows, no CLI call")
    args = parser.parse_args(argv)
    srcs = [tree.resolve() / "src" for tree in (args.old, args.new)]
    for tree, src in zip((args.old, args.new), srcs):
        if not (src / "sigmafp" / "cli.py").is_file():
            parser.error(f"no src/sigmafp/cli.py under {tree}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        calls = measure_calls() if args.measure_only else call_lists(tmp, args.fixtures_only)
        calls_file = tmp / "calls.json"
        calls_file.write_text(json.dumps(calls))
        procs = [count_tree(src, calls_file) for src in srcs]
        counts = []
        for name, proc in zip(("old", "new"), procs):
            out, err = proc.communicate()
            lines = out.split()
            if proc.returncode != 0 or len(lines) != len(calls):
                print(f"{name} checkout's worker failed:\n{err}", file=sys.stderr)
                return 2
            counts.append([int(n) for n in lines])
    totals: dict[str, list[int]] = {}
    for argv, old, new in zip(calls, *counts):
        row = totals.setdefault(group(argv), [0, 0, 0])
        row[0] += 1
        row[1] += old
        row[2] += new
    print(f"{'group':<22} {'calls':>6} {'old':>10} {'new':>10} {'new/old':>8}")
    for name, (n, old, new) in totals.items():
        ratio = f"{new / old:.3f}" if old else "-"
        print(f"{name:<22} {n:>6} {old:>10} {new:>10} {ratio:>8}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
