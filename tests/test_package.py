"""Package-level properties: no bare asserts, and `python -m sigmafp`."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import sigmafp
from sigmafp.formats import fixture_text

PACKAGE_DIR = Path(sigmafp.__file__).parent


def test_no_assert_statements_in_package():
    # soundness checks must survive `python -O`, which strips asserts
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_python_dash_m_runs_the_cli(tmp_path):
    problem = tmp_path / "f1.json"
    problem.write_text(fixture_text("f1"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def check_fp(rows):
        sub = tmp_path / "s.json"
        sub.write_text('{"basis": [%s]}' % ", ".join('["%s", "%s"]' % r for r in rows))
        argv = [sys.executable, "-m", "sigmafp", "check-fp", str(problem), "--subspace", str(sub)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    done = check_fp([(1, 1)])
    assert done.returncode == 0
    assert "→ NOT finitely presented; witness ray = (1, 1) (piece 1)" in done.stdout
    done = check_fp([(1, 0)])  # meets the first factor block
    assert done.returncode == 3
    assert "precondition failed" in done.stderr


def test_optimised_check_vsp_reaches_the_exact_fallback(tmp_path):
    # S° = span{(p, 1)}, p = 2**61 - 1, is (0, 1) mod p like the second factor
    # block, yet meets it only in 0 over Q: the exact fallback decides, with
    # asserts stripped by -O.
    problem = tmp_path / "f1.json"
    problem.write_text(fixture_text("f1"))
    sub = tmp_path / "s.json"
    sub.write_text('{"basis": [["2305843009213693951", "1"]]}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-O", "-m", "sigmafp", "check-vsp", str(problem), "--subspace", str(sub)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stdout == "check-vsp [Lemma: S° ∩ G_i* = {0} for each i] → virtual subdirect product\n"
    assert done.stderr == ""


def test_benchmark_tracer_targets_resolve():
    # benchmarks/tracing.py wraps these functions by name and reads two
    # caches; renaming or deleting one would break a traced run silently.
    tracing = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    )
    assert wrapped
    for module, attr in wrapped:
        owner = importlib.import_module(f"sigmafp.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attr)
    for module, attr in (("product", "block_subspace"), ("cones", "_cone_span")):
        info = getattr(importlib.import_module(f"sigmafp.{module}"), attr).cache_info()
        assert info.maxsize > 0
