import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "tools" / "identity_sweep.py"


def sweep(old, new):
    return subprocess.run(
        [sys.executable, str(SWEEP), "--fixtures-only", str(old), str(new)],
        capture_output=True, text=True, timeout=300,
    )


def test_checkout_is_identical_to_itself():
    out = sweep(ROOT, ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    match = re.fullmatch(r"identical \((\d+) calls\)\n", out.stdout)
    assert match and int(match.group(1)) > 100


def test_a_changed_verdict_line_is_the_first_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sigmafp" / "cli.py"
    cli.write_text(cli.read_text().replace("Γ ∩ S° = {0}", "Γ meets S° only in 0"))
    out = sweep(ROOT, tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    # construct-rho on f1 is the first call that prints the FP criterion
    first = out.stdout.splitlines()[0]
    assert re.fullmatch(r"call 3 differs: construct-rho \S+/cli-mix-1/f1\.json", first)
    assert "Γ ∩ S° = {0}" in out.stdout and "Γ meets S° only in 0" in out.stdout
