import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "tools" / "fraction_census.py"
ROW = re.compile(r"(.+?)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\S+)")


def census_rows(option):
    """Run the census of this checkout against itself; {group: (calls, count)}."""
    out = subprocess.run(
        [sys.executable, str(CENSUS), option, str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    header, *lines = out.stdout.splitlines()
    assert header.split() == ["group", "calls", "old", "new", "new/old"]
    rows = {}
    for line in lines:
        name, calls, old, new, ratio = ROW.fullmatch(line).groups()
        assert old == new and ratio == "1.000", line
        rows[name] = (int(calls), int(old))
    return rows


MEASURE_ROWS = [
    "measure f1 k=1", "measure f2 k=4", "measure f3 k=1", "measure f4 k=2", "measure f4 k=3",
]


def test_checkout_counts_equal_to_itself():
    rows = census_rows("--fixtures-only")
    assert list(rows) == [
        "other CLI calls", "check-fp --certify", *MEASURE_ROWS,
    ]
    assert all(calls > 0 and built > 0 for calls, built in rows.values())


def test_measure_only_counts_the_five_measure_rows():
    rows = census_rows("--measure-only")
    assert list(rows) == MEASURE_ROWS
    assert all(calls == 1 and built > 0 for calls, built in rows.values())
