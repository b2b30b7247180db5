import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_spectrum_table_starts_at_n3():
    proc = run_script("spectrum_table.py", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[:3] for row in rows] == [["3", "6", "1^6"], ["4", "10", "9^1,"]]


def test_claim_audit_below_n4_is_a_usage_error():
    proc = run_script("claim_audit.py", "--n-min", "3", "--n-max", "4")
    assert proc.returncode == 2
    assert "--n-min must be >= 4" in proc.stderr
    assert "Traceback" not in proc.stderr
