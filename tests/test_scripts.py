import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_spectrum_table_below_n3_is_a_usage_error():
    proc = run_script("spectrum_table.py", "--n-min", "2", "--n-max", "3")
    assert proc.returncode == 2
    assert "--n-min must be >= 3" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["claim_audit.py", "spectrum_table.py"])
def test_empty_range_is_a_usage_error(name):
    proc = run_script(name, "--n-min", "6", "--n-max", "4")
    assert proc.returncode == 2
    assert "empty range: --n-max 4 is below --n-min 6" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_claim_audit_prints_every_record():
    proc = run_script("claim_audit.py", "--n-min", "4", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "\n"
        "n = 4\n"
        "  largest singular value                        claimed        6  !=  computed 3\n"
        "  multiplicity of singular value n-2            claimed        4  ==  computed 4\n"
        "  multiplicity of singular value 1              claimed     15/2  !=  computed 5\n"
        "  absolute determinant of the incidence matrix  claimed       96  !=  computed 48\n"
        "  largest divisor eigenvalue                    claimed       36  !=  computed 9\n"
        "  Gram entry, equal faces                       claimed        6  !=  computed 3\n"
        "  Gram entry, intersection n-2                  claimed        3  !=  computed 1\n"
        "  Gram entry, intersection n-3                  claimed        1  !=  computed 0\n"
        "  invariant eigenspace dimensions               claimed 10, 4, 1  !=  computed 5, 4, 1\n"
        "  -> 8 of 9 stated values disagree with the exact computation\n"
    )
