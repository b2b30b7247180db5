"""Checks of the benchmark itself, not of facevol.

    python3 -m pytest perfbench -q    # about two minutes: one traced run per workload

A missed rebinding would let a layer read "0 s", so the traced runs must
record calls where the workloads predict them, and none where they predict
none.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, report_problems  # noqa: E402

_results: dict[tuple[str, int], dict] = {}


def result(workload: str, trace: int) -> dict:
    """Last stdout line of one short benchmark run, cached per module."""
    if (workload, trace) not in _results:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        _results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return _results[workload, trace]


def values(workload: str) -> dict[str, float]:
    return {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_correct_and_self_times_add_up(workload):
    r = result(workload, 1)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2
    m = values(workload)
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    total += m["trace.bookkeeping_s"] + m["trace.untraced_s"]
    assert total == pytest.approx(m["trace.certify_s"], rel=1e-9)


@pytest.mark.parametrize(
    "workload, called",
    [
        ("ladder", ["jacobian.jacobian_squared_map", "linalg.rank", "gelfand.gelfand_report"]),
        ("sample_sweep", ["jacobian.jacobian_squared_map", "linalg.rank", "geometry.squared_volume"]),
        ("spectrum_large", ["linalg.char_poly", "linalg.rank", "linalg.matmul"]),
    ],
)
def test_calls_recorded_where_predicted(workload, called):
    m = values(workload)
    for layer in called:
        assert m[f"{layer}.calls"] > 0, layer


def test_no_jacobian_or_geometry_work_on_spectrum_large():
    m = values("spectrum_large")
    idle = [x for x in LAYERS if x.startswith(("jacobian.", "geometry."))]
    assert idle and all(m[f"{x}.calls"] == 0 for x in idle)


def test_rank_input_is_rational_on_sweep_and_mostly_integer_on_spectrum():
    assert values("sample_sweep")["linalg.rank.rational_share"] > 0.5
    assert values("spectrum_large")["linalg.rank.rational_share"] < 0.5


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result("spectrum_large", 0)["metrics"].items()}
    assert got == wanted
    wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in result("spectrum_large", 1)["metrics"].items()}
    assert got == wanted
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_copy_of_a_traced_name_is_rebound():
    import facevol

    Tracer().install()
    assert facevol.gelfand.rank is facevol.linalg.rank is facevol.rank
    assert hasattr(facevol.linalg.rank, "__wrapped__")
    assert facevol.spectral.build_gram is facevol.gelfand.build_gram
    assert hasattr(facevol.gelfand.build_gram, "__wrapped__")
    assert hasattr(facevol.linalg.RationalMatrix.__matmul__, "__wrapped__")


def test_gate_rejects_wrong_reports():
    import facevol

    report = facevol.verify_single(4, 2, 0)
    text = facevol.serialize_report(report)
    assert report_problems(facevol, report, text, 4, 2) == []
    for tamper in (
        lambda d: d["spectrum"].update(det_m_abs="1"),
        lambda d: d["spectrum"]["eigenvalues"][1].update(multiplicity=3),
        lambda d: d["independence"]["points"].pop(),
        lambda d: d["independence"]["ranks"].__setitem__(0, 9),
        lambda d: d["gelfand"].update(commutative=False),
    ):
        d = json.loads(text)
        tamper(d)
        bad = facevol.parse_report(json.dumps(d))
        assert report_problems(facevol, bad, facevol.serialize_report(bad), 4, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
