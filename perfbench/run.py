"""facevol benchmark: cold time-to-certificate, end to end and per layer.

    python3 perfbench/run.py --workload ladder --seed 42 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (perfbench/worker.py), as each
``verify`` invocation does, so facevol's module caches start cold. Passes
repeat, one process at a time, until --seconds would be exceeded, with at
least two untraced passes so that each report's sha256 can be compared
between passes of the same seed. --trace 1 alternates an untraced and a
traced pass instead and reports the per-layer metrics; the untraced pass
gives the base of trace.overhead_ratio. Before each round, set-up is also
measured in SETUP_PROBES interpreters that stop after set-up, so that its
median is taken over many interpreters spread across the run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An item fails when its certificate misses a
closed form, raises, or differs byte for byte from the first pass; any
failure exits 1. A pass that cannot run at all (facevol missing, a crash, the
deadline) exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
DEADLINE_S = 170.0


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("deadline reached before the pass started")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += [*flags, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass exceeded the {DEADLINE_S:g} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".repeat_calls")):
        return "count"
    if name.endswith(".ops"):
        return "computed_ops"
    if name.endswith(".side_max"):
        return "side"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "s"


def check_reports(passes: list[dict]) -> tuple[int, int]:
    """Attempted and failed items over all passes; prints each failure."""
    reference = {r["label"]: r["sha256"] for r in passes[0]["reports"]}
    attempted = failed = 0
    for p in passes:
        for r in p["reports"]:
            attempted += 1
            problems = list(r["problems"])
            if r["sha256"] != reference.get(r["label"]):
                problems.append("sha256 differs from the first pass")
            if problems:
                failed += 1
                print(f"FAIL {r['label']}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for _ in range(SETUP_PROBES):
                probe = run_pass(args.workload, args.seed, ["--setup-only"], deadline)
                setups.append(probe["setup_s"])
            untraced.append(run_pass(args.workload, args.seed, [], deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, ["--trace"], deadline))
            now = time.monotonic()
            next_end = now + (now - round_start)
            if len(untraced) >= (1 if args.trace else 2) and (
                next_end - start > args.seconds or next_end > deadline
            ):
                break
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = check_reports(untraced + traced)
    latencies = [r["latency_s"] for p in untraced for r in p["reports"]]
    end_to_end = {
        "certify_s": (statistics.median(p["certify_s"] for p in untraced), "s"),
        "setup_s": (
            statistics.median(setups + [p["setup_s"] for p in untraced + traced]),
            "s",
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    # Printed but not gated: only sample_sweep has enough equal-sized reports
    # per pass for steady percentiles.
    ungated = {
        "fail_ratio": (failed / attempted, "ratio"),
        "report_p50_s": (percentile(latencies, 50), "s"),
        "report_p90_s": (percentile(latencies, 90), "s"),
    }
    above_p90 = sum(x > ungated["report_p90_s"][0] for x in latencies)
    print(
        f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes, {len(setups)} set-up probes; "
        f"{failed} of {attempted} items failed; "
        f"{len(latencies)} report latencies, {above_p90} above p90"
    )
    for name, (value, unit) in {**end_to_end, **ungated}.items():
        print(f"{name} {value:.6g} {unit}")

    if args.trace:
        per_layer = {
            key: (statistics.median(p["trace"][key] for p in traced), layer_unit(key))
            for key in traced[0]["trace"]
        }
        per_layer["trace.overhead_ratio"] = (
            per_layer["trace.certify_s"][0] / end_to_end["certify_s"][0],
            "ratio",
        )
        for name in traced[0]["absent"]:
            print(f"absent at this commit: {name}")
        for name, (value, unit) in per_layer.items():
            print(f"{name} {value:.6g} {unit}")
        metrics = per_layer
    else:
        metrics = end_to_end

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
