"""One benchmark pass in a fresh interpreter.

Imports facevol from the checkout's ``src``, builds the workload's inputs from
the seed, certifies and gates every item, and prints one JSON line:
setup_s (from the parent's spawn time to import done and inputs built),
certify_s, peak_rss_mb, and per report its label, sha256, latency and
problems; with --trace, the per-layer metrics as well. With --setup-only it
stops after set-up.

    python3 perfbench/worker.py --workload ladder --seed 42 --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import facevol as fv

    if not Path(fv.__file__).resolve().is_relative_to(SRC):
        print(f"facevol imported from {fv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    items = workload.inputs(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    reports = []
    start = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            label, text, problems = workload.certify(fv, item)
        except Exception as exc:  # a failed item is counted, never fatal
            label, text, problems = repr(item), "", [f"{type(exc).__name__}: {exc}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        reports.append(
            {
                "label": label,
                "sha256": digest,
                "latency_s": time.perf_counter() - t,
                "problems": problems,
            }
        )
    certify_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "certify_s": certify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": reports,
    }
    if tracer is not None:
        out["trace"] = tracer.metrics(certify_s)
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
