"""The benchmark's workloads and the output gate each result must pass.

A workload turns the seed into a list of items; ``certify`` turns one item into
(label, canonical text, problems) using facevol's public API only. ``problems``
lists every way the result disagrees with the closed forms; an empty list
means the certificate is correct. Nothing here touches facevol's caches: cold
state comes from running each pass in a fresh interpreter.
"""

from __future__ import annotations

import json
from math import comb
from typing import Callable, NamedTuple

SAMPLES = 3
LADDER_NS = range(4, 10)
SWEEP_N = 5
SWEEP_REPORTS = 100
SPECTRUM_N = 11


def expected_spectrum(n: int) -> dict[str, int]:
    """Gram eigenvalue -> multiplicity: C(n-1,2)^2, (n-2)^2 and 1."""
    return {
        str(comb(n - 1, 2) ** 2): 1,
        str((n - 2) ** 2): n,
        "1": (n + 1) * (n - 2) // 2,
    }


def expected_det_abs(n: int) -> int:
    return comb(n - 1, 2) * (n - 2) ** n


def report_problems(fv, report, text: str, n: int, samples: int) -> list[str]:
    """Closed-form gate for one verify_single report and its JSON text."""
    d = json.loads(text)
    side = comb(n + 1, 2)
    problems = []
    spectrum = {e["value"]: e["multiplicity"] for e in d["spectrum"]["eigenvalues"]}
    if spectrum != expected_spectrum(n):
        problems.append(f"spectrum {spectrum}")
    if d["spectrum"]["det_m_abs"] != str(expected_det_abs(n)):
        problems.append(f"|det M| {d['spectrum']['det_m_abs']}")
    ranks = d["independence"]["ranks"]
    if any(r != side for r in ranks) or d["independence"]["full_rank"] != side:
        problems.append(f"ranks {ranks} of {side}")
    if len(d["independence"]["points"]) != samples + 1:
        problems.append(f"{len(d['independence']['points'])} points for {samples} samples")
    if d["gelfand"]["commutative"] is not True:
        problems.append("orbital matrices do not commute")
    if d["overall_pass"] is not True:
        failed = [c["name"] for c in d["checks"] if c["status"] != "pass"]
        problems.append(f"checks not passed: {failed}")
    if fv.parse_report(text) != report:
        problems.append("parse_report(serialize_report(r)) != r")
    return problems


def _certify_report(fv, item: tuple[int, int, int]):
    n, samples, seed = item
    report = fv.verify_single(n, samples, seed)
    text = fv.serialize_report(report)
    return f"n={n} seed={seed}", text, report_problems(fv, report, text, n, samples)


def _certify_spectrum(fv, n: int):
    """Integer-matrix artefacts at one side, no Jacobian: each checked
    against its closed form."""
    problems = []
    side = comb(n + 1, 2)
    deg = comb(n - 1, 2)
    m = fv.build_incidence_matrix(n)
    if m.nrows != side or any(sum(row) != deg for row in m.rows):
        problems.append("incidence matrix shape or row sums")
    gram = fv.build_gram(n)
    if not gram.is_symmetric() or gram.trace() != side * deg:
        problems.append("Gram matrix not symmetric or wrong trace")
    divisor = fv.divisor_matrix(n)
    eigs = (deg**2, (n - 2) ** 2, 1)
    if any(sum(row) != eigs[0] for row in divisor.rows) or divisor.trace() != sum(eigs):
        problems.append("divisor row sums or trace")
    if fv.divisor_divides(n) is not True:
        problems.append("divisor char poly does not divide the Gram char poly")
    spectrum = fv.full_spectrum(n)
    values = {fv.format_rational(w.value): w.multiplicity for w in spectrum.eigenvalues}
    if values != expected_spectrum(n):
        problems.append(f"spectrum {values}")
    det_m = fv.det_incidence(n)
    if abs(det_m) != expected_det_abs(n) or spectrum.det_m_abs != abs(det_m):
        problems.append(f"det M {det_m}")
    gelfand = fv.gelfand_report(n)
    dims = sorted(expected_spectrum(n).values())
    if not gelfand.commutative or list(gelfand.eigenspace_dims) != dims:
        problems.append(f"gelfand commutative={gelfand.commutative} dims={gelfand.eigenspace_dims}")
    text = json.dumps(
        {
            "n": n,
            "spectrum": values,
            "det_m": fv.format_rational(det_m),
            "divisor": [[fv.format_rational(x) for x in row] for row in divisor.rows],
            "eigenspace_dims": list(gelfand.eigenspace_dims),
            "matches": [
                [fv.format_rational(x) for x in match.vector] for match in gelfand.matches
            ],
        },
        sort_keys=True,
    )
    return f"n={n}", text, problems


class Workload(NamedTuple):
    name: str
    inputs: Callable[[int], list]  # seed -> items
    certify: Callable  # (facevol, item) -> (label, text, problems)


WORKLOADS = {
    w.name: w
    for w in (
        # verify --n-range 4:9: every module runs; caches are reused only within one n.
        Workload(
            "ladder",
            lambda seed: [(n, SAMPLES, seed) for n in LADDER_NS],
            _certify_report,
        ),
        # Integer matrices at the largest side; jacobian and geometry do no work.
        Workload("spectrum_large", lambda seed: [SPECTRUM_N], _certify_spectrum),
        # Many small rational Jacobians; spectral artefacts requested again each report.
        Workload(
            "sample_sweep",
            lambda seed: [(SWEEP_N, SAMPLES, seed + i) for i in range(SWEEP_REPORTS)],
            _certify_report,
        ),
    )
}
