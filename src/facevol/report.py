"""Verification pipeline and bit-exact report serialization.

One report per dimension n: a fixed sequence of exact checks (geometry
sanity, incidence structure, the Jacobian identity, the independence
certificate, Gram/divisor/spectrum certification, determinant consistency,
orbit-algebra checks, and a floating-point derivative cross-check), plus the
certificates themselves and the claim audit. Reports are deterministic given
(n, seed, samples) and serialize to canonical JSON (rationals as ``p/q``
strings) or a markdown summary.

Claim-audit mismatches never fail a run; only internal identity violations do.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import comb
from time import perf_counter
from typing import Any, Callable, get_args, get_origin, get_type_hints

from . import __version__
from .claims import ClaimRecord
from .exceptions import IntegrityError, one_slot_memo
from .gelfand import GelfandReport, commutativity_defect, gelfand_report
from .geometry import EdgeLengthAssignment, squared_volume, unit_regular_squared_volume
from .jacobian import (
    IndependenceCertificate,
    fd_crosscheck,
    independence_certificate,
    regular_jacobian,
    scaled_jacobian_at_regular,
)
from .linalg import format_rational, parse_rational
from .spectral import (
    SpectrumCertificate,
    _first_deviation,
    build_gram,
    det_incidence,
    divisor_divides,
    divisor_matrix,
    divisor_quotient,
    divisor_spectrum,
    full_spectrum,
    spectrum_summary,
)
from .subsets import build_incidence_matrix, subsets_colex

log = logging.getLogger("facevol")

FD_STEP = 1e-4
# Bound on the FD deviation relative to the largest exact derivative.
FD_TOLERANCE = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    details: str

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"unknown check status {self.status!r}")


@dataclass(frozen=True)
class VerificationReport:
    n: int
    seed: int
    samples: int
    tool_version: str
    checks: tuple[CheckResult, ...]
    spectrum: SpectrumCertificate | None
    independence: IndependenceCertificate | None
    gelfand: GelfandReport | None

    @property
    def overall_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def discrepancies(self) -> tuple[ClaimRecord, ...]:
        out: tuple[ClaimRecord, ...] = ()
        if self.spectrum is not None:
            out += self.spectrum.discrepancies
        if self.gelfand is not None:
            out += self.gelfand.discrepancies
        return out


# Each check reads the report's fields (n, samples, seed, ...) from one dict,
# stores the certificate it produces there, and returns (ok, details); failing
# details name the identity that broke, n and the first offending value. Any
# exception it raises is recorded as a failure of that check: an
# IntegrityError by its message, any other as "<TypeName>: <message>".
# Every artefact that depends on n alone, these checks included, is a one-slot
# memo that keeps an error like a result: one attempt per n, one error for all.


@one_slot_memo
def _geometry_sanity(n: int) -> tuple[bool, str]:
    regular = EdgeLengthAssignment.regular(n)
    edge = next((e for e, v in regular.squared_lengths.items() if v != 1), None)
    if edge is not None:
        v = format_rational(regular.squared_lengths[edge])
        return False, f"edge {edge} has squared length {v}, not 1, at n={n}"
    # With every squared length 1, all codim-2 faces share one Cayley-Menger
    # matrix, so the first face's determinant gives every face's volume.
    faces = subsets_colex(n + 1, n - 1)
    f2, v = unit_regular_squared_volume(n - 2), squared_volume(regular, faces[0])
    if v != f2:
        return False, (
            f"codim-2 face {faces[0]} has squared volume {format_rational(v)}, "
            f"not {format_rational(f2)}, at n={n}"
        )
    return True, f"all {len(faces)} codim-2 squared volumes equal {format_rational(f2)}"


@one_slot_memo
def _incidence_structure(n: int) -> tuple[bool, str]:
    m = build_incidence_matrix(n)
    deg = comb(n - 1, 2)
    # In lowest terms an entry is 0 or 1 exactly when its numerator is 0 or den,
    # and then den is 1.
    nonbinary = (
        (i, j) for i, row in enumerate(m.num) for j, x in enumerate(row) if x not in (0, m.den)
    )
    bad = next(nonbinary, None)
    if bad is not None:
        return False, f"incidence entry {bad} is {format_rational(m[bad])}, not 0 or 1, at n={n}"
    for line, lines in (("row", m.num), ("column", zip(*m.num))):
        sums = list(map(sum, lines))
        k = next((k for k, total in enumerate(sums) if total != deg), None)
        if k is not None:
            return False, f"incidence {line} {k} sums to {sums[k]}, not {deg}, at n={n}"
    return True, f"side {m.nrows}, row and column sums {deg}"


def _jacobian_identity(r: dict) -> tuple[bool, str]:
    scaled_jacobian_at_regular(r["n"])  # raises, naming the first wrong entry
    return True, "scaled Jacobian at the regular point equals the incidence matrix"


def _independence(r: dict) -> tuple[bool, str]:
    cert = r["independence"] = independence_certificate(r["n"], r["samples"], r["seed"])
    details = f"ranks [{', '.join(map(str, cert.ranks))}] of {cert.full_rank}"
    if cert.verdict:
        return True, details
    return False, f"no Jacobian has full rank at n={r['n']}: {details}"


def _gram_consistency(r: dict) -> tuple[bool, str]:
    gram = build_gram(r["n"])  # raises if the two constructions disagree
    if gram.is_symmetric():
        return True, f"side {gram.nrows}, both constructions agree"
    where = _first_deviation(gram, gram.transpose())
    return False, f"Gram matrix is not symmetric at n={r['n']}: {where}"


def _equitable(r: dict) -> tuple[bool, str]:
    n = r["n"]
    dq = divisor_quotient(n)
    if dq.equitable:
        return True, "stabilizer orbit partition is equitable"
    # Name the first face whose weights into the cells, its column of W,
    # differ from those of its cell's first face.
    w, cells = dq.weights, dq.partition
    weights = [", ".join(format_rational(w[c, v]) for c in range(w.nrows)) for v in range(w.ncols)]
    v, u = next((v, c[0]) for c in cells for v in c if weights[v] != weights[c[0]])
    return False, (
        f"stabilizer orbit partition is not equitable at n={n}: face {v} has cell "
        f"weights ({weights[v]}), face {u} of its cell has ({weights[u]})"
    )


def _divisor_closed(r: dict) -> tuple[bool, str]:
    divisor_matrix(r["n"])  # raises on any deviation from the closed form
    return True, "orbit quotient matches the closed-form entries"


def _divides(r: dict) -> tuple[bool, str]:
    n = r["n"]
    if divisor_divides(n):
        return True, "divisor char poly divides Gram char poly"
    multiplicity = {w.value: w.multiplicity for w in full_spectrum(n).eigenvalues}
    lams = ", ".join(f"{lam}:{multiplicity.get(lam, 0)}" for _, lam in divisor_spectrum(n))
    return False, (
        f"divisor char poly does not divide Gram char poly at n={n}: "
        f"Gram multiplicities of the divisor eigenvalues {lams}"
    )


def _spectrum(r: dict) -> tuple[bool, str]:
    spectrum = r["spectrum"] = full_spectrum(r["n"])
    return True, spectrum_summary(spectrum)


def _determinant(r: dict) -> tuple[bool, str]:
    # det G = (det M)^2 follows from G = M M^T, which build_gram proves; the
    # spectrum certificate compares it with the product of the eigenvalues.
    det_m = det_incidence(r["n"])
    if det_m == 0:
        return False, f"incidence matrix is singular at n={r['n']}: |det M| = 0"
    return True, f"|det M| = {format_rational(abs(det_m))}"


def _commutativity(r: dict) -> tuple[bool, str]:
    n = r["n"]
    g = r["gelfand"] = gelfand_report(n)  # the first of the gelfand checks
    if not g.commutative:
        defect = commutativity_defect(n)
        return False, f"class indicator matrices do not commute at n={n}: {defect}"
    return True, "class indicator matrices commute"


def _eigenspace_structure(r: dict) -> tuple[bool, str]:
    n = r["n"]
    g = gelfand_report(n)
    dims, size = list(g.eigenspace_dims), comb(n + 1, 2)
    if g.distinct_eigenvalues == 3 and sum(dims) == size:
        return True, f"3 eigenspaces of dimensions {dims}"
    return False, (
        f"not 3 eigenspaces of total dimension {size} at n={n}: "
        f"{g.distinct_eigenvalues} distinct eigenvalues, dimensions {dims} sum to {sum(dims)}"
    )


def _eigenvector_matching(r: dict) -> tuple[bool, str]:
    gelfand_report(r["n"])  # raises unless every lift is an exact eigenvector
    return True, "all divisor eigenvectors lift exactly"


@one_slot_memo
def _fd(n: int) -> tuple[bool, str]:
    regular = EdgeLengthAssignment.regular(n)
    dev, largest = fd_crosscheck(regular, regular_jacobian(n), FD_STEP)
    details, bound = f"max deviation {dev:.3e} at step {FD_STEP:g}", FD_TOLERANCE * largest
    if dev <= bound:
        return True, details
    return False, f"FD cross-check failed at n={n}: {details} exceeds the bound {bound:.3e}"


# (name, min_n, check), in report order; every n reports every row.
CHECKS: tuple[tuple[str, int, Callable[[dict], tuple[bool, str]]], ...] = (
    ("geometry_sanity", 3, lambda r: _geometry_sanity(r["n"])),
    ("incidence_structure", 3, lambda r: _incidence_structure(r["n"])),
    ("jacobian_identity", 3, _jacobian_identity),
    ("independence_certificate", 3, _independence),
    ("gram_consistency", 3, _gram_consistency),
    ("orbit_partition_equitable", 4, _equitable),
    ("divisor_closed_form", 4, _divisor_closed),
    ("divisor_char_poly_divides", 4, _divides),
    ("spectrum_certificate", 3, _spectrum),
    ("incidence_determinant", 3, _determinant),
    ("orbital_commutativity", 4, _commutativity),
    ("eigenspace_structure", 4, _eigenspace_structure),
    ("eigenvector_matching", 4, _eigenvector_matching),
    ("fd_crosscheck", 3, lambda r: _fd(r["n"])),
)


def verify_single(n: int, samples: int = 3, seed: int = 42) -> VerificationReport:
    """Run every check for one dimension. Deterministic given (n, seed,
    samples); claim mismatches are recorded but do not fail."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    r = dict(
        n=n,
        seed=seed,
        samples=samples,
        tool_version=__version__,
        spectrum=None,
        independence=None,
        gelfand=None,
    )
    checks = []
    for name, min_n, check in CHECKS:
        if n < min_n:
            checks.append(CheckResult(name, "skip", f"defined for n >= {min_n}"))
            continue
        start = perf_counter()
        try:
            ok, details = check(r)
        except IntegrityError as exc:
            checks.append(CheckResult(name, "fail", str(exc)))
        except Exception as exc:  # a fault in one check must not stop the rest
            log.exception("n=%d %s raised", n, name)
            checks.append(CheckResult(name, "fail", f"{type(exc).__name__}: {exc}"))
        else:
            checks.append(CheckResult(name, "pass" if ok else "fail", details))
        log.info("n=%d %s: %s in %.3f s", n, name, checks[-1].status, perf_counter() - start)
    return VerificationReport(checks=tuple(checks), **r)


def run_verification(
    n_values: tuple[int, ...], samples: int = 3, seed: int = 42, jobs: int = 1
) -> list[VerificationReport]:
    """One report per requested n; parallel over n when jobs > 1. Output is
    independent of the parallelism degree."""
    args = (n_values, repeat(samples), repeat(seed))
    if jobs > 1 and len(n_values) > 1:
        # imported only here: loading it costs every run some 15 ms otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(n_values))) as pool:
            return list(pool.map(verify_single, *args))
    return list(map(verify_single, *args))


# The JSON codec. The dataclasses are the schema: a dataclass is an object
# with one key per field in field order (``metadata["json"]`` renames a key),
# a Fraction is a "p/q" string, a tuple is a list, and a map keyed by vertex
# tuples (the edge lengths) has "i,j" keys. A report adds two derived keys,
# overall_pass just before the checks and the report-wide discrepancies last;
# parse_report takes both out before it reads the report's fields, and
# requires them to equal what that report derives.
#
# Each schema type is compiled once into a writer and a reader. A writer emits
# the layout of ``json.dumps(indent=2)``, which itself would fall back to the
# pure-Python encoder, and escapes strings with the C escaper. A reader takes
# what ``json.loads`` returns, checks the JSON type of every leaf (a rational
# must be a string) and makes one Fraction per distinct rational string of
# the document it reads. It accepts rationals, map keys and object keys only
# as a writer writes them; whitespace between tokens is free.

Writer = Callable[[Any, str], str]  # (value, indent of its first line) -> JSON
Reader = Callable[[Any, dict], Any]  # (JSON value, rationals read so far) -> value


def _fields(cls: type) -> list[tuple[str, str, Any]]:
    # (attribute, JSON key, type) per field, in field order
    hints = get_type_hints(cls)
    return [(f.name, f.metadata.get("json", f.name), hints[f.name]) for f in fields(cls)]


def _json_items(items: list[str], indent: str, brackets: str) -> str:
    # items are already written at indent + 2 spaces
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


_LEAF_WRITERS: dict[Any, Writer] = {
    bool: lambda value, indent: "true" if value else "false",
    int: lambda value, indent: int.__repr__(value),
    str: lambda value, indent: encode_basestring_ascii(value),
    Fraction: lambda value, indent: f'"{format_rational(value)}"',
}


@cache  # one entry per schema type
def _writer(tp: Any) -> Writer:
    if tp in _LEAF_WRITERS:
        return _LEAF_WRITERS[tp]
    args = get_args(tp)
    if type(None) in args:  # X | None
        inner = _writer(args[0])
        return lambda value, indent: "null" if value is None else inner(value, indent)
    if get_origin(tp) is tuple:  # every tuple in the schema is homogeneous
        item = _writer(args[0])

        def write_list(value: Any, indent: str) -> str:
            deeper = indent + "  "
            return _json_items([item(v, deeper) for v in value], indent, "[]")

        return write_list
    if get_origin(tp) is Mapping:  # also the origin of typing.Mapping
        item = _writer(args[1])

        def write_map(value: Any, indent: str) -> str:
            deeper = indent + "  "
            items = [f'"{",".join(map(str, k))}": {item(v, deeper)}' for k, v in value.items()]
            return _json_items(items, indent, "{}")

        return write_map
    members = _fields(tp)
    if tp is VerificationReport:
        at = [attr for attr, _, _ in members].index("checks")
        members.insert(at, ("overall_pass", "overall_pass", bool))
        members.append(("discrepancies", "discrepancies", tuple[ClaimRecord, ...]))
    keyed = [(encode_basestring_ascii(key) + ": ", attr, _writer(t)) for attr, key, t in members]

    def write_object(value: Any, indent: str) -> str:
        deeper = indent + "  "
        items = [key + write(getattr(value, attr), deeper) for key, attr, write in keyed]
        return _json_items(items, indent, "{}")

    return write_object


def _expect(tp: type, value: Any) -> Any:
    if type(value) is not tp:
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    return value


def _read_rational(value: Any, rationals: dict) -> Fraction:
    q = rationals.get(_expect(str, value))
    if q is None:
        q = rationals[value] = parse_rational(value)
    return q


def _read_key(key: str) -> tuple[int, ...]:
    vertices = tuple(map(int, key.split(",")))
    if ",".join(map(str, vertices)) != key:
        raise ValueError(f"map key {key!r} is not written as the writer writes it")
    return vertices


@cache  # one entry per schema type
def _reader(tp: Any) -> Reader:
    if tp is Fraction:
        return _read_rational
    if tp in (int, str, bool):
        return lambda value, rationals: _expect(tp, value)
    args = get_args(tp)
    if type(None) in args:  # X | None
        inner = _reader(args[0])
        return lambda value, rationals: None if value is None else inner(value, rationals)
    if get_origin(tp) is tuple:
        item = _reader(args[0])
        return lambda value, rationals: tuple([item(v, rationals) for v in _expect(list, value)])
    if get_origin(tp) is Mapping:
        item = _reader(args[1])
        return lambda value, rationals: {_read_key(k): item(v, rationals) for k, v in value.items()}
    members = {key: (attr, _reader(t)) for attr, key, t in _fields(tp)}

    def read_object(value: Any, rationals: dict) -> Any:
        if not value.keys() <= members.keys():
            unknown = min(value.keys() - members.keys())
            raise ValueError(f"unknown key {unknown!r} in {tp.__name__}")
        return tp(**{attr: read(value[key], rationals) for key, (attr, read) in members.items()})

    return read_object


def _md_cell(text: str) -> str:
    return text.replace("|", "\\|")


def _markdown(r: VerificationReport) -> str:
    lines = [
        f"# Verification report: n = {r.n}",
        "",
        f"- tool version: {r.tool_version}",
        f"- seed: {r.seed}, samples: {r.samples}",
        f"- overall: {'PASS' if r.overall_pass else 'FAIL'}",
        "",
        "## Checks",
        "",
        "| check | status | details |",
        "| --- | --- | --- |",
    ]
    for c in r.checks:
        lines.append(f"| {c.name} | {c.status} | {_md_cell(c.details)} |")
    if r.spectrum is not None:
        lines += [
            "",
            "## Certified spectrum",
            "",
            "| eigenvalue | multiplicity | rank witness |",
            "| --- | --- | --- |",
        ]
        for w in r.spectrum.eigenvalues:
            lines.append(
                f"| {format_rational(w.value)} | {w.multiplicity} | {w.rank_witness} |"
            )
        lines.append("")
        lines.append(f"- |det M| = {format_rational(r.spectrum.det_m_abs)}")
        squares = ", ".join(
            f"{format_rational(s.square)}:{s.multiplicity}"
            for s in r.spectrum.singular_values
        )
        lines.append(f"- singular value squares: {squares}")
    if r.independence is not None:
        ranks = ", ".join(str(x) for x in r.independence.ranks)
        lines += [
            "",
            "## Independence certificate",
            "",
            f"- full rank target: {r.independence.full_rank}",
            f"- ranks: {ranks}",
            f"- verdict: {'certified' if r.independence.verdict else 'NOT certified'}",
            "- scaling constant squared: "
            + format_rational(r.independence.scaling_constant_squared),
        ]
    discrepancies = r.discrepancies
    if discrepancies:
        lines += [
            "",
            "## Claim audit",
            "",
            "| quantity | claimed | computed | match |",
            "| --- | --- | --- | --- |",
        ]
        for c in discrepancies:
            lines.append(
                f"| {_md_cell(c.claim)} | {c.claimed} | {c.computed} | "
                f"{'yes' if c.matches else 'no'} |"
            )
    lines.append("")
    return "\n".join(lines)


def serialize_report(r: VerificationReport, fmt: str = "json") -> str:
    """Canonical rendering of one report; JSON round-trips losslessly."""
    if fmt == "json":
        return _writer(VerificationReport)(r, "") + "\n"
    if fmt == "markdown":
        return _markdown(r)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_reports(reports: list[VerificationReport], fmt: str = "json") -> str:
    """One document for several reports (JSON array / concatenated markdown)."""
    if fmt == "json":
        return _writer(tuple[VerificationReport, ...])(reports, "") + "\n"
    if fmt == "markdown":
        return "\n".join(_markdown(r) for r in reports)
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(text: str) -> VerificationReport:
    """Inverse of serialize_report(..., "json"). Raises ValueError on
    malformed input."""
    try:
        doc, rationals = json.loads(text), {}
        overall_pass = _expect(bool, doc.pop("overall_pass"))
        discrepancies = _reader(tuple[ClaimRecord, ...])(doc.pop("discrepancies"), rationals)
        report = _reader(VerificationReport)(doc, rationals)
        if (overall_pass, discrepancies) != (report.overall_pass, report.discrepancies):
            raise ValueError("overall_pass or discrepancies differs from what the report derives")
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    return report
