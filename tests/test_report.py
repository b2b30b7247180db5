import json
import logging
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import facevol.gelfand as gelfand_mod
import facevol.geometry as geometry_mod
import facevol.jacobian as jacobian_mod
import facevol.linalg as linalg_mod
import facevol.report as report_mod
import facevol.spectral as spectral_mod
from facevol.cli import main
from facevol.exceptions import IntegrityError, one_slot_memo
from facevol.gelfand import check_commutative, commutativity_defect, match_eigenvectors
from facevol.geometry import (
    EdgeLengthAssignment,
    simplex_det_adjugate,
    squared_volume,
)
from facevol.jacobian import (
    fd_crosscheck,
    independence_certificate,
    jacobian_squared_map,
    scaled_jacobian_at_regular,
)
from facevol.linalg import (
    _PRIME,
    RationalMatrix,
    char_poly,
    det_adjugate,
    det_fraction_free,
    det_mod_p,
    rank,
)
from facevol.report import (
    CheckResult,
    parse_report,
    run_verification,
    serialize_report,
    serialize_reports,
    verify_single,
)
from facevol.spectral import (
    build_gram,
    check_equitable,
    divisor_eigenpairs,
    divisor_matrix,
    divisor_quotient,
    divisor_spectrum,
    full_spectrum,
)
from facevol.subsets import build_incidence_matrix, intersection_classes

from oracles import (
    dense,
    level_set,
    serialize_report_by_json_dumps,
    serialize_reports_by_json_dumps,
    with_squared,
)


@pytest.fixture(scope="module")
def report_n4():
    return verify_single(4, samples=3, seed=42)


GELFAND_CHECKS = ("orbital_commutativity", "eigenspace_structure", "eigenvector_matching")
# The checks that read the divisor's proved spectrum, those that read the
# Gram spectrum certificate, and those that read the spectrum proof of K, the
# determinant of M among them.
DIVISOR_READERS = ("divisor_char_poly_divides", *GELFAND_CHECKS)
SPECTRUM_READERS = ("divisor_char_poly_divides", "spectrum_certificate", *GELFAND_CHECKS)
KNESER_READERS = (*SPECTRUM_READERS, "incidence_determinant")


# Faults for single stages. Each returns every check it must fail, and the
# one message all of them must give.


def flip_reversed_rank(monkeypatch):
    jac = jacobian_squared_map(EdgeLengthAssignment.regular(5))
    flipped = RationalMatrix([row[::-1] for row in jac.rows[::-1]])
    monkeypatch.setattr(jacobian_mod, "rank", lambda m: rank(m) + (m == flipped))
    return (
        ("independence_certificate",),
        "rank witness failed re-verification at the regular point, n=5: rank 15, reversed 16",
    )


def perturb_divisor_closed_form(monkeypatch):
    rows = [list(row) for row in spectral_mod.divisor_closed_form(5).rows]
    rows[0][1] += 1
    monkeypatch.setattr(spectral_mod, "divisor_closed_form", lambda n: RationalMatrix(rows))
    return (
        ("divisor_closed_form", *DIVISOR_READERS),
        "divisor quotient deviates from closed form at n=5: entry (0, 1) is 24, expected 25",
    )


def _replaced_divisor_pair(monkeypatch, which, pair):
    """Serve divisor eigenpairs at n = 5 whose pair `which` is replaced."""
    pairs = list(divisor_eigenpairs(5))
    pairs[which] = pair
    monkeypatch.setattr(spectral_mod, "divisor_eigenpairs", lambda n: tuple(pairs))


def wrong_divisor_eigenvector(monkeypatch):
    # The eigenvalues stay those of char D, so only the lifts, the one proof
    # of the divisor's eigenvectors, catch the wrong vector.
    (x, y, z), lam = divisor_eigenpairs(5)[1]
    _replaced_divisor_pair(monkeypatch, 1, ((x, -y, z), lam))
    return GELFAND_CHECKS, "lifted eigenvector failed for 9 at n=5"


def repeated_divisor_eigenvalue(monkeypatch):
    _replaced_divisor_pair(monkeypatch, 1, divisor_eigenpairs(5)[2])
    return (
        DIVISOR_READERS,
        "divisor eigenvalues 36, 1, 1 are not the distinct roots of char D at n=5: "
        "char D is (-324, 369, -46, 1), prod (x - lam) is (-36, 73, -38, 1)",
    )


def zero_divisor_eigenvector(monkeypatch):
    # 36, 9, 2 are distinct, and char D refuses them before any lift is made.
    _replaced_divisor_pair(monkeypatch, 2, ((Fraction(0),) * 3, Fraction(2)))
    return (
        DIVISOR_READERS,
        "divisor eigenvalues 36, 9, 2 are not the distinct roots of char D at n=5: "
        "char D is (-324, 369, -46, 1), prod (x - lam) is (-648, 414, -47, 1)",
    )


def zero_unit_eigenvector(monkeypatch):
    # X G = diag(lam) X holds on the zero row, 36, 9, 1 are distinct and char D
    # is prod (x - lam): only the rank of the lifts sees the zero vector.
    _replaced_divisor_pair(monkeypatch, 2, ((Fraction(0),) * 3, Fraction(1)))
    return GELFAND_CHECKS, "lifted eigenvectors are dependent at n=5: rank 2 of 3"


def misclassify_one_pair(monkeypatch):
    table = [list(row) for row in intersection_classes(5)]
    table[0][1] += 1
    monkeypatch.setattr(spectral_mod, "intersection_classes", lambda n: table)
    return (
        ("gram_consistency", "orbit_partition_equitable", "divisor_closed_form", *SPECTRUM_READERS),
        "M M^T breaks the intersection-class rule at n=5: entry (0, 1) is 3, expected 6",
    )


def reject_regular_adjugate(monkeypatch):
    # Chain minor 3 of the regular point (-det CM{1,2,3} = 3) read with the
    # wrong sign: the Jacobian refuses the point, while geometry sanity's
    # Bareiss face volume stays right.
    eliminate = geometry_mod.det_adjugate

    def flipped(m):
        minors, adj = eliminate(m)
        return minors[:3] + (-minors[3],) + minors[4:], adj

    monkeypatch.setattr(geometry_mod, "det_adjugate", flipped)
    return (
        ("jacobian_identity", "independence_certificate", "fd_crosscheck"),
        "ValueError: degenerate edge-length assignment at n=5: minor 3 is -3",
    )


def wrong_face_volume(monkeypatch):
    # Only geometry sanity reads an exact face volume, of the first face; the
    # Jacobian and the FD cross-check take theirs from the whole simplex's
    # adjugate.
    exact = report_mod.squared_volume

    def doubled(E, face):
        return exact(E, face) * (2 if tuple(face) == (1, 2, 3, 4) else 1)

    monkeypatch.setattr(report_mod, "squared_volume", doubled)
    return (
        ("geometry_sanity",),
        "codim-2 face (1, 2, 3, 4) has squared volume 1/36, not 1/72, at n=5",
    )


def _faulted_table(monkeypatch, entries, defect):
    """Serve the commutativity proof, and it alone, the class table at n = 5
    with the given entries replaced."""
    table = [list(row) for row in intersection_classes(5)]
    for (i, j), k in entries.items():
        table[i][j] = k
    monkeypatch.setattr(gelfand_mod, "intersection_classes", lambda n: table)
    return ("orbital_commutativity",), f"class indicator matrices do not commute at n=5: {defect}"


def asymmetric_a2(monkeypatch):
    # Entry (0, 1) moves from A1 to A2 on one side only.
    defect = "class table is not symmetric: entry (0, 1) is 2, expected 3"
    return _faulted_table(monkeypatch, {(0, 1): 2}, defect)


def off_diagonal_identity(monkeypatch):
    # Faces 0 and 1 read as equal on both sides: the table stays symmetric,
    # and its classes no longer partition the face pairs.
    defect = "I + A1 + A2 is not J: entry (0, 1) is 4, expected 3 or 2"
    return _faulted_table(monkeypatch, {(0, 1): 4, (1, 0): 4}, defect)


def noncommuting_a2(monkeypatch):
    # Rows 0 and 1 swap their classes in column 6, and column 6 swaps them in
    # rows 0 and 1: the table stays symmetric and partitioned, but rows 0 and 1
    # hold 7 and 9 entries n-2, so A1 is not regular and A1 A2 != A2 A1.
    defect = "A1 is not regular: row 0 sums to 7, expected 8"
    return _faulted_table(monkeypatch, {(0, 6): 2, (6, 0): 2, (1, 6): 3, (6, 1): 3}, defect)


def wrong_lifted_eigenvector(monkeypatch):
    # The lifts read the divisor's eigenpairs through their own binding, so
    # the divisor's proof and the divisibility check still pass.
    pairs = list(divisor_eigenpairs(5))
    (x, y, z), lam = pairs[1]
    pairs[1] = (x, -y, z), lam
    monkeypatch.setattr(gelfand_mod, "divisor_spectrum", lambda n: tuple(pairs))
    return GELFAND_CHECKS, "lifted eigenvector failed for 9 at n=5"


def family_matrix(n, which):
    """The dense integer rows of one eigenvector family of the Gram matrix."""
    size = build_gram(n).nrows
    return RationalMatrix([dense(x, size) for x in spectral_mod.eigenbasis(n)[which][1]])


def _tampered_eigenbasis(monkeypatch, which, tamper):
    """Serve eigenvector families at n = 5 whose family `which` is tampered
    with."""
    families = [list(f) for f in spectral_mod.eigenbasis(5)]
    families[which][1] = tamper(list(families[which][1]))
    monkeypatch.setattr(spectral_mod, "eigenbasis", lambda n: families)


def wrong_basis_vector(monkeypatch):
    def tamper(vectors):
        (j, c), *rest = vectors[2]
        vectors[2] = ((j, -c), *rest)
        return vectors

    _tampered_eigenbasis(monkeypatch, 1, tamper)
    return KNESER_READERS, "basis vector 2 is not an eigenvector of K for -3 at n=5"


def dependent_family(monkeypatch):
    _tampered_eigenbasis(monkeypatch, 2, lambda vectors: vectors[:-1] + vectors[:1])
    return KNESER_READERS, "eigenvectors of K for 1 are dependent at n=5: rank 8 of 9"


def short_count(monkeypatch):
    _tampered_eigenbasis(monkeypatch, 2, lambda vectors: vectors[:-1])
    return KNESER_READERS, "multiplicities of K sum to 14, not 15, at n=5"


def asymmetric_kneser(monkeypatch):
    # Faces 0 and 1 miss the pairs {5, 6} and {4, 6}, which meet: K[0, 1] is
    # 0, and it is read as 1 on one side only.
    num = [list(row) for row in spectral_mod.kneser_matrix(5).num]
    num[0][1] = 1
    asymmetric = RationalMatrix._from_ints(num, 1)
    monkeypatch.setattr(spectral_mod, "kneser_matrix", lambda n: asymmetric)
    return KNESER_READERS, "K = M R is not symmetric at n=5: entry (0, 1) is 1, expected 0"


def wrong_det_mod_p(monkeypatch):
    # det M = (-1)^7 * 6 * (-3)^5 = 1458 at n = 5, read one too high mod p.
    monkeypatch.setattr(spectral_mod, "det_mod_p", lambda num: (det_mod_p(num) + 1) % _PRIME)
    return (
        KNESER_READERS,
        f"det M mod {_PRIME} is 1459 by elimination but 1458 from the spectrum of K at n=5",
    )


def wrong_incidence_degree(monkeypatch):
    # The closed-form degree C(n-1, 2) read one too high at n = 5: the matrix
    # is right, and only the check that compares its sums with it fails.
    monkeypatch.setattr(report_mod, "comb", lambda a, b: comb(a, b) + ((a, b) == (4, 2)))
    return ("incidence_structure",), "incidence row 0 sums to 6, not 7, at n=5"


def singular_incidence(monkeypatch):
    # The determinant as the report reads it; the spectrum reads its own.
    monkeypatch.setattr(report_mod, "det_incidence", lambda n: Fraction(0))
    return ("incidence_determinant",), "incidence matrix is singular at n=5: |det M| = 0"


def asymmetric_gram(monkeypatch):
    num = [list(row) for row in build_gram(5).num]
    num[0][1] += 1
    asymmetric = RationalMatrix._from_ints(num, 1)
    monkeypatch.setattr(report_mod, "build_gram", lambda n: asymmetric)
    return (
        ("gram_consistency",),
        "Gram matrix is not symmetric at n=5: entry (0, 1) is 4, expected 3",
    )


def two_distinct_eigenvalues(monkeypatch):
    counted = replace(gelfand_mod.gelfand_report(5), distinct_eigenvalues=2)
    monkeypatch.setattr(report_mod, "gelfand_report", lambda n: counted)
    return (
        ("eigenspace_structure",),
        "not 3 eigenspaces of total dimension 15 at n=5: "
        "2 distinct eigenvalues, dimensions [1, 5, 9] sum to 15",
    )


def rank_one_short(monkeypatch):
    # Forward and reversed ranks agree, so the re-verification passes and
    # only the verdict is false.
    monkeypatch.setattr(jacobian_mod, "rank", lambda m: rank(m) - 1)
    return ("independence_certificate",), "no Jacobian has full rank at n=5: ranks [14] of 15"


def perturbed_fd_jacobian(monkeypatch):
    # One entry of the regular Jacobian that the FD check reads, 1% too large;
    # the identity check reads the Jacobian through its own binding.
    jac = report_mod.regular_jacobian(5)
    num = [[100 * x for x in row] for row in jac.num]
    num[0][0] += jac.num[0][0]
    perturbed = RationalMatrix._from_ints(num, 100 * jac.den)
    monkeypatch.setattr(report_mod, "regular_jacobian", lambda n: perturbed)
    return (
        ("fd_crosscheck",),
        "FD cross-check failed at n=5: max deviation 5.893e-04 at step 0.0001 "
        "exceeds the bound 5.951e-07",
    )


STAGE_FAULTS = [
    flip_reversed_rank,
    perturb_divisor_closed_form,
    misclassify_one_pair,
    asymmetric_a2,
    off_diagonal_identity,
    noncommuting_a2,
    wrong_basis_vector,
    dependent_family,
    short_count,
    asymmetric_kneser,
    wrong_det_mod_p,
    repeated_divisor_eigenvalue,
    zero_divisor_eigenvector,
    zero_unit_eigenvector,
    reject_regular_adjugate,
    wrong_face_volume,
    wrong_lifted_eigenvector,
    wrong_incidence_degree,
    singular_incidence,
    asymmetric_gram,
    two_distinct_eigenvalues,
    rank_one_short,
    perturbed_fd_jacobian,
]


@pytest.mark.parametrize("fault", [asymmetric_a2, off_diagonal_identity, noncommuting_a2])
def test_commutativity_faults_break_the_product(monkeypatch, fault):
    """The product oracle confirms each class table that the commutativity
    proof refuses: its A1 and A2 do not commute."""
    fault(monkeypatch)
    table = gelfand_mod.intersection_classes(5)
    a1, a2 = level_set(table, 3), level_set(table, 2)
    assert a1 * a2 != a2 * a1


def break_fd_crosscheck(monkeypatch):
    """Make the FD cross-check raise ZeroDivisionError."""

    def broken(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(report_mod, "fd_crosscheck", broken)


class TestPipeline:
    def test_n4_all_pass(self, report_n4):
        assert report_n4.overall_pass
        assert {c.status for c in report_n4.checks} == {"pass"}
        names = [c.name for c in report_n4.checks]
        assert names[0] == "geometry_sanity"
        assert "jacobian_identity" in names
        assert "independence_certificate" in names
        assert "fd_crosscheck" in names

    def test_n4_certificates(self, report_n4):
        assert report_n4.spectrum.det_m_abs == 48
        assert report_n4.independence.ranks == (10, 10, 10, 10)
        assert report_n4.gelfand.commutative

    def test_discrepancies_do_not_fail(self, report_n4):
        assert any(not c.matches for c in report_n4.discrepancies)
        assert report_n4.overall_pass

    def test_n3_skips_divisor_checks(self):
        rep = verify_single(3, samples=1, seed=1)
        assert rep.overall_pass
        by_name = {c.name: c for c in rep.checks}
        assert by_name["orbit_partition_equitable"].status == "skip"
        assert by_name["orbital_commutativity"].status == "skip"
        assert by_name["spectrum_certificate"].status == "pass"
        assert rep.gelfand is None
        assert rep.spectrum.det_m_abs == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_single(2)
        with pytest.raises(ValueError):
            verify_single(4, samples=-1)

    def test_gelfand_failure_keeps_the_check_list(self, report_n4, monkeypatch):
        def broken(n):
            raise IntegrityError(f"lifted eigenvectors are dependent at n={n}")

        monkeypatch.setattr("facevol.report.gelfand_report", broken)
        rep = verify_single(4, samples=0, seed=0)
        assert [c.name for c in rep.checks] == [c.name for c in report_n4.checks]
        by_name = {c.name: c for c in rep.checks}
        for name in ("orbital_commutativity", "eigenspace_structure", "eigenvector_matching"):
            assert by_name[name].status == "fail"
            assert by_name[name].details == "lifted eigenvectors are dependent at n=4"
        assert rep.gelfand is None
        assert main(["--n", "4", "--samples", "0"]) == 1

    def test_sample_shortfall_fails_the_certificate(self, monkeypatch):
        def regular_only(E):
            if E != EdgeLengthAssignment.regular(E.n):
                raise ValueError("degenerate edge-length assignment")
            return simplex_det_adjugate(E)

        monkeypatch.setattr("facevol.jacobian.simplex_det_adjugate", regular_only)
        rep = verify_single(4, samples=3, seed=42)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["independence_certificate"].status == "fail"
        assert "n=4, seed=42" in by_name["independence_certificate"].details
        assert [c.name for c in rep.checks if c.status == "fail"] == [
            "independence_certificate"
        ]
        assert main(["--n", "4", "--samples", "1"]) == 1

    def test_unexpected_exception_fails_only_its_check(
        self, report_n4, monkeypatch, capsys, caplog
    ):
        break_fd_crosscheck(monkeypatch)
        rep = verify_single(4, samples=0, seed=0)
        assert [c.name for c in rep.checks] == [c.name for c in report_n4.checks]
        assert [c for c in rep.checks if c.status == "fail"] == [
            CheckResult("fd_crosscheck", "fail", "ZeroDivisionError: float division by zero")
        ]
        assert [r.exc_info[0] for r in caplog.records if r.exc_info] == [ZeroDivisionError]
        assert main(["--n", "4", "--samples", "0"]) == 1
        capsys.readouterr()
        # A range run still reports every n after the failing one.
        assert main(["--n-range", "4:5", "--samples", "0"]) == 1
        assert [r["n"] for r in json.loads(capsys.readouterr().out)] == [4, 5]

    def test_integrity_failure_is_recorded_not_raised(self, monkeypatch):
        monkeypatch.setattr(report_mod, "divisor_divides", lambda n: False)
        rep = verify_single(4, samples=0, seed=0)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["divisor_char_poly_divides"].status == "fail"
        assert not rep.overall_pass

    def test_false_stage_results_name_the_offending_value(self, monkeypatch):
        """A stage that answers False fails its check with the identity that
        broke, n and the first offending value, not with the pass details."""
        cert = full_spectrum(5)
        largest, middle, unit = cert.eigenvalues
        emptied = replace(cert, eigenvalues=(largest, replace(middle, multiplicity=0), unit))
        for mod in (spectral_mod, report_mod):
            monkeypatch.setattr(mod, "full_spectrum", lambda n: emptied)
        assert report_mod._divides({"n": 5}) == (
            False,
            "divisor char poly does not divide Gram char poly at n=5: "
            "Gram multiplicities of the divisor eigenvalues 36:1, 9:0, 1:9",
        )
        # Move the first face of the middle orbit into the far one.
        base, middle, far = divisor_quotient(5).partition
        split = check_equitable(build_gram(5), (base, middle[1:], middle[:1] + far))
        monkeypatch.setattr(report_mod, "divisor_quotient", lambda n: split)
        assert report_mod._equitable({"n": 5}) == (
            False,
            "stabilizer orbit partition is not equitable at n=5: "
            "face 6 has cell weights (3, 20, 13), face 2 of its cell has (3, 18, 15)",
        )

    def test_geometry_sanity_checks_its_premise(self, monkeypatch):
        """One face's volume stands for every face only when every squared
        length is 1: a regular point whose edge (5, 6), which the first face
        misses, has squared length 2 fails with that edge named."""
        stretched = with_squared(EdgeLengthAssignment.regular(5), (5, 6), Fraction(2))
        monkeypatch.setattr(EdgeLengthAssignment, "regular", staticmethod(lambda n: stretched))
        assert report_mod._geometry_sanity(5) == (
            False,
            "edge (5, 6) has squared length 2, not 1, at n=5",
        )

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 1): 2}, "incidence entry (0, 1) is 2, not 0 or 1, at n=5"),
            # Move the first 1 of row 0 to its first 0: the row sum stays.
            ({(0, 0): 0, (0, 6): 1}, "incidence column 0 sums to 5, not 6, at n=5"),
        ],
        ids=["entry", "column_sum"],
    )
    def test_incidence_structure_names_the_offending_value(self, monkeypatch, entries, message):
        """A wrong incidence matrix fails the structure check with n and its
        first offending entry or sum; the Jacobian identity, which reads the
        same matrix, fails too, with its own message."""
        num = [list(row) for row in build_incidence_matrix(5).num]
        for (i, j), x in entries.items():
            num[i][j] = x
        tampered = RationalMatrix._from_ints(num, 1)
        monkeypatch.setattr(report_mod, "build_incidence_matrix", lambda n: tampered)
        failed = {c.name: c.details for c in verify_single(5, 0, 0).checks if c.status == "fail"}
        assert failed.keys() == {"incidence_structure", "jacobian_identity"}
        assert failed["incidence_structure"] == message
        assert failed["jacobian_identity"].startswith(
            "scaled Jacobian at the regular point differs from the incidence matrix at n=5: "
        )

    def test_stage_faults_cover_every_check(self, monkeypatch, clear_memos):
        """Each check of the registry fails under some fault of
        test_stage_fault_fails_its_check."""
        failed = set()
        for fault in STAGE_FAULTS:
            failed.update(fault(monkeypatch)[0])
            monkeypatch.undo()
            clear_memos()
        assert failed == {name for name, _, _ in report_mod.CHECKS}

    def test_underreported_nullity_fails_divisibility_and_spectrum(self, monkeypatch, capsys):
        """A rank that under-reports the eigenvector family of eigenvalue 1
        of K breaks the proof, and every check that needs the spectrum or
        det M fails with its message. The rejection is remembered like a
        result: the six checks share one attempt, three spectral ranks."""
        unit_family = family_matrix(5, 2)
        calls = []
        monkeypatch.setattr(
            spectral_mod, "rank", lambda m: calls.append(m) or rank(m) - (m == unit_family)
        )
        failed = {c.name: c.details for c in verify_single(5, 0, 0).checks if c.status == "fail"}
        assert len(calls) == 3
        message = "eigenvectors of K for 1 are dependent at n=5: rank 8 of 9"
        assert failed == dict.fromkeys(KNESER_READERS, message)
        capsys.readouterr()
        assert main(["--n", "5", "--samples", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_without_modular_proofs_every_byte_stays(self, monkeypatch, clear_memos):
        """A mod-p proof that never holds sends every rank to
        Bareiss elimination, and the reports do not change by a byte."""
        rep = verify_single(6, samples=2, seed=3)
        expected = [serialize_report(rep, fmt) for fmt in ("json", "markdown")]
        clear_memos()
        refused = []
        monkeypatch.setattr(linalg_mod, "_full_rank_mod_p", lambda num: refused.append(num) or False)
        rep = verify_single(6, samples=2, seed=3)
        assert [serialize_report(rep, fmt) for fmt in ("json", "markdown")] == expected
        assert len(refused) >= 6

    def test_perturbed_adjugate_fails_identity_and_fd(self, monkeypatch, capsys):
        """One wrong entry of the whole simplex's adjugate spreads into the
        regular Jacobian; the exact identity, which names its first wrong
        entry, and the FD cross-check both catch it. Entry (1, 2) of the row-swapped matrix's adjugate is entry
        (1, 2) of adj D, negated."""

        def perturbed(m):
            minors, adj = det_adjugate(m)
            num = [list(row) for row in adj.num]
            num[1][2] += adj.den
            return minors, RationalMatrix._from_ints(num, adj.den)

        monkeypatch.setattr(geometry_mod, "det_adjugate", perturbed)
        failed = {c.name: c.details for c in verify_single(5, 0, 0).checks if c.status == "fail"}
        assert {"jacobian_identity", "fd_crosscheck"} <= failed.keys()
        assert failed["jacobian_identity"] == (
            "scaled Jacobian at the regular point differs from the incidence matrix at n=5: "
            "entry (4, 2) is 5/6, expected 1"
        )
        capsys.readouterr()
        assert main(["--n", "5", "--samples", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_wrong_divisor_eigenvector_fails_only_gelfand(self, monkeypatch, capsys):
        """A wrong divisor eigenvector fails its lift, which the three gelfand
        checks read; char D still proves the eigenvalues, so divisibility
        passes, and so does the Gram spectrum, certified from its eigenvector
        families alone."""
        failing, message = wrong_divisor_eigenvector(monkeypatch)
        checks = verify_single(5, 0, 0).checks
        failed = {c.name: c.details for c in checks if c.status == "fail"}
        assert failed == dict.fromkeys(failing, message)
        divides = "divisor char poly divides Gram char poly"
        assert CheckResult("divisor_char_poly_divides", "pass", divides) in checks
        assert CheckResult("spectrum_certificate", "pass", "36:1, 9:5, 1:9") in checks
        capsys.readouterr()
        assert main(["--n", "5", "--samples", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fault", STAGE_FAULTS)
    def test_stage_fault_fails_its_check(self, monkeypatch, capsys, fault):
        """A fault fails exactly the checks that read the stage it breaks, all
        with that stage's message; every other check passes."""
        checks, message = fault(monkeypatch)
        rep = verify_single(5, samples=0, seed=0)
        assert {c.name: c.details for c in rep.checks if c.status != "pass"} == dict.fromkeys(
            checks, message
        )
        capsys.readouterr()
        assert main(["--n", "5", "--samples", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err


def record_calls(monkeypatch, fns):
    """Record the arguments of each execution of the given functions,
    wherever facevol imported them. A memoized function is recorded behind
    a fresh memo of its own, so a memo hit is not an execution."""
    calls = {fn: [] for fn in fns}

    def recorder(fn):
        run = getattr(fn, "__wrapped__", fn)

        def record(*args):
            calls[fn].append(args)
            return run(*args)

        return one_slot_memo(record) if run is not fn else record

    wrapped = {fn: recorder(fn) for fn in calls}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "facevol" and not name.startswith("facevol."):
            continue
        for attr, value in list(vars(mod).items()):
            for fn, wrapper in wrapped.items():
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def record_products(monkeypatch):
    """Record the operands of every matrix product."""
    products = []
    matmul = RationalMatrix.__matmul__
    monkeypatch.setattr(
        RationalMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b)
    )
    return products


class TestComputeOnce:
    def test_no_call_repeats_its_arguments(self, monkeypatch):
        """Within one report, rank and the Jacobian never get equal arguments
        twice; the memos start empty so every artefact is built here."""
        calls = record_calls(monkeypatch, (rank, jacobian_squared_map))
        verify_single(5, samples=2, seed=3)
        for fn, seen in calls.items():
            assert seen
            repeats = [args for i, args in enumerate(seen) if args in seen[:i]]
            assert not repeats, f"{fn.__name__} repeated {len(repeats)} times"

    def test_second_report_of_an_n_repeats_no_spectral_work(self, monkeypatch):
        """A second report of the same n with another seed gives char_poly,
        check_commutative, rank, fd_crosscheck, scaled_jacobian_at_regular and
        squared_volume no arguments that the first report gave them: the
        regular-point work is done once per n."""
        calls = record_calls(
            monkeypatch,
            (
                char_poly,
                check_commutative,
                rank,
                fd_crosscheck,
                scaled_jacobian_at_regular,
                squared_volume,
            ),
        )
        verify_single(5, samples=2, seed=3)
        first = {fn: list(seen) for fn, seen in calls.items()}
        verify_single(5, samples=2, seed=4)
        for fn, seen in calls.items():
            assert first[fn]
            repeats = [args for args in seen[len(first[fn]) :] if args in first[fn]]
            assert not repeats, f"{fn.__name__} repeated {len(repeats)} times"

    def test_full_rank_jacobians_skip_bareiss(self, monkeypatch):
        """Every Jacobian rank, regular and sampled, forward and reversed, is
        proved mod p: no Bareiss elimination runs inside one, while it still
        runs for the determinants."""
        jacobians, open_ranks, leaked, eliminated = [], [], [], []

        def jacobian_rank(m):
            jacobians.append(m)
            open_ranks.append(m)
            r = rank(m)
            open_ranks.pop()
            return r

        def recorded_bareiss(a):
            eliminated.append(len(a))
            leaked.extend(open_ranks)
            return bareiss(a)

        bareiss = linalg_mod._bareiss
        monkeypatch.setattr(jacobian_mod, "rank", jacobian_rank)
        monkeypatch.setattr(linalg_mod, "_bareiss", recorded_bareiss)
        verify_single(7, samples=2, seed=3)
        assert [(m.nrows, m.ncols) for m in jacobians] == [(28, 28)] * 6
        assert all(m.den != 1 for m in jacobians)
        assert eliminated
        assert not leaked, f"{len(leaked)} Jacobian ranks fell back to Bareiss"

    @pytest.mark.parametrize("n", range(3, 10))
    def test_spectrum_eliminates_only_det_m(self, monkeypatch, n):
        """A cold full_spectrum takes one elimination, det M mod p, of side
        N, and no fraction-free one: the eigenvector groups are proved
        independent mod p, det M is read off the spectrum of K, and det G is
        never computed. It reads nothing of the divisor, at n = 3 too: not
        even the orbit partition behind the Gram entries it audits."""
        divisor = (
            divisor_quotient, check_equitable, divisor_matrix, divisor_eigenpairs, char_poly
        )
        calls = record_calls(monkeypatch, (det_fraction_free, det_mod_p, *divisor))
        eliminated = []
        bareiss = linalg_mod._bareiss
        monkeypatch.setattr(
            linalg_mod, "_bareiss", lambda a: eliminated.append(len(a)) or bareiss(a)
        )
        full_spectrum(n)
        assert calls[det_mod_p] == [(build_incidence_matrix(n).num,)]
        assert calls[det_fraction_free] == []
        assert all(calls[fn] == [] for fn in divisor)
        assert eliminated == []

    @pytest.mark.parametrize("n", range(3, 10))
    def test_geometry_sanity_takes_one_determinant(self, monkeypatch, n):
        """A cold geometry sanity check computes one face's Cayley-Menger
        determinant, of side n, for all C(n+1, 2) faces."""
        calls = record_calls(monkeypatch, (det_fraction_free,))
        assert report_mod._geometry_sanity(n)[0]
        assert [m.nrows for (m,) in calls[det_fraction_free]] == [n]

    def test_one_adjugate_per_jacobian(self, monkeypatch):
        """Each Jacobian takes one adjugate, of the whole simplex's
        Cayley-Menger matrix (side n + 2), and none per face."""
        calls = record_calls(monkeypatch, (det_adjugate, jacobian_squared_map))
        verify_single(5, samples=2, seed=3)
        assert len(calls[jacobian_squared_map]) == 3
        assert [m.nrows for (m,) in calls[det_adjugate]] == [7] * 3

    def test_jacobian_takes_no_exact_volume(self, monkeypatch):
        """The Jacobian, and the rejection of a degenerate point, read
        nondegeneracy off the adjugate's pivots: no Bareiss determinant and
        no exact squared volume runs."""
        points = independence_certificate(5, 2, 3).points
        spoiled = with_squared(points[0], (1, 2), Fraction(100))
        calls = record_calls(monkeypatch, (det_fraction_free, squared_volume))
        for E in points:
            jacobian_squared_map(E)
        with pytest.raises(ValueError):
            jacobian_squared_map(spoiled)
        assert calls == {det_fraction_free: [], squared_volume: []}

    def test_orbit_algebra_built_once(self, monkeypatch):
        """The Gram rule, the stabilizer orbits and the commutativity proof
        read one intersection-class table, the proof runs once, and no
        indicator matrix is multiplied: the side-21 products are M M^T only."""
        calls = record_calls(monkeypatch, (intersection_classes, commutativity_defect))
        products = record_products(monkeypatch)
        verify_single(6, samples=2, seed=3)
        assert calls == {intersection_classes: [(6,)], commutativity_defect: [(6,)]}
        m = build_incidence_matrix(6)
        side_21 = [(a, b) for a, b in products if a.nrows == 21 and b.ncols == 21]
        assert side_21 == [(m, m.transpose())]

    def test_failed_divisor_proof_runs_once(self, monkeypatch):
        """A divisor proof that fails is remembered like a result: the four
        checks that read it fail with its one char D error, and the gelfand
        report, which fails at the eigenvector lifts, is attempted once. So
        the proof, commutativity and the lifts run once each, and the side-15
        products are M M^T only, as in a passing report."""
        failing, message = repeated_divisor_eigenvalue(monkeypatch)
        stages = (check_commutative, commutativity_defect, match_eigenvectors, divisor_spectrum)
        calls = record_calls(monkeypatch, stages)
        products = record_products(monkeypatch)
        rep = verify_single(5, 0, 0)
        failed = {c.name: c.details for c in rep.checks if c.status == "fail"}
        assert failed == dict.fromkeys(failing, message)
        assert [len(calls[fn]) for fn in stages] == [1, 1, 1, 1]
        m = build_incidence_matrix(5)
        assert [(a, b) for a, b in products if a.nrows == 15] == [(m, m.transpose())]

    def test_failed_commutativity_runs_once(self, monkeypatch):
        """A failing commutativity check reads the one memoized defect that
        the gelfand report found: the served class table is read once, the
        proof runs once, and the side-15 products are M M^T only, as in a
        passing report."""
        failing, message = noncommuting_a2(monkeypatch)
        served = gelfand_mod.intersection_classes
        calls = record_calls(monkeypatch, (served, commutativity_defect))
        products = record_products(monkeypatch)
        rep = verify_single(5, 0, 0)
        failed = {c.name: c.details for c in rep.checks if c.status == "fail"}
        assert failed == dict.fromkeys(failing, message)
        assert calls == {served: [(5,)], commutativity_defect: [(5,)]}
        m = build_incidence_matrix(5)
        assert [(a, b) for a, b in products if a.nrows == 15] == [(m, m.transpose())]

    def test_broken_gram_rule_is_built_once(self, monkeypatch):
        """A Gram matrix whose two constructions disagree fails its eight
        readers with one error, and M M^T is formed once."""
        failing, message = misclassify_one_pair(monkeypatch)
        products = record_products(monkeypatch)
        rep = verify_single(5, 0, 0)
        failed = {c.name: c.details for c in rep.checks if c.status == "fail"}
        assert failed == dict.fromkeys(failing, message) and len(failed) == 8
        m = build_incidence_matrix(5)
        assert [(a, b) for a, b in products if a.nrows == 15] == [(m, m.transpose())]

    def test_char_poly_runs_once_on_the_divisor(self, monkeypatch):
        """The Gram char poly is never computed: the divisor proves its own,
        once per n, and divisibility compares the divisor eigenvalues with the
        certified Gram spectrum, so the 3x3 divisor is the one char_poly."""
        calls = record_calls(monkeypatch, (char_poly,))
        verify_single(6, samples=2, seed=3)
        assert [m.nrows for (m,) in calls[char_poly]] == [3]

    def test_each_sampled_point_is_checked_once(self, monkeypatch):
        """Each sampled candidate, accepted or rejected, is eliminated once,
        and the regular point once per n, shared by the Jacobian identity,
        the independence certificate and the FD check. The first candidate
        is rejected by a flipped chain minor."""
        calls = record_calls(monkeypatch, (simplex_det_adjugate, det_adjugate))
        eliminate = geometry_mod.det_adjugate

        def reject_first_candidate(m):
            minors, adj = eliminate(m)
            if len(calls[det_adjugate]) == 2:  # the regular point comes first
                minors = minors[:3] + (-minors[3],) + minors[4:]
            return minors, adj

        monkeypatch.setattr(geometry_mod, "det_adjugate", reject_first_candidate)
        drawn = []
        sample = jacobian_mod._sample_point
        monkeypatch.setattr(
            jacobian_mod, "_sample_point", lambda n, rng: drawn.append(sample(n, rng)) or drawn[-1]
        )
        rep = verify_single(5, samples=2, seed=3)
        regular = EdgeLengthAssignment.regular(5)
        assert rep.overall_pass and rep.independence.points[1:] == tuple(drawn[1:])
        assert len(drawn) == 3
        assert [E for (E,) in calls[simplex_det_adjugate]] == [regular, *drawn]
        assert len(calls[det_adjugate]) == 4


class Text(str):
    """A tamper's result that replaces the whole report text."""


def first_edge(doc):
    """The squared edge lengths of the first sampled point of a report
    document."""
    return doc["independence"]["points"][1]["squared_lengths"]


def rekey(edges, key):
    """Move the length of edge 1,2 to the given key, keeping its place."""
    items = [(key if k == "1,2" else k, v) for k, v in edges.items()]
    edges.clear()
    edges.update(items)


class TestSerialization:
    def test_json_roundtrip(self, report_n4):
        text = serialize_report(report_n4, "json")
        assert parse_report(text) == report_n4

    def test_json_roundtrip_n3(self):
        rep = verify_single(3, samples=0, seed=0)
        assert parse_report(serialize_report(rep, "json")) == rep

    def test_pinned_singular_values_n4(self, report_n4):
        doc = json.loads(serialize_report(report_n4, "json"))
        assert doc["spectrum"]["singular_values"] == [
            {"square": "9", "multiplicity": 1},
            {"square": "4", "multiplicity": 4},
            {"square": "1", "multiplicity": 5},
        ]
        assert doc["spectrum"]["det_m_abs"] == "48"
        assert doc["independence"]["scaling_constant_squared"] == "1/12"

    def test_edge_length_json_roundtrip(self):
        E = with_squared(EdgeLengthAssignment.regular(5), (2, 4), Fraction(15, 16))
        doc = json.loads(report_mod._writer(EdgeLengthAssignment)(E, ""))
        assert doc["n"] == 5
        assert report_mod._reader(EdgeLengthAssignment)(doc, {}) == E

    def test_edge_length_json_format(self):
        E = with_squared(EdgeLengthAssignment.regular(3), (1, 2), Fraction(17, 16))
        doc = json.loads(report_mod._writer(EdgeLengthAssignment)(E, ""))
        assert list(doc["squared_lengths"])[:2] == ["1,2", "1,3"]
        assert doc["squared_lengths"]["1,2"] == "17/16"
        assert doc["squared_lengths"]["3,4"] == "1"

    @pytest.mark.parametrize(
        "tamper, cause",
        [
            (lambda d: d.pop("spectrum"), KeyError),
            (lambda d: d["spectrum"].update(det_m_abs=" 96/2 "), ValueError),
            (lambda d: d["independence"].update(scaling_constant_squared="0.083333e0"), ValueError),
            (lambda d: first_edge(d).update({"1,2": "34/32"}), ValueError),
            (lambda d: rekey(first_edge(d), " 1, 2"), ValueError),
            (lambda d: rekey(first_edge(d), "01,2"), ValueError),
            (lambda d: d["checks"][0].update(status="bogus"), ValueError),
            (lambda d: d.update(overall_pass=False), ValueError),
            (lambda d: d.update(discrepancies=[]), ValueError),
            (lambda d: d.pop("overall_pass"), KeyError),
            (lambda d: d["spectrum"].update(det_m_abs="x/0"), ValueError),
            (lambda d: d["independence"]["points"][1]["squared_lengths"].pop("2,4"), ValueError),
            (lambda d: d["independence"]["ranks"].__setitem__(0, "10"), TypeError),
            (lambda d: d["spectrum"].update(det_m_abs="1/0"), ValueError),
            (lambda d: d["spectrum"].update(det_m_abs=5), TypeError),
            (
                lambda d: d["independence"]["points"][0]["squared_lengths"].update({"1,2": True}),
                TypeError,
            ),
            (lambda d: d["independence"].update(scaling_constant_squared=1.5), TypeError),
            (lambda d: d.update(bogus=1), ValueError),
            (lambda d: d["checks"][0].update(bogus=1), ValueError),
            (lambda d: d["spectrum"]["eigenvalues"][0].update(bogus=1), ValueError),
            (lambda d: d["independence"]["points"][0].update(n=800), ValueError),
            (lambda d: Text("[" * 100000 + "]" * 100000), RecursionError),
        ],
        ids=[
            "missing_key",
            "padded_rational",
            "decimal_rational",
            "unreduced_rational",
            "padded_edge_key",
            "zero_padded_edge_key",
            "unknown_status",
            "wrong_overall_pass",
            "emptied_discrepancies",
            "missing_overall_pass",
            "non_rational",
            "missing_edge",
            "wrong_leaf_type",
            "zero_denominator",
            "rational_as_int",
            "rational_as_bool",
            "rational_as_float",
            "unknown_report_key",
            "unknown_check_key",
            "unknown_witness_key",
            "edge_count_of_another_n",
            "nested_too_deep",
        ],
    )
    def test_malformed_report_raises_value_error(self, report_n4, tamper, cause):
        doc = json.loads(serialize_report(report_n4, "json"))
        text = tamper(doc)
        if not isinstance(text, Text):
            text = json.dumps(doc)
        with pytest.raises(ValueError, match="^malformed report: ") as info:
            parse_report(text)
        assert type(info.value.__cause__) is cause

    def test_unknown_key_is_named(self, report_n4):
        doc = json.loads(serialize_report(report_n4, "json"))
        doc["spectrum"]["eigenvalues"][0]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown key 'bogus' in EigenvalueWitness"):
            parse_report(json.dumps(doc))

    def test_any_whitespace_parses(self, report_n4):
        doc = json.loads(serialize_report(report_n4, "json"))
        for separators in ((",", ":"), (" ,  ", " :\t")):
            assert parse_report(json.dumps(doc, separators=separators)) == report_n4

    def test_rationals_serialized_as_strings(self, report_n4):
        doc = json.loads(serialize_report(report_n4, "json"))
        point = doc["independence"]["points"][1]
        for value in point["squared_lengths"].values():
            assert isinstance(value, str)

    def test_markdown_summary(self, report_n4):
        text = serialize_report(report_n4, "markdown")
        assert "# Verification report: n = 4" in text
        assert "| quantity | claimed | computed | match |" in text
        assert "| largest singular value | 6 | 3 | no |" in text
        assert "overall: PASS" in text

    def test_unknown_format_rejected(self, report_n4):
        with pytest.raises(ValueError):
            serialize_report(report_n4, "yaml")


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = serialize_report(verify_single(4, samples=2, seed=11), "json")
        b = serialize_report(verify_single(4, samples=2, seed=11), "json")
        assert a == b

    def test_jobs_do_not_change_output(self):
        text1 = serialize_reports(run_verification((4, 5), 1, 3, jobs=1), "json")
        text2 = serialize_reports(run_verification((4, 5), 1, 3, jobs=2), "json")
        assert text1 == text2

    def test_import_leaves_the_process_pool_unloaded(self):
        src = str(Path(report_mod.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import facevol; "
            "print('concurrent.futures.process' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        ).stdout
        assert out == "False\n"


class TestCodecOracle:
    """The compiled codec writes what json.dumps(indent=2) writes for the
    same document, byte for byte."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_report_matches_json_dumps(self, n):
        report = verify_single(n, samples=2, seed=7)
        assert serialize_report(report, "json") == serialize_report_by_json_dumps(report)

    def test_report_array_matches_json_dumps(self):
        reports = [verify_single(n, samples=1, seed=7) for n in (3, 4, 5)]
        assert serialize_reports(reports, "json") == serialize_reports_by_json_dumps(reports)
        assert serialize_reports([], "json") == serialize_reports_by_json_dumps([]) == "[]\n"
        one = reports[:1]
        assert serialize_reports(one, "json") == serialize_reports_by_json_dumps(one)

    def test_escaped_details_match_json_dumps(self, monkeypatch):
        message = 'λ ≠ "9" at n=4,\na \\ b'

        def broken(n):
            raise IntegrityError(message)

        monkeypatch.setattr(report_mod, "divisor_divides", broken)
        report = verify_single(4, samples=1, seed=42)
        assert not report.overall_pass
        assert CheckResult("divisor_char_poly_divides", "fail", message) in report.checks
        text = serialize_report(report, "json")
        assert text == serialize_report_by_json_dumps(report)
        assert parse_report(text) == report


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    """Reports for n = 3..8 at seed 42 with 3 samples, frozen as files by
    `python -m facevol --n-range 3:8 --seed 42 --samples 3 --output
    tests/golden` (and again with `--format markdown`). CI also compares
    `verify_n16.json`, written by `python -m facevol --n 16 --seed 42
    --samples 3 --output tests/golden/verify_n16.json`, and `verify_n20.json`
    through `verify_n48.json`, written the same way with `--n 20 --max-n 24`
    and, for k = 24, 28, 32, 36, 40 and 48, `--n k --max-n k`. The JSON array
    `verify_n3-5.json` is the stdout of `python -m facevol --n-range 3:5
    --seed 42 --samples 3`."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_reports_are_byte_identical(self, n):
        report = verify_single(n, samples=3, seed=42)
        for fmt, ext in (("json", "json"), ("markdown", "md")):
            golden = (GOLDEN / f"verify_n{n}.{ext}").read_text()
            assert serialize_report(report, fmt) == golden

    def test_report_array_is_byte_identical(self, capsys):
        assert main(["--n-range", "3:5", "--seed", "42", "--samples", "3"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify_n3-5.json").read_text()

    def test_info_log_times_every_check(self, caplog):
        """At INFO each check logs its status and wall time on the side; the
        report stays byte-identical."""
        with caplog.at_level(logging.INFO, logger="facevol"):
            report = verify_single(5, samples=3, seed=42)
        lines = [r.getMessage() for r in caplog.records if r.name == "facevol"]
        timed = [re.fullmatch(r"n=5 (\w+): pass in \d+\.\d{3} s", line) for line in lines]
        assert all(timed), lines
        assert [m[1] for m in timed] == [name for name, _, _ in report_mod.CHECKS]
        assert serialize_report(report, "json") == (GOLDEN / "verify_n5.json").read_text()

    @pytest.mark.parametrize("n", range(3, 9))
    def test_decode_reencode_is_byte_identical(self, n):
        golden = (GOLDEN / f"verify_n{n}.json").read_text()
        assert serialize_report(parse_report(golden), "json") == golden

    def test_failing_report_roundtrips(self, monkeypatch):
        break_fd_crosscheck(monkeypatch)
        report = verify_single(4, samples=1, seed=42)
        assert not report.overall_pass
        text = serialize_report(report, "json")
        assert parse_report(text) == report
        assert serialize_report(parse_report(text), "json") == text


class TestCli:
    def test_single_n_exit_zero(self, capsys):
        assert main(["--n", "4", "--seed", "42"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4
        assert doc["overall_pass"] is True
        assert doc["spectrum"]["det_m_abs"] == "48"

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param("--n 2", "all dimensions must be >= 3", id="small_n"),
            pytest.param("--n-range 2:4", "all dimensions must be >= 3", id="small_range"),
            pytest.param("--n-range 6:4", "empty range '6:4'", id="empty_range"),
            pytest.param("--n 17", "dimension exceeds the guard (16)", id="guard"),
            pytest.param("--n 6 --max-n 5", "dimension exceeds the guard (5)", id="max_n"),
            pytest.param("--samples -1", "samples must be >= 0", id="samples"),
            pytest.param("--jobs 0", "jobs must be >= 1", id="jobs"),
        ],
    )
    def test_usage_error(self, capsys, args, message):
        """Every run argument is checked once, before any n is verified."""
        assert main(args.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_usage_error_bad_range(self, capsys):
        assert main(["--n-range", "6-4"]) == 2
        assert capsys.readouterr().err.startswith("error: range must look like A:B")

    def test_usage_error_guard(self, capsys):
        assert main(["--n", "6", "--max-n", "6", "--samples", "0"]) == 0

    def test_argparse_failure_maps_to_two(self, capsys):
        assert main(["--n", "notanint"]) == 2

    def test_unknown_format_maps_to_two(self, capsys):
        assert main(["--n", "4", "--format", "xml"]) == 2

    @pytest.mark.parametrize(
        "value, code",
        [
            ("basic_format", 2),
            ("verbose", 2),
            ("NOTSET", 2),
            ("WARN", 2),
            ("FATAL", 2),
            ("info", 0),
        ],
    )
    def test_log_level_must_be_a_level_name(self, capsys, monkeypatch, value, code):
        """FACEVOL_LOG takes one of the five listed level names in any case;
        anything else, even a logging attribute that is no level or one of
        logging's aliases, is a usage error."""
        monkeypatch.setenv("FACEVOL_LOG", value)
        assert main(["--n", "3", "--samples", "0"]) == code
        err = capsys.readouterr().err
        refused = f"error: FACEVOL_LOG='{value}' is not a log level name (see --help)"
        assert err.startswith(refused) == (code == 2)

    def test_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(report_mod, "divisor_divides", lambda n: False)
        assert main(["--n", "4", "--samples", "0"]) == 1

    def test_one_element_range_prints_an_array(self, capsys):
        assert main(["--n-range", "4:4", "--samples", "0"]) == 0
        assert [r["n"] for r in json.loads(capsys.readouterr().out)] == [4]

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--n", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_range_output_dir(self, tmp_path):
        outdir = tmp_path / "reports"
        code = main(
            ["--n-range", "4:5", "--samples", "0", "--output", str(outdir)]
        )
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "verify_n4.json",
            "verify_n5.json",
        ]

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        for target in (["--n", "4"], ["--n-range", "4:4"]):
            args = target + ["--samples", "0", "--output", str(blocker / "out")]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_single_element_range_still_writes_dir(self, tmp_path):
        outdir = tmp_path / "reports"
        assert main(["--n-range", "4:4", "--samples", "0", "--output", str(outdir)]) == 0
        assert [p.name for p in outdir.iterdir()] == ["verify_n4.json"]

    def test_markdown_to_stdout(self, capsys):
        assert main(["--n", "4", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Verification report: n = 4")

    def test_range_stdout_is_json_array(self, capsys):
        assert main(["--n-range", "4:5", "--samples", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc] == [4, 5]
