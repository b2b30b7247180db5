"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything asserted here is exact unless a tolerance is stated inline.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from fractions import Fraction
from math import comb

from facevol.gelfand import check_commutative, gelfand_report
from facevol.geometry import EdgeLengthAssignment, squared_volume, unit_regular_squared_volume
from facevol.jacobian import (
    fd_crosscheck,
    independence_certificate,
    jacobian_squared_map,
    scaled_jacobian_at_regular,
)
from facevol.linalg import char_poly, det_fraction_free
from facevol.spectral import (
    build_gram,
    det_incidence,
    divisor_closed_form,
    divisor_eigenpairs,
    divisor_matrix,
    divisor_quotient,
    full_spectrum,
)
from facevol.subsets import build_incidence_matrix

from oracles import poly_divides, with_squared


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_spectrum_certification():
    start = time.monotonic()
    ok = True
    for n in range(4, 9):
        cert = full_spectrum(n)
        size = comb(n + 1, 2)
        ok &= len(cert.eigenvalues) == 3
        ok &= sum(w.multiplicity for w in cert.eigenvalues) == size
        trace = sum(w.value * w.multiplicity for w in cert.eigenvalues)
        ok &= trace == size * comb(n - 1, 2)
    ok &= [(w.value, w.multiplicity) for w in full_spectrum(4).eigenvalues] == [
        (9, 1),
        (4, 4),
        (1, 5),
    ]
    ok &= [(w.value, w.multiplicity) for w in full_spectrum(5).eigenvalues] == [
        (36, 1),
        (9, 5),
        (1, 9),
    ]
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(1, f"spectrum certification n=4..8 in {elapsed:.2f}s", ok)


def test_criterion_2_singular_value_claims():
    ok = True
    for n in range(4, 9):
        by_claim = {c.claim: c for c in full_spectrum(n).discrepancies}
        ok &= by_claim["multiplicity of singular value n-2"].matches
        ok &= by_claim["multiplicity of singular value n-2"].computed == str(n)
        claimed_triple_sum = Fraction((n + 1) * (n - 1), 2) + n + 1
        size_identity_violated = claimed_triple_sum != comb(n + 1, 2)
        ok &= size_identity_violated  # holds for every n >= 4
        flagged = (
            not by_claim["largest singular value"].matches
            or not by_claim["multiplicity of singular value 1"].matches
        )
        ok &= flagged
    report(2, "claim audit of the stated singular values", ok)


def test_criterion_3_determinant_nonzero():
    start = time.monotonic()
    ok = True
    for n in range(3, 13):
        det_m = det_incidence(n)
        ok &= det_m != 0
        ok &= det_m * det_m == det_fraction_free(build_gram(n))
    ok &= abs(det_incidence(4)) == 48
    ok &= abs(det_incidence(5)) == 1458
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(3, f"incidence determinant nonzero n=3..12 in {elapsed:.2f}s", ok)


def test_criterion_4_jacobian_identity():
    ok = True
    for n in range(4, 8):
        ok &= scaled_jacobian_at_regular(n) == build_incidence_matrix(n)
        # the scale uses F^2 = (n-1) / (2^(n-2) ((n-2)!)^2), pinned here
        f2 = unit_regular_squared_volume(n - 2)
        ok &= f2 == Fraction(n - 1, 2 ** (n - 2) * math.factorial(n - 2) ** 2)
    report(4, "scaled Jacobian equals incidence matrix n=4..7", ok)


def test_criterion_5_independence_certificate():
    start = time.monotonic()
    ok = True
    for n in range(4, 7):
        cert = independence_certificate(n, extra_samples=3, seed=42)
        full = comb(n + 1, 2)
        ok &= cert.verdict
        ok &= len(cert.ranks) == 4
        ok &= all(r == full for r in cert.ranks)
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(5, f"independence certificate n=4..6, seed 42, in {elapsed:.2f}s", ok)


def test_criterion_6_divisor_machinery():
    ok = True
    for n in range(4, 9):
        ok &= divisor_quotient(n).equitable
    for n in range(4, 11):
        ok &= divisor_matrix(n) == divisor_closed_form(n)
    for n in range(4, 9):
        ok &= poly_divides(char_poly(divisor_matrix(n)), char_poly(build_gram(n)))
    for n in range(4, 9):
        d = divisor_matrix(n)
        expected_values = {
            Fraction(comb(n - 1, 2)) ** 2,
            Fraction((n - 2) ** 2),
            Fraction(1),
        }
        pairs = divisor_eigenpairs(n)
        ok &= {lam for _, lam in pairs} == expected_values
        for vec, lam in pairs:
            ok &= d.mul_vector(vec) == tuple(lam * x for x in vec)
        # exact lifting to the Gram matrix is certified by match_eigenvectors
        # inside gelfand_report; it raises on any failure
        gelfand_report(n)
    report(6, "equitable orbits, divisor closed form, divisibility, eigenvectors", ok)


def test_criterion_7_gelfand_surrogates():
    ok = True
    for n in range(4, 9):
        ok &= check_commutative(n)
        rep = gelfand_report(n)
        ok &= rep.distinct_eigenvalues == 3
        ok &= len(rep.eigenspace_dims) == 3
        ok &= not rep.claimed_dims_sum_matches  # the stated triple fails the sum
        ok &= rep.discrepancies[0].matches is False
    report(7, "orbit algebra commutes; 3 eigenspaces; claimed dims flagged", ok)


def test_criterion_8_geometry_sanity():
    ok = True
    for k in range(1, 9):
        n = max(k, 3)
        E = EdgeLengthAssignment.regular(n)
        face = tuple(range(1, k + 2))
        ok &= squared_volume(E, face) == Fraction(
            k + 1, 2**k * math.factorial(k) ** 2
        )
    degenerate = with_squared(EdgeLengthAssignment.regular(3), (1, 2), Fraction(4))
    ok &= squared_volume(degenerate, (1, 2, 3)) == 0
    for n in (4, 5):
        E = EdgeLengthAssignment.regular(n)
        dev, _ = fd_crosscheck(E, jacobian_squared_map(E), 1e-4)
        ok &= dev <= 1e-5
    for n in (4, 5):
        E = EdgeLengthAssignment.regular(n)
        jac = jacobian_squared_map(E)
        coarse = fd_crosscheck(E, jac, 2e-2)[0]
        fine = fd_crosscheck(E, jac, 1e-2)[0]
        ok &= 3.0 < coarse / fine < 5.0  # second-order step convergence
    report(8, "regular volumes exact; degenerate zero; FD within 1e-5", ok)
