from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

import facevol.spectral as spectral_mod
from facevol.linalg import (
    RationalMatrix,
    char_poly,
    det_fraction_free,
)
from facevol.spectral import (
    EigenvalueWitness,
    build_gram,
    check_equitable,
    det_incidence,
    divisor_closed_form,
    divisor_divides,
    divisor_eigenpairs,
    divisor_matrix,
    divisor_quotient,
    eigenbasis,
    full_spectrum,
    spectrum_summary,
)
from facevol.subsets import build_incidence_matrix, subsets_colex

from oracles import (
    bareiss_rank,
    dense,
    identity,
    intersection_class,
    mul_vector,
    orbit_partition,
    poly_divides,
    poly_from_roots,
    rank_subset,
    shifted,
    sympy_det,
)


class TestGram:
    def test_n3_is_identity(self):
        assert build_gram(3) == identity(6)

    def test_n4_entries(self):
        gram = build_gram(4)
        faces = subsets_colex(5, 3)
        for i, f in enumerate(faces):
            for j, g in enumerate(faces):
                overlap = intersection_class(f, g)
                expected = {3: 3, 2: 1, 1: 0}[overlap]
                assert gram[i, j] == expected

    def test_n5_entry_values(self):
        gram = build_gram(5)
        faces = subsets_colex(6, 4)
        values = {gram[0, j] for j in range(len(faces))}
        assert values == {Fraction(6), Fraction(3), Fraction(1)}
        assert gram[0, 0] == 6

    @pytest.mark.parametrize("n", range(4, 9))
    def test_equals_incidence_gram(self, n):
        m = build_incidence_matrix(n)
        assert build_gram(n) == m @ m.transpose()


class TestEquitable:
    def test_singletons_give_back_gram(self):
        gram = build_gram(4)
        dq = check_equitable(gram, [(i,) for i in range(10)])
        assert dq.equitable
        assert dq.quotient == gram

    def test_orbit_quotient_n4(self):
        gram = build_gram(4)
        dq = check_equitable(gram, orbit_partition(4, (1, 2, 3)))
        assert dq.equitable
        assert dq.quotient == RationalMatrix([[3, 6, 0], [1, 6, 2], [0, 4, 5]])

    def test_rational_weights_scale_the_quotient(self):
        gram = build_gram(5)
        partition = orbit_partition(5, (1, 2, 3, 4))
        half = check_equitable(gram.scaled(Fraction(1, 2)), partition)
        assert half.equitable
        assert half.quotient == check_equitable(gram, partition).quotient.scaled(
            Fraction(1, 2)
        )

    def test_split_middle_orbit_not_equitable(self):
        gram = build_gram(4)
        base_cell, middle, far = orbit_partition(4, (1, 2, 3))
        # mix faces through vertex 4 and 5 so no smaller stabilizer fixes the
        # cells: (1,2,4) meets two of its cellmates in 2 vertices, (1,3,4)
        # only one
        cell_a = tuple(rank_subset(5, f) for f in [(1, 2, 4), (1, 2, 5), (1, 3, 4)])
        cell_b = tuple(i for i in middle if i not in cell_a)
        split = [base_cell, cell_a, cell_b, far]
        assert not check_equitable(gram, split).equitable

    def test_invalid_partition(self):
        gram = build_gram(4)
        with pytest.raises(ValueError):
            check_equitable(gram, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            check_equitable(gram, [tuple(range(9))])

    @pytest.mark.parametrize("n", range(4, 9))
    def test_orbit_partition_equitable(self, n):
        assert divisor_quotient(n).equitable


class TestDivisor:
    def test_n4_value(self):
        assert divisor_matrix(4) == RationalMatrix([[3, 6, 0], [1, 6, 2], [0, 4, 5]])

    def test_n5_value(self):
        assert divisor_matrix(5) == RationalMatrix(
            [[6, 24, 6], [3, 21, 12], [1, 16, 19]]
        )

    @pytest.mark.parametrize("n", range(4, 11))
    def test_row_sums(self, n):
        d = divisor_matrix(n)
        expected = Fraction(comb(n - 1, 2)) ** 2
        assert all(sum(row) == expected for row in d.rows)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_closed_form_matches_quotient(self, n):
        dq = check_equitable(build_gram(n), orbit_partition(n, tuple(range(1, n))))
        assert dq.quotient == divisor_closed_form(n)
        assert divisor_matrix(n) == divisor_closed_form(n)

    def test_rejects_n3(self):
        with pytest.raises(ValueError):
            divisor_matrix(3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_divides(self, n):
        assert divisor_divides(n)

    def test_n4_charpoly_factorizations(self):
        # (x-9)(x-4)(x-1) divides (x-9)(x-4)^4(x-1)^5
        assert char_poly(divisor_matrix(4)) == poly_from_roots([9, 4, 1])
        assert char_poly(build_gram(4)) == poly_from_roots(
            [9] + [4] * 4 + [1] * 5
        )

    @pytest.mark.parametrize("n", range(4, 9))
    def test_gram_charpoly_is_product_over_certified_multiplicities(self, n):
        # Faddeev-LeVerrier on the full Gram matrix is the independent oracle
        # for char G = prod (x - lam)^m that divisor_divides relies on.
        roots = [
            w.value for w in full_spectrum(n).eigenvalues for _ in range(w.multiplicity)
        ]
        assert char_poly(build_gram(n)) == poly_from_roots(roots)

    def test_zero_multiplicity_does_not_divide(self, monkeypatch):
        """A divisor eigenvalue of Gram multiplicity 0, or missing from the
        Gram spectrum, breaks the divisibility."""
        cert = full_spectrum(5)
        largest, middle, unit = cert.eigenvalues
        emptied = EigenvalueWitness(middle.value, 0, 15)
        for eigenvalues in ((largest, emptied, unit), (largest, unit)):
            monkeypatch.setattr(
                spectral_mod, "full_spectrum", lambda n: replace(cert, eigenvalues=eigenvalues)
            )
            assert not divisor_divides(5)

    def test_perturbed_divisor_fails_to_divide(self):
        d = divisor_matrix(4)
        rows = [list(r) for r in d.rows]
        rows[0][1] += 1
        perturbed = RationalMatrix(rows)
        assert not poly_divides(char_poly(perturbed), char_poly(build_gram(4)))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_eigenpairs_exact(self, n):
        d = divisor_matrix(n)
        for vec, lam in divisor_eigenpairs(n):
            assert mul_vector(d, vec) == tuple(lam * x for x in vec)

    def test_eigenpair_values_n4(self):
        pairs = divisor_eigenpairs(4)
        assert [lam for _, lam in pairs] == [9, 4, 1]
        assert pairs[1][0] == (Fraction(-3, 2), Fraction(-1, 4), Fraction(1))
        assert pairs[2][0] == (Fraction(3), Fraction(-1), Fraction(1))


class TestSpectrum:
    def test_n4(self):
        cert = full_spectrum(4)
        assert [(w.value, w.multiplicity) for w in cert.eigenvalues] == [
            (9, 1),
            (4, 4),
            (1, 5),
        ]
        assert [(s.square, s.multiplicity) for s in cert.singular_values] == [
            (9, 1),
            (4, 4),
            (1, 5),
        ]
        assert cert.det_m_abs == 48
        assert spectrum_summary(cert) == "9:1, 4:4, 1:5"

    def test_n5(self):
        cert = full_spectrum(5)
        assert [(w.value, w.multiplicity) for w in cert.eigenvalues] == [
            (36, 1),
            (9, 5),
            (1, 9),
        ]
        assert cert.det_m_abs == 1458

    @pytest.mark.parametrize("n", range(4, 9))
    def test_certificate_identities(self, n):
        cert = full_spectrum(n)
        size = comb(n + 1, 2)
        assert len(cert.eigenvalues) == 3
        assert sum(w.multiplicity for w in cert.eigenvalues) == size
        trace = sum(w.value * w.multiplicity for w in cert.eigenvalues)
        assert trace == size * comb(n - 1, 2)
        assert all(
            w.rank_witness == size - w.multiplicity for w in cert.eigenvalues
        )
        prod = Fraction(1)
        for w in cert.eigenvalues:
            prod *= w.value**w.multiplicity
        assert cert.det_m_abs**2 == prod

    def test_trace_example_n4(self):
        assert 9 * 1 + 4 * 4 + 1 * 5 == 10 * 3

    def test_n3(self):
        """The Gram matrix is the identity: the three families form one group
        for the eigenvalue 1, of full rank, and the divisor, defined from
        n = 4 on, contributes no claim."""
        cert = full_spectrum(3)
        assert spectrum_summary(cert) == "1:6"
        assert [(w.value, w.multiplicity, w.rank_witness) for w in cert.eigenvalues] == [(1, 6, 0)]
        assert [(s.square, s.multiplicity) for s in cert.singular_values] == [(1, 6)]
        assert cert.det_m_abs == 1
        assert [c.claim for c in cert.discrepancies] == [
            "absolute determinant of the incidence matrix"
        ]

    def test_rejects_n2(self):
        with pytest.raises(ValueError):
            full_spectrum(2)


class TestEigenbasis:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_vector_is_an_eigenvector_of_its_family(self, n):
        gram = build_gram(n)
        size = gram.nrows
        families = eigenbasis(n)
        assert [lam for lam, _ in families] == [comb(n - 1, 2) ** 2, (n - 2) ** 2, 1]
        assert [len(vectors) for _, vectors in families] == [1, n, (n + 1) * (n - 2) // 2]
        for lam, vectors in families:
            rows = [dense(x, size) for x in vectors]
            for row in rows:
                assert any(row)
                assert mul_vector(gram, row) == tuple(lam * v for v in row)
            assert bareiss_rank(RationalMatrix(rows)) == len(rows)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_family_sizes_are_the_nullities(self, n):
        gram = build_gram(n)
        for lam, vectors in eigenbasis(n):
            assert len(vectors) == gram.nrows - bareiss_rank(shifted(gram, lam))

    def test_n4_four_cycles(self):
        faces = subsets_colex(5, 3)

        def pair(s, t):
            return next(i for i, f in enumerate(faces) if not {s, t} & set(f))

        cycles = eigenbasis(4)[2][1]
        # 1-3-4-2: +1 on {1,3} and {4,2}, -1 on {3,4} and {2,1}
        assert dict(cycles[0]) == {pair(1, 3): 1, pair(2, 4): 1, pair(3, 4): -1, pair(1, 2): -1}
        assert len(cycles) == 5

    def test_rejects_n2(self):
        with pytest.raises(ValueError):
            eigenbasis(2)


class TestClaimAudit:
    def test_n4_records(self):
        by_claim = {c.claim: c for c in full_spectrum(4).discrepancies}
        largest = by_claim["largest singular value"]
        assert (largest.claimed, largest.computed, largest.matches) == ("6", "3", False)
        middle = by_claim["multiplicity of singular value n-2"]
        assert (middle.claimed, middle.computed, middle.matches) == ("4", "4", True)
        unit = by_claim["multiplicity of singular value 1"]
        assert (unit.claimed, unit.computed, unit.matches) == ("15/2", "5", False)
        det = by_claim["absolute determinant of the incidence matrix"]
        assert (det.claimed, det.computed, det.matches) == ("96", "48", False)
        dvr = by_claim["largest divisor eigenvalue"]
        assert (dvr.claimed, dvr.computed, dvr.matches) == ("36", "9", False)
        diag = by_claim["Gram entry, equal faces"]
        assert (diag.claimed, diag.computed, diag.matches) == ("6", "3", False)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_mismatches_flagged_wherever_size_identity_fails(self, n):
        claimed_sum = Fraction((n + 1) * (n - 1), 2) + n + 1
        assert claimed_sum != comb(n + 1, 2)
        by_claim = {c.claim: c for c in full_spectrum(n).discrepancies}
        assert (
            not by_claim["largest singular value"].matches
            or not by_claim["multiplicity of singular value 1"].matches
        )
        assert by_claim["multiplicity of singular value n-2"].matches


class TestDeterminant:
    def test_small_values(self):
        assert abs(det_incidence(3)) == 1
        assert abs(det_incidence(4)) == 48
        assert abs(det_incidence(5)) == 1458

    def test_sympy_oracle_n4(self):
        assert sympy_det(build_incidence_matrix(4)) == det_incidence(4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_square_matches_gram_det(self, n):
        assert det_incidence(n) ** 2 == det_fraction_free(build_gram(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_certified_closed_form(self, n):
        # certified value: C(n-1,2) * (n-2)^n, i.e. (n-1)(n-2)^(n+1)/2
        assert abs(det_incidence(n)) == comb(n - 1, 2) * (n - 2) ** n
