from fractions import Fraction
from math import comb

import pytest
import sympy

import facevol.gelfand as gelfand_mod
from facevol.gelfand import (
    check_commutative,
    commutativity_defect,
    eigenspace_dimensions,
    gelfand_report,
    match_eigenvectors,
)
from facevol.linalg import RationalMatrix, rank
from facevol.spectral import build_gram, full_spectrum
from facevol.subsets import intersection_classes

from oracles import class_indicator, identity, level_set, mul_vector, orbit_partition, to_sympy


class TestOrbitalMatrices:
    """A1 and A2, the level sets n-2 and n-3 of the class table, are the
    indicators of the face pairs that meet in n-2 and in n-3 vertices."""

    def test_a0_is_identity(self):
        """The equality class is the diagonal; the table's other classes are
        the pairs that meet in 2 and in 1 vertices."""
        table = intersection_classes(4)
        assert class_indicator(4, 3) == identity(10)
        for k in (3, 2, 1):
            assert level_set(table, k) == to_sympy(class_indicator(4, k))

    def test_row_sums_n4(self):
        table = intersection_classes(4)
        assert {row.count(2) for row in table} == {6}
        assert {row.count(1) for row in table} == {3}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_classes_partition_all_pairs(self, n):
        table = intersection_classes(n)
        a0, a1, a2 = (level_set(table, k) for k in (n - 1, n - 2, n - 3))
        assert a0 + a1 + a2 == sympy.ones(comb(n + 1, 2))
        assert a1 == to_sympy(class_indicator(n, n - 2))
        assert a1.is_symmetric() and a2.is_symmetric()

    def test_rejects_n3(self):
        with pytest.raises(ValueError):
            check_commutative(3)


class TestCommutativity:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_commutative(self, n):
        assert check_commutative(n)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_agrees_with_the_product_oracle(self, n):
        a1, a2 = (to_sympy(class_indicator(n, k)) for k in (n - 2, n - 3))
        assert check_commutative(n) == (a1 * a2 == a2 * a1)

    def test_row_regular_nonsymmetric_pair_proves_nothing(self, monkeypatch):
        # Row 0 trades an n-2 for an n-3 in two columns, so every row still
        # partitions and holds 2(n-1) entries n-2, but columns 1 and 7 do
        # not: the symmetry of the table is what makes A1 commute with J.
        table = [list(row) for row in intersection_classes(4)]
        assert (table[0][1], table[0][7]) == (2, 1)
        table[0][1], table[0][7] = 1, 2
        a1, a2 = level_set(table, 2), level_set(table, 1)
        assert a1 * a2 != a2 * a1
        monkeypatch.setattr(gelfand_mod, "intersection_classes", lambda n: table)
        assert commutativity_defect(4) == "class table is not symmetric: entry (0, 1) is 1, expected 2"
        assert not check_commutative(4)

    def test_nonsymmetric_control_breaks_it(self):
        a1 = to_sympy(class_indicator(4, 2))
        bad = sympy.zeros(10)
        bad[0, 1] = 1
        assert a1 * bad != bad * a1


class TestEigenspaces:
    def test_dims_n4(self):
        assert eigenspace_dimensions(4) == (1, 4, 5)

    def test_dims_n5(self):
        assert eigenspace_dimensions(5) == (1, 5, 9)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_three_eigenspaces(self, n):
        dims = eigenspace_dimensions(n)
        assert len(dims) == 3
        assert sum(dims) == comb(n + 1, 2)
        assert len(full_spectrum(n).eigenvalues) == 3


class TestEigenvectorMatching:
    def test_n4_matches(self):
        matches = match_eigenvectors(4)
        by_value = {m.eigenvalue: m for m in matches}
        assert by_value[Fraction(9)].vector == (1, 1, 1)
        assert by_value[Fraction(9)].multiplicity == 1
        assert by_value[Fraction(4)].vector == (
            Fraction(-3, 2),
            Fraction(-1, 4),
            Fraction(1),
        )
        assert by_value[Fraction(4)].multiplicity == 4
        assert by_value[Fraction(1)].vector == (3, -1, 1)
        assert by_value[Fraction(1)].multiplicity == 5

    def test_all_ones_lift_is_row_sum_eigenvector(self):
        gram = build_gram(4)
        row_sum = sum(gram.rows[0])
        ones = (Fraction(1),) * 10
        assert mul_vector(gram, ones) == tuple(row_sum * x for x in ones)
        assert row_sum == 9

    @pytest.mark.parametrize("n", range(4, 9))
    def test_multiplicities_agree_with_spectrum(self, n):
        cert = {w.value: w.multiplicity for w in full_spectrum(n).eigenvalues}
        for m in match_eigenvectors(n):
            assert cert[m.eigenvalue] == m.multiplicity

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_lifts_are_exact_eigenvectors(self, n):
        gram = build_gram(n)
        partition = orbit_partition(n, tuple(range(1, n)))
        cell_of = {v: i for i, cell in enumerate(partition) for v in cell}
        lifted = []
        for m in match_eigenvectors(n):
            vec = tuple(m.vector[cell_of[v]] for v in range(gram.nrows))
            assert mul_vector(gram, vec) == tuple(m.eigenvalue * x for x in vec)
            lifted.append(vec)
        assert rank(RationalMatrix(lifted)) == 3


class TestReport:
    def test_n4_report(self):
        rep = gelfand_report(4)
        assert rep.commutative
        assert rep.eigenspace_dims == (1, 4, 5)
        assert rep.claimed_dims == (10, 4, 1)
        assert not rep.dims_match_claimed
        assert not rep.claimed_dims_sum_matches
        assert rep.distinct_eigenvalues == 3
        assert len(rep.matches) == 3

    @pytest.mark.parametrize("n", range(4, 9))
    def test_claimed_triple_always_flagged(self, n):
        # the claimed dimensions sum to C(n+1,2) + n + 1, never to C(n+1,2)
        rep = gelfand_report(n)
        assert sum(rep.claimed_dims) == comb(n + 1, 2) + n + 1
        assert not rep.claimed_dims_sum_matches
        assert rep.discrepancies[0].matches is False

    def test_discrepancy_record_text_n4(self):
        rec = gelfand_report(4).discrepancies[0]
        assert rec.claim == "invariant eigenspace dimensions"
        assert rec.claimed == "10, 4, 1"
        assert rec.computed == "5, 4, 1"
