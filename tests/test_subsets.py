from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from facevol.linalg import RationalMatrix
from facevol.spectral import divisor_quotient
from facevol.subsets import (
    build_incidence_matrix,
    intersection_classes,
    missed_pairs,
    subsets_colex,
)

from oracles import identity, intersection_class, orbit_partition, rank_subset


class TestRanking:
    def test_first_and_last(self):
        assert subsets_colex(5, 2)[0] == (1, 2)
        assert subsets_colex(5, 3)[9] == (3, 4, 5)

    def test_rank_examples(self):
        assert rank_subset(5, (1, 2)) == 0
        assert rank_subset(5, (3, 4, 5)) == 9

    def test_rank_rejects_malformed(self):
        with pytest.raises(ValueError):
            rank_subset(5, (2, 1))
        with pytest.raises(ValueError):
            rank_subset(5, (0, 2))
        with pytest.raises(ValueError):
            rank_subset(5, (4, 6))

    def test_roundtrip_exhaustive_10_3(self):
        assert [rank_subset(10, s) for s in subsets_colex(10, 3)] == list(range(comb(10, 3)))

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=1, max_value=min(n, 3)).flatmap(
                    lambda k: st.tuples(
                        st.just(k), st.integers(min_value=0, max_value=comb(n, k) - 1)
                    )
                ),
            )
        )
    )
    def test_roundtrip_property(self, case):
        n, (k, r) = case
        s = subsets_colex(n, k)[r]
        assert len(s) == k
        assert rank_subset(n, s) == r

    def test_colex_listing_matches_ranks(self):
        """The face and edge listings of n = 3..12, and a few others, list
        every subset once, in rank order."""
        cases = [(5, 2), (6, 3), (7, 2)]
        cases += [(n + 1, k) for n in range(3, 13) for k in (n - 1, 2)]
        for n, k in cases:
            listing = subsets_colex(n, k)
            assert [rank_subset(n, s) for s in listing] == list(range(comb(n, k)))

class TestMissedPairs:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_face_i_misses_edge_n_minus_1_minus_i(self, n):
        """Complementation reverses colex order."""
        faces, edges = subsets_colex(n + 1, n - 1), subsets_colex(n + 1, 2)
        size = comb(n + 1, 2)
        complements = [tuple(sorted(set(range(1, n + 2)) - set(f))) for f in faces]
        assert complements == [edges[size - 1 - i] for i in range(size)]
        assert missed_pairs(n) == tuple(complements)


class TestIntersectionClass:
    def test_equal(self):
        assert intersection_class((1, 2, 3), (1, 2, 3)) == 3

    def test_examples(self):
        assert intersection_class((1, 2, 3), (1, 2, 4)) == 2
        assert intersection_class((1, 2, 3), (1, 4, 5)) == 1

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            intersection_class((1, 2, 3), (1, 2))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_table_lists_every_pair(self, n):
        faces = subsets_colex(n + 1, n - 1)
        assert intersection_classes(n) == tuple(
            tuple(intersection_class(f, g) for g in faces) for f in faces
        )

    def test_table_rejects_n2(self):
        with pytest.raises(ValueError):
            intersection_classes(2)


class TestIncidenceMatrix:
    def test_n4_shape_and_sums(self):
        m = build_incidence_matrix(4)
        assert (m.nrows, m.ncols) == (10, 10)
        assert {sum(row) for row in m.rows} == {3}
        assert {sum(col) for col in zip(*m.rows)} == {3}

    def test_containment_entries(self):
        m = build_incidence_matrix(4)
        face_123 = rank_subset(5, (1, 2, 3))
        assert m[face_123, rank_subset(5, (1, 2))] == 1
        assert m[face_123, rank_subset(5, (4, 5))] == 0

    def test_n3_identity(self):
        assert build_incidence_matrix(3) == identity(6)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_row_col_sums(self, n):
        m = build_incidence_matrix(n)
        deg = comb(n - 1, 2)
        assert m.nrows == m.ncols == comb(n + 1, 2)
        assert {sum(row) for row in m.rows} == {deg}
        assert {sum(col) for col in zip(*m.rows)} == {deg}

    @pytest.mark.parametrize("n", range(3, 13))
    def test_entries_are_edge_containment(self, n):
        faces, edges = subsets_colex(n + 1, n - 1), subsets_colex(n + 1, 2)
        contains = [[int(set(e) <= set(f)) for e in edges] for f in faces]
        assert build_incidence_matrix(n) == RationalMatrix(contains)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_incidence_matrix(2)


class TestOrbitPartition:
    """The stabilizer orbits of the first face, read off row 0 of the
    intersection-class table."""

    def test_n4_sizes(self):
        cells = divisor_quotient(4).partition
        assert [len(c) for c in cells] == [1, 6, 3]

    def test_n5_sizes(self):
        cells = divisor_quotient(5).partition
        assert [len(c) for c in cells] == [1, 8, 6]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_partition_law(self, n):
        cells = divisor_quotient(n).partition
        assert cells == orbit_partition(n, tuple(range(1, n)))
        assert [len(c) for c in cells] == [1, 2 * (n - 1), (n - 1) * (n - 2) // 2]
        flat = sorted(v for c in cells for v in c)
        assert flat == list(range(comb(n + 1, 2)))

    def test_base_is_its_own_cell(self):
        cells = divisor_quotient(4).partition
        assert cells[0] == (rank_subset(5, (1, 2, 3)),)
