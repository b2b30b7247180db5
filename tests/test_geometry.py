import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import facevol.geometry as geometry_mod
from facevol.geometry import (
    EdgeLengthAssignment,
    cayley_menger_matrix,
    simplex_det_adjugate,
    squared_volume,
    unit_regular_squared_volume,
)
from facevol.linalg import RationalMatrix, det_adjugate, det_fraction_free
from facevol.subsets import subsets_colex

from oracles import (
    all_codim2_squared_volumes,
    heron_squared_area,
    identity,
    is_nondegenerate,
    matmul_by_definition,
    rationals,
    with_squared,
)


def assignment(n, values):
    return EdgeLengthAssignment(n, dict(zip(subsets_colex(n + 1, 2), values)))


def perturbed_regular(n, numerators):
    """Squared lengths 1 + k/16 with k cycling through the given numerators."""
    edges = subsets_colex(n + 1, 2)
    vals = [Fraction(16 + numerators[i % len(numerators)], 16) for i in range(len(edges))]
    return assignment(n, vals)


class TestCayleyMengerMatrix:
    def test_unit_triangle(self):
        E = EdgeLengthAssignment.regular(4)
        expected = RationalMatrix(
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        )
        assert cayley_menger_matrix(E, (1, 2, 3)) == expected

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_side_law(self, size):
        E = EdgeLengthAssignment.regular(4)
        cm = cayley_menger_matrix(E, tuple(range(1, size + 1)))
        assert cm.nrows == cm.ncols == size + 1

    def test_unit_tetrahedron_det(self):
        E = EdgeLengthAssignment.regular(4)
        cm = cayley_menger_matrix(E, (1, 2, 3, 4))
        assert cm.nrows == 5
        assert det_fraction_free(cm) == 4

    def test_symmetric_with_zero_diagonal(self):
        E = perturbed_regular(4, [1, -2, 0, 2])
        cm = cayley_menger_matrix(E, (1, 3, 5))
        assert cm.is_symmetric()
        assert all(cm[i, i] == 0 for i in range(cm.nrows))
        assert all(cm[0, j] == 1 for j in range(1, cm.ncols))

    def test_rejects_tiny_faces(self):
        E = EdgeLengthAssignment.regular(4)
        with pytest.raises(ValueError):
            cayley_menger_matrix(E, (2,))


class TestSquaredVolume:
    def test_unit_triangle_heron(self):
        one = Fraction(1)
        assert heron_squared_area(one, one, one) == Fraction(3, 16)
        E = EdgeLengthAssignment.regular(4)
        assert squared_volume(E, (1, 2, 3)) == Fraction(3, 16)

    def test_unit_tetrahedron(self):
        # coordinate-embedding value: V = 1/(6*sqrt(2)) so V^2 = 1/72
        E = EdgeLengthAssignment.regular(4)
        assert squared_volume(E, (1, 2, 3, 4)) == Fraction(1, 72)

    def test_degenerate_triangle(self):
        E = with_squared(EdgeLengthAssignment.regular(4), (1, 2), Fraction(4))
        assert squared_volume(E, (1, 2, 3)) == 0

    def test_segment_is_squared_length(self):
        E = with_squared(EdgeLengthAssignment.regular(4), (2, 3), Fraction(7, 5))
        assert squared_volume(E, (2, 3)) == Fraction(7, 5)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_unit_regular_law(self, k):
        n = max(k, 3)
        E = EdgeLengthAssignment.regular(n)
        face = tuple(range(1, k + 2))
        expected = Fraction(k + 1, 2**k * math.factorial(k) ** 2)
        assert unit_regular_squared_volume(k) == expected
        assert squared_volume(E, face) == expected

    @given(
        st.lists(rationals(max_num=4, max_den=4), min_size=3, max_size=3).map(
            lambda v: [x * x + 1 for x in v]
        )
    )
    def test_triangle_matches_heron(self, sq):
        E = EdgeLengthAssignment.regular(4)
        for edge, val in zip([(1, 2), (1, 3), (2, 3)], sq):
            E = with_squared(E, edge, val)
        assert squared_volume(E, (1, 2, 3)) == heron_squared_area(*sq)


class TestAllCodim2:
    def test_regular_n4(self):
        vols = all_codim2_squared_volumes(EdgeLengthAssignment.regular(4))
        assert vols == (Fraction(3, 16),) * 10

    def test_regular_n3(self):
        vols = all_codim2_squared_volumes(EdgeLengthAssignment.regular(3))
        assert vols == (Fraction(1),) * 6

    def test_scaling(self):
        n = 4
        E = perturbed_regular(n, [0, 1, -1, 2])
        t2 = Fraction(9, 4)
        scaled = assignment(
            n, [t2 * E.squared_lengths[e] for e in subsets_colex(n + 1, 2)]
        )
        factor = t2 ** (n - 2)
        assert all_codim2_squared_volumes(scaled) == tuple(
            factor * v for v in all_codim2_squared_volumes(E)
        )


class TestHomogeneityAndSymmetry:
    @given(
        st.lists(
            st.integers(min_value=-2, max_value=2), min_size=10, max_size=10
        ),
        rationals(max_num=3, max_den=3).map(lambda x: x * x + Fraction(1, 4)),
        st.integers(min_value=2, max_value=4),
    )
    def test_homogeneity(self, numerators, t2, face_size):
        E = assignment(4, [Fraction(16 + k, 16) for k in numerators])
        scaled = assignment(
            4, [t2 * Fraction(16 + k, 16) for k in numerators]
        )
        face = tuple(range(1, face_size + 1))
        k = face_size - 1
        assert squared_volume(scaled, face) == t2**k * squared_volume(E, face)

    @given(st.permutations([1, 2, 3, 4, 5]))
    def test_vertex_relabelling_invariance(self, perm):
        E = perturbed_regular(4, [0, 1, -1, 2, -2])
        relabel = dict(zip([1, 2, 3, 4, 5], perm))
        mapped = {}
        for (i, j), v in E.squared_lengths.items():
            a, b = sorted((relabel[i], relabel[j]))
            mapped[(a, b)] = v
        E2 = EdgeLengthAssignment(4, mapped)
        face = (1, 2, 3)
        image = tuple(sorted(relabel[v] for v in face))
        assert squared_volume(E2, image) == squared_volume(E, face)


class TestNondegeneracy:
    def test_regular_points(self):
        for n in range(3, 7):
            assert is_nondegenerate(EdgeLengthAssignment.regular(n))

    def test_single_long_edge(self):
        E = with_squared(EdgeLengthAssignment.regular(4), (1, 2), Fraction(100))
        assert not is_nondegenerate(E)

    def test_degenerate_face_away_from_chain(self):
        # the flat triangle {4,5,x} is not on the nested chain but must
        # still force the predicate to fail
        E = with_squared(EdgeLengthAssignment.regular(4), (4, 5), Fraction(4))
        assert not is_nondegenerate(E)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=10, max_size=10),
        st.sampled_from([None, (1, 2), (2, 4), (3, 5), (4, 5)]),
    )
    def test_chain_matches_bruteforce(self, numerators, spoiled):
        E = assignment(4, [Fraction(16 + k, 16) for k in numerators])
        if spoiled is not None:
            E = with_squared(E, spoiled, Fraction(4))
        brute = all(
            squared_volume(E, s) > 0
            for size in range(3, 6)
            for s in itertools.combinations(range(1, 6), size)
        )
        assert is_nondegenerate(E) == brute


def one_pass_verdict(E):
    """Whether the one elimination of simplex_det_adjugate accepts E."""
    try:
        simplex_det_adjugate(E)
    except ValueError:
        return False
    return True


def near_regular_points():
    """Points at n = 3..7 with squared lengths 1 + k/16, |k| <= spread: a
    spread of 2 keeps nearly every point nondegenerate, and one of 15 makes
    most of them degenerate."""

    def build(n, spread):
        k = st.integers(min_value=-spread, max_value=spread)
        size = len(subsets_colex(n + 1, 2))
        lists = st.lists(k, min_size=size, max_size=size)
        return lists.map(lambda ks: assignment(n, [Fraction(16 + x, 16) for x in ks]))

    return st.tuples(st.integers(3, 7), st.sampled_from([2, 8, 15])).flatmap(
        lambda a: build(*a)
    )


SPOILED = with_squared(EdgeLengthAssignment.regular(4), (1, 2), Fraction(100))
FLAT = with_squared(EdgeLengthAssignment.regular(4), (4, 5), Fraction(4))


class TestSimplexDetAdjugate:
    """One fraction-free elimination of the row-swapped Cayley-Menger matrix
    gives det D, adj D and the nondegeneracy verdict."""

    @settings(max_examples=150, deadline=None)
    @given(near_regular_points())
    @example(EdgeLengthAssignment.regular(5))
    @example(SPOILED)
    @example(FLAT)
    def test_verdict_equals_the_chain_oracle(self, E):
        assert one_pass_verdict(E) == is_nondegenerate(E)

    def test_seeded_draws_include_both_verdicts(self):
        rng = random.Random(12)
        verdicts = []
        for _ in range(60):
            n = rng.randint(3, 7)
            E = assignment(
                n, [Fraction(16 + rng.randint(-8, 8), 16) for _ in subsets_colex(n + 1, 2)]
            )
            verdicts.append(one_pass_verdict(E))
            assert verdicts[-1] == is_nondegenerate(E)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("spoil", [None, (1, 2), (2, 4), (3, 4)])
    def test_pivots_are_the_chain_determinants(self, monkeypatch, n, spoil):
        """Minor k of the row-swapped D is -det CM{1..k}, also at a rejected
        point."""
        E = perturbed_regular(n, [1, -2, 0, 2, -1])
        if spoil is not None:
            E = with_squared(E, spoil, Fraction(5))
        eliminations = []
        monkeypatch.setattr(
            geometry_mod,
            "det_adjugate",
            lambda m: eliminations.append(det_adjugate(m)) or eliminations[-1],
        )
        try:
            simplex_det_adjugate(E)
        except ValueError:
            assert not is_nondegenerate(E)
        [(minors, _)] = eliminations
        assert len(minors) == n + 2
        for k in range(2, n + 2):
            chain = cayley_menger_matrix(E, tuple(range(1, k + 1)))
            assert minors[k] == -det_fraction_free(chain)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_adjugate_identity(self, n):
        """D adj D = adj D D = det D I, the products by their definition."""
        for E in (EdgeLengthAssignment.regular(n), perturbed_regular(n, [2, -1, 0, 1, -2])):
            det, adj = simplex_det_adjugate(E)
            d = cayley_menger_matrix(E, range(1, n + 2))
            assert det == det_fraction_free(d) != 0
            scalar = identity(n + 2).scaled(det)
            assert matmul_by_definition(d, adj) == scalar
            assert matmul_by_definition(adj, d) == scalar

    @pytest.mark.parametrize("E", [SPOILED, FLAT])
    def test_rejects_degenerate(self, E):
        with pytest.raises(ValueError):
            simplex_det_adjugate(E)


class TestAssignment:
    def test_requires_all_edges(self):
        with pytest.raises(ValueError):
            EdgeLengthAssignment(4, {(1, 2): Fraction(1)})

    def test_counts_keys_before_listing_edges(self, monkeypatch):
        """A wrong key count, extra keys included, is refused before the
        edges of the claimed n are listed."""
        extra = {e: 1 for e in subsets_colex(5, 2)} | {(1, 9): 1}

        def unlisted(*args):
            raise AssertionError("edges were listed")

        monkeypatch.setattr(geometry_mod, "subsets_colex", unlisted)
        with pytest.raises(ValueError, match="^expected 500000500000 edge keys for n=1000000, got 1$"):
            EdgeLengthAssignment(10**6, {(1, 2): 1})
        with pytest.raises(ValueError, match="^expected 10 edge keys for n=4, got 11$"):
            EdgeLengthAssignment(4, extra)

    def test_requires_positive(self):
        sq = {e: Fraction(1) for e in subsets_colex(5, 2)}
        for bad in (Fraction(0), Fraction(-1, 3), 0, -2):
            sq[(1, 2)] = bad
            with pytest.raises(ValueError):
                EdgeLengthAssignment(4, sq)

    def test_keeps_fractions_and_converts_the_rest(self):
        q = Fraction(17, 16)
        sq = {e: 1 for e in subsets_colex(4, 2)}
        sq[(1, 2)] = q
        E = EdgeLengthAssignment(3, sq)
        assert E.squared_lengths[(1, 2)] is q
        assert type(E.squared_lengths[(3, 4)]) is Fraction
        assert E.squared_lengths[(3, 4)] == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            EdgeLengthAssignment(2, {(1, 2): Fraction(1)})
