import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import facevol.geometry as geometry_mod
import facevol.jacobian as jacobian_mod
import facevol.report as report_mod
from facevol.exceptions import IntegrityError
from facevol.geometry import (
    EdgeLengthAssignment,
    cayley_menger_matrix,
    simplex_det_adjugate,
    squared_volume,
)
from facevol.jacobian import (
    _sample_point,
    fd_crosscheck,
    independence_certificate,
    jacobian_squared_map,
    scaled_jacobian_at_regular,
)
from facevol.linalg import RationalMatrix, det_adjugate, det_fraction_free
from facevol.report import FD_STEP, FD_TOLERANCE
from facevol.subsets import build_incidence_matrix, subsets_colex

from oracles import (
    d_sqvol_d_sqlen,
    fd_deviation_by_edge,
    identity,
    is_nondegenerate,
    jacobian_by_face_adjugates,
    sympy_rank,
    with_squared,
)


def exact_central_difference(E, face, edge, h=Fraction(1, 7)):
    """Independent derivative oracle: the squared volume is a polynomial of
    degree <= 2 in each squared length, so the exact rational central
    difference equals the derivative for any step."""
    up = squared_volume(with_squared(E, edge, E.squared(*edge) + h), face)
    down = squared_volume(with_squared(E, edge, E.squared(*edge) - h), face)
    return (up - down) / (2 * h)


def seeded_point(n, seed, spread=2):
    rng = random.Random(seed)
    sq = {
        e: Fraction(16 + rng.randint(-spread, spread), 16)
        for e in subsets_colex(n + 1, 2)
    }
    return EdgeLengthAssignment(n, sq)


def mixed_denominator_points():
    """Points at n = 3..6 whose squared lengths, near 1, have denominators
    1, 3, 5 and 7; a few are degenerate."""
    values = st.sampled_from([Fraction(x) for x in ("1", "2/3", "4/3", "4/5", "7/5", "6/7", "8/7")])

    def build(n):
        edges = subsets_colex(n + 1, 2)
        lists = st.lists(values, min_size=len(edges), max_size=len(edges))
        return lists.map(lambda sq: EdgeLengthAssignment(n, dict(zip(edges, sq))))

    return st.integers(min_value=3, max_value=6).flatmap(build)


class TestPartials:
    def test_unit_triangle_edge(self):
        E = EdgeLengthAssignment.regular(4)
        # Heron: 16 V^2 = 2xy + 2yz + 2zx - x^2 - y^2 - z^2, so at x=y=z=1
        # the partial in each variable is (2 + 2 - 2)/16 = 1/8
        assert exact_central_difference(E, (1, 2, 3), (1, 2)) == Fraction(1, 8)
        assert d_sqvol_d_sqlen(E, (1, 2, 3), (1, 2)) == Fraction(1, 8)

    def test_disjoint_edge_is_zero(self):
        E = EdgeLengthAssignment.regular(4)
        assert d_sqvol_d_sqlen(E, (1, 2, 3), (4, 5)) == 0

    def test_triangle_symmetry(self):
        E = EdgeLengthAssignment.regular(4)
        partials = {
            d_sqvol_d_sqlen(E, (1, 2, 3), e) for e in [(1, 2), (1, 3), (2, 3)]
        }
        assert partials == {Fraction(1, 8)}

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(1, 2, 3), (1, 3, 5), (2, 4, 5)]),
        st.sampled_from([(1, 2), (1, 3), (3, 5), (4, 5), (2, 4)]),
    )
    def test_matches_exact_difference_quotient(self, seed, face, edge):
        E = seeded_point(4, seed)
        assert d_sqvol_d_sqlen(E, face, edge) == exact_central_difference(
            E, face, edge
        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_euler_homogeneity_identity(self, n):
        # degree n-2 homogeneity of the squared volume in the squared lengths
        for seed in (0, 1):
            E = seeded_point(n, seed)
            for face in list(subsets_colex(n + 1, n - 1))[:4]:
                total = sum(
                    E.squared(*e) * d_sqvol_d_sqlen(E, face, e)
                    for e in subsets_colex(n + 1, 2)
                )
                assert total == (n - 2) * squared_volume(E, face)


class TestJacobianMatrix:
    def test_regular_n4_entries(self):
        jac = jacobian_squared_map(EdgeLengthAssignment.regular(4))
        m = build_incidence_matrix(4)
        assert jac == m.scaled(Fraction(1, 8))

    def test_regular_n3_identity(self):
        jac = jacobian_squared_map(EdgeLengthAssignment.regular(3))
        assert jac == identity(6)

    def test_sparsity_equals_incidence_support(self):
        E = seeded_point(4, 99)
        jac = jacobian_squared_map(E)
        m = build_incidence_matrix(4)
        for i in range(10):
            for j in range(10):
                assert (jac[i, j] != 0) == (m[i, j] == 1)

    def test_rejects_degenerate(self):
        E = with_squared(EdgeLengthAssignment.regular(4), (1, 2), Fraction(100))
        with pytest.raises(ValueError):
            jacobian_squared_map(E)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_equals_entrywise_partials(self, n):
        """The per-face adjugate Jacobian against one cofactor per entry."""
        for E in (EdgeLengthAssignment.regular(n), seeded_point(n, 1), seeded_point(n, 2)):
            assert is_nondegenerate(E)
            expected = RationalMatrix(
                [
                    [d_sqvol_d_sqlen(E, f, e) for e in subsets_colex(n + 1, 2)]
                    for f in subsets_colex(n + 1, n - 1)
                ]
            )
            assert jacobian_squared_map(E) == expected

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equals_per_face_adjugates(self, n):
        """The Jacobian from one adjugate of the whole simplex's matrix equals
        the one from an adjugate of every face's own matrix."""
        for E in (EdgeLengthAssignment.regular(n), seeded_point(n, n), seeded_point(n, 50 + n)):
            assert jacobian_squared_map(E) == jacobian_by_face_adjugates(E)

    @settings(max_examples=25, deadline=None)
    @given(mixed_denominator_points())
    def test_mixed_denominators_equal_per_face_adjugates(self, E):
        """Squared lengths over unlike denominators give adj(D) and det(D)
        their own denominators, which every entry must carry."""
        assume(is_nondegenerate(E))
        assert jacobian_squared_map(E) == jacobian_by_face_adjugates(E)


class TestScaledJacobian:
    def test_entry_arithmetic_n4(self):
        # per-entry: (n-1)/(2 F^2) * dV^2 = 3 * (1/8) / (2 * 3/16) = 1
        scale = Fraction(3) / (2 * Fraction(3, 16))
        assert scale * Fraction(1, 8) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equals_incidence_matrix(self, n):
        assert scaled_jacobian_at_regular(n) == build_incidence_matrix(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            scaled_jacobian_at_regular(2)


def regular_only(E):
    """simplex_det_adjugate that finds every point but the regular one
    degenerate."""
    if E != EdgeLengthAssignment.regular(E.n):
        raise ValueError("degenerate edge-length assignment")
    return simplex_det_adjugate(E)


class TestIndependenceCertificate:
    def test_n4_regular_point_only(self):
        # the incidence determinant is 48, so rank 10 is forced
        m = build_incidence_matrix(4)
        assert det_fraction_free(m) != 0
        cert = independence_certificate(4)
        assert cert.ranks == (10,)
        assert cert.full_rank == 10
        assert cert.verdict
        assert cert.scaling_constant_squared == Fraction(1, 12)

    def test_n3_identity(self):
        cert = independence_certificate(3)
        assert cert.ranks == (6,)
        assert cert.verdict

    def test_n4_three_samples_seed_42(self):
        cert = independence_certificate(4, extra_samples=3, seed=42)
        assert len(cert.points) == 4
        assert cert.ranks == (10, 10, 10, 10)
        assert cert.verdict

    def test_deterministic_given_seed(self):
        a = independence_certificate(4, extra_samples=3, seed=42)
        b = independence_certificate(4, extra_samples=3, seed=42)
        assert a == b
        c = independence_certificate(4, extra_samples=3, seed=43)
        assert c.points != a.points

    def test_sample_grid_and_nondegeneracy(self):
        cert = independence_certificate(5, extra_samples=2, seed=7)
        allowed = {Fraction(16 + k, 16) for k in range(-2, 3)}
        for point in cert.points[1:]:
            assert set(point.squared_lengths.values()) <= allowed

    def test_sample_shortfall_raises(self, monkeypatch):
        """A sample whose every draw is degenerate fails the certificate
        instead of being dropped."""
        monkeypatch.setattr(jacobian_mod, "simplex_det_adjugate", regular_only)
        with pytest.raises(IntegrityError, match=r"sample 0 at n=4, seed=42"):
            independence_certificate(4, extra_samples=3, seed=42)
        assert independence_certificate(4, extra_samples=0, seed=42).ranks == (10,)

    @pytest.mark.parametrize("n", [4, 6])
    def test_flipped_chain_minor_takes_the_next_draw(self, monkeypatch, n):
        """A wrong sign on any one chain minor of the first draw rejects it,
        as a degenerate draw is rejected, and the sample is the next draw
        from the same generator."""
        rng = random.Random(f"7:{n}")
        first, second = _sample_point(n, rng), _sample_point(n, rng)
        assert is_nondegenerate(first) and is_nondegenerate(second)
        assert independence_certificate(n, extra_samples=1, seed=7).points[1] == first
        first_d = cayley_menger_matrix(first, range(1, n + 2))
        for k in range(3, n + 2):

            def flipped(m, k=k):
                minors, adj = det_adjugate(m)
                if m.den == first_d.den and set(m.num) == set(first_d.num):
                    minors = minors[:k] + (-minors[k],) + minors[k + 1 :]
                return minors, adj

            monkeypatch.setattr(geometry_mod, "det_adjugate", flipped)
            cert = independence_certificate(n, extra_samples=1, seed=7)
            assert cert.points[1] == second, k

    def test_rank_agrees_with_sympy(self):
        cert = independence_certificate(4, extra_samples=1, seed=5)
        for point, rk in zip(cert.points, cert.ranks):
            assert sympy_rank(jacobian_squared_map(point)) == rk


class TestFdCrosscheck:
    @pytest.mark.parametrize("n", [4, 5])
    def test_small_deviation_at_default_step(self, n):
        E = EdgeLengthAssignment.regular(n)
        dev, largest = fd_crosscheck(E, jacobian_squared_map(E), 1e-4)
        assert dev <= FD_TOLERANCE * largest

    def test_second_order_convergence(self):
        E = EdgeLengthAssignment.regular(4)
        jac = jacobian_squared_map(E)
        coarse = fd_crosscheck(E, jac, 2e-2)[0]
        fine = fd_crosscheck(E, jac, 1e-2)[0]
        assert 3.0 < coarse / fine < 5.0

    @pytest.mark.parametrize("n", range(4, 9))
    def test_stacked_determinants_equal_the_per_edge_oracle(self, n):
        """One stacked det call per face gives the very float that two
        separate determinants per (face, edge) give."""
        for E in (EdgeLengthAssignment.regular(n), seeded_point(n, 100 + n)):
            jac = jacobian_squared_map(E)
            assert fd_crosscheck(E, jac, FD_STEP) == fd_deviation_by_edge(E, jac, FD_STEP)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_zeroed_jacobian_fails(self, n):
        E = EdgeLengthAssignment.regular(n)
        zero = RationalMatrix([[0] * comb(n + 1, 2)] * comb(n + 1, 2))
        dev, largest = fd_crosscheck(E, zero, FD_STEP)
        assert (dev, largest) == fd_deviation_by_edge(E, zero, FD_STEP)
        assert dev > FD_TOLERANCE * largest

    @pytest.mark.parametrize("n", range(4, 9))
    def test_entry_off_the_face_edges_fails(self, n):
        """An edge that is not on a face does not move its volume, so a
        nonzero Jacobian entry there is wrong however small the others are."""
        E = EdgeLengthAssignment.regular(n)
        jac = jacobian_squared_map(E)
        rows = [list(row) for row in jac.rows]
        # Face 0 is {1..n-1}; the edge (1, n) is the first it misses.
        rows[0][comb(n - 1, 2)] = max(rows[0])
        dev, largest = fd_crosscheck(E, RationalMatrix(rows), FD_STEP)
        assert dev > FD_TOLERANCE * largest

    def test_congruent_faces_share_their_determinants(self, monkeypatch):
        """At the regular point every face is congruent to the first: one
        determinant for its volume and one stacked call for its FD row."""
        E = EdgeLengthAssignment.regular(6)
        jac = jacobian_squared_map(E)
        det, calls = np.linalg.det, []
        monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m.shape) or det(m))
        dev, largest = fd_crosscheck(E, jac, FD_STEP)
        assert dev <= FD_TOLERANCE * largest
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("fault", ["zeroed", "perturbed", "perturbed_last"])
    def test_wrong_jacobian_fails_the_check_at_large_n(self, monkeypatch, n, fault):
        """Face volumes shrink fast with n, so an absolute bound lets a zeroed
        Jacobian pass from n = 10 on; the bound relative to the largest exact
        derivative still catches it, and a 1% error in one entry of the first
        face or of the last, which reuses the first face's float work."""
        jac = jacobian_squared_map(EdgeLengthAssignment.regular(n))
        rows = [list(row) for row in jac.rows]
        if fault == "zeroed":
            rows = [[0] * jac.ncols] * jac.nrows
        else:
            row = rows[0] if fault == "perturbed" else rows[-1]
            row[row.index(max(row))] *= Fraction(101, 100)
        monkeypatch.setattr(report_mod, "regular_jacobian", lambda m: RationalMatrix(rows))
        ok, details = report_mod._fd(n)
        assert not ok, details

    @pytest.mark.parametrize("n", [10, 12])
    def test_exact_jacobian_passes_the_check_at_large_n(self, n):
        ok, details = report_mod._fd(n)
        assert ok, details

    def test_rejects_bad_input(self):
        E = EdgeLengthAssignment.regular(4)
        jac = jacobian_squared_map(E)
        with pytest.raises(ValueError):
            fd_crosscheck(E, jac, 0.0)
        with pytest.raises(ValueError, match=r"degenerate face \(1, 2, 3\)"):
            fd_crosscheck(with_squared(E, (1, 2), Fraction(100)), jac, 1e-4)
        flat = r"degenerate face \(1, 4, 5\): float squared volume -?0$"
        with pytest.raises(ValueError, match=flat):
            fd_crosscheck(with_squared(E, (4, 5), Fraction(4)), jac, 1e-4)
        with pytest.raises(ValueError):
            fd_crosscheck(E, jacobian_squared_map(EdgeLengthAssignment.regular(5)), 1e-4)
