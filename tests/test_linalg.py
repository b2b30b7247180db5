import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

import facevol.linalg as linalg_mod
from facevol.linalg import (
    _PRIME,
    RationalMatrix,
    _full_rank_mod_p,
    char_poly,
    det_adjugate,
    det_fraction_free,
    det_mod_p,
    exact_sqrt,
    format_rational,
    parse_rational,
    rank,
)
from facevol.spectral import build_gram, divisor_matrix

from oracles import (
    bareiss_rank,
    charpoly_by_cofactors,
    cofactor_det,
    evaluate_at_matrix,
    gf_det,
    gf_rank,
    identity,
    matmul_by_definition,
    mul_vector,
    poly_divides,
    poly_divmod,
    rationals,
    shifted,
    square_matrices,
    sympy_rank,
)


def seeded_matrix(side, rng, max_num=6, max_den=3):
    return RationalMatrix(
        [
            [
                Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
                for _ in range(side)
            ]
            for _ in range(side)
        ]
    )


class TestDeterminant:
    def test_identity(self):
        assert det_fraction_free(identity(3)) == 1

    def test_3x3_example(self):
        m = RationalMatrix([[3, 6, 0], [1, 6, 2], [0, 4, 5]])
        assert cofactor_det([list(r) for r in m.rows]) == 36
        assert det_fraction_free(m) == 36

    def test_proportional_rows(self):
        assert det_fraction_free(RationalMatrix([[1, 2], [2, 4]])) == 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_fraction_free(RationalMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(square_matrices(max_side=4))
    def test_agrees_with_cofactor_expansion(self, m):
        assert det_fraction_free(m) == cofactor_det([list(r) for r in m.rows])

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_multiplicative(self, side, data):
        entries = st.lists(
            st.lists(rationals(max_num=4, max_den=2), min_size=side, max_size=side),
            min_size=side,
            max_size=side,
        )
        a = RationalMatrix(data.draw(entries))
        b = RationalMatrix(data.draw(entries))
        assert det_fraction_free(a @ b) == det_fraction_free(a) * det_fraction_free(b)


def entry_rows(nrows, ncols, entries=None):
    return st.lists(
        st.lists(rationals() if entries is None else entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def rational_matrices(nrows, ncols):
    return entry_rows(nrows, ncols).map(RationalMatrix)


def leading_minors(m):
    """The leading principal minors of m, each by cofactor expansion."""
    return tuple(cofactor_det([list(r[: k + 1]) for r in m.rows[: k + 1]]) for k in range(m.nrows))


class TestAdjugate:
    def test_2x2(self):
        minors, adj = det_adjugate(RationalMatrix([[1, 2], [3, 4]]))
        assert minors == (1, -2)
        assert adj == RationalMatrix([[4, -2], [-3, 1]])

    @given(square_matrices(max_side=4))
    def test_adjugate_identity(self, m):
        """A adj(A) = adj(A) A = det(A) I, with the leading minors and det(A)
        by cofactor expansion and the products by their entrywise
        definition."""
        expected = leading_minors(m)
        assume(all(expected))
        minors, adj = det_adjugate(m)
        assert minors == expected
        scalar = identity(m.nrows).scaled(expected[-1])
        assert matmul_by_definition(m, adj) == scalar
        assert matmul_by_definition(adj, m) == scalar

    @given(st.integers(2, 4).flatmap(lambda k: rational_matrices(k, k)))
    def test_singular_rejected(self, m):
        singular = RationalMatrix(m.rows[:-1] + (m.rows[0],))
        with pytest.raises(ValueError):
            det_adjugate(singular)

    @pytest.mark.parametrize(
        "rows, k", [([[0, 1], [1, 0]], 0), ([[1, 2, 3], [2, 4, 5], [1, 0, 1]], 1)]
    )
    def test_zero_leading_minor_rejected(self, rows, k):
        """There is no pivot search: a zero leading minor raises even when the
        matrix itself is nonsingular."""
        m = RationalMatrix(rows)
        minors = leading_minors(m)
        assert minors[k] == 0 and minors[-1] != 0
        with pytest.raises(ValueError, match=f"leading principal minor {k} "):
            det_adjugate(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_adjugate(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


class TestCharPoly:
    def test_identity_2x2(self):
        # x^2 - 2x + 1
        assert char_poly(identity(2)) == (1, -2, 1)

    def test_zero_2x2(self):
        assert char_poly(RationalMatrix([[0, 0], [0, 0]])) == (0, 0, 1)

    def test_divisor_n4(self):
        # x^3 - 14x^2 + 49x - 36, cross-checked by polynomial cofactor expansion
        d = divisor_matrix(4)
        expected = (-36, 49, -14, 1)
        assert charpoly_by_cofactors(d) == expected
        assert char_poly(d) == expected

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            char_poly(RationalMatrix([[1, 2]]))

    @given(square_matrices(max_side=4))
    def test_agrees_with_cofactor_route(self, m):
        assert char_poly(m) == charpoly_by_cofactors(m)

    @pytest.mark.parametrize("side", [5])
    def test_agrees_with_cofactor_route_side5(self, side):
        rng = random.Random(2024)
        for _ in range(3):
            m = seeded_matrix(side, rng)
            assert char_poly(m) == charpoly_by_cofactors(m)

    @pytest.mark.parametrize("side", range(1, 7))
    def test_cayley_hamilton(self, side):
        rng = random.Random(side)
        for _ in range(3):
            m = seeded_matrix(side, rng)
            assert evaluate_at_matrix(char_poly(m), m).is_zero_matrix


class TestRank:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_identity(self, k):
        assert rank(identity(k)) == k

    def test_all_ones(self):
        assert rank(RationalMatrix([[1, 1, 1]] * 3)) == 1

    def test_gram_shift_nullity(self):
        gram_shift = shifted(build_gram(4), 1)
        assert sympy_rank(gram_shift) == 5
        assert rank(gram_shift) == 5

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_rank_nullity(self, nr, nc, data):
        m = RationalMatrix(
            data.draw(
                st.lists(
                    st.lists(rationals(max_num=3, max_den=2), min_size=nc, max_size=nc),
                    min_size=nr,
                    max_size=nr,
                )
            )
        )
        r = rank(m)
        assert r == sympy_rank(m)
        nullity = m.ncols - r
        assert r + nullity == m.ncols
        assert 0 <= r <= min(nr, nc)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_agrees_with_bareiss_only(self, nr, inner, nc, data):
        """Integer and rational entries, entries above 2^64 and multiples of
        the prime; a product through ``inner`` columns caps the rank, so
        deficient matrices take the fallback."""
        entries = st.one_of(
            st.integers(min_value=-2, max_value=2),
            rationals(),
            st.integers(min_value=2**64, max_value=2**80).map(lambda x: x * (-1) ** x),
            st.integers(min_value=-3, max_value=3).map(lambda k: k * _PRIME),
        )

        def draw(r, c):
            rows = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
            return RationalMatrix(data.draw(rows))

        m = draw(nr, nc)
        if data.draw(st.booleans()):
            m = draw(nr, inner) @ draw(inner, nc)
        assert rank(m) == bareiss_rank(m)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[_PRIME, 0], [0, 1]], 2),
            ([[_PRIME, 2 * _PRIME, 3 * _PRIME], [1, 2, 4]], 2),
            ([[Fraction(_PRIME, 2), 0], [0, 1]], 2),
            ([[1, 1], [1, 1 + _PRIME], [2, 2]], 2),
        ],
    )
    def test_rank_that_drops_mod_p_comes_from_the_fallback(self, rows, expected):
        m = RationalMatrix(rows)
        assert not _full_rank_mod_p(m.num)
        assert rank(m) == bareiss_rank(m) == expected


class TestFullRankModP:
    def test_prime_premises(self):
        """The modulus is prime, a residue fits in 23 bits, and 2^17 steps of
        delayed reduction keep every entry below 2^63."""
        assert sympy.isprime(_PRIME)
        assert _PRIME < 2**23
        assert 2**17 * (_PRIME - 1) ** 2 + _PRIME < 2**63

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.data(),
    )
    def test_agrees_with_gf_p_rank(self, nr, inner, nc, data):
        """Wide, tall and square integer matrices, often of planted rank: a
        product through ``inner`` columns caps the rank. A multiple of the
        prime added to an entry, some above 2^63, changes only its size, so
        the rank over the rationals can be full while the rank mod p is not."""
        small = st.integers(min_value=-3, max_value=3)
        huge = st.integers(min_value=2**63, max_value=2**80).map(lambda x: x * (-1) ** x)

        def draw(r, c, cells):
            rows = st.lists(st.lists(cells, min_size=c, max_size=c), min_size=r, max_size=r)
            return RationalMatrix(data.draw(rows))

        if data.draw(st.booleans()):
            base = draw(nr, inner, small) @ draw(inner, nc, small)
        else:
            base = draw(nr, nc, st.one_of(small, huge))
        lift = st.one_of(st.just(0), small, huge)
        num = [[x + data.draw(lift) * _PRIME for x in row] for row in base.num]
        assert _full_rank_mod_p(num) == (gf_rank(num) == min(nr, nc))

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.data(),
    )
    def test_det_agrees_with_gf_p_det(self, side, inner, data):
        """Square integer matrices, singular by construction when a product
        through ``inner`` < ``side`` columns makes them, with entries that are
        multiples of the prime or above 2^63. Their columns are permuted, so
        that the pivot columns come out of order and their sign matters."""
        small = st.integers(min_value=-3, max_value=3)
        huge = st.integers(min_value=2**63, max_value=2**80).map(lambda x: x * (-1) ** x)
        multiple = small.map(lambda k: k * _PRIME)

        def draw(r, c, cells):
            rows = st.lists(st.lists(cells, min_size=c, max_size=c), min_size=r, max_size=r)
            return RationalMatrix(data.draw(rows))

        if data.draw(st.booleans()):
            base = draw(side, inner, small) @ draw(inner, side, small)
        else:
            base = draw(side, side, st.one_of(small, huge, multiple))
        order = data.draw(st.permutations(range(side)))
        lift = st.one_of(st.just(0), small, huge)
        num = [[row[j] + data.draw(lift) * _PRIME for j in order] for row in base.num]
        assert det_mod_p(num) == gf_det(num)

    def test_det_of_a_transposition_is_minus_one(self):
        assert det_mod_p([[0, 1], [1, 0]]) == _PRIME - 1
        assert det_mod_p([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


class TestEigenMultiplicity:
    def test_identity(self):
        assert 4 - rank(shifted(identity(4), 1)) == 4

    def test_gram_n4(self):
        gram = build_gram(4)
        assert gram.nrows - rank(shifted(gram, 4)) == 4
        assert gram.nrows - rank(shifted(gram, 7)) == 0


class TestPolynomials:
    def test_divides_trivial(self):
        assert poly_divides((-1, 1), (-1, 0, 1))
        assert not poly_divides((0, 0, 1), (0, 1))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            poly_divides((0,), (1, 1))

    def test_divisor_charpoly_divides_gram_charpoly(self):
        assert poly_divides(char_poly(divisor_matrix(4)), char_poly(build_gram(4)))

    @given(
        st.lists(rationals(), min_size=1, max_size=5),
        st.lists(rationals(), min_size=1, max_size=4),
    )
    def test_divmod_reconstructs(self, p, d):
        if not any(d):
            return
        q, r = poly_divmod(p, d)
        qd = [Fraction(0)] * (len(q) + len(d) - 1)
        for i, a in enumerate(q):
            for j, b in enumerate(d):
                qd[i + j] += a * b
        p_minus_r = [a - b for a, b in zip_longest(p, r, fillvalue=0)]
        assert all(a == b for a, b in zip_longest(qd, p_minus_r, fillvalue=0))
        degree_d = max(i for i, c in enumerate(d) if c)
        assert not any(r) or len(r) - 1 < degree_d


class TestRationalFormat:
    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-5)) == "-5"
        assert format_rational(7) == "7"

    @given(rationals(max_num=100, max_den=40))
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize(
        "text", [" 96/2 ", "0.083333e0", "34/32", "2/1", "+3", "-0", "1_0", "3/-4", "1/0"]
    )
    def test_rejects_what_format_never_writes(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_exact_sqrt(self):
        assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert exact_sqrt(Fraction(2)) is None
        assert exact_sqrt(Fraction(-1)) is None


class TestMatrixBasics:
    def test_constructor_rejects_ragged(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_constructor_rejects_empty(self):
        with pytest.raises(ValueError):
            RationalMatrix([])

    @given(
        st.tuples(*[st.integers(1, 4)] * 3).flatmap(
            lambda s: st.tuples(
                rational_matrices(s[0], s[1]), rational_matrices(s[1], s[2])
            )
        )
    )
    def test_matmul_agrees_with_definition(self, ab):
        a, b = ab
        assert a @ b == matmul_by_definition(a, b)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("above, int64", [(0, True), (1, False)])
    def test_matmul_at_the_int64_bound(self, monkeypatch, sign, above, int64):
        """max|a| * max|b| * k just below 2^63 multiplies in int64 and stays
        exact; one more step takes Python integers, where int64 would wrap."""
        k, top_a = 3, 2**31
        top_b = (2**63 - 1) // (k * top_a) + above
        a = RationalMatrix([[sign * top_a] * k] * 2)
        b = RationalMatrix([[top_b] * 2] * k)
        arrays = []
        array = linalg_mod.np.array
        monkeypatch.setattr(
            linalg_mod.np, "array", lambda *args, **kw: arrays.append(args) or array(*args, **kw)
        )
        product = a @ b
        assert bool(arrays) == int64
        assert product == matmul_by_definition(a, b)
        assert abs(product[0, 0]) >= 2**63 - 2**33

    @given(st.integers(1, 3), st.integers(63, 70), st.randoms(use_true_random=False))
    def test_matmul_with_wide_entries_agrees_with_definition(self, k, bits, rng):
        a = RationalMatrix([[rng.randint(-(2**bits), 2**bits) for _ in range(k)] for _ in range(2)])
        b = RationalMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(k)])
        assert a @ b == matmul_by_definition(a, b)

    def test_matmul_shape_check(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])

    def test_transpose_and_symmetry(self):
        m = RationalMatrix([[1, 2], [2, 5]])
        assert m.is_symmetric()
        assert m.transpose() == m
        assert not RationalMatrix([[1, 2], [3, 4]]).is_symmetric()

    def test_mul_vector(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m @ RationalMatrix([[1], [1]]) == RationalMatrix([[3], [7]])
        assert mul_vector(m, (1, 1)) == (3, 7)

    def test_shifted(self):
        m = RationalMatrix([[2, 1], [1, 2]])
        assert shifted(m, 2) == RationalMatrix([[0, 1], [1, 0]])


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
any_rows = shapes.flatmap(lambda s: entry_rows(*s))
square_pairs = st.integers(1, 4).flatmap(lambda k: st.tuples(entry_rows(k, k), entry_rows(k, k)))


class TestRepresentation:
    """A matrix is integer rows num over one positive den in lowest terms;
    every operation agrees with its entrywise Fraction definition."""

    @staticmethod
    def assert_lowest_terms(m):
        assert m.den > 0
        assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
        if not any(any(row) for row in m.num):
            assert m.den == 1

    @given(any_rows, st.integers(2, 5))
    def test_spellings_give_equal_fields(self, rows, k):
        as_fractions = RationalMatrix(rows)
        unreduced = RationalMatrix(
            [[Fraction(k * x.numerator, k * x.denominator) for x in row] for row in rows]
        )
        as_strings = RationalMatrix(
            [[f"{k * x.numerator}/{k * x.denominator}" for x in row] for row in rows]
        )
        as_ints = RationalMatrix(
            [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
        )
        for m in (unreduced, as_strings, as_ints):
            assert m == as_fractions
            assert hash(m) == hash(as_fractions)
            assert (m.num, m.den) == (as_fractions.num, as_fractions.den)
        self.assert_lowest_terms(as_fractions)

    def test_spellings_of_one_half(self):
        halves = [RationalMatrix([[Fraction(2, 4), 1]]), RationalMatrix([["1/2", Fraction(1)]])]
        assert all((m.num, m.den) == (((1, 2),), 2) for m in halves)
        assert RationalMatrix([[0, Fraction(0, 7)]]).den == 1

    @given(any_rows)
    def test_rows_roundtrip(self, rows):
        m = RationalMatrix(rows)
        assert m.rows == tuple(tuple(row) for row in rows)
        assert all(type(x) is Fraction for row in m.rows for x in row)
        assert RationalMatrix(m.rows) == m
        assert all(m[i, j] == x for i, row in enumerate(rows) for j, x in enumerate(row))

    @given(square_pairs)
    def test_matmul_is_reduced(self, pair):
        a, b = (RationalMatrix(rows) for rows in pair)
        product = a @ b
        assert product == matmul_by_definition(a, b)
        self.assert_lowest_terms(product)

    @given(any_rows, rationals())
    def test_scaled_and_shifted_agree_with_definition(self, rows, c):
        m = RationalMatrix(rows)
        scaled = m.scaled(c)
        assert scaled.rows == tuple(tuple(c * x for x in row) for row in rows)
        self.assert_lowest_terms(scaled)
        if m.nrows == m.ncols:
            diagonal = shifted(m, c)
            assert diagonal.rows == tuple(
                tuple(x - c if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(rows)
            )
            self.assert_lowest_terms(diagonal)

    @given(any_rows)
    def test_transpose_trace_and_mul_vector(self, rows):
        m = RationalMatrix(rows)
        t = m.transpose()
        assert t.rows == tuple(zip(*rows))
        assert (t.num, t.den) == (tuple(zip(*m.num)), m.den)
        v = rows[0]
        product = m @ RationalMatrix([[x] for x in v])
        assert product.rows == tuple(
            (sum((x * y for x, y in zip(row, v)), Fraction(0)),) for row in rows
        )
        assert mul_vector(m, v) == tuple(x for (x,) in product.rows)
        ones = RationalMatrix([[1]] * m.ncols)
        assert (m @ ones).rows == tuple((sum(row, Fraction(0)),) for row in rows)
        if m.nrows == m.ncols:
            assert m.trace() == sum((rows[i][i] for i in range(m.nrows)), Fraction(0))

    @given(shapes.flatmap(lambda s: entry_rows(*s, st.integers(-9, 9))))
    def test_doubling_a_half_integer_matrix_clears_den(self, ints):
        halves = RationalMatrix([[Fraction(2 * x + 1, 2) for x in row] for row in ints])
        assert halves.den == 2
        doubled = halves.scaled(2)
        assert doubled.den == 1
        assert doubled.num == tuple(tuple(2 * x + 1 for x in row) for row in ints)
