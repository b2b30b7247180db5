"""Independent oracles and shared hypothesis strategies for the test suite.

Every derived expected value in the tests is computed by one of these slow,
obviously-correct routes (cofactor expansion, symbolic row reduction via
sympy, Heron's formula, exact difference quotients) and then compared against
both the frozen literal and the library implementation.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import strategies as st

from facevol.linalg import Polynomial, RationalMatrix


def rationals(max_num: int = 9, max_den: int = 5) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def square_matrices(min_side: int = 1, max_side: int = 4) -> st.SearchStrategy[RationalMatrix]:
    def build(side: int) -> st.SearchStrategy[RationalMatrix]:
        return st.lists(
            st.lists(rationals(), min_size=side, max_size=side),
            min_size=side,
            max_size=side,
        ).map(RationalMatrix)

    return st.integers(min_value=min_side, max_value=max_side).flatmap(build)


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * x * cofactor_det(minor)
    return total


def matmul_by_definition(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Entry (i, j) is the Fraction sum of a[i, t] * b[t, j] over t."""
    inner = range(a.ncols)
    return RationalMatrix(
        [
            [sum((a[i, t] * b[t, j] for t in inner), Fraction(0)) for j in range(b.ncols)]
            for i in range(a.nrows)
        ]
    )


def charpoly_by_cofactors(m: RationalMatrix) -> Polynomial:
    """det(x*I - m) expanded over polynomial entries: an elimination-free
    second route to the characteristic polynomial."""
    n = m.nrows

    def poly_det(entries: list[list[Polynomial]]) -> Polynomial:
        k = len(entries)
        if k == 1:
            return entries[0][0]
        total = Polynomial([0])
        for j, p in enumerate(entries[0]):
            if p.is_zero:
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in entries[1:]]
            term = p * poly_det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    entries = [
        [
            Polynomial([-m[i, j], 1]) if i == j else Polynomial([-m[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return poly_det(entries)


def poly_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Schoolbook long division: (q, r) with p = q*d + r and deg r < deg d."""
    if d.is_zero:
        raise ValueError("polynomial division by zero")
    rem = list(p.coeffs)
    dc = d.coeffs
    dd = d.degree
    qlen = len(rem) - dd
    if qlen <= 0:
        return Polynomial([0]), Polynomial(rem)
    quot = [Fraction(0)] * qlen
    for i in range(qlen - 1, -1, -1):
        f = rem[i + dd] / dc[-1]
        quot[i] = f
        if f:
            for j, c in enumerate(dc):
                rem[i + j] -= f * c
    return Polynomial(quot), Polynomial(rem[:dd] if dd else [0])


def poly_divides(d: Polynomial, p: Polynomial) -> bool:
    """True iff d divides p exactly (zero remainder)."""
    if d.is_zero:
        raise ValueError("zero divisor polynomial")
    return poly_divmod(p, d)[1].is_zero


def evaluate_at_matrix(p: Polynomial, m: RationalMatrix) -> RationalMatrix:
    """Horner evaluation of p with the square matrix m substituted for x."""
    identity = RationalMatrix.identity(m.nrows)
    acc = identity.scaled(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m + identity.scaled(c)
    return acc


def to_sympy(m: RationalMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows]
    )


def sympy_rank(m: RationalMatrix) -> int:
    return to_sympy(m).rank()


def sympy_det(m: RationalMatrix) -> Fraction:
    d = to_sympy(m).det()
    return Fraction(int(d.p), int(d.q))


def heron_squared_area(x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """Squared triangle area from the squared side lengths."""
    return (2 * (x * y + y * z + z * x) - x * x - y * y - z * z) / 16
