"""Exact rational linear algebra kernel.

Scalars are stdlib `fractions.Fraction` (always lowest terms, positive
denominator), matrices are immutable dense arrays of them. Everything here is
exact; there is no floating-point code path in this module.

Determinants use Bareiss fraction-free elimination on denominator-cleared
integer rows, so intermediate values stay integers of bounded size instead of
rationals with growing gcd cost. Characteristic polynomials use the
Faddeev-LeVerrier recurrence on the denominator-cleared integer matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def format_rational(x: Fraction | int) -> str:
    """Render ``p/q`` in lowest terms, omitting ``/1``. Bit-exact and stable."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts ``p`` or ``p/q``."""
    return Fraction(s)


def exact_sqrt(x: Fraction) -> Fraction | None:
    """The exact rational square root of ``x``, or None if irrational."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class RationalMatrix:
    """Immutable dense matrix over exact rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("rows have unequal lengths")
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0])

    @classmethod
    def identity(cls, k: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self!r} vs {other!r}")

    def scaled(self, c: Fraction | int) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.rows])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self.rows))

    def mul_vector(self, v: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace needs a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self.rows == tuple(zip(*self.rows))

    def shifted(self, lam: Fraction | int) -> "RationalMatrix":
        """self - lam * I."""
        if self.nrows != self.ncols:
            raise ValueError("shift needs a square matrix")
        lam = Fraction(lam)
        return RationalMatrix(
            [
                [x - lam if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(self.rows)
            ]
        )


class Polynomial:
    """Dense univariate polynomial over exact rationals, coefficients stored
    in ascending degree with no trailing zeros (the zero polynomial is (0,))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, roots: Iterable[Fraction | int]) -> "Polynomial":
        """Monic polynomial with the given roots (with multiplicity)."""
        p = cls([1])
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(format_rational(c) for c in self.coeffs)
        return f"Polynomial([{terms}])"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([0])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ValueError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = other.coeffs
        dd = other.degree
        lead = dc[-1]
        qlen = len(rem) - dd
        if qlen <= 0:
            return Polynomial([0]), Polynomial(rem)
        quot = [Fraction(0)] * qlen
        for i in range(qlen - 1, -1, -1):
            f = rem[i + dd] / lead
            quot[i] = f
            if f:
                for j, c in enumerate(dc):
                    rem[i + j] -= f * c
        return Polynomial(quot), Polynomial(rem[:dd] if dd else [0])


def _integer_rows(m: RationalMatrix) -> tuple[list[list[int]], Fraction]:
    """Clear denominators row by row; returns integer rows and the product of
    the row multipliers (so det(m) = det(int rows) / product)."""
    rows = []
    scale = Fraction(1)
    for row in m.rows:
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        rows.append([int(x * mult) for x in row])
    return rows, scale


def det_fraction_free(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss one-step fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    n = m.nrows
    a, scale = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k][k]
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                # Sylvester's identity guarantees this division is exact.
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1]) / scale


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    a = [list(row) for row in m.rows]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        inv = 1 / prow[c]
        for i in range(r + 1, nr):
            f = a[i][c]
            if f:
                f *= inv
                arow = a[i]
                for j in range(c, nc):
                    arow[j] -= f * prow[j]
        r += 1
        if r == nr:
            break
    return r


def eigen_multiplicity(m: RationalMatrix, lam: Fraction | int) -> int:
    """dim ker(m - lam*I), exact."""
    if m.nrows != m.ncols:
        raise ValueError("eigenvalue multiplicity needs a square matrix")
    return m.nrows - rank(m.shifted(lam))


def _charpoly_ints(a: list[list[int]], n: int) -> list[int]:
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    c = -sum(a[i][i] for i in range(n))
    coeffs[n - 1] = c
    rng = range(n)
    for k in range(2, n + 1):
        newm = []
        for i in rng:
            arow = a[i]
            newm.append(
                [sum(arow[t] * mat[t][j] for t in rng) + (c if i == j else 0) for j in rng]
            )
        mat = newm
        t = sum(a[i][j] * mat[j][i] for i in rng for j in rng)
        q, r = divmod(-t, k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        c = q
        coeffs[n - k] = c
    return coeffs


def char_poly(m: RationalMatrix) -> Polynomial:
    """Characteristic polynomial det(x*I - m), monic, via Faddeev-LeVerrier.

    With d the lcm of the denominators, d*m is an integer matrix and its
    coefficient of x^k is d^(n-k) times that of m."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.nrows
    d = math.lcm(*(x.denominator for row in m.rows for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.rows]
    coeffs = _charpoly_ints(a, n)
    return Polynomial(Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs))


def poly_divides(d: Polynomial, p: Polynomial) -> bool:
    """True iff d divides p exactly (zero remainder)."""
    if d.is_zero:
        raise ValueError("zero divisor polynomial")
    _, rem = divmod(p, d)
    return rem.is_zero
