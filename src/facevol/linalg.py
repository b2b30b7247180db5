"""Exact rational linear algebra kernel.

Scalars are stdlib `fractions.Fraction` (always lowest terms, positive
denominator), matrices are immutable dense arrays of them. Everything here is
exact; there is no floating-point or modular code path in this module.

The kernels clear denominators first and then work on Python integers:

- products clear them per row of the left factor and per column of the right
  factor, and divide once per entry;
- determinants and ranks use one-step Bareiss fraction-free elimination on
  integer rows (row scaling changes neither the rank nor, after dividing by
  the row multipliers, the determinant), so intermediate values stay integer
  minors of bounded size instead of rationals with growing gcd cost;
- the adjugate uses the fraction-free Gauss-Jordan form of the same
  elimination on ``[d*A | I]``, d the lcm of the denominators;
- characteristic polynomials use the Faddeev-LeVerrier recurrence on the
  denominator-cleared integer matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
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
        left = [_cleared(row) for row in self.rows]
        right = [_cleared(col) for col in zip(*other.rows)]
        return RationalMatrix(
            [
                [Fraction(sum(map(mul, a, b)), da * db) for b, db in right]
                for a, da in left
            ]
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


def _cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers d*x and d, the lcm of the denominators of xs."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _common_rows(m: RationalMatrix) -> tuple[list[list[int]], int]:
    """The integer rows of d*m and d, the lcm of all denominators of m."""
    d = math.lcm(*(x.denominator for row in m.rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m.rows], d


def _integer_rows(m: RationalMatrix) -> tuple[list[list[int]], int]:
    """Clear denominators row by row; returns integer rows and the product of
    the row multipliers (so det(m) = det(int rows) / product)."""
    rows = []
    scale = 1
    for row in m.rows:
        ints, mult = _cleared(row)
        rows.append(ints)
        scale *= mult
    return rows, scale


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """One-step Bareiss elimination of integer rows, in place, to row echelon
    form; columns without a pivot are skipped. Returns the rank and the sign
    of the row permutation. Every entry stays an integer minor of the input,
    and for a nonsingular square input the last pivot is sign * det."""
    nr, nc = len(a), len(a[0])
    r, sign, prev = 0, 1, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot = a[r][c]
        tail = a[r][c + 1 :]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            # Sylvester's identity guarantees these divisions are exact.
            if f:
                rest = zip(row[c + 1 :], tail)
                row[c:] = [0] + [(x * pivot - f * y) // prev for x, y in rest]
            elif pivot != prev:
                row[c + 1 :] = [x * pivot // prev for x in row[c + 1 :]]
        prev = pivot
        r += 1
        if r == nr:
            break
    return r, sign


def det_fraction_free(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss one-step fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    a, scale = _integer_rows(m)
    r, sign = _bareiss(a)
    if r < m.nrows:
        return Fraction(0)
    return Fraction(sign * a[-1][-1], scale)


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals by Bareiss elimination of the integer
    rows; clearing denominators row by row does not change the rank."""
    return _bareiss(_integer_rows(m)[0])[0]


def det_adjugate(m: RationalMatrix) -> tuple[Fraction, RationalMatrix]:
    """Determinant and adjugate of a nonsingular square matrix by
    fraction-free Gauss-Jordan elimination on ``[d*m | I]``, d the lcm of the
    denominators. Raises ValueError when m is singular.

    Each step eliminates the pivot column above and below the pivot row and
    divides by the previous pivot, exactly, so the left block ends as p*I and
    the right block as p*(d*m)^-1, with p = sign * det(d*m)."""
    if m.nrows != m.ncols:
        raise ValueError("adjugate needs a square matrix")
    k = m.nrows
    a, d = _common_rows(m)
    aug = [row + [int(i == j) for j in range(k)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for c in range(k):
        piv = next((i for i in range(c, k) if aug[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            sign = -sign
        prow = aug[c]
        pivot = prow[c]
        for i in range(k):
            if i == c:
                continue
            f = aug[i][c]
            if f:
                aug[i] = [(x * pivot - f * y) // prev for x, y in zip(aug[i], prow)]
            elif pivot != prev:
                aug[i] = [x * pivot // prev for x in aug[i]]
        prev = pivot
    # adj(d*m) = d^(k-1) adj(m) and det(d*m) = d^k det(m).
    scale = d ** (k - 1)
    adj = RationalMatrix([[Fraction(sign * x, scale) for x in row[k:]] for row in aug])
    return Fraction(sign * prev, scale * d), adj


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
    a, d = _common_rows(m)
    coeffs = _charpoly_ints(a, n)
    return Polynomial(Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs))


def poly_divides(d: Polynomial, p: Polynomial) -> bool:
    """True iff d divides p exactly (zero remainder)."""
    if d.is_zero:
        raise ValueError("zero divisor polynomial")
    _, rem = divmod(p, d)
    return rem.is_zero
