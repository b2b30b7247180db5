"""Exact rational linear algebra kernel.

Scalars are stdlib `fractions.Fraction`. A matrix is integer rows ``num`` over
one positive denominator ``den``, in lowest terms, and every kernel computes on
those integers directly. Fractions are made only where a value leaves a matrix:
an entry, the ``rows`` view, a trace or a kernel result. Everything here is
exact; there is no floating-point code path in this module.

- products multiply the integer rows and the denominators, in numpy int64
  when a bound on the entries proves that no sum can overflow, and in Python
  integers otherwise;
- determinants and ranks use one-step Bareiss fraction-free elimination on the
  integer rows, so intermediate values stay integer minors of bounded size
  instead of rationals with growing gcd cost;
- a rank first tries a one-directional proof mod the prime p = 8388593: if
  the integer rows have full rank mod p, some minor of that size is nonzero
  mod p, hence nonzero over the integers, so the rank over the rationals is
  full too. Anything less proves nothing, so the rank then comes from
  Bareiss elimination;
- the same elimination mod p, read for its pivots and their columns, gives
  a determinant mod p: the independent cross-check of the determinant of the
  incidence matrix, which the spectrum proves exactly;
- the adjugate uses the fraction-free Gauss-Jordan form of the same
  elimination on ``[num | I]`` with no pivot search, so its pivots are the
  leading principal minors, which it returns too;
- characteristic polynomials use the Faddeev-LeVerrier recurrence on ``num``
  and come back as a tuple of coefficients; the certification takes one of
  the 3x3 orbit divisor only, because the Gram spectrum is certified by
  explicit eigenvectors instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

import numpy as np

# The modulus of the full-rank proof, the largest prime below 2^23: a product
# of two residues is below 2^46, which leaves int64 room to delay reductions.
_PRIME = 8388593
# A product of integer matrices with inner dimension k is exact in int64 when
# max|a| * max|b| * k < 2^63: every partial sum of an entry has at most k
# terms, each of size at most max|a| * max|b|, so none overflows.
_INT64_BOUND = 2**63


def format_rational(x: Fraction | int) -> str:
    """Render ``p/q`` in lowest terms, omitting ``/1``. Bit-exact and stable."""
    if not isinstance(x, Fraction):  # a Fraction is already in lowest terms
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`: accepts only the ``p`` or ``p/q``
    it writes. Raises ValueError on anything else, a zero denominator too."""
    try:
        q = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    if format_rational(q) != s:
        raise ValueError(f"{s!r} is not written as {format_rational(q)!r}")
    return q


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
    """Immutable dense matrix over exact rationals: integer rows ``num`` over
    one positive denominator ``den``, in lowest terms (the gcd of ``den`` and
    every entry of ``num`` is 1; the zero matrix has ``den`` 1), so equal
    matrices have equal fields."""

    __slots__ = ("nrows", "ncols", "num", "den")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        data = [
            [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in rows
        ]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("rows have unequal lengths")
        # Each entry is in lowest terms, so clearing by the lcm of their
        # denominators leaves the whole matrix in lowest terms.
        den = math.lcm(*(x.denominator for row in data for x in row))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        self.den, self.nrows, self.ncols = den, len(data), len(data[0])

    @classmethod
    def _from_ints(cls, num: Iterable[Iterable[int]], den: int) -> "RationalMatrix":
        """num/den for integer rows and a positive den, in lowest terms."""
        num = tuple(map(tuple, num))
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = cls.__new__(cls)
        m.num, m.den, m.nrows, m.ncols = num, den, len(num), len(num[0])
        return m

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        return self._from_ints(_product(self.num, other.num), self.den * other.den)

    def scaled(self, c: Fraction | int) -> "RationalMatrix":
        p, q = c.numerator, c.denominator
        return self._from_ints(([p * x for x in row] for row in self.num), q * self.den)

    def transpose(self) -> "RationalMatrix":
        return self._from_ints(zip(*self.num), self.den)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace needs a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self.num == tuple(zip(*self.num))


def _product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices given as rows; in numpy int64 when
    the entries are small enough for that to be exact."""
    # Taking both maxima at least 1 keeps every entry itself below 2^63 too.
    k = len(b)
    top_a = max(1, max(map(abs, chain.from_iterable(a))))
    top_b = max(1, max(map(abs, chain.from_iterable(b))))
    if top_a * top_b * k < _INT64_BOUND:
        return (np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)).tolist()
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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
    """Exact determinant via Bareiss one-step fraction-free elimination of
    the integer rows; det(m) = det(num) / den^k."""
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    a = [list(row) for row in m.num]
    r, sign = _bareiss(a)
    if r < m.nrows:
        return Fraction(0)
    return Fraction(sign * a[-1][-1], m.den**m.nrows)


def _eliminate_mod_p(num: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Elimination mod _PRIME of integer rows no longer than they are wide.
    Row r pivots on its first nonzero residue, in column c, and one
    subtraction clears column c below it, with no row swaps. Returns the
    pivot residues and their columns, row by row, up to the first row with
    no nonzero residue left. Only row r and column c are reduced (delayed
    reduction: Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008). Each step
    subtracts products of residues below 2^46, so entries stay below 2^63
    for fewer than 2^17 steps; 2^17 rows would hold at least 2^34 residues,
    128 GiB."""
    a = np.array([[x % _PRIME for x in row] for row in num], dtype=np.int64)
    pivots, cols = [], []
    for r in range(len(a)):
        row = a[r] % _PRIME
        nonzero = np.flatnonzero(row)
        if not nonzero.size:
            break
        c = int(nonzero[0])
        pivot = int(row[c])
        f = a[r + 1 :, c] % _PRIME * pow(pivot, -1, _PRIME) % _PRIME
        a[r + 1 :, c:] -= np.multiply.outer(f, row[c:])
        pivots.append(pivot)
        cols.append(c)
    return pivots, cols


def _full_rank_mod_p(num: Sequence[Sequence[int]]) -> bool:
    """Whether the integer rows have full rank mod _PRIME: every row of the
    shorter side takes a pivot, and the pivots form a triangular minor that
    is nonzero mod p."""
    if len(num) > len(num[0]):
        num = tuple(zip(*num))
    return len(_eliminate_mod_p(num)[0]) == len(num)


def det_mod_p(num: Sequence[Sequence[int]]) -> int:
    """The determinant of square integer rows mod _PRIME, in 0..p-1, from one
    elimination. Row r ends with its pivot in column c_r and zeros in the
    pivot columns of the rows above it, so moving column c_r to place r
    makes the rows triangular: det = sign(r -> c_r) * prod(pivots)."""
    if len(num) != len(num[0]):
        raise ValueError("determinant needs a square matrix")
    pivots, cols = _eliminate_mod_p(num)
    if len(pivots) < len(num):
        return 0
    # A permutation of k points with c cycles has the sign (-1)^(k - c).
    cycles, seen = 0, [False] * len(cols)
    for start in range(len(cols)):
        if not seen[start]:
            cycles, j = cycles + 1, start
            while not seen[j]:
                seen[j], j = True, cols[j]
    det = (-1) ** (len(cols) - cycles)
    for pivot in pivots:
        det = det * pivot % _PRIME
    return det


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals of the integer rows, which have the rank
    of m. Full rank mod _PRIME proves full rank over the rationals and is
    returned at once; otherwise the rank comes from Bareiss elimination."""
    if _full_rank_mod_p(m.num):
        return min(m.nrows, m.ncols)
    return _bareiss([list(row) for row in m.num])[0]


def det_adjugate(m: RationalMatrix) -> tuple[tuple[Fraction, ...], RationalMatrix]:
    """Leading principal minors and adjugate of a square matrix by
    fraction-free Gauss-Jordan elimination on ``[num | I]``, with no pivot
    search. Minor k is the determinant of the leading (k+1)x(k+1) block, so
    the last one is det(m). Raises ValueError at the first zero minor.

    Each step eliminates the pivot column above and below the pivot row and
    divides by the previous pivot, exactly. The pivot of step c is the
    leading (c+1)x(c+1) minor of num (Bareiss 1968), so the left block ends
    as p*I and the right block as p*num^-1 = adj(num), with p = det(num)."""
    if m.nrows != m.ncols:
        raise ValueError("adjugate needs a square matrix")
    k = m.nrows
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m.num)]
    pivots = [1]  # the empty leading minor, then one per step
    for c in range(k):
        prow = aug[c]
        pivot, prev = prow[c], pivots[-1]
        if not pivot:
            raise ValueError(f"leading principal minor {c} of {m!r} is zero")
        for i in range(k):
            if i == c:
                continue
            f = aug[i][c]
            if f:
                aug[i] = [(x * pivot - f * y) // prev for x, y in zip(aug[i], prow)]
            elif pivot != prev:
                aug[i] = [x * pivot // prev for x in aug[i]]
        pivots.append(pivot)
    # m = num/d, so a leading minor of side j is that of num over d^j, and
    # adj(m) = adj(num) / d^(k-1).
    minors = tuple(Fraction(p, m.den**j) for j, p in enumerate(pivots[1:], 1))
    return minors, RationalMatrix._from_ints((row[k:] for row in aug), m.den ** (k - 1))


def _charpoly_ints(a: Sequence[Sequence[int]], n: int) -> list[int]:
    """Faddeev-LeVerrier on an integer matrix: M_k = a M_(k-1) + c_(n-k+1) I
    from M_0 = 0, and c_(n-k) = -tr(a M_k) / k, an exact division."""
    coeffs = [0] * n + [1]
    mat = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mat = _product(a, mat)
        for i in range(n):
            mat[i][i] += coeffs[n - k + 1]
        t = sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*mat))))
        q, r = divmod(-t, k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        coeffs[n - k] = q
    return coeffs


def char_poly(m: RationalMatrix) -> tuple[Fraction, ...]:
    """Coefficients of the characteristic polynomial det(x*I - m), in
    ascending degree and monic, via Faddeev-LeVerrier.

    m = num/d, and the coefficient of x^k for m is d^-(n-k) times that for
    the integer matrix num."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.nrows
    coeffs = _charpoly_ints(m.num, n)
    return tuple(Fraction(c, m.den ** (n - k)) for k, c in enumerate(coeffs))
