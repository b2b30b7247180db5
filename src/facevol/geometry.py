"""Cayley-Menger matrices and exact squared volumes of simplex faces.

Everything is computed over squared edge lengths so all values stay rational:
the squared k-volume of a face is a polynomial in the squared lengths of its
edges. Unsquared lengths and volumes appear only in the floating-point
cross-check of the jacobian module. Faces of dimension <= 0 are rejected.
One fraction-free pass over the whole simplex's Cayley-Menger matrix gives
its determinant, its adjugate and, by Sylvester's criterion, nondegeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import RationalMatrix, det_adjugate, det_fraction_free, format_rational
from .subsets import MIN_DIMENSION, subsets_colex, validate_subset


@dataclass(frozen=True)
class EdgeLengthAssignment:
    """Positive squared lengths for every edge of the (n+1)-vertex simplex."""

    n: int
    squared_lengths: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        if self.n < MIN_DIMENSION:
            raise ValueError(f"need n >= {MIN_DIMENSION}, got {self.n}")
        # Count before listing: a wrong n must not enumerate its edges.
        expected = math.comb(self.n + 1, 2)
        if len(self.squared_lengths) != expected:
            raise ValueError(
                f"expected {expected} edge keys for n={self.n}, got {len(self.squared_lengths)}"
            )
        clean = {}
        for edge in subsets_colex(self.n + 1, 2):
            if edge not in self.squared_lengths:
                raise ValueError(f"missing squared length for edge {edge}")
            v = self.squared_lengths[edge]
            if not isinstance(v, Fraction):
                v = Fraction(v)
            if v.numerator <= 0:  # the denominator is positive
                raise ValueError(f"squared length for edge {edge} must be positive")
            clean[edge] = v
        object.__setattr__(self, "squared_lengths", clean)

    @classmethod
    def regular(cls, n: int) -> "EdgeLengthAssignment":
        """All squared lengths 1: the unit regular simplex."""
        return cls(n, {e: Fraction(1) for e in subsets_colex(n + 1, 2)})

    def squared(self, u: int, w: int) -> Fraction:
        return self.squared_lengths[(u, w) if u < w else (w, u)]


def cayley_menger_matrix(E: EdgeLengthAssignment, face: Sequence[int]) -> RationalMatrix:
    """Bordered squared-distance matrix of a face: zero diagonal, ones in the
    first row and column, squared lengths elsewhere. Side |face| + 1."""
    verts = validate_subset(E.n + 1, face)
    if len(verts) < 2:
        raise ValueError(f"face needs at least 2 vertices, got {verts}")
    rows = [[0] + [1] * len(verts)]
    for u in verts:
        rows.append([1] + [0 if u == w else E.squared(u, w) for w in verts])
    return RationalMatrix(rows)


def _cm_constant(k: int) -> Fraction:
    # squared k-volume = _cm_constant(k) * det(bordered matrix)
    return Fraction((-1) ** (k + 1), 2**k * math.factorial(k) ** 2)


def squared_volume(E: EdgeLengthAssignment, face: Sequence[int]) -> Fraction:
    """Exact squared k-volume of the face spanned by k+1 vertices."""
    cm = cayley_menger_matrix(E, face)
    return _cm_constant(cm.nrows - 2) * det_fraction_free(cm)


def unit_regular_squared_volume(k: int) -> Fraction:
    """Squared k-volume of the regular simplex with unit edges."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return Fraction(k + 1, 2**k * math.factorial(k) ** 2)


def simplex_det_adjugate(E: EdgeLengthAssignment) -> tuple[Fraction, RationalMatrix]:
    """det D and adj D of the whole simplex's Cayley-Menger matrix D. Raises
    ValueError unless E is nondegenerate: every face has positive squared volume.

    Rows 0 and 1 of D swapped (P D) give leading minors -det CM{1..k}, so the
    chain face {1..k} is positive iff minor k has the sign (-1)^(k+1). By
    Sylvester's criterion a positive chain k = 3..n+1 makes every face
    positive, and a failure anywhere makes some chain value nonpositive."""
    d = cayley_menger_matrix(E, range(1, E.n + 2))
    minors, adj = det_adjugate(RationalMatrix._from_ints((d.num[1], d.num[0], *d.num[2:]), d.den))
    for k in range(3, E.n + 2):
        if (-1) ** (k + 1) * minors[k] <= 0:
            value = format_rational(minors[k])
            raise ValueError(f"degenerate edge-length assignment at n={E.n}: minor {k} is {value}")
    # adj(P D) = adj(D) adj(P) = -adj(D) P: negate, and swap columns 0 and 1 back.
    adj_d = ([-row[1], -row[0], *(-x for x in row[2:])] for row in adj.num)
    return -minors[-1], RationalMatrix._from_ints(adj_d, adj.den)
