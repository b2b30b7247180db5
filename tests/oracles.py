"""Independent oracles and shared hypothesis strategies for the test suite.

Every derived expected value in the tests is computed by one of these slow,
obviously-correct routes (cofactor expansion, symbolic row reduction via
sympy, row reduction over GF(p) by sympy's DomainMatrix, Heron's formula,
exact difference quotients, one cofactor determinant per Jacobian entry,
one pivoting adjugate per face's Cayley-Menger matrix, one Bareiss
determinant per codim-2 face volume, the nondegeneracy chain of
exact squared volumes, the closed-form colex rank, stabilizer orbits and
class indicators by set intersections, the signed 4-cycles that span the
Kneser matrix's eigenspace for 1,
report JSON through ``json.dumps``) and then compared against both the
frozen literal and the library implementation.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Any, Sequence

import numpy as np
import sympy
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from facevol.geometry import (
    EdgeLengthAssignment,
    _cm_constant,
    cayley_menger_matrix,
    squared_volume,
)
from facevol.linalg import (
    _PRIME,
    RationalMatrix,
    _eliminate_fraction_free,
    det_fraction_free,
    format_rational,
)
from facevol.subsets import subsets_colex, validate_subset


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


def identity(k: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(k)] for i in range(k)])


def shifted(m: RationalMatrix, lam: Fraction | int) -> RationalMatrix:
    """m - lam * I, entry by entry."""
    if m.nrows != m.ncols:
        raise ValueError("shift needs a square matrix")
    return RationalMatrix(
        [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    )


def dense(x: Sequence[tuple[int, int]], size: int) -> list[int]:
    """The dense row of a sparse vector given as (index, value) pairs."""
    row = [0] * size
    for j, c in x:
        row[j] = c
    return row


def rank_subset(n_total: int, s: Sequence[int]) -> int:
    """Colex rank of a k-subset: its position in ``subsets_colex``."""
    t = validate_subset(n_total, s)
    return sum(comb(v - 1, i + 1) for i, v in enumerate(t))


def intersection_class(a: Sequence[int], b: Sequence[int]) -> int:
    """|a ∩ b| for two subsets of equal cardinality."""
    ta, tb = tuple(a), tuple(b)
    if len(ta) != len(tb):
        raise ValueError(f"cardinality mismatch: {len(ta)} vs {len(tb)}")
    return len(set(ta) & set(tb))


def class_indicator(n: int, size: int) -> RationalMatrix:
    """0/1 matrix of the codim-2 face pairs that meet in ``size`` vertices,
    one set intersection per pair; size n - 1 gives the identity."""
    faces = list(combinations(range(1, n + 2), n - 1))
    faces.sort(key=lambda f: rank_subset(n + 1, f))
    return RationalMatrix([[int(intersection_class(f, g) == size) for g in faces] for f in faces])


def unit_eigenvectors(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Signed 4-cycles a-b-c-d of the complete graph on 1..m, m = n + 1, as
    sparse vectors over the codim-2 faces in colex order: +1 on the faces
    that miss the pairs ab and cd, -1 on those that miss bc and da. The
    cycles 1-c-d-2 (3 <= c < d <= m) and 1-3-2-c (4 <= c <= m), C(m,2) - m
    of them, span the kernel of the unsigned vertex-pair incidence matrix of
    K_m (Godsil & Royle, *Algebraic Graph Theory* ch. 8), which is the
    eigenspace of the Kneser matrix K for the eigenvalue 1."""
    m = n + 1
    face = {}
    for i, f in enumerate(subsets_colex(m, n - 1)):
        s, t = sorted(set(range(1, m + 1)) - set(f))
        face[s, t] = face[t, s] = i

    def cycle(a: int, b: int, c: int, d: int) -> tuple[tuple[int, int], ...]:
        return ((face[a, b], 1), (face[c, d], 1), (face[b, c], -1), (face[d, a], -1))

    return tuple(
        cycle(1, c, d, 2) for c in range(3, m + 1) for d in range(c + 1, m + 1)
    ) + tuple(cycle(1, 3, 2, c) for c in range(4, m + 1))


def level_set(table: Sequence[Sequence[int]], k: int) -> sympy.Matrix:
    """The 0/1 indicator of the entries k of a class table, in sympy."""
    return sympy.Matrix([[int(x == k) for x in row] for row in table])


def orbit_partition(n: int, base: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The three orbits of the stabilizer of the codim-2 face ``base``, as
    colex ranks: the base itself, the faces meeting it in n-2 vertices, and
    those meeting it in n-3. One set intersection per face."""
    b = set(validate_subset(n + 1, base))
    if len(b) != n - 1:
        raise ValueError(f"base must be an (n-1)-subset, got {base}")
    cells: dict[int, list[int]] = {n - 1: [], n - 2: [], n - 3: []}
    for f in combinations(range(1, n + 2), n - 1):
        cells[len(b & set(f))].append(rank_subset(n + 1, f))
    return tuple(tuple(sorted(cells[k])) for k in (n - 1, n - 2, n - 3))


def with_squared(
    E: EdgeLengthAssignment, edge: tuple[int, int], value: Fraction
) -> EdgeLengthAssignment:
    """Copy of E with the squared length of one edge replaced."""
    return EdgeLengthAssignment(E.n, {**E.squared_lengths, edge: Fraction(value)})


def d_sqvol_d_sqlen(
    E: EdgeLengthAssignment, face: tuple[int, ...], edge: tuple[int, int]
) -> Fraction:
    """Exact partial of the face's squared volume w.r.t. one squared edge
    length, from one cofactor of its Cayley-Menger matrix; zero when the edge
    is not in the face."""
    if not set(edge) <= set(face):
        return Fraction(0)
    a, b = (face.index(v) + 1 for v in edge)  # +1 skips the border row/column
    rows = cayley_menger_matrix(E, face).rows
    minor = [[x for c, x in enumerate(row) if c != b] for row in rows[:a] + rows[a + 1 :]]
    # The squared length sits in the two symmetric slots (a,b) and (b,a); the
    # derivative of the determinant is the sum of the two (equal) cofactors.
    cofactor = (-1) ** (a + b) * det_fraction_free(RationalMatrix(minor))
    return _cm_constant(len(face) - 1) * 2 * cofactor


def all_codim2_squared_volumes(E: EdgeLengthAssignment) -> tuple[Fraction, ...]:
    """Squared (n-2)-volumes of all codim-2 faces, one Bareiss determinant
    per face, in colex face-rank order."""
    return tuple(squared_volume(E, f) for f in subsets_colex(E.n + 1, E.n - 1))


def is_nondegenerate(E: EdgeLengthAssignment) -> bool:
    """True iff every face of every dimension 2..n has positive squared
    volume (the assignment realizes a full-dimensional simplex).

    Checked on the nested chain {1..m}, m = 3..n+1 only: by Sylvester's
    criterion a positive chain makes the length Gram matrix positive
    definite, which realizes affinely independent points, and then every
    face is automatically positive. A failure anywhere forces some chain
    value to be nonpositive, so the chain decides the full predicate.
    """
    for m in range(3, E.n + 2):
        if squared_volume(E, tuple(range(1, m + 1))) <= 0:
            return False
    return True


def det_adjugate_pivoting(m: RationalMatrix) -> tuple[Fraction, RationalMatrix]:
    """Determinant and adjugate of any nonsingular square matrix by
    fraction-free Gauss-Jordan elimination on ``[num | I]`` with a pivot
    search, so a zero leading minor is no obstacle. Raises ValueError when m
    is singular."""
    k = m.nrows
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m.num)]
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
    # m = num/d, so adj(m) = adj(num) / d^(k-1) and det(m) = det(num) / d^k.
    scale = m.den ** (k - 1)
    adj = RationalMatrix._from_ints(([sign * x for x in row[k:]] for row in aug), scale)
    return Fraction(sign * prev, scale * m.den), adj


def jacobian_by_face_adjugates(E: EdgeLengthAssignment) -> RationalMatrix:
    """The squared-volume Jacobian one face at a time: one adjugate of each
    face's Cayley-Menger matrix C gives the partials of all its edges by
    Jacobi's formula, d det C / d C_ab = adj(C)_ba, doubled for the two
    symmetric slots of a squared length."""
    if not is_nondegenerate(E):
        raise ValueError("degenerate edge-length assignment")
    column = {e: j for j, e in enumerate(subsets_colex(E.n + 1, 2))}
    const = 2 * _cm_constant(E.n - 2)
    rows = []
    for f in subsets_colex(E.n + 1, E.n - 1):
        adj = det_adjugate_pivoting(cayley_menger_matrix(E, f))[1]
        row = [Fraction(0)] * len(column)
        # Slot 0 is the border row/column, so vertex f[i] sits at slot i + 1.
        for (a, u), (b, w) in combinations(enumerate(f, start=1), 2):
            row[column[(u, w)]] = const * adj[b, a]
        rows.append(row)
    return RationalMatrix(rows)


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


def mul_vector(m: RationalMatrix, v: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """m v as Fractions: the integer rows of m times v over one denominator."""
    if len(v) != m.ncols:
        raise ValueError("vector length does not match column count")
    dv = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (dv // x.denominator) for x in v]
    den = m.den * dv
    return tuple(Fraction(sum(map(mul, row, ints)), den) for row in m.num)


X = sympy.Symbol("x")


def to_poly(coeffs: Sequence[Fraction | int]) -> sympy.Poly:
    """The sympy polynomial with the given ascending coefficients."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)


def from_poly(p: sympy.Poly) -> tuple[Fraction, ...]:
    """Ascending Fraction coefficients of a sympy polynomial; zero is (0,)."""
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def poly_from_roots(roots: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the monic polynomial prod (x - r)."""
    factors = [X - sympy.Rational(r.numerator, r.denominator) for r in roots]
    return from_poly(sympy.Poly(sympy.prod(factors), X))


def charpoly_by_cofactors(m: RationalMatrix) -> tuple[Fraction, ...]:
    """det(x*I - m) by Laplace expansion over polynomial entries, in sympy:
    an elimination-free second route to the characteristic polynomial."""
    det = (X * sympy.eye(m.nrows) - to_sympy(m)).det(method="laplace")
    return from_poly(sympy.Poly(det, X))


def poly_divmod(
    p: Sequence[Fraction | int], d: Sequence[Fraction | int]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(q, r) with p = q*d + r and deg r < deg d, as ascending coefficients."""
    if not any(d):
        raise ValueError("polynomial division by zero")
    q, r = sympy.div(to_poly(p), to_poly(d))
    return from_poly(q), from_poly(r)


def poly_divides(d: Sequence[Fraction | int], p: Sequence[Fraction | int]) -> bool:
    """True iff d divides p exactly (zero remainder)."""
    return not any(poly_divmod(p, d)[1])


def evaluate_at_matrix(p: Sequence[Fraction | int], m: RationalMatrix) -> sympy.Matrix:
    """Horner evaluation, in sympy, of p with the square matrix m for x."""
    acc, x, one = sympy.zeros(m.nrows), to_sympy(m), sympy.eye(m.nrows)
    for c in reversed(p):
        acc = acc * x + sympy.Rational(c.numerator, c.denominator) * one
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


def gf_rank(num: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows over GF(_PRIME), by sympy's DomainMatrix."""
    field = sympy.GF(_PRIME)
    rows = [[field(x) for x in row] for row in num]
    return DomainMatrix(rows, (len(rows), len(rows[0])), field).rank()


def gf_det(num: Sequence[Sequence[int]]) -> int:
    """Determinant of square integer rows over GF(_PRIME), by sympy's
    DomainMatrix, as a residue in 0..p-1."""
    field = sympy.GF(_PRIME)
    rows = [[field(x) for x in row] for row in num]
    return int(DomainMatrix(rows, (len(rows), len(rows)), field).det()) % _PRIME


def bareiss_rank(m: RationalMatrix) -> int:
    """Rank by fraction-free elimination alone, with no modular shortcut."""
    return len(_eliminate_fraction_free([list(row) for row in m.num], m.ncols)[0])


def _float_face_volume(sq: dict[tuple[int, int], float], face: Sequence[int]) -> float:
    k = len(face) - 1
    side = k + 2
    mat = np.ones((side, side))
    mat[0, 0] = 0.0
    for i, u in enumerate(face):
        for j, w in enumerate(face):
            mat[i + 1, j + 1] = 0.0 if u == w else sq[(u, w) if u < w else (w, u)]
    v2 = (-1) ** (k + 1) / (2**k * math.factorial(k) ** 2) * np.linalg.det(mat)
    return math.sqrt(max(v2, 0.0))


def fd_deviation_by_edge(
    E: EdgeLengthAssignment, jac: RationalMatrix, step: float
) -> tuple[float, float]:
    """The finite-difference deviation and derivative scale of
    ``fd_crosscheck``, one edge at a time: two float Cayley-Menger
    determinants per (face, edge) pair."""
    faces = subsets_colex(E.n + 1, E.n - 1)
    edges = subsets_colex(E.n + 1, 2)
    base_sq = {e: float(v) for e, v in E.squared_lengths.items()}
    worst = largest = 0.0
    for i, face in enumerate(faces):
        fs = set(face)
        fvol = _float_face_volume(base_sq, face)
        for j, edge in enumerate(edges):
            if not fs.issuperset(edge):
                continue
            elen = math.sqrt(base_sq[edge])
            exact = elen / fvol * float(jac[i, j])
            perturbed = dict(base_sq)
            perturbed[edge] = (elen + step) ** 2
            up = _float_face_volume(perturbed, face)
            perturbed[edge] = (elen - step) ** 2
            down = _float_face_volume(perturbed, face)
            worst = max(worst, abs((up - down) / (2 * step) - exact))
            largest = max(largest, abs(exact))
    return worst, largest


def heron_squared_area(x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """Squared triangle area from the squared side lengths."""
    return (2 * (x * y + y * z + z * x) - x * x - y * y - z * z) / 16


def to_json(x: Any) -> Any:
    """A report value as the JSON document it stands for: a dataclass is an
    object keyed by its fields (``metadata["json"]`` renames a key), a
    Fraction a "p/q" string, a tuple a list, and an edge map has "i,j" keys."""
    if x is None or isinstance(x, (int, str)):  # bool is an int
        return x
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, tuple):
        return [to_json(v) for v in x]
    if isinstance(x, Mapping):
        return {",".join(map(str, k)): to_json(v) for k, v in x.items()}
    return {f.metadata.get("json", f.name): to_json(getattr(x, f.name)) for f in fields(x)}


def report_json(r) -> dict:
    """to_json of a report plus its derived keys: overall_pass just before
    the checks and the report-wide discrepancies last."""
    items = list(to_json(r).items())
    at = [key for key, _ in items].index("checks")
    items[at:at] = [("overall_pass", r.overall_pass)]
    return dict(items + [("discrepancies", to_json(r.discrepancies))])


def serialize_report_by_json_dumps(r) -> str:
    """The canonical JSON of one report, written by ``json.dumps(indent=2)``."""
    return json.dumps(report_json(r), indent=2) + "\n"


def serialize_reports_by_json_dumps(reports) -> str:
    """The canonical JSON array of a list of reports, even of one or none,
    written by ``json.dumps(indent=2)``."""
    return json.dumps([report_json(r) for r in reports], indent=2) + "\n"
