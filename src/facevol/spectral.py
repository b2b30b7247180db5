"""The face-edge Gram matrix, equitable partitions and their quotients, the
3x3 orbit divisor, and the fully certified spectrum of the Gram matrix.

A codim-2 face is the complement of a vertex pair, so the Gram matrix lies in
the Bose-Mesner algebra of the Johnson scheme J(n+1, 2), and each of its
three eigenspaces has an explicit integer spanning set (Delsarte 1973;
Brouwer & Haemers, *Spectra of Graphs*, the triangular graph T(n+1)). The
families are grouped by eigenvalue (at n = 3 all three belong to 1); every
vector is checked to be an exact eigenvector, and each group is proved
independent by one full-rank `rank`, which gives a lower bound on each
multiplicity. Eigenvectors of distinct eigenvalues are independent, so lower
bounds that sum to the dimension are exact, and the Gram matrix is
diagonalizable with characteristic polynomial prod (x - lam_i)^m_i. The trace
and the product of the eigenvalues are then compared with the trace of G and
with (det M)^2. The divisor's eigenvalues are proved by char D alone: they are
distinct and char D = prod (x - lam), so char D divides char G exactly when
each of them is a certified Gram eigenvalue. Its eigenvectors are proved once,
by their lifts to Gram eigenvectors (gelfand.match_eigenvectors).
Computed values are authoritative; disagreements with the claimed closed
forms are recorded as discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .claims import ClaimRecord, audit
from .exceptions import IntegrityError, one_slot_memo
from .linalg import (
    RationalMatrix,
    char_poly,
    det_fraction_free,
    exact_sqrt,
    format_rational,
    rank,
)
from .subsets import build_incidence_matrix, intersection_classes, missed_pairs


def _first_entry(a: RationalMatrix, b: RationalMatrix) -> tuple[int, int]:
    """The first entry, in row-major order, where a differs from b."""
    return next((i, j) for i in range(a.nrows) for j in range(a.ncols) if a[i, j] != b[i, j])


def _first_deviation(a: RationalMatrix, b: RationalMatrix) -> str:
    """The first entry where a differs from b, with both values."""
    i, j = _first_entry(a, b)
    return f"entry ({i}, {j}) is {format_rational(a[i, j])}, expected {format_rational(b[i, j])}"


@one_slot_memo
def build_gram(n: int) -> RationalMatrix:
    """Gram matrix of the incidence rows: entry (i,j) counts the edges the
    i-th and j-th codim-2 faces share. Built both as M M^T and from the
    intersection-class rule C(|s_i ∩ s_j|, 2); the two must agree."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    m = build_incidence_matrix(n)
    gram = m @ m.transpose()
    by_rule = RationalMatrix._from_ints(
        ([comb(k, 2) for k in row] for row in intersection_classes(n)), 1
    )
    if gram != by_rule:
        where = _first_deviation(gram, by_rule)
        raise IntegrityError(f"M M^T breaks the intersection-class rule at n={n}: {where}")
    return gram


@dataclass(frozen=True)
class DivisorQuotient:
    """A partition, its 0/1 cell indicator rows P, the weights W = P G, and
    the quotient and the equitability flag read off W."""

    partition: tuple[tuple[int, ...], ...]
    indicator: RationalMatrix
    weights: RationalMatrix
    quotient: RationalMatrix
    equitable: bool


def check_equitable(
    gram: RationalMatrix, partition: Sequence[Sequence[int]]
) -> DivisorQuotient:
    """Quotient of a symmetric weighted adjacency matrix (loops included) by
    a vertex partition, with the equitability flag: every vertex of a cell
    must carry the same total weight into each cell."""
    cells = tuple(tuple(c) for c in partition)
    seen = [v for c in cells for v in c]
    if any(not c for c in cells):
        raise ValueError("partition cells must be non-empty")
    if sorted(seen) != list(range(gram.nrows)):
        raise ValueError("partition must cover all vertex indices exactly once")
    indicator = RationalMatrix._from_ints(
        ([int(v in c) for v in range(gram.nrows)] for c in map(set, cells)), 1
    )
    # G is symmetric, so column v of W = P G lists v's weight into each cell.
    weights = indicator @ gram
    cols = list(zip(*weights.num))
    equitable = all(cols[v] == cols[c[0]] for c in cells for v in c)
    quotient = RationalMatrix._from_ints((cols[c[0]] for c in cells), weights.den)
    return DivisorQuotient(cells, indicator, weights, quotient, equitable)


def divisor_closed_form(n: int) -> RationalMatrix:
    """Closed-form orbit-weight counts for the three stabilizer orbits; the
    computed quotient must reproduce these entries exactly."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    return RationalMatrix(
        [
            [
                Fraction((n - 2) * (n - 1), 2),
                Fraction((n - 3) * (n - 2) * (n - 1)),
                Fraction((n - 4) * (n - 3) * (n - 2) * (n - 1), 4),
            ],
            [
                Fraction((n - 3) * (n - 2), 2),
                Fraction(n**3 - 7 * n**2 + 17 * n - 14),
                Fraction(n**4 - 10 * n**3 + 39 * n**2 - 70 * n + 48, 4),
            ],
            [
                Fraction((n - 4) * (n - 3), 2),
                Fraction(n**3 - 8 * n**2 + 23 * n - 24),
                Fraction(n**4 - 10 * n**3 + 43 * n**2 - 90 * n + 76, 4),
            ],
        ]
    )


@one_slot_memo
def divisor_quotient(n: int) -> DivisorQuotient:
    """Quotient of the Gram matrix by the stabilizer orbits of the first face:
    the faces meeting it in n-1, n-2 and n-3 vertices, read off row 0 of the
    intersection-class table. Cell sizes are 1, 2(n-1), C(n-1,2)."""
    first = intersection_classes(n)[0]
    cells = [[v for v, k in enumerate(first) if k == size] for size in (n - 1, n - 2, n - 3)]
    return check_equitable(build_gram(n), cells)


@one_slot_memo
def divisor_matrix(n: int) -> RationalMatrix:
    """Equitable quotient of the Gram matrix by the stabilizer orbits of the
    first face; certified equal to the closed-form entries. Needs n >= 4 (at
    n = 3 the third orbit degenerates and the quotient is trivial)."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    dq = divisor_quotient(n)
    if not dq.equitable:
        raise IntegrityError(f"orbit partition is not equitable at n={n}")
    closed = divisor_closed_form(n)
    if dq.quotient != closed:
        where = _first_deviation(dq.quotient, closed)
        raise IntegrityError(f"divisor quotient deviates from closed form at n={n}: {where}")
    return dq.quotient


DivisorPairs = tuple[tuple[tuple[Fraction, Fraction, Fraction], Fraction], ...]


def divisor_divides(n: int) -> bool:
    """Exact divisibility of char G by char D. With char D = prod (x - lam)
    over distinct lam (divisor_spectrum) and char G = prod (x - mu_i)^m_i
    (full_spectrum), it holds exactly when every lam is a certified mu_i with
    m_i >= 1. Raises what those two raise."""
    multiplicity = {w.value: w.multiplicity for w in full_spectrum(n).eigenvalues}
    return all(multiplicity.get(lam, 0) >= 1 for _, lam in divisor_spectrum(n))


def divisor_eigenpairs(n: int) -> DivisorPairs:
    """The three exact (eigenvector, eigenvalue) pairs of the divisor, in
    descending eigenvalue order: C(n-1,2)^2, (n-2)^2, 1."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    return (
        ((Fraction(1), Fraction(1), Fraction(1)), Fraction(comb(n - 1, 2)) ** 2),
        (
            (Fraction(1 - n, 2), Fraction(3 - n, 4), Fraction(1)),
            Fraction((n - 2) ** 2),
        ),
        (
            (Fraction((n - 1) * (n - 2), 2), Fraction(2 - n, 2), Fraction(1)),
            Fraction(1),
        ),
    )


@one_slot_memo
def divisor_spectrum(n: int) -> DivisorPairs:
    """The divisor eigenpairs, whose eigenvalues are proved to be the
    divisor's whole spectrum: they are distinct and char D is prod (x - lam).
    The vectors are proved by their lifts (gelfand.match_eigenvectors)."""
    char_d = char_poly(divisor_matrix(n))
    pairs = divisor_eigenpairs(n)
    lams = [lam for _, lam in pairs]
    # prod (x - lam) in ascending coefficients: each factor maps p to x*p - lam*p.
    from_roots = [Fraction(1)]
    for lam in lams:
        from_roots = [a - lam * b for a, b in zip([0] + from_roots, from_roots + [0])]
    if len(set(lams)) != len(lams) or char_d != tuple(from_roots):
        roots, char_s, prod_s = (", ".join(map(str, xs)) for xs in (lams, char_d, from_roots))
        raise IntegrityError(
            f"divisor eigenvalues {roots} are not the distinct roots of char D at n={n}: "
            f"char D is ({char_s}), prod (x - lam) is ({prod_s})"
        )
    return pairs


@dataclass(frozen=True)
class EigenvalueWitness:
    value: Fraction
    multiplicity: int
    rank_witness: int


@dataclass(frozen=True)
class SingularValueEntry:
    square: Fraction
    multiplicity: int


@dataclass(frozen=True)
class SpectrumCertificate:
    n: int
    eigenvalues: tuple[EigenvalueWitness, ...]
    singular_values: tuple[SingularValueEntry, ...]
    det_m_abs: Fraction
    discrepancies: tuple[ClaimRecord, ...]


@one_slot_memo
def det_incidence(n: int) -> Fraction:
    """Exact (signed) determinant of the incidence matrix."""
    return det_fraction_free(build_incidence_matrix(n))


# A sparse integer vector indexed by face: (colex rank, coefficient) pairs.
SparseVector = tuple[tuple[int, int], ...]


def eigenbasis(n: int) -> tuple[tuple[Fraction, tuple[SparseVector, ...]], ...]:
    """Explicit integer eigenvector families of the Gram matrix, as
    (eigenvalue, vectors) in descending eigenvalue order: one spanning set
    per eigenspace of the Johnson scheme J(n+1, 2).

    A face is the complement of a vertex pair {s, t} of 1..m, m = n + 1, and
    a vector takes its value on the face from that pair:
    - C(n-1,2)^2: the all-ones vector;
    - (n-2)^2: for a = 1..n, x({s,t}) = g(s) + g(t) with g = e_a - e_m;
    - 1: signed 4-cycles a-b-c-d, +1 on the pairs ab and cd and -1 on bc and
      da, for the cycles 1-c-d-2 (3 <= c < d <= m) and 1-3-2-c (4 <= c <= m).
      They lie in the kernel of the unsigned vertex-pair incidence matrix of
      K_m, which has dimension C(m,2) - m (Godsil & Royle, *Algebraic Graph
      Theory* ch. 8).
    The family sizes are 1, n and (n+1)(n-2)/2, which sum to C(n+1,2). At
    n = 3 the three eigenvalues all equal 1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    m = n + 1
    face = {}
    for i, (s, t) in enumerate(missed_pairs(n)):
        face[s, t] = face[t, s] = i

    def cycle(a: int, b: int, c: int, d: int) -> SparseVector:
        return ((face[a, b], 1), (face[c, d], 1), (face[b, c], -1), (face[d, a], -1))

    ones = (tuple((i, 1) for i in range(comb(m, 2))),)
    stars = tuple(
        tuple(p for s in range(1, m) if s != a for p in ((face[a, s], 1), (face[s, m], -1)))
        for a in range(1, m)
    )
    cycles = tuple(
        cycle(1, c, d, 2) for c in range(3, m + 1) for d in range(c + 1, m + 1)
    ) + tuple(cycle(1, 3, 2, c) for c in range(4, m + 1))
    return (
        (Fraction(comb(n - 1, 2) ** 2), ones),
        (Fraction((n - 2) ** 2), stars),
        (Fraction(1), cycles),
    )


def _certify_family(
    n: int, gram: RationalMatrix, lam: Fraction, vectors: Sequence[SparseVector]
) -> EigenvalueWitness:
    """A lower bound on the multiplicity of lam: the family's size, once every
    vector is an exact eigenvector and the family has full rank."""
    size = gram.nrows
    rows = [[0] * size for _ in vectors]
    for row, x in zip(rows, vectors):
        for j, c in x:
            row[j] = c
    family = RationalMatrix._from_ints(rows, 1)
    # G is symmetric, so F G = lam F says that every row of F is an eigenvector.
    image, expected = family @ gram, family.scaled(lam)
    if image != expected:
        i, _ = _first_entry(image, expected)
        raise IntegrityError(
            f"basis vector {i} is not an eigenvector for {format_rational(lam)} at n={n}"
        )
    rk = rank(family)
    if rk != len(vectors):
        raise IntegrityError(
            f"eigenvectors for {format_rational(lam)} are dependent at n={n}: "
            f"rank {rk} of {len(vectors)}"
        )
    return EigenvalueWitness(lam, rk, size - rk)


def _audit_claims(
    n: int,
    gram: RationalMatrix,
    witnesses: Sequence[EigenvalueWitness],
    det_abs: Fraction,
) -> tuple[ClaimRecord, ...]:
    det = {"absolute determinant of the incidence matrix": det_abs}
    if n == 3:  # one eigenvalue and no divisor: only the determinant claim applies
        return audit(n, det)
    largest, middle, unit = witnesses
    largest_sv = exact_sqrt(largest.value)
    if largest_sv is None:
        raise IntegrityError("largest Gram eigenvalue is not a perfect square")
    # The first faces meeting face 0 in n-2 and in n-3 vertices.
    near, far = map(intersection_classes(n)[0].index, (n - 2, n - 3))
    return audit(
        n,
        {
            "largest singular value": largest_sv,
            "multiplicity of singular value n-2": middle.multiplicity,
            "multiplicity of singular value 1": unit.multiplicity,
            **det,
            "largest divisor eigenvalue": largest.value,
            "Gram entry, equal faces": gram[0, 0],
            "Gram entry, intersection n-2": gram[0, near],
            "Gram entry, intersection n-3": gram[0, far],
        },
    )


@one_slot_memo
def full_spectrum(n: int) -> SpectrumCertificate:
    """Complete certified spectrum of the Gram matrix for n >= 3.

    The eigenvector families of `eigenbasis`, grouped by eigenvalue, are the
    candidates; each multiplicity is the size of a group that is verified
    exactly and proved independent, and its rank witness is the dimension
    minus it. The certificate is rejected unless the multiplicities sum to
    the dimension and the trace and determinant identities close; a rejection
    is remembered like a result.
    """
    gram = build_gram(n)
    # One group per distinct eigenvalue (at n = 3 the three families form one).
    # Each bounds its multiplicity from below; eigenvectors of distinct
    # eigenvalues are independent, so bounds that sum to the size are exact.
    groups: dict[Fraction, list[SparseVector]] = {}
    for lam, vectors in eigenbasis(n):
        groups.setdefault(lam, []).extend(vectors)
    witnesses = [_certify_family(n, gram, lam, vectors) for lam, vectors in groups.items()]
    size, total = gram.nrows, sum(w.multiplicity for w in witnesses)
    if total != size:
        raise IntegrityError(f"multiplicities sum to {total}, not {size}, at n={n}")
    trace, expected = sum(w.value * w.multiplicity for w in witnesses), gram.trace()
    if trace != expected:
        raise IntegrityError(
            f"trace identity failed at n={n}: "
            f"{format_rational(trace)} != {format_rational(expected)}"
        )
    # G = M M^T (build_gram proves it), so det G = (det M)^2.
    prod = Fraction(1)
    for w in witnesses:
        prod *= w.value**w.multiplicity
    det_m = det_incidence(n)
    if prod != det_m * det_m:
        raise IntegrityError(
            f"eigenvalue product {format_rational(prod)} != (det M)^2 "
            f"{format_rational(det_m * det_m)} at n={n}"
        )
    det_abs = abs(det_m)
    return SpectrumCertificate(
        n=n,
        eigenvalues=tuple(witnesses),
        singular_values=tuple(SingularValueEntry(w.value, w.multiplicity) for w in witnesses),
        det_m_abs=det_abs,
        discrepancies=_audit_claims(n, gram, witnesses, det_abs),
    )


def spectrum_summary(cert: SpectrumCertificate) -> str:
    """One-line eigenvalue:multiplicity rendering, descending."""
    return ", ".join(
        f"{format_rational(w.value)}:{w.multiplicity}" for w in cert.eigenvalues
    )
