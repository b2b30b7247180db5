"""Commutativity of the intersection-class indicator algebra, eigenspace
dimension bookkeeping, and exact lifting of divisor eigenvectors.

These are the computational stand-ins for the representation-theoretic step
of the argument: the three class indicator matrices span the orbit algebra,
their commutativity plus a three-eigenvalue spectrum is the multiplicity-free
signature, and the lifted divisor eigenvectors realize the orbit-constant
eigenfunction in each eigenspace. char D proves the divisor's eigenvalues
(spectral); the lifts alone prove its eigenvectors exact and nonzero. The
indicator matrices are the level sets of the intersection-class table that the
Gram rule reads too, and since they are symmetric, one exact product decides
their commutativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .claims import ClaimRecord, audit, stated
from .exceptions import IntegrityError, one_slot_memo
from .linalg import RationalMatrix, rank
from .spectral import (
    _first_deviation,
    _first_entry,
    build_gram,
    divisor_quotient,
    divisor_spectrum,
    full_spectrum,
)
from .subsets import intersection_classes


class OrbitalMatrices(NamedTuple):
    a1: RationalMatrix
    a2: RationalMatrix


def orbital_matrices(n: int) -> OrbitalMatrices:
    """0/1 indicator matrices of the two non-identity intersection classes
    of codim-2 face pairs: overlap n-2 and overlap n-3. With the identity
    they sum to all-ones."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    table = intersection_classes(n)
    return OrbitalMatrices(
        *(
            RationalMatrix._from_ints(([int(k == target) for k in row] for row in table), 1)
            for target in (n - 2, n - 3)
        )
    )


@one_slot_memo
def commutativity_defect(n: int) -> str | None:
    """None when A1, A2 and the one product A1 A2 are all symmetric;
    otherwise the first of them that is not, and its first entry that differs
    from the transposed one. For symmetric A1 and A2, A2 A1 = (A1 A2)^T, so
    they commute exactly when A1 A2 is symmetric."""
    a1, a2 = orbital_matrices(n)
    for name, m in (("A1", a1), ("A2", a2), ("A1 A2", a1 @ a2)):
        if not m.is_symmetric():
            return f"{name} is not symmetric: {_first_deviation(m, m.transpose())}"
    return None


def check_commutative(n: int) -> bool:
    """Exact commutativity of the two non-identity class matrices; with the
    identity they generate the whole orbit algebra, so this is the full test."""
    return commutativity_defect(n) is None


def eigenspace_dimensions(n: int) -> tuple[int, ...]:
    """Certified eigenspace dimensions of the Gram matrix, ascending."""
    cert = full_spectrum(n)
    return tuple(sorted(w.multiplicity for w in cert.eigenvalues))


@dataclass(frozen=True)
class EigenvectorMatch:
    """A divisor eigenvector, its eigenvalue, and the certified dimension of
    the Gram eigenspace it lifts into."""

    vector: tuple[Fraction, Fraction, Fraction]
    eigenvalue: Fraction
    multiplicity: int


def match_eigenvectors(n: int) -> tuple[EigenvectorMatch, ...]:
    """Prove the divisor eigenvectors by their cell-constant lifts, exact
    Gram eigenvectors for the same eigenvalues and independent, and attach
    the certified multiplicities."""
    pairs = divisor_spectrum(n)  # raises ValueError below n = 4
    lams = [lam for _, lam in pairs]
    multiplicity = {w.value: w.multiplicity for w in full_spectrum(n).eigenvalues}
    # Row k of X = V P is divisor eigenvector k, constant on each cell. G is
    # symmetric and the quotient equitable (divisor_matrix refuses one that is
    # not), so P G = D^T P and X G = diag(lam) X is (V D^T - diag(lam) V) P = 0:
    # as P has full row rank, D v = lam v, and rank X = 3 makes each v nonzero.
    lifted = RationalMatrix([vec for vec, _ in pairs]) @ divisor_quotient(n).indicator
    diagonal = RationalMatrix([[lam * (j == k) for j in range(3)] for k, lam in enumerate(lams)])
    image, expected = lifted @ build_gram(n), diagonal @ lifted
    if image != expected:
        k, _ = _first_entry(image, expected)
        raise IntegrityError(f"lifted eigenvector failed for {lams[k]} at n={n}")
    rk = rank(lifted)
    if rk != 3:
        raise IntegrityError(f"lifted eigenvectors are dependent at n={n}: rank {rk} of 3")
    return tuple(EigenvectorMatch(vec, lam, multiplicity[lam]) for vec, lam in pairs)


@dataclass(frozen=True)
class GelfandReport:
    n: int
    commutative: bool
    eigenspace_dims: tuple[int, ...]
    claimed_dims: tuple[int, ...]
    dims_match_claimed: bool
    claimed_dims_sum_matches: bool
    distinct_eigenvalues: int
    matches: tuple[EigenvectorMatch, ...] = field(
        metadata={"json": "eigenvector_matching"}
    )
    discrepancies: tuple[ClaimRecord, ...]


@one_slot_memo
def gelfand_report(n: int) -> GelfandReport:
    """Assemble the commutativity, dimension, and eigenvector-matching checks
    into one report, flagging the claimed dimension triple if it fails."""
    dims = eigenspace_dimensions(n)
    dims_desc = tuple(sorted(dims, reverse=True))
    (record,) = audit(n, {"invariant eigenspace dimensions": dims_desc})
    claimed = stated(n)[record.claim]
    return GelfandReport(
        n=n,
        commutative=check_commutative(n),
        eigenspace_dims=dims,
        claimed_dims=claimed,
        dims_match_claimed=record.matches,
        claimed_dims_sum_matches=sum(claimed) == comb(n + 1, 2),
        distinct_eigenvalues=len(full_spectrum(n).eigenvalues),
        matches=match_eigenvectors(n),
        discrepancies=(record,),
    )
