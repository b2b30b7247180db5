"""Reference claims audited by the certification pipeline.

These are closed forms as originally stated for the quantities the engine
computes. The pipeline never assumes any of them: every quantity is
recomputed exactly and each claim is recorded side by side with the certified
value. A mismatch is reported, never patched and never fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import format_rational


@dataclass(frozen=True)
class ClaimRecord:
    """One audited quantity: the claimed value vs. the certified one."""

    claim: str
    claimed: str
    computed: str
    matches: bool

    @classmethod
    def compare(cls, claim: str, claimed: Fraction, computed: Fraction) -> "ClaimRecord":
        return cls(claim, format_rational(claimed), format_rational(computed), claimed == computed)


def claimed_largest_singular_value(n: int) -> Fraction:
    return Fraction((n - 2) * (n - 1))


def claimed_middle_singular_multiplicity(n: int) -> Fraction:
    return Fraction(n)


def claimed_unit_singular_multiplicity(n: int) -> Fraction:
    return Fraction((n + 1) * (n - 1), 2)


def claimed_incidence_det_abs(n: int) -> Fraction:
    return Fraction((n - 2) ** (n + 1) * (n - 1))


def claimed_largest_divisor_eigenvalue(n: int) -> Fraction:
    return Fraction((n - 1) ** 2 * (n - 2) ** 2)


def claimed_gram_entries(n: int) -> dict[int, Fraction]:
    """Claimed Gram entries keyed by intersection size of the two faces."""
    return {
        n - 1: Fraction(n * (n - 1), 2),
        n - 2: Fraction((n - 1) * (n - 2), 2),
        n - 3: Fraction((n - 2) * (n - 3), 2),
    }


def claimed_irreducible_dimensions(n: int) -> tuple[int, int, int]:
    """Claimed dimension triple of the three invariant eigenspaces."""
    return ((n + 1) * n // 2, n, 1)


def claimed_dimension_sum_matches(n: int) -> bool:
    return sum(claimed_irreducible_dimensions(n)) == comb(n + 1, 2)
