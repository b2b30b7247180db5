"""Reference claims audited by the certification pipeline.

These are closed forms as originally stated for the quantities the engine
computes. The pipeline never assumes any of them: every quantity is
recomputed exactly and each claim is recorded side by side with the certified
value. A mismatch is reported, never patched and never fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import format_rational

Value = Fraction | int | tuple[int, ...]


@dataclass(frozen=True)
class ClaimRecord:
    """One audited quantity: the claimed value vs. the certified one."""

    claim: str
    claimed: str
    computed: str
    matches: bool


def stated(n: int) -> dict[str, Value]:
    """Every audited quantity by name, with its value as stated, in record
    order. The Gram entries are those of two faces meeting in n-1 (equal),
    n-2 and n-3 vertices; the last is the dimension triple of the three
    invariant eigenspaces."""
    return {
        "largest singular value": Fraction((n - 2) * (n - 1)),
        "multiplicity of singular value n-2": Fraction(n),
        "multiplicity of singular value 1": Fraction((n + 1) * (n - 1), 2),
        "absolute determinant of the incidence matrix": Fraction((n - 2) ** (n + 1) * (n - 1)),
        "largest divisor eigenvalue": Fraction((n - 1) ** 2 * (n - 2) ** 2),
        "Gram entry, equal faces": Fraction(n * (n - 1), 2),
        "Gram entry, intersection n-2": Fraction((n - 1) * (n - 2), 2),
        "Gram entry, intersection n-3": Fraction((n - 2) * (n - 3), 2),
        "invariant eigenspace dimensions": ((n + 1) * n // 2, n, 1),
    }


def _text(value: Value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, tuple) else format_rational(value)


def audit(n: int, computed: dict[str, Value]) -> tuple[ClaimRecord, ...]:
    """One record per computed quantity, in the order given, each set against
    its stated value."""
    claims = stated(n)
    return tuple(
        ClaimRecord(name, _text(claims[name]), _text(value), claims[name] == value)
        for name, value in computed.items()
    )
