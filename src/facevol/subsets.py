"""Colexicographic k-subset enumeration, the face-edge incidence matrix and
the intersection-class table of the codimension-2 faces.

Vertices are labelled 1..n+1. Codimension-2 faces of an n-simplex are the
(n-1)-subsets, edges the 2-subsets; both families have C(n+1,2) members, and
all matrices index them by colex rank so every run is byte-reproducible.
Two faces meet in n-1, n-2 or n-3 vertices: the three classes of the Johnson
scheme J(n+1, 2). One table of these sizes per n gives the Gram rule, the
class indicator matrices and, in its first row, the stabilizer orbits of the
first face.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .exceptions import one_slot_memo
from .linalg import RationalMatrix

# Below n = 3 the codimension-2 faces have no edges, so the incidence
# structure is empty.
MIN_DIMENSION = 3


def validate_subset(n_total: int, s: Sequence[int]) -> tuple[int, ...]:
    """Check that s is a strictly increasing subset of 1..n_total."""
    t = tuple(s)
    if not t:
        raise ValueError("empty subset")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError(f"subset must be strictly increasing: {t}")
    if t[0] < 1 or t[-1] > n_total:
        raise ValueError(f"subset {t} not contained in 1..{n_total}")
    return t


# Two slots: callers alternate between the edges and the faces of one n.
@lru_cache(maxsize=2)
def subsets_colex(n_total: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of 1..n_total, colex order (rank order): the largest
    elements compare first."""
    return tuple(sorted(combinations(range(1, n_total + 1), k), key=lambda s: s[::-1]))


def missed_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair that each codim-2 face misses, faces in colex order.
    Complementation reverses colex order, so face i misses edge N - 1 - i."""
    return subsets_colex(n + 1, 2)[::-1]


@one_slot_memo
def intersection_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """|f ∩ g| for every pair of codim-2 faces, rows and columns in colex
    order. Square of side C(n+1,2). Faces that miss the vertex pairs p and q
    share all n + 1 vertices but those of p ∪ q: n - 3 + |p ∩ q| of them."""
    if n < MIN_DIMENSION:
        raise ValueError(f"need n >= {MIN_DIMENSION}, got {n}")
    missed = missed_pairs(n)
    return tuple(tuple(n - 3 + (s in q) + (t in q) for q in missed) for s, t in missed)


@one_slot_memo
def build_incidence_matrix(n: int) -> RationalMatrix:
    """0/1 matrix with rows the codim-2 faces and columns the edges, entry 1
    when the edge lies in the face, that is, when it misses the face's vertex
    pair. Square of side C(n+1,2)."""
    if n < MIN_DIMENSION:
        raise ValueError(f"need n >= {MIN_DIMENSION}, got {n}")
    edges = subsets_colex(n + 1, 2)
    rows = ([int(s not in e and t not in e) for e in edges] for s, t in missed_pairs(n))
    return RationalMatrix._from_ints(rows, 1)
