"""Colexicographic k-subset enumeration, the face-edge incidence matrix, the
intersection-class table and vertex-stabilizer orbit partitions of the
codimension-2 faces.

Vertices are labelled 1..n+1. Codimension-2 faces of an n-simplex are the
(n-1)-subsets, edges the 2-subsets; both families have C(n+1,2) members, and
all matrices index them by colex rank so every run is byte-reproducible.
Two faces meet in n-1, n-2 or n-3 vertices: the three classes of the Johnson
scheme J(n+1, 2). One table of these sizes per n gives both the Gram rule and
the class indicator matrices.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
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


def unrank_subset(n_total: int, k: int, r: int) -> tuple[int, ...]:
    """The r-th k-subset of 1..n_total in colex order."""
    if k < 1 or k > n_total:
        raise ValueError(f"invalid subset size {k} for ground set 1..{n_total}")
    if not 0 <= r < comb(n_total, k):
        raise IndexError(f"rank {r} out of range for {k}-subsets of 1..{n_total}")
    out = []
    for i in range(k, 0, -1):
        c = i - 1
        while c + 1 <= n_total - 1 and comb(c + 1, i) <= r:
            c += 1
        out.append(c + 1)
        r -= comb(c, i)
    return tuple(reversed(out))


# Two slots: callers alternate between the edges and the faces of one n.
@lru_cache(maxsize=2)
def subsets_colex(n_total: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of 1..n_total, colex order (rank order)."""
    return tuple(unrank_subset(n_total, k, r) for r in range(comb(n_total, k)))


@one_slot_memo
def intersection_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """|f ∩ g| for every pair of codim-2 faces, rows and columns in colex
    order. Square of side C(n+1,2)."""
    if n < MIN_DIMENSION:
        raise ValueError(f"need n >= {MIN_DIMENSION}, got {n}")
    faces = [set(f) for f in subsets_colex(n + 1, n - 1)]
    return tuple(tuple(len(f & g) for g in faces) for f in faces)


@one_slot_memo
def build_incidence_matrix(n: int) -> RationalMatrix:
    """0/1 matrix with rows the codim-2 faces and columns the edges, entry 1
    when the edge lies in the face. Square of side C(n+1,2)."""
    if n < MIN_DIMENSION:
        raise ValueError(f"need n >= {MIN_DIMENSION}, got {n}")
    faces = subsets_colex(n + 1, n - 1)
    edges = subsets_colex(n + 1, 2)
    rows = []
    for f in faces:
        fs = set(f)
        rows.append([1 if fs.issuperset(e) else 0 for e in edges])
    return RationalMatrix(rows)


def orbit_partition(n: int, base: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Partition of the codim-2 face ranks into the three orbits of the
    stabilizer of ``base``: the base itself, faces meeting it in n-2 vertices,
    and faces meeting it in n-3. Cell sizes are 1, 2(n-1), C(n-1,2)."""
    if n < MIN_DIMENSION:
        raise ValueError(f"need n >= {MIN_DIMENSION}, got {n}")
    b = validate_subset(n + 1, base)
    if len(b) != n - 1:
        raise ValueError(f"base must be an (n-1)-subset, got {b}")
    cells: dict[int, list[int]] = {n - 1: [], n - 2: [], n - 3: []}
    bs = set(b)
    for idx, f in enumerate(subsets_colex(n + 1, n - 1)):
        cells[len(bs & set(f))].append(idx)
    return tuple(tuple(cells[key]) for key in (n - 1, n - 2, n - 3))
