"""Exact derivatives of squared face volumes with respect to squared edge
lengths, the collapse of the Jacobian to the incidence matrix at the regular
point, and full-rank certificates for algebraic independence.

A face's squared volume is a constant times the determinant of its
Cayley-Menger matrix C, and by Jacobi's formula d det C / d C_ab = adj(C)_ba.
The squared length of edge (a, b) sits in the two symmetric slots (a, b) and
(b, a), which doubles the partial. Every codim-2 face misses two vertices
T = {s, t}, so its C is the principal submatrix of the whole simplex's
Cayley-Menger matrix D with rows and columns T deleted. The whole Jacobian
therefore comes from one exact adjugate of D: by Jacobi's complementary-minor
identity and the Schur complement of D^-1, adj(C)_ba is the 3x3 minor of
adj(D) on rows {b, s, t} and columns {a, s, t}, divided by det(D)^2. The
elimination that gives adj(D) also decides that the point is nondegenerate.

Working in squared coordinates keeps every derivative rational. Full rank of
the squared-coordinate Jacobian at a nondegenerate point transfers to the
unsquared volume map because the two differ by diagonal scalings that are
invertible there. The only floating-point code in the package is
:func:`fd_crosscheck`, which sanity-checks the exact derivatives numerically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import numpy as np

from .exceptions import IntegrityError, one_slot_memo
from .geometry import (
    EdgeLengthAssignment,
    _cm_constant,
    simplex_det_adjugate,
    unit_regular_squared_volume,
)
from .linalg import RationalMatrix, rank
from .subsets import missed_pairs, subsets_colex

RANK_TRANSFER_NOTE = (
    "ranks are of the squared-volume map in squared-length coordinates; "
    "at a nondegenerate point the unsquared map differs by invertible "
    "diagonal scalings, so full rank transfers"
)

_SAMPLE_RETRIES = 64


def jacobian_squared_map(E: EdgeLengthAssignment) -> RationalMatrix:
    """Matrix of all squared-volume partials, faces (rows) and edges (columns)
    in colex order. Its support equals the incidence matrix. Raises
    ValueError when E is degenerate.

    One adjugate of the whole simplex's Cayley-Menger matrix D gives every
    entry: D has the border at slot 0 and vertex v at slot v, and the face
    that misses vertices s and t has, for its edge (u, w), the partial
    2 c minor / det(D)^2. Here c is the constant with squared volume
    c det C for the face's dimension, and minor is the 3x3 minor of adj(D)
    on rows {w, s, t} and columns {u, s, t} (Horn & Johnson, *Matrix
    Analysis* §0.8.4)."""
    n = E.n
    delta, adj = simplex_det_adjugate(E)
    p = adj.num
    # adj(D) = p / q, so entry = 2c * minor(p) * delta.den^2 / (q^3 * delta.num^2),
    # with one denominator for the whole matrix.
    const = 2 * _cm_constant(n - 2)
    scale = const.numerator * delta.denominator**2
    den = const.denominator * adj.den**3 * delta.numerator**2
    column = {e: j for j, e in enumerate(subsets_colex(n + 1, 2))}
    rows = []
    for face, (s, t) in zip(subsets_colex(n + 1, n - 1), missed_pairs(n)):
        ps, pt = p[s], p[t]
        pss, pst, pts, ptt = ps[s], ps[t], pt[s], pt[t]
        # Expand the minor along its first row w: its cofactors depend on the
        # face and on the column u only.
        det_tt = pss * ptt - pst * pts
        co_s = {u: ps[u] * ptt - pst * pt[u] for u in face}
        co_t = {u: ps[u] * pts - pss * pt[u] for u in face}
        row = [0] * len(column)
        for u, w in combinations(face, 2):
            pw = p[w]
            row[column[(u, w)]] = pw[u] * det_tt - pw[s] * co_s[u] + pw[t] * co_t[u]
        rows.append(row)
    # Divide the minors' gcd g, and what scale * g shares with den, out once:
    # the entries then reach _from_ints in lowest terms, and its own gcd pass
    # drops to 1 within the first few of them.
    g = math.gcd(*chain.from_iterable(rows))
    common = math.gcd(den, scale * g)
    factor = scale * g // common
    entries = ([x // g * factor for x in row] for row in rows)
    return RationalMatrix._from_ints(entries, den // common)


@one_slot_memo
def regular_jacobian(n: int) -> RationalMatrix:
    """The squared-coordinate Jacobian at the unit regular point."""
    return jacobian_squared_map(EdgeLengthAssignment.regular(n))


def scaled_jacobian_at_regular(n: int) -> RationalMatrix:
    """(n-1)/(2 F^2) times the squared-coordinate Jacobian at the unit regular
    point, where F^2 is the common squared codim-2 face volume there. Equals
    the 0/1 incidence matrix exactly."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    f2 = unit_regular_squared_volume(n - 2)
    return regular_jacobian(n).scaled(Fraction(n - 1) / (2 * f2))


@dataclass(frozen=True)
class IndependenceCertificate:
    """Rank witnesses for the squared-volume Jacobian at the regular point and
    at sampled nondegenerate rational points."""

    n: int
    full_rank: int
    ranks: tuple[int, ...]
    scaling_constant_squared: Fraction
    verdict: bool
    rank_transfer_note: str
    points: tuple[EdgeLengthAssignment, ...]


def _sample_point(n: int, rng: random.Random) -> EdgeLengthAssignment:
    # Squared lengths from {1 + k/q : k = -2..2} with q = 16 ceil(n/36): the
    # spread shrinks as n grows, so draws stay close enough to regular to be
    # realizable (at q = 16, every draw at n = 48 is degenerate), and the
    # denominators stay small. Up to n = 36, q = 16.
    q = 16 * -(-n // 36)
    sq = {e: Fraction(q + rng.randrange(-2, 3), q) for e in subsets_colex(n + 1, 2)}
    return EdgeLengthAssignment(n, sq)


def _verified_rank(jac: RationalMatrix, point: str) -> int:
    """Rank of the Jacobian at ``point``, re-verified in reversed order."""
    reversed_jac = RationalMatrix._from_ints((row[::-1] for row in jac.num[::-1]), jac.den)
    r, r_reversed = rank(jac), rank(reversed_jac)
    if r_reversed != r:
        raise IntegrityError(
            f"rank witness failed re-verification at {point}: rank {r}, reversed {r_reversed}"
        )
    return r


@one_slot_memo
def regular_rank(n: int) -> int:
    """The verified rank of the Jacobian at the unit regular point."""
    return _verified_rank(regular_jacobian(n), f"the regular point, n={n}")


def independence_certificate(
    n: int, extra_samples: int = 0, seed: int = 0
) -> IndependenceCertificate:
    """Certify full rank of the squared-volume Jacobian at the regular point
    (and optionally at seeded random nondegenerate points). Raises
    IntegrityError if all draws for some sample point are degenerate."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if extra_samples < 0:
        raise ValueError("extra_samples must be >= 0")
    points = [EdgeLengthAssignment.regular(n)]
    ranks = [regular_rank(n)]
    rng = random.Random(f"{seed}:{n}")
    for index in range(extra_samples):
        for _ in range(_SAMPLE_RETRIES):
            cand = _sample_point(n, rng)
            try:
                jac = jacobian_squared_map(cand)
            except ValueError:  # a degenerate draw; take the next one
                continue
            ranks.append(_verified_rank(jac, f"sample {index}, n={n}"))
            points.append(cand)
            break
        else:
            raise IntegrityError(
                f"sample {index} at n={n}, seed={seed}: all {_SAMPLE_RETRIES} "
                "draws were degenerate"
            )
    full = comb(n + 1, 2)
    f2 = unit_regular_squared_volume(n - 2)
    return IndependenceCertificate(
        n=n,
        full_rank=full,
        ranks=tuple(ranks),
        scaling_constant_squared=4 * f2 / Fraction(n - 1) ** 2,
        verdict=any(r == full for r in ranks),
        rank_transfer_note=RANK_TRANSFER_NOTE,
        points=tuple(points),
    )


def fd_crosscheck(
    E: EdgeLengthAssignment, jac: RationalMatrix, step: float
) -> tuple[float, float]:
    """Max absolute deviation between central finite differences of the
    unsquared volumes w.r.t. unsquared lengths and the exact chain-ruled
    derivatives from ``jac``, the squared-coordinate Jacobian at E, and the
    largest absolute chain-ruled derivative, the scale to judge the deviation
    by: face volumes shrink fast with n, and so does any absolute deviation.
    Both are maxima over every entry; off a face's edges the FD value is 0.
    Faces with equal float matrices share their determinants. Second-order
    accurate in the step. Raises ValueError when some face's float squared
    volume is not positive."""
    if step <= 0:
        raise ValueError("step must be positive")
    faces = subsets_colex(E.n + 1, E.n - 1)
    edges = subsets_colex(E.n + 1, 2)
    if (jac.nrows, jac.ncols) != (len(faces), len(edges)):
        raise ValueError(f"{jac!r} is not a Jacobian at an n={E.n} point")
    column = {e: j for j, e in enumerate(edges)}
    sq = [float(E.squared_lengths[e]) for e in edges]
    k, coeff = E.n - 2, float(_cm_constant(E.n - 2))
    fvol, fd = np.empty(len(faces)), np.zeros((len(faces), len(edges)))
    shared = {}  # a face's squared lengths in slot order -> (volume, FD row)
    for i, face in enumerate(faces):
        # Edge cols[t] sits at slots (a[t], b[t]) and (b[t], a[t]) of the face's matrix.
        pairs = combinations(enumerate(face, start=1), 2)
        a, b, cols = zip(*[(p, q, column[(u, w)]) for (p, u), (q, w) in pairs])
        key = tuple(sq[j] for j in cols)
        if key not in shared:
            base = np.zeros((k + 2, k + 2))
            base[0, 1:] = base[1:, 0] = 1.0
            base[a, b] = base[b, a] = key
            vol2 = coeff * np.linalg.det(base)
            if not vol2 > 0:
                raise ValueError(f"degenerate face {face}: float squared volume {vol2:.3g}")
            # Stack matrix (0, t) lengthens edge t and matrix (1, t) shortens it.
            stack = np.repeat(base[None, None], len(key), axis=1).repeat(2, axis=0)
            t = range(len(key))
            stack[0, t, a, b] = stack[0, t, b, a] = [(math.sqrt(x) + step) ** 2 for x in key]
            stack[1, t, a, b] = stack[1, t, b, a] = [(math.sqrt(x) - step) ** 2 for x in key]
            vols = np.sqrt(np.maximum(coeff * np.linalg.det(stack), 0.0))
            shared[key] = math.sqrt(vol2), (vols[0] - vols[1]) / (2 * step)
        fvol[i], fd[i, cols] = shared[key]
    # length_e / volume_f times num / den, an int true division like float(Fraction)
    exact = np.sqrt(sq) / fvol[:, None] * (np.array(jac.num, dtype=object) / jac.den).astype(float)
    return float(np.abs(fd - exact).max()), float(np.abs(exact).max())
