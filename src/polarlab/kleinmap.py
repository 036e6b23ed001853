"""Klein correspondence: lines of PG(3,q) -> points of Q+(5,q).

Plucker coordinates are taken in the order (p01,p02,p03,p23,p31,p12), on
which the quadric relation reads p01*p23 + p02*p31 + p03*p12 = 0.  The
fixed permutation to (p01,p23,p02,p31,p03,p12) carries the image onto the
standard hyperbolic form x0x1 + x2x3 + x4x5.  The map is used in this
direction only: what a line set means is read off its Klein points.

Two lines meet iff their Klein points are collinear on Q+(5,q).  The
regulus through three pairwise skew lines is the conic that Q+(5,q) cuts
from the plane of their Klein points, and its opposite regulus, the lines
meeting all of them, is the conic in the polar plane; the constructions
build reguli as these plane sections.

The regular spread is PG(1,q^2) read over GF(q), with GF(q) arithmetic
only: xi, a root of the least irreducible t^2 + bt + c, multiplies each
coordinate pair (x0, x1) = x0 + x1 xi of GF(q)^4 as (-c x1, x0 - b x1),
and each point of PG(1,q^2) is a line <v, xi v>.  Its reguli through a
spread line are the Baer sublines through it.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import FieldSpec, field_of_order
from .projspace import GeometryError, Subspace, combine, normalize_point, span
from .polarspace import PolarSpace, least_irreducible_binary_quadratic
from .gfcode import CodewordVec

# plucker index -> coordinate pair, in the fixed output order
_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

# position of each plucker coordinate in the standard hyperbolic form
_TO_QUADRIC = (0, 2, 4, 1, 3, 5)


def plucker(L: Subspace, F: FieldSpec) -> tuple[int, ...]:
    """Normalized Plucker point of a line of PG(3,q)."""
    if L.dim != 1 or L.ambient != 3:
        raise GeometryError("plucker coordinates need a line of PG(3,q)")
    x, y = L.basis
    coords = tuple(
        F.sub(F.mul(x[i], y[j]), F.mul(x[j], y[i])) for i, j in _PAIRS)
    return normalize_point(coords, F)


def to_quadric_point(pt, F: FieldSpec) -> tuple[int, ...]:
    """Permute plucker coordinates onto the standard Q+(5,q) form."""
    out = [0] * 6
    for i, pos in enumerate(_TO_QUADRIC):
        out[pos] = pt[i]
    return normalize_point(tuple(out), F)


def klein_point(L: Subspace, F: FieldSpec) -> tuple[int, ...]:
    """Image of a line on the standard hyperbolic quadric Q+(5,q)."""
    return to_quadric_point(plucker(L, F), F)


def _times_xi(v, F: FieldSpec) -> tuple[int, ...]:
    """Multiplication by xi on each coordinate pair (x0, x1) = x0 + x1 xi,
    where xi is a root of the least irreducible t^2 + bt + c over F."""
    b, c = least_irreducible_binary_quadratic(F)
    out = []
    for x0, x1 in zip(v[::2], v[1::2]):
        out += [F.mul(F.neg(c), x1), F.sub(x0, F.mul(b, x1))]
    return tuple(out)


def _xi_line(v, F: FieldSpec) -> Subspace:
    """The line <v, xi v>: the GF(q^2)-point of v as a line of PG(3,q)."""
    return span([v, _times_xi(v, F)], F)


@lru_cache(maxsize=None)
def regular_spread(q: int) -> tuple[Subspace, ...]:
    """The q^2+1 points of PG(1,q^2) as pairwise skew lines <v, xi v>:
    v = (1, 0, b0, b1) in lexicographic order, then v = (0, 0, 1, 0)."""
    F = field_of_order(q)
    vs = [(1, 0, b0, b1) for b0 in F.elements() for b1 in F.elements()]
    return tuple(_xi_line(v, F) for v in vs + [(0, 0, 1, 0)])


def reguli_partition_through(L: Subspace, q: int) -> list[list[Subspace]]:
    """q reguli of the regular spread through its line L, pairwise sharing
    only L and jointly covering the spread.

    With u = L.basis[0] and w not on L, the spread lines other than L
    are those of z u + w for z in GF(q^2); the regulus for a1 takes the
    coset z = x0 + a1 xi of GF(q), a Baer subline through L."""
    if L not in regular_spread(q):
        raise GeometryError("line is not in the regular spread")
    F = field_of_order(q)
    u = L.basis[0]
    w = (1, 0, 0, 0) if u == (0, 0, 1, 0) else (0, 0, 1, 0)
    coeffs = [(x0, a1, 1) for a1 in F.elements() for x0 in F.elements()]
    V = combine(coeffs, [u, _times_xi(u, F), w], F).reshape(q, q, 4)
    return [sorted([L] + [_xi_line(v, F) for v in vs]) for vs in V.tolist()]


def lineset_to_codeword(symbols: dict, P: PolarSpace) -> CodewordVec:
    """Transfer a symbol-weighted line set of PG(3,q) to a sparse vector
    over the points of the standard Q+(5,q)."""
    F = P.F
    support = {}
    for L, s in symbols.items():
        pt = klein_point(L, F)
        support[P.index[pt]] = s
    return CodewordVec(support, len(P.points), F.p)
