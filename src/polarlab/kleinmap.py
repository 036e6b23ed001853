"""Klein correspondence: lines of PG(3,q) -> points of Q+(5,q).

Plucker coordinates are taken in the order (p01,p02,p03,p23,p31,p12), on
which the quadric relation reads p01*p23 + p02*p31 + p03*p12 = 0.  The
fixed permutation to (p01,p23,p02,p31,p03,p12) carries the image onto the
standard hyperbolic form x0x1 + x2x3 + x4x5.  The map is used in this
direction only: the constructions live on the points of Q+(5,q), and a
line set of PG(3,q) is read off its Klein points.

Two lines meet iff their Klein points are collinear on Q+(5,q).  A
regulus is the conic that Q+(5,q) cuts from a plane and its opposite
regulus the conic in the polar plane; a spread is an ovoid, and the
regular spread, PG(1,q^2) read over GF(q), is the section of Q+(5,q) by
a solid that meets it in an elliptic quadric Q-(3,q).
"""

from __future__ import annotations

from .gf import FieldSpec
from .projspace import GeometryError, Subspace, normalize_point

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
