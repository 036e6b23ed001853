"""Klein correspondence: lines of PG(3,q) -> points of Q+(5,q).

The Plucker coordinates of a line are taken in the order
(p01,p23,p02,p31,p03,p12), in which the Plucker relation
p01*p23 + p02*p31 + p03*p12 = 0 is the standard hyperbolic form
x0x1 + x2x3 + x4x5: the Klein point is that vector, normalized.  The map
is used in this direction only: the constructions live on the points of
Q+(5,q), and a line set of PG(3,q) is read off its Klein points.

Two lines meet iff their Klein points are collinear on Q+(5,q).  A
regulus is the conic that Q+(5,q) cuts from a plane and its opposite
regulus the conic in the polar plane; a spread is an ovoid, and the
regular spread, PG(1,q^2) read over GF(q), is the section of Q+(5,q) by
a solid that meets it in an elliptic quadric Q-(3,q).
"""

from __future__ import annotations

from .gf import FieldSpec
from .projspace import GeometryError, Subspace, normalize_point

# the coordinate pair of each Plucker coordinate, in the order of the form
_PAIRS = ((0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (1, 2))


def klein_point(L: Subspace, F: FieldSpec) -> tuple[int, ...]:
    """Image of a line on the standard hyperbolic quadric Q+(5,q)."""
    if L.dim != 1 or L.ambient != 3:
        raise GeometryError("the Klein map needs a line of PG(3,q)")
    x, y = L.basis
    return normalize_point(tuple(
        F.sub(F.mul(x[i], y[j]), F.mul(x[j], y[i])) for i, j in _PAIRS), F)
