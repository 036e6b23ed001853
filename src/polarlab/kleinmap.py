"""Klein correspondence: lines of PG(3,q) <-> points of Q+(5,q).

Plucker coordinates are taken in the order (p01,p02,p03,p23,p31,p12), on
which the quadric relation reads p01*p23 + p02*p31 + p03*p12 = 0.  The
fixed permutation to (p01,p23,p02,p31,p03,p12) carries the image onto the
standard hyperbolic form x0x1 + x2x3 + x4x5.  The inverse map is one
table from Klein points to lines.

Line geometry is read off the quadric: two lines meet iff their Klein
points are collinear on Q+(5,q).  The regulus through three pairwise skew
lines is the conic that Q+(5,q) cuts from the plane of their Klein
points, and its opposite regulus, the lines meeting all of them, is the
conic in the polar plane.

Regular spreads come from field reduction of PG(1,q^2); their reguli
through a fixed line are additive cosets of GF(q), pulled through a
Mobius map when the line is not the one at infinity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .gf import FieldSpec, field_of_order, embed_subfield
from .projspace import (
    GeometryError,
    Subspace,
    enumerate_lines,
    normalize_point,
    span,
    subspace_points,
)
from .polarspace import PolarSpace, get_space, polar_image
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


@lru_cache(maxsize=None)
def _klein_table(F: FieldSpec) -> dict:
    return {klein_point(L, F): L for L in enumerate_lines(3, F)}


def inverse_klein_point(pt, F: FieldSpec) -> Subspace:
    L = _klein_table(F).get(normalize_point(pt, F))
    if L is None:
        raise GeometryError(f"{pt} is not on the Klein quadric")
    return L


def klein_preimage(P: PolarSpace, S: Subspace) -> list[Subspace]:
    """The lines of PG(3,q) whose Klein points lie in the subspace S of
    PG(5,q), sorted; P is the standard Q+(5,q)."""
    return sorted(inverse_klein_point(x, P.F)
                  for x in subspace_points(S, P.F) if x in P.index)


def _regulus_plane(L1: Subspace, L2: Subspace, L3: Subspace, F: FieldSpec):
    """Q+(5,q) and the plane of the Klein points of three pairwise skew
    lines of PG(3,q)."""
    P = get_space("Qplus", 5, F.order)
    pts = [klein_point(L, F) for L in (L1, L2, L3)]
    if any(P.collinear(x, y) for x, y in combinations(pts, 2)):
        raise GeometryError("lines are not pairwise skew")
    return P, span(pts, F)


def regulus_through(L1: Subspace, L2: Subspace, L3: Subspace,
                    F: FieldSpec) -> list[Subspace]:
    """The q+1 pairwise skew lines through every common transversal of
    three pairwise skew lines: a conic section of Q+(5,q)."""
    return klein_preimage(*_regulus_plane(L1, L2, L3, F))


def opposite_regulus(R, F: FieldSpec) -> list[Subspace]:
    """The q+1 lines meeting every line of a regulus: the conic in the
    polar plane."""
    P, plane = _regulus_plane(*R[:3], F)
    return klein_preimage(P, polar_image(P, plane))


@lru_cache(maxsize=None)
def _field_reduction(q: int):
    """Tables for viewing PG(3,q) as PG(1,q^2) over a basis (1, xi)."""
    F = field_of_order(q)
    K = field_of_order(q * q)
    emb, back = embed_subfield(F, K)
    image = set(emb)
    xi = min(a for a in K.elements() if a not in image)
    decomp = {}
    for c0 in F.elements():
        for c1 in F.elements():
            decomp[K.add(emb[c0], K.mul(emb[c1], xi))] = (c0, c1)
    return F, K, emb, xi, decomp


def _kpair_to_line(a: int, b: int, q: int) -> Subspace:
    """Line of PG(3,q) spanned by the GF(q)-span of the GF(q^2) vector
    (a,b) under coordinates (a0,a1,b0,b1)."""
    F, K, emb, xi, decomp = _field_reduction(q)
    rows = []
    for s in (1, xi):
        sa, sb = K.mul(s, a), K.mul(s, b)
        rows.append(decomp[sa] + decomp[sb])
    return span(rows, F)


def _pg1_points(q: int):
    """Points of PG(1,q^2) as normalized pairs: (1, b) and (0, 1)."""
    _F, K, *_ = _field_reduction(q)
    return [(1, b) for b in K.elements()] + [(0, 1)]


@lru_cache(maxsize=None)
def regular_spread(q: int) -> tuple[Subspace, ...]:
    """Field-reduction spread: q^2+1 pairwise skew lines of PG(3,q)."""
    return tuple(_kpair_to_line(a, b, q) for a, b in _pg1_points(q))


@lru_cache(maxsize=None)
def _spread_line_to_kpoint(q: int) -> dict:
    return {L: ab for ab, L in zip(_pg1_points(q), regular_spread(q))}


def reguli_partition_through(T, L: Subspace, q: int) -> list[list[Subspace]]:
    """q reguli of the regular spread through L, pairwise sharing only L
    and jointly covering the spread."""
    T = set(T)
    if T != set(regular_spread(q)):
        raise GeometryError("expected the regular spread")
    if L not in T:
        raise GeometryError("line is not in the spread")
    F, K, emb, xi, decomp = _field_reduction(q)
    kpt = _spread_line_to_kpoint(q)[L]

    # Mobius map sending the K-coordinate of L to infinity; identity when
    # L is already the line at infinity (0:1), i.e. z = infinity
    def mob_inv(z):  # K value or None for infinity, back to a PG(1) pair
        if kpt == (0, 1):
            return (1, z) if z is not None else (0, 1)
        # m(z) = 1/(z - c) with c the coordinate of L; inverse z = c + 1/w
        c = kpt[1]
        if z is None:
            return (1, c)
        return (0, 1) if z == 0 else (1, K.add(c, K.inv(z)))

    subfield = [emb[c] for c in F.elements()]
    cosets: list[list[int]] = []
    seen = set()
    for a in K.elements():
        if a in seen:
            continue
        coset = sorted(K.add(a, s) for s in subfield)
        seen.update(coset)
        cosets.append(coset)
    assert len(cosets) == q
    spread_of = {ab: Ln for Ln, ab in _spread_line_to_kpoint(q).items()}
    out = []
    for coset in cosets:
        pts = [mob_inv(None)] + [mob_inv(z) for z in coset]
        reg = sorted({spread_of[normalize_pair(p, K)] for p in pts})
        if len(reg) != q + 1:
            raise GeometryError("regulus construction degenerated")
        out.append(reg)
    return out


def normalize_pair(p, K: FieldSpec) -> tuple[int, int]:
    a, b = p
    if a:
        return (1, K.mul(K.inv(a), b))
    return (0, 1)


def lineset_to_codeword(symbols: dict, P: PolarSpace) -> CodewordVec:
    """Transfer a symbol-weighted line set of PG(3,q) to a sparse vector
    over the points of the standard Q+(5,q)."""
    F = P.F
    support = {}
    for L, s in symbols.items():
        pt = klein_point(L, F)
        support[P.index[pt]] = s
    return CodewordVec(support, len(P.points), F.p)
