"""Explicit dual codeword families for the classical polar spaces.

Every construction returns a ConstructionResult bundling the sparse
codeword, the closed-form predicted weight, the incidence matrix it must
annihilate, and a description of the geometric configuration used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, islice

from .gf import FieldSpec, field_of_order
from .projspace import (
    GeometryError,
    Subspace,
    enumerate_lines,
    hyperplane_section,
    nullspace,
    span,
    theta,
)
from .polarspace import (
    PolarSpace,
    canonical_family,
    classify_plane_section,
    get_space,
    least_irreducible_binary_quadratic,
    make_cone,
    polar_image,
)
from .gfcode import CodewordVec, IncidenceMatrix, build_incidence, is_dual_codeword
from .kleinmap import klein_point
from . import verify


@dataclass
class ConstructionResult:
    codeword: CodewordVec
    predicted_weight: int
    space: PolarSpace
    k: int
    witness: str

    @property
    def matrix(self) -> IncidenceMatrix:
        return build_incidence(self.space, self.k)

    def check(self):
        """(weight matches, dual membership, witness row)."""
        ok, row = is_dual_codeword(self.codeword, self.matrix)
        return self.codeword.weight == self.predicted_weight, ok, row


# --- codeword shapes shared by the constructions -----------------------


def _symbol(alpha: int, p: int) -> int:
    """alpha as a symbol of GF(p), which must be nonzero."""
    if alpha % p == 0:
        raise GeometryError("symbol must be nonzero")
    return alpha % p


def _complement(P: PolarSpace, removed) -> CodewordVec:
    """All-ones over GF(2) on the points of P outside the removed indices."""
    kept = set(range(len(P.points))).difference(removed)
    return CodewordVec(dict.fromkeys(kept, 1), len(P.points), 2)


def _section_pair(P: PolarSpace, pi: Subspace, a: int) -> CodewordVec:
    """+a on the points of P in pi and -a on those in its polar image,
    the points on both dropped."""
    plus, minus = (set(P.points_on(S)) for S in (pi, polar_image(P, pi)))
    symbols = {**dict.fromkeys(plus - minus, a), **dict.fromkeys(minus - plus, -a)}
    return CodewordVec(symbols, len(P.points), P.F.p)


# --- reguli, pencils and the regular spread on the Klein quadric -----
#
# A regulus of PG(3,q) is the conic that Q+(5,q) cuts from a plane, and
# its opposite regulus is the conic in the polar plane.  A pencil of
# lines is a singular line of Q+(5,q), and a spread is an ovoid.  With
# (b, c) = least_irreducible_binary_quadratic(F), the regular spread,
# PG(1,q^2) read over GF(q), is the elliptic quadric that the solid
# x2 + c x3 = 0 = x4 + x5 + b x3 cuts from Q+(5,q); e0 is the Klein point
# of its first line.


def _tangent_direction(F: FieldSpec) -> tuple[int, ...]:
    """e4 - e5: with e0 it spans a line meeting Q+(5,q) only in e0."""
    return (0, 0, 0, 0, 1, F.neg(1))


def _spread_solid(F: FieldSpec) -> Subspace:
    b, c = least_irreducible_binary_quadratic(F)
    return span(nullspace([(0, 0, 1, c, 0, 0), (0, 0, 0, b, 1, 1)], 6, F), F)


def _spread_regulus_planes(F: FieldSpec) -> list[Subspace]:
    """The q planes of the spread solid through the tangent line
    <e0, e4 - e5> other than the tangent plane, one per a in
    F.elements() order: their conics are the q reguli of the regular
    spread through its line e0, pairwise sharing only e0."""
    b, c = least_irreducible_binary_quadratic(F)
    e0, t = _unit(0, 6), _tangent_direction(F)
    return [span([e0, t, (0, 1, F.mul(c, a), F.neg(a), 0, F.mul(b, a))], F)
            for a in F.elements()]


def cw_two_reguli(q: int, alpha: int = 1) -> ConstructionResult:
    """Symbols +a on the conic that Q+(5,q) cuts from the plane
    <e0, e1, e4 - e5> and -a on the conic in its polar plane: a regulus
    of PG(3,q) and its opposite; weight 2q+2."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    a = _symbol(alpha, F.p)
    plane = span([_unit(0, 6), _unit(1, 6), _tangent_direction(F)], F)
    return ConstructionResult(
        _section_pair(P, plane, a), 2 * q + 2, P, 2,
        "regulus/opposite-regulus pair of a hyperbolic quadric in PG(3,q)")


def cw_two_pencils(q: int, beta: int = 1) -> ConstructionResult:
    """Symbols +b on the singular lines <e0, e2> and <e0, e3> and -b on
    <e0, e4> and <e0, e5>, their common point e0 excluded: the lines
    through two points of PG(3,q) in two planes through their join, the
    join excluded; weight 4q."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    b = _symbol(beta, F.p)
    e0 = _unit(0, 6)
    symbols = {x: s for j, s in ((2, b), (3, b), (4, -b), (5, -b))
               for x in P.points_on(span([e0, _unit(j, 6)], F))}
    del symbols[P.index[e0]]
    return ConstructionResult(
        CodewordVec(symbols, len(P.points), F.p), 4 * q, P, 2,
        "two pencils of lines through two points in two planes")


class _Replay:
    """The items of a generator, produced on demand and kept: every
    iteration replays those found so far before asking for more."""

    def __init__(self, gen):
        self._gen, self._items = gen, []

    def __iter__(self):
        for i in count():
            if i == len(self._items):
                item = next(self._gen, None)
                if item is None:
                    return
                self._items.append(item)
            yield self._items[i]


@lru_cache(maxsize=None)
def _hyperbolic_quadrics(q: int) -> _Replay:
    """Hyperbolic quadrics of PG(3,q) as (plane, polar plane, indices of
    the points of Q+(5,q) on both), each found from its first skew line
    triple in canonical order: the plane is that of the triple's Klein
    points, so its conic is the regulus through the triple.  Lines are
    skew when their Klein points are not collinear."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    adj = P.adjacency()  # refuses an oversized space before the lines are listed
    at = [P.index[klein_point(L, F)] for L in enumerate_lines(3, F)]

    def quadrics():
        seen = set()
        for i, j, k in combinations(at, 3):
            if adj[i] >> j & 1 or adj[i] >> k & 1 or adj[j] >> k & 1:
                continue
            plane = span([P.points[x] for x in (i, j, k)], F)
            if plane not in seen:
                perp = polar_image(P, plane)
                seen.update((plane, perp))
                yield plane, perp, frozenset(P.points_on(plane) + P.points_on(perp))
    return _Replay(quadrics())


def cw_regulus_combination(q: int, common_lines: int, orientation: int = 1,
                           alpha: int = 1):
    """Sum of two regulus-pair codewords whose quadrics share the given
    number of lines, that is of Klein points; None when no such pair of
    quadrics is found.  A negative orientation puts +a on the opposite
    regulus of the second quadric.  The pairs are searched in
    combinations order, listing quadrics only as far as the search
    reaches."""
    F = field_of_order(q)
    if not 0 <= common_lines <= 4:  # the intersection is a (2,2) curve on a quadric
        raise GeometryError(f"common-lines count {common_lines} outside 0..4: distinct quadrics "
                            "share only the lines of their intersection, at most 2 of each ruling")
    P = get_space("Qplus", 5, q)
    a = _symbol(alpha, F.p)
    quadrics = _hyperbolic_quadrics(q)
    for i, (pi1, _perp1, on1) in enumerate(quadrics):
        for pi2, perp2, on2 in islice(quadrics, i + 1, None):
            if len(on1 & on2) != common_lines:
                continue
            pi2 = perp2 if orientation < 0 else pi2
            c = _section_pair(P, pi1, a) + _section_pair(P, pi2, a)
            return ConstructionResult(
                c, c.weight, P, 2,
                f"sum of two regulus-pair codewords sharing {common_lines} lines")
    return None


def cw_regulus_switch(q: int, i: int) -> ConstructionResult:
    """All-ones off the elliptic quadric of the regular spread with 2i of
    its conics through e0 swapped for the conics in their polar planes,
    e0 kept: the complement of the Klein image of a regular spread with
    2i reguli switched to their opposites; weight (1+q^2)(q^2+q)-2i, for
    even q and 0 <= i <= q/2."""
    if q % 2:
        raise GeometryError("regulus switching needs even q")
    if not 0 <= i <= q // 2:
        raise GeometryError(f"i={i} out of range [0, {q // 2}]")
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    switched = set(P.points_on(_spread_solid(F)))
    for plane in _spread_regulus_planes(F)[:2 * i]:
        switched.difference_update(P.points_on(plane))
        switched.update(P.points_on(polar_image(P, plane)))
    switched.add(P.index[_unit(0, 6)])
    assert len(switched) == q * q + 1 + 2 * i
    return ConstructionResult(
        _complement(P, switched), (1 + q * q) * (q * q + q) - 2 * i, P, 2,
        f"complement of a regular spread image with {2 * i} reguli switched")


# --- complements of ovoids and W(q) examples --------------------------


def _first_hyperplane_section(P: PolarSpace, size: int, kind: str) -> list:
    """Point indices of the first hyperplane section of P with `size` points."""
    on = hyperplane_section(P.coordinates, P.n, P.F, size, f"{P!r}")
    if on is None:
        raise GeometryError(f"no {kind} hyperplane section found")
    return on


def elliptic_hyperplane_section(P: PolarSpace) -> list:
    """Point indices of the first hyperplane section of size q^2+1 of a
    parabolic quadric Q(4,q): an elliptic quadric, hence an ovoid."""
    if P.family != "parabolic" or P.n != 4:
        raise GeometryError("expected Q(4,q)")
    return _first_hyperplane_section(P, P.q ** 2 + 1, "elliptic")


def klein_spread_ovoid(P: PolarSpace) -> list:
    """Point indices of the ovoid of the standard Q+(5,q) cut out by the
    spread solid: the Klein image of the regular spread."""
    return P.points_on(_spread_solid(P.F))


def cw_complement_ovoid(family: str, q: int) -> ConstructionResult:
    """All-ones on the complement of an ovoid; q even."""
    if q % 2:
        raise GeometryError("complement-of-ovoid codewords need even q")
    fam = canonical_family(family)
    if fam == "parabolic":
        P = get_space("Q", 4, q)
        k = 1
        weight = q ** 3 + q
        ovoid = elliptic_hyperplane_section(P)
    elif fam == "hyperbolic":
        P = get_space("Qplus", 5, q)
        k = 2
        weight = (1 + q * q) * (q * q + q)
        ovoid = klein_spread_ovoid(P)
    else:
        raise GeometryError(f"no ovoid complement for family {family!r}")
    if not verify.is_ovoid(P, ovoid):
        raise GeometryError("candidate point set is not an ovoid")
    return ConstructionResult(_complement(P, ovoid), weight, P, k,
                              "complement of an ovoid")


def cw_wq_examples(q: int, variant: str) -> ConstructionResult:
    """Even-q codewords of the symplectic point-line code: the affine
    complement of a plane (q^3), the affine set adjusted by a polar line
    pair (q^3+2), and the ovoid complement adjusted by a polar pair of a
    2-secant (q^3-q+2)."""
    if q % 2:
        raise GeometryError("these symplectic examples need even q")
    P = get_space("W", 3, q)
    F = P.F

    def ones(S):
        return CodewordVec(dict.fromkeys(P.points_on(S), 1), len(P.points), F.p)

    if variant in ("affine", "affine_plus_pair"):
        plane = P.points_on(span([_unit(i, 4) for i in range(3)], F))
        c = _complement(P, plane)
        if variant == "affine":
            return ConstructionResult(c, q ** 3, P, 1,
                                      "affine points: complement of a plane")
        on_pi = set(plane)
        for a, b in combinations([P.points[i] for i in plane], 2):
            # every point of W(3,q) is singular, so a line is singular
            # when two of its points are collinear
            if P.collinear(a, b):
                continue
            L = span([a, b], F)
            Ls = polar_image(P, L)
            if len(on_pi.intersection(P.points_on(Ls))) == 1:
                return ConstructionResult(
                    c + ones(L) + ones(Ls), q ** 3 + 2, P, 1,
                    "affine set plus a non-isotropic line and its polar")
        raise GeometryError("no suitable line pair found")

    if variant == "ovoid_plus_pair":
        E = get_space("Qminus", 3, q)
        ovoid = [P.index[x] for x in E.points]
        if not verify.is_ovoid(P, ovoid):
            raise GeometryError("elliptic point set is not an ovoid here")
        c = _complement(P, ovoid)
        for L in enumerate_lines(3, F):
            if P.collinear(*L.basis):
                continue
            if len(E.points_on(L)) != 2:
                continue
            Ls = polar_image(P, L)
            if E.points_on(Ls):
                raise GeometryError("polar of a 2-secant meets the ovoid")
            return ConstructionResult(
                c + ones(L) + ones(Ls), q ** 3 - q + 2, P, 1,
                "ovoid complement plus a 2-secant and its polar")
        raise GeometryError("no 2-secant found")

    raise GeometryError(f"unknown symplectic example variant {variant!r}")


# --- hermitian pairs and perp cones -----------------------------------


def _norm_minus_one(F: FieldSpec) -> int:
    q = F.sqrt_order
    target = F.neg(1)
    for a in F.elements():
        if a and F.pow(a, q + 1) == target:
            return a
    raise GeometryError("no element of norm -1")


def hermitian_pair_plane(P: PolarSpace, variant: str) -> Subspace:
    F = P.F
    if variant == "curve_pair":
        return span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                     (0, 0, 1, 0, 0, 0)], F)
    if variant == "cone_pair":
        a = _norm_minus_one(F)
        return span([(1, a, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                     (0, 0, 0, 1, 0, 0)], F)
    raise GeometryError(f"unknown hermitian pair variant {variant!r}")


def cw_hermitian_pair(q: int, variant: str, alpha: int = 1) -> ConstructionResult:
    """Symbols +a/-a on the sections of H(5,q^2) by a plane and its polar
    plane: Hermitian curves (weight 2(q^3+1)) or Baer cones sharing their
    vertex, which gets symbol zero (weight 2(q^3+q^2))."""
    P = get_space("H", 5, q * q)
    a = _symbol(alpha, P.F.p)
    pi = hermitian_pair_plane(P, variant)
    want = "hermitian_curve" if variant == "curve_pair" else "baer_cone"
    if classify_plane_section(P, pi) != want:
        raise GeometryError(f"section of the chosen plane is not a {want}")
    weight = 2 * (q ** 3 + 1) if variant == "curve_pair" else 2 * (q ** 3 + q * q)
    return ConstructionResult(
        _section_pair(P, pi, a), weight, P, 2,
        f"plane/polar-plane section pair ({variant})")


def _first_noncollinear_pair(P: PolarSpace):
    x0 = P.points[0]
    for y in P.points[1:]:
        if not P.collinear(x0, y):
            return x0, y
    raise GeometryError("space has no non-collinear point pair")


def cw_disjoint_perp_cones(family: str, q: int, alpha: int = 1) -> ConstructionResult:
    """Two truncated cones from non-collinear points over the base cut
    out by both perps, symbols +a and -a; small-weight codewords of the
    point-line codes of Q-(5,q) and H(4,q^2)."""
    fam = canonical_family(family)
    if fam == "elliptic":
        P = get_space("Qminus", 5, q)
        weight = 2 * (q ** 3 - q * q + q)
    elif fam == "hermitian":
        P = get_space("H", 4, q * q)
        weight = 2 * (q ** 5 - q ** 3 + q * q)
    else:
        raise GeometryError(f"no perp-cone pair for family {family!r}")
    F = P.F
    a = _symbol(alpha, F.p)
    P1, P2 = _first_noncollinear_pair(P)
    base = P.points_on(polar_image(P, span([P1, P2], F)))
    symbols = {}
    for vertex, s in ((P1, a), (P2, -a)):
        cone = make_cone(P, span([vertex], F), base)
        symbols.update(dict.fromkeys(set(cone).difference(base), s))
    return ConstructionResult(
        CodewordVec(symbols, len(P.points), F.p), weight, P, 1,
        "disjoint truncated cones over the common perp section")


# --- polar pairs and complements of cones -----------------------------


def _external_line(P: PolarSpace, positions) -> list:
    """Basis rows of the first line of PG(len(positions) - 1, q), embedded
    at the given coordinates of the ambient space of P, that carries no
    point of P."""
    for L in enumerate_lines(len(positions) - 1, P.F):
        rows = [_embed(u, positions, P.n + 1) for u in L.basis]
        if not P.points_on(span(rows, P.F)):
            return rows
    raise GeometryError("no external line found")


def _embed(vec, positions, width):
    out = [0] * width
    for v, pos in zip(vec, positions):
        out[pos] = v
    return tuple(out)


def _unit(i: int, width: int) -> tuple[int, ...]:
    return _embed((1,), (i,), width)


def cw_polar_pair(family: str, n: int, q: int, alpha: int = 1) -> ConstructionResult:
    """Symbols +a/-a on the polar-space sections of a non-singular
    subspace and its polar image, their intersection excluded.

    Hyperbolic Q+(2n+1,q), n >= 2 its generator dimension: a parabolic
    section for even n (weight 2 theta_{n-1}) and an elliptic section for
    odd n (weight 2 theta_{n-1} - 2 q^{(n-1)/2}).  Hermitian H(5,q^2):
    the Hermitian-curve pair of weight 2(q^3+1)."""
    # q and q^2 have the same characteristic
    a = _symbol(alpha, field_of_order(q).p)
    fam = canonical_family(family)
    if fam == "hermitian":
        if n != 5:
            raise GeometryError("hermitian polar pairs are built for n=5")
        return cw_hermitian_pair(q, "curve_pair", alpha)
    if fam != "hyperbolic":
        raise GeometryError(f"no polar pair for family {family!r}")
    if n < 2:
        # n = 0, 1 leave an empty section pair: the zero word
        raise GeometryError(f"polar pairs of Q+(2n+1,q) need n >= 2, got n={n}")
    P = get_space("Qplus", 2 * n + 1, q)
    width = 2 * n + 2
    if n % 2 == 0:
        rows = [_embed((1, 1), (0, 1), width)]
        rows += [_unit(i, width) for i in range(2, n + 2)]
        weight = 2 * theta(n - 1, q)
    else:
        rows = _external_line(P, range(4))
        rows += [_unit(i, width) for i in range(4, n + 3)]
        weight = 2 * theta(n - 1, q) - 2 * q ** ((n - 1) // 2)
    pi = span(rows, P.F)
    if pi.dim != n:
        raise GeometryError("section subspace has the wrong dimension")
    return ConstructionResult(
        _section_pair(P, pi, a), weight, P, n,
        "non-singular subspace and its polar image, intersection dropped")


def cw_complement_cone(family: str, n: int, q: int, k: int,
                       flavor: str = "cone") -> ConstructionResult:
    """Maximum-weight codewords for even q: all-ones on the complement of
    the blocking configuration of the relevant family.

    hyperbolic k=1: flavor 'parabolic' removes a non-tangent hyperplane
    section (weight (q^n+1)q^n), flavor 'tangent' removes a tangent-
    hyperplane section (weight q^{2n}).  hyperbolic k>=2 removes a cone
    with (k-3)-dimensional totally singular vertex over an elliptic
    quadric; parabolic and elliptic families remove the analogous cones
    with vertex dimensions k-2 and k-1.  The three quadric cones differ
    only by the width w = 0, 1, 2 of the anisotropic head of the standard
    form: the vertex spans the first coordinates of the first k-2+w
    hyperbolic pairs, and the base is a line missing the quadric in the
    head and the next 2-w pairs, with every later coordinate.  The
    hermitian family removes a cone over a smaller Hermitian variety
    (vertex dimension k-1 for even n, k-2 for odd n).  Everywhere but
    hyperbolic k=1 the flavor is 'cone'."""
    if q % 2:
        raise GeometryError("complement codewords need even q")
    fam = canonical_family(family)
    if flavor != "cone" and not (fam == "hyperbolic" and k == 1):
        raise GeometryError(f"flavor {flavor!r} applies only to hyperbolic k=1")
    if fam == "hyperbolic":
        P = get_space("Qplus", 2 * n + 1, q)
        if k == 1:
            if flavor == "parabolic":
                sec = _first_hyperplane_section(P, theta(2 * n - 1, q), "parabolic")
                return ConstructionResult(
                    _complement(P, sec), (q ** n + 1) * q ** n, P, 1,
                    "complement of a parabolic hyperplane section")
            if flavor == "tangent":
                perp = polar_image(P, span([P.points[0]], P.F))
                return ConstructionResult(
                    _complement(P, P.points_on(perp)), q ** (2 * n), P, 1,
                    "complement of a tangent hyperplane section")
            raise GeometryError(f"unknown flavor {flavor!r} for k=1")
        if not 2 <= k <= n - 1 and not (n == 2 and k == 2):
            raise GeometryError(f"k={k} out of range for this family")
        weight = q ** n * sum(q ** j for j in range(n - k + 1, n + 1)) \
            + q ** n + q ** (n - 1)
    elif fam == "parabolic":
        P = get_space("Q", 2 * n, q)
        if not 1 <= k < (n + 1) / 2:
            raise GeometryError(f"k={k} out of range for this family")
        weight = q ** n * sum(q ** j for j in range(n - k, n)) + q ** (n - 1)
    elif fam == "elliptic":
        P = get_space("Qminus", 2 * n + 1, q)
        if not 1 <= k < (n + 1) / 2:
            raise GeometryError(f"k={k} out of range for this family")
        weight = q ** (2 * n - k + 1) * theta(k - 1, q)
    elif fam == "hermitian":
        P = get_space("H", n, q * q)
        if not 1 <= k <= (n - 3) / 2 + (1 if n % 2 else 0) and k != 1:
            raise GeometryError(f"k={k} out of range for this family")
        weight = q ** (2 * n - 2 * k + 1) * (q ** (2 * k) - 1) // (q * q - 1)
        if n % 2:
            weight += q ** (n - 1)
    else:
        raise GeometryError(f"no complement cone for family {family!r}")
    width = P.n + 1
    if fam == "hermitian":
        b = _norm_minus_one(P.F)
        nv = k - 1 if n % 2 == 0 else k - 2
        vertex_rows = [_embed((1, b), (2 * i, 2 * i + 1), width)
                       for i in range(nv + 1)]
        # the base spans the coordinates after the vertex pairs, all but
        # the last one for odd n
        base_rows = [_unit(i, width) for i in range(2 * nv + 2, width - n % 2)]
    else:
        w = P.n - 2 * P.gen_dim - 1  # the head width
        v = k - 2 + w
        end = 2 * v + 4 - w  # past the head and the 2 - w pairs after the vertex's
        vertex_rows = [_unit(w + 2 * i, width) for i in range(v)]
        base_rows = _external_line(P, [*range(w), *range(w + 2 * v, end)])
        base_rows += [_unit(i, width) for i in range(end, width)]
    removed = P.points_on(span(base_rows, P.F))
    if vertex_rows:
        removed = make_cone(P, span(vertex_rows, P.F), removed)
    return ConstructionResult(
        _complement(P, removed), weight, P, k,
        "complement of a cone-type blocking configuration")


CONSTRUCTIONS = {
    "two-reguli": cw_two_reguli,
    "two-pencils": cw_two_pencils,
    "regulus-combination": cw_regulus_combination,
    "regulus-switch": cw_regulus_switch,
    "complement-ovoid": cw_complement_ovoid,
    "wq-example": cw_wq_examples,
    "hermitian-pair": cw_hermitian_pair,
    "disjoint-cones": cw_disjoint_perp_cones,
    "polar-pair": cw_polar_pair,
    "complement-cone": cw_complement_cone,
}
