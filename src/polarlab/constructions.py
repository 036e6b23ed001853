"""Explicit dual codeword families for the classical polar spaces.

Every construction returns a ConstructionResult bundling the sparse
codeword, the closed-form predicted weight, the incidence matrix it must
annihilate, and a description of the geometric configuration used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .gf import FieldSpec, field_of_order
from .projspace import (
    GeometryError,
    Subspace,
    enumerate_lines,
    incidence_with_hyperplanes,
    intersect,
    span,
    subspace_points,
    theta,
)
from .polarspace import (
    PolarSpace,
    get_space,
    make_cone,
    polar_image,
)
from .gfcode import CodewordVec, IncidenceMatrix, build_incidence, is_dual_codeword
from .kleinmap import (
    klein_point,
    lineset_to_codeword,
    opposite_regulus,
    regular_spread,
    reguli_partition_through,
    regulus_through,
)
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


def _points_to_codeword(P: PolarSpace, symbol_map) -> CodewordVec:
    support = {}
    for pt, s in symbol_map.items():
        support[P.index[pt]] = s
    return CodewordVec(support, len(P.points), P.F.p)


# --- line sets on the Klein quadric -----------------------------------


def _canonical_skew_triple(F: FieldSpec):
    L1 = span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    L2 = span([(0, 0, 1, 0), (0, 0, 0, 1)], F)
    L3 = span([(1, 0, 1, 0), (0, 1, 0, 1)], F)
    return L1, L2, L3


def cw_two_reguli(q: int, alpha: int = 1) -> ConstructionResult:
    """Symbols +a on one regulus of a hyperbolic quadric of PG(3,q) and
    -a on the opposite regulus; weight 2q+2 on the Klein quadric."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    p = F.p
    if alpha % p == 0:
        raise GeometryError("symbol must be nonzero")
    R = regulus_through(*_canonical_skew_triple(F), F)
    O = opposite_regulus(R, F)
    symbols = {L: alpha % p for L in R}
    symbols.update({L: (-alpha) % p for L in O})
    return ConstructionResult(
        lineset_to_codeword(symbols, P), 2 * q + 2, P, 2,
        "regulus/opposite-regulus pair of a hyperbolic quadric in PG(3,q)")


def cw_two_pencils(q: int, beta: int = 1) -> ConstructionResult:
    """The 4q lines through two points in two planes through their join,
    the join excluded; weight 4q."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    p = F.p
    if beta % p == 0:
        raise GeometryError("symbol must be nonzero")
    A = (1, 0, 0, 0)
    B = (0, 1, 0, 0)
    join = span([A, B], F)
    pi1 = span([A, B, (0, 0, 1, 0)], F)
    pi2 = span([A, B, (0, 0, 0, 1)], F)

    def pencil(vertex, plane):
        out = []
        for x in subspace_points(plane, F):
            L = span([vertex, x], F)
            if L.dim == 1 and L != join and L not in out:
                out.append(L)
        return out

    symbols = {}
    for L in pencil(A, pi1):
        symbols[L] = beta % p
    for L in pencil(B, pi2):
        symbols[L] = beta % p
    for L in pencil(A, pi2):
        symbols[L] = (-beta) % p
    for L in pencil(B, pi1):
        symbols[L] = (-beta) % p
    assert len(symbols) == 4 * q and join not in symbols
    return ConstructionResult(
        lineset_to_codeword(symbols, P), 4 * q, P, 2,
        "two pencils of lines through two points in two planes")


@lru_cache(maxsize=None)
def _all_hyperbolic_quadrics(q: int):
    """Hyperbolic quadrics of PG(3,q) as regulus pairs, found from skew
    line triples in canonical order."""
    F = field_of_order(q)
    lines = enumerate_lines(3, F)
    seen = {}
    skew = {}
    for i, Li in enumerate(lines):
        for j in range(i + 1, len(lines)):
            skew[(i, j)] = intersect(Li, lines[j], F) is None
    for i, j, k in combinations(range(len(lines)), 3):
        if skew[(i, j)] and skew[(i, k)] and skew[(j, k)]:
            R = regulus_through(lines[i], lines[j], lines[k], F)
            key = frozenset(R)
            if key not in seen:
                O = opposite_regulus(R, F)
                seen[frozenset(O)] = (O, R)
                seen[key] = (R, O)
    out = {}
    for R, O in seen.values():
        out[frozenset(R) | frozenset(O)] = (R, O)
    return list(out.values())


def cw_regulus_combination(q: int, common_lines: int, orientation: int = 1,
                           alpha: int = 1):
    """Sum of two regulus-pair codewords whose quadrics share the given
    number of lines; None when no such pair of quadrics is found."""
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    p = F.p
    quads = _all_hyperbolic_quadrics(q)
    for a, b in combinations(range(len(quads)), 2):
        (R1, O1), (R2, O2) = quads[a], quads[b]
        shared = (frozenset(R1) | frozenset(O1)) & (frozenset(R2) | frozenset(O2))
        if len(shared) != common_lines:
            continue
        s1 = {L: alpha % p for L in R1}
        s1.update({L: (-alpha) % p for L in O1})
        if orientation < 0:
            R2, O2 = O2, R2
        s2 = {L: alpha % p for L in R2}
        s2.update({L: (-alpha) % p for L in O2})
        c = lineset_to_codeword(s1, P) + lineset_to_codeword(s2, P)
        return ConstructionResult(
            c, c.weight, P, 2,
            f"sum of two regulus-pair codewords sharing {common_lines} lines")
    return None


def cw_regulus_switch(q: int, i: int) -> ConstructionResult:
    """Switch 2i reguli of a regular spread to their opposites, restore
    the shared line, and take the complement of the Klein image; weight
    (1+q^2)(q^2+q)-2i, for even q and 0 <= i <= q/2."""
    if q % 2:
        raise GeometryError("regulus switching needs even q")
    if not 0 <= i <= q // 2:
        raise GeometryError(f"i={i} out of range [0, {q // 2}]")
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    switched = switched_line_set(q, i)
    assert len(switched) == q * q + 1 + 2 * i
    images = {P.index[klein_point(M, F)] for M in switched}
    support = {j: 1 for j in range(len(P.points)) if j not in images}
    return ConstructionResult(
        CodewordVec(support, len(P.points), 2),
        (1 + q * q) * (q * q + q) - 2 * i, P, 2,
        f"complement of a regular spread image with {2 * i} reguli switched")


def switched_line_set(q: int, i: int) -> dict:
    """The switched spread line set itself, with unit symbols; satisfies
    the odd-count plane and point conditions."""
    F = field_of_order(q)
    T = regular_spread(q)
    L = T[0]
    regs = reguli_partition_through(T, L, q)
    switched = set(T)
    for reg in regs[:2 * i]:
        switched.difference_update(reg)
        switched.update(opposite_regulus(reg, F))
    switched.add(L)
    return {M: 1 for M in switched}


# --- complements of ovoids and W(q) examples --------------------------


def _first_hyperplane_section(P: PolarSpace, size: int, kind: str) -> list:
    """Point indices of P on the first hyperplane, in the canonical dual
    order, that meets P in exactly `size` points."""
    on = incidence_with_hyperplanes(P.points, P.n, P.F)
    hit = np.flatnonzero(on.sum(axis=0) == size)
    if not len(hit):
        raise GeometryError(f"no {kind} hyperplane section found")
    return np.flatnonzero(on[:, hit[0]]).tolist()


def elliptic_hyperplane_section(P: PolarSpace) -> list:
    """Point indices of the first hyperplane section of size q^2+1 of a
    parabolic quadric Q(4,q): an elliptic quadric, hence an ovoid."""
    if P.family != "parabolic" or P.n != 4:
        raise GeometryError("expected Q(4,q)")
    return _first_hyperplane_section(P, P.q ** 2 + 1, "elliptic")


def klein_spread_ovoid(P: PolarSpace) -> list:
    """Ovoid of the standard Q+(5,q): Klein image of the regular spread."""
    F = P.F
    return sorted(P.index[klein_point(L, F)] for L in regular_spread(F.order))


def cw_complement_ovoid(family: str, q: int, ovoid=None) -> ConstructionResult:
    """All-ones on the complement of an ovoid; q even."""
    if q % 2:
        raise GeometryError("complement-of-ovoid codewords need even q")
    if family in ("Q", "parabolic"):
        P = get_space("Q", 4, q)
        k = 1
        weight = q ** 3 + q
        if ovoid is None:
            ovoid = elliptic_hyperplane_section(P)
    elif family in ("Qplus", "hyperbolic"):
        P = get_space("Qplus", 5, q)
        k = 2
        weight = (1 + q * q) * (q * q + q)
        if ovoid is None:
            ovoid = klein_spread_ovoid(P)
    else:
        raise GeometryError(f"no ovoid complement for family {family!r}")
    if not verify.is_ovoid(P, ovoid):
        raise GeometryError("candidate point set is not an ovoid")
    idx = set(ovoid if isinstance(next(iter(ovoid)), int)
              else (P.index[x] for x in ovoid))
    support = {j: 1 for j in range(len(P.points)) if j not in idx}
    return ConstructionResult(
        CodewordVec(support, len(P.points), 2), weight, P, k,
        "complement of an ovoid")


def _wq_plane(F: FieldSpec) -> Subspace:
    return span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], F)


def cw_wq_examples(q: int, variant: str) -> ConstructionResult:
    """Even-q codewords of the symplectic point-line code: the affine
    complement of a plane (q^3), the affine set adjusted by a polar line
    pair (q^3+2), and the ovoid complement adjusted by a polar pair of a
    2-secant (q^3-q+2)."""
    if q % 2:
        raise GeometryError("these symplectic examples need even q")
    P = get_space("W", 3, q)
    F = P.F
    n_pts = len(P.points)
    singular_lines = {S for S, _sup in P.singular_kspaces_with_supports(1)}

    def indicator(idxs):
        return CodewordVec({j: 1 for j in idxs}, n_pts, 2)

    if variant == "affine":
        pi = _wq_plane(F)
        on_pi = {P.index[x] for x in subspace_points(pi, F)}
        c = indicator(set(range(n_pts)) - on_pi)
        return ConstructionResult(c, q ** 3, P, 1,
                                  "affine points: complement of a plane")

    if variant == "affine_plus_pair":
        pi = _wq_plane(F)
        on_pi = {P.index[x] for x in subspace_points(pi, F)}
        c = indicator(set(range(n_pts)) - on_pi)
        pi_pts = subspace_points(pi, F)
        for a, b in combinations(pi_pts, 2):
            L = span([a, b], F)
            if L in singular_lines:
                continue
            Ls = polar_image(P, L)
            on = sum(1 for x in subspace_points(Ls, F) if x in set(pi_pts))
            if on == 1:
                pair = indicator([P.index[x] for x in subspace_points(L, F)])
                pair += indicator([P.index[x] for x in subspace_points(Ls, F)])
                return ConstructionResult(
                    c + pair, q ** 3 + 2, P, 1,
                    "affine set plus a non-isotropic line and its polar")
        raise GeometryError("no suitable line pair found")

    if variant == "ovoid_plus_pair":
        E = get_space("Qminus", 3, q)
        ovoid = sorted(P.index[x] for x in E.points)
        if not verify.is_ovoid(P, ovoid):
            raise GeometryError("elliptic point set is not an ovoid here")
        c = indicator(set(range(n_pts)) - set(ovoid))
        opts = set(ovoid)
        for L in enumerate_lines(3, F):
            if L in singular_lines:
                continue
            hits = [x for x in subspace_points(L, F)
                    if P.index[x] in opts]
            if len(hits) != 2:
                continue
            Ls = polar_image(P, L)
            if any(P.index[x] in opts for x in subspace_points(Ls, F)):
                raise GeometryError("polar of a 2-secant meets the ovoid")
            pair = indicator([P.index[x] for x in subspace_points(L, F)])
            pair += indicator([P.index[x] for x in subspace_points(Ls, F)])
            return ConstructionResult(
                c + pair, q ** 3 - q + 2, P, 1,
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
    from .polarspace import classify_plane_section
    P = get_space("H", 5, q * q)
    F = P.F
    p = F.p
    if alpha % p == 0:
        raise GeometryError("symbol must be nonzero")
    pi = hermitian_pair_plane(P, variant)
    want = "hermitian_curve" if variant == "curve_pair" else "baer_cone"
    if classify_plane_section(P, pi) != want:
        raise GeometryError(f"section of the chosen plane is not a {want}")
    pis = polar_image(P, pi)
    gamma = {x for x in subspace_points(pi, F) if x in P.index}
    gamma2 = {x for x in subspace_points(pis, F) if x in P.index}
    shared = gamma & gamma2
    symbols = {}
    for x in gamma - shared:
        symbols[x] = alpha % p
    for x in gamma2 - shared:
        symbols[x] = (-alpha) % p
    weight = 2 * (q ** 3 + 1) if variant == "curve_pair" else 2 * (q ** 3 + q * q)
    return ConstructionResult(
        _points_to_codeword(P, symbols), weight, P, 2,
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
    if family in ("Qminus", "elliptic"):
        P = get_space("Qminus", 5, q)
        weight = 2 * (q ** 3 - q * q + q)
    elif family in ("H", "hermitian"):
        P = get_space("H", 4, q * q)
        weight = 2 * (q ** 5 - q ** 3 + q * q)
    else:
        raise GeometryError(f"no perp-cone pair for family {family!r}")
    F = P.F
    p = F.p
    if alpha % p == 0:
        raise GeometryError("symbol must be nonzero")
    P1, P2 = _first_noncollinear_pair(P)
    perp = intersect(polar_image(P, span([P1], F)),
                     polar_image(P, span([P2], F)), F)
    base = [x for x in subspace_points(perp, F) if x in P.index]
    symbols = {}
    for vertex, s in ((P1, alpha % p), (P2, (-alpha) % p)):
        cone = make_cone(span([vertex], F), base, F, truncated=True)
        for x in cone.points:
            if x not in base:
                symbols[x] = s
        symbols[vertex] = s
    return ConstructionResult(
        _points_to_codeword(P, symbols), weight, P, 1,
        "disjoint truncated cones over the common perp section")


# --- polar pairs and complements of cones -----------------------------


def _external_line(P: PolarSpace):
    """Basis pair of the first line of the ambient space of P that carries
    no point of P."""
    for L in enumerate_lines(P.n, P.F):
        if not any(x in P.index for x in subspace_points(L, P.F)):
            return L.basis
    raise GeometryError("no external line found")


def _embed(vec, positions, width):
    out = [0] * width
    for v, pos in zip(vec, positions):
        out[pos] = v
    return tuple(out)


def cw_polar_pair(family: str, n: int, q: int, alpha: int = 1) -> ConstructionResult:
    """Symbols +a/-a on the polar-space sections of a non-singular
    subspace and its polar image, their intersection excluded.

    Hyperbolic Q+(2n+1,q), n >= 2 its generator dimension: a parabolic
    section for even n (weight 2 theta_{n-1}) and an elliptic section for
    odd n (weight 2 theta_{n-1} - 2 q^{(n-1)/2}).  Hermitian H(5,q^2):
    the Hermitian-curve pair of weight 2(q^3+1)."""
    p = field_of_order(q).p if family != "hermitian" else field_of_order(q * q).p
    if alpha % p == 0:
        raise GeometryError("symbol must be nonzero")
    if family in ("H", "hermitian"):
        if n != 5:
            raise GeometryError("hermitian polar pairs are built for n=5")
        return cw_hermitian_pair(q, "curve_pair", alpha)
    if family not in ("Qplus", "hyperbolic"):
        raise GeometryError(f"no polar pair for family {family!r}")
    if n < 2:
        # n = 0, 1 leave an empty section pair: the zero word
        raise GeometryError(f"polar pairs of Q+(2n+1,q) need n >= 2, got n={n}")
    P = get_space("Qplus", 2 * n + 1, q)
    F = P.F
    width = 2 * n + 2
    if n % 2 == 0:
        rows = [_embed((1, 1), (0, 1), width)]
        rows += [tuple(1 if j == i else 0 for j in range(width))
                 for i in range(2, n + 2)]
        weight = 2 * theta(n - 1, q)
    else:
        u0, u1 = _external_line(get_space("Qplus", 3, q))
        rows = [_embed(u0, (0, 1, 2, 3), width), _embed(u1, (0, 1, 2, 3), width)]
        rows += [tuple(1 if j == i else 0 for j in range(width))
                 for i in range(4, n + 3)]
        weight = 2 * theta(n - 1, q) - 2 * q ** ((n - 1) // 2)
    pi = span(rows, F)
    if pi.dim != n:
        raise GeometryError("section subspace has the wrong dimension")
    pis = polar_image(P, pi)
    T = intersect(pi, pis, F)
    excluded = set(subspace_points(T, F)) if T is not None else set()
    symbols = {}
    for x in subspace_points(pi, F):
        if x in P.index and x not in excluded:
            symbols[x] = alpha % p
    for x in subspace_points(pis, F):
        if x in P.index and x not in excluded:
            symbols[x] = (-alpha) % p
    return ConstructionResult(
        _points_to_codeword(P, symbols), weight, P, n,
        "non-singular subspace and its polar image, intersection dropped")


def _removed_set_complement(P: PolarSpace, removed, k: int,
                            weight: int, witness: str) -> ConstructionResult:
    removed_idx = {P.index[x] for x in removed}
    support = {j: 1 for j in range(len(P.points)) if j not in removed_idx}
    return ConstructionResult(
        CodewordVec(support, len(P.points), 2), weight, P, k, witness)


def cw_complement_cone(family: str, n: int, q: int, k: int,
                       flavor: str = "cone") -> ConstructionResult:
    """Maximum-weight codewords for even q: all-ones on the complement of
    the blocking configuration of the relevant family.

    hyperbolic k=1: flavor 'parabolic' removes a non-tangent hyperplane
    section (weight (q^n+1)q^n), flavor 'tangent' removes a tangent-
    hyperplane section (weight q^{2n}).  hyperbolic k>=2 removes a cone
    with (k-3)-dimensional totally singular vertex over an elliptic
    quadric; parabolic and elliptic families remove the analogous cones
    with vertex dimensions k-2 and k-1; the hermitian family removes a
    cone over a smaller Hermitian variety (vertex dimension k-1 for even
    n, k-2 for odd n)."""
    if q % 2:
        raise GeometryError("complement codewords need even q")
    fam = {"Qplus": "hyperbolic", "Q": "parabolic", "Qminus": "elliptic",
           "H": "hermitian"}.get(family, family)
    if fam == "hyperbolic":
        P = get_space("Qplus", 2 * n + 1, q)
        F = P.F
        width = 2 * n + 2
        if k == 1:
            if flavor == "parabolic":
                sec = [P.points[i] for i in _first_hyperplane_section(
                    P, theta(2 * n - 1, q), "parabolic")]
                return _removed_set_complement(
                    P, sec, 1, (q ** n + 1) * q ** n,
                    "complement of a parabolic hyperplane section")
            if flavor == "tangent":
                pt = P.points[0]
                perp = polar_image(P, span([pt], F))
                sec = [x for x in subspace_points(perp, F) if x in P.index]
                return _removed_set_complement(
                    P, sec, 1, q ** (2 * n),
                    "complement of a tangent hyperplane section")
            raise GeometryError(f"unknown flavor {flavor!r} for k=1")
        if not 2 <= k <= n - 1 and not (n == 2 and k == 2):
            raise GeometryError(f"k={k} out of range for this family")
        vertex_rows = [_embed((1,), (2 * i,), width) for i in range(k - 2)]
        u0, u1 = _external_line(get_space("Qplus", 3, q))
        pos = (2 * (k - 2), 2 * (k - 2) + 1, 2 * (k - 2) + 2, 2 * (k - 2) + 3)
        base_rows = [_embed(u0, pos, width), _embed(u1, pos, width)]
        base_rows += [tuple(1 if j == i else 0 for j in range(width))
                      for i in range(2 * k, width)]
        weight = q ** n * sum(q ** j for j in range(n - k + 1, n + 1)) \
            + q ** n + q ** (n - 1)
    elif fam == "parabolic":
        P = get_space("Q", 2 * n, q)
        F = P.F
        width = 2 * n + 1
        if not 1 <= k < (n + 1) / 2:
            raise GeometryError(f"k={k} out of range for this family")
        vertex_rows = [_embed((1,), (2 * i + 1,), width) for i in range(k - 1)]
        u0, u1 = _external_line(get_space("Q", 2, q))
        pos = (0, 2 * k - 1, 2 * k)
        base_rows = [_embed(u0, pos, width), _embed(u1, pos, width)]
        base_rows += [tuple(1 if j == i else 0 for j in range(width))
                      for i in range(2 * k + 1, width)]
        weight = q ** n * sum(q ** j for j in range(n - k, n)) + q ** (n - 1)
    elif fam == "elliptic":
        P = get_space("Qminus", 2 * n + 1, q)
        F = P.F
        width = 2 * n + 2
        if not 1 <= k < (n + 1) / 2:
            raise GeometryError(f"k={k} out of range for this family")
        vertex_rows = [_embed((1,), (2 * i,), width) for i in range(1, k + 1)]
        base_rows = [tuple(1 if j == i else 0 for j in range(width))
                     for i in (0, 1)]
        base_rows += [tuple(1 if j == i else 0 for j in range(width))
                      for i in range(2 * k + 2, width)]
        weight = q ** (2 * n - k + 1) * theta(k - 1, q)
    elif fam == "hermitian":
        P = get_space("H", n, q * q)
        F = P.F
        width = n + 1
        if not 1 <= k <= (n - 3) / 2 + (1 if n % 2 else 0) and k != 1:
            raise GeometryError(f"k={k} out of range for this family")
        b = _norm_minus_one(F)
        if n % 2 == 0:
            nv = k - 1
            base_first = 2 * k
            base_count = n - 2 * k + 1
        else:
            nv = k - 2
            base_first = 2 * (k - 1)
            base_count = n - 2 * k + 2
        vertex_rows = []
        for i in range(nv + 1):
            row = [0] * width
            row[2 * i] = 1
            row[2 * i + 1] = b
            vertex_rows.append(tuple(row))
        base_rows = [tuple(1 if j == base_first + i else 0 for j in range(width))
                     for i in range(base_count)]
        weight = q ** (2 * n - 2 * k + 1) * (q ** (2 * k) - 1) // (q * q - 1)
        if n % 2:
            weight += q ** (n - 1)
    else:
        raise GeometryError(f"unknown family {family!r}")

    base_space = span(base_rows, F)
    base_pts = [x for x in subspace_points(base_space, F) if x in P.index]
    if vertex_rows:
        vertex = span(vertex_rows, F)
        cone = make_cone(vertex, base_pts, F, truncated=False)
        removed = [x for x in cone.points if x in P.index]
        if len(removed) != len(cone.points):
            raise GeometryError("cone is not contained in the polar space")
    else:
        removed = base_pts
    return _removed_set_complement(
        P, removed, k, weight,
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
