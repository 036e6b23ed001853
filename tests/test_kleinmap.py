import hashlib

import numpy as np
import pytest

from polarlab.gf import field_of_order
from polarlab.gfcode import CodewordVec, build_incidence, is_dual_codeword
from polarlab.projspace import (
    GeometryError,
    enumerate_lines,
    enumerate_points,
    hyperplane_sums,
    span,
    subspace_points,
)
from polarlab.polarspace import get_space, polar_image
from references import intersect, reguli_partition_through, regular_spread
from polarlab import constructions as C
from polarlab.kleinmap import klein_point


def skew_triple(F):
    L1 = span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    L2 = span([(0, 0, 1, 0), (0, 0, 0, 1)], F)
    L3 = span([(1, 0, 1, 0), (0, 1, 0, 1)], F)
    return L1, L2, L3


def transversals(L, F):
    """The lines of PG(3,q) meeting every line of L, by intersect."""
    return [M for M in enumerate_lines(3, F)
            if all(intersect(M, A, F) is not None for A in L)]


def conic(L, F):
    """The points of Q+(5,q) in the plane of the Klein points of three
    pairwise skew lines: the Klein image of the regulus through them."""
    P = get_space("Qplus", 5, F.order)
    return C._on(P, span([klein_point(M, F) for M in L], F))


@pytest.mark.parametrize("q", [2, 3])
def test_klein_correspondence_is_a_bijection(q):
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    lines = enumerate_lines(3, F)
    images = {klein_point(L, F) for L in lines}
    assert len(images) == len(lines) == len(P.points)
    assert images == set(P.points)


@pytest.mark.parametrize("q", [2, 3])
def test_klein_transfers_incidence(q):
    # two lines of PG(3,q) meet iff their Klein images are collinear
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    lines = enumerate_lines(3, F)
    for i, L1 in enumerate(lines[:15]):
        for L2 in lines[i + 1:15]:
            meet = intersect(L1, L2, F) is not None
            coll = P.collinear(klein_point(L1, F), klein_point(L2, F))
            assert meet == coll


# the Plucker coordinate pairs in the order of the form x0x1 + x2x3 + x4x5
FORM_PAIRS = ((0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (1, 2))


def test_plucker_relation_and_inverse():
    F = field_of_order(3)
    P = get_space("Qplus", 5, 3)
    for L in enumerate_lines(3, F)[:25]:
        x = klein_point(L, F)
        # the Plucker relation p01 p23 + p02 p31 + p03 p12 = 0
        terms = F.add(F.mul(x[0], x[1]), F.mul(x[2], x[3]))
        assert F.add(terms, F.mul(x[4], x[5])) == 0
        assert x in P.index
        # the line is recovered from its Klein point: the rows of the
        # skew matrix x y^T - y x^T span it
        m = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(FORM_PAIRS, x):
            m[i][j], m[j][i] = v, F.neg(v)
        assert span([row for row in m if any(row)], F) == L
    with pytest.raises(GeometryError, match="needs a line"):
        klein_point(span([(1, 0, 0, 0)], F), F)


def test_klein_points_pinned():
    # sha256 of the repr of each Klein point, every line of PG(3,q) in
    # enumeration order, q = 2, 3, 4, 5, 7, 8, 9 in turn
    h = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_of_order(q)
        for L in enumerate_lines(3, F):
            h.update(repr(klein_point(L, F)).encode())
    assert h.hexdigest() == \
        "e4a668d9812f580643f5fb541978b27b9d08d2fd3822392d1247de140e0aaff6"


@pytest.mark.parametrize("q", [2, 3])
def test_regulus_and_opposite(q):
    # the support of cw_two_reguli read as lines: +1 on the regulus through
    # the canonical triple and -1 on its opposite
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    line = {klein_point(L, F): L for L in enumerate_lines(3, F)}
    triple = skew_triple(F)
    regulus = conic(triple, F)
    support = C.cw_two_reguli(q).codeword.support
    assert all(support[P.index[x]] == 1 for x in regulus)
    R = [line[x] for x in regulus]
    O = [line[P.points[j]] for j, s in support.items()
         if P.points[j] not in regulus and s == F.p - 1]
    assert len(R) == len(O) == q + 1 and set(triple) <= set(R)
    assert len(support) == 2 * q + 2
    for A in R:
        for B in O:
            assert intersect(A, B, F) is not None
    # the 2(q+1) lines cover the (q+1)^2 points of a hyperbolic quadric
    pts = set()
    for A in R + O:
        pts.update(subspace_points(A, F))
    assert len(pts) == (q + 1) ** 2


def test_common_transversals_count():
    F = field_of_order(3)
    minus = [j for j, s in C.cw_two_reguli(3).codeword.support.items() if s == 2]
    # q+1 transversals to three pairwise skew lines
    assert len(transversals(skew_triple(F), F)) == len(minus) == 4


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("triple", ["canonical", "spread"])
def test_opposite_regulus_is_the_transversals(q, triple):
    # reference: the lines of PG(3,q) that meet all three, by intersect
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    L = skew_triple(F) if triple == "canonical" else regular_spread(q)[:3]
    meeting = {klein_point(M, F) for M in transversals(L, F)}
    regulus = conic(L, F)
    assert len(regulus) == q + 1
    if triple == "canonical":
        # the -a support of cw_two_reguli
        support = C.cw_two_reguli(q).codeword.support
        opposite = {P.points[j] for j in support} - set(regulus)
    else:
        # the conic in the polar plane, as cw_regulus_switch takes it
        opposite = set(C._on(P, polar_image(P, span(regulus, F))))
    assert opposite == meeting


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_regular_spread(q):
    F = field_of_order(q)
    T = regular_spread(q)
    assert len(T) == q * q + 1
    seen = set()
    for L in T:
        pts = subspace_points(L, F)
        assert seen.isdisjoint(pts)
        seen.update(pts)
    assert len(seen) == (q * q + 1) * (q + 1)
    # regularity: the regulus of any three spread lines stays inside
    assert set(conic(T[:3], F)) <= {klein_point(L, F) for L in T}


@pytest.mark.parametrize("q", [2, 4, 8])
def test_reguli_partition_through(q):
    F = field_of_order(q)
    T = regular_spread(q)
    for L in (T[0], T[-1]):
        regs = reguli_partition_through(L, q)
        assert len(regs) == q
        rest = set(T) - {L}
        for reg in regs:
            assert len(reg) == q + 1
            assert L in reg
            rest.difference_update(set(reg) - {L})
        assert not rest
    off = next(M for M in enumerate_lines(3, F) if M not in T)
    with pytest.raises(GeometryError):
        reguli_partition_through(off, q)


def _bases_sha(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of the sorted spread bases and of the sorted partitions through
# the first and last spread line, as built by field reduction over GF(q^2)
SPREAD_PINS = {
    2: ("c0e02ad4c87d062ef81e3353aacf059bd747ac55da836e52ae2fc3f6c53cd4a3",
        "56ddfdae9d4cb5021cd69034aee009903d7aaf48d9ad26f9843f01caa81ca726",
        "3f5869fcc1ec23b61eb8d1bf6deea99803120c815005b29821620afaccb680c8"),
    4: ("8bf9c1f524680077ca70fd5e5a97bb3dcd710c380649dbe7d8819481d3b43211",
        "cfd78b5324363133d747fd4ea13623ba6492ee717bf7420cf06eb36a351e20f2",
        "2ec7319f7d4eccc84ce83586794a1d230f5c1738d5b2409ba0a67ddcac2edebf"),
}


@pytest.mark.parametrize("q", sorted(SPREAD_PINS))
def test_spread_and_partitions_pinned(q):
    T = regular_spread(q)
    shas = [_bases_sha(sorted(L.basis for L in T))]
    for L in (T[0], T[-1]):
        regs = reguli_partition_through(L, q)
        shas.append(_bases_sha(sorted(tuple(M.basis for M in reg)
                                      for reg in regs)))
    assert tuple(shas) == SPREAD_PINS[q]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_spread_solid_and_regulus_planes_match_the_lines(q):
    # the point-side spread and reguli of the constructions against the
    # Klein images of the line-side reference, reguli in the same order
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    T = regular_spread(q)
    assert C.klein_spread_ovoid(P) == sorted(P.index[klein_point(L, F)] for L in T)
    planes = C._spread_regulus_planes(F)
    regs = reguli_partition_through(T[0], q)
    assert [sorted(C._on(P, pi)) for pi in planes] == \
        [sorted(klein_point(L, F) for L in reg) for reg in regs]


def test_klein_spread_image_is_an_ovoid_cap(q=3):
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    T = regular_spread(q)
    img = [klein_point(L, F) for L in T]
    # spread lines are pairwise disjoint, so images are pairwise non-collinear
    for i, x in enumerate(img):
        for y in img[i + 1:]:
            assert not P.collinear(x, y)


# The planes of Q+(5,q) are the Klein images of the points and of the
# planes of PG(3,q), so a symbol-weighted line set satisfies the line
# conditions exactly when its Klein image is a dual codeword of planes.


@pytest.mark.parametrize("q", [2, 3])
def test_line_conditions_for_regulus_pair(q):
    # the regulus and its opposite by intersect: the transversals of the
    # canonical triple and the transversals of three of those
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    O = transversals(skew_triple(F), F)
    R = transversals(O[:3], F)
    symbols = {L: 1 for L in R}
    symbols.update({L: q - 1 for L in O})
    c = CodewordVec({P.index[klein_point(L, F)]: s for L, s in symbols.items()},
                    len(P.points), F.p)
    ok, row = is_dual_codeword(c, build_incidence(P, 2))
    assert ok, row
    assert c.support == C.cw_two_reguli(q).codeword.support


def test_line_conditions_reject_unbalanced_set():
    F = field_of_order(2)
    P = get_space("Qplus", 5, 2)
    L = enumerate_lines(3, F)[0]
    c = CodewordVec({P.index[klein_point(L, F)]: 1}, len(P.points), F.p)
    ok, row = is_dual_codeword(c, build_incidence(P, 2))
    assert not ok
    assert row is not None


@pytest.mark.parametrize("q", [2, 4])
def test_switched_spread_satisfies_odd_conditions(q):
    # the spread with two reguli switched on the line side, each opposite
    # regulus by intersect: every point and plane of PG(3,q) sees an odd
    # number of its lines, and as q^2+q+1 is odd, the complement of its
    # Klein image is a dual codeword, the one cw_regulus_switch builds
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    T = regular_spread(q)
    switched = set(T)
    for reg in reguli_partition_through(T[0], q)[:2]:
        switched.difference_update(reg)
        switched.update(transversals(reg[:3], F))
    switched.add(T[0])
    points = enumerate_points(3, F)
    at = {x: i for i, x in enumerate(points)}
    through = np.zeros(len(points), dtype=int)
    inside = np.zeros(len(points), dtype=int)
    for L in switched:
        on_line = subspace_points(L, F)
        through[[at[x] for x in on_line]] += 1
        # a line lies in a plane exactly when its q+1 points do
        inside += hyperplane_sums(on_line, [1] * (q + 1), 3, F) == q + 1
    assert (through % 2).all() and (inside % 2).all()
    image = {P.index[klein_point(L, F)] for L in switched}
    rest = CodewordVec({j: 1 for j in range(len(P.points)) if j not in image},
                       len(P.points), 2)
    ok, row = is_dual_codeword(rest, build_incidence(P, 2))
    assert ok, row
    assert rest.support == C.cw_regulus_switch(q, 1).codeword.support


def test_lineset_to_codeword_support():
    F = field_of_order(2)
    P = get_space("Qplus", 5, 2)
    T = regular_spread(2)
    c = CodewordVec({P.index[klein_point(L, F)]: 1 for L in T}, len(P.points), F.p)
    assert c.weight == 5
    assert all(v == 1 for v in c.support.values())
