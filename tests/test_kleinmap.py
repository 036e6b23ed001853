import hashlib

import pytest

from polarlab.gf import field_of_order
from polarlab.gfcode import CodewordVec, build_incidence, is_dual_codeword
from polarlab.projspace import (
    GeometryError,
    enumerate_lines,
    span,
    subspace_points,
)
from polarlab.polarspace import get_space
from references import intersect
from polarlab.kleinmap import (
    inverse_klein_point,
    klein_point,
    lineset_to_codeword,
    opposite_regulus,
    plucker,
    reguli_partition_through,
    regular_spread,
    regulus_through,
    to_quadric_point,
)


def skew_triple(F):
    L1 = span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    L2 = span([(0, 0, 1, 0), (0, 0, 0, 1)], F)
    L3 = span([(1, 0, 1, 0), (0, 1, 0, 1)], F)
    return L1, L2, L3


@pytest.mark.parametrize("q", [2, 3])
def test_klein_correspondence_is_a_bijection(q):
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    lines = enumerate_lines(3, F)
    images = {klein_point(L, F) for L in lines}
    assert len(images) == len(lines) == len(P.points)
    assert images == set(P.points)
    for L in lines:
        assert inverse_klein_point(klein_point(L, F), F) == L


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


def test_plucker_relation_and_inverse():
    F = field_of_order(3)
    for L in enumerate_lines(3, F)[:25]:
        c = plucker(L, F)
        # p01 p23 + p02 p31 + p03 p12 = 0
        terms = F.mul(c[0], c[3])
        terms = F.add(terms, F.mul(c[1], c[4]))
        terms = F.add(terms, F.mul(c[2], c[5]))
        assert terms == 0
        assert inverse_klein_point(to_quadric_point(c, F), F) == L
    # x0 x1 = 1: not a Klein point
    with pytest.raises(GeometryError):
        inverse_klein_point((1, 1, 0, 0, 0, 0), F)


@pytest.mark.parametrize("q", [2, 3])
def test_regulus_and_opposite(q):
    F = field_of_order(q)
    L1, L2, L3 = skew_triple(F)
    R = regulus_through(L1, L2, L3, F)
    assert len(R) == q + 1 and {L1, L2, L3} <= set(R)
    O = opposite_regulus(R, F)
    assert len(O) == q + 1
    for A in R:
        for B in O:
            assert intersect(A, B, F) is not None
    # the 2(q+1) lines cover the (q+1)^2 points of a hyperbolic quadric
    pts = set()
    for A in list(R) + list(O):
        pts.update(subspace_points(A, F))
    assert len(pts) == (q + 1) ** 2


def test_common_transversals_count():
    F = field_of_order(3)
    T = opposite_regulus(regulus_through(*skew_triple(F), F), F)
    assert len(T) == 4  # q+1 transversals to three pairwise skew lines


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("triple", ["canonical", "spread"])
def test_opposite_regulus_is_the_transversals(q, triple):
    # reference: the lines of PG(3,q) that meet all three, by intersect
    F = field_of_order(q)
    L = skew_triple(F) if triple == "canonical" else regular_spread(q)[:3]
    meeting = [M for M in enumerate_lines(3, F)
               if all(intersect(M, A, F) is not None for A in L)]
    assert opposite_regulus(regulus_through(*L, F), F) == meeting


def test_regulus_through_meeting_lines_is_refused():
    F = field_of_order(3)
    L1, L2, L3 = skew_triple(F)
    meets_L1 = span([(1, 0, 0, 0), (0, 0, 1, 0)], F)
    with pytest.raises(GeometryError):
        regulus_through(L1, meets_L1, L2, F)
    with pytest.raises(GeometryError):
        regulus_through(L1, L2, L2, F)


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
    R = regulus_through(T[0], T[1], T[2], F)
    assert set(R) <= set(T)


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
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    R = regulus_through(*skew_triple(F), F)
    O = opposite_regulus(R, F)
    symbols = {L: 1 for L in R}
    symbols.update({L: q - 1 for L in O})
    ok, row = is_dual_codeword(lineset_to_codeword(symbols, P), build_incidence(P, 2))
    assert ok, row


def test_line_conditions_reject_unbalanced_set():
    F = field_of_order(2)
    P = get_space("Qplus", 5, 2)
    lines = enumerate_lines(3, F)
    ok, row = is_dual_codeword(lineset_to_codeword({lines[0]: 1}, P),
                               build_incidence(P, 2))
    assert not ok
    assert row is not None


@pytest.mark.parametrize("q", [2])
def test_switched_spread_satisfies_odd_conditions(q):
    # every point and plane of PG(3,q) sees an odd number of the lines:
    # q^2+q+1 is odd, so the complement of the image is a dual codeword
    from polarlab.constructions import switched_line_set
    F = field_of_order(q)
    P = get_space("Qplus", 5, q)
    image = {P.index[klein_point(L, F)] for L in switched_line_set(q, 1)}
    rest = CodewordVec({j: 1 for j in range(len(P.points)) if j not in image},
                       len(P.points), 2)
    ok, row = is_dual_codeword(rest, build_incidence(P, 2))
    assert ok, row


def test_lineset_to_codeword_support():
    F = field_of_order(2)
    P = get_space("Qplus", 5, 2)
    T = regular_spread(2)
    c = lineset_to_codeword({L: 1 for L in T}, P)
    assert c.weight == 5
    assert all(v == 1 for v in c.support.values())
