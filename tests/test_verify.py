import random

import pytest

from polarlab.gf import field_of_order
from polarlab import projspace
from polarlab.projspace import (
    GeometryError,
    enumerate_points,
    hyperplane_sums,
    span,
    subspace_points,
    theta,
)
from polarlab.gfcode import CodewordVec, build_incidence, is_dual_codeword
from polarlab.polarspace import get_space
from polarlab.verify import (
    WeightedPointSet,
    decompose_sum_of_lines,
    excess_profile,
    extract_ovoid,
    extract_spread,
    find_good_line,
    find_spread,
    is_minihyper,
    is_ovoid,
    is_spread,
)
from polarlab import verify
from polarlab.constructions import elliptic_hyperplane_section
import references
from references import find_ovoid, is_blocking_set


@pytest.fixture(scope="module")
def q42():
    return get_space("Q", 4, 2)


def test_blocking_set(q42):
    all_pts = range(len(q42.points))
    ok, witness = is_blocking_set(q42, all_pts, 1)
    assert ok and witness is None
    ok, witness = is_blocking_set(q42, [0], 1)
    assert not ok and witness is not None


def test_ovoid_predicates(q42):
    O = elliptic_hyperplane_section(q42)
    # plain ints: index sets and P.index lookups reject numpy integers
    assert all(type(i) is int for i in O)
    assert is_ovoid(q42, O)
    assert is_blocking_set(q42, O, 1)[0]
    assert not is_ovoid(q42, O[:-1])
    assert not is_ovoid(q42, list(O) + [next(
        i for i in range(len(q42.points)) if i not in O)])


def test_spread_and_cover(q42):
    S = find_spread(q42)
    assert S is not None and len(S) == 5
    assert is_spread(q42, S)
    assert excess_profile(q42, S)[2] == 0  # a cover, every point once
    assert not is_spread(q42, S[:-1])


def test_spread_of_a_non_singular_line_refused(q42):
    # <e0, e1> holds e0, off the quadric x0^2 + x1 x2 + x3 x4
    L = span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], q42.F)
    with pytest.raises(GeometryError, match="^not a singular line of the space$"):
        is_spread(q42, [L])


def test_excess_profile_and_good_line(q42):
    S = find_spread(q42)
    lines = [L for L, _ in q42.singular_kspaces_with_supports(1)]
    extra = next(L for L in lines if L not in S)
    excess, line_excess, total = excess_profile(q42, S + [extra])
    q = q42.q
    assert total == q + 1  # one duplicated line adds q+1 point excesses
    assert sum(1 for e in excess.values() if e) == q + 1
    good = find_good_line(q42, S + [extra])
    assert good is not None and good not in S + [extra]
    exc_pts = {i for i, e in excess.items() if e}
    good_sup = next(sup for L, sup in q42.singular_kspaces_with_supports(1)
                    if L == good)
    assert exc_pts.isdisjoint(good_sup)


def test_excess_profile_rejects_non_cover(q42):
    S = find_spread(q42)
    with pytest.raises(GeometryError):
        excess_profile(q42, S[:-1])


def test_extract_spread_and_ovoid(q42):
    S = find_spread(q42)
    lines = [L for L, _ in q42.singular_kspaces_with_supports(1)]
    extras = [L for L in lines if L not in S][:2]
    back = extract_spread(q42, S + extras)
    assert back is not None and is_spread(q42, back)
    O = elliptic_hyperplane_section(q42)
    extra_pts = [i for i in range(len(q42.points)) if i not in O][:2]
    backo = extract_ovoid(q42, list(O) + extra_pts)
    assert backo is not None and is_ovoid(q42, backo)


def test_find_ovoid_q_plus():
    P = get_space("Qplus", 5, 2)
    O = find_ovoid(P)
    assert O is not None and len(O) == 5 and is_ovoid(P, O)


def test_even_type(q42):
    # over GF(2) a set meets every line evenly exactly when its indicator
    # word is in the dual code
    A = build_incidence(q42, 1)
    O = elliptic_hyperplane_section(q42)
    comp = [i for i in range(len(q42.points)) if i not in O]
    # the complement of an ovoid meets every line in an even number
    assert is_dual_codeword(CodewordVec(dict.fromkeys(comp, 1), 15, 2), A)[0]
    assert not is_dual_codeword(CodewordVec(dict.fromkeys(O, 1), 15, 2), A)[0]


def test_weighted_point_set_drops_zero_weights():
    F = field_of_order(2)
    W = WeightedPointSet({(1, 0, 0): 1, (0, 1, 0): 0}, 2, F)
    assert W.total == 1 and len(W.weights) == 1


@pytest.mark.parametrize("x", [1, 2, 3])
def test_minihyper_sum_of_lines(x):
    # x lines of PG(4,8) form a {x(q+1), x}-minihyper
    q = 8
    F = field_of_order(q)
    rng = random.Random(x)
    pts5 = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    weights = {}
    for _ in range(x):
        a, b = rng.sample(pts5, 2)
        for pt in subspace_points(span([a, b], F), F):
            weights[pt] = weights.get(pt, 0) + 1
    W = WeightedPointSet(weights, 4, F)
    assert is_minihyper(W, x * (q + 1), x)
    assert not is_minihyper(W, x * (q + 1) + 1, x)


def test_hyperplane_weights_of_one_line():
    q = 8
    F = field_of_order(q)
    L = span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], F)
    pts = subspace_points(L, F)
    sums = hyperplane_sums(pts, [1] * len(pts), 4, F)
    # a hyperplane meets a line in 1 or q+1 points
    assert set(sums.tolist()) == {1, q + 1}


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_hyperplane_weights_match_dot_products(q, monkeypatch):
    # blocks of 32 points of PG(3,q), yielded 4 at a time for odd p: the
    # 40 to 60 points, weighted 1 to 4, cross a block boundary, and most
    # yields hold more than one weight
    monkeypatch.setattr(projspace, "_BLOCK", 32 * theta(3, q))
    F = field_of_order(q)
    rng = random.Random(q)
    pts = rng.sample(enumerate_points(3, F), min(60, theta(3, q)))
    weights = [rng.randint(1, 4) for _ in pts]
    want = []
    for d in enumerate_points(3, F):
        total = 0
        for pt, wt in zip(pts, weights):
            dot = 0
            for a, b in zip(pt, d):
                dot = F.add(dot, F.mul(a, b))
            total += wt * (dot == 0)
        want.append(total)
    assert hyperplane_sums(pts, weights, 3, F).tolist() == want


def test_decompose_sum_of_lines(q42):
    lines = q42.singular_kspaces_with_supports(1)
    chosen = [lines[0], lines[3], lines[3]]
    w = {}
    for _L, sup in chosen:
        for i in sup:
            pt = q42.points[i]
            w[pt] = w.get(pt, 0) + 1
    W = WeightedPointSet(w, 4, q42.F)
    dec = decompose_sum_of_lines(q42, W)
    assert dec is not None and len(dec) == 3
    assert sorted(S.basis for S in dec) == sorted(
        S.basis for S, _ in chosen)


def _decompose_by_full_scan(P, w, x):
    """Reference peel: the first fully covered line of the whole list."""
    if x == 0:
        return [] if not w else None
    for S, sup in P.singular_kspaces_with_supports(1):
        if all(w.get(i, 0) > 0 for i in sup):
            w2 = {i: c - (i in sup) for i, c in w.items() if c - (i in sup)}
            rest = _decompose_by_full_scan(P, w2, x - 1)
            if rest is not None:
                return [S] + rest
    return None


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_decompose_matches_full_scan(q):
    P = get_space("Q", 4, q)
    lines = P.singular_kspaces_with_supports(1)
    rng = random.Random(q)
    for case in range(40):
        w = {}
        if case < 30:
            for _L, sup in rng.choices(lines, k=rng.randint(1, 4)):
                for i in sup:
                    w[i] = w.get(i, 0) + 1
        else:  # random points, most of them no sum of lines
            w = dict.fromkeys(rng.sample(range(len(P.points)), 2 * (q + 1)), 1)
        W = WeightedPointSet({P.points[i]: c for i, c in w.items()}, 4, P.F)
        want = _decompose_by_full_scan(P, w, W.total // (q + 1))
        assert decompose_sum_of_lines(P, W) == want


def test_decompose_rejects_bad_total(q42):
    W = WeightedPointSet({q42.points[0]: 1}, 4, q42.F)
    with pytest.raises(GeometryError):
        decompose_sum_of_lines(q42, W)


@pytest.mark.parametrize("call", [
    lambda P: is_ovoid(P, [(1, 1, 1, 1, 1)]),
    lambda P: extract_ovoid(P, [(0, 0, 0, 0, 0)]),
    lambda P: is_ovoid(P, [99]),
    lambda P: decompose_sum_of_lines(P, WeightedPointSet({(1, 1, 1, 1, 1): 3}, 4, P.F)),
], ids=["off-space-ovoid", "zero-vector-blocking-set", "index-out-of-range",
        "off-space-weight"])
def test_point_not_on_the_space_refused(q42, call):
    with pytest.raises(GeometryError, match="^not a point of the space$"):
        call(q42)


def test_decompose_hermitian_lines():
    # lines of H(3,q^2) have q^2+1 points
    P = get_space("H", 3, 4)
    lines = P.singular_kspaces_with_supports(1)
    rng = random.Random(3)
    for x in (1, 2, 3):
        chosen = rng.sample(lines, x)
        w = {}
        for _L, sup in chosen:
            for i in sup:
                w[P.points[i]] = w.get(P.points[i], 0) + 1
        dec = decompose_sum_of_lines(P, WeightedPointSet(w, 3, P.F))
        assert sorted(dec) == sorted(L for L, _ in chosen)


@pytest.mark.parametrize("family,n,q", [
    ("Q", 4, 2), ("Q", 4, 3), ("Q", 4, 4), ("W", 3, 2), ("W", 3, 3),
    ("W", 3, 4), ("Qplus", 5, 2), ("Qminus", 5, 2)])
def test_find_spread_matches_reference(family, n, q):
    P = get_space(family, n, q)
    assert find_spread(P) == references.find_spread(P)


def test_find_spread_refuses_indivisible_point_count(monkeypatch):
    # 35 points of Q+(5,2) are no union of disjoint 3-point lines
    P = get_space("Qplus", 5, 2)
    monkeypatch.setattr(verify, "decompose_sum_of_lines", None)
    assert find_spread(P) is None


def test_extraction_takes_spreads_and_ovoids_of_any_size():
    # a spread of Q-(5,2) has q^3 + 1 = 9 lines, and the Hermitian curve
    # x3 = 0 is an ovoid of H(3,4) with q^3 + 1 = 9 points: neither has
    # the q^2 + 1 elements of a quadrangle of order (q,q)
    P = get_space("Qminus", 5, 2)
    spread = find_spread(P)
    assert len(spread) == 9 and is_spread(P, spread)
    assert extract_spread(P, spread) == sorted(spread)
    H = get_space("H", 3, 4)
    ovoid = [i for i, x in enumerate(H.points) if x[3] == 0]
    assert len(ovoid) == 9 and is_ovoid(H, ovoid)
    assert extract_ovoid(H, ovoid) == ovoid


@pytest.mark.parametrize("q", [2, 4])
def test_extract_matches_restart_greedies(q):
    P = get_space("Q", 4, q)
    rng = random.Random(100 + q)
    lines = [L for L, _ in P.singular_kspaces_with_supports(1)]
    spread = find_spread(P)
    pool = [L for L in lines if L not in spread]
    ovoid = elliptic_hyperplane_section(P)
    outside = [i for i in range(len(P.points)) if i not in ovoid]
    found = {"spread": 0, "ovoid": 0}
    for case in range(60):
        if case % 2:  # a spread plus extra lines, in shuffled order
            cover = spread + rng.sample(pool, rng.randint(0, 2 * q))
            rng.shuffle(cover)
        else:  # random lines, a cover or not
            cover = rng.sample(lines, rng.randint(q * q + 1, len(lines)))
        want = references.extract_spread(P, cover)
        assert extract_spread(P, cover) == want
        found["spread"] += want is not None
        if case % 2:  # an ovoid plus extra points
            B = list(ovoid) + rng.sample(outside, rng.randint(0, 2 * q))
            rng.shuffle(B)
        else:  # random points, as tuples in every fourth case
            B = rng.sample(range(len(P.points)),
                           rng.randint(q * q + 1, len(P.points)))
            if case % 4 == 0:
                B = [P.points[i] for i in B]
        want = references.extract_ovoid(P, B)
        assert extract_ovoid(P, B) == want
        found["ovoid"] += want is not None
    # both outcomes are compared
    assert all(0 < hits < 60 for hits in found.values())
